"""Reconstruction estimators, GCV truncation selection and the error-variance diagnostic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Curve, DomainGrid, FunctionalDataset, classify_complete
from .eigensystem import (
    DEFAULT_LAMBDA_REL_FLOOR,
    EigenSystem,
    Subdomain,
    eigen_on_subdomain,
    extrapolate_basis,
    _weighted_eigh,
)
from .errors import (
    DataError,
    FdreconError,
    InsufficientLocalDataError,
    NotEstimableError,
    UsageError,
)
from .scores import ScoreVector, ce_scores, integral_scores, pace_scores
from .smoothing import (
    Bandwidths,
    CovarianceEstimate,
    MeanEstimate,
    NoiseVariance,
    _bilinear,
    _llk_fit_1d,
    estimate_noise_variance,
    llk_covariance,
    llk_mean,
)

PROV_NON_ESTIMABLE = -1
PROV_OBSERVED = 0
PROV_RECONSTRUCTED = 1

METHODS = ("ano", "anoce", "ayes", "ayesce", "pace", "kraus")
GCV_MAX_COMPONENTS = 20
KRAUS_RHO_GRID_DECADES = (-6.0, 2.0)
KRAUS_RHO_GRID_SIZE = 9


def provenance_label(code: int) -> str:
    if code == PROV_NON_ESTIMABLE:
        return "non-estimable"
    if code == PROV_OBSERVED:
        return "observed-smoothed"
    if code == PROV_RECONSTRUCTED:
        return "reconstructed"
    return f"iteration-{code}"


@dataclass(frozen=True)
class ReconstructedCurve:
    """A gridded reconstruction with per-point provenance."""

    curve_id: str
    grid: DomainGrid
    values: np.ndarray
    provenance: np.ndarray
    k_used: int
    method: str
    error_variance: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def rows(self):
        """(u, value, provenance label, error variance) per grid point."""
        ev = self.error_variance
        for i, u in enumerate(self.grid.points):
            yield (
                float(u),
                float(self.values[i]),
                provenance_label(int(self.provenance[i])),
                float(ev[i]) if ev is not None else None,
            )

    def to_dict(self) -> dict:
        """JSON-serializable form (NaN encoded as null)."""
        def clean(x):
            return None if x is None or not np.isfinite(x) else float(x)

        ev = self.error_variance
        return {
            "curve_id": self.curve_id,
            "method": self.method,
            "k_used": int(self.k_used),
            "u": [float(x) for x in self.grid.points],
            "values": [clean(v) for v in self.values],
            "provenance": [provenance_label(int(p)) for p in self.provenance],
            "error_variance": None if ev is None else [clean(v) for v in ev],
        }


@dataclass
class ReconstructionModel:
    """Fitted mean, covariance, noise variance and cached eigensystems.

    The reusable artifact: fit once on a sample, then reconstruct any curve.
    """

    mean: MeanEstimate
    cov: CovarianceEstimate
    sigma2: NoiseVariance
    bandwidths: Bandwidths
    dataset: FunctionalDataset | None = None
    lambda_rel_floor: float = DEFAULT_LAMBDA_REL_FLOOR
    _eig_cache: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> DomainGrid:
        return self.mean.grid

    def full_subdomain(self) -> Subdomain:
        return Subdomain.from_indices(self.grid, np.arange(self.grid.size))

    def eigensystem_for(self, subdomain: Subdomain) -> EigenSystem:
        key = subdomain.key()
        eig = self._eig_cache.get(key)
        if eig is None:
            eig = extrapolate_basis(
                eigen_on_subdomain(self.cov, subdomain, self.lambda_rel_floor), self.cov
            )
            self._eig_cache[key] = eig
        return eig

    def full_eigensystem(self) -> EigenSystem:
        if not np.all(self.cov.mask):
            raise NotEstimableError(
                "covariance not estimable on the full domain square; "
                "use the iterative reconstruction for band-limited masks"
            )
        return self.eigensystem_for(self.full_subdomain())


def fit_reconstruction_model(
    dataset: FunctionalDataset,
    bandwidths: Bandwidths | None = None,
    min_pairs: int = 5,
    trim_fraction: float = 0.25,
    lambda_rel_floor: float = DEFAULT_LAMBDA_REL_FLOOR,
) -> ReconstructionModel:
    """Estimate mean, covariance and noise variance on the dataset's grid."""
    if bandwidths is None:
        bandwidths = Bandwidths.rule_of_thumb(dataset)
    bandwidths.validate_for_domain(dataset.domain)
    grid = dataset.grid
    mean = llk_mean(dataset, grid, bandwidths.h_mu)
    cov = llk_covariance(dataset, mean, grid, bandwidths.h_gamma, min_pairs=min_pairs)
    sigma2 = estimate_noise_variance(dataset, mean, cov, trim_fraction=trim_fraction)
    return ReconstructionModel(mean, cov, sigma2, bandwidths, dataset, lambda_rel_floor)


def curve_subdomain(curve: Curve, grid: DomainGrid) -> Subdomain:
    lo, hi = curve.observed_interval
    return Subdomain.from_interval(grid, lo, hi)


# The score route of each truncation method: numeric integration, or the
# conditional expectation on the observed subdomain or on the full domain.
_SCORE_ROUTES = {
    "ano": "integral", "ayes": "integral", "anoce": "ce", "ayesce": "ce", "pace": "pace",
}


def _scores(
    route: str,
    curve: Curve,
    model: ReconstructionModel,
    eigsys: EigenSystem,
    k: int,
    quadrature: str = "riemann",
    carry_to_ends: bool = False,
) -> ScoreVector:
    """The curve's first k scores by route: 'integral', 'ce' or 'pace'."""
    if route == "integral":
        return integral_scores(
            curve, eigsys, model.mean, k, quadrature=quadrature, carry_to_ends=carry_to_ends
        )
    if route == "ce":
        return ce_scores(curve, eigsys, model.cov, model.sigma2, model.mean, k)
    if route == "pace":
        return pace_scores(curve, eigsys, model.cov, model.sigma2, model.mean, k)
    raise UsageError(f"unknown scores method {route!r} (expected 'integral' or 'ce')")


def reconstruct_ano(
    curve: Curve,
    model: ReconstructionModel,
    k: int,
    scores_method: str = "integral",
    subdomain: Subdomain | None = None,
    quadrature: str = "riemann",
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Truncated-expansion reconstruction without boundary alignment.

    Evaluates mean plus the score-weighted extrapolated basis on every
    estimable grid point: on the observed part this is the functional-PCA
    estimate of the curve, on the missing part the optimal-reconstruction
    estimate.
    """
    grid = model.grid
    if subdomain is None:
        subdomain = curve_subdomain(curve, grid)
    eigsys = model.eigensystem_for(subdomain)
    scores = _scores(scores_method, curve, model, eigsys, k, quadrature)
    ext = eigsys.extrapolated[:, :k]
    values = model.mean.values + (ext @ scores.values if k else 0.0)
    provenance = np.full(grid.size, PROV_RECONSTRUCTED, dtype=int)
    provenance[subdomain.grid_indices] = PROV_OBSERVED
    bad = ~np.isfinite(values)
    values = np.where(bad, np.nan, values)
    provenance[bad] = PROV_NON_ESTIMABLE
    ev = error_variance(eigsys, model.cov, grid.points) if include_error_variance else None
    method = "anoce" if scores_method == "ce" else "ano"
    return ReconstructedCurve(
        curve.id, grid, values, provenance, k, method, ev,
        diagnostics={"score_flags": list(scores.flags)},
    )


def _smoothed_curve_on(
    curve: Curve, targets: np.ndarray, h_x: float
) -> tuple[np.ndarray, np.ndarray]:
    """Local-linear values of the raw curve at targets; ok=False where the fit failed."""
    beta0, counts, fallback = _llk_fit_1d(curve.u, curve.y, np.asarray(targets, float), h_x)
    ok = (counts >= 2) & ~fallback & np.isfinite(beta0)
    return beta0, ok


def _anchor_weights(intervals, u: np.ndarray):
    """How each point of u mixes the anchor rows (a_0, b_0, a_1, b_1, ...).

    Returns (lo, hi, w, direct): the point takes (1 - w) * row[lo] +
    w * row[hi]. Points at or before the first interval take a_0 and points
    at or after the last take its end (w = 0); between two intervals the
    facing ends mix linearly; points inside an interval take the nearest
    end as it is (direct).
    """
    n = u.size
    lo = np.zeros(n, dtype=int)
    hi = np.zeros(n, dtype=int)
    w = np.zeros(n)
    done = u <= intervals[0][0]
    sel = (u >= intervals[-1][1]) & ~done
    lo[sel] = hi[sel] = 2 * len(intervals) - 1
    done |= sel
    for j in range(len(intervals) - 1):
        b_j, a_next = intervals[j][1], intervals[j + 1][0]
        sel = (u > b_j) & (u < a_next) & ~done
        lo[sel], hi[sel] = 2 * j + 1, 2 * j + 2
        w[sel] = (u[sel] - b_j) / (a_next - b_j)
        done |= sel
    direct = ~done
    if np.any(direct):
        ends = np.array(intervals).ravel()
        lo[direct] = hi[direct] = np.argmin(np.abs(u[direct][:, None] - ends[None, :]), axis=1)
    return lo, hi, w, direct


def _mix(rows: np.ndarray, lo, hi, w, direct) -> np.ndarray:
    """Anchor rows mixed by ``_anchor_weights``, one output row per point."""
    r_lo, r_hi = rows[lo], rows[hi]
    if r_lo.ndim == 2:
        w, direct = w[:, None], direct[:, None]
    return np.where(direct, r_lo, (1 - w) * r_lo + w * r_hi)


class _Anchor:
    """The boundary anchor of the aligned reconstruction at the points u.

    Every point mixes the rows (a_0, b_0, a_1, b_1, ...) of values at the
    subdomain interval ends as ``_anchor_weights`` says: ``mean`` and
    ``phi`` hold the mixed mean and eigenfunction values, ``shift`` mixes
    a curve's own end values. Those come from the local-linear smoother for
    a raw curve (``_anchor_values``) and are the block-edge values for a
    gridded pseudo-curve.
    """

    def __init__(self, eigsys: EigenSystem, mean: MeanEstimate, u: np.ndarray, k: int):
        intervals = eigsys.subdomain.intervals
        self.weights = _anchor_weights(intervals, u)
        self.mean = _mix(mean.at(np.array(intervals).ravel()), *self.weights)
        self.phi = _mix(eigsys.end_values[:, :k], *self.weights)

    def shift(self, x_ends: np.ndarray, mean_u: np.ndarray, cut=slice(None)) -> np.ndarray:
        """(anchor value + mean) - anchor mean at u[cut]; x_ends may hold one column per curve."""
        ax = _mix(x_ends, *(w[cut] for w in self.weights))
        amu = self.mean[cut]
        if ax.ndim == 2:
            mean_u, amu = mean_u[:, None], amu[:, None]
        return ax + mean_u - amu


def _aligned_values(eigsys: EigenSystem, mean: MeanEstimate, idx, x_ends, xi) -> np.ndarray:
    """The aligned expansion on the grid rows idx from the end values x_ends and scores xi.

    Evaluates (anchor + mean) - anchor mean + (basis - anchor basis) @ xi;
    with one column of xi and of x_ends per curve, one column per curve.
    """
    k = xi.shape[0]
    anchor = _Anchor(eigsys, mean, eigsys.grid.points[idx], k)
    contrib = (eigsys.extrapolated[idx, :k] - anchor.phi) @ xi if k else 0.0
    return anchor.shift(x_ends, mean.values[idx]) + contrib


def reconstruct_ayes(
    curve: Curve,
    model: ReconstructionModel,
    k: int,
    scores_method: str = "integral",
    subdomain: Subdomain | None = None,
    quadrature: str = "riemann",
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Aligned reconstruction: anchored at the smoothed boundary values.

    On the observed part the curve itself is smoothed locally; on the
    missing part the truncated expansion is shifted so it connects with the
    smoothed value at the nearest boundary point. Between two observed
    intervals the anchor is the linear interpolation of the two facing
    boundary values; beyond the outermost interval the nearest extreme is
    used.
    """
    grid = model.grid
    if subdomain is None:
        subdomain = curve_subdomain(curve, grid)
    eigsys = model.eigensystem_for(subdomain)
    scores = _scores(scores_method, curve, model, eigsys, k, quadrature)
    o_idx = subdomain.grid_indices

    values = np.full(grid.size, np.nan)
    provenance = np.full(grid.size, PROV_RECONSTRUCTED, dtype=int)
    provenance[o_idx] = PROV_OBSERVED

    # Observed part: the individual local-linear smoother, with the
    # expansion value as fallback where the local fit fails.
    smoothed, ok = _smoothed_curve_on(curve, grid.points[o_idx], model.bandwidths.h_x)
    ano_on_o = model.mean.values[o_idx] + (
        eigsys.extrapolated[o_idx, :k] @ scores.values if k else 0.0
    )
    values[o_idx] = np.where(ok, smoothed, ano_on_o)
    n_smooth_fallback = int((~ok).sum())

    end_smoothing = _end_smoothing(curve, eigsys, model)
    x_ends = _anchor_values(end_smoothing, eigsys, model, scores, k)

    m_idx = np.setdiff1d(np.arange(grid.size), o_idx)
    if m_idx.size:
        vals_m = _aligned_values(eigsys, model.mean, m_idx, x_ends, scores.values)
        values[m_idx] = vals_m
        bad = m_idx[~np.isfinite(vals_m)]
        values[bad] = np.nan
        provenance[bad] = PROV_NON_ESTIMABLE

    ev = error_variance(eigsys, model.cov, grid.points) if include_error_variance else None
    method = "ayesce" if scores_method == "ce" else "ayes"
    return ReconstructedCurve(
        curve.id, grid, values, provenance, k, method, ev,
        diagnostics={
            "score_flags": list(scores.flags),
            "n_smoother_fallback": n_smooth_fallback,
            "n_anchor_fallback": int((~end_smoothing[1]).sum()),
        },
    )


def _end_smoothing(curve, eigsys, model):
    """Local-linear curve values at the subdomain interval ends and whether each fit held."""
    ends = np.array(eigsys.subdomain.intervals).ravel()
    return _smoothed_curve_on(curve, ends, model.bandwidths.h_x)


def _anchor_values(smoothing, eigsys, model, scores, k) -> np.ndarray:
    """Smoothed values at the interval ends, the expansion value where the fit failed."""
    x_vals, ok = smoothing
    x_vals = x_vals.copy()
    mu_vals = model.mean.at(np.array(eigsys.subdomain.intervals).ravel())
    for i in np.nonzero(~ok)[0]:
        x_vals[i] = float(mu_vals[i] + (eigsys.end_values[i, :k] @ scores.values if k else 0.0))
    return x_vals


def reconstruct_pace(
    curve: Curve,
    model: ReconstructionModel,
    k: int,
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Joint approximation of observed and missing parts with the full-domain basis."""
    grid = model.grid
    eigsys = model.full_eigensystem()
    scores = _scores("pace", curve, model, eigsys, k)
    phi = eigsys.extrapolated[:, :k]
    values = model.mean.values + (phi @ scores.values if k else 0.0)
    provenance = np.full(grid.size, PROV_RECONSTRUCTED, dtype=int)
    provenance[curve_subdomain(curve, grid).grid_indices] = PROV_OBSERVED
    ev = error_variance(eigsys, model.cov, grid.points) if include_error_variance else None
    return ReconstructedCurve(
        curve.id, grid, values, provenance, k, "pace", ev,
        diagnostics={"score_flags": list(scores.flags)},
    )


class _RidgeOperator:
    """The ridge regression of the missing grid rows on the observed block of o_sub.

    The covariance block on the observed grid points is diagonalized once
    under its trapezoid weights, with no eigenvalue floor and no end nodes
    off the grid; each ridge parameter then costs two products.
    """

    def __init__(self, model: ReconstructionModel, o_sub: Subdomain):
        idx = o_sub.grid_indices
        cov = model.cov
        if not np.all(cov.mask[np.ix_(idx, idx)]):
            raise NotEstimableError("covariance not estimable on the observed block")
        w = o_sub.trapezoid_weights(model.grid)
        nu, self.q, self.d = _weighted_eigh(cov.surface[np.ix_(idx, idx)], w)
        self.nu = np.clip(nu, 0.0, None)
        self.model, self.idx = model, idx
        self.m_idx = np.setdiff1d(np.arange(model.grid.size), idx)
        G_mo = cov.surface[np.ix_(self.m_idx, idx)]
        self.G_mo_w = np.where(np.isnan(G_mo), 0.0, G_mo) * w[None, :]
        self.row_ok = np.all(cov.mask[np.ix_(self.m_idx, idx)], axis=1)

    def observe(self, curve: Curve) -> tuple[np.ndarray, np.ndarray]:
        """The curve smoothed onto the observed grid points, and those values centred and weighted.

        A point where the local fit fails takes the nearest good value;
        with no good value at all, raises InsufficientLocalDataError.
        """
        points = self.model.grid.points[self.idx]
        smoothed, ok = _smoothed_curve_on(curve, points, self.model.bandwidths.h_x)
        if not np.all(ok):
            good, bad = np.nonzero(ok)[0], np.nonzero(~ok)[0]
            if good.size == 0:
                raise InsufficientLocalDataError(points[0], 0)
            nearest = np.argmin(np.abs(good[None, :] - bad[:, None]), axis=1)
            smoothed[bad] = smoothed[good[nearest]]
        return smoothed, self.d * (smoothed - self.model.mean.values[self.idx])

    def predict(self, z0: np.ndarray, rho: float) -> np.ndarray:
        """Values on the missing rows from the centred, weighted observed values z0.

        (Gamma_OO + rho I)^{-1} is applied in the weighted symmetric
        eigenbasis; rows whose covariance is not estimable are NaN.
        """
        z = (self.q @ ((self.q.T @ z0) / (self.nu + rho))) / self.d
        vals = self.model.mean.values[self.m_idx] + self.G_mo_w @ z
        vals[~self.row_ok] = np.nan
        return vals


def reconstruct_kraus(
    curve: Curve,
    model: ReconstructionModel,
    rho: float | None = None,
    dataset: FunctionalDataset | None = None,
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Ridge-regularized linear reconstruction of the missing block.

    The missing part is predicted from the smoothed observed part through
    the discretized covariance operator with a ridge on the observed block.
    When ``rho`` is not given it is chosen by the generalized
    cross-validation over completely observed curves.
    """
    grid = model.grid
    o_sub = curve_subdomain(curve, grid)
    if rho is None:
        if dataset is None:
            dataset = model.dataset
        if dataset is None:
            raise UsageError("rho not given and no dataset available for its selection")
        rho, _ = select_kraus_ridge_gcv(model, dataset, o_sub.complement(grid))
    if not (np.isfinite(rho) and rho > 0):
        raise UsageError(f"ridge parameter must be positive, got {rho}")

    op = _RidgeOperator(model, o_sub)
    smoothed, z0 = op.observe(curve)
    values = np.full(grid.size, np.nan)
    provenance = np.full(grid.size, PROV_RECONSTRUCTED, dtype=int)
    values[op.idx] = smoothed
    provenance[op.idx] = PROV_OBSERVED
    values[op.m_idx] = op.predict(z0, rho)
    provenance[op.m_idx[~op.row_ok]] = PROV_NON_ESTIMABLE

    ev = None
    if include_error_variance:
        eigsys = model.eigensystem_for(o_sub)
        ev = error_variance(eigsys, model.cov, grid.points)
    return ReconstructedCurve(
        curve.id, grid, values, provenance, 0, "kraus", ev, diagnostics={"rho": float(rho)}
    )


def error_variance(eigsys: EigenSystem, cov: CovarianceEstimate, u) -> np.ndarray:
    """Pointwise variance of the optimal-reconstruction error.

    Returns max(0, gamma(u, u) - sum_k lambda_k * ext_k(u)^2) over the
    retained components; NaN where the diagonal or the extrapolated basis
    is not estimable.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    diag_ok = _bilinear(cov.grid.points, cov.mask.astype(float), u, u) >= 1 - 1e-9
    gamma_uu = cov.at(u, u)
    ext = eigsys.extrapolated_at(u)
    total = np.einsum("uk,k->u", ext * ext, eigsys.eigenvalues)
    out = np.clip(gamma_uu - total, 0.0, None)
    out[~diag_ok] = np.nan
    out[~np.isfinite(total)] = np.nan
    return out


def _gcv_splits(
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    margin_fraction: float,
) -> tuple[Subdomain, int, list]:
    """The completely observed curves split at the target's missing region, in id order.

    A curve's observations inside the target's observed part (the
    complement of ``target_m``) stay observed; the rest become
    pseudo-missing. Returns (observed part, number of complete curves,
    splits); a split is (curve, inside mask, pseudo-observed curve), or
    None where nothing is pseudo-missing or fewer than two distinct points
    stay observed.
    """
    complete = sorted(classify_complete(dataset, margin_fraction))
    if not complete:
        raise NotEstimableError("no complete curves for GCV")
    o_sub = target_m.complement(model.grid)
    by_id = {c.id: c for c in dataset.curves}
    splits = []
    for cid in complete:
        c = by_id[cid]
        inside = o_sub.contains(c.u)
        if np.all(inside) or np.unique(c.u[inside]).size < 2:
            splits.append(None)
        else:
            splits.append((c, inside, Curve(c.id, c.u[inside], c.y[inside])))
    return o_sub, len(complete), splits


def select_truncation_gcv(
    method: str,
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    k_candidates: Sequence[int] | None = None,
    margin_fraction: float = 0.1,
    quadrature: str = "riemann",
    max_components: int = GCV_MAX_COMPONENTS,
) -> tuple[int, dict]:
    """Truncation choice by generalized cross-validation over pseudo-missing parts.

    Every completely observed curve is split at the target's missing region:
    observations inside it become pseudo-missing and are predicted from the
    pseudo-observed rest for each candidate truncation. The normalized
    residual sums feed the criterion RSS(K) / (1 - K/|C|)^2 with |C| the
    number of complete curves; ties break toward the smaller truncation.
    """
    result = select_truncations_gcv(
        [method], model, dataset, target_m, k_candidates, margin_fraction, quadrature,
        max_components,
    )[method]
    if isinstance(result, FdreconError):
        raise result
    return result


def _memo_call(memo: dict, key, fn, *args):
    """fn(*args), computed once per key; an FdreconError it raised is raised again."""
    if key not in memo:
        try:
            memo[key] = (fn(*args), None)
        except FdreconError as exc:
            memo[key] = (None, exc)
    value, exc = memo[key]
    if exc is not None:
        raise exc
    return value


class _GcvState:
    """Running GCV sums of one method."""

    def __init__(self, eigsys: EigenSystem, candidates: list[int]):
        self.eigsys = eigsys
        self.candidates = candidates
        self.k_max = max(candidates)
        self.rss = np.zeros(self.k_max)
        self.used = 0
        self.skipped = 0
        self.error: FdreconError | None = None


def _gcv_state(method, model, o_sub, n_complete, k_candidates, max_components) -> _GcvState:
    if method not in _SCORE_ROUTES:
        raise UsageError(f"unknown method {method!r}")
    eigsys = model.full_eigensystem() if method == "pace" else model.eigensystem_for(o_sub)
    k_cap = min(eigsys.k_available, n_complete - 1, max_components)
    if k_cap < 1:
        raise NotEstimableError(
            f"no admissible truncation: K_available={eigsys.k_available}, |C|={n_complete}"
        )
    if k_candidates is None:
        candidates = list(range(1, k_cap + 1))
    else:
        candidates = sorted({int(k) for k in k_candidates if 1 <= int(k) <= k_cap})
        if not candidates:
            raise UsageError("no K candidate within the admissible range")
    return _GcvState(eigsys, candidates)


def select_truncations_gcv(
    methods: Sequence[str],
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    k_candidates: Sequence[int] | None = None,
    margin_fraction: float = 0.1,
    quadrature: str = "riemann",
    max_components: int = GCV_MAX_COMPONENTS,
) -> dict[str, tuple[int, dict] | FdreconError]:
    """``select_truncation_gcv`` for several methods over one set of pseudo-missing splits.

    Maps each method to its (K, details), or to the error its own
    ``select_truncation_gcv`` call would raise. The results equal those of
    the single-method calls. The splits are made once; the mean, the
    extrapolated basis and the anchor weights are evaluated at the
    pseudo-missing points of all splits together; the scores two methods
    share (ano and ayes; anoce and ayesce) and the anchor smoothing of the
    aligned methods are computed once per split.
    """
    o_sub, n_complete, splits = _gcv_splits(model, dataset, target_m, margin_fraction)
    states: dict[str, _GcvState | FdreconError] = {}
    for method in methods:
        try:
            states[method] = _gcv_state(
                method, model, o_sub, n_complete, k_candidates, max_components
            )
        except FdreconError as exc:
            states[method] = exc

    # Every evaluation at the pseudo-missing points of all splits at once,
    # then per split the scores and the prediction prefixes over K.
    u_parts = [c.u[~inside] for c, inside, _ in filter(None, splits)]
    u_miss = np.concatenate(u_parts) if u_parts else np.empty(0)
    bounds = np.cumsum([0] + [part.size for part in u_parts])
    mu_miss = model.mean.at(u_miss)
    # Per method at the pseudo-missing points: the anchor of the aligned
    # methods and the basis, minus the anchor basis for them.
    evaluated = {}
    for method, st in states.items():
        if not isinstance(st, _GcvState):
            continue
        ext = st.eigsys.extrapolated_at(u_miss, st.k_max)
        if method in ("ayes", "ayesce"):
            anchor = _Anchor(st.eigsys, model.mean, u_miss, st.k_max)
            evaluated[method] = (anchor, ext - anchor.phi)
        else:
            evaluated[method] = (None, ext)

    pos = 0
    for split in splits:
        live = [(m, s) for m, s in states.items() if isinstance(s, _GcvState) and s.error is None]
        if not live:
            break
        if split is None:
            for _, st in live:
                st.skipped += 1
            continue
        c, inside, pseudo_obs = split
        y_miss = c.y[~inside]
        cut = slice(bounds[pos], bounds[pos + 1])
        pos += 1
        memo: dict = {}
        for method, st in live:
            route = _SCORE_ROUTES[method]
            anchor, basis = evaluated[method]
            base, basis = mu_miss[cut], basis[cut]
            try:
                scores = _memo_call(
                    memo, ("scores", route, st.k_max),
                    _scores, route, pseudo_obs, model, st.eigsys, st.k_max, quadrature, True,
                )
                if anchor is not None:
                    smoothing = _memo_call(
                        memo, ("ends",), _end_smoothing, pseudo_obs, st.eigsys, model
                    )
                    x_vals = _anchor_values(smoothing, st.eigsys, model, scores, st.k_max)
                    base = anchor.shift(x_vals, base, cut)
            except (NotEstimableError, InsufficientLocalDataError, DataError):
                st.skipped += 1
                continue
            except FdreconError as exc:
                st.error = exc
                continue
            preds = base[:, None] + np.cumsum(basis * scores.values[None, :], axis=1)
            resid = preds - y_miss[:, None]
            finite = np.all(np.isfinite(resid), axis=0)
            if not np.all(finite):
                resid = np.where(np.isfinite(resid), resid, 0.0)
            st.rss += np.sum(resid * resid, axis=0) / y_miss.size
            st.used += 1

    results: dict[str, tuple[int, dict] | FdreconError] = {}
    for method, st in states.items():
        if not isinstance(st, _GcvState):
            results[method] = st
        elif st.error is not None:
            results[method] = st.error
        elif st.used == 0:
            results[method] = NotEstimableError(
                "no complete curves for GCV (all splits degenerate)"
            )
        else:
            results[method] = _gcv_choice(st, n_complete)
    return results


def _gcv_choice(st: _GcvState, n_complete: int) -> tuple[int, dict]:
    ks = np.array(st.candidates)
    denom = (1.0 - ks / n_complete) ** 2
    gcv = st.rss[ks - 1] / denom
    best = int(ks[int(np.argmin(gcv))])
    details = {
        "candidates": st.candidates,
        "gcv": {int(kk): float(g) for kk, g in zip(ks, gcv)},
        "rss": {int(kk): float(st.rss[kk - 1]) for kk in ks},
        "n_complete": n_complete,
        "n_used": st.used,
        "n_skipped": st.skipped,
    }
    return best, details


def select_kraus_ridge_gcv(
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    rho_candidates: Sequence[float] | None = None,
    margin_fraction: float = 0.1,
) -> tuple[float, dict]:
    """Ridge parameter by the same pseudo-missing GCV with effective degrees of freedom."""
    o_sub, n_complete, splits = _gcv_splits(model, dataset, target_m, margin_fraction)
    op = _RidgeOperator(model, o_sub)
    trace = float(op.nu.sum())
    if rho_candidates is None:
        lo, hi = KRAUS_RHO_GRID_DECADES
        scale = max(trace / op.idx.size, 1e-300)
        rho_candidates = [scale * 10.0 ** e for e in np.linspace(lo, hi, KRAUS_RHO_GRID_SIZE)]
    rho_candidates = sorted(float(r) for r in rho_candidates if r > 0)
    if not rho_candidates:
        raise UsageError("no positive ridge candidate")

    prepared = []
    for c, inside, pseudo in filter(None, splits):
        try:
            prepared.append((c, inside, op.observe(pseudo)[1]))
        except InsufficientLocalDataError:
            continue
    if not prepared:
        raise NotEstimableError("no complete curves for GCV (all splits degenerate)")

    m_points = model.grid.points[op.m_idx]
    results = {}
    for rho in rho_candidates:
        df = float(np.sum(op.nu / (op.nu + rho)))
        if df >= n_complete:
            continue
        rss = 0.0
        for c, inside, z0 in prepared:
            vals_m = op.predict(z0, rho)
            preds = np.interp(c.u[~inside], m_points, vals_m) if m_points.size else np.array([])
            resid = c.y[~inside] - preds
            resid = resid[np.isfinite(resid)]
            if resid.size:
                rss += float(resid @ resid) / resid.size
        results[rho] = rss / (1.0 - df / n_complete) ** 2
    if not results:
        best = rho_candidates[-1]
    else:
        best = min(results, key=lambda r: (results[r], r))
    return float(best), {"gcv": results, "trace": trace}


def reconstruct_with_method(
    name: str,
    curve: Curve,
    model: ReconstructionModel,
    k: int | None = None,
    rho: float | None = None,
    dataset: FunctionalDataset | None = None,
    quadrature: str = "riemann",
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Dispatch a reconstruction by method name (ano, anoce, ayes, ayesce, pace, kraus)."""
    name = name.lower()
    if name not in METHODS:
        raise UsageError(f"unknown method {name!r}; expected one of {', '.join(METHODS)}")
    if name == "kraus":
        return reconstruct_kraus(curve, model, rho=rho, dataset=dataset,
                                 include_error_variance=include_error_variance)
    if k is None:
        raise UsageError(f"method {name!r} needs a truncation K")
    if name == "pace":
        return reconstruct_pace(curve, model, k, include_error_variance=include_error_variance)
    scores_method = _SCORE_ROUTES[name]
    fn = reconstruct_ayes if name.startswith("ayes") else reconstruct_ano
    return fn(curve, model, k, scores_method, quadrature=quadrature,
              include_error_variance=include_error_variance)
