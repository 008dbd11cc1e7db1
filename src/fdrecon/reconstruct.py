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
    interp_columns,
    _weighted_eigh,
)
from .errors import (
    DataError,
    FdreconError,
    InsufficientLocalDataError,
    NotEstimableError,
    UsageError,
)
from .scores import (
    ScoreVector,
    _ce_batch,
    _integral_batch,
    _segments,
    ce_scores,
    integral_scores,
    pace_scores,
)
from .smoothing import (
    Bandwidths,
    CovarianceEstimate,
    MeanEstimate,
    NoiseVariance,
    _bilinear,
    _smoothed_on,
    estimate_noise_variance,
    llk_covariance,
    llk_mean,
)

PROV_NON_ESTIMABLE = -1
PROV_OBSERVED = 0
PROV_RECONSTRUCTED = 1

METHODS = ("ano", "anoce", "ayes", "ayesce", "pace", "kraus")
GCV_MAX_COMPONENTS = 20
# Distinct target geometries one GCV pass splits the curves at. The truncation
# arrays grow with their number: a pass over the 50 geometries of a DGP-1
# replication (n=50, m=15) peaked at 8 MB, passes of 16 at 3 MB, for about 5%
# more GCV time.
GCV_PARTS_PER_PASS = 16
# Parts of a pass one smoother pass of the ridge GCV takes. On 25 dense parts
# (50 curves of 60 points) passes of 25, 8 and 4 parts peaked at 12.7, 5.1 and
# 3.2 MB, against 6.6 MB for the model fit; passes of 1 to 4 parts ran equally fast.
RIDGE_GCV_PARTS_PER_PASS = 4
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
    """Fitted mean, covariance, noise variance and the caches built from them.

    The reusable artifact: fit once on a sample, then reconstruct any curve.
    The model caches eigensystems per subdomain, ridge operators per
    observed part and iterative completion plans per first-step coverage,
    so curves reconstructed on one model share that work.
    """

    mean: MeanEstimate
    cov: CovarianceEstimate
    sigma2: NoiseVariance
    bandwidths: Bandwidths
    dataset: FunctionalDataset | None = None
    lambda_rel_floor: float = DEFAULT_LAMBDA_REL_FLOOR
    _eig_cache: dict = field(default_factory=dict, init=False, repr=False)
    _ridge_cache: dict = field(default_factory=dict, init=False, repr=False)
    _plan_cache: dict = field(default_factory=dict, init=False, repr=False)
    _full: Subdomain | None = field(default=None, init=False, repr=False)

    @property
    def grid(self) -> DomainGrid:
        return self.mean.grid

    def full_subdomain(self) -> Subdomain:
        if self._full is None:
            self._full = Subdomain.from_indices(self.grid, np.arange(self.grid.size))
        return self._full

    def eigensystem_for(self, subdomain: Subdomain) -> EigenSystem:
        key = subdomain.key()
        eig = self._eig_cache.get(key)
        if eig is None:
            eig = extrapolate_basis(
                eigen_on_subdomain(self.cov, subdomain, self.lambda_rel_floor), self.cov
            )
            self._eig_cache[key] = eig
        return eig

    def ridge_operator_for(self, o_sub: Subdomain) -> "_RidgeOperator":
        key = o_sub.key()
        op = self._ridge_cache.get(key)
        if op is None:
            op = self._ridge_cache[key] = _RidgeOperator(self, o_sub)
        return op

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
    raise UsageError(f"unknown scores method {route!r} (expected 'integral', 'ce' or 'pace')")


def _anchor_weights(intervals, u: np.ndarray):
    """How each point of u mixes the interval ends (a_0, b_0, a_1, b_1, ...).

    Returns (lo, hi, w): the point takes (1 - w) * end[lo] + w * end[hi].
    Points at or before the first interval take a_0 and points at or after
    the last take its end; between two intervals the facing ends mix
    linearly; points inside an interval take the nearest end. Where a point
    takes one end, lo = hi and w = 0.
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
    inside = ~done
    if inside.any():
        ends = np.array(intervals).ravel()
        lo[inside] = hi[inside] = np.abs(u[inside][:, None] - ends[None, :]).argmin(axis=1)
    return lo, hi, w


def _mix(ends: np.ndarray, lo, hi, w) -> np.ndarray:
    """Rows of values at the ends mixed by ``_anchor_weights``, one row per point."""
    if ends.ndim == 2:
        w = w[:, None]
    mixed = ends[hi]
    mixed *= w
    at_lo = ends[lo]
    at_lo *= 1 - w
    mixed += at_lo
    return mixed


def _expansion(mean_u, basis_u, xi, group=None) -> np.ndarray:
    """The truncated expansion mu + sum_{k <= K} xi_k psi_k at some points.

    Every truncated expansion of the package is formed here: the
    reconstructions, the iterative steps, the GCV splits and the
    error-accumulation check. ``mean_u`` and ``basis_u`` hold the mean and
    the extrapolated basis psi at the points, one row per point, or their
    aligned terms (``_shifted`` and ``_tilted``), and ``xi`` K scores, or one
    row of K scores per curve.

    Without ``group`` the result is the expansion at K = xi.shape[-1], one
    row per curve when xi has them. With ``group``, point p belongs to the
    curve of row group[p] of xi, and column K - 1 of the result holds the
    expansion at K for every K: the running sum GCV scores, added column by
    column as ``np.cumsum`` adds.

    A GCV split differs from a reconstruction on purpose in three ways: its
    integral scores carry the curve to the subdomain ends
    (``carry_to_ends``), it is evaluated at its pseudo-missing points rather
    than at grid points, and its ends are smoothed on the split's points.
    """
    if group is None:
        return mean_u + (basis_u @ xi if xi.ndim == 1 else xi @ basis_u.T)
    values = xi[group]
    values *= basis_u
    for k in range(1, values.shape[1]):  # np.cumsum along the rows, without a second array
        values[:, k] += values[:, k - 1]
    values += mean_u[:, None]
    return values


# The aligned expansion. Row r of ``mean_ends`` and ``basis_ends`` holds the mean and
# the eigenfunctions at an interval end, x[r] the curve's value there (one row per curve
# may be given) and ok[r] whether its end fit held. ``weights`` are the points'
# ``_anchor_weights``. With d_end = x_end - plain_K(end) where the fit held, else 0,
# aligned_K(u) = plain_K(u) + mix_u(d) is, as d is linear in the scores, the expansion
# with mean ``_shifted`` and basis ``_tilted`` at every K: a failed end drops out.


def _shifted(mean_u, weights, mean_ends, x, ok):
    """The aligned expansion's mean term mu(u) + mix_u(ok (x - mu(end)))."""
    shift = np.where(ok, x - mean_ends, 0.0)
    return mean_u + _mix(shift.T, *weights).T


def _tilted(basis_u, weights, basis_ends, ok):
    """The aligned expansion's basis term psi_k(u) - mix_u(ok psi_k(end)), for each column k."""
    return basis_u - _mix(np.where(np.reshape(ok, (-1, 1)), basis_ends, 0.0), *weights)


class _RowTerms:
    """What an expansion on an eigensystem at some grid rows needs that no curve changes.

    The rows' ``_anchor_weights``, the flat interval ends, the mean there and
    the curve smoother's targets (the grid points of the subdomain, then its
    ends). The aligned basis term is built once per truncation K and pattern
    of failed end fits, whose rows of the end values are zeroed. (One table
    for every K held as much memory again as the extrapolated bases.)
    """

    def __init__(self, eigsys: EigenSystem, mean: MeanEstimate, rows: np.ndarray):
        intervals, points = eigsys.subdomain.intervals, eigsys.grid.points
        self.rows, self.end_values, self.ends = rows, eigsys.end_values, np.ravel(intervals)
        self.targets = np.concatenate([points[eigsys.subdomain.grid_indices], self.ends])
        self.weights = _anchor_weights(intervals, points[rows])
        self.mean, self.mean_ends = mean.values[rows], mean.at(self.ends)
        self.extrapolated, self._tilted = eigsys.extrapolated, {}

    def expansion(self, xi, x=None, ok=True) -> np.ndarray:
        """The expansion at the rows with scores xi, aligned at the ends' values x if given.

        ``ok`` marks the ends whose fit held (True: all); x and xi may hold a row per curve.
        """
        k = xi.shape[-1]
        if x is None:
            return _expansion(self.mean, self.extrapolated[self.rows, :k], xi)
        key = (k, ok if ok is True else np.asarray(ok).tobytes())
        tilted = self._tilted.get(key)
        if tilted is None:
            basis, ends = self.extrapolated[self.rows, :k], self.end_values[:, :k]
            tilted = self._tilted[key] = _tilted(basis, self.weights, ends, ok)
        return _expansion(_shifted(self.mean, self.weights, self.mean_ends, x, ok), tilted, xi)


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
    estimate. With ``scores_method='pace'`` the basis and the scores are the
    full domain's, which is ``reconstruct_pace``.
    """
    return _reconstruct(False, scores_method, curve, model, k, subdomain, quadrature,
                        include_error_variance)


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
    intervals the shift is the linear interpolation of the two facing
    boundary residuals; beyond the outermost interval the nearest extreme is
    used. An end whose local fit fails shifts nothing (``_shifted``, ``_tilted``).
    """
    return _reconstruct(True, scores_method, curve, model, k, subdomain, quadrature,
                        include_error_variance)


def _reconstruct(aligned, route, curve, model, k, subdomain, quadrature, include_error_variance):
    """``reconstruct_ayes`` if aligned, else ``reconstruct_ano``, with scores by route."""
    grid = model.grid
    if subdomain is None:
        subdomain = curve_subdomain(curve, grid)
    # Pace scores take the full domain's eigensystem, and refuse the subdomain's when aligned.
    full = route == "pace" and not aligned
    eigsys = model.full_eigensystem() if full else model.eigensystem_for(subdomain)
    scores = _scores(route, curve, model, eigsys, k, quadrature)
    o_idx = subdomain.grid_indices
    provenance = np.full(grid.size, PROV_RECONSTRUCTED, dtype=int)
    provenance[o_idx] = PROV_OBSERVED
    values = _expansion(model.mean.values, eigsys.extrapolated[:, :k], scores.values)
    diagnostics = {"score_flags": list(scores.flags)}
    if aligned:
        if "missing" not in eigsys.tables:  # the missing rows' terms, kept with the eigensystem
            missing = np.flatnonzero(provenance == PROV_RECONSTRUCTED)
            eigsys.tables["missing"] = _RowTerms(eigsys, model.mean, missing)
        terms = eigsys.tables["missing"]
        # One local-linear pass of the curve smooths the observed grid points
        # and the interval ends; its windows are per target point.
        smoothed, ok = _smoothed_on(curve.u, curve.y, terms.targets, model.bandwidths.h_x)
        x_ends, end_ok = smoothed[o_idx.size :], ok[o_idx.size :]
        # Observed part: the curve's smooth, the expansion where the local fit fails.
        values[o_idx] = np.where(ok[: o_idx.size], smoothed[: o_idx.size], values[o_idx])
        values[terms.rows] = terms.expansion(scores.values, x_ends, end_ok)
        diagnostics.update(n_smoother_fallback=int((~ok[: o_idx.size]).sum()),
                           n_anchor_fallback=int((~end_ok).sum()))
    bad = ~np.isfinite(values)
    values[bad] = np.nan
    provenance[bad] = PROV_NON_ESTIMABLE
    ev = error_variance(eigsys, model.cov, grid.points, k) if include_error_variance else None
    method = "pace" if route == "pace" else ("ayes" if aligned else "ano") + "ce" * (route == "ce")
    return ReconstructedCurve(
        curve.id, grid, values, provenance, k, method, ev, diagnostics=diagnostics
    )


def reconstruct_pace(
    curve: Curve,
    model: ReconstructionModel,
    k: int,
    include_error_variance: bool = False,
) -> ReconstructedCurve:
    """Joint approximation of observed and missing parts with the full-domain basis.

    The ano reconstruction on the full-domain eigensystem with pace scores.
    """
    return reconstruct_ano(curve, model, k, "pace", include_error_variance=include_error_variance)


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
        self.mean, self.h_x = model.mean.values, model.bandwidths.h_x
        self.idx, self.points = idx, model.grid.points[idx]
        self.m_idx = np.setdiff1d(np.arange(model.grid.size), idx)
        self.m_points = model.grid.points[self.m_idx]
        G_mo = cov.surface[np.ix_(self.m_idx, idx)]
        self.G_mo_w = np.where(np.isnan(G_mo), 0.0, G_mo) * w[None, :]
        self.row_ok = np.all(cov.mask[np.ix_(self.m_idx, idx)], axis=1)

    def observe(self, u, y):
        """One curve's observations smoothed onto the observed grid points; see ``centred``."""
        smoothed, good = _smoothed_on(u, y, self.points, self.h_x)
        return self.centred(smoothed[:, None], good[:, None])

    def centred(self, smoothed: np.ndarray, good: np.ndarray):
        """Curves smoothed onto the observed grid points, filled, and centred and weighted.

        ``smoothed`` holds one column per curve and ``good`` whether each
        local fit held. A point where it failed takes the nearest good value
        of its column, the lower one on a tie. Returns (smoothed, z0, ok),
        where ok is False for a column without any good value.
        """
        p = self.idx.size
        rows = np.arange(p)[:, None]
        before = np.maximum.accumulate(np.where(good, rows, -p), axis=0)
        after = np.minimum.accumulate(np.where(good, rows, 2 * p)[::-1], axis=0)[::-1]
        nearest = np.clip(np.where(rows - before <= after - rows, before, after), 0, p - 1)
        smoothed = np.take_along_axis(smoothed, nearest, axis=0)
        z0 = self.d[:, None] * (smoothed - self.mean[self.idx][:, None])
        return smoothed, z0, good.any(axis=0)

    def predict(self, z0: np.ndarray, rho: float) -> np.ndarray:
        """Values on the missing rows from the centred, weighted observed values z0.

        (Gamma_OO + rho I)^{-1} is applied in the weighted symmetric
        eigenbasis; rows whose covariance is not estimable are NaN. z0 may
        hold one column per curve, and the values then do too.
        """
        col = (slice(None),) + (None,) * (z0.ndim - 1)
        z = (self.q @ ((self.q.T @ z0) / (self.nu + rho)[col])) / self.d[col]
        vals = self.mean[self.m_idx][col] + self.G_mo_w @ z
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
    cross-validation over completely observed curves, split at the curve's
    own observed part (``select_gcv``). The ridge has no truncation, so the
    error variance, when asked for, sums over every component the observed
    interval's eigensystem retains.
    """
    grid = model.grid
    o_sub = curve_subdomain(curve, grid)
    if rho is None:
        dataset = model.dataset if dataset is None else dataset
        if dataset is None:
            raise UsageError("rho not given and no dataset available for its selection")
        rho, _ = _chosen(select_gcv(["kraus"], model, dataset, [o_sub])[0]["kraus"])
    if not (np.isfinite(rho) and rho > 0):
        raise UsageError(f"ridge parameter must be positive, got {rho}")

    op = model.ridge_operator_for(o_sub)
    smoothed, z0, ok = op.observe(curve.u, curve.y)
    if not ok[0]:
        raise InsufficientLocalDataError(op.points[0], 0)
    smoothed, z0 = smoothed[:, 0], z0[:, 0]
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


def error_variance(
    eigsys: EigenSystem, cov: CovarianceEstimate, u, k: int | None = None
) -> np.ndarray:
    """Pointwise variance of the optimal-reconstruction error.

    Returns max(0, gamma(u, u) - sum_k lambda_k * ext_k(u)^2) over the first
    ``k`` components, or over every retained one when ``k`` is None; NaN
    where the diagonal or the extrapolated basis is not estimable.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    diag_ok = _bilinear(cov.grid.points, cov.mask.astype(float), u, u) >= 1 - 1e-9
    gamma_uu = cov.at(u, u)
    ext = eigsys.extrapolated_at(u, k)
    total = np.einsum("uk,k->u", ext * ext, eigsys.eigenvalues[:k])
    out = np.clip(gamma_uu - total, 0.0, None)
    out[~diag_ok] = np.nan
    out[~np.isfinite(total)] = np.nan
    return out


def _contains(observed: Sequence[Subdomain], u: np.ndarray) -> np.ndarray:
    """``observed[j].contains(u)`` for every part j at once, one row per part."""
    lo, hi = np.array([iv for o_sub in observed for iv in o_sub.intervals]).T
    first = np.cumsum([0] + [len(o_sub.intervals) for o_sub in observed[:-1]])
    return np.logical_or.reduceat((u >= lo[:, None]) & (u <= hi[:, None]), first, axis=0)


class _SplitBatch:
    """The completely observed curves split at each observed part, stacked.

    A curve's observations inside an observed part stay observed; the rest
    become pseudo-missing. A split is degenerate where nothing is
    pseudo-missing or fewer than two distinct points stay observed. The
    other ``n`` splits are numbered part by part, in id order within a part:
    ``geometry`` holds the part of each and ``bounds[j]:bounds[j + 1]`` the
    splits of part j; ``obs`` and ``miss`` hold (u, y, split number) of
    their pseudo-observed and pseudo-missing points, sorted within each
    split. ``n_complete`` counts the complete curves and ``n_degenerate``
    the degenerate splits of each part.
    """

    def __init__(self, dataset: FunctionalDataset, observed: Sequence[Subdomain], margin_fraction):
        complete = sorted(classify_complete(dataset, margin_fraction))
        if not complete:
            raise NotEstimableError("no complete curves for GCV")
        by_id = {c.id: c for c in dataset.curves}
        curves = [by_id[cid] for cid in complete]
        sizes = np.array([c.n_obs for c in curves])
        first = np.cumsum(sizes) - sizes
        u = np.concatenate([c.u for c in curves])  # each curve's u is sorted
        y = np.concatenate([c.y for c in curves])
        inside = _contains(observed, u)
        kept = np.add.reduceat(inside, first, axis=1, dtype=int)
        lo = np.minimum.reduceat(np.where(inside, u, np.inf), first, axis=1)
        hi = np.maximum.reduceat(np.where(inside, u, -np.inf), first, axis=1)
        live = (kept < sizes) & (hi > lo)
        self.n_complete = len(curves)
        self.n_degenerate = (~live).sum(axis=1)
        self.geometry = np.nonzero(live)[0]
        self.n = self.geometry.size
        self.bounds = np.searchsorted(self.geometry, np.arange(len(observed) + 1))
        number = np.cumsum(live).reshape(live.shape) - 1
        split = np.where(live, number, -1)[:, np.repeat(np.arange(len(curves)), sizes)]

        def points(mask):
            part, at = np.nonzero(mask & (split >= 0))
            return u[at], y[at], split[part, at]

        self.obs, self.miss = points(inside), points(~inside)

    def restrict(self, points, keep: np.ndarray):
        """Those of the (u, y, split) points whose split is kept, the kept splits renumbered."""
        if keep.all():
            return points
        u, y, split = points
        sel = keep[split]
        return u[sel], y[sel], (np.cumsum(keep) - 1)[split[sel]]


def select_truncation_gcv(
    method: str,
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    k_candidates: Sequence[int] | None = None,
    margin_fraction: float = 0.1,
    quadrature: str = "riemann",
) -> tuple[int, dict]:
    """Truncation choice by generalized cross-validation over pseudo-missing parts.

    Every completely observed curve is split at the target's missing region:
    observations inside it become pseudo-missing and are predicted from the
    pseudo-observed rest for each candidate truncation. The normalized
    residual sums feed the criterion RSS(K) / (1 - K/|C|)^2 with |C| the
    number of complete curves; ties break toward the smaller truncation.
    This is the one-method case of ``select_truncations_gcv``, and it scores
    ``target_m.complement(grid)`` as that does; the selection's error is raised.
    """
    return _chosen(select_truncations_gcv(
        [method], model, dataset, target_m, k_candidates, margin_fraction, quadrature
    )[method])


def select_truncations_gcv(
    methods: Sequence[str],
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    k_candidates: Sequence[int] | None = None,
    margin_fraction: float = 0.1,
    quadrature: str = "riemann",
) -> dict[str, tuple[int, dict] | FdreconError]:
    """``select_truncation_gcv`` for several methods over one set of pseudo-missing splits.

    Maps each method to its (K, details), "kraus" to its (rho, details), or
    to the error its selection met. This is the one-geometry case of
    ``select_gcv``, on the observed part ``target_m.complement(grid)``.
    That part need not be a curve's own observed part: the complement of a
    complement snaps an interval end that lies within 1e-9 of the domain
    width from a grid point onto that point, so a caller holding a curve's
    observed part passes it to ``select_gcv`` itself.
    """
    return select_gcv(
        methods, model, dataset, [target_m.complement(model.grid)],
        k_candidates, margin_fraction, quadrature,
    )[0]


def select_kraus_ridge_gcv(
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    target_m: Subdomain,
    margin_fraction: float = 0.1,
) -> tuple[float, dict]:
    """Ridge parameter by the same pseudo-missing GCV with effective degrees of freedom.

    The candidates are KRAUS_RHO_GRID_SIZE values log-spaced over
    KRAUS_RHO_GRID_DECADES around the mean eigenvalue of the observed block.
    This is the one-geometry case of ``select_gcv`` for kraus, and it scores
    ``target_m.complement(grid)`` as ``select_truncations_gcv`` does; the
    selection's error is raised.
    """
    selected = select_gcv(
        ["kraus"], model, dataset, [target_m.complement(model.grid)], margin_fraction=margin_fraction
    )
    return _chosen(selected[0]["kraus"])


def _chosen(result):
    """A GCV slot's (choice, details); a slot holding an error raises it."""
    if isinstance(result, FdreconError):
        raise result
    return result


def select_gcv(
    methods: Sequence[str],
    model: ReconstructionModel,
    dataset: FunctionalDataset,
    observed: Sequence[Subdomain],
    k_candidates: Sequence[int] | None = None,
    margin_fraction: float = 0.1,
    quadrature: str = "riemann",
) -> list[dict[str, tuple[int | float, dict] | FdreconError]]:
    """GCV tuning of every method for every target geometry: K, or rho for kraus.

    ``observed`` holds the observed part of each target. Returns, per entry,
    each method mapped to its (K, details), (rho, details) for kraus, or the
    error that stopped its selection there; a dataset without complete curves
    puts that error in every slot. Each distinct geometry (by ``key()``) is
    evaluated once, and the complete curves are split at GCV_PARTS_PER_PASS
    of them at a time, which bounds the stacked arrays. In a pass, a short
    loop over the parts evaluates what needs a part's eigensystem; the
    quadrature, the score products, the smoothing and the residual sums run
    on the splits of all its parts at once, and methods on one score route
    (ano and ayes; anoce and ayesce) share the scores. Kraus smooths
    RIDGE_GCV_PARTS_PER_PASS parts' splits per smoother pass, whose windows
    stay within a split, and leaves out a split it cannot smooth anywhere.
    Each product is formed at its part's own size and truncation, so a
    part's results equal those of its one-part call bit for bit.

    A split whose scores raise NotEstimableError, InsufficientLocalDataError
    or DataError is skipped for that method, as is a degenerate split; any
    other FdreconError ends the method with its first such error in id order.
    """
    distinct = {o_sub.key(): o_sub for o_sub in observed}
    parts = list(distinct.values())
    whole = DataError("subdomain covers the whole grid; empty complement")
    results = [
        {m: whole if m in METHODS and o_sub.grid_indices.size == model.grid.size else None
         for m in methods}
        for o_sub in parts
    ]
    for first in range(0, len(parts), GCV_PARTS_PER_PASS):
        chunk = parts[first : first + GCV_PARTS_PER_PASS]
        slots = results[first : first + GCV_PARTS_PER_PASS]
        try:
            batch = _SplitBatch(dataset, chunk, margin_fraction)
        except FdreconError as exc:
            for selected in slots:
                selected.update(dict.fromkeys(methods, exc))
            continue
        _select_truncations(methods, model, batch, chunk, slots, k_candidates, quadrature)
        if "kraus" in methods:
            _select_ridges(model, batch, chunk, slots)
    by_key = dict(zip(distinct, results))
    return [dict(by_key[o_sub.key()]) for o_sub in observed]


def _gcv_candidates(method, model, o_sub, n_complete, k_candidates):
    """The eigensystem of a method's GCV and its candidate truncations."""
    if method not in _SCORE_ROUTES:
        raise UsageError(f"unknown method {method!r}")
    eigsys = model.full_eigensystem() if method == "pace" else model.eigensystem_for(o_sub)
    k_cap = min(eigsys.k_available, n_complete - 1, GCV_MAX_COMPONENTS)
    if k_cap < 1:
        raise NotEstimableError(
            f"no admissible truncation: K_available={eigsys.k_available}, |C|={n_complete}"
        )
    if k_candidates is None:
        return eigsys, list(range(1, k_cap + 1))
    candidates = sorted({int(k) for k in k_candidates if 1 <= int(k) <= k_cap})
    if not candidates:
        raise UsageError("no K candidate within the admissible range")
    return eigsys, candidates


def _split_scores(route, batch: _SplitBatch, parts, eigsystems, ks, model, quadrature):
    """The first k scores of every split of the given parts by route, one row per split.

    Part parts[i] uses eigsystems[i] and ks[i]; rows of other parts stay
    zero. Also returns, per split, the FdreconError its scores raised (else
    None).
    """
    keep = np.isin(batch.geometry, parts)
    u, y, group = batch.restrict(batch.obs, keep)
    n = int(keep.sum())
    geometry = np.searchsorted(parts, batch.geometry[keep])
    xi = np.zeros((batch.n, max(ks)))
    errors: list[FdreconError | None] = [None] * batch.n
    try:
        if route == "integral":
            resid = y - model.mean.at(u)
            values, _ = _integral_batch(
                u, resid, group, n, eigsystems, ks, quadrature, True, geometry
            )
            found = [None] * n
        else:
            values, _, found = _ce_batch(
                u, y, group, n, eigsystems, model.sigma2, model.mean, ks, geometry
            )
        xi[keep] = values
    except FdreconError as exc:
        found = [exc] * n
    for i, exc in zip(np.flatnonzero(keep).tolist(), found):
        errors[i] = exc
    return xi, errors


class _Expansion:
    """Each part's truncated expansion at the pseudo-missing points of its splits.

    Part j of ``parts`` uses fits[j] = (eigensystem, candidates) up to its
    largest candidate. A loop over the parts evaluates what needs a part's
    eigensystem: its extrapolated basis (``basis``, zero padded) and, for
    the aligned methods, its interval ends. The interval-end smoothing of
    every split is one smoother pass whose windows stay within a split, and
    the residuals of every split and K come from one ``_expansion``.
    """

    def __init__(self, batch: _SplitBatch, parts, fits, model):
        self.keep = np.isin(batch.geometry, parts)
        self.u, self.y, self.group = batch.restrict(batch.miss, self.keep)
        self.obs = batch.restrict(batch.obs, self.keep)
        self.fits, self.model = fits, model
        self.mean = model.mean.at(self.u)
        before = np.concatenate([[0], np.cumsum(self.keep)])[batch.bounds].tolist()
        at = np.searchsorted(self.group, before).tolist()
        # Per part: its splits and its points among those kept.
        self.runs = [(j, slice(before[j], before[j + 1]), slice(at[j], at[j + 1])) for j in parts]
        self.basis = np.zeros((self.u.size, max(max(fits[j][1]) for j in parts)))
        for j, _, rows in self.runs:
            eigsys, candidates = fits[j]
            k = max(candidates)
            self.basis[rows, :k] = eigsys.extrapolated_at(self.u[rows], k)
        self._aligned = None

    def aligned(self):
        """The aligned mean and basis terms, from every kept split's ends smoothed on its points."""
        if self._aligned is None:
            n, k_max = self.basis.shape
            lo, hi, w = np.zeros(n, int), np.zeros(n, int), np.zeros(n)
            at, basis, group = [], [], []
            for j, splits, rows in self.runs:
                eigsys, candidates = self.fits[j]
                intervals, k = eigsys.subdomain.intervals, max(candidates)
                n_ends, n_splits = 2 * len(intervals), splits.stop - splits.start
                # A point's end rows are its split's, after those of the splits before.
                first = sum(map(len, at)) + n_ends * (self.group[rows] - splits.start)
                lo[rows], hi[rows], w[rows] = _anchor_weights(intervals, self.u[rows])
                lo[rows], hi[rows] = lo[rows] + first, hi[rows] + first
                at.append(np.tile(np.ravel(intervals), n_splits))
                padded = np.pad(eigsys.end_values[:, :k], ((0, 0), (0, k_max - k)))
                basis.append(np.tile(padded, (n_splits, 1)))
                group.append(np.repeat(np.arange(splits.start, splits.stop), n_ends))
            at, group = np.concatenate(at), np.concatenate(group)
            u, y, obs_group = self.obs
            x, ok = _smoothed_on(u, y, at, self.model.bandwidths.h_x, groups=(obs_group, group))
            weights = (lo, hi, w)
            self._aligned = (
                _shifted(self.mean, weights, self.model.mean.at(at), x, ok),
                _tilted(self.basis, weights, np.vstack(basis), ok),
            )
        return self._aligned

    def rss(self, xi: np.ndarray, aligned: bool) -> np.ndarray:
        """Normalized residual sums per K of every kept split, one row per split.

        ``xi`` holds the scores of every split; ``aligned`` anchors the
        expansion at the split's smoothed interval ends.
        """
        xi = xi[self.keep]
        mean, basis = self.aligned() if aligned else (self.mean, self.basis)
        # The expansion less y, formed in place; non-finite residuals count as 0.
        resid = _expansion(mean, basis, xi, self.group)
        resid -= self.y[:, None]
        resid[~np.isfinite(resid)] = 0.0
        starts, sizes = _segments(self.group, xi.shape[0])
        return np.add.reduceat(np.square(resid, out=resid), starts, axis=0) / sizes[:, None]


_ALL_DEGENERATE = "no complete curves for GCV (all splits degenerate)"
# Score errors that skip a split for a method; any other FdreconError ends the method.
_SKIPPING_ERRORS = (NotEstimableError, InsufficientLocalDataError, DataError)


def _select_truncations(methods, model, batch: _SplitBatch, parts, results, k_candidates, quadrature):
    """``select_gcv``'s truncation methods on one pass: fills their empty slots in results."""
    shared: dict = {}
    expansion_key = expansion = None
    for method in (m for m in methods if m != "kraus"):
        fits = {}
        for j, o_sub in enumerate(parts):
            if results[j][method] is None:
                try:
                    fits[j] = _gcv_candidates(method, model, o_sub, batch.n_complete, k_candidates)
                except FdreconError as exc:
                    results[j][method] = exc
        live = list(fits)
        if not live:
            continue
        ks = [max(fits[j][1]) for j in live]
        key = (_SCORE_ROUTES[method], tuple(live), tuple(ks))
        if key not in shared:
            eigsystems = [fits[j][0] for j in live]
            shared[key] = _split_scores(key[0], batch, live, eigsystems, ks, model, quadrature)
        xi, errors = shared[key]
        used = np.array([exc is None for exc in errors], dtype=bool)
        selecting = []
        for j in live:
            found = errors[batch.bounds[j] : batch.bounds[j + 1]]
            fatal = [e for e in found if e is not None and not isinstance(e, _SKIPPING_ERRORS)]
            if fatal:
                results[j][method] = fatal[0]
            elif not used[batch.bounds[j] : batch.bounds[j + 1]].any():
                results[j][method] = NotEstimableError(_ALL_DEGENERATE)
            else:
                selecting.append(j)
        if not selecting:
            continue
        # One expansion at a time: methods on one eigensystem and truncation share it.
        if (tuple(live), tuple(ks), method == "pace") != expansion_key:
            expansion = None  # release the previous one before building the next
            expansion_key = (tuple(live), tuple(ks), method == "pace")
            expansion = _Expansion(batch, live, fits, model)
        rss = expansion.rss(xi, aligned=method in ("ayes", "ayesce"))
        geometry = batch.geometry[expansion.keep]
        summed = np.isin(geometry, selecting) & used[expansion.keep]
        geometry = geometry[summed]
        sums = np.add.reduceat(rss[summed], np.searchsorted(geometry, selecting), axis=0)
        n_used = np.bincount(geometry, minlength=len(parts))
        n_skipped = batch.n_degenerate + np.diff(batch.bounds) - n_used
        for j, total in zip(selecting, sums):
            results[j][method] = _gcv_choice(
                fits[j][1], total, batch.n_complete, int(n_used[j]), int(n_skipped[j])
            )


def _gcv_choice(candidates, rss, n_complete, n_used, n_skipped) -> tuple[int, dict]:
    ks = np.array(candidates)
    denom = (1.0 - ks / n_complete) ** 2
    gcv = rss[ks - 1] / denom
    best = int(ks[int(np.argmin(gcv))])
    details = {
        "candidates": candidates,
        "gcv": {int(kk): float(g) for kk, g in zip(ks, gcv)},
        "rss": {int(kk): float(rss[kk - 1]) for kk in ks},
        "n_complete": n_complete,
        "n_used": n_used,
        "n_skipped": n_skipped,
    }
    return best, details


def _select_ridges(model, batch: _SplitBatch, parts, results):
    """``select_gcv``'s kraus on one pass: fills its empty slots in results."""
    live = []  # (part, its ridge operator, its splits)
    for j, o_sub in enumerate(parts):
        if results[j]["kraus"] is None:
            try:
                live.append((j, model.ridge_operator_for(o_sub), np.arange(*batch.bounds[j : j + 2])))
            except FdreconError as exc:
                results[j]["kraus"] = exc
    u_miss, y_miss, g_miss = batch.miss
    for first in range(0, len(live), RIDGE_GCV_PARTS_PER_PASS):
        chunk = live[first : first + RIDGE_GCV_PARTS_PER_PASS]
        in_chunk = np.zeros(batch.n, dtype=bool)
        in_chunk[np.concatenate([s for _, _, s in chunk])] = True
        u, y, group = batch.restrict(batch.obs, in_chunk)
        local = np.cumsum(in_chunk) - 1  # a split's number among the chunk's
        t_group = [np.repeat(local[s], op.idx.size) for _, op, s in chunk]
        smoothed, good = _smoothed_on(
            u, y, np.concatenate([np.tile(op.points, s.size) for _, op, s in chunk]),
            model.bandwidths.h_x, groups=(group, np.concatenate(t_group)),
        )
        at = 0
        for j, op, splits in chunk:
            shape = (splits.size, op.idx.size)
            block = slice(at, at + splits.size * op.idx.size)
            at = block.stop
            _, z0, ok = op.centred(smoothed[block].reshape(shape).T, good[block].reshape(shape).T)
            if not ok.any():
                results[j]["kraus"] = NotEstimableError(_ALL_DEGENERATE)
                continue
            points = slice(*np.searchsorted(g_miss, batch.bounds[j : j + 2]))
            split = g_miss[points] - batch.bounds[j]
            keep = ok[split]
            col = (np.cumsum(ok) - 1)[split[keep]]
            results[j]["kraus"] = _ridge_choice(
                op, z0[:, ok], col, u_miss[points][keep], y_miss[points][keep], batch.n_complete
            )


def _ridge_choice(op, z0, col, u_miss, y_miss, n_complete) -> tuple[float, dict]:
    """The GCV choice of rho from the splits' inputs z0 and their pseudo-missing points.

    Point i lies in the split of column col[i] of z0, and is interpolated in
    that column alone. A split's residual is the mean square over its finite
    residuals. The candidates' predictions stand side by side, so one
    interpolation and two bin counts serve them all.
    """
    trace = float(op.nu.sum())
    scale = max(trace / op.idx.size, 1e-300)
    exponents = np.linspace(*KRAUS_RHO_GRID_DECADES, KRAUS_RHO_GRID_SIZE)
    rho_candidates = [float(scale * 10.0**e) for e in exponents]
    dfs = {rho: float(np.sum(op.nu / (op.nu + rho))) for rho in rho_candidates}
    rhos = [rho for rho in rho_candidates if dfs[rho] < n_complete]
    if not rhos:
        return rho_candidates[-1], {"gcv": {}, "trace": trace}
    n = z0.shape[1]
    cols = (col + n * np.arange(len(rhos))[:, None]).ravel()
    preds = np.concatenate([op.predict(z0, rho) for rho in rhos], axis=1)
    resid = np.tile(y_miss, len(rhos)) - interp_columns(
        np.tile(u_miss, len(rhos)), op.m_points, preds, cols
    )
    finite = np.isfinite(resid)
    sq = np.bincount(cols[finite], resid[finite] ** 2, minlength=n * len(rhos)).reshape(-1, n)
    count = np.bincount(cols[finite], minlength=n * len(rhos)).reshape(-1, n)
    results = {}
    for rho, sq_r, count_r in zip(rhos, sq, count):
        rss = float(np.sum(sq_r[count_r > 0] / count_r[count_r > 0]))
        results[rho] = rss / (1.0 - dfs[rho] / n_complete) ** 2
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
    return _reconstruct(name.startswith("ayes"), _SCORE_ROUTES[name], curve, model, k, None,
                        quadrature, include_error_variance)
