"""Epanechnikov kernel, local-linear estimators and the covariance estimability mask."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Curve, DomainGrid, FunctionalDataset
from .errors import DataError, InsufficientLocalDataError, NotEstimableError, UsageError

DEFAULT_MIN_PAIRS = 5
DEFAULT_TRIM_FRACTION = 0.25

# Rule-of-thumb bandwidth constants multiplying sd(pooled U); the exponents are
# the m^{-1/5}, (nm)^{-1/5}, (n*M)^{-1/6} rates. Calibrated on the simulation
# benchmarks; override via Bandwidths or the CLI for other data shapes.
BW_CONST_CURVE = 0.6
BW_CONST_MEAN = 1.0
BW_CONST_COV = 1.5


def epanechnikov(v):
    """Epanechnikov kernel 0.75*(1 - v^2) on [-1, 1], zero outside.

    Accepts scalars or arrays; the support is closed but the weight vanishes
    at |v| = 1, so points exactly one bandwidth away carry no weight.
    """
    v = np.asarray(v, dtype=float)
    out = np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Bandwidths:
    """Bandwidths for the curve, mean and covariance smoothers (domain units)."""

    h_x: float
    h_mu: float
    h_gamma: float

    def __post_init__(self):
        for name in ("h_x", "h_mu", "h_gamma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise UsageError(f"{name} must be positive, got {v}")

    def validate_for_domain(self, domain: tuple[float, float]) -> None:
        width = domain[1] - domain[0]
        for name in ("h_x", "h_mu", "h_gamma"):
            if getattr(self, name) >= width:
                raise UsageError(f"{name}={getattr(self, name)} must be below the domain width {width}")

    @classmethod
    def rule_of_thumb(
        cls,
        dataset: FunctionalDataset,
        c_x: float = BW_CONST_CURVE,
        c_mu: float = BW_CONST_MEAN,
        c_gamma: float = BW_CONST_COV,
    ) -> "Bandwidths":
        """Rate-based defaults: h_x ~ m^(-1/5), h_mu ~ (nm)^(-1/5), h_gamma ~ (nM)^(-1/6)."""
        pooled = dataset.pooled_u()
        sd = float(np.std(pooled))
        if sd <= 0:
            sd = (dataset.domain[1] - dataset.domain[0]) / 4.0
        n = dataset.n_curves
        m_bar = pooled.size / n
        n_pairs = sum(c.n_obs * (c.n_obs - 1) for c in dataset.curves)
        h_x = c_x * sd * m_bar ** (-0.2)
        h_mu = c_mu * sd * pooled.size ** (-0.2)
        h_gamma = c_gamma * sd * max(n_pairs, 2) ** (-1.0 / 6.0)
        width = dataset.domain[1] - dataset.domain[0]
        clip = lambda h: float(min(max(h, 1e-6 * width), 0.99 * width))
        return cls(clip(h_x), clip(h_mu), clip(h_gamma))


@dataclass(frozen=True)
class MeanEstimate:
    """Gridded mean function with its bandwidth."""

    grid: DomainGrid
    values: np.ndarray
    bandwidth: float
    diagnostics: dict = field(default_factory=dict)

    def at(self, u) -> np.ndarray:
        """Linear interpolation of the gridded mean at arbitrary abscissae."""
        return np.interp(np.asarray(u, dtype=float), self.grid.points, self.values)

    @classmethod
    def from_function(cls, grid: DomainGrid, fn: Callable, bandwidth: float = 0.1) -> "MeanEstimate":
        return cls(grid, np.asarray(fn(grid.points), dtype=float), bandwidth)

    @classmethod
    def zero(cls, grid: DomainGrid) -> "MeanEstimate":
        return cls(grid, np.zeros(grid.size), bandwidth=1.0)


@dataclass(frozen=True)
class CovarianceEstimate:
    """Gridded covariance surface plus the estimability mask.

    Entries where the mask is False hold NaN and must not feed any
    downstream computation.
    """

    grid: DomainGrid
    surface: np.ndarray
    mask: np.ndarray
    bandwidth: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        L = self.grid.size
        if self.surface.shape != (L, L) or self.mask.shape != (L, L):
            raise DataError("covariance surface/mask must be L x L")

    def at(self, u, v) -> np.ndarray:
        """Bilinear interpolation of the surface; NaN cells contribute zero."""
        filled = np.where(self.mask, self.surface, 0.0)
        return _bilinear(self.grid.points, filled, np.asarray(u, float), np.asarray(v, float))

    @classmethod
    def from_function(
        cls,
        grid: DomainGrid,
        fn: Callable,
        band_halfwidth: float | None = None,
        bandwidth: float = 0.1,
    ) -> "CovarianceEstimate":
        """Analytic covariance on the grid, optionally masked to a diagonal band."""
        uu, vv = np.meshgrid(grid.points, grid.points, indexing="ij")
        surface = np.asarray(fn(uu, vv), dtype=float)
        surface = 0.5 * (surface + surface.T)
        if band_halfwidth is None:
            mask = np.ones_like(surface, dtype=bool)
        else:
            mask = np.abs(uu - vv) <= band_halfwidth + 1e-12
            surface = np.where(mask, surface, np.nan)
        return cls(grid, surface, mask, bandwidth)


@dataclass(frozen=True)
class NoiseVariance:
    """Measurement-error variance estimate (response units squared)."""

    sigma2: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise DataError(f"sigma2 must be non-negative, got {self.sigma2}")


def _bilinear(grid_points: np.ndarray, surface: np.ndarray, u, v) -> np.ndarray:
    """Bilinear interpolation on a regular grid, clamped at the edges."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a, delta, L = grid_points[0], grid_points[1] - grid_points[0], grid_points.size
    fu = np.clip((u - a) / delta, 0.0, L - 1 - 1e-12)
    fv = np.clip((v - a) / delta, 0.0, L - 1 - 1e-12)
    iu = fu.astype(int)
    iv = fv.astype(int)
    su = fu - iu
    sv = fv - iv
    out = (
        surface[iu, iv] * (1 - su) * (1 - sv)
        + surface[iu + 1, iv] * su * (1 - sv)
        + surface[iu, iv + 1] * (1 - su) * sv
        + surface[iu + 1, iv + 1] * su * sv
    )
    return out


def _llk_fit_1d(x: np.ndarray, y: np.ndarray, targets: np.ndarray, h: float):
    """Windowed local-linear fits of y on x at each target.

    Returns (beta0, counts, fallback) where counts is the number of
    observations with strictly positive weight and fallback marks targets
    where a singular design degraded to a local-constant fit.
    """
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    targets = np.asarray(targets, dtype=float)
    beta0 = np.full(targets.size, np.nan)
    counts = np.zeros(targets.size, dtype=int)
    fallback = np.zeros(targets.size, dtype=bool)
    lo = np.searchsorted(xs, targets - h, side="right")
    hi = np.searchsorted(xs, targets + h, side="left")
    for i, t in enumerate(targets):
        sl = slice(lo[i], hi[i])
        dx = (xs[sl] - t) / h
        w = epanechnikov(dx)
        pos = w > 0
        counts[i] = int(np.count_nonzero(pos))
        if counts[i] == 0:
            continue
        s0 = w.sum()
        s1 = float(w @ dx)
        s2 = float(w @ (dx * dx))
        t0 = float(w @ ys[sl])
        t1 = float(w @ (dx * ys[sl]))
        det = s0 * s2 - s1 * s1
        if det > 1e-12 * max(s0 * s0, 1e-300):
            beta0[i] = (s2 * t0 - s1 * t1) / det
        else:
            beta0[i] = t0 / s0
            fallback[i] = True
    return beta0, counts, fallback


def llk_curve(curve: Curve, u, h_x: float) -> float | np.ndarray:
    """Local-linear smoother of a single curve at u, using its raw observations.

    Parameters
    ----------
    curve : Curve
    u : float or array
        Evaluation points inside the curve's observed interval.
    h_x : float
        Curve-smoother bandwidth.

    Returns
    -------
    float or ndarray
        The local-linear intercept at each evaluation point.

    Raises
    ------
    InsufficientLocalDataError
        If fewer than two observations carry weight at some point, or the
        local design is singular (all weighted abscissae identical).
    """
    scalar = np.isscalar(u)
    targets = np.atleast_1d(np.asarray(u, dtype=float))
    lo, hi = curve.observed_interval
    tol = 1e-9 * max(hi - lo, 1.0)
    if np.any(targets < lo - tol) or np.any(targets > hi + tol):
        bad = targets[(targets < lo - tol) | (targets > hi + tol)][0]
        raise InsufficientLocalDataError(bad, 0)
    beta0, counts, fallback = _llk_fit_1d(curve.u, curve.y, targets, h_x)
    bad = (counts < 2) | fallback
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InsufficientLocalDataError(targets[i], int(counts[i]))
    return float(beta0[0]) if scalar else beta0


def llk_mean(dataset: FunctionalDataset, grid: DomainGrid, h_mu: float) -> MeanEstimate:
    """Pooled local-linear mean estimate on the grid.

    Every grid point needs at least two pooled observations inside its
    kernel window; singular designs with enough points degrade to a
    local-constant fit (counted in the diagnostics).
    """
    x = dataset.pooled_u()
    y = dataset.pooled_y()
    beta0, counts, fallback = _llk_fit_1d(x, y, grid.points, h_mu)
    short = counts < 2
    if np.any(short):
        i = int(np.argmax(short))
        raise NotEstimableError(
            f"mean not estimable at u={grid.points[i]:.6g} "
            f"(effective count {int(counts[i])}; widen h_mu)"
        )
    return MeanEstimate(
        grid,
        beta0,
        h_mu,
        diagnostics={"n_fallback": int(fallback.sum()), "min_count": int(counts.min())},
    )


def _raw_pairs(dataset: FunctionalDataset, mean: MeanEstimate):
    """Off-diagonal raw covariance points over all curves, both pair orders.

    Returns (u1, u2, c) where c = (Y_j - mu(U_j)) * (Y_l - mu(U_l)), j != l.
    """
    u1_parts, u2_parts, c_parts = [], [], []
    for c in dataset.curves:
        m = c.n_obs
        if m < 2:
            continue
        resid = c.y - mean.at(c.u)
        iu, il = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        off = iu != il
        u1_parts.append(c.u[iu[off]])
        u2_parts.append(c.u[il[off]])
        c_parts.append(resid[iu[off]] * resid[il[off]])
    if not u1_parts:
        raise DataError("no within-curve observation pairs")
    return np.concatenate(u1_parts), np.concatenate(u2_parts), np.concatenate(c_parts)


def llk_covariance(
    dataset: FunctionalDataset,
    mean: MeanEstimate,
    grid: DomainGrid,
    h_gamma: float,
    min_pairs: int = DEFAULT_MIN_PAIRS,
) -> CovarianceEstimate:
    """Bivariate local-linear covariance surface with its estimability mask.

    Diagonal raw covariances (j = l) are excluded so measurement noise does
    not bias the surface. A grid cell is estimable when at least
    ``min_pairs`` raw pairs carry strictly positive product weight; the
    returned surface is exactly symmetric on estimable cells and NaN
    elsewhere. Singular local designs degrade to local-constant fits.
    """
    u1, u2, cvals = _raw_pairs(dataset, mean)
    pts = grid.points
    L = pts.size
    order = np.argsort(u1, kind="stable")
    u1s, u2s, cs = u1[order], u2[order], cvals[order]

    s00 = np.zeros((L, L))
    s10 = np.zeros((L, L))
    s01 = np.zeros((L, L))
    s20 = np.zeros((L, L))
    s11 = np.zeros((L, L))
    s02 = np.zeros((L, L))
    t00 = np.zeros((L, L))
    t10 = np.zeros((L, L))
    t01 = np.zeros((L, L))
    counts = np.zeros((L, L), dtype=np.int64)

    lo = np.searchsorted(u1s, pts - h_gamma, side="right")
    hi = np.searchsorted(u1s, pts + h_gamma, side="left")
    for r in range(L):
        sl = slice(lo[r], hi[r])
        if sl.stop <= sl.start:
            continue
        dx = (u1s[sl] - pts[r]) / h_gamma
        w1 = epanechnikov(dx)
        uw = u2s[sl]
        cw = cs[sl]
        dy = (uw[None, :] - pts[:, None]) / h_gamma
        w2 = epanechnikov(dy)
        b1 = w2 * dy
        rhs = np.stack([w1, w1 * dx, w1 * dx * dx, w1 * cw, w1 * dx * cw], axis=1)
        m0 = w2 @ rhs
        s00[r], s10[r], s20[r], t00[r], t10[r] = m0.T
        m1 = b1 @ rhs[:, [0, 1, 3]]
        s01[r], s11[r], t01[r] = m1.T
        s02[r] = (w2 * dy * dy) @ w1
        counts[r] = (w2 > 0) @ (w1 > 0).astype(np.int64)

    mask = counts >= int(min_pairs)
    surface = np.full((L, L), np.nan)

    # Batched 3x3 normal-equation solves on estimable cells, in h-scaled
    # coordinates so the determinant test is scale free.
    A = np.empty((L, L, 3, 3))
    A[..., 0, 0] = s00
    A[..., 0, 1] = A[..., 1, 0] = s10
    A[..., 0, 2] = A[..., 2, 0] = s01
    A[..., 1, 1] = s20
    A[..., 1, 2] = A[..., 2, 1] = s11
    A[..., 2, 2] = s02
    b = np.stack([t00, t10, t01], axis=-1)
    det = np.linalg.det(A)
    scale = np.maximum(s00, 1e-300) ** 3
    solvable = mask & (np.abs(det) > 1e-10 * scale)
    if np.any(solvable):
        sol = np.linalg.solve(A[solvable], b[solvable][..., None])
        surface[solvable] = sol[..., 0, 0]
    fallback = mask & ~solvable
    if np.any(fallback):
        surface[fallback] = t00[fallback] / s00[fallback]

    # Mask and moments are exactly symmetric because both pair orders enter;
    # averaging removes rounding asymmetry.
    mask &= mask.T
    with np.errstate(invalid="ignore"):
        surface = 0.5 * (surface + surface.T)
    surface[~mask] = np.nan

    return CovarianceEstimate(
        grid,
        surface,
        mask,
        h_gamma,
        diagnostics={
            "n_pairs": int(u1.size),
            "n_fallback": int(fallback.sum()),
            "mask_coverage": float(mask.mean()),
        },
    )


def _difference_pairs(dataset: FunctionalDataset, mean: MeanEstimate, h_t: float):
    """Close within-curve pairs as (midpoint, gap, half squared residual difference).

    The half squared difference of two centered observations equals the
    average of their diagonal raw products minus their off-diagonal raw
    covariance, so its local regression intercept at zero gap is the noise
    variance; pairing cancels the shared curve-level fluctuation exactly.
    """
    s_parts, t_parts, d_parts = [], [], []
    for c in dataset.curves:
        u = c.u
        resid = c.y - mean.at(u)
        # Sorted abscissae: pairs within h_t of each other are near neighbors.
        for offset in range(1, c.n_obs):
            gaps = u[offset:] - u[:-offset]
            keep = gaps < h_t
            if not np.any(keep):
                break
            s_parts.append(0.5 * (u[offset:] + u[:-offset])[keep])
            t_parts.append(gaps[keep])
            d_parts.append(0.5 * (resid[offset:] - resid[:-offset])[keep] ** 2)
    if not s_parts:
        return np.array([]), np.array([]), np.array([])
    return np.concatenate(s_parts), np.concatenate(t_parts), np.concatenate(d_parts)


def estimate_noise_variance(
    dataset: FunctionalDataset,
    mean: MeanEstimate,
    cov: CovarianceEstimate,
    trim_fraction: float = DEFAULT_TRIM_FRACTION,
) -> NoiseVariance:
    """Measurement-error variance from paired diagonal and off-diagonal raw products.

    For close within-curve pairs the half squared residual difference is
    the per-pair difference between diagonal raw products and the raw
    covariance; its regression value at zero gap is the noise variance. A
    local fit with an intercept, a linear midpoint term and a quadratic gap
    term is evaluated at every estimable grid point of the trimmed
    interior; the averaged positive part is returned. On lattice designs
    with a single gap level the quadratic term drops out automatically.
    """
    if not 0.0 < trim_fraction < 0.5:
        raise UsageError(f"trim_fraction must be in (0, 0.5), got {trim_fraction}")
    grid = cov.grid
    a, b = grid.a, grid.b
    interior = (grid.points >= a + trim_fraction * (b - a) - 1e-12) & (
        grid.points <= b - trim_fraction * (b - a) + 1e-12
    )
    usable = interior & np.diagonal(cov.mask)
    if not np.any(usable):
        raise NotEstimableError("noise variance not identifiable: no estimable interior diagonal")
    targets = grid.points[usable]
    h_s = cov.bandwidth

    # Gap bandwidth: narrow, but wide enough to keep the closest lattice shell.
    gap_min = np.inf
    for c in dataset.curves:
        d = np.diff(c.u)
        d = d[d > 0]
        if d.size:
            gap_min = min(gap_min, float(d.min()))
    if not np.isfinite(gap_min):
        raise NotEstimableError("noise variance not identifiable: no positive gaps")
    h_t = max(0.5 * h_s, 2.6 * gap_min)

    s, t, d = _difference_pairs(dataset, mean, h_t)
    if s.size == 0:
        raise NotEstimableError("noise variance not identifiable: no close pairs")
    order = np.argsort(s, kind="stable")
    s, t, d = s[order], t[order], d[order]
    wt_t = epanechnikov(t / h_t)
    t2 = (t / h_t) ** 2

    values = np.full(targets.size, np.nan)
    lo = np.searchsorted(s, targets - h_s, side="right")
    hi = np.searchsorted(s, targets + h_s, side="left")
    for i, s0 in enumerate(targets):
        sl = slice(lo[i], hi[i])
        if sl.stop - sl.start < 5:
            continue
        ds = (s[sl] - s0) / h_s
        w = epanechnikov(ds) * wt_t[sl]
        pos = w > 0
        if int(pos.sum()) < 5:
            continue
        cols = [np.ones(sl.stop - sl.start), ds]
        tq = t2[sl]
        if np.ptp(tq[pos]) > 1e-8:
            cols.append(tq)
        X = np.stack(cols, axis=1)
        Xw = X * w[:, None]
        A = Xw.T @ X
        bvec = Xw.T @ d[sl]
        try:
            beta = np.linalg.solve(A, bvec)
        except np.linalg.LinAlgError:
            beta = np.array([bvec[0] / A[0, 0]])
        if np.isfinite(beta[0]):
            values[i] = beta[0]
    ok = np.isfinite(values)
    if not np.any(ok):
        raise NotEstimableError("noise variance not identifiable: interior fits failed")
    sigma2 = float(np.mean(np.clip(values[ok], 0.0, None)))
    return NoiseVariance(
        max(sigma2, 0.0),
        diagnostics={
            "n_targets": int(ok.sum()),
            "n_pairs": int(s.size),
            "h_t": float(h_t),
            "frac_clipped": float(np.mean(values[ok] < 0)),
        },
    )
