"""Epanechnikov kernel, local-linear estimators and the covariance estimability mask."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

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
# Values in one block of the covariance moments' prefix sums. On 51 grid points, 1000 x 15
# fragments, 50 x 60 dense and 20 x 500 long curves peaked at 6.4, 3.9 and 5.1 MB under
# tracemalloc, not 30.3, 6.3 and 18.9; 2**16 ran long 1.5x slower, 2**18 peaked at 9.0 MB.
COV_BLOCK_ELEMENTS = 2**17


def epanechnikov(v):
    """Epanechnikov kernel 0.75*(1 - v^2) on [-1, 1], zero outside.

    Accepts scalars or arrays; the support is closed but the weight vanishes
    at |v| = 1, so points exactly one bandwidth away carry no weight.
    """
    v = np.asarray(v, dtype=float)
    out = np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)
    return out if out.ndim else float(out)


def _raw_pair_count(dataset: FunctionalDataset) -> int:
    """Raw covariance pairs: ordered pairs of distinct observations of a curve, sum m_i (m_i - 1)."""
    return sum(c.n_obs * (c.n_obs - 1) for c in dataset.curves)


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
        n_pairs = _raw_pair_count(dataset)
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


def _group_keys(group: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex keys group + i v: numpy orders complex numbers by (real, imaginary)."""
    keys = np.empty(np.shape(v), dtype=complex)
    keys.real, keys.imag = group, v
    return keys


def _kernel_weights(x: np.ndarray, targets: np.ndarray, h: float, groups=None):
    """Every (target, point) pair inside the strict kernel window t - h < x < t + h.

    The one place the smoothers sort, window and weigh. Returns (rows, cols,
    d, w) grouped by target, each window in stable ascending order of x:
    the target index, the index into x, d = (x - t) / h and the
    Epanechnikov weight K(d). Points inside a window keep their pair even
    where the weight rounds to zero. With ``groups`` = (group of each
    point, group of each target), e.g. one group per curve, a window holds
    only the points of its target's group; every target then gets the
    pairs, in the order, of a call on its group's points alone.
    """
    if groups is None:
        order = np.argsort(x, kind="stable")
        xs = x[order]
        keys, lo_keys, hi_keys = xs, targets - h, targets + h
    else:
        x_group, t_group = groups
        order = np.lexsort((x, x_group))
        xs = x[order]
        keys = _group_keys(x_group[order], xs)
        lo_keys, hi_keys = _group_keys(t_group, targets - h), _group_keys(t_group, targets + h)
    lo = np.searchsorted(keys, lo_keys, side="right")
    hi = np.searchsorted(keys, hi_keys, side="left")
    sizes = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(targets.size), sizes)
    pos = np.arange(rows.size) + np.repeat(lo + sizes - np.cumsum(sizes), sizes)
    d = (xs[pos] - targets[rows]) / h
    return rows, order[pos], d, epanechnikov(d)


def _normal_equations(rows: np.ndarray, n: int, w: np.ndarray, columns, y: np.ndarray):
    """Per-target weighted normal equations A = sum w x x^T and b = sum w x y.

    ``columns`` holds the design columns over the pairs of ``_kernel_weights``
    (a scalar for a constant column); returns A with shape (n, k, k) and b
    with shape (n, k).
    """
    k = len(columns)
    A = np.empty((n, k, k))
    b = np.empty((n, k))
    for i, xi in enumerate(columns):
        xw = xi * w
        b[:, i] = np.bincount(rows, xw * y, minlength=n)
        for j in range(i, k):
            A[:, i, j] = A[:, j, i] = np.bincount(rows, xw * columns[j], minlength=n)
    return A, b


def _llk_fit_1d(x: np.ndarray, y: np.ndarray, targets: np.ndarray, h: float, groups=None):
    """Windowed local-linear fits of y on x at each target (windows by ``_kernel_weights``).

    Returns (beta0, counts, fallback) where counts is the number of
    observations with strictly positive weight and fallback marks targets
    where a singular design degraded to a local-constant fit.
    """
    n = np.size(targets)
    rows, cols, d, w = _kernel_weights(x, targets, h, groups)
    counts = np.bincount(rows[w > 0], minlength=n)
    A, b = _normal_equations(rows, n, w, (1.0, d), y[cols])
    s0, s1, s2 = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    t0, t1 = b[:, 0], b[:, 1]
    det = s0 * s2 - s1 * s1
    linear = det > 1e-12 * np.maximum(s0 * s0, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta0 = np.where(linear, (s2 * t0 - s1 * t1) / det, t0 / s0)
    beta0[counts == 0] = np.nan
    return beta0, counts, (counts > 0) & ~linear


def _smoothed_on(u, y, targets, h_x: float, strict: bool = False, groups=None):
    """Local-linear values of raw observations (u, y) at targets and whether each fit held.

    A fit holds where at least two observations carry weight, the local
    design is not singular and the value is finite. With ``strict``, the
    first target where it does not hold raises InsufficientLocalDataError.
    ``groups`` smooths several curves at once, as in ``_kernel_weights``.
    """
    beta0, counts, fallback = _llk_fit_1d(u, y, targets, h_x, groups)
    ok = (counts >= 2) & ~fallback & np.isfinite(beta0)
    if strict and not np.all(ok):
        i = int(np.argmin(ok))
        raise InsufficientLocalDataError(targets[i], int(counts[i]))
    return beta0, ok


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
    beta0, _ = _smoothed_on(curve.u, curve.y, targets, h_x, strict=True)
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
    elsewhere. Singular local designs degrade to local-constant fits. Raw-pair
    sums run in column blocks of <= COV_BLOCK_ELEMENTS values, in one pass's order.
    """
    sizes = np.array([c.n_obs for c in dataset.curves])
    n_pairs = _raw_pair_count(dataset)
    if n_pairs == 0:
        raise DataError("no within-curve observation pairs")
    u = dataset.pooled_u()
    resid = dataset.pooled_y() - mean.at(u)
    L, N = grid.size, u.size
    curve = np.repeat(np.arange(sizes.size), sizes)
    slot = np.arange(N) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    # A moment over the raw pairs (j, l) of distinct observations of one
    # curve, with factors a_j(r) and b_l(q) at cell (r, q), is
    # sum_j a_j(r) B_j(q): B_j sums b over the observations of j's curve
    # before j and after j, so no j = l term enters. Per block of columns q the
    # sums run slot by slot as np.cumsum adds, after-sums over reversed slots
    # (slots x 2 x curves x columns, empty end slots); moments with the same b
    # share them. The sparse product forms each column alone: no bit moves.
    rows, cols, d, w = _kernel_weights(u, grid.points, h_gamma)
    Wa = sparse.csr_array((w, cols, np.searchsorted(rows, np.arange(L + 1))), shape=(L, N))
    n, n_slots = sizes.size, sizes.max() + 2
    width = max(1, COV_BLOCK_ELEMENTS // (2 * n_slots * n))
    before_at, after_at = 2 * n * slot + curve, 2 * n * (n_slots - 3 - slot) + n + curve

    def moments(b, *lefts):
        out = [np.empty((L, L)) for _ in lefts]
        for q in range(0, L, width):
            B, block = min(width, L - q), slice(Wa.indptr[q], Wa.indptr[min(q + width, L)])
            sums = np.zeros((n_slots, 2, n, B))
            sums.reshape(-1)[(before_at[cols[block]] + 2 * n) * B + rows[block] - q] = b[block]
            sums[:, 1] = sums[::-1, 0]
            for s in range(1, n_slots):
                sums[s] += sums[s - 1]
            others = np.take(sums.reshape(-1, B), before_at, axis=0)
            others += np.take(sums.reshape(-1, B), after_at, axis=0)
            for a, o in zip(lefts, out):
                Wa.data = a
                o[:, q : q + B] = Wa @ others
        return out

    positive = (w > 0).astype(float)
    (counts,) = moments(positive, positive)
    counts = np.rint(counts).astype(np.int64)
    mask = counts >= int(min_pairs)

    # Batched 3x3 normal equations in the design (1, d1, d2), h-scaled so the
    # determinant test is scale free; the raw covariance is resid_j * resid_l
    # and column i of the design is left[i](d_j) * right[i](d_l), with left
    # (1, d, 1) and right (1, 1, d). A[i, j] pairs w left[i] left[j] with
    # w right[i] right[j], and b[i] pairs w left[i] resid with w right[i] resid.
    wd = w * d
    A = np.empty((L, L, 3, 3))
    b = np.empty((L, L, 3))
    A[..., 0, 0], A[..., 0, 1], A[..., 1, 1] = moments(w, w, wd, wd * d)
    A[..., 0, 2], A[..., 1, 2] = moments(wd, w, wd)
    (A[..., 2, 2],) = moments(wd * d, w)
    wr, wdr = w * resid[cols], wd * resid[cols]
    del wd  # each factor holds one value per pair: keep few alive
    b[..., 0], b[..., 1] = moments(wr, wr, wdr)
    (b[..., 2],) = moments(wdr, wr)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        A[..., j, i] = A[..., i, j]
    s00, t00 = A[..., 0, 0], b[..., 0]
    surface = np.full((L, L), np.nan)
    det = np.linalg.det(A)
    scale = np.maximum(s00, 1e-300) ** 3
    solvable = mask & (np.abs(det) > 1e-10 * scale)
    if np.any(solvable):
        sol = np.linalg.solve(A[solvable], b[solvable][..., None])
        surface[solvable] = sol[..., 0, 0]
    fallback = mask & ~solvable
    if np.any(fallback):
        surface[fallback] = t00[fallback] / s00[fallback]

    # Mask and moments are symmetric because every pair enters in both
    # orders (j before l and after l); averaging removes rounding asymmetry.
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
            "n_pairs": n_pairs,
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
    Pairs run curve by curve, then by lag, then by position.
    """
    u = dataset.pooled_u()
    resid = dataset.pooled_y() - mean.at(u)
    curve = np.repeat(np.arange(dataset.n_curves), [c.n_obs for c in dataset.curves])
    parts = []
    # Sorted abscissae within a curve: pairs within h_t of each other are near
    # neighbours, and a lag without such a pair ends the search.
    for lag in range(1, u.size):
        gaps = u[lag:] - u[:-lag]
        at = np.flatnonzero((curve[lag:] == curve[:-lag]) & (gaps < h_t))
        if not at.size:
            break
        parts.append((at, np.full(at.size, lag)))
    if not parts:
        return np.array([]), np.array([]), np.array([])
    first, lag = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((first, lag, curve[first]))
    first, second = first[order], first[order] + lag[order]
    return (
        0.5 * (u[second] + u[first]),
        u[second] - u[first],
        0.5 * (resid[second] - resid[first]) ** 2,
    )


def _noise_fits(s, t, d, targets, h_s: float, h_t: float) -> np.ndarray:
    """Local noise fits: the intercept of d at each target, NaN where the fit is skipped.

    Pairs are weighted by the midpoint kernel times the gap kernel. A
    target is skipped with fewer than five pairs in its midpoint window or
    fewer than five of positive weight. The design is (1, midpoint offset,
    squared gap); the gap column drops where the positively weighted
    squared gaps span at most 1e-8, and a singular design falls back to the
    local-constant value.
    """
    n = targets.size
    rows, cols, ds, w = _kernel_weights(s, targets, h_s)
    w = w * epanechnikov(t / h_t)[cols]
    tq = ((t / h_t) ** 2)[cols]
    pos = w > 0
    fit = (np.bincount(rows, minlength=n) >= 5) & (np.bincount(rows[pos], minlength=n) >= 5)
    tq_max, tq_min = np.full(n, -np.inf), np.full(n, np.inf)
    np.maximum.at(tq_max, rows[pos], tq[pos])
    np.minimum.at(tq_min, rows[pos], tq[pos])
    A, b = _normal_equations(rows, n, w, (1.0, ds, tq), d[cols])
    # Without the gap column the 3x3 system carries an identity row and
    # column in its place, which leaves the intercept of the 2x2 solve.
    linear = tq_max - tq_min <= 1e-8
    A[linear, 2, :2] = A[linear, :2, 2] = b[linear, 2] = 0.0
    A[linear, 2, 2] = 1.0
    singular = fit & (np.linalg.det(A) == 0.0)
    solve = fit & ~singular
    values = np.full(n, np.nan)
    values[solve] = np.linalg.solve(A[solve], b[solve][..., None])[:, 0, 0]
    values[singular] = b[singular, 0] / A[singular, 0, 0]
    return np.where(np.isfinite(values), values, np.nan)


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
    gaps = np.concatenate([np.diff(c.u) for c in dataset.curves])
    if not np.any(gaps > 0):
        raise NotEstimableError("noise variance not identifiable: no positive gaps")
    h_t = max(0.5 * h_s, 2.6 * float(gaps[gaps > 0].min()))

    s, t, d = _difference_pairs(dataset, mean, h_t)
    if s.size == 0:
        raise NotEstimableError("noise variance not identifiable: no close pairs")
    values = _noise_fits(s, t, d, targets, h_s, h_t)
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
