"""Principal-component score estimation: Riemann-sum and conditional-expectation routes."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import Curve
from .eigensystem import EigenSystem
from .errors import FdreconError, IllConditionedError, UsageError
from .smoothing import CovarianceEstimate, MeanEstimate, NoiseVariance

CE_JITTER_REL = 1e-8
CONDITION_FLAG_THRESHOLD = 1e10


@dataclass(frozen=True)
class ScoreVector:
    """Estimated scores for one curve."""

    curve_id: str
    values: np.ndarray
    method: str
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "flags", tuple(self.flags))


def _check_k(k: int, eigsys: EigenSystem) -> int:
    k = int(k)
    if k < 0:
        raise UsageError(f"K must be non-negative, got {k}")
    if k > eigsys.k_available:
        raise UsageError(f"K={k} exceeds K_available={eigsys.k_available}")
    return k


def _check_domain(curve: Curve, eigsys: EigenSystem) -> None:
    tol = eigsys.grid.delta
    if not np.all(eigsys.subdomain.contains(curve.u, tol=tol)):
        lo, hi = curve.observed_interval
        raise UsageError(
            f"curve {curve.id!r} observed on [{lo:.6g}, {hi:.6g}] is not inside the "
            "eigensystem subdomain"
        )


class _Bases:
    """The eigensystem and truncation of every group of a stacked batch.

    Groups of geometry j use ``eigsystems[j]`` and its first ``ks[j]``
    components; ``geometry`` holds the geometry of each group and never
    decreases, so the points of one geometry form one run of a group-major
    array. With one eigensystem, ``geometry`` is None. Scores come out
    padded with zeros to the largest truncation; ``widths`` holds each
    group's own.
    """

    def __init__(self, eigsystems, ks, n: int, geometry=None):
        self.eigsystems = list(eigsystems)
        self.ks = [int(k) for k in ks]
        self.n, self.geometry = n, geometry
        self.k = max(self.ks, default=0)
        self.widths = np.full(n, self.k) if geometry is None else np.array(self.ks)[geometry]

    @classmethod
    def of(cls, eigsys, k, n: int, geometry=None) -> "_Bases":
        """One eigensystem and truncation for n groups, or with ``geometry`` one per geometry."""
        if geometry is None:
            return cls([eigsys], [k], n)
        return cls(eigsys, k, n, np.asarray(geometry, dtype=int))

    def runs(self, group: np.ndarray):
        """Per geometry: (eigensystem, k, its slice of the points, its range of groups)."""
        if self.geometry is None:
            return [(self.eigsystems[0], self.ks[0], slice(0, group.size), range(self.n))]
        ids = np.arange(len(self.eigsystems) + 1)
        at_point = np.searchsorted(self.geometry[group], ids).tolist()
        at_group = np.searchsorted(self.geometry, ids).tolist()
        return [
            (eig, k, slice(at_point[j], at_point[j + 1]), range(at_group[j], at_group[j + 1]))
            for j, (eig, k) in enumerate(zip(self.eigsystems, self.ks))
        ]

    def phi_at(self, u: np.ndarray, group: np.ndarray) -> np.ndarray:
        """Each point's first k eigenfunction values under its group's eigensystem."""
        if self.geometry is None:
            return self.eigsystems[0].phi_at(u, self.ks[0])
        out = np.zeros((u.size, self.k))
        for eig, k, rows, _ in self.runs(group):
            out[rows, :k] = eig.phi_at(u[rows], k)
        return out

    def eigenvalues(self) -> np.ndarray:
        """The first k eigenvalues of every group's eigensystem, one row per group."""
        if self.geometry is None:
            return self.eigsystems[0].eigenvalues[None, : self.k]
        lam = np.zeros((len(self.eigsystems), self.k))
        for j, (eig, k) in enumerate(zip(self.eigsystems, self.ks)):
            lam[j, :k] = eig.eigenvalues[:k]
        return lam[self.geometry]

    def in_blocks(self, u: np.ndarray, group: np.ndarray):
        """Per subdomain interval: each group's node span there and which of u lie inside it.

        A span is the interval's first and last node; a group whose subdomain
        has fewer intervals spans nothing in the missing ones. With one
        eigensystem the spans are one value for every group.
        """
        grid = self.eigsystems[0].grid
        tol = 1e-9 * (grid.b - grid.a)
        if self.geometry is None:
            lo_g, hi_g = self.eigsystems[0].node_spans  # one span per interval, for every group
            lo, hi = lo_g, hi_g
        else:
            n_blocks = max(eig.node_spans.shape[1] for eig in self.eigsystems)
            lo = np.full((len(self.eigsystems), n_blocks), np.inf)
            hi = np.full((len(self.eigsystems), n_blocks), -np.inf)
            for j, eig in enumerate(self.eigsystems):
                lo[j, : eig.node_spans.shape[1]], hi[j, : eig.node_spans.shape[1]] = eig.node_spans
            lo_g, hi_g = lo[self.geometry].T, hi[self.geometry].T  # per interval, each group's span
            lo, hi = lo_g[:, group], hi_g[:, group]  # per interval, each point's span
        return [
            (lo_g[b], hi_g[b], (u >= lo[b] - tol) & (u <= hi[b] + tol)) for b in range(len(lo_g))
        ]


def _segments(group: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and size of each group's run in a group-major array."""
    sizes = np.bincount(group, minlength=n)
    return np.cumsum(sizes) - sizes, sizes


def _quadrature_weights(u: np.ndarray, starts: np.ndarray, quadrature: str) -> np.ndarray:
    """Per-run quadrature weights of u, sorted within runs that start at ``starts``."""
    w = np.empty_like(u)
    if quadrature == "riemann":
        w[1:] = np.diff(u)
        w[starts] = 0.0
        return w
    ends = np.append(starts, u.size)[1:] - 1
    w[1:-1] = 0.5 * (u[2:] - u[:-2])
    w[starts] = 0.5 * (u[starts + 1] - u[starts])
    w[ends] = 0.5 * (u[ends] - u[ends - 1])
    return w


def _carried_to_ends(u, r, group, n, lo, hi):
    """Each group's points with its first and last residual held out to its lo and hi.

    lo and hi hold one value per group, or one value for every group.
    """
    starts, sizes = _segments(group, n)
    has = np.nonzero(sizes)[0]
    first, last = starts[has], starts[has] + sizes[has] - 1
    lo, hi = (v[has] if np.ndim(v) else np.full(has.size, v) for v in (lo, hi))
    at = np.stack([first, last + 1], axis=1).ravel()
    add = np.stack([u[first] > lo, u[last] < hi], axis=1).ravel()
    at = at[add]
    return (
        np.insert(u, at, np.stack([lo, hi], axis=1).ravel()[add]),
        np.insert(r, at, np.stack([r[first], r[last]], axis=1).ravel()[add]),
        np.insert(group, at, np.repeat(has, 2)[add]),
    )


def _slabs(group: np.ndarray, n: int, sizes: np.ndarray, rows: np.ndarray, values, widths):
    """Per group, rows^T values over its points: shape (n, rows.shape[1]).

    ``widths`` holds the number of leading columns of rows that belong to
    each group; the rest stay zero. The groups of each size and width are
    stacked into one batched product, which forms every group's product
    exactly as a call on its points and its own columns alone does: a
    product over columns padded to another width may round differently.
    """
    if n == 1:
        return (np.swapaxes(rows[None], 1, 2) @ values[None, :, None])[..., 0]
    out = np.zeros((n, rows.shape[1]))
    starts = np.cumsum(sizes) - sizes
    filled = sizes > 0
    for size, k in sorted(set(zip(sizes[filled].tolist(), widths[filled].tolist()))):
        at_groups = np.flatnonzero((sizes == size) & (widths == k))
        at = starts[at_groups][:, None] + np.arange(size)
        out[at_groups, :k] = (np.swapaxes(rows[at, :k], 1, 2) @ values[at][..., None])[..., 0]
    return out


def _integral_batch(u, resid, group, n, eigsys, k, quadrature, carry_to_ends, geometry=None):
    """Integral scores of n curves at once; the math of ``integral_scores``.

    u, resid and group hold the curves' centred observations one curve
    after another, each sorted. Every (interval, curve) run of at least two
    points gets its own quadrature weights. All curves use ``eigsys`` and
    truncation ``k``, or with ``geometry`` (each curve's geometry) curves
    of geometry j use ``eigsys[j]`` and ``k[j]``. Returns the (n, k) scores
    and which curves had no such run.
    """
    if quadrature not in ("riemann", "trapezoid"):
        raise UsageError(f"unknown quadrature {quadrature!r}")
    bases = _Bases.of(eigsys, k, n, geometry)
    parts = []
    for lo, hi, inside in bases.in_blocks(u, group):
        uu, rr, gg = u[inside], resid[inside], group[inside]
        if carry_to_ends:
            uu, rr, gg = _carried_to_ends(uu, rr, gg, n, lo, hi)
        enough = np.bincount(gg, minlength=n)[gg] >= 2
        uu, rr, gg = uu[enough], rr[enough], gg[enough]
        new_run = np.ones(uu.size, dtype=bool)
        new_run[1:] = gg[1:] != gg[:-1]
        parts.append((uu, rr * _quadrature_weights(uu, np.flatnonzero(new_run), quadrature), gg))
    if len(parts) == 1:
        ((uu, terms, gg),) = parts
    else:
        # The parts run interval by interval; gather each curve's points, in interval order.
        uu, terms, gg = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(gg, kind="stable")
        uu, terms, gg = uu[order], terms[order], gg[order]
    sizes = np.bincount(gg, minlength=n)
    return _slabs(gg, n, sizes, bases.phi_at(uu, gg), terms, bases.widths), sizes == 0


def integral_scores(
    curve: Curve,
    eigsys: EigenSystem,
    mean: MeanEstimate,
    k: int,
    quadrature: str = "riemann",
    carry_to_ends: bool = False,
) -> ScoreVector:
    """Scores by numeric integration of the centered observations.

    The default rule is the one-sided Riemann sum over the ordered
    observations (the first point enters only through increments);
    ``quadrature="trapezoid"`` switches to trapezoid weights, which is the
    right rule for densely gridded curves. Each subdomain interval is
    integrated separately over the observations inside its node span, so
    the quadrature never reaches past the nodes the eigenproblem was solved
    on. ``carry_to_ends`` extends each interval's quadrature to its node
    span by holding the first and last observation constant out to the ends.
    GCV scores all its splits with the same kernel; this is its one-curve case.
    """
    k = _check_k(k, eigsys)
    _check_domain(curve, eigsys)
    resid = curve.y - mean.at(curve.u)  # curve.u is already sorted
    group = np.zeros(curve.n_obs, dtype=int)
    values, empty = _integral_batch(curve.u, resid, group, 1, eigsys, k, quadrature, carry_to_ends)
    flags = ("insufficient points",) if empty[0] else ()
    return ScoreVector(curve.id, values[0], "integral", flags)


def _observation_covariance(
    phi: np.ndarray, eigsys: EigenSystem, sigma2: NoiseVariance
) -> np.ndarray:
    # Eigen-reconstructed covariance at the observation points (phi holds
    # every retained eigenfunction there): positive semidefinite by
    # construction and consistent with the lambda/phi pair used in the
    # score formula, unlike the raw smoothed surface.
    S = (phi * eigsys.eigenvalues[None, :]) @ phi.T
    S = 0.5 * (S + S.T)
    S.flat[:: S.shape[0] + 1] += sigma2.sigma2
    return S


def _cholesky_lower(S: np.ndarray) -> np.ndarray:
    # LAPACK potrf directly (what scipy's cho_factor calls), without the
    # wrapper's per-call overhead; only the lower triangle is meaningful.
    c, info = dpotrf(S, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def _solve_spd(S: np.ndarray, rhs: np.ndarray):
    """Cholesky solve with the one-shot jitter policy.

    Returns (solution, diagonal of the Cholesky factor, jittered). A matrix
    that stays non positive definite after one ridge of 1e-8 * trace/m
    raises.
    """
    m = S.shape[0]
    try:
        c = _cholesky_lower(S)
        jittered = False
    except np.linalg.LinAlgError:
        ridge = CE_JITTER_REL * float(np.trace(S)) / m
        S = S + ridge * np.eye(m)
        try:
            c = _cholesky_lower(S)
            jittered = True
        except np.linalg.LinAlgError:
            try:
                evals = np.linalg.eigvalsh(S)
                cond = float(np.abs(evals).max() / max(np.abs(evals).min(), 1e-300))
            except np.linalg.LinAlgError:
                cond = float("inf")
            raise IllConditionedError("ill-conditioned score system", cond) from None
    sol, info = dpotrs(c, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return sol, np.diagonal(c), jittered


def _ce_batch(u, y, group, n, eigsys, sigma2, mean, k, geometry=None):
    """Conditional-expectation scores of n curves at once; the math of ``ce_scores``.

    u, y and group hold the curves' observations one curve after another;
    ``eigsys``, ``k`` and ``geometry`` are as in ``_integral_batch``. The
    eigenfunctions are evaluated once per geometry, then each curve factors
    and solves its own system; the condition estimates, the flags and the
    score products are formed for all curves together. Returns the (n, k)
    scores, the flags per curve and the FdreconError of each curve whose
    solve failed (else None).
    """
    bases = _Bases.of(eigsys, k, n, geometry)
    inside = functools.reduce(np.logical_or, [sel for _, _, sel in bases.in_blocks(u, group)])
    u, y, group = u[inside], y[inside], group[inside]
    resid = y - mean.at(u)
    starts, sizes = _segments(group, n)
    starts_list, sizes_list = starts.tolist(), sizes.tolist()
    phi_k = np.zeros((u.size, bases.k))
    sol = np.zeros(u.size)
    chol_diag = np.ones(u.size)
    jittered = [False] * n
    errors: list[FdreconError | None] = [None] * n
    for eig, k_run, run, groups in bases.runs(group):
        phi_all = eig.phi_at(u[run])
        phi_k[run, :k_run] = phi_all[:, :k_run]
        for g in groups:
            if not sizes_list[g]:
                continue
            rows = slice(starts_list[g], starts_list[g] + sizes_list[g])
            local = slice(rows.start - run.start, rows.stop - run.start)
            try:
                S = _observation_covariance(phi_all[local], eig, sigma2)
                sol[rows], chol_diag[rows], jittered[g] = _solve_spd(S, resid[rows])
            except FdreconError as exc:
                errors[g] = exc
    # Condition estimate: the squared ratio of the Cholesky factor's extreme diagonal entries.
    filled = sizes > 0
    edges = starts[filled]
    top, low = np.maximum.reduceat(chol_diag, edges), np.minimum.reduceat(chol_diag, edges)
    cond = iter(((top / np.maximum(low, 1e-300)) ** 2).tolist())
    flags = []
    for ok, exc, jit in zip(filled.tolist(), errors, jittered):
        c = next(cond) if ok else 0.0
        if not ok or exc is not None:
            flags.append(("insufficient points",))
            continue
        flags.append(
            (("jitter applied",) if jit else ())
            + ((f"ill-conditioned (cond~{c:.2e})",) if c > CONDITION_FLAG_THRESHOLD else ())
        )
    values = bases.eigenvalues() * _slabs(group, n, sizes, phi_k, sol, bases.widths)
    return values, flags, errors


def ce_scores(
    curve: Curve,
    eigsys: EigenSystem,
    cov: CovarianceEstimate,
    sigma2: NoiseVariance,
    mean: MeanEstimate,
    k: int,
) -> ScoreVector:
    """Conditional-expectation scores: best linear prediction given the observations.

    Builds the observation covariance matrix from the eigen-reconstruction
    of the smoothed surface (all retained components) plus the noise
    variance on the diagonal, and solves the symmetric system; no explicit
    inverse is formed. Only observations inside the node span of a
    subdomain interval enter. A non positive definite matrix gets one
    deterministic ridge before failing; an ill-conditioned but solvable
    system is flagged and solved as is. GCV scores all its splits with the
    same kernel; this is its one-curve case.
    """
    k = _check_k(k, eigsys)
    _check_domain(curve, eigsys)
    group = np.zeros(curve.n_obs, dtype=int)
    values, flags, errors = _ce_batch(curve.u, curve.y, group, 1, eigsys, sigma2, mean, k)
    if errors[0] is not None:
        raise errors[0]
    return ScoreVector(curve.id, values[0], "conditional_expectation", flags[0])


def pace_scores(
    curve: Curve,
    full_eigsys: EigenSystem,
    cov: CovarianceEstimate,
    sigma2: NoiseVariance,
    mean: MeanEstimate,
    k: int,
) -> ScoreVector:
    """Conditional-expectation scores against the full-domain eigensystem."""
    if full_eigsys.subdomain.grid_indices.size != full_eigsys.grid.size:
        raise UsageError("pace scores need an eigensystem on the full domain")
    return ce_scores(curve, full_eigsys, cov, sigma2, mean, k)
