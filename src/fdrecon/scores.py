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


def _in_blocks(u: np.ndarray, eigsys: EigenSystem) -> list[tuple[float, float, np.ndarray]]:
    """Per subdomain interval: its first and last node and which of u fall between them."""
    tol = 1e-9 * (eigsys.grid.b - eigsys.grid.a)
    spans = [(eigsys.nodes[s][0], eigsys.nodes[s][-1]) for s in eigsys.node_blocks]
    return [(lo, hi, (u >= lo - tol) & (u <= hi + tol)) for lo, hi in spans]


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
    """Each group's points with its first and last residual held out to lo and hi."""
    starts, sizes = _segments(group, n)
    has = np.nonzero(sizes)[0]
    first, last = starts[has], starts[has] + sizes[has] - 1
    at = np.stack([first, last + 1], axis=1).ravel()
    add = np.stack([u[first] > lo, u[last] < hi], axis=1).ravel()
    at = at[add]
    return (
        np.insert(u, at, np.tile([lo, hi], has.size)[add]),
        np.insert(r, at, np.stack([r[first], r[last]], axis=1).ravel()[add]),
        np.insert(group, at, np.repeat(has, 2)[add]),
    )


def _integral_batch(u, resid, group, n, eigsys, k, quadrature, carry_to_ends):
    """Integral scores of n curves at once; the math of ``integral_scores``.

    u, resid and group hold the curves' centred observations one curve
    after another, each sorted. Every (interval, curve) run of at least two
    points gets its own quadrature weights. Returns the (n, k) scores and
    which curves had no such run.
    """
    if quadrature not in ("riemann", "trapezoid"):
        raise UsageError(f"unknown quadrature {quadrature!r}")
    parts = []
    for lo, hi, inside in _in_blocks(u, eigsys):
        uu, rr, gg = u[inside], resid[inside], group[inside]
        if carry_to_ends:
            uu, rr, gg = _carried_to_ends(uu, rr, gg, n, lo, hi)
        enough = np.bincount(gg, minlength=n)[gg] >= 2
        parts.append((uu[enough], rr[enough], gg[enough]))
    uu, rr, gg = (np.concatenate(p) for p in zip(*parts))
    block = np.repeat(np.arange(len(parts)), [p[0].size for p in parts])
    new_run = np.ones(uu.size, dtype=bool)
    new_run[1:] = (gg[1:] != gg[:-1]) | (block[1:] != block[:-1])
    starts = np.flatnonzero(new_run)
    terms = rr * _quadrature_weights(uu, starts, quadrature)
    # Each curve's points, in interval order, padded to one slab per curve:
    # one stacked matrix-vector product integrates every curve, and for a
    # single curve it is the product over its points alone.
    order = np.argsort(gg, kind="stable")
    gg = gg[order]
    first, sizes = _segments(gg, n)
    slot = np.arange(gg.size) - first[gg]
    phi = np.zeros((n, sizes.max(initial=0), k))
    phi[gg, slot] = eigsys.phi_at(uu[order], k)
    rw = np.zeros(phi.shape[:2])
    rw[gg, slot] = terms[order]
    return (np.swapaxes(phi, 1, 2) @ rw[..., None])[..., 0], sizes == 0


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

    Returns (solution, condition_estimate, jittered). A matrix that stays
    non positive definite after one ridge of 1e-8 * trace/m raises.
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
    diag = np.diagonal(c)
    cond_est = float((diag.max() / max(diag.min(), 1e-300)) ** 2)
    sol, info = dpotrs(c, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return sol, cond_est, jittered


def _ce_batch(u, y, group, n, eigsys, sigma2, mean, k):
    """Conditional-expectation scores of n curves at once; the math of ``ce_scores``.

    u, y and group hold the curves' observations one curve after another.
    The eigenfunctions are evaluated once at every point, then each curve
    solves its own system. Returns the (n, k) scores, the flags per curve
    and the FdreconError of each curve whose solve failed (else None).
    """
    inside = functools.reduce(np.logical_or, [sel for _, _, sel in _in_blocks(u, eigsys)])
    u, y, group = u[inside], y[inside], group[inside]
    phi_all = eigsys.phi_at(u)
    resid = y - mean.at(u)
    values = np.zeros((n, k))
    flags: list[tuple[str, ...]] = [("insufficient points",)] * n
    errors: list[FdreconError | None] = [None] * n
    starts, sizes = _segments(group, n)
    for g, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        if size == 0:
            continue
        rows = slice(start, start + size)
        phi = phi_all[rows]
        try:
            S = _observation_covariance(phi, eigsys, sigma2)
            sol, cond_est, jittered = _solve_spd(S, resid[rows])
        except FdreconError as exc:
            errors[g] = exc
            continue
        flags[g] = ("jitter applied",) if jittered else ()
        if cond_est > CONDITION_FLAG_THRESHOLD:
            flags[g] += (f"ill-conditioned (cond~{cond_est:.2e})",)
        values[g] = eigsys.eigenvalues[:k] * (np.ascontiguousarray(phi[:, :k]).T @ sol)
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
