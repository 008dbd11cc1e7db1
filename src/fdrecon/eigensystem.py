"""Eigen-analysis of the covariance on a subdomain and the extrapolated basis."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import DomainGrid
from .errors import DataError, DegenerateCovarianceError, NotEstimableError
from .smoothing import CovarianceEstimate

DEFAULT_LAMBDA_REL_FLOOR = 1e-8
NEAR_DEGENERATE_GAP = 1e-10


@dataclass(frozen=True)
class Subdomain:
    """A union of disjoint subintervals of the domain and the grid points inside them.

    ``intervals`` keeps the exact interval ends; ``grid_indices`` holds the
    grid points they contain, one contiguous run per interval.
    """

    intervals: tuple[tuple[float, float], ...]
    grid_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.grid_indices, dtype=int)
        if idx.size == 0:
            raise DataError("subdomain has no grid points")
        if np.any(np.diff(idx) <= 0):
            raise DataError("subdomain grid indices must be strictly increasing")
        object.__setattr__(self, "grid_indices", idx)
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        for (a, b) in ivals:
            if b < a:
                raise DataError(f"invalid subinterval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ivals, ivals[1:]):
            if a1 <= b0:
                raise DataError("subintervals must be disjoint and ordered")
        if len(ivals) != len(_contiguous_blocks(idx)):
            raise DataError("subdomain needs one interval per contiguous run of grid indices")
        object.__setattr__(self, "intervals", ivals)

    @classmethod
    def from_interval(cls, grid: DomainGrid, a: float, b: float) -> "Subdomain":
        tol = 1e-9 * (grid.b - grid.a)
        idx = np.nonzero((grid.points >= a - tol) & (grid.points <= b + tol))[0]
        if idx.size == 0:
            raise DataError(f"no grid points inside [{a}, {b}]")
        return cls(((float(a), float(b)),), idx)

    @classmethod
    def from_indices(cls, grid: DomainGrid, indices: Sequence[int]) -> "Subdomain":
        idx = np.unique(np.asarray(indices, dtype=int))
        if idx.size == 0:
            raise DataError("subdomain has no grid points")
        intervals = []
        for block in _contiguous_blocks(idx):
            intervals.append((float(grid.points[block[0]]), float(grid.points[block[-1]])))
        return cls(tuple(intervals), idx)

    def blocks(self) -> list[np.ndarray]:
        """Contiguous runs of grid indices, one per subinterval."""
        return _contiguous_blocks(self.grid_indices)

    def points(self, grid: DomainGrid) -> np.ndarray:
        return grid.points[self.grid_indices]

    def contains(self, u, tol: float = 0.0) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.zeros(u.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (u >= a - tol) & (u <= b + tol)
        return out

    def off_grid_ends(self, grid: DomainGrid) -> list[tuple[float | None, float | None]]:
        """Per interval, its (lower, upper) ends that lie strictly between grid points.

        An end within 1e-9 of the domain width of its block's outermost
        grid point counts as on the grid and is reported as None.
        """
        tol = 1e-9 * (grid.b - grid.a)
        pts = grid.points
        out = []
        for (a, b), block in zip(self.intervals, self.blocks()):
            lo = a if block[0] > 0 and a < pts[block[0]] - tol else None
            hi = b if block[-1] < grid.size - 1 and b > pts[block[-1]] + tol else None
            out.append((lo, hi))
        return out

    def complement(self, grid: DomainGrid) -> "Subdomain":
        """The grid points outside this subdomain.

        An off-grid end of this subdomain becomes the facing end of the
        complement's interval, so the complement of the complement has the
        same exact ends (and cache key) as the original.
        """
        inside = np.zeros(grid.size, dtype=bool)
        inside[self.grid_indices] = True
        outside = np.nonzero(~inside)[0]
        if outside.size == 0:
            raise DataError("subdomain covers the whole grid; empty complement")
        comp = Subdomain.from_indices(grid, outside)
        starts, stops = {}, {}
        for block, (lo, hi) in zip(self.blocks(), self.off_grid_ends(grid)):
            if lo is not None:
                starts[int(block[0])] = lo
            if hi is not None:
                stops[int(block[-1])] = hi
        intervals = tuple(
            (stops.get(int(block[0]) - 1, a), starts.get(int(block[-1]) + 1, b))
            for block, (a, b) in zip(comp.blocks(), comp.intervals)
        )
        return Subdomain(intervals, outside)

    def trapezoid_weights(self, grid: DomainGrid) -> np.ndarray:
        """Per-block trapezoid quadrature weights aligned with grid_indices."""
        w = np.empty(self.grid_indices.size)
        pos = 0
        for block in self.blocks():
            nb = block.size
            wb = np.full(nb, grid.delta)
            if nb > 1:
                wb[0] = wb[-1] = 0.5 * grid.delta
            w[pos : pos + nb] = wb
            pos += nb
        return w

    def key(self) -> tuple:
        """Hashable cache key: (first, last) grid index and the exact interval ends per block."""
        return tuple(
            (int(blk[0]), int(blk[-1]), a, b) for blk, (a, b) in zip(self.blocks(), self.intervals)
        )


def interp_columns(u, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(u, xp, fp[:, j])`` for every column j at once, shape (len(u), ncols).

    Follows np.interp value for value: the same bracketing interval, slope
    and rounding, constant extension beyond the ends, the node value where
    u hits a node exactly, and the same handling of NaN values in fp.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if xp.size == 1:
        return np.repeat(fp[:1], u.size, axis=0)
    j = np.searchsorted(xp[1:-1], u, side="right")
    x0, x1 = xp[j][:, None], xp[j + 1][:, None]
    f0, f1 = fp[j], fp[j + 1]
    uu = u[:, None]
    slope = (f1 - f0) / (x1 - x0)
    out = slope * (uu - x0) + f0
    retry = np.isnan(out)
    if retry.any():
        out = np.where(retry, slope * (uu - x1) + f1, out)
        out = np.where(np.isnan(out) & (f0 == f1), f0, out)
    hit = u == xp[j]
    if hit.any():
        out[hit] = f0[hit]
    out[u < xp[0]] = fp[0]
    out[u >= xp[-1]] = fp[-1]
    return out


def _contiguous_blocks(idx: np.ndarray) -> list[np.ndarray]:
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    return [np.asarray(b) for b in np.split(idx, breaks + 1)]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenfunctions of the covariance restricted to a subdomain.

    ``eigenfunctions`` holds the retained components at the eigenproblem
    ``nodes``, normalized to unit norm under the quadrature ``weights``;
    ``extrapolated`` (once filled) holds their extension to the full grid,
    NaN where the covariance rows needed for the extension are not
    estimable. The nodes of each subdomain interval are its grid points
    plus its exact ends where those lie off the grid; ``node_index`` maps a
    node to its grid index (-1 for such an end) and ``node_blocks`` holds
    one slice of nodes per interval.
    """

    grid: DomainGrid
    subdomain: Subdomain
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    node_index: np.ndarray
    node_blocks: tuple[slice, ...]
    extrapolated: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def k_available(self) -> int:
        return int(self.eigenvalues.size)

    def phi_at(self, u, k_max: int | None = None) -> np.ndarray:
        """Eigenfunction values at arbitrary points of the subdomain, shape (len(u), K)."""
        k = self.k_available if k_max is None else int(k_max)
        return interp_columns(u, self.nodes, self.eigenfunctions[:, :k])

    @cached_property
    def end_values(self) -> np.ndarray:
        """Eigenfunction values at the ends of every subdomain interval, shape (2 * n_intervals, K).

        Rows run (a_0, b_0, a_1, b_1, ...); an end beyond its interval's
        outermost node (a snapped end) takes that node's values.
        """
        rows = []
        for (a, b), block in zip(self.subdomain.intervals, self.node_blocks):
            pts = self.nodes[block]
            ends = np.clip([a, b], pts[0], pts[-1])
            rows.append(interp_columns(ends, pts, self.eigenfunctions[block]))
        return np.vstack(rows)

    def extrapolated_at(self, u, k_max: int | None = None) -> np.ndarray:
        """Extrapolated basis values at arbitrary domain points, shape (len(u), K)."""
        if self.extrapolated is None:
            raise DataError("extrapolated basis not filled; call extrapolate_basis first")
        k = self.k_available if k_max is None else int(k_max)
        return interp_columns(u, self.grid.points, self.extrapolated[:, :k])

    def fve_truncation(self, threshold: float) -> int:
        """Smallest K whose eigenvalue mass reaches the given fraction."""
        total = float(self.eigenvalues.sum())
        if total <= 0:
            raise DegenerateCovarianceError("no positive eigenvalue mass")
        frac = np.cumsum(self.eigenvalues) / total
        return int(np.searchsorted(frac, threshold - 1e-12) + 1)


def _cell(grid: DomainGrid, x: float) -> np.ndarray:
    """The two grid indices enclosing an off-grid point."""
    i = min(int((x - grid.a) / grid.delta), grid.size - 2)
    return np.array([i, i + 1])


def _node_layout(cov: CovarianceEstimate, subdomain: Subdomain):
    """Eigenproblem nodes, their grid indices, trapezoid weights and per-interval slices.

    Each interval contributes its grid points, plus each off-grid end whose
    enclosing covariance cells are estimable against every node and every
    grid row the snapped subdomain can extrapolate to, so that an added end
    never shrinks the estimable part of the extension. An end failing that
    (band-limited masks) keeps the snapped grid end and is counted.
    Returns (nodes, node_index, weights, node_blocks, n_snapped).
    """
    grid = cov.grid
    used = np.zeros(grid.size, dtype=bool)
    used[subdomain.grid_indices] = True
    reach = np.all(cov.mask[:, used], axis=1)
    blocks = subdomain.blocks()
    grid_w = np.split(subdomain.trapezoid_weights(grid), np.cumsum([b.size for b in blocks]))
    nodes, node_index, weights, node_blocks = [], [], [], []
    n_snapped = 0
    for block, w, (lo, hi) in zip(blocks, grid_w, subdomain.off_grid_ends(grid)):
        x, gi, w = list(grid.points[block]), list(block), list(w)
        for side, end in ((0, lo), (-1, hi)):
            if end is None:
                continue
            trial = used.copy()
            trial[_cell(grid, end)] = True
            if not np.all(cov.mask[np.ix_(reach | trial, trial)]):
                n_snapped += 1
                continue
            used = trial
            h = 0.5 * abs(x[side] - end)
            w[side] += h
            at = 0 if side == 0 else len(x)
            x.insert(at, end)
            gi.insert(at, -1)
            w.insert(at, h)
        node_blocks.append(slice(len(nodes), len(nodes) + len(x)))
        nodes += x
        node_index += gi
        weights += w
    return (
        np.array(nodes), np.array(node_index, dtype=int), np.array(weights),
        tuple(node_blocks), n_snapped,
    )


def _weighted_eigh(G: np.ndarray, w: np.ndarray):
    """Symmetric eigenproblem of the covariance matrix G under quadrature weights w.

    Solves D G D with D = diag(sqrt(w)), symmetrized against rounding.
    Returns (eigenvalues ascending, orthonormal eigenvectors, sqrt(w)); an
    eigenfunction on the nodes is its eigenvector divided by sqrt(w).
    """
    d = np.sqrt(w)
    M = d[:, None] * G * d[None, :]
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    return evals, evecs, d


def eigen_on_subdomain(
    cov: CovarianceEstimate,
    subdomain: Subdomain,
    lambda_rel_floor: float = DEFAULT_LAMBDA_REL_FLOOR,
) -> EigenSystem:
    """Solve the discretized eigenproblem of the covariance on a subdomain.

    The nodes are the subdomain's grid points plus every interval end that
    lies off the grid, whose covariance row is interpolated bilinearly
    (``CovarianceEstimate.at``). An end whose enclosing covariance cells
    are not estimable stays snapped to its grid point and is counted in
    ``diagnostics["n_snapped_ends"]``. The covariance matrix on the nodes
    is scaled by trapezoid quadrature weights, solved as a symmetric
    eigenproblem, negative eigenvalues are clipped to zero and components
    below ``lambda_rel_floor`` times the leading eigenvalue are dropped.
    Eigenfunctions are normalized to unit quadrature norm over the
    subdomain and carry a deterministic sign (positive sum, with the first
    nonzero coordinate breaking ties).

    Raises
    ------
    NotEstimableError
        If any covariance cell on the subdomain's grid square is not estimable.
    DegenerateCovarianceError
        If no eigenvalue is positive.
    """
    idx = subdomain.grid_indices
    for block in subdomain.blocks():
        if block.size < 2:
            raise DataError("each subdomain interval needs at least two grid points")
    sub_mask = cov.mask[np.ix_(idx, idx)]
    if not np.all(sub_mask):
        raise NotEstimableError(
            f"covariance not estimable on O ({int((~sub_mask).sum())} cells missing)"
        )
    nodes, node_index, w, node_blocks, n_snapped = _node_layout(cov, subdomain)
    on_grid = node_index >= 0
    # Off-grid ends take a placeholder grid row here, overwritten below.
    gi = np.maximum(node_index, 0)
    G = cov.surface[np.ix_(gi, gi)]
    if not np.all(on_grid):
        rows = cov.at(nodes[~on_grid][:, None], nodes[None, :])
        G[~on_grid, :] = rows
        G[:, ~on_grid] = rows.T
    evals, evecs, d = _weighted_eigh(G, w)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals.size == 0 or evals[0] <= 0:
        raise DegenerateCovarianceError("degenerate covariance: no positive eigenvalue")
    evals = np.clip(evals, 0.0, None)
    keep = evals > lambda_rel_floor * evals[0]
    evals = evals[keep]
    evecs = evecs[:, keep]
    phi = evecs / d[:, None]

    sums = phi.sum(axis=0)
    for j in range(phi.shape[1]):
        if abs(sums[j]) > 1e-12:
            if sums[j] < 0:
                phi[:, j] = -phi[:, j]
        else:
            nz = np.nonzero(np.abs(phi[:, j]) > 1e-12)[0]
            if nz.size and phi[nz[0], j] < 0:
                phi[:, j] = -phi[:, j]

    gaps = -np.diff(evals)
    near_degenerate = [int(j) for j in np.nonzero(gaps < NEAR_DEGENERATE_GAP * evals[0])[0]]
    return EigenSystem(
        grid=cov.grid,
        subdomain=subdomain,
        eigenvalues=evals,
        eigenfunctions=phi,
        nodes=nodes,
        weights=w,
        node_index=node_index,
        node_blocks=node_blocks,
        extrapolated=None,
        diagnostics={"near_degenerate_pairs": near_degenerate, "n_snapped_ends": n_snapped},
    )


def extrapolate_basis(eigsys: EigenSystem, cov: CovarianceEstimate) -> EigenSystem:
    """Fill the extrapolated basis on the full grid.

    Each extrapolated value is the quadrature inner product of the
    eigenfunction with the covariance row at the target point over the
    eigenproblem nodes, divided by the eigenvalue; at an off-grid end node
    the covariance is interpolated bilinearly. Rows of the covariance that
    are not fully estimable over the nodes (for an off-grid end: over both
    enclosing grid columns) yield NaN at that point. On subdomain grid
    points the computed value replicates the eigenfunction up to solver
    precision; the largest deviation is recorded as a diagnostic rather
    than substituted away.
    """
    grid = eigsys.grid
    on_grid = eigsys.node_index >= 0
    idx = eigsys.node_index[on_grid]
    ends = eigsys.nodes[~on_grid]
    # Off-grid ends take a placeholder grid column here, overwritten below.
    cols = cov.surface[:, np.maximum(eigsys.node_index, 0)]
    cols[:, ~on_grid] = cov.at(grid.points[:, None], ends[None, :])
    used = np.concatenate([idx] + [_cell(grid, x) for x in ends])
    row_ok = np.all(cov.mask[:, np.unique(used)], axis=1)
    filled = np.where(np.isnan(cols), 0.0, cols)
    ext = (filled * eigsys.weights[None, :]) @ eigsys.eigenfunctions
    ext /= eigsys.eigenvalues[None, :]
    ext[~row_ok] = np.nan

    on_sub = ext[idx, :]
    identity_residual = float(
        np.nanmax(np.abs(on_sub - eigsys.eigenfunctions[on_grid]), initial=0.0)
    )
    diag = dict(eigsys.diagnostics)
    diag["extrapolation_identity_residual"] = identity_residual
    diag["n_non_estimable_rows"] = int((~row_ok).sum())
    return replace(eigsys, extrapolated=ext, diagnostics=diag)
