"""Eigen-analysis of the covariance on a subdomain and the extrapolated basis."""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field, replace
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
    grid points they contain, one contiguous run per interval. The runs are
    split once, on construction (or passed in as ``runs`` by a constructor
    that has split them already), and kept.
    """

    intervals: tuple[tuple[float, float], ...]
    grid_indices: np.ndarray
    runs: InitVar[list[np.ndarray] | None] = None

    def __post_init__(self, runs):
        idx = np.asarray(self.grid_indices, dtype=int)
        if idx.size == 0:
            raise DataError("subdomain has no grid points")
        if (idx[1:] <= idx[:-1]).any():
            raise DataError("subdomain grid indices must be strictly increasing")
        object.__setattr__(self, "grid_indices", idx)
        ivals = tuple((float(a), float(b)) for a, b in self.intervals)
        for (a, b) in ivals:
            if b < a:
                raise DataError(f"invalid subinterval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ivals, ivals[1:]):
            if a1 <= b0:
                raise DataError("subintervals must be disjoint and ordered")
        blocks = _contiguous_blocks(idx) if runs is None else runs
        if len(ivals) != len(blocks):
            raise DataError("subdomain needs one interval per contiguous run of grid indices")
        object.__setattr__(self, "intervals", ivals)
        object.__setattr__(self, "_blocks", blocks)
        key = tuple((int(block[0]), int(block[-1]), *iv) for block, iv in zip(blocks, ivals))
        object.__setattr__(self, "_key", key)

    @classmethod
    def from_interval(cls, grid: DomainGrid, a: float, b: float) -> "Subdomain":
        tol = 1e-9 * (grid.b - grid.a)
        idx = ((grid.points >= a - tol) & (grid.points <= b + tol)).nonzero()[0]
        if idx.size == 0:
            raise DataError(f"no grid points inside [{a}, {b}]")
        return cls(((float(a), float(b)),), idx, [idx])

    @classmethod
    def from_indices(cls, grid: DomainGrid, indices: Sequence[int]) -> "Subdomain":
        idx = np.unique(np.asarray(indices, dtype=int))
        if idx.size == 0:
            raise DataError("subdomain has no grid points")
        blocks = _contiguous_blocks(idx)
        intervals = [(float(grid.points[b[0]]), float(grid.points[b[-1]])) for b in blocks]
        return cls(tuple(intervals), idx, blocks)

    def blocks(self) -> list[np.ndarray]:
        """Contiguous runs of grid indices, one per subinterval."""
        return self._blocks

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
        starts, stops = {}, {}
        for block, (lo, hi) in zip(self.blocks(), self.off_grid_ends(grid)):
            if lo is not None:
                starts[int(block[0])] = lo
            if hi is not None:
                stops[int(block[-1])] = hi
        blocks = _contiguous_blocks(outside)
        intervals = tuple(
            (
                stops.get(int(block[0]) - 1, float(grid.points[block[0]])),
                starts.get(int(block[-1]) + 1, float(grid.points[block[-1]])),
            )
            for block in blocks
        )
        return Subdomain(intervals, outside, blocks)

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
        return self._key


def interp_columns(u, xp: np.ndarray, fp: np.ndarray, col=None) -> np.ndarray:
    """``np.interp(u, xp, fp[:, j])`` for every column j at once, shape (len(u), ncols).

    Follows np.interp value for value: the same bracketing interval, slope
    and rounding, constant extension beyond the ends, the node value where
    u hits a node exactly, and the same handling of NaN values in fp. With
    ``col``, point i is interpolated in column col[i] alone, shape (len(u),).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if xp.size == 1:
        return np.repeat(fp[:1], u.size, axis=0) if col is None else fp[0, col]
    j = np.searchsorted(xp[1:-1], u, side="right")
    x0, x1 = xp[j], xp[j + 1]
    per_point = (slice(None), None) if col is None else slice(None)
    f0, f1 = (fp[j], fp[j + 1]) if col is None else (fp[j, col], fp[j + 1, col])
    slope = (f1 - f0) / (x1 - x0)[per_point]
    out = slope * (u - x0)[per_point] + f0
    retry = np.isnan(out)
    if retry.any():
        out = np.where(retry, slope * (u - x1)[per_point] + f1, out)
        out = np.where(np.isnan(out) & (f0 == f1), f0, out)
    hit = u == x0
    if hit.any():
        out[hit] = f0[hit]
    below, above = u < xp[0], u >= xp[-1]
    if col is None:
        out[below], out[above] = fp[0], fp[-1]
    else:
        out[below], out[above] = fp[0, col[below]], fp[-1, col[above]]
    return out


def _contiguous_blocks(idx: np.ndarray) -> list[np.ndarray]:
    edges = [0, *(np.nonzero(idx[1:] - idx[:-1] > 1)[0] + 1).tolist(), idx.size]
    return [idx[a:b] for a, b in zip(edges[:-1], edges[1:])]


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
    one slice of nodes per interval. ``tables`` keeps the curve-independent
    tables the caching model builds once for the eigensystem's reconstructions.
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
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k_available(self) -> int:
        return int(self.eigenvalues.size)

    def phi_at(self, u, k_max: int | None = None) -> np.ndarray:
        """Eigenfunction values at arbitrary points of the subdomain, shape (len(u), K)."""
        k = self.k_available if k_max is None else int(k_max)
        return interp_columns(u, self.nodes, self.eigenfunctions[:, :k])

    @cached_property
    def node_spans(self) -> np.ndarray:
        """The first and last node of every subdomain interval, shape (2, n_intervals)."""
        return np.array([[self.nodes[s.start], self.nodes[s.stop - 1]] for s in self.node_blocks]).T

    @cached_property
    def end_values(self) -> np.ndarray:
        """Eigenfunction values at the ends of every subdomain interval, shape (2 * n_intervals, K).

        Rows run (a_0, b_0, a_1, b_1, ...); an end beyond its interval's
        outermost node (a snapped end) takes that node's values. An end at a
        node copies its row, as ``interp_columns`` would; one strictly inside
        is interpolated.
        """
        at = np.array([(s.start, s.stop - 1) for s in self.node_blocks]).ravel()
        lo, hi = self.node_spans[:, :, None]
        ends = np.array(self.subdomain.intervals).clip(lo, hi).ravel()
        values, inside = self.eigenfunctions[at], ends != self.nodes[at]
        if inside.any():
            values[inside] = interp_columns(ends[inside], self.nodes, self.eigenfunctions)
        return values

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


def _cell(grid: DomainGrid, x: float) -> tuple[int, int]:
    """The two grid indices enclosing an off-grid point."""
    i = min(int((x - grid.a) / grid.delta), grid.size - 2)
    return i, i + 1


@functools.lru_cache(maxsize=4)
def _bad_cell_sums(mask: bytes, L: int) -> np.ndarray:
    """Prefix sums of a mask's non-estimable cells, with a zero row and column first."""
    square = np.pad((np.frombuffer(mask, bool).reshape(L, L) == 0).cumsum(0).cumsum(1), (1, 0))
    square.flags.writeable = False
    return square


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every run of True in a boolean vector."""
    padded = np.zeros(flags.size + 2, dtype=np.int8)
    padded[1:-1] = flags
    step = padded[1:] - padded[:-1]
    return np.nonzero(step == 1)[0], np.nonzero(step == -1)[0] - 1


def _clean(square: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> bool:
    """Whether rows [r0, r1] x columns [c0, c1] hold no non-estimable cell, by ``_bad_cell_sums``."""
    return square[r1 + 1, c1 + 1] - square[r0, c1 + 1] - square[r1 + 1, c0] + square[r0, c0] == 0


def _node_layout(cov: CovarianceEstimate, subdomain: Subdomain):
    """Eigenproblem nodes, their grid indices, trapezoid weights and per-interval slices.

    Each interval contributes its grid points, plus each off-grid end whose
    enclosing covariance cells are estimable against every node and every
    grid row the snapped subdomain can extrapolate to, so that an added end
    never shrinks the estimable part of the extension. An end failing that
    (band-limited masks) keeps the snapped grid end and is counted. With the
    subdomain's square estimable, the rows estimable against it (reach) hold
    and are estimable against the used columns, so an end whose cell adds
    columns N is added when reach x N and N x (used + N) hold no bad cell, by
    the mask's prefix sums; on a full mask every end is.
    Returns (nodes, node_index, weights, node_blocks, n_snapped).
    """
    grid, idx = cov.grid, subdomain.grid_indices
    weights = subdomain.trapezoid_weights(grid)
    used = [(int(block[0]), int(block[-1])) for block in subdomain.blocks()]
    parts, node_blocks, at, n_snapped, square = [], [], 0, 0, None
    for block, pair in zip(subdomain.blocks(), subdomain.off_grid_ends(grid)):
        x, w = grid.points[block], weights[at : at + block.size]
        at += block.size
        run = [(x, block, w)]
        for side, end in zip((0, -1), pair):
            if end is None:
                continue
            new = [j for j in _cell(grid, end) if not any(a <= j <= b for a, b in used)]
            if new and not cov.full_mask:
                if square is None:
                    mask = np.asarray(cov.mask, dtype=bool)
                    square = _bad_cell_sums(mask.tobytes(), grid.size)
                    reach = list(zip(*(r.tolist() for r in _runs(mask[:, idx].all(axis=1)))))
                n = (new[0], new[-1])
                if not (all(_clean(square, *r, *n) for r in reach)
                        and all(_clean(square, *n, *c) for c in used + [n])):
                    n_snapped += 1
                    continue
                used.append(n)
            # An added end is a node weighted by half its gap to the grid end, which gains it too.
            h = 0.5 * abs(x[side] - end)
            w[side] += h
            run.insert(len(run) if side else 0, ([end], [-1], [h]))
        start = sum(len(p[0]) for p in parts)
        node_blocks.append(slice(start, start + sum(len(r[0]) for r in run)))
        parts += run
    nodes, node_index, weights = (np.concatenate(part) for part in zip(*parts))
    return nodes, node_index, weights, tuple(node_blocks), n_snapped


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
    missing = 0 if cov.full_mask else int((~cov.mask[idx[:, None], idx]).sum())
    if missing:
        raise NotEstimableError(f"covariance not estimable on O ({missing} cells missing)")
    nodes, node_index, w, node_blocks, n_snapped = _node_layout(cov, subdomain)
    on_grid = node_index >= 0
    # Off-grid ends take a placeholder grid row here, overwritten below.
    gi = np.maximum(node_index, 0)
    G = cov.surface[gi[:, None], gi]
    ends = (~on_grid).nonzero()[0]
    if ends.size:
        G[ends, :] = rows = cov.at(nodes[ends][:, None], nodes[None, :])
        G[:, ends] = rows.T
    evals, evecs, d = _weighted_eigh(G, w)
    order = evals.argsort()[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals.size == 0 or evals[0] <= 0:
        raise DegenerateCovarianceError("degenerate covariance: no positive eigenvalue")
    evals = evals.clip(0.0, None)
    keep = evals > lambda_rel_floor * evals[0]
    evals = evals[keep]
    evecs = evecs[:, keep]
    phi = evecs / d[:, None]

    sums = phi.sum(axis=0)
    flip = sums < 0
    tied = np.abs(sums) <= 1e-12
    if tied.any():  # the first entry above 1e-12 in size decides
        nonzero = np.abs(phi[:, tied]) > 1e-12
        first = phi[:, tied][nonzero.argmax(axis=0), np.arange(nonzero.shape[1])]
        flip[tied] = nonzero.any(axis=0) & (first < 0)
    phi[:, flip] = -phi[:, flip]

    near_degenerate = (evals[:-1] - evals[1:] < NEAR_DEGENERATE_GAP * evals[0]).nonzero()[0].tolist()
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
    if ends.size:
        cols[:, ~on_grid] = cov.at(grid.points[:, None], ends[None, :])
    filled = np.where(np.isnan(cols), 0.0, cols)
    ext = (filled * eigsys.weights[None, :]) @ eigsys.eigenfunctions
    ext /= eigsys.eigenvalues[None, :]
    # ``_node_layout`` adds an end only where its cell is estimable against every row
    # estimable against the grid nodes, so those rows are estimable against all nodes.
    row_ok = cov.mask[:, idx].all(axis=1)
    ext[~row_ok] = np.nan

    # The largest deviation over the estimable rows: np.nanmax's reduction.
    identity_residual = float(
        np.fmax.reduce(np.abs(ext[idx, :] - eigsys.eigenfunctions[on_grid]), axis=None, initial=0.0)
    )
    diag = dict(eigsys.diagnostics)
    diag["extrapolation_identity_residual"] = identity_residual
    diag["n_non_estimable_rows"] = int((~row_ok).sum())
    return replace(eigsys, extrapolated=ext, diagnostics=diag)
