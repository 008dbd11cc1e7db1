"""Iterative completion over overlapping subintervals for band-limited covariances."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Curve, DomainGrid
from .eigensystem import EigenSystem, Subdomain, eigen_on_subdomain, extrapolate_basis
from .eigensystem import _bad_cell_sums, _runs
from .errors import DataError, NotEstimableError, UsageError
from .reconstruct import (
    PROV_NON_ESTIMABLE,
    ReconstructedCurve,
    ReconstructionModel,
    _RowTerms,
    reconstruct_with_method,
)
from .smoothing import CovarianceEstimate, MeanEstimate

STRATEGIES = ("greedy-band", "app3")
DEFAULT_R_MAX = 5


@dataclass(frozen=True)
class IterationPlan:
    """Either explicit subdomains per step or a strategy that derives them."""

    steps: tuple[Subdomain, ...] | None = None
    r_max: int = DEFAULT_R_MAX
    strategy: str = "greedy-band"

    def __post_init__(self):
        if self.r_max < 1:
            raise UsageError("r_max must be at least 1")
        if self.strategy not in STRATEGIES:
            raise UsageError(f"strategy must be one of {STRATEGIES}")
        if self.steps is not None:
            object.__setattr__(self, "steps", tuple(self.steps))


def _choose_next_rows(
    covered: np.ndarray, mask: np.ndarray, strategy: str, step: int
) -> np.ndarray | None:
    L = mask.shape[0]
    if strategy == "app3":
        idx = np.nonzero(covered)[0]
        lo, hi = idx[0], idx[-1]
        mid = (lo + hi) // 2
        if step == 2:
            pick = idx[idx >= mid]
        elif step == 3:
            pick = idx[idx <= mid]
        else:
            return None
        return pick if pick.size >= 2 else None

    # Candidate windows sit inside a covered run, flush against its end that
    # faces an uncovered point: forward windows [lo, lo + k] of a run that
    # starts after a gap, backward windows [hi - k, hi] of a run that ends
    # before one. Among the windows whose covariance square is estimable,
    # prefer the one that newly covers the most points, breaking ties toward
    # the wider window (more information), then toward the rightmost
    # frontier, then toward the backward window.
    lo, hi = _runs(covered)
    fwd, bwd = lo > 0, hi < L - 1
    anchor = np.concatenate([lo[fwd], hi[bwd]])
    sign = np.repeat([1, -1], [np.count_nonzero(fwd), np.count_nonzero(bwd)])
    n_cand = np.concatenate([hi[fwd] - lo[fwd], hi[bwd] - lo[bwd]])
    seg = np.repeat(np.arange(n_cand.size), n_cand)
    k = np.arange(1, seg.size + 1) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    anchor, sign = anchor[seg], sign[seg]
    a = np.minimum(anchor, anchor + sign * k)
    b = a + k + 1

    # Prefix sums of the non-estimable cells (one table per mask): the square
    # [a, b) x [a, b) and each uncovered row over [a, b) are estimable when they count none.
    square = _bad_cell_sums(np.asarray(mask, dtype=bool).tobytes(), L)
    uncovered = np.nonzero(~covered)[0]
    rows = square[uncovered + 1] - square[uncovered]
    in_band = square[b, b] - square[a, b] - square[b, a] + square[a, a] == 0
    n_new = np.count_nonzero(rows[:, b] == rows[:, a], axis=0)

    # One integer per candidate orders (n_new, size, frontier, backward);
    # it is 0 where the square is not estimable or nothing new is reached.
    key = ((n_new * (L + 1) + k) * L + anchor - sign) * 2 + (sign < 0)
    key *= in_band & (n_new > 0)
    if not key.any():
        return None
    best = int(key.argmax())
    return np.arange(a[best], b[best])


def choose_next_interval(
    current_coverage: Subdomain,
    mask: np.ndarray,
    strategy: str = "greedy-band",
    step: int = 2,
    grid: DomainGrid | None = None,
) -> Subdomain | None:
    """Next pseudo-observed interval, or None when no extension is possible.

    greedy-band picks, among the windows flush against a coverage edge that
    faces an uncovered point, one whose covariance square is estimable and
    whose extrapolation reaches the most uncovered points, the widest among
    those, then the one with the rightmost frontier. app3 replays the
    practical three-step recipe: the original interval is step 1, then the
    upper half of the coverage hull, then the lower half.
    """
    L = mask.shape[0]
    covered = np.zeros(L, dtype=bool)
    covered[current_coverage.grid_indices] = True
    if covered.all():
        raise UsageError("coverage is already complete")
    rows = _choose_next_rows(covered, mask, strategy, step)
    if rows is None:
        return None
    if grid is None:
        grid = DomainGrid.regular((0.0, 1.0), L)
    return Subdomain.from_indices(grid, rows)


def _estimable_rows(eigsys: EigenSystem) -> np.ndarray:
    return np.all(np.isfinite(eigsys.extrapolated), axis=1)


def _grid_scores(values_on_sub: np.ndarray, eigsys: EigenSystem, mean: MeanEstimate) -> np.ndarray:
    """Trapezoid-quadrature scores of a gridded pseudo-curve on a grid-aligned subdomain."""
    resid = values_on_sub - mean.values[eigsys.subdomain.grid_indices]
    return eigsys.eigenfunctions.T @ (eigsys.weights * resid)


def _edge_values(values_on_sub: np.ndarray, eigsys: EigenSystem) -> np.ndarray:
    """Gridded values at the block edges of a grid-aligned subdomain, (a_0, b_0, a_1, ...).

    On such a subdomain the interval ends are the block edges. With one
    row of values per curve, the result has one row per curve.
    """
    edges = [i for s in eigsys.node_blocks for i in (s.start, s.stop - 1)]
    return values_on_sub[..., edges]


# A later step: its subdomain and eigensystem, the rows it newly covers at
# positions pos of the estimable rows it evaluates, and the expansion's
# curve-independent terms at those rows.
_Step = namedtuple("_Step", "r subdomain eigsys new pos terms")


def _completion_plan(model: ReconstructionModel, covered: np.ndarray, plan: IterationPlan):
    """(steps, stalled_at, final coverage) of the later steps from a first-step coverage.

    They depend on the coverage, the mask and the plan, never on a curve's values,
    so they are cached on the model; a plan whose building raises leaves no entry.
    """
    explicit = None if plan.steps is None else tuple(s.key() for s in plan.steps)
    key = (covered.tobytes(), plan.r_max, plan.strategy, explicit)
    if key in model._plan_cache:
        return model._plan_cache[key]
    grid = model.grid
    covered = covered.copy()
    steps: list[_Step] = []
    stalled_at = 0
    r = 1
    while r < plan.r_max and not covered.all():
        r += 1
        if plan.steps is not None:
            if r - 2 >= len(plan.steps):
                break
            # Later steps observe gridded values only, so their subdomain is
            # the grid points it holds.
            o_r = Subdomain.from_indices(grid, plan.steps[r - 2].grid_indices)
            if not np.all(covered[o_r.grid_indices]):
                raise UsageError(f"step {r} subdomain is not inside the current coverage")
        else:
            coverage = Subdomain.from_indices(grid, np.nonzero(covered)[0])
            o_r = choose_next_interval(coverage, model.cov.mask, plan.strategy, r, grid)
            if o_r is None:
                stalled_at = r
                break
        try:
            eigsys = model.eigensystem_for(o_r)
        except (NotEstimableError, DataError):
            stalled_at = r
            break
        idx = np.nonzero(_estimable_rows(eigsys))[0]
        new = idx[~covered[idx]]
        if new.size == 0:
            stalled_at = r
            break
        covered[new] = True
        terms = _RowTerms(eigsys, model.mean, idx)
        steps.append(_Step(r, o_r, eigsys, new, np.searchsorted(idx, new), terms))
    covered.flags.writeable = False
    model._plan_cache[key] = tuple(steps), stalled_at, covered
    return model._plan_cache[key]


def iterative_reconstruct(
    curve: Curve,
    model: ReconstructionModel,
    method: str,
    plan: IterationPlan,
    k: int,
    quadrature: str = "riemann",
) -> ReconstructedCurve:
    """Successive reconstruction over overlapping subintervals.

    The first step reconstructs from the original observations over the
    region the estimability mask allows. Each later step treats the values
    reconstructed so far, restricted to a new subinterval, as a gridded
    pseudo-observation and extends the coverage; already covered points are
    never refit. Stops at full coverage, the step cap, or when no step
    enlarges the coverage (flagged as stalled).

    The later steps are planned once per first-step coverage and cached on
    the model: every curve reconstructed on it whose first step covers the
    same points shares their windows, eigensystems and anchor weights. A curve
    whose coverage no other curve shares pays for the whole planning.
    """
    if method not in ("ano", "anoce", "ayes", "ayesce"):
        raise UsageError(
            f"iterative reconstruction supports ano/anoce/ayes/ayesce, got {method!r}"
        )
    first = reconstruct_with_method(method, curve, model, k=k, quadrature=quadrature)
    values = first.values.copy()
    provenance = first.provenance.copy()
    steps, stalled_at, covered = _completion_plan(model, provenance >= 0, plan)
    for step in steps:
        # Conditional-expectation scores are meaningless for reconstructed
        # grid values, so later steps always use quadrature scores.
        on_sub = values[step.subdomain.grid_indices]
        xi = _grid_scores(on_sub, step.eigsys, model.mean)[: min(int(k), step.eigsys.k_available)]
        x = _edge_values(on_sub, step.eigsys) if method.startswith("ayes") else None
        values[step.new] = step.terms.expansion(xi, x)[step.pos]
        provenance[step.new] = step.r
    values[~covered] = np.nan
    provenance[~covered] = PROV_NON_ESTIMABLE
    diag = dict(first.diagnostics)
    steps_used = [step.subdomain.key() for step in steps]
    coverage = np.count_nonzero(covered) / covered.size
    diag.update({"steps": steps_used, "stalled_at": stalled_at, "coverage": coverage})
    if stalled_at:
        diag["warning"] = f"coverage stalled at r={stalled_at}"
    return ReconstructedCurve(
        curve.id, model.grid, values, provenance, first.k_used, f"{method}-iterative", None, diag
    )


def check_error_accumulation(
    dgp_config,
    method: str = "ano",
    seeds: int | Sequence[int] | None = None,
    band_halfwidth: float = 0.5,
    first_interval: tuple[float, float] = (0.0, 0.4),
    gamma_fn=None,
    sample_paths=None,
) -> dict:
    """Monte-Carlo check of the two-step error bound.

    Simulates centered paths of the configured process with its analytic
    covariance, reconstructs in two steps under a band-limited mask, and
    compares the mean squared two-step error against the sum of the two
    hypothetical one-step errors computed with full-information operators
    (full covariance, true values on the second interval). Reports the
    fraction of newly covered grid points where the empirical bound holds
    within two Monte-Carlo standard errors.

    ``gamma_fn`` and ``sample_paths(n_paths, seed, grid_points)`` override
    the process, for checking the bound on covariances richer than the
    benchmark generators.
    """
    from .simulation import dgp_covariance_function, dgp_shape_functions

    if method not in ("ano", "ayes"):
        raise UsageError("error-accumulation check supports 'ano' and 'ayes'")
    grid = DomainGrid.regular((0.0, 1.0), dgp_config.grid_size)
    gamma = gamma_fn if gamma_fn is not None else dgp_covariance_function(dgp_config.dgp)
    cov_full = CovarianceEstimate.from_function(grid, gamma)
    cov_band = CovarianceEstimate.from_function(grid, gamma, band_halfwidth=band_halfwidth)

    # The paths are known on the grid only, so every step is grid-aligned.
    o1 = Subdomain.from_indices(grid, Subdomain.from_interval(grid, *first_interval).grid_indices)
    eig1 = extrapolate_basis(eigen_on_subdomain(cov_band, o1), cov_band)
    covered1 = _estimable_rows(eig1)
    covered1[o1.grid_indices] = True
    if covered1.all():
        raise UsageError("band mask already covers everything; no second step to check")

    coverage_sub = Subdomain.from_indices(grid, np.nonzero(covered1)[0])
    o2 = choose_next_interval(coverage_sub, cov_band.mask, "greedy-band", step=2, grid=grid)
    if o2 is None:
        raise NotEstimableError("no feasible second-step interval under this band mask")
    eig2 = extrapolate_basis(eigen_on_subdomain(cov_band, o2), cov_band)
    new_idx = np.nonzero(_estimable_rows(eig2) & ~covered1)[0]
    if new_idx.size == 0:
        raise NotEstimableError("second step does not enlarge the coverage")

    eig1_full = extrapolate_basis(eigen_on_subdomain(cov_full, o1), cov_full)

    if seeds is None:
        seeds = dgp_config.seed
    if isinstance(seeds, (int, np.integer)):
        seed = int(seeds)
        n_paths = dgp_config.replications
    else:
        seed = int(list(seeds)[0])
        n_paths = len(list(seeds))
    if sample_paths is not None:
        paths = np.asarray(sample_paths(n_paths, seed, grid.points), dtype=float)
    else:
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=seed)))
        z = rng.standard_normal((n_paths, 2))
        f, g = dgp_shape_functions(dgp_config.dgp)
        paths = np.outer(z[:, 0], f(grid.points)) + np.outer(z[:, 1], g(grid.points))

    zero_mean = MeanEstimate.zero(grid)

    def step_values(eig, inputs_on_sub, eval_idx):
        xi = (inputs_on_sub * eig.weights) @ eig.eigenfunctions
        x = _edge_values(inputs_on_sub, eig) if method == "ayes" else None
        return _RowTerms(eig, zero_mean, eval_idx).expansion(xi, x)

    x_o1 = paths[:, o1.grid_indices]
    step1_idx = np.nonzero(covered1)[0]
    step1_vals = np.empty((n_paths, step1_idx.size))
    in_o1 = np.isin(step1_idx, o1.grid_indices)
    step1_vals[:, in_o1] = paths[:, step1_idx[in_o1]]
    step1_vals[:, ~in_o1] = step_values(eig1, x_o1, step1_idx[~in_o1])

    pos_o2 = np.searchsorted(step1_idx, o2.grid_indices)
    two_step = step_values(eig2, step1_vals[:, pos_o2], new_idx)
    one_step_o2 = step_values(eig2, paths[:, o2.grid_indices], new_idx)
    one_step_o1 = step_values(eig1_full, x_o1, new_idx)

    truth = paths[:, new_idx]
    d = (truth - two_step) ** 2 - (truth - one_step_o2) ** 2 - (truth - one_step_o1) ** 2
    mean_d = d.mean(axis=0)
    se_d = d.std(axis=0, ddof=1) / np.sqrt(n_paths)
    # relative slack keeps exactly reconstructable processes from failing on
    # floating-point dust
    scale = float(np.mean(truth**2)) + 1e-300
    holds = mean_d <= 2.0 * se_d + 1e-9 * scale
    return {
        "n_paths": int(n_paths),
        "n_points": int(new_idx.size),
        "fraction_holding": float(np.mean(holds)),
        "mean_two_step": float(np.mean((truth - two_step) ** 2)),
        "mean_one_step_o2": float(np.mean((truth - one_step_o2) ** 2)),
        "mean_one_step_o1": float(np.mean((truth - one_step_o1) ** 2)),
        "second_step_key": o2.key(),
        "holds": bool(np.mean(holds) >= 0.99),
    }
