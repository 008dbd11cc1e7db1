"""Tests for the iterative completion algorithm and the error-accumulation check."""

import numpy as np
import pytest

from fdrecon import (
    Bandwidths,
    CovarianceEstimate,
    Curve,
    IterationPlan,
    MeanEstimate,
    NoiseVariance,
    ReconstructionModel,
    Subdomain,
    UsageError,
    check_error_accumulation,
    choose_next_interval,
    iterative_reconstruct,
    reconstruct_with_method,
)
from fdrecon import iterative
from fdrecon.core import DomainGrid
from fdrecon.errors import DataError, NotEstimableError
from fdrecon.iterative import (
    _choose_next_rows,
    _edge_values,
    _estimable_rows,
    _grid_scores,
)
from fdrecon.reconstruct import (
    PROV_NON_ESTIMABLE,
    ReconstructedCurve,
    _anchor_weights,
    _expansion,
    _shifted,
    _tilted,
)
from fdrecon.simulation import DgpConfig


def band_model(band, grid_size=51, cov_fn=None):
    grid = DomainGrid.regular((0, 1), grid_size)
    fn = cov_fn or (lambda u, v: np.minimum(u, v) + 0.05)
    cov = CovarianceEstimate.from_function(grid, fn, band_halfwidth=band)
    return ReconstructionModel(
        MeanEstimate.zero(grid), cov, NoiseVariance(0.0), Bandwidths(0.1, 0.1, 0.1)
    )


def coverage_after_one_step(first_interval, band, grid_size=51):
    """Oracle for the one-step coverage under a band mask.

    A grid point is coverable when every covariance cell pairing it with the
    observed interval lies inside the band, i.e. its distance to the farthest
    observed point is at most the halfwidth.
    """
    grid = DomainGrid.regular((0, 1), grid_size)
    a, b = first_interval
    inside = (grid.points >= a - 1e-12) & (grid.points <= b + 1e-12)
    far = np.maximum(np.abs(grid.points - a), np.abs(grid.points - b))
    return inside | (far <= band + 1e-12)


def reference_rows(covered, mask):
    """The greedy-band window search as a loop over candidate windows.

    For each uncovered run, each covered run flush against it offers its
    windows that end (direction -1) or start (+1) at the frontier's
    neighbour, widest first. A window counts when its covariance square is
    estimable; it reaches the uncovered points whose covariance with the
    whole window is estimable. The first window to strictly improve on
    (n_new, size, frontier) wins.
    """
    L = mask.shape[0]
    best = None
    uncovered = np.nonzero(~covered)[0]
    runs = np.split(uncovered, np.nonzero(np.diff(uncovered) > 1)[0] + 1)
    for run in runs:
        for frontier, direction in ((run[0], -1), (run[-1], +1)):
            edge = frontier + direction
            if edge < 0 or edge >= L or not covered[edge]:
                continue
            stop = edge
            while 0 <= stop + direction < L and covered[stop + direction]:
                stop += direction
            lo, hi = (stop, edge) if direction == -1 else (edge, stop)
            for c in range(lo, hi):
                w = np.arange(c, hi + 1) if direction == -1 else np.arange(lo, hi + 1 - (c - lo))
                if w.size < 2 or not np.all(mask[np.ix_(w, w)]):
                    continue
                n_new = int(np.all(mask[np.ix_(uncovered, w)], axis=1).sum())
                if n_new == 0:
                    continue
                if best is None or (n_new, w.size, frontier) > best[:3]:
                    best = (n_new, w.size, frontier, w)
    return None if best is None else best[3]


def chosen_rows(covered, mask):
    """The window _choose_next_rows picks, checked against the reference loop."""
    covered = np.asarray(covered, dtype=bool)
    got = _choose_next_rows(covered, mask, "greedy-band", 2)
    want = reference_rows(covered, mask)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
    return got


def brownian_paths(n_paths, seed, grid_points):
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n_paths, grid_points.size - 1))
    steps *= np.sqrt(np.diff(grid_points))
    return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)


def reference_chooser(covered, mask, strategy, step):
    assert strategy == "greedy-band"
    return reference_rows(covered, mask)


def reference_from_grid(values_on_sub, eigsys, model, method, k):
    k_use = min(int(k), eigsys.k_available)
    xi = _grid_scores(values_on_sub, eigsys, model.mean)[:k_use]
    idx = np.nonzero(_estimable_rows(eigsys))[0]
    mean_u, basis_u = model.mean.values[idx], eigsys.extrapolated[idx, :k_use]
    if method.startswith("ayes"):
        weights = _anchor_weights(eigsys.subdomain.intervals, model.grid.points[idx])
        x = _edge_values(values_on_sub, eigsys)
        mean_u = _shifted(mean_u, weights, model.mean.at(np.ravel(eigsys.subdomain.intervals)), x, True)
        basis_u = _tilted(basis_u, weights, eigsys.end_values[:, :k_use], True)
    return _expansion(mean_u, basis_u, xi), idx


def reference_iterative(curve, model, method, plan, k, quadrature="riemann"):
    """The completion as a step loop that plans every later step per curve."""
    grid = model.grid
    first = reconstruct_with_method(method, curve, model, k=k, quadrature=quadrature)
    values = first.values.copy()
    provenance = first.provenance.copy()
    covered = provenance >= 0
    steps_used = []
    stalled_at = 0
    r = 1
    while r < plan.r_max and not covered.all():
        r += 1
        if plan.steps is not None:
            if r - 2 >= len(plan.steps):
                break
            o_r = Subdomain.from_indices(grid, plan.steps[r - 2].grid_indices)
            if not np.all(covered[o_r.grid_indices]):
                raise UsageError(f"step {r} subdomain is not inside the current coverage")
        else:
            rows = _choose_next_rows(covered, model.cov.mask, plan.strategy, r)
            if rows is None:
                stalled_at = r
                break
            o_r = Subdomain.from_indices(grid, rows)
        try:
            eigsys = model.eigensystem_for(o_r)
        except (NotEstimableError, DataError):
            stalled_at = r
            break
        vals, idx = reference_from_grid(values[o_r.grid_indices], eigsys, model, method, k)
        new = idx[~covered[idx]]
        if new.size == 0:
            stalled_at = r
            break
        pos = np.searchsorted(idx, new)
        values[new] = vals[pos]
        provenance[new] = r
        covered[new] = True
        steps_used.append(o_r.key())
    values[~covered] = np.nan
    provenance[~covered] = PROV_NON_ESTIMABLE
    diag = dict(first.diagnostics)
    diag.update({"steps": steps_used, "stalled_at": stalled_at, "coverage": float(covered.mean())})
    if stalled_at:
        diag["warning"] = f"coverage stalled at r={stalled_at}"
    return ReconstructedCurve(
        curve.id, grid, values, provenance, first.k_used, f"{method}-iterative", None, diag
    )


def masked_model(mask):
    """min(u, v) + 0.05 under an arbitrary estimability mask, with a curved mean."""
    grid = DomainGrid.regular((0, 1), mask.shape[0])
    uu, vv = np.meshgrid(grid.points, grid.points, indexing="ij")
    cov = CovarianceEstimate(grid, np.where(mask, np.minimum(uu, vv) + 0.05, np.nan), mask, 0.1)
    mean = MeanEstimate.from_function(grid, lambda u: 1.0 + 0.5 * np.sin(2 * np.pi * u))
    return ReconstructionModel(mean, cov, NoiseVariance(0.0), Bandwidths(0.1, 0.1, 0.1))


def band_mask(halfwidth, size=51):
    g = np.linspace(0.0, 1.0, size)
    return np.abs(g[:, None] - g[None, :]) <= halfwidth + 1e-12


def fragment(grid, a, b, seed, on_grid=True):
    """A Brownian-like curve seen on [a, b], at the grid points or at 15 random points."""
    rng = np.random.default_rng(seed)
    if on_grid:
        u = grid.points[(grid.points >= a - 1e-12) & (grid.points <= b + 1e-12)]
    else:
        u = np.sort(rng.uniform(a, b, 15))
    y = 1.0 + np.cumsum(rng.normal(size=u.size)) * 0.1 + np.sin(3 * u)
    return Curve(f"c{seed}", u, y)


def _block_mask():
    mask = np.zeros((51, 51), bool)
    mask[:31, :31] = mask[31:, 31:] = True
    return mask


def _holed_band():
    mask = band_mask(0.5)
    mask[17, 25] = mask[25, 17] = False
    return mask


# name: (mask, curves as (a, b, seed, on_grid), plan on the grid, the set of
# (stalled_at, number of later steps) the curves end with)
ORACLE_CASES = {
    "greedy-band": (
        band_mask(0.3),
        [(0.3, 0.5, 1, True), (0.3, 0.5, 2, True), (0.0, 0.3, 3, True), (0.52, 0.78, 4, False)],
        lambda grid: IterationPlan(r_max=8, strategy="greedy-band"),
        {(0, 3)},
    ),
    "app3": (
        band_mask(0.5),
        [(0.0, 0.4, 1, True), (0.0, 0.4, 2, True), (0.5, 0.9, 3, True)],
        lambda grid: IterationPlan(r_max=5, strategy="app3"),
        {(3, 1), (2, 0)},
    ),
    "explicit": (
        band_mask(0.5),
        [(0.0, 0.4, 1, True), (0.0, 0.4, 2, True)],
        lambda grid: IterationPlan(
            steps=(Subdomain.from_interval(grid, 0.105, 0.5), Subdomain.from_interval(grid, 0.3, 0.6)),
            r_max=5,
        ),
        {(0, 2)},
    ),
    "r_max=1": (band_mask(0.5), [(0.0, 0.4, 1, True)], lambda grid: IterationPlan(r_max=1), {(0, 0)}),
    "no feasible window": (
        _block_mask(), [(0.0, 0.4, 1, True), (0.0, 0.4, 2, True)],
        lambda grid: IterationPlan(r_max=5), {(2, 0)},
    ),
    "non-estimable eigensystem": (
        _holed_band(), [(0.0, 0.2, 1, True), (0.0, 0.2, 2, True)],
        lambda grid: IterationPlan(steps=(Subdomain.from_interval(grid, 0.3, 0.5),), r_max=5),
        {(2, 0)},
    ),
}


class TestPlanOracle:
    """Cached completion plans against the step loop that plans every curve."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_equal_to_step_loop(self, case):
        mask, intervals, make_plan, outcomes = ORACLE_CASES[case]
        model, ref_model = masked_model(mask), masked_model(mask)
        plan = make_plan(model.grid)
        curves = [fragment(model.grid, *spec) for spec in intervals]
        seen = set()
        for k in (1, 2, 3):
            for method in ("ano", "ayes", "anoce", "ayesce"):
                for curve in curves:
                    got = iterative_reconstruct(curve, model, method, plan, k, quadrature="trapezoid")
                    want = reference_iterative(curve, ref_model, method, plan, k, quadrature="trapezoid")
                    assert np.array_equal(got.values, want.values, equal_nan=True)
                    assert np.array_equal(got.provenance, want.provenance)
                    assert got.diagnostics == want.diagnostics
                    assert (got.method, got.k_used) == (want.method, want.k_used)
                    seen.add((got.diagnostics["stalled_at"], len(got.diagnostics["steps"])))
        assert seen == outcomes


class TestPlanCache:
    def _count_searches(self, monkeypatch):
        calls = []
        search = iterative.choose_next_interval

        def counted(*args, **kwargs):
            calls.append(args[3])
            return search(*args, **kwargs)

        monkeypatch.setattr(iterative, "choose_next_interval", counted)
        return calls

    def test_equal_coverage_searches_once_per_model(self, monkeypatch):
        calls = self._count_searches(monkeypatch)
        mask = band_mask(0.3)
        model = masked_model(mask)
        plan = IterationPlan(r_max=8)
        a, b = (fragment(model.grid, 0.3, 0.5, seed) for seed in (1, 2))
        first = iterative_reconstruct(a, model, "ayes", plan, 2)
        n_search = len(calls)
        assert n_search >= 2 and calls == list(range(2, 2 + n_search))
        second = iterative_reconstruct(b, model, "ano", plan, 2)
        assert len(calls) == n_search
        assert first.diagnostics["steps"] == second.diagnostics["steps"]
        assert not np.array_equal(first.values, second.values)
        iterative_reconstruct(b, masked_model(mask), "ano", plan, 2)
        assert len(calls) == 2 * n_search

    def test_mask_table_built_once_per_plan(self, monkeypatch):
        # Every window search of a plan reads the mask's prefix-sum table;
        # it is built at the first and looked up at the others.
        calls = self._count_searches(monkeypatch)
        iterative._bad_cell_sums.cache_clear()
        model = masked_model(band_mask(0.3))
        iterative_reconstruct(fragment(model.grid, 0.3, 0.5, 1), model, "ayes", IterationPlan(r_max=8), 2)
        info = iterative._bad_cell_sums.cache_info()
        assert len(calls) >= 2
        assert (info.misses, info.hits) == (1, len(calls) - 1)

    def test_plan_key_separates_plans(self):
        # One curve, one model, five plans: each gets its own cached plan.
        model = masked_model(band_mask(0.3))
        grid = model.grid
        curve = fragment(grid, 0.3, 0.5, 1)
        plans = [IterationPlan(r_max=8), IterationPlan(r_max=3), IterationPlan(r_max=8, strategy="app3")]
        plans += [
            IterationPlan(steps=(Subdomain.from_interval(grid, a, b),), r_max=8)
            for a, b in ((0.3, 0.5), (0.4, 0.6))
        ]
        for plan in plans:
            got = iterative_reconstruct(curve, model, "ano", plan, 1)
            want = reference_iterative(curve, masked_model(band_mask(0.3)), "ano", plan, 1)
            assert np.array_equal(got.values, want.values, equal_nan=True)
            assert got.diagnostics == want.diagnostics
        assert len(model._plan_cache) == len(plans)

    def test_cached_plan_is_read_only(self):
        model = masked_model(band_mask(0.3))
        curve = fragment(model.grid, 0.3, 0.5, 1)
        iterative_reconstruct(curve, model, "ayes", IterationPlan(r_max=8), 2)
        ((_, _, covered),) = model._plan_cache.values()
        with pytest.raises(ValueError):
            covered[0] = False


class TestWindowSearchOracle:
    def test_random_band_masks_with_holes(self):
        rng = np.random.default_rng(8)
        outcomes = set()
        for _ in range(400):
            L = int(rng.integers(4, 60))
            g = np.arange(L)
            mask = np.abs(g[:, None] - g[None, :]) <= rng.integers(1, L)
            for _ in range(rng.integers(0, 4)):
                i, j = rng.integers(0, L, 2)
                mask[i, j] = mask[j, i] = False
            covered = rng.random(L) < rng.uniform(0.1, 0.9)
            if covered.all():
                continue
            outcomes.add(chosen_rows(covered, mask) is None)
        assert outcomes == {True, False}

    def test_one_point_gap_tie_goes_to_the_window_before_it(self):
        rows = chosen_rows([1, 1, 1, 0, 1, 1, 1], np.ones((7, 7), bool))
        assert rows.tolist() == [0, 1, 2]

    def test_equal_reach_prefers_the_wider_window(self):
        # Both windows reach both gap points; the wider one wins although
        # the narrower one faces the rightmost frontier.
        rows = chosen_rows([1, 1, 1, 1, 0, 0, 1, 1], np.ones((8, 8), bool))
        assert rows.tolist() == [0, 1, 2, 3]

    def test_equal_reach_and_size_prefers_the_rightmost_frontier(self):
        rows = chosen_rows([1, 1, 0, 0, 1, 1], np.ones((6, 6), bool))
        assert rows.tolist() == [4, 5]

    def test_reach_beats_size(self):
        # Under a band of halfwidth 3, [1, 4] reaches no gap point, [2, 4]
        # reaches point 5 and [3, 4] reaches points 5 and 6.
        g = np.arange(8)
        mask = np.abs(g[:, None] - g[None, :]) <= 3
        rows = chosen_rows([1, 1, 1, 1, 1, 0, 0, 0], mask)
        assert rows.tolist() == [3, 4]

    def test_no_feasible_window(self):
        # Only the diagonal is estimable: no square of two points is.
        assert chosen_rows([1, 1, 0, 0, 1], np.eye(5, dtype=bool)) is None
        # Squares are estimable but reach nothing uncovered.
        mask = np.zeros((6, 6), bool)
        mask[:3, :3] = mask[3:, 3:] = True
        assert chosen_rows([1, 1, 1, 0, 0, 0], mask) is None

    def test_no_covered_point_has_no_window(self):
        assert chosen_rows([0, 0, 0, 0], np.ones((4, 4), bool)) is None

    @pytest.mark.parametrize("method", ["ano", "ayes"])
    def test_iterative_reconstruct_unchanged(self, monkeypatch, method):
        # Each run gets its own model: a shared one would serve the second
        # run the first run's cached plan, without a window search.
        grid = band_model(band=0.3).grid
        rng = np.random.default_rng(2)
        path = np.concatenate([[1.0], 1.0 + np.cumsum(rng.normal(size=grid.size - 1) * 0.1)])
        inside = (grid.points >= 0.3 - 1e-12) & (grid.points <= 0.5 + 1e-12)
        curve = Curve("bm", grid.points[inside], path[inside])
        plan = IterationPlan(r_max=8, strategy="greedy-band")
        got = iterative_reconstruct(curve, band_model(band=0.3), method, plan, k=2, quadrature="trapezoid")
        assert len(got.diagnostics["steps"]) >= 2
        monkeypatch.setattr(iterative, "_choose_next_rows", reference_chooser)
        want = iterative_reconstruct(curve, band_model(band=0.3), method, plan, k=2, quadrature="trapezoid")
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert np.array_equal(got.provenance, want.provenance)
        assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("method", ["ano", "ayes"])
    def test_error_accumulation_unchanged(self, monkeypatch, method):
        # The criterion-8 set-up; the check chooses its second step through
        # choose_next_interval.
        cfg = DgpConfig(dgp=1, n=10, m=15, seed=7, replications=500)
        kwargs = dict(method=method, band_halfwidth=0.5,
                      gamma_fn=lambda u, v: np.minimum(u, v), sample_paths=brownian_paths)
        got = check_error_accumulation(cfg, **kwargs)
        monkeypatch.setattr(iterative, "_choose_next_rows", reference_chooser)
        assert check_error_accumulation(cfg, **kwargs) == got


class TestChooseNextInterval:
    def test_greedy_band_matches_geometry(self):
        grid = DomainGrid.regular((0, 1), 51)
        mask = np.abs(grid.points[:, None] - grid.points[None, :]) <= 0.5 + 1e-12
        cov_sub = Subdomain.from_indices(grid, np.nonzero(grid.points <= 0.9 + 1e-12)[0])
        nxt = choose_next_interval(cov_sub, mask, "greedy-band", step=2, grid=grid)
        assert nxt.intervals[0] == pytest.approx((0.5, 0.9))

    def test_complete_coverage_rejected(self):
        grid = DomainGrid.regular((0, 1), 21)
        mask = np.ones((21, 21), bool)
        full = Subdomain.from_indices(grid, np.arange(21))
        with pytest.raises(UsageError):
            choose_next_interval(full, mask, "greedy-band", grid=grid)

    def test_app3_halving(self):
        grid = DomainGrid.regular((0, 1), 51)
        mask = np.ones((51, 51), bool)
        cov_sub = Subdomain.from_interval(grid, 0.1, 0.9)
        upper = choose_next_interval(cov_sub, mask, "app3", step=2, grid=grid)
        lower = choose_next_interval(cov_sub, mask, "app3", step=3, grid=grid)
        assert upper.intervals[0] == pytest.approx((0.5, 0.9))
        assert lower.intervals[0] == pytest.approx((0.1, 0.5))
        assert choose_next_interval(cov_sub, mask, "app3", step=4, grid=grid) is None

    def test_no_extension_returns_none(self):
        grid = DomainGrid.regular((0, 1), 21)
        # mask allows nothing beyond the coverage rows
        mask = np.zeros((21, 21), bool)
        cov = Subdomain.from_indices(grid, np.arange(10))
        mask[np.ix_(np.arange(10), np.arange(10))] = True
        assert choose_next_interval(cov, mask, "greedy-band", grid=grid) is None


class TestIterativeReconstruct:
    def _bm_curve(self, grid, upто=0.4, seed=1):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=grid.size - 1) * np.sqrt(grid.delta)
        path = np.concatenate([[0.0], np.cumsum(steps)]) + 1.0
        inside = grid.points <= upто + 1e-12
        return Curve("bm", grid.points[inside], path[inside])

    def test_full_mask_degenerates_to_single_step(self):
        model = band_model(band=None)
        grid = model.grid
        curve = self._bm_curve(grid)
        plan = IterationPlan(r_max=5, strategy="greedy-band")
        it = iterative_reconstruct(curve, model, "ano", plan, k=10, quadrature="trapezoid")
        one = reconstruct_with_method("ano", curve, model, k=10, quadrature="trapezoid")
        assert np.allclose(it.values, one.values, equal_nan=True)
        assert it.diagnostics["steps"] == []

    def test_band_mask_two_then_full_coverage(self):
        # Oracle: geometric mask arithmetic. From [0, 0.4] under halfwidth
        # 0.5 the one-step coverage is [0, 0.5]; later steps must reach 1.0.
        model = band_model(band=0.5)
        grid = model.grid
        curve = self._bm_curve(grid)
        one = reconstruct_with_method("ano", curve, model, k=8, quadrature="trapezoid")
        expected_cov = coverage_after_one_step((0.0, 0.4), 0.5)
        assert np.array_equal(one.provenance >= 0, expected_cov)

        plan = IterationPlan(r_max=6, strategy="greedy-band")
        it = iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        assert it.diagnostics["coverage"] == 1.0
        assert np.all(np.isfinite(it.values))

    def test_rmax_one_leaves_tail_tagged(self):
        model = band_model(band=0.5)
        grid = model.grid
        curve = self._bm_curve(grid)
        plan = IterationPlan(r_max=1)
        it = iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        expected_cov = coverage_after_one_step((0.0, 0.4), 0.5)
        assert np.array_equal(it.provenance >= 0, expected_cov)
        assert np.all(np.isnan(it.values[~expected_cov]))

    def test_step_one_values_never_change(self):
        model = band_model(band=0.5)
        grid = model.grid
        curve = self._bm_curve(grid)
        one = reconstruct_with_method("ayes", curve, model, k=8, quadrature="trapezoid")
        plan = IterationPlan(r_max=6, strategy="greedy-band")
        it = iterative_reconstruct(curve, model, "ayes", plan, k=8, quadrature="trapezoid")
        step1 = one.provenance >= 0
        assert np.allclose(it.values[step1], one.values[step1])

    def test_coverage_monotone_in_provenance(self):
        model = band_model(band=0.5)
        curve = self._bm_curve(model.grid)
        plan = IterationPlan(r_max=6, strategy="greedy-band")
        it = iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        # later iterations only appear beyond earlier coverage
        prov = it.provenance
        assert set(np.unique(prov)) <= {0, 1, 2, 3, 4, 5, 6}

    def test_determinism(self):
        model = band_model(band=0.5)
        curve = self._bm_curve(model.grid)
        plan = IterationPlan(r_max=6, strategy="greedy-band")
        a = iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        b = iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.provenance, b.provenance)

    def test_explicit_steps_validated(self):
        # Errors are not cached: the second call raises too.
        model = band_model(band=0.5)
        grid = model.grid
        curve = self._bm_curve(grid)
        outside = Subdomain.from_interval(grid, 0.8, 1.0)
        plan = IterationPlan(steps=(outside,), r_max=3)
        for _ in range(2):
            with pytest.raises(UsageError, match="coverage"):
                iterative_reconstruct(curve, model, "ano", plan, k=8, quadrature="trapezoid")
        assert model._plan_cache == {}

    def test_ce_method_uses_quadrature_on_later_steps(self):
        # anoce is allowed; later steps silently use quadrature scores.
        model = band_model(band=0.5)
        curve = self._bm_curve(model.grid)
        plan = IterationPlan(r_max=6, strategy="greedy-band")
        it = iterative_reconstruct(curve, model, "anoce", plan, k=8, quadrature="trapezoid")
        assert it.diagnostics["coverage"] == 1.0


class TestErrorAccumulation:
    def test_rank2_bound_holds_trivially(self):
        cfg = DgpConfig(dgp=1, n=10, m=15, seed=3, replications=200)
        report = check_error_accumulation(cfg, method="ano", band_halfwidth=0.5)
        assert report["holds"]
        assert report["mean_two_step"] < 1e-10

    def test_brownian_bound_monte_carlo(self):
        # Infinite-rank paths: the two-step error is genuinely positive and
        # stays below the sum of the hypothetical one-step errors.
        def sample(n_paths, seed, grid_points):
            rng = np.random.default_rng(seed)
            steps = rng.normal(size=(n_paths, grid_points.size - 1))
            steps *= np.sqrt(np.diff(grid_points))
            return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)

        cfg = DgpConfig(dgp=1, n=10, m=15, seed=7, replications=500)
        report = check_error_accumulation(
            cfg,
            method="ano",
            band_halfwidth=0.5,
            gamma_fn=lambda u, v: np.minimum(u, v),
            sample_paths=sample,
        )
        assert report["mean_two_step"] > 1e-6
        assert report["fraction_holding"] >= 0.99

    def test_one_step_reachable_points_trivial(self):
        # Points inside the first-step coverage keep their first-step values,
        # so the two-step error equals the one-step error there by
        # construction; the reported set only contains genuinely new points.
        cfg = DgpConfig(dgp=1, n=10, m=15, seed=3, replications=50)
        report = check_error_accumulation(cfg, method="ano", band_halfwidth=0.5)
        assert report["n_points"] >= 1
        grid = DomainGrid.regular((0, 1), cfg.grid_size)
        one_step = coverage_after_one_step((0.0, 0.4), 0.5)
        new_pts = np.array(
            [abs(grid.points - g).argmin() for g in np.atleast_1d(report.get("grid_points", []))]
        )
        # backwards-compatible: report may omit grid points
        if new_pts.size:
            assert not np.any(one_step[new_pts])
