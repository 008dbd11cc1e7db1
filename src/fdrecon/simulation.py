"""Synthetic data generators, the Monte-Carlo study driver and MSE/Bias2/Var tables."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Curve, DomainGrid, FunctionalDataset, build_dataset
from .errors import FdreconError, StudyError, UsageError
from .reconstruct import (
    METHODS,
    _chosen,
    curve_subdomain,
    fit_reconstruction_model,
    reconstruct_with_method,
    select_gcv,
)
from .smoothing import Bandwidths

N_BASIS_TERMS = 50
NOISE_VARIANCES = {1: 0.0125, 2: 0.125, 3: 0.0, 4: 0.0}
OBSERVATION_LATTICE_SIZE = 51
# Share of a method's (target, replication) pairs that may fail before a study aborts.
FAILURE_BUDGET = 0.05
DEFAULT_METHODS = {
    1: ("ayesce", "ayes", "anoce", "ano", "pace"),
    2: ("ayesce", "ayes", "anoce", "ano", "pace"),
    3: ("ayes", "pace", "ano", "kraus"),
    4: ("ayes", "ano", "kraus", "pace"),
}

# Stream tags keep sample, target and noise draws on separate counter-based
# generators so processes sharing a seed share everything but the noise.
_TAG_SAMPLE, _TAG_TARGET = 1, 2
_PURPOSE_FRAGMENT, _PURPOSE_SCORES, _PURPOSE_POINTS, _PURPOSE_NOISE = 0, 1, 2, 3


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of one synthetic benchmark."""

    dgp: int
    n: int
    m: int | None = None
    seed: int = 1
    replications: int = 100
    n_targets: int = 50
    grid_size: int = 51

    def __post_init__(self):
        if self.dgp not in (1, 2, 3, 4):
            raise UsageError(f"dgp must be 1..4, got {self.dgp}")
        if self.n < 2:
            raise UsageError("n must be at least 2")
        if self.replications < 1:
            raise UsageError("replications must be at least 1")
        if self.dgp in (1, 2) and (self.m is None or self.m < 2):
            raise UsageError("dgp 1 and 2 need m >= 2 observation points per curve")
        if self.n_targets < 1:
            raise UsageError("n_targets must be at least 1")

    def as_dict(self) -> dict:
        return {
            "dgp": self.dgp,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "replications": self.replications,
            "n_targets": self.n_targets,
            "grid_size": self.grid_size,
        }


@dataclass(frozen=True)
class TargetSet:
    """Fixed reconstruction targets: observed fragments plus the true curves on the grid."""

    curves: tuple[Curve, ...]
    truth: np.ndarray
    grid: DomainGrid


@dataclass(frozen=True)
class StudyReport:
    """Per-method rows of MSE_ratio, MSE, Bias2 and Var, ranked by the ratio."""

    rows: tuple[dict, ...]
    metadata: dict = field(default_factory=dict)

    def to_csv_lines(self, header_comment: str | None = None) -> list[str]:
        lines = []
        if header_comment:
            lines.append("# " + header_comment)
        lines.append("Method,MSE_ratio,MSE,Bias2,Var")
        for row in self.rows:
            lines.append(
                f"{row['method']},{row['mse_ratio']!r},{row['mse']!r},"
                f"{row['bias2']!r},{row['var']!r}"
            )
        return lines

    def write_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_csv_lines(header_comment)) + "\n")

    def row(self, method: str) -> dict:
        for r in self.rows:
            if r["method"] == method:
                return r
        raise KeyError(method)


def dgp_mean_function(dgp: int) -> Callable:
    if dgp in (1, 2):
        return lambda u: u + np.sin(2 * np.pi * u)
    return lambda u: u**2 + np.sin(2 * np.pi * u)


def dgp_basis_weights(dgp: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency weights of the two random directions of the process.

    Each curve is mean plus two random shapes: a cosine mixture scaled by one
    standard normal and a sine mixture scaled by another, with mixture
    weights sqrt(50*exp(-(k-1)^2/5)), sqrt(50*exp(-k^2/5)) (and an extra
    1/sqrt(5) on the basis) for the irregular designs, and
    sqrt(50*exp(-(k-1)^2)), sqrt(50*exp(-k^2)) for the gridded ones.
    """
    k = np.arange(1, N_BASIS_TERMS + 1, dtype=float)
    if dgp in (1, 2):
        s1 = np.sqrt(50.0 * np.exp(-((k - 1) ** 2) / 5.0)) / np.sqrt(5.0)
        s2 = np.sqrt(50.0 * np.exp(-(k**2) / 5.0)) / np.sqrt(5.0)
    else:
        s1 = np.sqrt(50.0 * np.exp(-((k - 1) ** 2)))
        s2 = np.sqrt(50.0 * np.exp(-(k**2)))
    return s1, s2


def dgp_shape_functions(dgp: int) -> tuple[Callable, Callable]:
    """The two deterministic shapes whose random mixture drives each curve."""
    s1, s2 = dgp_basis_weights(dgp)
    k = np.arange(1, N_BASIS_TERMS + 1, dtype=float)

    def f(u):
        return np.cos(np.multiply.outer(np.asarray(u, float), k * np.pi)) @ s1

    def g(u):
        return np.sin(np.multiply.outer(np.asarray(u, float), k * np.pi)) @ s2

    return f, g


def dgp_covariance_function(dgp: int) -> Callable:
    """Analytic covariance of the centered process: f(u)f(v) + g(u)g(v)."""
    f, g = dgp_shape_functions(dgp)

    def gamma(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return f(u) * f(v) + g(u) * g(v)

    return gamma


def _process_values(u: np.ndarray, z1: float, z2: float, dgp: int) -> np.ndarray:
    f, g = dgp_shape_functions(dgp)
    u = np.asarray(u, dtype=float)
    return dgp_mean_function(dgp)(u) + z1 * f(u) + z2 * g(u)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _draw_fragment(rng: np.random.Generator, dgp: int, force_partial: bool) -> tuple[float, float]:
    b = rng.random()
    if dgp in (1, 2):
        a_draw = rng.uniform(0.0, 0.45)
        b_draw = rng.uniform(0.55, 1.0)
        partial = force_partial or b < 0.5
    elif dgp == 3:
        a_draw = rng.uniform(0.0, 1.0 / 3.0)
        b_draw = a_draw + 0.5
        partial = force_partial or b < 0.75
    else:
        a_draw = rng.uniform(0.0, 2.0 / 3.0)
        b_draw = a_draw + 1.0 / 3.0
        partial = force_partial or b < 0.75
    return (a_draw, b_draw) if partial else (0.0, 1.0)


def _draw_curve(
    config: DgpConfig, tag: int, index: int, curve_id: str, force_partial: bool
) -> tuple[Curve, np.ndarray, np.ndarray, tuple[float, float]]:
    dgp, seed = config.dgp, config.seed
    frag_rng = _stream(seed, tag, index, _PURPOSE_FRAGMENT)
    lo, hi = _draw_fragment(frag_rng, dgp, force_partial)
    score_rng = _stream(seed, tag, index, _PURPOSE_SCORES)
    z1 = float(score_rng.standard_normal())
    z2 = float(score_rng.standard_normal())
    if dgp in (1, 2):
        points_rng = _stream(seed, tag, index, _PURPOSE_POINTS)
        u = np.sort(points_rng.uniform(lo, hi, config.m))
        noise_rng = _stream(seed, tag, index, _PURPOSE_NOISE)
        eps = np.sqrt(NOISE_VARIANCES[dgp]) * noise_rng.standard_normal(config.m)
    else:
        lattice = np.arange(1, OBSERVATION_LATTICE_SIZE + 1) / OBSERVATION_LATTICE_SIZE
        u = lattice[(lattice >= lo) & (lattice <= hi)]
        eps = 0.0
    y = _process_values(u, z1, z2, dgp) + eps
    return Curve(curve_id, u, y), z1, z2, (lo, hi)


def generate_dgp(config: DgpConfig, replication_index: int) -> tuple[FunctionalDataset, TargetSet]:
    """One estimation sample plus the fixed target curves.

    The sample depends on the replication index; the targets are seeded
    independently of it, so every replication reconstructs the same 50
    targets. Target fragments always take the partially observed branch.
    """
    grid = DomainGrid.regular((0.0, 1.0), config.grid_size)
    curves = []
    for i in range(config.n):
        c, *_ = _draw_curve(
            config, _TAG_SAMPLE, replication_index * config.n + i, f"c{i:04d}", False
        )
        curves.append(c)
    dataset = build_dataset(curves, domain=(0.0, 1.0), grid_size=config.grid_size)

    t_curves = []
    truth = np.empty((config.n_targets, grid.size))
    for t in range(config.n_targets):
        c, z1, z2, _ = _draw_curve(config, _TAG_TARGET, t, f"t{t:03d}", True)
        t_curves.append(c)
        truth[t] = _process_values(grid.points, z1, z2, config.dgp)
    return dataset, TargetSet(tuple(t_curves), truth, grid)


def _reconstruct_rep(
    config: DgpConfig,
    rep: int,
    methods: Sequence[str],
    bandwidths: Bandwidths | None,
    quadrature: str,
    margin_fraction: float,
) -> tuple[dict, dict, np.ndarray]:
    """All target reconstructions of one replication: method -> (n_targets, L) values.

    Also returns the failures per method and the targets' true values on the grid.
    """
    dataset, targets = generate_dgp(config, rep)
    grid = targets.grid
    out = {m: np.full((config.n_targets, grid.size), np.nan) for m in methods}
    failures: dict[str, list[str]] = {m: [] for m in methods}
    try:
        model = fit_reconstruction_model(dataset, bandwidths=bandwidths)
    except FdreconError as exc:
        for m in methods:
            failures[m] = [f"rep {rep}: model fit failed: {exc}"] * config.n_targets
        return out, failures, targets.truth

    # One GCV call tunes every method for every target.
    observed = [curve_subdomain(curve, grid) for curve in targets.curves]
    selection = select_gcv(
        methods, model, dataset, observed, margin_fraction=margin_fraction, quadrature=quadrature
    )
    for t, (curve, tunings) in enumerate(zip(targets.curves, selection)):
        for m in methods:
            try:
                selected = _chosen(tunings[m])
                if m == "kraus":
                    rec = reconstruct_with_method(m, curve, model, rho=selected[0], dataset=dataset)
                else:
                    rec = reconstruct_with_method(
                        m, curve, model, k=selected[0], quadrature=quadrature
                    )
                if not np.all(np.isfinite(rec.values)):
                    raise StudyError(f"non-estimable grid points in {m} reconstruction")
                out[m][t] = rec.values
            except FdreconError as exc:
                failures[m].append(f"rep {rep} target {t}: {exc}")
    return out, failures, targets.truth


def run_study(
    config: DgpConfig,
    methods: Sequence[str] | None = None,
    bandwidths: Bandwidths | None = None,
    quadrature: str = "riemann",
    threads: int = 1,
    margin_fraction: float = 0.1,
) -> StudyReport:
    """Monte-Carlo comparison of the reconstruction methods on one benchmark.

    Every replication draws a fresh estimation sample, fits the model and
    reconstructs the fixed targets with each method using its GCV-selected
    tuning. Integrated squared bias, variance and their sum are accumulated
    across replications, averaged over targets and ranked by the MSE ratio.
    A method failing on more than ``FAILURE_BUDGET`` of its (target,
    replication) pairs aborts the study; isolated failures are dropped from
    the averages and counted in the metadata.
    """
    if methods is None:
        methods = DEFAULT_METHODS[config.dgp]
    methods = [m.lower() for m in methods]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    if len(set(methods)) != len(methods):
        raise UsageError("duplicate method names")

    t0 = time.time()
    grid = DomainGrid.regular((0.0, 1.0), config.grid_size)

    def worker(rep: int):
        return _reconstruct_rep(config, rep, methods, bandwidths, quadrature, margin_fraction)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(config.replications)))
    else:
        results = [worker(rep) for rep in range(config.replications)]

    # Fixed-order reduction keeps the report independent of thread scheduling.
    # The targets do not depend on the replication, so neither does their truth.
    truth = results[0][2]
    failures = {m: [f for _, fails, _ in results for f in fails[m]] for m in methods}

    n_attempts = config.replications * config.n_targets
    for m in methods:
        if len(failures[m]) > FAILURE_BUDGET * n_attempts:
            raise StudyError(
                f"method {m!r} failed on {len(failures[m])}/{n_attempts} target-replication "
                "pairs",
                diagnostics={"examples": failures[m][:10]},
            )

    rows = []
    for m in methods:
        # Replications x targets x grid; a target's failed replications count as zeros
        # in the sums and stay out of its count.
        vals = np.stack([res[0][m] for res in results])
        ok = np.all(np.isfinite(vals), axis=2)
        counts = ok.sum(axis=0)
        valid = counts > 0
        if not np.any(valid):
            raise StudyError(f"method {m!r} produced no valid reconstruction")
        cnt = counts[valid][:, None].astype(float)
        ok, vals = ok[:, valid, None], vals[:, valid]
        mean_vals = np.where(ok, vals, 0.0).sum(axis=0) / cnt
        # Squared deviations about the mean (a second pass) do not cancel the
        # way E[x^2] - E[x]^2 does.
        var_pts = np.where(ok, (vals - mean_vals) ** 2, 0.0).sum(axis=0) / cnt
        bias2_l = np.trapezoid((mean_vals - truth[valid]) ** 2, grid.points, axis=1)
        var_l = np.trapezoid(var_pts, grid.points, axis=1)
        bias2 = float(np.mean(bias2_l))
        var = float(np.mean(var_l))
        rows.append({"method": m, "mse": bias2 + var, "bias2": bias2, "var": var})

    min_mse = min(r["mse"] for r in rows)
    for r in rows:
        r["mse_ratio"] = r["mse"] / min_mse
    rows.sort(key=lambda r: (r["mse_ratio"], r["method"]))
    metadata = {
        "config": config.as_dict(),
        "methods": list(methods),
        "runtime_s": time.time() - t0,
        "failures": {m: len(failures[m]) for m in methods},
        "failure_examples": {m: failures[m][:5] for m in methods if failures[m]},
        "n_attempts": n_attempts,
    }
    return StudyReport(tuple(rows), metadata)
