"""The three workloads: their inputs, set-up, ops and checks.

Each workload object is built after ``import fdrecon`` and gets:

- ``setup()``: build the inputs, fit what the ops share and run one
  untimed warm-up op on the accuracy panel;
- ``check_setup()`` and ``final_checks()``: lists of error texts;
- ``recon_ise()``: the mean integrated squared error on the panel;
- ``make_round()``: the (op, check) pairs of one round.

The accuracy panel is an input drawn from a fixed seed (``PANEL_SEED``),
the same for every ``--seed``; the timed ops run on inputs drawn from
``--seed``. The reason: over one run's worth of curves, the mean
reconstruction error of seeded inputs spreads by 30% (quartile distance
over median) between seeds on study_sparse and cli_dense, and by far more
on iterative_band, more than any bound allows; on a fixed panel it moves
only when the program's numbers move.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

import fdrecon
import fdrecon.cli
import fdrecon.simulation

import data

PANEL_SEED = 0
EPS = np.finfo(float).eps


def _first_error(errors):
    return errors[0] if errors else None


def _report_errors(report, methods, n_attempts) -> list[str]:
    """Properties every run_study report must have."""
    errors = []
    ratios = [r["mse_ratio"] for r in report.rows]
    if sorted(r["method"] for r in report.rows) != sorted(methods):
        errors.append("report rows do not match the methods")
    if ratios != sorted(ratios):
        errors.append(f"rows not sorted by mse_ratio: {ratios}")
    if min(ratios) != 1.0:
        errors.append(f"smallest mse_ratio is {min(ratios)!r}, not exactly 1")
    if any(report.metadata["failures"].values()):
        errors.append(f"study reports failures {report.metadata['failures']}")
    if report.metadata["n_attempts"] != n_attempts:
        errors.append(f"n_attempts {report.metadata['n_attempts']} != {n_attempts}")
    return errors


def _same_report(a, b) -> bool:
    meta = lambda r: {k: v for k, v in r.metadata.items() if k != "runtime_s"}  # noqa: E731
    return a.rows == b.rows and meta(a) == meta(b)


class StudySparse:
    """run_study on DGP 1 (n=50, m=15, 50 targets, 2 replications): the m_i << n regime.

    pace is left out of the methods: in two of the first 40 studies (seeds
    2 and 18) one sample's covariance is not estimable on the full domain
    square, pace fails on every target of that replication and run_study
    raises, so whether an op fails would depend on the seed.
    """

    name = "study_sparse"
    methods = ("ayesce", "ayes", "anoce", "ano")
    configs_per_round = 2
    replications = 2
    n_targets = 50

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.references: dict = {}

    def config(self, study_seed: int):
        return fdrecon.DgpConfig(
            dgp=1, n=50, m=15, seed=study_seed, replications=self.replications,
            n_targets=self.n_targets,
        )

    def study(self, config):
        return fdrecon.run_study(config, self.methods, threads=1)

    def setup(self) -> None:
        self.panel = self.config(PANEL_SEED)
        # Study seeds of different --seed values never coincide, nor meet the panel's.
        self.configs = [
            self.config(self.configs_per_round * self.seed + 1 + j) for j in range(self.configs_per_round)
        ]
        self.panel_report = self.study(self.panel)

    @property
    def recons_per_op(self) -> int:
        return self.replications * self.n_targets * len(self.methods)

    def check_setup(self) -> list[str]:
        return _report_errors(self.panel_report, self.methods, self.replications * self.n_targets)

    def recon_ise(self) -> float:
        return float(np.mean([r["mse"] for r in self.panel_report.rows]))

    def make_round(self):
        def op(config):
            return lambda: (self.study(config), self.recons_per_op)

        def check(j):
            def run(report):
                errors = _report_errors(report, self.methods, self.replications * self.n_targets)
                ref = self.references.setdefault(j, report)
                if not errors and not _same_report(ref, report):
                    errors.append(f"config {j}: report differs from the first call")
                return _first_error(errors)
            return run

        return [(op(c), check(j)) for j, c in enumerate(self.configs)]

    def captured_study(self, config):
        """run_study with every reconstruction and the targets' truth captured."""
        sim = fdrecon.simulation
        originals = sim.generate_dgp, sim.reconstruct_with_method
        state = {"rep": None, "truth": [], "recs": {}}

        def generate(cfg, rep):
            dataset, targets = originals[0](cfg, rep)
            state["rep"] = rep
            state["truth"].append(targets.truth)
            return dataset, targets

        def reconstruct(method, curve, *args, **kwargs):
            rec = originals[1](method, curve, *args, **kwargs)
            state["recs"][(method, state["rep"], int(curve.id[1:]))] = rec.values.copy()
            return rec

        sim.generate_dgp, sim.reconstruct_with_method = generate, reconstruct
        try:
            report = self.study(config)
        finally:
            sim.generate_dgp, sim.reconstruct_with_method = originals
        return report, state

    def recompute_errors(self, config, reference) -> list[str]:
        """Bias2, Var and MSE recomputed from the captured reconstructions."""
        report, state = self.captured_study(config)
        errors = []
        if not _same_report(report, reference):
            errors.append(f"seed {config.seed}: a repeated run_study call gave another report")
        truth = state["truth"][0]
        if any(not np.array_equal(t, truth) for t in state["truth"]):
            errors.append(f"seed {config.seed}: target truth differs between replications")
        grid = data.grid_points(truth.shape[1])
        for method in self.methods:
            try:
                recs = np.array([
                    [state["recs"][(method, rep, t)] for t in range(self.n_targets)]
                    for rep in range(self.replications)
                ])
            except KeyError as exc:
                errors.append(f"seed {config.seed}: reconstruction {exc} was not made")
                continue
            mean, var = data.two_pass_moments(recs)
            bias2 = float(np.mean(data.trapezoid((mean - truth) ** 2, grid)))
            var_i = float(np.mean(data.trapezoid(var, grid)))
            # Each figure sums T*L terms no larger than the mean square of the
            # values, and the report takes its variance as E[x^2] - E[x]^2.
            scale = float(np.mean(data.trapezoid(np.mean(recs**2, axis=0) + truth**2, grid)))
            tol = 4.0 * recs[0].size * EPS * scale
            row = report.row(method)
            for key, value in (("bias2", bias2), ("var", var_i), ("mse", bias2 + var_i)):
                if not abs(row[key] - value) <= tol:
                    errors.append(
                        f"seed {config.seed} {method} {key}: report {row[key]!r}, recomputed {value!r}"
                    )
        return errors

    def final_checks(self) -> list[str]:
        errors = self.recompute_errors(self.panel, self.panel_report)
        if 0 in self.references:
            errors += self.recompute_errors(self.configs[0], self.references[0])
        return errors


def _number(text: str) -> float:
    """A CSV number, also where it is written as the repr of a numpy scalar.

    ``fdrecon fit`` writes the eigenvalue header of ``eigensystem.csv``, the
    ``mean.csv`` values and the ``scores.csv`` values as ``np.float64(...)``
    under numpy 2; reading through that wrapper lets the checks test the
    values themselves.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


class CliDense:
    """Three-command in-process CLI sessions on a dense noisy sample: the m ~ n regime."""

    name = "cli_dense"
    margin = 0.1

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.work = root / ".bench_out" / "cli_dense"
        self.reference: dict | None = None

    def _write_input(self, seed: int, path: Path):
        """Write a fresh input file, and remove what earlier sessions wrote beside it."""
        rows, intervals, truth = data.dense_sample(seed)
        shutil.rmtree(path.parent, ignore_errors=True)
        path.parent.mkdir(parents=True)
        with open(path, "w") as fh:
            fh.write("curve_id,u,y\n")
            fh.writelines(f"{cid},{u!r},{y!r}\n" for cid, u, y in rows)
        return {"input": path, "intervals": intervals, "truth": truth, "out": path.parent / "out"}

    def session(self, sample) -> int:
        inp, out = str(sample["input"]), sample["out"]
        commands = [
            ["fit", "--input", inp, "--out-dir", str(out / "fit"), "--emit-scores"],
            ["reconstruct", "--input", inp, "--out-dir", str(out / "ayesce"), "--method", "ayesce",
             "--k", "gcv", "--error-variance"],
            ["reconstruct", "--input", inp, "--out-dir", str(out / "kraus"), "--method", "kraus"],
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                code = fdrecon.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"fdrecon {argv[0]} exited {code}: {sink.getvalue()[-300:]}")
        return 2 * len(self.partial_ids(sample))

    def partial_ids(self, sample) -> list[str]:
        """Curves the CLI reconstructs: those not reaching both domain ends within the margin."""
        ivals = sample["intervals"]
        a = min(lo for lo, _ in ivals.values())
        b = max(hi for _, hi in ivals.values())
        m = self.margin * (b - a)
        return sorted(c for c, (lo, hi) in ivals.items() if lo > a + m or hi < b - m)

    def setup(self) -> None:
        self.panel = self._write_input(PANEL_SEED, self.work / "panel" / "input.csv")
        self.sample = self._write_input(self.seed, self.work / f"seed{self.seed}" / "input.csv")
        self.session(self.panel)

    @staticmethod
    def _read_csv(path: Path):
        lines = path.read_text().splitlines()
        return lines[1], [line.split(",") for line in lines[2:]]

    def _recon(self, sample, method: str, cid: str):
        _, rows = self._read_csv(sample["out"] / method / f"recon_{cid}_{method}.csv")
        u = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) if r[1] else np.nan for r in rows])
        ev = np.array([float(r[3]) if r[3] else np.nan for r in rows])
        return u, values, [r[2] for r in rows], ev

    def output_errors(self, sample) -> list[str]:
        """The session's files against the sample's truth and the method's properties."""
        errors = []
        out = sample["out"]
        _, cov = self._read_csv(out / "fit" / "covariance.csv")
        cov = np.array([[float(x) if x else np.nan for x in r] for r in cov])
        if not np.array_equal(cov, cov.T):
            errors.append("covariance.csv is not symmetric")
        _, mask = self._read_csv(out / "fit" / "mask.csv")
        if not all(x == "1" for r in mask for x in r):
            errors.append("mask.csv is not fully estimable")
        header, eig = self._read_csv(out / "fit" / "eigensystem.csv")
        lam = np.array([_number(h.split("=", 1)[1]) for h in header.split(",")[1:]])
        if not (np.all(lam >= 0) and np.all(np.diff(lam) <= 0)):
            errors.append("eigenvalues are negative or increasing")
        eig = np.array([[float(x) for x in r] for r in eig])
        u, basis = eig[:, 0], eig[:, 1:]
        w = np.full(u.size, u[1] - u[0])
        w[0] = w[-1] = 0.5 * (u[1] - u[0])
        gram = basis.T @ (w[:, None] * basis)
        deviation = float(np.max(np.abs(gram - np.eye(lam.size))))
        # The basis extends eigh's orthonormal vectors; its columns on the grid
        # repeat them up to solver rounding divided by the eigenvalue.
        if not deviation < 1e-8:
            errors.append(f"eigensystem basis not orthonormal: max deviation {deviation:.3g}")
        _, scores = self._read_csv(out / "fit" / "scores.csv")
        per_curve: dict = {}
        for cid, k, value, method in scores:
            per_curve.setdefault((cid, method), []).append(int(k))
            if not np.isfinite(_number(value)):
                errors.append(f"scores.csv: non-finite score of {cid}")
        expected = {(cid, m) for cid in sample["intervals"] for m in ("integral", "conditional_expectation")}
        if set(per_curve) != expected or any(
            ks != list(range(1, len(per_curve[(c, "integral")]) + 1)) for (c, _), ks in per_curve.items()
        ):
            errors.append("scores.csv does not hold scores k = 1..K of both kinds for every curve")

        ids = self.partial_ids(sample)
        for method in ("ayesce", "kraus"):
            files = sorted(p.name for p in (out / method).glob("recon_*.csv"))
            if files != sorted(f"recon_{c}_{method}.csv" for c in ids):
                errors.append(f"{method}: {len(files)} files for {len(ids)} partial curves")
                continue
            miss_err = miss_mean = 0.0
            for cid in ids:
                u, values, prov, ev = self._recon(sample, method, cid)
                truth = sample["truth"][cid]
                lo, hi = sample["intervals"][cid]
                inside = (u >= lo) & (u <= hi)
                if not np.all(np.isfinite(values)):
                    errors.append(f"{method} {cid}: non-finite value")
                if method == "ayesce":
                    want = np.where(inside, "observed-smoothed", "reconstructed")
                    if list(want) != prov:
                        errors.append(f"ayesce {cid}: provenance does not follow the observed interval")
                    if not (np.all(np.isfinite(ev)) and np.all(ev >= 0)):
                        errors.append(f"ayesce {cid}: error_variance missing or negative")
                outside = np.where(inside, 0.0, 1.0)
                miss_err += data.trapezoid(outside * (values - truth) ** 2, u)
                miss_mean += data.trapezoid(outside * (data.mean_function(u) - truth) ** 2, u)
            if not miss_err < miss_mean:
                errors.append(f"{method}: missing-part ISE {miss_err:.4g} >= true-mean ISE {miss_mean:.4g}")
        return errors

    def check_setup(self) -> list[str]:
        return self.output_errors(self.panel)

    def recon_ise(self) -> float:
        ises = []
        for method in ("ayesce", "kraus"):
            for cid in self.partial_ids(self.panel):
                u, values, _, _ = self._recon(self.panel, method, cid)
                ises.append(float(data.ise(values, self.panel["truth"][cid], u)))
        return float(np.mean(ises))

    def _snapshot(self) -> dict:
        out = self.sample["out"]
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}

    def make_round(self):
        def check(_):
            if self.reference is None:
                errors = self.output_errors(self.sample)
                self.reference = self._snapshot()
                return _first_error(errors)
            if self._snapshot() != self.reference:
                return "session output differs from the first session"
            return None

        return [(lambda: (None, self.session(self.sample)), check)]

    def final_checks(self) -> list[str]:
        return []


class IterativeBand:
    """Iterative completion of fragments under a band-limited covariance mask."""

    name = "iterative_band"
    methods = ("ano", "ayes", "anoce", "ayesce")
    k = 1
    fragments_per_round = 100
    panel_fragments = 100
    r_max = 10

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.plan = fdrecon.IterationPlan(r_max=self.r_max)
        self.reference: dict = {}

    def _fit(self, seed: int):
        fragments, truth = data.fragment_sample(seed)
        curves = [fdrecon.Curve(cid, u, y) for cid, u, y in fragments]
        dataset = fdrecon.build_dataset(curves, domain=(0.0, 1.0), grid_size=data.GRID_SIZE)
        return dataset, truth, fdrecon.fit_reconstruction_model(dataset)

    def setup(self) -> None:
        self.dataset, _, self.model = self._fit(self.seed)
        fdrecon.iterative_reconstruct(self.dataset.curves[0], self.model, "ano", self.plan, self.k)

    def check_setup(self) -> list[str]:
        errors = []
        if np.all(self.model.cov.mask):
            errors.append("covariance mask is fully estimable: the input is not band-limited")
        if fdrecon.classify_complete(self.dataset):
            errors.append("some fragment is complete")
        return errors

    def _op_check(self, key, rec):
        if rec.diagnostics["coverage"] != 1.0:
            return f"{key}: coverage {rec.diagnostics['coverage']}"
        if not np.all(np.isfinite(rec.values)):
            return f"{key}: non-finite value"
        ref = self.reference.setdefault(key, rec.values)
        if not np.array_equal(ref, rec.values):
            return f"{key}: differs from the first round"
        return None

    def make_round(self):
        # A fresh handle on the fitted estimates starts every round with an
        # empty eigensystem cache, so rounds repeat the same work.
        m = self.model
        handle = fdrecon.ReconstructionModel(m.mean, m.cov, m.sigma2, m.bandwidths, m.dataset)

        def op(curve, method):
            return lambda: (fdrecon.iterative_reconstruct(curve, handle, method, self.plan, self.k), 1)

        def check(key):
            return lambda rec: self._op_check(key, rec)

        return [
            (op(curve, method), check((curve.id, method)))
            for curve in self.dataset.curves[: self.fragments_per_round]
            for method in self.methods
        ]

    def recon_ise(self) -> float:
        dataset, truth, model = self._fit(PANEL_SEED)
        grid = model.grid.points
        ises = [
            data.ise(fdrecon.iterative_reconstruct(c, model, m, self.plan, self.k).values, truth[i], grid)
            for i, c in enumerate(dataset.curves[: self.panel_fragments])
            for m in self.methods
        ]
        return float(np.mean(ises))

    def step_one_errors(self, n_sample: int = 20) -> list[str]:
        """Points the first step covers carry reconstruct_with_method's values."""
        errors = []
        for curve in self.dataset.curves[-n_sample:]:
            for method in self.methods:
                it = fdrecon.iterative_reconstruct(curve, self.model, method, self.plan, self.k)
                one = fdrecon.reconstruct_with_method(method, curve, self.model, k=self.k)
                first = one.provenance >= 0
                if not np.array_equal(it.values[first], one.values[first]):
                    errors.append(f"{curve.id} {method}: step-one values differ")
        return errors

    def known_answer_errors(self, n_curves: int = 10) -> list[str]:
        """Exact rank-2 mean and band-masked covariance, noiseless gridded fragments, K=2.

        Scores use the trapezoid rule, the rule of the eigenproblem on grid
        points, so ano is exact up to rounding; ayes adds the error of its
        end smoothing (a narrow h_x suits noiseless curves).
        """
        grid = fdrecon.DomainGrid.regular((0.0, 1.0), data.GRID_SIZE)
        model = fdrecon.ReconstructionModel(
            fdrecon.MeanEstimate.from_function(grid, data.mean_function),
            fdrecon.CovarianceEstimate.from_function(grid, data.covariance_function(rank=2), band_halfwidth=0.5),
            fdrecon.NoiseVariance(0.0),
            fdrecon.Bandwidths(0.05, 0.1, 0.1),
        )
        rng = np.random.default_rng([self.seed, 3])
        errors = []
        for i in range(n_curves):
            scores = data.draw_scores(rng, 1, rank=2)[0]
            a = rng.integers(0, 31) / 50.0
            u = grid.points[(grid.points >= a - 1e-12) & (grid.points <= a + 0.4 + 1e-12)]
            curve = fdrecon.Curve(f"k{i}", u, data.curve_values(u, scores))
            truth = data.curve_values(grid.points, scores)
            base = data.ise(data.mean_function(grid.points), truth, grid.points)
            for method in ("ano", "ayes"):
                rec = fdrecon.iterative_reconstruct(curve, model, method, self.plan, 2, quadrature="trapezoid")
                ratio = data.ise(rec.values, truth, grid.points) / base
                if not ratio < 1e-3:
                    errors.append(f"known answer {curve.id} {method}: ISE ratio {ratio:.3g}")
        return errors

    def final_checks(self) -> list[str]:
        return self.step_one_errors() + self.known_answer_errors()


WORKLOADS = {w.name: w for w in (StudySparse, CliDense, IterativeBand)}
