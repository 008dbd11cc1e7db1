"""Compare the numbers two checkouts of the repository produce on one fixed panel.

Run from anywhere, with two checkouts (say, the parent commit in one
directory and a change in another):

    python3 tools/compare_outputs.py --parent ../parent --change . [--out SUMMARY.json]

Each checkout runs the panel in its own process: this script, started with
``--panel FILE`` from the root of the checkout and with the checkout's
``src`` first on ``PYTHONPATH``, so both sides run this file's panel on
their own code, with one BLAS thread. The panel is:

- the sample of replication 0 of a small study of each DGP 1-4 (50 curves,
  15 points each for DGPs 1 and 2, 25 targets), fitted with the default
  bandwidths: the fit (mean, covariance surface, noise variance); every
  target's eigensystem (each array field and diagnostic); ``select_gcv``
  for all six methods at every target; and every method's reconstruction
  of every target at K = 2 (kraus at rho = 0.1);
- iterative completion (ano, anoce, ayes, ayesce at K = 1 and 2) of 12
  fragments under a band-limited covariance given in closed form;
- a fit on 60 noisy fragments of a rank-3 process, built as the benchmark's
  iterative_band builds its fit, whose mask is band-limited: the iterative
  completion of every fragment as above, and every eigensystem those
  completions solved, among them ends the mask snaps to the grid;
- the golden-fixture CLI session of ``tests/test_cli.py`` (``reconstruct
  --method ayesce --k 2 --error-variance`` on ``tests/fixtures``);
- the error-accumulation check of acceptance criterion 8.

It prints, per method, the targets whose GCV choice moved (K, or rho for
kraus; an error that differs also counts), and the maximum relative
deviation of the GCV tables over all candidates and at the largest
candidate alone, and of the reconstructions; then the deviations of the
fit, the eigensystems, the iterative completions, the CLI output and
criterion 8's result.
The deviation of two arrays is max|a - b| / max(|a|, |b|) over their finite
entries, 0 when both are zero, and infinite when their shapes, their
non-finite entries or their errors differ. ``--out`` writes the same
summary as JSON.

Only the standard library and numpy are used (the panel processes also
import the checkout's fdrecon).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DGPS = (1, 2, 3, 4)
FIXED_K = 2
FIXED_RHO = 0.1
GOLDEN_ARGS = [
    "reconstruct", "--input", "tests/fixtures/golden_input.csv", "--domain", "0", "1",
    "--curve-id", "c001", "--method", "ayesce", "--k", "2", "--h-x", "0.1", "--h-mu", "0.06",
    "--h-gamma", "0.08", "--error-variance",
]


def _attempt(fn):
    """fn()'s result, or the FdreconError it raised as "Type: message"."""
    from fdrecon import FdreconError

    try:
        return fn()
    except FdreconError as exc:
        return f"{type(exc).__name__}: {exc}"


def _values(rec) -> list:
    return rec.values.tolist()


def _eigensystem(eig) -> dict:
    """Every array field and diagnostic of an extrapolated eigensystem."""
    fields = ("eigenvalues", "eigenfunctions", "nodes", "weights", "node_index", "extrapolated",
              "end_values")
    out = {name: getattr(eig, name).tolist() for name in fields}
    out["node_blocks"] = [[block.start, block.stop] for block in eig.node_blocks]
    out.update({f"diagnostics.{name}": value for name, value in eig.diagnostics.items()})
    return out


def _study_panel(dgp: int) -> dict:
    from fdrecon import (
        DgpConfig, FdreconError, curve_subdomain, fit_reconstruction_model, generate_dgp,
        reconstruct_with_method, select_gcv,
    )
    from fdrecon.reconstruct import METHODS

    cfg = DgpConfig(dgp=dgp, n=50, m=15 if dgp in (1, 2) else None, seed=dgp,
                    replications=1, n_targets=25)
    dataset, targets = generate_dgp(cfg, 0)
    model = fit_reconstruction_model(dataset)
    observed = [curve_subdomain(curve, model.grid) for curve in targets.curves]
    gcv = []
    for slots in select_gcv(list(METHODS), model, dataset, observed):
        row = {}
        for method, result in slots.items():
            if isinstance(result, FdreconError):
                row[method] = f"{type(result).__name__}: {result}"
            else:
                choice, details = result
                row[method] = {"choice": choice, "keys": list(details["gcv"]),
                               "table": list(details["gcv"].values())}
        gcv.append(row)
    recon = [
        {m: _attempt(lambda m=m: _values(reconstruct_with_method(
            m, curve, model, k=FIXED_K, rho=FIXED_RHO, dataset=dataset)))
         for m in METHODS}
        for curve in targets.curves
    ]
    fit = {"mean": model.mean.values.tolist(), "cov": model.cov.surface.tolist(),
           "sigma2": float(model.sigma2.sigma2)}
    eigen = [_attempt(lambda o=o: _eigensystem(model.eigensystem_for(o))) for o in observed]
    return {"fit": fit, "eigen": eigen, "gcv": gcv, "recon": recon}


def _iterative_panel() -> dict:
    from fdrecon import (
        Bandwidths, CovarianceEstimate, Curve, MeanEstimate, NoiseVariance, ReconstructionModel,
    )
    from fdrecon.core import DomainGrid

    grid = DomainGrid.regular((0.0, 1.0), 51)
    cov = CovarianceEstimate.from_function(
        grid, lambda u, v: np.minimum(u, v) + 0.05, band_halfwidth=0.3
    )
    mean = MeanEstimate.from_function(grid, lambda u: 1.0 + 0.5 * np.sin(2 * np.pi * u))
    model = ReconstructionModel(mean, cov, NoiseVariance(0.01), Bandwidths(0.1, 0.1, 0.1))
    rng = np.random.default_rng(3)
    curves = []
    for i in range(12):
        a = rng.uniform(0.0, 0.7)
        u = np.sort(rng.uniform(a, a + 0.3, 15))
        y = 1.0 + 0.5 * np.sin(2 * np.pi * u) + np.cumsum(rng.normal(size=u.size)) * 0.1
        curves.append(Curve(f"f{i}", u, y))
    return _completions(model, curves)


def _completions(model, curves) -> dict:
    from fdrecon import IterationPlan, iterative_reconstruct

    return {
        f"{curve.id} {method} K={k}": _attempt(lambda: _values(iterative_reconstruct(
            curve, model, method, IterationPlan(), k)))
        for curve in curves for method in ("ano", "anoce", "ayes", "ayesce") for k in (1, 2)
    }


def _band_fit_panel() -> dict:
    """Completions on an estimated band-limited fit, and every eigensystem they solved."""
    from fdrecon import Curve, build_dataset, fit_reconstruction_model

    rng = np.random.default_rng([7, 2])
    legendre = lambda u: np.stack([np.ones_like(u), np.sqrt(3.0) * (2 * u - 1),  # noqa: E731
                                   np.sqrt(5.0) * (6 * u * u - 6 * u + 1)], axis=1)
    scores = rng.standard_normal((60, 3)) * np.sqrt([1.0, 0.5, 0.1])
    curves = []
    for i, z in enumerate(scores):
        a = rng.uniform(0.0, 0.6)
        u = np.sort(rng.uniform(a, a + 0.4, 15))
        y = 1.0 + 0.5 * u + 0.5 * np.sin(2 * np.pi * u) + legendre(u) @ z
        curves.append(Curve(f"f{i:03d}", u, y + 0.05 * rng.standard_normal(u.size)))
    model = fit_reconstruction_model(build_dataset(curves, domain=(0.0, 1.0), grid_size=51))
    completions = _completions(model, curves)
    eigen = {str(key): _eigensystem(eig) for key, eig in model._eig_cache.items()}
    return {"iterative": completions, "eigen": eigen}


def _golden_panel() -> dict:
    from fdrecon.cli import main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = main(GOLDEN_ARGS + ["--out-dir", tmp])
        lines = (Path(tmp) / "recon_c001_ayesce.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    return {
        "code": code,
        "labels": [[r[0], r[2]] for r in rows],
        "numbers": [[float(r[1]), float(r[3])] for r in rows],
    }


def _criterion_8() -> dict:
    from fdrecon import DgpConfig, check_error_accumulation

    def sample(n_paths, seed, grid_points):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(n_paths, grid_points.size - 1)) * np.sqrt(np.diff(grid_points))
        return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)

    return check_error_accumulation(
        DgpConfig(dgp=1, n=10, m=15, seed=7, replications=500), method="ano",
        band_halfwidth=0.5, gamma_fn=lambda u, v: np.minimum(u, v), sample_paths=sample,
    )


def run_panel(out: Path) -> None:
    """Run the panel on the fdrecon found first on the path and write it to ``out`` as JSON."""
    import fdrecon

    panel = {
        "fdrecon": fdrecon.__file__,
        "studies": {str(dgp): _study_panel(dgp) for dgp in DGPS},
        "iterative": _iterative_panel(),
        "band_fit": _band_fit_panel(),
        "golden": _golden_panel(),
        "criterion_8": _criterion_8(),
    }
    out.write_text(json.dumps(panel))


def deviation(a, b) -> float:
    """max|a - b| / max(|a|, |b|) over the finite entries; inf if shapes or non-finite entries differ."""
    if isinstance(a, str) or isinstance(b, str):
        return 0.0 if a == b else math.inf
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    finite = np.isfinite(a)
    if not np.array_equal(finite, np.isfinite(b)) or not np.array_equal(
        a[~finite], b[~finite], equal_nan=True
    ):
        return math.inf
    a, b = a[finite], b[finite]
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a - b).max() / scale) if scale > 0 else 0.0


def _eigen_deviation(a, b) -> float:
    """The largest deviation over two eigensystems' fields (or their errors)."""
    if isinstance(a, str) or isinstance(b, str):
        return deviation(a, b)
    if a.keys() != b.keys():
        return math.inf
    return max(deviation(a[name], b[name]) for name in a)


def _by_method(parent: dict, change: dict) -> dict:
    """Per method, the largest deviation of the completions keyed "<curve> <method> K=<k>"."""
    out: dict = {}
    for key, values in parent.items():
        method = key.split()[1]
        out[method] = max(out.get(method, 0.0), deviation(values, change.get(key, "missing")))
    return out


def _table(slot, at_largest: bool):
    if isinstance(slot, str):
        return slot
    return slot["table"][-1:] if at_largest else slot["table"]


def compare(parent: dict, change: dict) -> dict:
    """The summary of how ``change``'s panel differs from ``parent``'s."""
    methods: dict = {}
    for dgp, study in parent["studies"].items():
        other = change["studies"][dgp]
        for t, (slots, recons) in enumerate(zip(study["gcv"], study["recon"])):
            for method, slot in slots.items():
                new = other["gcv"][t][method]
                row = methods.setdefault(method, {
                    "targets": 0, "moved": 0, "table_dev": 0.0, "table_dev_at_largest": 0.0,
                    "recon_dev": 0.0,
                })
                row["targets"] += 1
                same = (slot == new) if isinstance(slot, str) or isinstance(new, str) else (
                    slot["choice"] == new["choice"] and slot["keys"] == new["keys"])
                row["moved"] += not same
                for key, at_largest in (("table_dev", False), ("table_dev_at_largest", True)):
                    dev = deviation(_table(slot, at_largest), _table(new, at_largest))
                    row[key] = max(row[key], dev)
                row["recon_dev"] = max(
                    row["recon_dev"], deviation(recons[method], other["recon"][t][method])
                )
    fit = {
        name: max(deviation(s["fit"][name], change["studies"][d]["fit"][name])
                  for d, s in parent["studies"].items())
        for name in ("mean", "cov", "sigma2")
    }
    iterative = _by_method(parent["iterative"], change["iterative"])
    band_p, band_c = parent["band_fit"], change["band_fit"]
    eigensystems = {
        "studies": max(_eigen_deviation(e, change["studies"][d]["eigen"][t])
                       for d, s in parent["studies"].items() for t, e in enumerate(s["eigen"])),
        "band_fit": max(_eigen_deviation(e, band_c["eigen"].get(key, "missing"))
                        for key, e in band_p["eigen"].items()),
        "count": sum(len(s["eigen"]) for s in parent["studies"].values()) + len(band_p["eigen"]),
        "snapped_ends": sum(e["diagnostics.n_snapped_ends"] for e in band_p["eigen"].values()),
    }
    if band_p["eigen"].keys() != band_c["eigen"].keys():
        eigensystems["band_fit"] = math.inf
    golden_p, golden_c = parent["golden"], change["golden"]
    golden = deviation(golden_p["numbers"], golden_c["numbers"])
    if golden_p["labels"] != golden_c["labels"] or golden_p["code"] != golden_c["code"]:
        golden = math.inf
    criterion_8 = 0.0
    for key, value in parent["criterion_8"].items():
        new = change["criterion_8"].get(key)
        dev = deviation(value, new) if isinstance(value, float) else float(value != new and math.inf)
        criterion_8 = max(criterion_8, dev)
    return {"methods": methods, "fit": fit, "eigensystems": eigensystems, "iterative": iterative,
            "band_fit_iterative": _by_method(band_p["iterative"], band_c["iterative"]),
            "golden": golden, "criterion_8": criterion_8}


def print_summary(summary: dict) -> None:
    print(f"{'method':8} {'moved':>9} {'gcv tables':>11} {'at largest':>11} {'recon K=2':>11}")
    for method, row in summary["methods"].items():
        moved = f"{row['moved']}/{row['targets']}"
        print(f"{method:8} {moved:>9} {row['table_dev']:>11.3g} "
              f"{row['table_dev_at_largest']:>11.3g} {row['recon_dev']:>11.3g}")
    fit = ", ".join(f"{name} {dev:.3g}" for name, dev in summary["fit"].items())
    print(f"fit: {fit}")
    eig = summary["eigensystems"]
    print(f"eigensystems ({eig['count']}, {eig['snapped_ends']} snapped ends in the band fit): "
          f"studies {eig['studies']:.3g}, band fit {eig['band_fit']:.3g}")
    for name in ("iterative", "band_fit_iterative"):
        devs = ", ".join(f"{method} {dev:.3g}" for method, dev in summary[name].items())
        print(f"{name.replace('_', ' ')}: {devs}")
    print(f"golden CLI: {summary['golden']:.3g}")
    print(f"criterion 8: {summary['criterion_8']:.3g}")


def panel_of(checkout: Path, out: Path) -> dict:
    """Run the panel in ``checkout``, in a process of its own, and read it back."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--panel", str(out)],
        cwd=checkout, env=env, check=True,
    )
    panel = json.loads(out.read_text())
    if not Path(panel["fdrecon"]).resolve().is_relative_to(checkout.resolve()):
        raise SystemExit(f"{checkout}: the panel imported fdrecon from {panel['fdrecon']}")
    return panel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout whose numbers are the reference")
    parser.add_argument("--change", type=Path, help="checkout compared with the parent")
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    parser.add_argument("--panel", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.panel is not None:
        run_panel(args.panel)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory() as tmp:
        parent = panel_of(args.parent, Path(tmp) / "parent.json")
        change = panel_of(args.change, Path(tmp) / "change.json")
    summary = compare(parent, change)
    print_summary(summary)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
