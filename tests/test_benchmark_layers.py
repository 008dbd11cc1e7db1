"""The fdrecon names the benchmark's traced run depends on.

The traced run wraps the functions ``benchmark/layers.py`` lists in
``TARGETS`` and reads ``diagnostics`` keys through its ``OBSERVERS``; a layer
whose name or key goes missing would silently read 0. These tests resolve
every target and run every observer on a real result.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fdrecon import (
    Curve,
    IterationPlan,
    build_dataset,
    curve_subdomain,
    fit_reconstruction_model,
    iterative_reconstruct,
)
from fdrecon.reconstruct import select_truncations_gcv

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def layers():
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(str(BENCH))  # layers.py imports the harness next to it
    spec = importlib.util.spec_from_file_location("benchmark_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    patch.undo()


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(5)
    curves = []
    for i in range(30):
        lo, hi = (0.0, 1.0) if i < 20 else (rng.uniform(0.0, 0.3), rng.uniform(0.6, 1.0))
        u = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 13)]))
        z = rng.normal(size=2)
        curves.append(Curve(f"c{i:02d}", u, z[0] * np.sin(np.pi * u) + z[1] * u))
    ds = build_dataset(curves, domain=(0.0, 1.0), grid_size=21)
    return ds, fit_reconstruction_model(ds)


def test_every_target_resolves(layers):
    for span, (module, attr) in layers.TARGETS.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {module}.{attr} does not exist"
            obj = getattr(obj, part)
        assert callable(obj), span


def test_every_observer_reads_a_real_result(layers, fitted):
    ds, model = fitted
    partial = ds.curves[-1]
    target_m = curve_subdomain(partial, model.grid).complement(model.grid)
    results = {
        "smoothing.llk_mean": model.mean,
        "smoothing.llk_covariance": model.cov,
        "reconstruct.select_truncations_gcv": select_truncations_gcv(
            ["ano", "ayes"], model, ds, target_m
        ),
        "iterative.iterative_reconstruct": iterative_reconstruct(
            partial, model, "ano", IterationPlan(r_max=2), 1
        ),
    }
    assert set(layers.OBSERVERS) == set(results)
    seen = {name: layers.OBSERVERS[name]((), {}, result) for name, result in results.items()}
    for name, attrs in seen.items():
        assert attrs and all(isinstance(v, (int, np.integer)) for v in attrs.values()), name

    n_pairs = sum(c.n_obs * (c.n_obs - 1) for c in ds.curves)
    assert seen["smoothing.llk_covariance"]["pairs"] == n_pairs
    splits = seen["reconstruct.select_truncations_gcv"]
    assert splits["used"] > 0 and splits["used"] + splits["skipped"] == 2 * 20
    assert seen["iterative.iterative_reconstruct"]["curves"] == 1
    assert seen["iterative.iterative_reconstruct"]["steps"] >= 1
