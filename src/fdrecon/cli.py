"""Command-line interface: fit, reconstruct, simulate and gcv-report subcommands."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import classify_complete, load_dataset, summary_json
from .errors import DataError, FdreconError, ParseError, UsageError
from .iterative import IterationPlan, STRATEGIES, iterative_reconstruct
from .reconstruct import (
    METHODS,
    _chosen,
    curve_subdomain,
    fit_reconstruction_model,
    reconstruct_with_method,
    select_gcv,
)
from .scores import ce_scores, integral_scores
from .simulation import DEFAULT_METHODS, DgpConfig, run_study
from .smoothing import Bandwidths

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

def _read_config_file(path: str) -> dict:
    """Flat key=value configuration; '#' starts a comment."""
    values = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _config_value(key: str, action: argparse.Action, raw: str):
    """A config value converted as its flag would convert it on the command line."""
    if action.nargs == 0:  # a switch
        if raw.lower() not in _BOOLEANS:
            raise UsageError(f"config key {key!r} takes true or false, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    many = action.nargs is not None or isinstance(action, argparse._AppendAction)
    items = raw.replace(",", " ").split() if many else [raw]
    try:
        values = [(action.type or str)(item) for item in items]
    except ValueError:
        raise UsageError(f"config key {key!r}: invalid value {raw!r}") from None
    if (isinstance(action.nargs, int) and len(values) != action.nargs) or (
        action.choices is not None and any(v not in action.choices for v in values)
    ):
        raise UsageError(f"config key {key!r}: invalid value {raw!r}")
    return values if many else values[0]


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; config-file values become the defaults of the command's flags.

    A parser of the global flags alone reads ``--config`` and the command
    first. A required flag the file sets then stops being required, and the
    one full parse lets the flags given on the command line win.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_global_flags(pre)
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:  # the full parse reports it
        return parser.parse_args(argv)
    command = known.rest[0] if known.rest else None
    if not known.config or command not in _CONFIGURABLE:
        return parser.parse_args(argv)
    actions = _config_actions(parser, command)
    lists = {}
    for key, raw in _read_config_file(known.config).items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r} for command {command!r}")
        action = actions[key]
        value = _config_value(key, action, raw)
        action.required = False
        # A repeated flag would append to the file's list instead of replacing it.
        if isinstance(action, argparse._AppendAction):
            lists[key] = value
        else:
            action.default = value
    args = parser.parse_args(argv)
    for key, value in lists.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _resolved_config_comment(command: str, args: argparse.Namespace) -> str:
    keys = sorted(_CONFIGURABLE[command])
    parts = []
    for k in keys:
        v = getattr(args, k, None)
        if isinstance(v, (list, tuple)):
            v = ",".join(str(x) for x in v)
        parts.append(f"{k}={v}")
    return f"fdrecon {command} " + " ".join(parts)


def _load(args) -> tuple:
    path = Path(args.input)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    domain = tuple(args.domain) if args.domain else None
    dataset = load_dataset(path, domain=domain, grid_size=args.grid_size)
    bw = None
    if any(v is not None for v in (args.h_x, args.h_mu, args.h_gamma)):
        defaults = Bandwidths.rule_of_thumb(dataset)
        bw = Bandwidths(
            defaults.h_x if args.h_x is None else args.h_x,
            defaults.h_mu if args.h_mu is None else args.h_mu,
            defaults.h_gamma if args.h_gamma is None else args.h_gamma,
        )
    model = fit_reconstruction_model(
        dataset, bandwidths=bw, min_pairs=args.min_pairs, trim_fraction=args.trim
    )
    return dataset, model


def _num(x) -> str:
    """A CSV number: the repr of the Python float, which reads back exactly; blank if missing."""
    return "" if x is None or not math.isfinite(x) else repr(float(x))


def _curve(dataset, curve_id: str):
    """The curve a --curve-id names; an unknown id is a usage error."""
    try:
        return dataset.curve(curve_id)
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _write_csv(path: Path, header_comment: str, header: str, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + header_comment + "\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def cmd_fit(args) -> int:
    dataset, model = _load(args)
    comment = _resolved_config_comment("fit", args)
    out = Path(args.out_dir)
    grid = model.grid

    _write_csv(
        out / "mean.csv", comment, "u,value",
        [f"{_num(u)},{_num(v)}" for u, v in zip(grid.points, model.mean.values)],
    )
    cov_lines = []
    mask_lines = []
    for i in range(grid.size):
        row = model.cov.surface[i]
        cov_lines.append(",".join(_num(x) for x in row))
        mask_lines.append(",".join(str(int(b)) for b in model.cov.mask[i]))
    header = ",".join(_num(u) for u in grid.points)
    _write_csv(out / "covariance.csv", comment, header, cov_lines)
    _write_csv(out / "mask.csv", comment, header, mask_lines)

    k_available = None
    if np.all(model.cov.mask):
        eigsys = model.full_eigensystem()
        k_available = eigsys.k_available
        cols = ["u"] + [f"lambda={_num(lam)}" for lam in eigsys.eigenvalues]
        lines = []
        for i, u in enumerate(grid.points):
            vals = [_num(u)] + [_num(x) for x in eigsys.extrapolated[i]]
            lines.append(",".join(vals))
        _write_csv(out / "eigensystem.csv", comment, ",".join(cols), lines)

    if args.emit_scores:
        if k_available is None:
            print("warning: scores skipped, covariance not estimable on the full domain",
                  file=sys.stderr)
        else:
            lines = []
            for c in dataset.curves:
                sub = curve_subdomain(c, grid)
                eig = model.eigensystem_for(sub)
                k = eig.k_available
                s_int = integral_scores(c, eig, model.mean, k, quadrature=args.scores_quadrature)
                s_ce = ce_scores(c, eig, model.cov, model.sigma2, model.mean, k)
                for kk in range(k):
                    lines.append(f"{c.id},{kk + 1},{_num(s_int.values[kk])},integral")
                    lines.append(f"{c.id},{kk + 1},{_num(s_ce.values[kk])},conditional_expectation")
            _write_csv(out / "scores.csv", comment, "curve_id,k,value,method", lines)

    (out / "summary.json").write_text(summary_json(dataset, args.margin))
    print(
        json.dumps(
            {
                "n_curves": dataset.n_curves,
                "bandwidths": {
                    "h_x": model.bandwidths.h_x,
                    "h_mu": model.bandwidths.h_mu,
                    "h_gamma": model.bandwidths.h_gamma,
                },
                "sigma2": model.sigma2.sigma2,
                "mask_coverage": float(model.cov.mask.mean()),
                "k_available": k_available,
                "out_dir": str(out),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _tune_targets(args, model, dataset, targets) -> dict:
    """--method's GCV choice for each distinct target geometry, by key, or its error.

    One GCV call covers them all. A target whose geometry cannot be formed
    raises that error again when its key is looked up.
    """
    observed = []
    for curve in targets:
        with contextlib.suppress(FdreconError):
            observed.append(curve_subdomain(curve, model.grid))
    chosen = select_gcv(
        [args.method], model, dataset, observed,
        margin_fraction=args.margin, quadrature=args.scores_quadrature,
    )
    return {o_sub.key(): part[args.method] for o_sub, part in zip(observed, chosen)}


def _resolve_k(args, model, curve) -> int:
    if args.k == "fve":
        eig = model.eigensystem_for(curve_subdomain(curve, model.grid))
        return eig.fve_truncation(args.fve_threshold)
    try:
        return int(args.k)
    except (TypeError, ValueError):
        raise UsageError(f"--k must be an integer, 'gcv' or 'fve', got {args.k!r}") from None


def cmd_reconstruct(args) -> int:
    if args.method not in METHODS:
        raise UsageError(f"--method must be one of {', '.join(METHODS)}")
    dataset, model = _load(args)
    comment = _resolved_config_comment("reconstruct", args)
    out = Path(args.out_dir)
    complete = classify_complete(dataset, args.margin)
    if args.curve_id:
        targets = [_curve(dataset, cid) for cid in args.curve_id]
    else:
        targets = [c for c in dataset.curves if c.id not in complete] or list(dataset.curves)

    band_limited = not np.all(model.cov.mask)
    if band_limited and not args.iterative and args.method != "kraus":
        print(
            "warning: covariance mask is band limited; output may contain non-estimable "
            "points (use --iterative)",
            file=sys.stderr,
        )

    # Every target is tuned before any is reconstructed; a failed tuning is
    # raised when the loop reaches its target, after the earlier files.
    kraus = args.method == "kraus"
    by_gcv = args.rho is None if kraus else args.k == "gcv"
    tunings = _tune_targets(args, model, dataset, targets) if by_gcv else None
    for curve in targets:
        tuned = args.rho if kraus else None
        if tunings is not None:
            tuned = _chosen(tunings[curve_subdomain(curve, model.grid).key()])[0]
        if kraus:
            rec = reconstruct_with_method(
                "kraus", curve, model, rho=tuned, dataset=dataset,
                include_error_variance=args.error_variance,
            )
        else:
            k = _resolve_k(args, model, curve) if tuned is None else tuned
            if args.iterative:
                plan = IterationPlan(r_max=args.rmax, strategy=args.strategy)
                rec = iterative_reconstruct(
                    curve, model, args.method, plan, k, quadrature=args.scores_quadrature
                )
            else:
                rec = reconstruct_with_method(
                    args.method, curve, model, k=k, quadrature=args.scores_quadrature,
                    include_error_variance=args.error_variance,
                )
        lines = []
        for u, v, prov, ev in rec.rows():
            lines.append(f"{_num(u)},{_num(v)},{prov},{_num(ev)}")
        _write_csv(
            out / f"recon_{curve.id}_{rec.method}.csv", comment,
            "u,value,provenance,error_variance", lines,
        )
        if args.emit_json:
            payload = rec.to_dict()
            payload["config"] = comment
            (out / f"recon_{curve.id}_{rec.method}.json").write_text(
                json.dumps(payload, sort_keys=True)
            )
    print(f"wrote {len(targets)} reconstruction file(s) to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = DgpConfig(
        dgp=args.dgp, n=args.n, m=args.m, seed=args.seed,
        replications=args.reps, n_targets=args.n_targets, grid_size=args.grid_size,
    )
    methods = args.methods.split(",") if args.methods else DEFAULT_METHODS[args.dgp]
    bw = None
    given = [v is not None for v in (args.h_x, args.h_mu, args.h_gamma)]
    if any(given):
        if not all(given):
            raise UsageError("simulate needs either all of --h-x/--h-mu/--h-gamma or none")
        bw = Bandwidths(args.h_x, args.h_mu, args.h_gamma)
    report = run_study(
        config, methods, bandwidths=bw, quadrature=args.scores_quadrature,
        threads=args.threads,
    )
    comment = _resolved_config_comment("simulate", args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report.write_csv(out, comment)
    for row in report.rows:
        print(
            f"{row['method']:8s} MSE_ratio={row['mse_ratio']:.2f} MSE={row['mse']:.4g} "
            f"Bias2={row['bias2']:.4g} Var={row['var']:.4g}"
        )
    return EXIT_OK


def cmd_gcv_report(args) -> int:
    if args.method not in METHODS:
        raise UsageError(f"--method must be one of {', '.join(METHODS)}")
    dataset, model = _load(args)
    curve = _curve(dataset, args.curve_id)
    key = curve_subdomain(curve, model.grid).key()
    choice, details = _chosen(_tune_targets(args, model, dataset, [curve])[key])
    if args.method == "kraus":
        lines = [f"{_num(r)},{_num(g)}" for r, g in sorted(details["gcv"].items())]
        header = "rho,gcv"
        chosen = f"chosen rho={_num(choice)}"
    else:
        lines = [f"{kk},{_num(details['gcv'][kk])},{_num(details['rss'][kk])}" for kk in details["candidates"]]
        header = "K,gcv,rss"
        chosen = f"chosen K={choice}"
    comment = _resolved_config_comment("gcv-report", args)
    if args.out:
        _write_csv(Path(args.out), comment, header, lines)
    print(header)
    for line in lines:
        print(line)
    print(chosen)
    return EXIT_OK


def _add_common_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV with header curve_id,u,y")
    p.add_argument("--domain", nargs=2, type=float, default=None, metavar=("A", "B"),
                   help="study domain (default: observation extrema)")
    p.add_argument("--grid-size", type=int, default=51, help="evaluation grid size")
    p.add_argument("--h-x", type=float, default=None, help="curve-smoother bandwidth")
    p.add_argument("--h-mu", type=float, default=None, help="mean bandwidth")
    p.add_argument("--h-gamma", type=float, default=None, help="covariance bandwidth")
    p.add_argument("--min-pairs", type=int, default=5,
                   help="pairs required for an estimable covariance cell")
    p.add_argument("--trim", type=float, default=0.25,
                   help="interior trim fraction for the noise-variance estimate")
    p.add_argument("--margin", type=float, default=0.1,
                   help="completeness margin fraction")
    p.add_argument("--scores-quadrature", choices=("riemann", "trapezoid"),
                   default="riemann", help="integration rule for integral scores")


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--error-json", action="store_true",
                   help="print a machine-readable JSON error to stderr on failure")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (numeric output is thread-count invariant)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrecon",
        description="Reconstruct the missing segments of partially observed curves.",
    )
    parser.add_argument("--version", action="version", version=f"fdrecon {__version__}")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate mean, covariance, eigensystem and scores")
    _add_common_fit_flags(p_fit)
    p_fit.add_argument("--out-dir", required=True, help="artifact output directory")
    p_fit.add_argument("--emit-scores", action="store_true", help="also write per-curve scores")
    p_fit.set_defaults(func=cmd_fit)

    p_rec = sub.add_parser("reconstruct", help="reconstruct curves from a fitted model")
    _add_common_fit_flags(p_rec)
    p_rec.add_argument("--out-dir", required=True)
    p_rec.add_argument("--curve-id", action="append", default=None,
                       help="curve to reconstruct (repeatable; default: all partial curves)")
    p_rec.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    p_rec.add_argument("--k", default="gcv", help="truncation: integer, 'gcv' or 'fve'")
    p_rec.add_argument("--fve-threshold", type=float, default=0.99)
    p_rec.add_argument("--rho", type=float, default=None, help="ridge parameter for kraus")
    p_rec.add_argument("--iterative", action="store_true", help="route through the iterative algorithm")
    p_rec.add_argument("--strategy", choices=STRATEGIES, default="greedy-band")
    p_rec.add_argument("--rmax", type=int, default=5)
    p_rec.add_argument("--error-variance", action="store_true",
                       help="emit the pointwise error-variance diagnostic")
    p_rec.add_argument("--emit-json", action="store_true",
                       help="also write each reconstruction as JSON")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo method comparison")
    p_sim.add_argument("--dgp", type=int, required=True, choices=(1, 2, 3, 4))
    p_sim.add_argument("--n", type=int, required=True, help="curves per replication")
    p_sim.add_argument("--m", type=int, default=None, help="points per curve (dgp 1 and 2)")
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--methods", default=None,
                       help="comma-separated method list (default depends on the dgp)")
    p_sim.add_argument("--n-targets", type=int, default=50)
    p_sim.add_argument("--grid-size", type=int, default=51)
    p_sim.add_argument("--h-x", type=float, default=None)
    p_sim.add_argument("--h-mu", type=float, default=None)
    p_sim.add_argument("--h-gamma", type=float, default=None)
    p_sim.add_argument("--scores-quadrature", choices=("riemann", "trapezoid"), default="riemann")
    p_sim.add_argument("--out", required=True, help="output table CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_gcv = sub.add_parser("gcv-report", help="print the GCV table for one curve's geometry")
    _add_common_fit_flags(p_gcv)
    p_gcv.add_argument("--curve-id", required=True)
    p_gcv.add_argument("--method", required=True)
    p_gcv.add_argument("--out", default=None, help="optional output CSV")
    p_gcv.set_defaults(func=cmd_gcv_report)
    return parser


def _config_actions(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The flags a config file may set for a command, by key: the command's long flags.

    ``simulate`` also takes ``threads``, the one global flag that shapes its run.
    """
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = commands.choices[command]
    actions = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    if command == "simulate":
        actions.update((a.dest, a) for a in parser._actions if a.dest == "threads")
    return actions


_CONFIGURABLE = {
    command: set(_config_actions(build_parser(), command))
    for command in ("fit", "reconstruct", "simulate", "gcv-report")
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        if args.command == "simulate":
            args.threads = max(1, args.threads)
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc, locals().get("args"))
        return EXIT_USAGE
    except (ParseError, OSError) as exc:
        _emit_error(exc, locals().get("args"))
        return EXIT_USAGE
    except FdreconError as exc:
        _emit_error(exc, locals().get("args"))
        return EXIT_COMPUTE


def _emit_error(exc: Exception, args) -> None:
    if args is not None and getattr(args, "error_json", False):
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
