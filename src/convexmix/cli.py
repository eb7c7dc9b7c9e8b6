"""Command-line front end.

Subcommands:

* ``run``         simulate one sequence; writes a trajectory CSV and a summary JSON
* ``verify``      deterministic randomized checks of the guarantee machinery
* ``lemma-audit`` necessary bounds and counterexample search for a constant triple
* ``plot``        deterministic SVG of normalized regret against its guarantee
* ``sweep``       run several learning rates over one sequence

Exit codes: 0 on success (``verify`` and ``lemma-audit`` reserve it for a clean
pass), 1 for found failures or witnesses, 2 for usage or input errors, 3 for
numeric failures inside a run.  The environment variable ``CONVEXMIX_TOL``
overrides the default inequality tolerance of 1e-9.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import audit, bounds, signals
from . import mixture
from .mixture import MixtureParams
from .report import render_regret_svg, summarize
from .signals import SequenceSpec
from .verify import run_verification

__all__ = ["main"]


def inequality_tolerance() -> float:
    """Default 1e-9, overridable through CONVEXMIX_TOL."""
    raw = os.environ.get("CONVEXMIX_TOL")
    if raw is None:
        return audit.DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"CONVEXMIX_TOL must be a number, got {raw!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"CONVEXMIX_TOL must be finite and positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# argument plumbing

def _read_json(path: str, what: str):
    """The parsed JSON file at ``path``; ``what`` names the file in a parse error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: invalid JSON ({exc})") from None


# the JSON values a config key may hold, by its flag's argparse type
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 None: ((str,), "a string")}


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Each key of ``defaults`` from its flag, else the config file, else the default.

    A config value has its flag's type, as ``args.flag_types`` gives it: a
    JSON integer, a number (made a float) or a string, never a boolean;
    null leaves the key unset.  Output paths are left to
    :func:`_check_outputs`, which names them all.
    """
    config = _read_json(args.config, "config") if args.config else {}
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"config has unknown keys: {sorted(unknown)}")
    for key, value in config.items():
        if value is None or key in ("out", "summary"):
            continue
        flag_type = args.flag_types[key]
        kinds, what = _CONFIG_TYPES[flag_type]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"config key {key} must be {what}, got {json.dumps(value)}")
        config[key] = flag_type(value) if flag_type else value
    merged = dict(defaults)
    for layer in (config, {key: getattr(args, key) for key in defaults}):
        merged.update((key, value) for key, value in layer.items() if value is not None)
    return merged


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _check_outputs(*paths: str) -> None:
    """Refuse, before any is opened, output paths that cannot all be written."""
    if not all(isinstance(p, str) for p in paths):
        raise ValueError(f"output paths must be strings, got {', '.join(map(repr, paths))}")
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"output paths must differ, got {', '.join(paths)}")
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {path}: it is a directory or its directory is missing")


def _parse_window(text: str, n: int) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"window must look like A:B with integers, got {text!r}") from None
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"window {lo}:{hi} is out of range for a length-{n} sequence")
    return lo, hi


def _sequence_from_args(merged: dict):
    """Resolve the sequence source; returns (samples, y_bound, clip_count, default_rate)."""
    sources = [k for k in ("case", "input", "spec") if merged[k] is not None]
    if len(sources) != 1:
        raise ValueError("choose exactly one of --case, --input, --spec")
    n, y_bound = merged["n"], merged["ybound"]
    if n is not None and n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    default_rate = {}
    if sources[0] == "case":
        case = merged["case"]
        if case not in (1, 2):
            raise ValueError(f"case must be 1 or 2, got {case}")
        spec = SequenceSpec(kind=f"case{case}", n=n or 10_000, y_bound=y_bound)
        default_rate = {"mu": 0.08 if case == 1 else 0.04}
    elif sources[0] == "input":
        spec = SequenceSpec("custom_file", n=n or 0, y_bound=y_bound, path=merged["input"])
    else:
        data = _read_json(merged["spec"], "sequence spec")
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError(f"sequence spec {merged['spec']}: expected an object with a 'kind'")
        unknown = set(data) - {field.name for field in dataclasses.fields(SequenceSpec)}
        if unknown:
            raise ValueError(f"sequence spec has unknown keys: {sorted(unknown)}")
        spec = SequenceSpec(**data)
        if y_bound is not None:
            spec = dataclasses.replace(spec, y_bound=y_bound)
        if n is not None:
            spec = dataclasses.replace(spec, n=n)
    resolved = signals.resolve(spec)
    if resolved.kind == "custom_file":
        samples, clipped = signals.load_sequence(resolved)
    else:
        samples, clipped = signals.generate(resolved), 0
    return samples, resolved.y_bound, clipped, default_rate


def _constants_from_args(merged: dict, y_bound: float, default_rate: dict):
    """Constants from --mu or --eps, else from ``default_rate`` ({"mu": x}, {"eps": x} or {})."""
    lambda_plus = merged["lambda_plus"]
    rate = {key: merged[key] for key in ("mu", "eps") if merged[key] is not None}
    if len(rate) == 2:
        raise ValueError("choose --mu or --eps, not both")
    if not rate:
        if not default_rate:
            raise ValueError("provide --mu or --eps for this sequence source")
        rate = default_rate
    if "eps" in rate:
        constants = bounds.constants_from_eps(rate["eps"], y_bound, lambda_plus)
        return constants, constants.mu
    mu = rate["mu"]
    return bounds.constants_from_mu(mu, y_bound, lambda_plus), mu


# ---------------------------------------------------------------------------
# subcommands

RUN_DEFAULTS = {
    "case": None, "input": None, "spec": None, "n": None, "mu": None, "eps": None,
    "lambda_plus": 0.08, "ybound": None, "mode": "project", "window": None,
    "out": "trajectory.csv", "summary": "summary.json", "lambda_init": 0.5,
}


def cmd_run(args: argparse.Namespace) -> int:
    merged = _merged(args, RUN_DEFAULTS)
    out, summary_path = merged["out"], merged["summary"]
    _check_outputs(out, summary_path)
    samples, y_bound, clipped, default_rate = _sequence_from_args(merged)
    constants, mu = _constants_from_args(merged, y_bound, default_rate)
    params = MixtureParams(mu=mu, lambda_plus=constants.lambda_plus, y_bound=y_bound,
                           mode=merged["mode"])
    window = None
    if merged["window"] is not None:
        window = _parse_window(merged["window"], len(samples))
    traj = mixture.run(params, samples, initial_state=mixture.state_from_lambda(merged["lambda_init"]))
    frame, summary = summarize(traj, constants, clip_count=clipped, window=window)
    signals.write_trajectory(frame, out)
    _write_json(summary_path, summary.to_dict())
    print(
        f"n={summary.n} loss={summary.l_alg:.6g} best_beta={summary.beta_o:.6g} "
        f"regret={summary.regret:.6g} bound={summary.bound_total:.6g} "
        f"-> {out}, {summary_path}"
    )
    return 0


VERIFY_DEFAULTS = {
    "eps": None, "mu": None, "lambda_plus": 0.08, "ybound": 1.0, "trials": 100, "n": 500,
    "seed": 7, "resolution": 0.01, "override_a": None, "out": "verify_report.json",
}


def cmd_verify(args: argparse.Namespace) -> int:
    merged = _merged(args, VERIFY_DEFAULTS)
    _check_outputs(merged["out"])
    # without --mu or --eps, verify uses eps = 0.1
    constants, _ = _constants_from_args(merged, merged["ybound"], {"eps": 0.1})
    if merged["override_a"] is not None:
        constants = dataclasses.replace(constants, a=merged["override_a"])
    report = run_verification(
        constants, trials=merged["trials"], n=merged["n"], seed=merged["seed"],
        resolution=merged["resolution"], tol=inequality_tolerance(),
    )
    for name, suite in report["suites"].items():
        status = "ok" if not suite["failures"] else f"{len(suite['failures'])} FAILURES"
        print(f"suite {name}: {suite['checked']} checks, {status}")
    _write_json(merged["out"], report)
    print(f"report -> {merged['out']}")
    return 0 if report["all_pass"] else 1


def cmd_lemma_audit(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    y_bound, lambda_plus = args.ybound, args.lambda_plus
    triple = (args.a, args.b, args.mu)
    if args.eps is not None and any(v is not None for v in triple):
        raise ValueError("choose --eps or an explicit --a/--b/--mu triple, not both")
    if args.eps is None and None in triple:
        raise ValueError("provide --eps or the full --a/--b/--mu triple")
    if args.eps is not None:
        constants = bounds.constants_from_eps(args.eps, y_bound, lambda_plus)
        a, b, mu = constants.a, constants.b, constants.mu
    else:
        a, b, mu = triple
    tol = inequality_tolerance()

    lb = audit.lemma_bounds(a, mu, lambda_plus)
    print(f"closed-form bounds: mu >= {lb.mu_min:.12g} (necessary), "
          f"b >= {lb.b_min_via_mu:.12g} (via mu, conservative), "
          f"b >= {lb.b_min_combined:.12g} (combined, conservative)")
    constructions = {}
    for label, instance in zip(("floor", "midpoint"), audit.construction_instances(y_bound, lambda_plus)):
        try:
            *_, lhs, progress, margin = row = audit.evaluate_instance(a, b, mu, *instance)
        except mixture.NumericError as exc:
            raise mixture.NumericError(f"construction {label}: {exc}") from None
        constructions[label] = dict(zip(audit.WITNESS_COLUMNS, row), violated=margin < -tol)
        flag = "VIOLATED" if margin < -tol else "ok"
        print(f"construction {label}: lhs={lhs:.12g} progress={progress:.12g} "
              f"margin={margin:.12g} [{flag}]")
    budget, seed = args.budget, args.seed
    witnesses = audit.search_violations(a, b, mu, lambda_plus, y_bound, budget, seed, tol=tol)
    print(f"searched {budget} instances: {len(witnesses)} violations")
    if len(witnesses):
        y, y1, y2, lam, beta, _, _, margin = witnesses[0].tolist()
        print(f"worst: margin={margin:.12g} at y={y:.6g} yhat1={y1:.6g} "
              f"yhat2={y2:.6g} lambda={lam:.6g} beta={beta:.6g}")

    cap = 1000
    payload = {
        "a": a, "b": b, "mu": mu,
        "lambda_plus": lambda_plus, "y_bound": y_bound,
        "tolerance": tol, "budget": budget, "seed": seed,
        "lemma_bounds": lb._asdict(),
        "constructions": constructions,
        "violation_count": len(witnesses),
        # dicts only for the rows written
        "violations": [dict(zip(audit.WITNESS_COLUMNS, row), violated=True)
                       for row in witnesses[:cap].tolist()],
        "violations_truncated": len(witnesses) > cap,
    }
    _write_json(args.out, payload)
    print(f"witness file -> {args.out}")
    construction_hit = any(c["violated"] for c in constructions.values())
    return 1 if (len(witnesses) or construction_hit) else 0


def _check_drawable(path: str, frame, logx: bool) -> None:
    """Refuse a non-finite drawn value, or a step t <= 0 on a log axis, naming its row."""
    bad = []
    for name in ("t", "norm_regret", "bound_norm"):
        column = getattr(frame, name)
        wrong = ~np.isfinite(column)
        if logx and name == "t":
            wrong |= column <= 0
        if wrong.any():
            i = int(np.argmax(wrong))
            bad.append((i, name, column[i]))
    if bad:
        i, name, value = min(bad, key=lambda b: b[0])
        need = "a positive step for --logx" if name == "t" else "a finite value"
        raise ValueError(f"{path}: row {i + 2}: column {name} is {value}; plot needs {need}")


def cmd_plot(args: argparse.Namespace) -> int:
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.input)
        out = stem + ".svg"
    if os.path.realpath(out) == os.path.realpath(args.input):
        raise ValueError(f"plot output {out} is the input file")
    _check_outputs(out)
    frame = signals.read_trajectory(args.input)
    _check_drawable(args.input, frame, bool(args.logx))
    svg = render_regret_svg(frame.t, frame.norm_regret, frame.bound_norm, logx=bool(args.logx))
    with open(out, "w") as fh:
        fh.write(svg)
    print(f"plot -> {out}")
    return 0


SWEEP_DEFAULTS = {
    "case": None, "input": None, "spec": None, "n": None, "mu_list": None,
    "lambda_plus": 0.08, "ybound": None, "mode": "project", "out": "sweep.csv",
    "lambda_init": 0.5,
}
# the columns of the sweep table, one row per rate
SWEEP_COLUMNS = ("mu", "eps", "n", "l_alg", "beta_o", "l_best", "regret", "norm_regret",
                 "bound_total", "bound_normalized", "out_of_range_steps", "projected_steps",
                 "theorem_valid")


def cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merged(args, SWEEP_DEFAULTS)
    if not merged["mu_list"]:
        raise ValueError("provide --mu-list with comma-separated learning rates")
    try:
        mus = sorted(float(tok) for tok in merged["mu_list"].split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--mu-list must be comma-separated numbers, got {merged['mu_list']!r}") from None
    if not mus:
        raise ValueError("--mu-list is empty")
    out = merged["out"]
    _check_outputs(out)  # a string, so its stem can name the per-rate files
    stem, _ = os.path.splitext(out)
    # two rates that print alike would write one file
    paths = [f"{stem}_mu{mu:g}.json" for mu in mus]
    _check_outputs(out, *paths)
    samples, y_bound, clipped, _ = _sequence_from_args(merged)
    mode = merged["mode"]
    lambda_plus = merged["lambda_plus"]
    initial = mixture.state_from_lambda(merged["lambda_init"])

    # every rate is validated before anything runs or is written
    configs = [
        (mu, bounds.constants_from_mu(mu, y_bound, lambda_plus),
         MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode))
        for mu in mus
    ]
    # every summary is computed, and the table written, before any per-rate file
    rows = [(mu, constants.eps, summarize(mixture.run(params, samples, initial_state=initial),
                                          constants, clip_count=clipped)[1])
            for mu, constants, params in configs]
    with open(out, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\r\n")
        for mu, eps, s in rows:
            cells = {"mu": mu, "eps": eps, **s.to_dict()}
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(int(v))
                              for v in map(cells.get, SWEEP_COLUMNS)) + "\r\n")
    for path, (mu, _, s) in zip(paths, rows):
        _write_json(path, s.to_dict())
        print(f"mu={mu:g}: loss={s.l_alg:.6g} regret={s.regret:.6g} "
              f"bound={s.bound_total:.6g} -> {path}")
    print(f"sweep table -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_sequence_flags(p: argparse.ArgumentParser):
    p.add_argument("--case", type=int, choices=(1, 2), help="built-in benchmark sequence")
    p.add_argument("--input", help="CSV file with columns y,yhat1,yhat2")
    p.add_argument("--spec", help="JSON sequence spec file")
    p.add_argument("--n", type=int, help="horizon (default 10000 for --case)")
    p.add_argument("--lambda-plus", dest="lambda_plus", type=float,
                   help="weight floor (default 0.08)")
    p.add_argument("--ybound", type=float, help="magnitude cap")
    p.add_argument("--mode", choices=mixture.MODES, help="range handling (default project)")
    p.add_argument("--config", help="JSON config file; flags override its keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexmix",
        description="online convex mixture of two experts, with guarantee verification",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="simulate one sequence")
    _add_sequence_flags(p_run)
    p_run.add_argument("--mu", type=float, help="learning rate")
    p_run.add_argument("--eps", type=float, help="slack parameter (alternative to --mu)")
    p_run.add_argument("--lambda-init", dest="lambda_init", type=float,
                       help="initial weight (default 0.5)")
    p_run.add_argument("--window", help="A:B inclusive 1-based step window for local regret")
    p_run.add_argument("--out", help="trajectory CSV path (default trajectory.csv)")
    p_run.add_argument("--summary", help="summary JSON path (default summary.json)")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="check the guarantee machinery")
    p_ver.add_argument("--eps", type=float, help="slack parameter (default 0.1)")
    p_ver.add_argument("--mu", type=float, help="learning rate (alternative to --eps)")
    p_ver.add_argument("--lambda-plus", dest="lambda_plus", type=float,
                       help="weight floor (default 0.08)")
    p_ver.add_argument("--ybound", type=float, help="magnitude cap (default 1.0)")
    p_ver.add_argument("--trials", type=int, help="random sequences per suite (default 100)")
    p_ver.add_argument("--n", type=int, help="steps per sequence (default 500)")
    p_ver.add_argument("--seed", type=int, help="base seed (default 7)")
    p_ver.add_argument("--resolution", type=float,
                       help="grid step for the oracle suite (default 0.01)")
    p_ver.add_argument("--override-a", dest="override_a", type=float,
                       help="replace the progress coefficient, for sanity checks")
    p_ver.add_argument("--out", help="report JSON path (default verify_report.json)")
    p_ver.add_argument("--config", help="JSON config file; flags override its keys")
    p_ver.set_defaults(func=cmd_verify)

    p_lem = sub.add_parser("lemma-audit", help="stress the per-step requirement")
    p_lem.add_argument("--eps", type=float, help="derive (a, b, mu) from this slack")
    p_lem.add_argument("--a", type=float, help="progress coefficient")
    p_lem.add_argument("--b", type=float, help="comparator coefficient")
    p_lem.add_argument("--mu", type=float, help="learning rate")
    p_lem.add_argument("--lambda-plus", dest="lambda_plus", type=float, default=0.08,
                       help="weight floor (default 0.08)")
    p_lem.add_argument("--ybound", type=float, default=1.0, help="magnitude cap (default 1.0)")
    p_lem.add_argument("--budget", type=int, default=20_000,
                       help="instances to evaluate (default 20000)")
    p_lem.add_argument("--seed", type=int, default=0, help="seed for the random fill (default 0)")
    p_lem.add_argument("--out", default="lemma_witnesses.json",
                       help="witness JSON path (default lemma_witnesses.json)")
    p_lem.set_defaults(func=cmd_lemma_audit)

    p_plot = sub.add_parser("plot", help="SVG of normalized regret vs its guarantee")
    p_plot.add_argument("--input", required=True, help="trajectory CSV from `run`")
    p_plot.add_argument("--out", help="SVG path (default: input with .svg)")
    p_plot.add_argument("--logx", action="store_true", help="logarithmic step axis")
    p_plot.set_defaults(func=cmd_plot)

    p_sweep = sub.add_parser("sweep", help="run several learning rates")
    _add_sequence_flags(p_sweep)
    p_sweep.add_argument("--mu-list", dest="mu_list",
                         help="comma-separated learning rates")
    p_sweep.add_argument("--lambda-init", dest="lambda_init", type=float,
                         help="initial weight (default 0.5)")
    p_sweep.add_argument("--out", help="combined table CSV path (default sweep.csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    for p in (p_run, p_ver, p_sweep):
        # the type each --config key must have is its flag's
        p.set_defaults(flag_types={action.dest: action.type for action in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ArithmeticError as exc:
        # covers NumericError from the combiner and saturation in the audit
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
