"""Command-line front end.

Subcommands:

* ``run``         simulate one sequence; writes a trajectory CSV and a summary JSON
* ``verify``      deterministic randomized checks of the guarantee machinery
* ``lemma-audit`` necessary bounds and counterexample search for a constant triple
* ``plot``        deterministic SVG of normalized regret against its guarantee
* ``sweep``       run several learning rates over one sequence

Exit codes: 0 on success (``verify`` and ``lemma-audit`` reserve it for a clean
pass), 1 for found failures or witnesses, 2 for usage or input errors, 3 for
numeric failures inside a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

# the commands that call ``signals`` or ``audit`` import it, so --help and verify
# start without them; the benchmark's tracer wraps ``cli.summarize``,
# ``cli.render_regret_svg`` and ``cli.run_verification``, so those stay here
from . import bounds, mixture
from .mixture import MixtureParams
from .report import DRAWN, check_drawable, render_regret_svg, summarize, sweep
from .verify import run_verification

__all__ = ["main"]


# fallbacks that are not argparse defaults, because --mu and --eps exclude
# each other and --n depends on the source; the help strings read them too
CASE_MU = {1: 0.08, 2: 0.04}  # run's learning rate per --case
CASE_N = 10_000  # horizon of a --case sequence
VERIFY_EPS = 0.1  # verify's slack without --mu or --eps


# ---------------------------------------------------------------------------
# argument plumbing

def _read_json(path: str, what: str):
    """The parsed JSON file at ``path``; ``what`` names the file in a parse error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: invalid JSON ({exc})") from None


def _strict_json(value):
    """``value`` with each non-finite float as a string: strict JSON has no such number."""
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # "NaN", "Infinity" or "-Infinity"
    return value


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_strict_json(data), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _check_outputs(*paths: str) -> None:
    """Refuse, before any is opened, output paths that cannot all be written."""
    if "" in paths:
        raise ValueError(f"output paths must not be empty, got {', '.join(map(repr, paths))}")
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"output paths must differ, got {', '.join(paths)}")
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {path}: it is a directory or its directory is missing")


def _check_not_read(command: str, outputs, reads) -> None:
    """Refuse an output path that resolves to one of the files the command reads."""
    read = {os.path.realpath(p) for p in reads if isinstance(p, str)}
    for path in outputs:
        if os.path.realpath(path) in read:
            raise ValueError(f"{command} output {path} is the input file")


def _parse_window(text: str, n: int) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"window must look like A:B with integers, got {text!r}") from None
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"window {lo}:{hi} is out of range for a length-{n} sequence")
    return lo, hi


def _sequence_from_args(args: argparse.Namespace, outputs):
    """Resolve the sequence source; returns (samples, y_bound, clip_count, default_rate).

    Refuses an output that is --input, --spec or a spec's path before reading.
    """
    from . import signals
    if args.n is not None and args.n < 1:
        raise ValueError(f"n must be at least 1, got {args.n}")
    default_rate = {}
    if args.case is not None:
        spec = {"kind": f"case{args.case}", "n": CASE_N}
        default_rate = {"mu": CASE_MU[args.case]}
    elif args.input is not None:
        spec = {"kind": "custom_file", "path": args.input}
    else:
        spec = _read_json(args.spec, "sequence spec")
    reads = [args.input, args.spec]
    if isinstance(spec, dict) and spec.get("kind") == "custom_file":
        reads.append(spec.get("path"))
    _check_not_read(args.command, outputs, reads)
    samples, y_bound, clipped = signals.sequence_from(
        spec, n=args.n, y_bound=args.ybound, origin=f"sequence spec {args.spec}")
    return samples, y_bound, clipped, default_rate


def _constants_from_args(args: argparse.Namespace, y_bound: float, default_rate: dict):
    """Constants from --mu or --eps, else from ``default_rate`` ({"mu": x}, {"eps": x} or {})."""
    rate = {key: getattr(args, key) for key in ("mu", "eps") if getattr(args, key) is not None}
    rate = rate or default_rate
    if not rate:
        raise ValueError("provide --mu or --eps for this sequence source")
    if "eps" in rate:
        constants = bounds.constants_from_eps(rate["eps"], y_bound, args.lambda_plus)
        return constants, constants.mu
    mu = rate["mu"]
    return bounds.constants_from_mu(mu, y_bound, args.lambda_plus), mu


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args: argparse.Namespace) -> int:
    from . import signals
    _check_outputs(args.out, args.summary)
    samples, y_bound, clipped, default_rate = _sequence_from_args(args, (args.out, args.summary))
    constants, mu = _constants_from_args(args, y_bound, default_rate)
    params = MixtureParams(mu=mu, lambda_plus=constants.lambda_plus, y_bound=y_bound,
                           mode=args.mode)
    window = None
    if args.window is not None:
        window = _parse_window(args.window, len(samples))
    traj = mixture.run(params, samples, lambda_init=args.lambda_init)
    frame, summary = summarize(traj, constants, clip_count=clipped, window=window)
    signals.write_trajectory(frame, args.out)
    _write_json(args.summary, summary)
    print(
        f"n={summary['n']} loss={summary['l_alg']:.6g} best_beta={summary['beta_o']:.6g} "
        f"regret={summary['regret']:.6g} bound={summary['bound_total']:.6g} "
        f"-> {args.out}, {args.summary}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_outputs(args.out)
    constants, _ = _constants_from_args(args, args.ybound, {"eps": VERIFY_EPS})
    if args.override_a is not None:
        constants = dataclasses.replace(constants, a=args.override_a)
    report = run_verification(constants, trials=args.trials, n=args.n, seed=args.seed)
    for name, suite in report["suites"].items():
        status = "ok" if not suite["failures"] else f"{len(suite['failures'])} FAILURES"
        print(f"suite {name}: {suite['checked']} checks, {status}")
    _write_json(args.out, report)
    print(f"report -> {args.out}")
    return 0 if report["all_pass"] else 1


def cmd_lemma_audit(args: argparse.Namespace) -> int:
    from . import audit
    _check_outputs(args.out)
    triple = (args.a, args.b, args.mu)
    if args.eps is not None and any(v is not None for v in triple):
        raise ValueError("choose --eps or an explicit --a/--b/--mu triple, not both")
    if args.eps is None and None in triple:
        raise ValueError("provide --eps or the full --a/--b/--mu triple")
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    if args.eps is not None:
        constants = bounds.constants_from_eps(args.eps, args.ybound, args.lambda_plus)
        triple = (constants.a, constants.b, constants.mu)
    payload, lines, passed = audit.audit_triple(*triple, args.lambda_plus, args.ybound, args.budget,
                                                args.seed)
    print("\n".join(lines))
    _write_json(args.out, payload)
    print(f"witness file -> {args.out}")
    return 0 if passed else 1


def cmd_plot(args: argparse.Namespace) -> int:
    from . import signals
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.input)
        out = stem + ".svg"
    _check_not_read("plot", (out,), (args.input,))
    _check_outputs(out)
    frame = signals.read_trajectory(args.input, keep=DRAWN)
    check_drawable(args.input, frame, bool(args.logx))
    svg = render_regret_svg(frame.t, frame.norm_regret, frame.bound_norm, logx=bool(args.logx))
    with open(out, "w") as fh:
        fh.write(svg)
    print(f"plot -> {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import signals
    try:
        mus = sorted(float(tok) for tok in args.mu_list.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--mu-list must be comma-separated numbers, got {args.mu_list!r}") from None
    if not mus:
        raise ValueError("--mu-list is empty")
    out = args.out
    # alone first, so an empty or unwritable table path is named by itself
    _check_outputs(out)
    stem, _ = os.path.splitext(out)
    # two rates that print alike would write one file
    paths = [f"{stem}_mu{mu:g}.json" for mu in mus]
    _check_outputs(out, *paths)
    samples, y_bound, clipped, _ = _sequence_from_args(args, (out, *paths))
    table, summaries = sweep(samples, mus, y_bound, args.lambda_plus, mode=args.mode,
                             lambda_init=args.lambda_init, clip_count=clipped)
    # the table is written before any per-rate file
    signals.write_table(out, table)
    for path, mu, s in zip(paths, mus, summaries):
        _write_json(path, s)
        print(f"mu={mu:g}: loss={s['l_alg']:.6g} regret={s['regret']:.6g} "
              f"bound={s['bound_total']:.6g} -> {path}")
    print(f"sweep table -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_floor_flag(p: argparse.ArgumentParser):
    p.add_argument("--lambda-plus", dest="lambda_plus", type=float, default=0.08,
                   help="weight floor (default %(default)s)")


def _add_sequence_flags(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", type=int, choices=(1, 2), help="built-in benchmark sequence")
    source.add_argument("--input", help="CSV file with columns y,yhat1,yhat2")
    source.add_argument("--spec", help="JSON sequence spec file")
    p.add_argument("--n", type=int, help=f"horizon (default {CASE_N} for --case)")
    _add_floor_flag(p)
    p.add_argument("--lambda-init", dest="lambda_init", type=float, default=0.5,
                   help="initial weight (default %(default)s)")
    p.add_argument("--ybound", type=float, help="magnitude cap")
    p.add_argument("--mode", choices=mixture.MODES, default="project",
                   help="range handling (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexmix",
        description="online convex mixture of two experts, with guarantee verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one sequence")
    _add_sequence_flags(p_run)
    rate = p_run.add_mutually_exclusive_group()
    rate.add_argument("--mu", type=float, help=f"learning rate (default {CASE_MU[1]} for --case 1, "
                                               f"{CASE_MU[2]} for --case 2)")
    rate.add_argument("--eps", type=float, help="slack parameter (alternative to --mu)")
    p_run.add_argument("--window", help="A:B inclusive 1-based step window for local regret")
    p_run.add_argument("--out", default="trajectory.csv",
                       help="trajectory CSV path (default %(default)s)")
    p_run.add_argument("--summary", default="summary.json",
                       help="summary JSON path (default %(default)s)")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="check the guarantee machinery")
    rate = p_ver.add_mutually_exclusive_group()
    rate.add_argument("--mu", type=float, help="learning rate (alternative to --eps)")
    rate.add_argument("--eps", type=float, help=f"slack parameter (default {VERIFY_EPS})")
    _add_floor_flag(p_ver)
    p_ver.add_argument("--ybound", type=float, default=1.0, help="magnitude cap (default %(default)s)")
    p_ver.add_argument("--trials", type=int, default=100,
                       help="random sequences per suite (default %(default)s)")
    p_ver.add_argument("--n", type=int, default=500, help="steps per sequence (default %(default)s)")
    p_ver.add_argument("--seed", type=int, default=7, help="base seed (default %(default)s)")
    p_ver.add_argument("--override-a", dest="override_a", type=float,
                       help="replace the progress coefficient, for sanity checks")
    p_ver.add_argument("--out", default="verify_report.json",
                       help="report JSON path (default %(default)s)")
    p_ver.set_defaults(func=cmd_verify)

    p_lem = sub.add_parser("lemma-audit", help="stress the per-step requirement")
    p_lem.add_argument("--eps", type=float, help="derive (a, b, mu) from this slack")
    p_lem.add_argument("--a", type=float, help="progress coefficient")
    p_lem.add_argument("--b", type=float, help="comparator coefficient")
    p_lem.add_argument("--mu", type=float, help="learning rate")
    _add_floor_flag(p_lem)
    p_lem.add_argument("--ybound", type=float, default=1.0, help="magnitude cap (default %(default)s)")
    p_lem.add_argument("--budget", type=int, default=20_000,
                       help="instances to evaluate (default %(default)s)")
    p_lem.add_argument("--seed", type=int, default=0,
                       help="seed for the random fill (default %(default)s)")
    p_lem.add_argument("--out", default="lemma_witnesses.json",
                       help="witness JSON path (default %(default)s)")
    p_lem.set_defaults(func=cmd_lemma_audit)

    p_plot = sub.add_parser("plot", help="SVG of normalized regret vs its guarantee")
    p_plot.add_argument("--input", required=True, help="trajectory CSV from `run`")
    p_plot.add_argument("--out", help="SVG path (default: input with .svg)")
    p_plot.add_argument("--logx", action="store_true", help="logarithmic step axis")
    p_plot.set_defaults(func=cmd_plot)

    p_sweep = sub.add_parser("sweep", help="run several learning rates")
    _add_sequence_flags(p_sweep)
    p_sweep.add_argument("--mu-list", dest="mu_list", required=True,
                         help="comma-separated learning rates")
    p_sweep.add_argument("--out", default="sweep.csv",
                         help="combined table CSV path (default %(default)s)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
