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
from dataclasses import dataclass

import numpy as np

from . import audit, bounds, oracle, signals
from . import mixture
from .bounds import TheoremConstants
from .mixture import MixtureParams, SignalSample, Trajectory
from .signals import SequenceSpec

__all__ = [
    "RunSummary",
    "run_experiment",
    "summarize",
    "run_verification",
    "render_regret_svg",
    "main",
]

DEFAULT_TOL = 1e-9
IDENTITY_TOL = 1e-12
EQUIVALENCE_TOL = 1e-12


class UsageError(Exception):
    """Bad flag combination or malformed parameter; maps to exit code 2."""


def inequality_tolerance() -> float:
    """Default 1e-9, overridable through CONVEXMIX_TOL."""
    raw = os.environ.get("CONVEXMIX_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"CONVEXMIX_TOL must be a number, got {raw!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"CONVEXMIX_TOL must be finite and positive, got {value}")
    return value


@dataclass
class RunSummary:
    """End-of-run scalars; serialized as snake_case JSON."""

    n: int
    final_lambda: float
    l_alg: float
    beta_o: float
    l_best: float
    regret: float
    norm_regret: float
    bound_total: float
    bound_normalized: float
    out_of_range_steps: int
    projected_steps: int
    clip_count: int
    theorem_valid: bool
    window: str | None = None
    window_regret: float | None = None
    window_beta: float | None = None
    window_best_loss: float | None = None
    window_bound_total: float | None = None

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        if self.window is None:
            for key in ("window", "window_regret", "window_beta",
                        "window_best_loss", "window_bound_total"):
                del data[key]
        return data


def summarize(
    traj: Trajectory,
    constants: TheoremConstants,
    *,
    clip_count: int = 0,
    window: tuple[int, int] | None = None,
) -> tuple[Trajectory, RunSummary]:
    """Return a copy of ``traj`` with its comparator columns filled in, and the summary.

    The guarantee column uses the worst case over comparator weights from
    the actual initial weight, which is ln(2)/a when the run starts at 1/2.
    Windowed figures restart the comparison at the window's opening weight.
    """
    n = len(traj)
    lambda_init = float(traj.lam[0])
    factor = bounds.loss_factor(constants)
    rb = bounds.regret_and_bound(0.0, 0.0, constants, n, lambda_init=lambda_init)
    bound_total = rb.bound_total

    s_dd, s_rd, s_rr = oracle.prefix_stats(traj.y, traj.yhat1, traj.yhat2)
    best_b, best_l = oracle.best_betas(s_dd[1:], s_rd[1:], s_rr[1:])
    cum = traj.cum_loss
    steps = np.arange(1, n + 1)
    regret = cum - factor * best_l
    frame = dataclasses.replace(
        traj,
        best_beta_prefix=best_b,
        best_loss_prefix=best_l,
        regret=regret,
        norm_regret=regret / steps,
        bound_norm=bound_total / steps,
    )
    out_of_range = int(n - traj.in_range.sum())
    summary = RunSummary(
        n=n,
        final_lambda=traj.final_state.lam,
        l_alg=float(cum[-1]),
        beta_o=float(best_b[-1]),
        l_best=float(best_l[-1]),
        regret=float(regret[-1]),
        norm_regret=float(regret[-1] / n),
        bound_total=bound_total,
        bound_normalized=bound_total / n,
        out_of_range_steps=out_of_range,
        projected_steps=int(traj.projected.sum()),
        clip_count=clip_count,
        theorem_valid=(out_of_range == 0),
    )
    if window is not None:
        lo, hi = window
        prefix = [oracle.OracleStats(k, float(s_dd[k]), float(s_rd[k]), float(s_rr[k]))
                  for k in (lo - 1, hi)]
        wbest = oracle.best_beta(oracle.subtract(prefix[1], prefix[0]))
        w_l_alg = max(float(cum[hi - 1] - (cum[lo - 2] if lo > 1 else 0.0)), 0.0)
        w_init = float(traj.lam[lo - 1])
        wrb = bounds.regret_and_bound(
            w_l_alg, wbest.loss, constants, hi - lo + 1, lambda_init=w_init
        )
        summary.window = f"{lo}:{hi}"
        summary.window_regret = wrb.regret
        summary.window_beta = wbest.beta
        summary.window_best_loss = wbest.loss
        summary.window_bound_total = wrb.bound_total
    return frame, summary


def run_experiment(
    samples,
    params: MixtureParams,
    constants: TheoremConstants,
    *,
    lambda_init: float = 0.5,
    clip_count: int = 0,
    window: tuple[int, int] | None = None,
) -> tuple[Trajectory, RunSummary]:
    """Run the combiner over ``samples`` and summarize the outcome."""
    initial = mixture.state_from_lambda(lambda_init)
    traj = mixture.run(params, samples, initial_state=initial)
    return summarize(traj, constants, clip_count=clip_count, window=window)


# ---------------------------------------------------------------------------
# verification suites

def _margin_and_telescope_suites(constants, trials, n, seed, tol):
    params = MixtureParams(
        mu=constants.mu,
        lambda_plus=constants.lambda_plus,
        y_bound=constants.y_bound,
        mode="monitor",
    )
    fixed = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    margin_failures = []
    tele_failures = []
    checked_margin = 0
    checked_tele = 0
    skipped = 0
    for i in range(trials):
        trial_seed = seed + i
        rng = np.random.default_rng(trial_seed)
        y, y1, y2 = columns = rng.uniform(-constants.y_bound, constants.y_bound, (3, n))
        rand_betas = rng.uniform(0.0, 1.0, (20, n))
        traj = mixture.run(params, columns.T)
        l0 = traj.lam
        l1 = traj.lam_after
        mask = traj.in_range
        skipped += int(n - mask.sum())
        if mask.any():
            m_fixed = bounds.per_step_margins(
                constants, fixed, l0[mask], l1[mask], y[mask], y1[mask], y2[mask]
            )
            m_rand = bounds.per_step_margins(
                constants, rand_betas[:, mask], l0[mask], l1[mask], y[mask], y1[mask], y2[mask]
            )
            checked_margin += m_fixed.size + m_rand.size
            worst = float(min(m_fixed.min(), m_rand.min()))
            if worst < -tol:
                margin_failures.append({"seed": trial_seed, "worst_margin": worst})
        lam_end = traj.final_state.lam
        log_ratio1 = np.log(l1 / l0)
        log_ratio0 = np.log((1.0 - l1) / (1.0 - l0))
        for beta in (0.0, 0.5, 1.0):
            total = float(beta * log_ratio1.sum() + (1.0 - beta) * log_ratio0.sum())
            via_kl = bounds.kl((beta, 1.0 - beta), (l0[0], 1.0 - l0[0])) - bounds.kl(
                (beta, 1.0 - beta), (lam_end, 1.0 - lam_end)
            )
            checked_tele += 1
            err = abs(total - via_kl)
            if err > tol:
                tele_failures.append({"seed": trial_seed, "beta": beta, "error": err})
    margin_suite = {
        "checked": checked_margin,
        "skipped_out_of_range_steps": skipped,
        "failures": margin_failures,
    }
    tele_suite = {"checked": checked_tele, "failures": tele_failures}
    return margin_suite, tele_suite


def _equivalence_suite(constants, trials, seed):
    failures = []
    checked = 0
    draws = 10
    for i in range(trials):
        trial_seed = seed + 50_000 + i
        rng = np.random.default_rng(trial_seed)
        for _ in range(draws):
            lam = float(rng.uniform(0.01, 0.99))
            mu = float(rng.uniform(0.01, 2.0))
            y, y1, y2 = rng.uniform(-constants.y_bound, constants.y_bound, 3)
            sample = SignalSample(float(y), float(y1), float(y2))
            params = MixtureParams(
                mu=mu, lambda_plus=constants.lambda_plus,
                y_bound=constants.y_bound, mode="monitor",
            )
            state, _ = mixture.step(params, mixture.state_from_lambda(lam), sample)
            other = mixture.multiplicative_lambda(mu, lam, sample)
            checked += 1
            diff = abs(state.lam - other)
            if diff > EQUIVALENCE_TOL:
                failures.append({"seed": trial_seed, "lam": lam, "mu": mu, "diff": diff})
    return {"checked": checked, "tolerance": EQUIVALENCE_TOL, "failures": failures}


def _oracle_suite(constants, trials, n, seed, resolution):
    failures = []
    checked = 0
    for i in range(trials):
        trial_seed = seed + 100_000 + i
        rng = np.random.default_rng(trial_seed)
        samples = rng.uniform(-constants.y_bound, constants.y_bound, (3, n)).T
        stats = oracle.stats_from(samples)
        closed = oracle.best_beta(stats)
        grid = oracle.grid_best_beta(samples, resolution)
        checked += 1
        beta_gap = abs(closed.beta - grid.beta)
        # the closed form must also price the grid's winner consistently
        cross = abs(oracle.loss_at_beta(stats, grid.beta) - grid.loss)
        scale = max(1.0, grid.loss)
        if beta_gap > resolution + 1e-12 or closed.loss > grid.loss + 1e-9 * scale or cross > 1e-9 * scale:
            failures.append({
                "seed": trial_seed, "beta_gap": beta_gap,
                "closed_loss": closed.loss, "grid_loss": grid.loss,
            })
    return {"checked": checked, "failures": failures}


def _identity_suite(constants):
    failures = list(bounds.constant_identity_errors(constants, tol=IDENTITY_TOL))
    info = {}
    try:
        roots = bounds.sufficiency_roots(constants)
        info["k1"] = roots.k1
        info["k2"] = roots.k2
        if not roots.k1_at_least_quarter:
            failures.append(f"k1 = {roots.k1!r} is below 1/4")
        if not roots.k2_within_floor:
            failures.append(f"k2 = {roots.k2!r} exceeds the floor product")
    except ValueError as exc:
        failures.append(str(exc))
    try:
        eps_back = bounds.eps_from_mu(constants.mu, constants.y_bound, constants.lambda_plus)
        info["eps_roundtrip"] = eps_back
        if abs(eps_back - constants.eps) > IDENTITY_TOL * max(1.0, abs(constants.eps)):
            failures.append(f"eps roundtrip {eps_back!r} != {constants.eps!r}")
    except ValueError as exc:
        failures.append(f"eps roundtrip: {exc}")
    return {"checked": 10, "tolerance": IDENTITY_TOL, "failures": failures, **info}


def run_verification(
    constants: TheoremConstants,
    *,
    trials: int,
    n: int,
    seed: int,
    resolution: float,
    tol: float,
) -> dict:
    """Run every verification suite; the report lists failures with seeds."""
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    if n < 1:
        raise UsageError(f"n must be at least 1, got {n}")
    if not 0.0 < resolution <= 0.1:
        raise UsageError(f"resolution must lie in (0, 0.1], got {resolution}")
    margin_suite, tele_suite = _margin_and_telescope_suites(constants, trials, n, seed, tol)
    report = {
        "tolerance": tol,
        "trials": trials,
        "n": n,
        "seed": seed,
        "constants": dataclasses.asdict(constants),
        "suites": {
            "constant_identities": _identity_suite(constants),
            "per_step_margin": margin_suite,
            "telescoping": tele_suite,
            "form_equivalence": _equivalence_suite(constants, trials, seed),
            "oracle_agreement": _oracle_suite(constants, trials, n, seed, resolution),
        },
    }
    report["all_pass"] = all(not s["failures"] for s in report["suites"].values())
    return report


# ---------------------------------------------------------------------------
# deterministic SVG rendering

def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def render_regret_svg(
    t,
    norm_regret,
    bound_norm,
    *,
    logx: bool = False,
    title: str = "normalized regret vs guarantee",
) -> str:
    """Render two series over t as a standalone SVG string.

    Pure function of its inputs: rendering the same trajectory twice yields
    byte-identical output.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(norm_regret, dtype=float)
    g = np.asarray(bound_norm, dtype=float)
    if len(t) == 0:
        raise ValueError("nothing to plot")
    x = np.log10(t) if logx else t
    width, height = 800.0, 500.0
    left, right, top, bottom = 80.0, 770.0, 50.0, 450.0

    xlo, xhi = float(x.min()), float(x.max())
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    ylo = min(0.0, float(min(r.min(), g.min())))
    yhi = max(float(max(r.max(), g.max())), ylo + 1e-12)
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return left + (v - xlo) / (xhi - xlo) * (right - left)

    def sy(v):
        return bottom - (v - ylo) / (yhi - ylo) * (bottom - top)

    x_px = sx(x).tolist()

    def poly(series: np.ndarray, color: str) -> str:
        y_px = sy(series).tolist()
        if len(t) == 1:
            return f'<circle cx="{x_px[0]:.2f}" cy="{y_px[0]:.2f}" r="4" fill="{color}"/>'
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(x_px, y_px)))
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{(left + right) / 2:.2f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for tick in _ticks(xlo, xhi):
        px = sx(tick)
        label = f"{10 ** tick:.4g}" if logx else f"{tick:.4g}"
        parts.append(
            f'<line x1="{px:.2f}" y1="{top:.2f}" x2="{px:.2f}" y2="{bottom:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{bottom + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for tick in _ticks(ylo, yhi):
        py = sy(tick)
        parts.append(
            f'<line x1="{left:.2f}" y1="{py:.2f}" x2="{right:.2f}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:.4g}</text>'
        )
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="#333333"/>'
    )
    parts.append(poly(r, "#1f77b4"))
    parts.append(poly(g, "#d62728"))
    legend_y = top + 18
    for label, color in (
        ("normalized regret", "#1f77b4"),
        ("bound: ln(2)/(a n) convention", "#d62728"),
    ):
        parts.append(
            f'<line x1="{right - 270:.2f}" y1="{legend_y:.2f}" x2="{right - 240:.2f}" '
            f'y2="{legend_y:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right - 232:.2f}" y="{legend_y + 4:.2f}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
        legend_y += 18
    xlabel = "t (log scale)" if logx else "t"
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: expected a JSON object")
    return data


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Each key of ``defaults`` from its flag, else the config file, else the default."""
    config = _load_config(args.config) if args.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise UsageError(f"config has unknown keys: {sorted(unknown)}")
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
        raise UsageError(f"output paths must be strings, got {', '.join(map(repr, paths))}")
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise UsageError(f"output paths must differ, got {', '.join(paths)}")
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"cannot write {path}: it is a directory or its directory is missing")


def _parse_window(text: str, n: int) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"window must look like A:B with integers, got {text!r}") from None
    if not 1 <= lo <= hi <= n:
        raise UsageError(f"window {lo}:{hi} is out of range for a length-{n} sequence")
    return lo, hi


def _sequence_from_args(merged: dict):
    """Resolve the sequence source; returns (samples, y_bound, clip_count, default_rate)."""
    sources = [k for k in ("case", "input", "spec") if merged[k] is not None]
    if len(sources) != 1:
        raise UsageError("choose exactly one of --case, --input, --spec")
    n = merged["n"]
    if n is not None:
        n = int(n)
        if n < 1:
            raise UsageError(f"n must be at least 1, got {n}")

    y_bound = merged["ybound"]
    if y_bound is not None:
        y_bound = float(y_bound)
    default_rate = {}
    if sources[0] == "case":
        case = int(merged["case"])
        if case not in (1, 2):
            raise UsageError(f"case must be 1 or 2, got {case}")
        spec = SequenceSpec(kind=f"case{case}", n=n or 10_000, y_bound=y_bound)
        default_rate = {"mu": 0.08 if case == 1 else 0.04}
    elif sources[0] == "input":
        spec = SequenceSpec("custom_file", n=n or 0, y_bound=y_bound, path=merged["input"])
    else:
        with open(merged["spec"]) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"sequence spec {merged['spec']}: invalid JSON ({exc})") from None
        if not isinstance(data, dict) or "kind" not in data:
            raise UsageError(f"sequence spec {merged['spec']}: expected an object with a 'kind'")
        unknown = set(data) - {field.name for field in dataclasses.fields(SequenceSpec)}
        if unknown:
            raise UsageError(f"sequence spec has unknown keys: {sorted(unknown)}")
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
    lambda_plus = float(merged["lambda_plus"])
    rate = {key: merged[key] for key in ("mu", "eps") if merged[key] is not None}
    if len(rate) == 2:
        raise UsageError("choose --mu or --eps, not both")
    if not rate:
        if not default_rate:
            raise UsageError("provide --mu or --eps for this sequence source")
        rate = default_rate
    if "eps" in rate:
        constants = bounds.constants_from_eps(float(rate["eps"]), y_bound, lambda_plus)
        return constants, constants.mu
    mu = float(rate["mu"])
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
    lambda_init = float(merged["lambda_init"])
    window = None
    if merged["window"] is not None:
        window = _parse_window(str(merged["window"]), len(samples))
    frame, summary = run_experiment(
        samples, params, constants,
        lambda_init=lambda_init, clip_count=clipped, window=window,
    )
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
    # without --mu or --eps, verify uses eps = 0.1
    constants, _ = _constants_from_args(merged, float(merged["ybound"]), {"eps": 0.1})
    if merged["override_a"] is not None:
        constants = dataclasses.replace(constants, a=float(merged["override_a"]))
    report = run_verification(
        constants, trials=int(merged["trials"]), n=int(merged["n"]), seed=int(merged["seed"]),
        resolution=float(merged["resolution"]), tol=inequality_tolerance(),
    )
    for name, suite in report["suites"].items():
        status = "ok" if not suite["failures"] else f"{len(suite['failures'])} FAILURES"
        print(f"suite {name}: {suite['checked']} checks, {status}")
    _write_json(merged["out"], report)
    print(f"report -> {merged['out']}")
    return 0 if report["all_pass"] else 1


def cmd_lemma_audit(args: argparse.Namespace) -> int:
    y_bound, lambda_plus = args.ybound, args.lambda_plus
    triple = (args.a, args.b, args.mu)
    have_triple = all(v is not None for v in triple)
    if args.eps is not None and any(v is not None for v in triple):
        raise UsageError("choose --eps or an explicit --a/--b/--mu triple, not both")
    if args.eps is None and not have_triple:
        raise UsageError("provide --eps or the full --a/--b/--mu triple")
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
    constructions = []
    for label, inst in zip(("floor", "midpoint"), audit.construction_instances(y_bound, lambda_plus)):
        rep = audit.evaluate_instance(a, b, mu, inst, tol=tol)
        constructions.append((label, inst, rep))
        flag = "VIOLATED" if rep.violated else "ok"
        print(f"construction {label}: lhs={rep.lhs:.12g} progress={rep.progress:.12g} "
              f"margin={rep.margin:.12g} [{flag}]")
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
        "constructions": {label: {**dataclasses.asdict(i), **dataclasses.asdict(r)}
                          for label, i, r in constructions},
        "violation_count": len(witnesses),
        # dicts only for the rows written
        "violations": [dict(zip(audit.WITNESS_COLUMNS, row), violated=True)
                       for row in witnesses[:cap].tolist()],
        "violations_truncated": len(witnesses) > cap,
    }
    _write_json(args.out, payload)
    print(f"witness file -> {args.out}")
    construction_hit = any(r.violated for _, _, r in constructions)
    return 1 if (len(witnesses) or construction_hit) else 0


def cmd_plot(args: argparse.Namespace) -> int:
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.input)
        out = stem + ".svg"
    if os.path.realpath(out) == os.path.realpath(args.input):
        raise UsageError(f"plot output {out} is the input file")
    frame = signals.read_trajectory(args.input)
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
        raise UsageError("provide --mu-list with comma-separated learning rates")
    try:
        mus = sorted(float(tok) for tok in str(merged["mu_list"]).split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--mu-list must be comma-separated numbers, got {merged['mu_list']!r}") from None
    if not mus:
        raise UsageError("--mu-list is empty")
    samples, y_bound, clipped, _ = _sequence_from_args(merged)
    mode = merged["mode"]
    lambda_plus = float(merged["lambda_plus"])
    lambda_init = float(merged["lambda_init"])
    out = merged["out"]
    stem, _ = os.path.splitext(out)

    # every rate is validated before anything runs or is written
    configs = [
        (mu, bounds.constants_from_mu(mu, y_bound, lambda_plus),
         MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode))
        for mu in mus
    ]
    # every summary is computed, and the table written, before any per-rate file
    rows = [(mu, constants.eps, run_experiment(samples, params, constants, lambda_init=lambda_init,
                                               clip_count=clipped)[1])
            for mu, constants, params in configs]
    with open(out, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\r\n")
        for mu, eps, s in rows:
            cells = {"mu": mu, "eps": eps, **s.to_dict()}
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(int(v))
                              for v in map(cells.get, SWEEP_COLUMNS)) + "\r\n")
    for mu, _, s in rows:
        path = f"{stem}_mu{mu:g}.json"
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # covers NumericError from the combiner and saturation in the audit
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
