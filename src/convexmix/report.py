"""The report of one run: the summary written as JSON, with the comparator
columns it fills in, and the SVG of normalized regret against its guarantee;
and the table of one sequence's summaries over several learning rates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bounds, mixture, oracle
from .bounds import TheoremConstants
from .mixture import MixtureParams, Trajectory

__all__ = ["summarize", "sweep", "DRAWN", "check_drawable", "render_regret_svg"]


def summarize(
    traj: Trajectory,
    constants: TheoremConstants,
    *,
    clip_count: int = 0,
    window: tuple[int, int] | None = None,
) -> tuple[Trajectory, dict]:
    """Return a copy of ``traj`` with its comparator columns filled in, and the summary.

    The summary is the dict written as ``summary.json``, in its key order; a
    windowed run adds the five ``window`` keys at its end.

    The guarantee column uses the worst case over comparator weights from
    the actual initial weight, which is ln(2)/a when the run starts at 1/2.
    Windowed figures restart the comparison at the window's opening weight.
    ``theorem_valid`` says every step stayed in range, the theorem's
    hypothesis; ``bound_holds`` says the regret stayed at or below
    ``bound_total`` at every prefix, its conclusion, and
    ``first_bound_cross_t`` is the first step where it did not (0 if none).
    """
    n = len(traj)
    lambda_init = float(traj.lam[0])
    prefix = oracle.prefix_stats(traj.y, traj.yhat1, traj.yhat2)
    best_b, best_l = oracle.best_betas(*(s[1:] for s in prefix))
    cum = traj.cum_loss
    rb = bounds.regret_and_bound(cum, best_l, constants, traj.t, lambda_init=lambda_init)
    frame = dataclasses.replace(
        traj,
        best_beta_prefix=best_b,
        best_loss_prefix=best_l,
        regret=rb.regret,
        norm_regret=rb.regret / traj.t,
        bound_norm=rb.bound_normalized,
    )
    out_of_range = int(n - traj.in_range.sum())
    crossed = ~(frame.regret <= rb.bound_total)  # a NaN regret crosses too
    first_cross = int(np.argmax(crossed)) + 1 if crossed.any() else 0
    summary = {
        "n": n,
        "final_lambda": traj.final_lambda,
        "l_alg": float(cum[-1]),
        "beta_o": float(best_b[-1]),
        "l_best": float(best_l[-1]),
        "regret": float(frame.regret[-1]),
        "norm_regret": float(frame.norm_regret[-1]),
        "bound_total": rb.bound_total,
        "bound_normalized": float(frame.bound_norm[-1]),
        "out_of_range_steps": out_of_range,
        "projected_steps": int(traj.projected.sum()),
        "clip_count": clip_count,
        "theorem_valid": out_of_range == 0,
        "bound_holds": not first_cross,
        "first_bound_cross_t": first_cross,
    }
    if window is not None:
        lo, hi = window
        # the window's statistics are differences of the prefix columns
        w_beta, w_best = map(float, oracle.best_betas(*(s[hi] - s[lo - 1] for s in prefix)))
        w_l_alg = max(float(cum[hi - 1] - (cum[lo - 2] if lo > 1 else 0.0)), 0.0)
        w_init = float(traj.lam[lo - 1])
        wrb = bounds.regret_and_bound(
            w_l_alg, w_best, constants, hi - lo + 1, lambda_init=w_init
        )
        summary.update(window=f"{lo}:{hi}", window_regret=wrb.regret, window_beta=w_beta,
                       window_best_loss=w_best, window_bound_total=wrb.bound_total)
    return frame, summary


def sweep(samples: np.ndarray, mus, y_bound: float, lambda_plus: float, *, mode: str,
          lambda_init: float = 0.5, clip_count: int = 0) -> tuple[dict, list[dict]]:
    """Run one sequence at each learning rate of ``mus``; returns the table and the summaries.

    Every rate is validated before any runs.  The table maps each column to
    one entry per rate: ``mu``, ``eps``, then the summary's keys but
    ``final_lambda`` and ``clip_count``, in the summary's order.
    """
    configs = [(bounds.constants_from_mu(mu, y_bound, lambda_plus),
                MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode))
               for mu in mus]
    summaries = [summarize(mixture.run(params, samples, lambda_init=lambda_init), constants,
                           clip_count=clip_count)[1] for constants, params in configs]
    table = {"mu": list(mus), "eps": [constants.eps for constants, _ in configs],
             **{key: [s[key] for s in summaries] for key in summaries[0]
                if key not in ("final_lambda", "clip_count")}}
    return table, summaries


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _pixel_envelope(x_px: np.ndarray, y_px: np.ndarray) -> np.ndarray:
    """Indices, in path order, of the points a polyline keeps.

    Consecutive points whose ``x_px`` share an integer part form a run.  A
    run of at most four points is kept whole; a longer one keeps its first
    and last point and its lowest and highest ``y_px`` (the first of tied
    lows and the last of tied highs).
    """
    n = len(x_px)
    col = np.floor(x_px)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    lengths = np.diff(np.append(starts, n))
    # sorted by run, then by height: each run keeps its positions, lowest first
    order = np.lexsort((y_px, np.repeat(np.arange(len(starts)), lengths)))
    keep = np.repeat(lengths <= 4, lengths)
    ends = starts + lengths - 1
    keep[starts] = keep[ends] = keep[order[starts]] = keep[order[ends]] = True
    return np.flatnonzero(keep)


# the trajectory columns the SVG draws; plot reads no other
DRAWN = ("t", "norm_regret", "bound_norm")


def check_drawable(path: str, frame: Trajectory, logx: bool) -> None:
    """Refuse a non-finite drawn value, or a step t <= 0 on a log axis, naming its first row."""
    columns = [getattr(frame, name) for name in DRAWN]
    wrong = ~np.isfinite(np.stack(columns, axis=1))
    if logx:
        wrong[:, DRAWN.index("t")] |= frame.t <= 0
    if wrong.any():
        i, j = divmod(int(np.argmax(wrong)), len(DRAWN))
        need = "a positive step for --logx" if DRAWN[j] == "t" else "a finite value"
        raise ValueError(f"{path}: row {i + 2}: column {DRAWN[j]} is {columns[j][i]}; plot needs {need}")


def render_regret_svg(t, norm_regret, bound_norm, *, logx: bool = False) -> str:
    """Render two series over t as a standalone SVG string.

    Pure function of its inputs: rendering the same trajectory twice yields
    byte-identical output.  The inputs must be finite (and ``t`` positive
    under ``logx``): :func:`check_drawable` refuses a file that breaks this.
    The axes span the full series; each polyline keeps, per run of
    consecutive points in one integer pixel column, the first, last, lowest
    and highest point (M4 aggregation, Jugel et al., VLDB 2014), so the
    drawn envelope is that of every point and the SVG's size is bounded by
    the plot's width, not by ``len(t)``.  A run of at most four points is
    kept whole.
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

    x_px = sx(x)

    def poly(series: np.ndarray, color: str) -> str:
        y_px = sy(series)
        if len(t) == 1:
            return f'<circle cx="{x_px[0]:.2f}" cy="{y_px[0]:.2f}" r="4" fill="{color}"/>'
        kept = _pixel_envelope(x_px, y_px)
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(x_px[kept].tolist(), y_px[kept].tolist())))
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'

    def line(x1, y1, x2, y2, stroke: str, stroke_width: int) -> str:
        return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{stroke}" stroke-width="{stroke_width}"/>')

    def text(x, y, body: str, anchor: str | None = "middle", size: int = 12) -> str:
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        return (f'<text x="{x:.2f}" y="{y:.2f}"{anchor} '
                f'font-family="sans-serif" font-size="{size}">{body}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{(left + right) / 2:.2f}" y="28" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">normalized regret vs guarantee</text>',
    ]
    for tick in _ticks(xlo, xhi):
        px = sx(tick)
        label = f"{10 ** tick:.4g}" if logx else f"{tick:.4g}"
        parts += [line(px, top, px, bottom, "#dddddd", 1), text(px, bottom + 20, label)]
    for tick in _ticks(ylo, yhi):
        py = sy(tick)
        parts += [line(left, py, right, py, "#dddddd", 1), text(left - 8, py + 4, f"{tick:.4g}", "end")]
    parts += [
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="#333333"/>',
        poly(r, "#1f77b4"),
        poly(g, "#d62728"),
    ]
    for legend_y, label, color in ((top + 18, "normalized regret", "#1f77b4"),
                                   (top + 36, "bound: ln(2)/(a n) convention", "#d62728")):
        parts += [line(right - 270, legend_y, right - 240, legend_y, color, 2),
                  text(right - 232, legend_y + 4, label, None)]
    parts += [text((left + right) / 2, height - 12, "t (log scale)" if logx else "t", size=13), "</svg>"]
    return "\n".join(parts) + "\n"
