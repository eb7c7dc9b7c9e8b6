"""The report of one run: the summary written as JSON, with the comparator
columns it fills in, and the SVG of normalized regret against its guarantee.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import bounds, oracle
from .bounds import TheoremConstants
from .mixture import Trajectory

__all__ = ["RunSummary", "summarize", "render_regret_svg"]


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

    prefix = oracle.prefix_stats(traj.y, traj.yhat1, traj.yhat2)
    best_b, best_l = oracle.best_betas(*(s[1:] for s in prefix))
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
        # the window's statistics are differences of the prefix columns
        w_beta, w_best = map(float, oracle.best_betas(*(s[hi] - s[lo - 1] for s in prefix)))
        w_l_alg = max(float(cum[hi - 1] - (cum[lo - 2] if lo > 1 else 0.0)), 0.0)
        w_init = float(traj.lam[lo - 1])
        wrb = bounds.regret_and_bound(
            w_l_alg, w_best, constants, hi - lo + 1, lambda_init=w_init
        )
        summary.window = f"{lo}:{hi}"
        summary.window_regret = wrb.regret
        summary.window_beta = w_beta
        summary.window_best_loss = w_best
        summary.window_bound_total = wrb.bound_total
    return frame, summary



def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


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
    byte-identical output.  The inputs must be finite (and ``t`` positive
    under ``logx``).  The axes span the full series; each polyline keeps,
    per run of consecutive points in one integer pixel column, the first,
    last, lowest and highest point (M4 aggregation, Jugel et al., VLDB
    2014), so the drawn envelope is that of every point and the SVG's size
    is bounded by the plot's width, not by ``len(t)``.  A run of at most
    four points is kept whole.
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
