"""Best fixed convex weight in hindsight.

For a fixed weight beta the total loss over the stream is a quadratic in
beta, fully determined by three running sums.  With d = yhat1 - yhat2 and
r = y - yhat2,

    loss(beta) = sum(r^2) - 2*beta*sum(r*d) + beta^2*sum(d^2)

so the stats are additive under concatenation and the minimizer over [0, 1]
is the clamped ratio sum(r*d) / sum(d^2).  The statistics of every prefix
are whole columns; their differences are the statistics of any interval,
and :func:`best_betas` prices any array of them.  A brute-force grid
search over beta is kept as an independent check; it evaluates residuals
directly and never touches the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mixture import sample_columns

__all__ = [
    "OracleStats",
    "BestBeta",
    "GridBest",
    "accumulate",
    "stats_from",
    "prefix_stats",
    "best_betas",
    "loss_at_beta",
    "best_beta",
    "grid_best_beta",
]


@dataclass(frozen=True)
class OracleStats:
    """Sufficient statistics of the hindsight loss quadratic."""

    n: int = 0
    s_dd: float = 0.0
    s_rd: float = 0.0
    s_rr: float = 0.0


def accumulate(stats: OracleStats, y: float, yhat1: float, yhat2: float) -> OracleStats:
    """Fold one sample into the statistics."""
    d = yhat1 - yhat2
    r = y - yhat2
    return OracleStats(
        n=stats.n + 1,
        s_dd=stats.s_dd + d * d,
        s_rd=stats.s_rd + r * d,
        s_rr=stats.s_rr + r * r,
    )


def prefix_stats(y: np.ndarray, yhat1: np.ndarray, yhat2: np.ndarray):
    """Statistics of every prefix: arrays ``(s_dd, s_rd, s_rr)`` of length n+1.

    Entry k sums the first k samples in stream order starting from 0.0, as
    folding :func:`accumulate` does; ``np.cumsum`` adds strictly left to
    right, so every entry is bit-identical to the fold.
    """
    d = yhat1 - yhat2
    r = y - yhat2
    return tuple(np.cumsum(np.concatenate(([0.0], v))) for v in (d * d, r * d, r * r))


def stats_from(samples) -> OracleStats:
    """Statistics of a whole ``(n, 3)`` sequence."""
    columns = sample_columns(samples)
    return OracleStats(columns.shape[1], *(float(p[-1]) for p in prefix_stats(*columns)))


def loss_at_beta(stats: OracleStats, beta: float) -> float:
    """Total squared loss of the fixed weight ``beta`` on the summarized stream."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {beta}")
    value = stats.s_rr - 2.0 * beta * stats.s_rd + beta * beta * stats.s_dd
    # the quadratic is a sum of squares; clamp float cancellation noise
    return max(value, 0.0)


class BestBeta(NamedTuple):
    beta: float
    loss: float
    degenerate: bool


def best_beta(stats: OracleStats) -> BestBeta:
    """Minimizer of the hindsight loss over [0, 1].

    When the experts coincide everywhere (s_dd == 0) every weight is
    optimal; the midpoint is reported with ``degenerate`` set.
    """
    if stats.n < 1:
        raise ValueError("need at least one sample")
    if stats.s_dd <= 0.0:
        return BestBeta(0.5, loss_at_beta(stats, 0.5), True)
    beta = min(max(stats.s_rd / stats.s_dd, 0.0), 1.0)
    return BestBeta(beta, loss_at_beta(stats, beta), False)


def best_betas(s_dd: np.ndarray, s_rd: np.ndarray, s_rr: np.ndarray):
    """:func:`best_beta` over arrays of statistics: ``(beta, loss)`` arrays.

    The same arithmetic as the scalar form; Python's ``max(v, 0.0)`` and
    ``min(v, 1.0)`` are spelled out so signed zeros and NaN come out alike.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_rd / s_dd
    clamped = np.where(0.0 > ratio, 0.0, ratio)
    clamped = np.where(1.0 < clamped, 1.0, clamped)
    beta = np.where(s_dd <= 0.0, 0.5, clamped)
    loss = s_rr - 2.0 * beta * s_rd + beta * beta * s_dd
    return beta, np.where(0.0 > loss, 0.0, loss)


# grid points times samples evaluated at once by :func:`grid_best_beta`
GRID_CHUNK = 1 << 15


class GridBest(NamedTuple):
    beta: float
    loss: float


def _beta_grid(resolution: float) -> np.ndarray:
    count = math.floor(1.0 / resolution + 1e-9)
    grid = np.minimum(np.arange(count + 1) * resolution, 1.0)
    if grid[-1] < 1.0:
        grid = np.append(grid, 1.0)
    return grid


def grid_best_beta(samples, resolution: float) -> GridBest:
    """Brute-force search over the weight grid {0, resolution, ..., 1}.

    ``samples`` is an ``(n, 3)`` array.  Evaluates the residual sum
    directly for every grid point; ties go to the smallest weight.
    Independent of :func:`best_beta` by construction.
    """
    y, y1, y2 = sample_columns(samples)
    if not len(y):
        raise ValueError("sequence must be non-empty")
    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must lie in (0, 0.1], got {resolution}")
    grid = _beta_grid(resolution)
    losses = np.empty(len(grid))
    # residual = y - (beta*y1 + (1-beta)*y2), evaluated in place in two
    # reused buffers small enough to stay in cache
    chunk = max(1, GRID_CHUNK // len(y))
    residual = np.empty((min(chunk, len(grid)), len(y)))
    other = np.empty_like(residual)
    for start in range(0, len(grid), chunk):
        betas = grid[start : start + chunk, None]
        r, o = residual[: len(betas)], other[: len(betas)]
        np.multiply(betas, y1, out=r)
        np.multiply(1.0 - betas, y2, out=o)
        r += o
        np.subtract(y, r, out=r)
        losses[start : start + len(betas)] = np.einsum("ij,ij->i", r, r)
    i = int(np.argmin(losses))
    return GridBest(float(grid[i]), float(losses[i]))
