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
from typing import NamedTuple

import numpy as np

from .mixture import sample_columns

__all__ = [
    "OracleStats",
    "GridBest",
    "stats_from",
    "prefix_stats",
    "quadratic_loss",
    "best_betas",
    "grid_best_beta",
]


class OracleStats(NamedTuple):
    """Sufficient statistics of the hindsight loss; ``[1:]`` is :func:`best_betas`' input."""

    n: int = 0
    s_dd: float = 0.0
    s_rd: float = 0.0
    s_rr: float = 0.0


def prefix_stats(y: np.ndarray, yhat1: np.ndarray, yhat2: np.ndarray):
    """Statistics of every prefix: arrays ``(s_dd, s_rd, s_rr)`` of length n+1.

    Entry k sums the first k samples in stream order starting from 0.0;
    ``np.cumsum`` adds strictly left to right, so every entry is
    bit-identical to a left-to-right fold of the samples.
    """
    d = yhat1 - yhat2
    r = y - yhat2
    return tuple(np.cumsum(np.concatenate(([0.0], v))) for v in (d * d, r * d, r * r))


def stats_from(samples) -> OracleStats:
    """Statistics of a whole ``(n, 3)`` sequence."""
    columns = sample_columns(samples)
    return OracleStats(columns.shape[1], *(float(p[-1]) for p in prefix_stats(*columns)))


def quadratic_loss(s_dd, s_rd, s_rr, beta):
    """Total squared loss of the fixed weight ``beta``, elementwise over the sums."""
    loss = s_rr - 2.0 * beta * s_rd + beta * beta * s_dd
    # the quadratic is a sum of squares; clamp float cancellation noise
    return np.where(0.0 > loss, 0.0, loss)


def best_betas(s_dd, s_rd, s_rr):
    """Minimizer of the hindsight loss over [0, 1]: ``(beta, loss)``, from arrays or floats.

    The clamp is Python's ``min(max(ratio, 0.0), 1.0)``, signed zeros and NaN
    included; where the experts coincide everywhere (``s_dd == 0``) it is 0.5.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(s_rd, s_dd)
    clamped = np.where(0.0 > ratio, 0.0, ratio)
    clamped = np.where(1.0 < clamped, 1.0, clamped)
    beta = np.where(s_dd <= 0.0, 0.5, clamped)
    return beta, quadratic_loss(s_dd, s_rd, s_rr, beta)


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

    ``samples`` is an ``(n, 3)`` array.  Sums the residuals ``r - beta*d``
    directly for every grid point; ties go to the smallest weight.
    Independent of :func:`best_betas` by construction.
    """
    y, y1, y2 = sample_columns(samples)
    if not len(y):
        raise ValueError("sequence must be non-empty")
    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must lie in (0, 0.1], got {resolution}")
    grid = _beta_grid(resolution)
    losses = np.empty(len(grid))
    r, d = y - y2, y1 - y2
    # a chunk of grid points at a time, in place in one reused buffer small
    # enough to stay in cache
    chunk = max(1, GRID_CHUNK // len(y))
    buffer = np.empty((min(chunk, len(grid)), len(y)))
    for start in range(0, len(grid), chunk):
        betas = grid[start : start + chunk, None]
        residual = buffer[: len(betas)]
        np.multiply(betas, d, out=residual)
        np.subtract(r, residual, out=residual)
        losses[start : start + len(betas)] = np.einsum("ij,ij->i", residual, residual)
    i = int(np.argmin(losses))
    return GridBest(float(grid[i]), float(losses[i]))
