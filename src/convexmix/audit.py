"""Stress tests for the per-step progress requirement.

A constant triple (a, b, mu) only supports the guarantee if the per-step
inequality

    a*e^2 - b*e_beta^2  <=  beta*ln(l'/l) + (1-beta)*ln((1-l')/(1-l))

survives the worst admissible instance (y, yhat1, yhat2, lam, beta).  This
module evaluates two closed-form worst-case candidates exactly, reports the
classical lower bounds associated with them, and searches a structured grid
plus random draws for counterexamples to arbitrary triples.  Exact
evaluation is authoritative; the closed-form b bounds are conservative (see
:func:`lemma_bounds`).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .bounds import requirement_sides
from .mixture import multiplicative_lambda, multiplicative_lambdas

__all__ = [
    "LemmaBounds",
    "lemma_bounds",
    "construction_instances",
    "evaluate_instance",
    "search_violations",
    "WITNESS_COLUMNS",
]

DEFAULT_TOL = 1e-9
# the columns of a witness row returned by search_violations
WITNESS_COLUMNS = ("y", "yhat1", "yhat2", "lambda_t", "beta", "lhs", "progress", "margin")
# rows of instance space evaluated at once by the search
BLOCK = 1 << 14


class LemmaBounds(NamedTuple):
    mu_min: float
    b_min_via_mu: float
    b_min_combined: float


def lemma_bounds(a: float, mu: float, lambda_plus: float) -> LemmaBounds:
    """Closed-form lower bounds associated with the two constructions.

    The floor-weight construction genuinely forces mu >= a / k0 with
    k0 = lambda_plus*(1-lambda_plus): its progress is capped by
    mu*k0*(1-lambda_plus)^2*Y^2 while the loss side charges
    a*(1-lambda_plus)^2*Y^2.  The b figures — 4*a + mu/4 from a linearized
    reading of the midpoint construction, and 4*a + a/(4*k0) after
    substituting the mu bound — are conservative: exact evaluation of that
    instance (its progress is positive, not negative) admits smaller b, and
    the search confirms triples below these figures can still hold
    everywhere.  They are reported for reference, not enforced.
    """
    if not (a > 0.0 and mu > 0.0):
        raise ValueError(f"a and mu must be positive, got a={a}, mu={mu}")
    if not 0.0 < lambda_plus < 0.5:
        raise ValueError(f"weight floor must lie in (0, 1/2), got {lambda_plus}")
    k0 = lambda_plus * (1.0 - lambda_plus)
    return LemmaBounds(a / k0, 4.0 * a + mu / 4.0, 4.0 * a + a / (4.0 * k0))


def construction_instances(y_bound: float, lambda_plus: float) -> tuple[tuple, tuple]:
    """The two closed-form worst-case candidates, as ``(y, yhat1, yhat2, lambda_t, beta)``.

    First: target and expert 1 at the cap, expert 2 silent, weight at the
    floor, comparator fully on expert 1.  Second: target at -Y/2 between a
    silent expert 1 and expert 2 at the cap, weight at the midpoint,
    comparator fully on expert 1.
    """
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
    if not 0.0 < lambda_plus < 0.5:
        raise ValueError(f"weight floor must lie in (0, 1/2), got {lambda_plus}")
    return (y_bound, y_bound, 0.0, lambda_plus, 1.0), (-y_bound / 2.0, 0.0, y_bound, 0.5, 1.0)


def evaluate_instance(
    a: float, b: float, mu: float, y: float, yhat1: float, yhat2: float, lambda_t: float, beta: float
) -> tuple:
    """The row of :data:`WITNESS_COLUMNS` at one instance; the search's scalar reference.

    The updated weight comes from the true multiplicative update, not from
    any bound on it, so a negative margin is a genuine counterexample.
    """
    if not 0.0 < lambda_t < 1.0:
        raise ValueError(f"current weight must lie strictly inside (0, 1), got {lambda_t}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"comparator weight must lie in [0, 1], got {beta}")
    lam1 = multiplicative_lambda(mu, lambda_t, y, yhat1, yhat2)
    e = y - (lambda_t * yhat1 + (1.0 - lambda_t) * yhat2)
    e_beta = y - (beta * yhat1 + (1.0 - beta) * yhat2)
    progress = beta * math.log(lam1 / lambda_t) + (1.0 - beta) * math.log(
        (1.0 - lam1) / (1.0 - lambda_t)
    )
    lhs = a * e * e - b * e_beta * e_beta
    return y, yhat1, yhat2, lambda_t, beta, lhs, progress, progress - lhs


def _grid(y_bound: float, lambda_plus: float) -> np.ndarray:
    # (1875, 5) rows of (y, yhat1, yhat2, lambda_t, beta)
    levels = (-y_bound, -y_bound / 2.0, 0.0, y_bound / 2.0, y_bound)
    lams = (lambda_plus, 0.25, 0.5, 0.75, 1.0 - lambda_plus)
    betas = (0.0, 0.5, 1.0)
    return np.array(list(itertools.product(levels, levels, levels, lams, betas)), dtype=float)


def _instance_blocks(budget: int, seed: int, y_bound: float, lambda_plus: float):
    """Yield the search's instances in order, as ``(5, k)`` views of one buffer.

    The rows are (y, yhat1, yhat2, lambda_t, beta): the grid, then the
    draws one ``default_rng(seed)`` makes field after field.  A uniform
    double takes one 64-bit output, so field f starts at output f*draws;
    each field streams from its own generator advanced there.  A view holds
    at most :data:`BLOCK` instances and is refilled in place, so callers
    copy what they keep.
    """
    grid = _grid(y_bound, lambda_plus)[:budget].T
    draws = budget - grid.shape[1]
    ranges = [(-y_bound, y_bound)] * 3 + [(lambda_plus, 1.0 - lambda_plus), (0.0, 1.0)]
    streams = []
    if draws:  # no generator is built for the grid alone
        for f in range(5):
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(f * draws)
            streams.append(rng)
    buf = np.empty((5, min(BLOCK, budget)))
    for start in range(0, budget, BLOCK):
        block = buf[:, : min(BLOCK, budget - start)]
        fixed = grid[:, start : start + BLOCK]
        g = fixed.shape[1]
        block[:, :g] = fixed
        for row, rng, (lo, hi) in zip(block, streams, ranges):
            row[g:] = rng.uniform(lo, hi, block.shape[1] - g)
        yield block


def search_violations(
    a: float,
    b: float,
    mu: float,
    lambda_plus: float,
    y_bound: float,
    budget: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Look for counterexamples to the requirement under (a, b, mu).

    Evaluates a structured grid first (level sets of the signals, the floor
    and midpoint weights, endpoint and midpoint comparators), then fills the
    remaining budget with seeded uniform draws.  Fully deterministic for a
    fixed seed.  Returns the violating instances, worst first, as a
    ``(k, 8)`` float64 array with the columns of :data:`WITNESS_COLUMNS`.

    The instances are generated and evaluated :data:`BLOCK` at a time
    (see :func:`_instance_blocks`) through the array kernels
    ``multiplicative_lambdas`` and ``bounds.requirement_sides``, so memory is one
    block of five float64 columns and its temporaries whatever the budget;
    only the witnesses grow with it.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not (a > 0.0 and b > 0.0 and mu > 0.0):
        raise ValueError(f"a, b, mu must be positive, got a={a}, b={b}, mu={mu}")
    if not 0.0 < lambda_plus < 0.5:
        raise ValueError(f"weight floor must lie in (0, 1/2), got {lambda_plus}")
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")

    hits = []
    for block in _instance_blocks(budget, seed, y_bound, lambda_plus):
        y, y1, y2, lam, beta = block
        lam1 = multiplicative_lambdas(mu, lam, y, y1, y2)
        lhs, progress = requirement_sides(a, b, beta, lam, lam1, y, y1, y2)
        margin = progress - lhs
        at = np.flatnonzero(margin < -tol)
        # the fancy index copies the rows before the buffer is refilled
        hits.append(np.vstack((block[:, at], lhs[at], progress[at], margin[at])))

    # worst first, ties broken by the instance fields in order (a stable sort)
    found = np.concatenate(hits, axis=1)
    return found.T[np.lexsort(found[[4, 3, 2, 1, 0, 7]])]
