"""Stress tests for the per-step progress requirement.

A constant triple (a, b, mu) only supports the guarantee if the per-step
inequality

    a*e^2 - b*e_beta^2  <=  beta*ln(l'/l) + (1-beta)*ln((1-l')/(1-l))

survives the worst admissible instance (y, yhat1, yhat2, lam, beta).  This
module evaluates two closed-form worst-case candidates exactly, reports the
necessary rate bound the first of them forces, and searches a structured grid
plus random draws for counterexamples to arbitrary triples.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bounds import DEFAULT_TOL, cap_squared, per_step_margin, requirement_sides, z_of
from .mixture import NumericError, logistic_lambdas

__all__ = [
    "check_triple",
    "construction_instances",
    "evaluate_instance",
    "search_violations",
    "audit_triple",
    "WITNESS_COLUMNS",
]

# the columns of a witness row returned by search_violations
WITNESS_COLUMNS = ("y", "yhat1", "yhat2", "lambda_t", "beta", "lhs", "progress", "margin")
# rows of instance space evaluated at once by the search; a block's float64
# temporary, 128,000 bytes, stays below glibc's 128 KiB mmap threshold
BLOCK = 16_000
# witnesses listed in the audit's payload, the worst first; its count covers all
WITNESS_CAP = 1000


def check_triple(a: float, b: float, mu: float) -> None:
    """Refuse a non-positive or infinite a, b or mu: infinities make uncounted NaN margins."""
    if not (a > 0.0 and b > 0.0 and mu > 0.0):
        raise ValueError(f"a, b, mu must be positive, got a={a}, b={b}, mu={mu}")
    if not all(map(math.isfinite, (a, b, mu))):
        raise ValueError(f"a, b, mu must be finite, got a={a}, b={b}, mu={mu}")


def construction_instances(y_bound: float, lambda_plus: float) -> tuple[tuple, tuple]:
    """The two closed-form worst-case candidates, as ``(y, yhat1, yhat2, lambda_t, beta)``.

    First: target and expert 1 at the cap, expert 2 silent, weight at the
    floor, comparator fully on expert 1.  Second: target at -Y/2 between a
    silent expert 1 and expert 2 at the cap, weight at the midpoint,
    comparator fully on expert 1.
    """
    z_of(lambda_plus)  # refuses a floor outside (0, 1/2)
    cap_squared(y_bound)  # refuses a cap outside [1e-150, 1e150]
    return (y_bound, y_bound, 0.0, lambda_plus, 1.0), (-y_bound / 2.0, 0.0, y_bound, 0.5, 1.0)


def evaluate_instance(
    a: float, b: float, mu: float, y: float, yhat1: float, yhat2: float, lambda_t: float, beta: float
) -> tuple:
    """The row of :data:`WITNESS_COLUMNS` at one instance; the search's scalar reference.

    The updated weight is :func:`mixture.logistic_lambdas` at this one
    instance, the combiner's update, so a negative margin is a genuine
    counterexample; the two sides are those of :func:`bounds.per_step_margin`.
    """
    if not 0.0 < lambda_t < 1.0:
        raise ValueError(f"current weight must lie strictly inside (0, 1), got {lambda_t}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"comparator weight must lie in [0, 1], got {beta}")
    lam1 = float(logistic_lambdas(mu, lambda_t, y, yhat1, yhat2))
    lhs, progress = per_step_margin(a, b, beta, lambda_t, lam1, y, yhat1, yhat2)
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
    each field streams from its own generator advanced there.  The draws
    land in the buffer and are scaled there, ``lo + (hi - lo)*u`` as
    ``rng.uniform`` computes it.  A view holds at most :data:`BLOCK`
    instances and is refilled in place, so callers copy what they keep.
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
            u = rng.random(out=row[g:])
            u *= hi - lo
            u += lo
        yield block


def search_violations(
    a: float,
    b: float,
    mu: float,
    lambda_plus: float,
    y_bound: float,
    budget: int,
    seed: int,
) -> np.ndarray:
    """Look for counterexamples to the requirement under (a, b, mu).

    Evaluates a structured grid first (level sets of the signals, the floor
    and midpoint weights, endpoint and midpoint comparators), then fills the
    remaining budget with seeded uniform draws.  Fully deterministic for a
    fixed seed.  Returns the violating instances, worst first, as a
    ``(k, 8)`` float64 array with the columns of :data:`WITNESS_COLUMNS`.

    The instances are generated and evaluated :data:`BLOCK` at a time
    (see :func:`_instance_blocks`) through the array kernels
    ``mixture.logistic_lambdas`` and ``bounds.requirement_sides``, so memory is one
    block of five float64 columns and its temporaries whatever the budget;
    only the witnesses grow with it.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    check_triple(a, b, mu)
    z_of(lambda_plus)  # refuses a floor outside (0, 1/2)
    cap_squared(y_bound)  # refuses a cap outside [1e-150, 1e150]

    hits = []
    for block in _instance_blocks(budget, seed, y_bound, lambda_plus):
        y, y1, y2, lam, beta = block
        lam1 = logistic_lambdas(mu, lam, y, y1, y2)
        lhs, progress = requirement_sides(a, b, beta, lam, lam1, y, y1, y2)
        margin = progress - lhs
        at = np.flatnonzero(margin < -DEFAULT_TOL)
        # the fancy index copies the rows before the buffer is refilled
        hits.append(np.vstack((block[:, at], lhs[at], progress[at], margin[at])))

    # worst first, ties broken by the instance fields in order (a stable sort)
    found = np.concatenate(hits, axis=1)
    return found.T[np.lexsort(found[[4, 3, 2, 1, 0, 7]])]


def audit_triple(a: float, b: float, mu: float, lambda_plus: float, y_bound: float, budget: int,
                 seed: int) -> tuple[dict, list[str], bool]:
    """The audit of (a, b, mu): the JSON ``lemma-audit`` writes, the lines it prints, and a pass.

    The rate bound, the two constructions and the search are all evaluated
    before any line is made.  The payload counts every witness and lists
    the worst :data:`WITNESS_CAP`; the audit passes when it has no witness
    and no violated construction.

    The bound is the one the floor construction forces: with
    k0 = lambda_plus*(1-lambda_plus) its progress is at most mu*k0*e^2
    against a loss side of a*e^2, so mu >= a/k0 is necessary.
    """
    def witness_dicts(rows):  # WITNESS_COLUMNS rows; violated: margin below -DEFAULT_TOL
        return [dict(zip(WITNESS_COLUMNS, row), violated=row[-1] < -DEFAULT_TOL) for row in rows]

    check_triple(a, b, mu)
    instances = construction_instances(y_bound, lambda_plus)
    mu_min = a / (lambda_plus * (1.0 - lambda_plus))  # k0 > 0: the floor was refused outside (0, 1/2)
    labels, rows = ("floor", "midpoint"), []
    for label, instance in zip(labels, instances):
        try:
            rows.append(evaluate_instance(a, b, mu, *instance))
        except NumericError as exc:
            raise NumericError(f"construction {label}: {exc}") from None
    constructions = dict(zip(labels, witness_dicts(rows)))
    witnesses = search_violations(a, b, mu, lambda_plus, y_bound, budget, seed)
    listed = witness_dicts(witnesses[:WITNESS_CAP].tolist())  # dicts only for the rows written

    lines = [f"closed-form bounds: mu >= {mu_min:.12g} (necessary)"]
    lines += [f"construction {label}: lhs={c['lhs']:.12g} progress={c['progress']:.12g} "
              f"margin={c['margin']:.12g} [{'VIOLATED' if c['violated'] else 'ok'}]"
              for label, c in constructions.items()]
    lines.append(f"searched {budget} instances: {len(witnesses)} violations")
    if listed:
        w = listed[0]
        lines.append(f"worst: margin={w['margin']:.12g} at y={w['y']:.6g} yhat1={w['yhat1']:.6g} "
                     f"yhat2={w['yhat2']:.6g} lambda={w['lambda_t']:.6g} beta={w['beta']:.6g}")
    payload = {
        "a": a, "b": b, "mu": mu,
        "lambda_plus": lambda_plus, "y_bound": y_bound,
        "tolerance": DEFAULT_TOL, "budget": budget, "seed": seed,
        "lemma_bounds": {"mu_min": mu_min},
        "constructions": constructions,
        "violation_count": len(witnesses),
        "violations": listed,
        "violations_truncated": len(witnesses) > WITNESS_CAP,
    }
    passed = not len(witnesses) and not any(c["violated"] for c in constructions.values())
    return payload, lines, passed
