"""Constants and per-step accounting for the regret guarantee.

The guarantee compares the combiner's total loss against the best fixed
weight in hindsight, inflated by a constant factor.  Everything is driven
by a slack parameter eps > 0, the magnitude cap Y, and the weight floor
lambda_plus, through

    z = (1 - 4*k0) / (1 + 4*k0),      k0 = lambda_plus * (1 - lambda_plus)
    b = eps / Y^2
    a = (1 - z^2) * eps / (Y^2 * (2*eps + 1))
    s = Y^2 / 2 + 1 / (4*b)
    mu = (2 + 2*z) / s

These satisfy 4*a*s = 1 - z^2 and sqrt(1 - 4*a*s) = z exactly, and the
map eps -> mu inverts to eps = mu / (4*c - 2*mu) with c = (2 + 2*z) / Y^2,
valid for 0 < mu < 2*c.

The per-step requirement behind the guarantee is that for every comparator
weight beta,

    a*e_t^2 - b*e_beta^2  <=  beta*ln(l'/l) + (1-beta)*ln((1-l')/(1-l))

whenever the current weight l lies in [lambda_plus, 1 - lambda_plus].
The right side telescopes as a difference of divergences from (beta, 1-beta)
to the weight vector, which is what turns the per-step inequality into a
total-loss bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TheoremConstants",
    "SufficiencyRoots",
    "RegretBound",
    "z_of",
    "cap_squared",
    "constants_from_eps",
    "eps_from_mu",
    "mu_supremum",
    "constants_from_mu",
    "kl",
    "loss_factor",
    "DEFAULT_TOL",
    "IDENTITY_TOL",
    "per_step_margin",
    "log_ratios",
    "requirement_sides",
    "per_step_margins",
    "sufficiency_roots",
    "regret_and_bound",
    "constant_identity_errors",
]


@dataclass(frozen=True)
class TheoremConstants:
    """The full constant set of the guarantee for one (eps, Y, lambda_plus)."""

    eps: float
    y_bound: float
    lambda_plus: float
    z: float
    a: float
    b: float
    s: float
    mu: float


def z_of(lambda_plus: float) -> float:
    """Contraction coefficient of the admissible weight range."""
    if not 0.0 < lambda_plus < 0.5:
        raise ValueError(f"weight floor must lie in (0, 1/2), got {lambda_plus}")
    k0 = lambda_plus * (1.0 - lambda_plus)
    return (1.0 - 4.0 * k0) / (1.0 + 4.0 * k0)


def cap_squared(y_bound: float) -> float:
    """Y^2, refusing a cap outside [1e-150, 1e150]; every admissible cap is checked here.

    The constants divide by Y^2 and by eps/Y^2 and scale them by factors of
    about 10; within this range none of them leaves the normal floats.
    """
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
    if not 1e-150 <= y_bound <= 1e150:
        raise ValueError(f"magnitude cap must lie within [1e-150, 1e150], got {y_bound}")
    return y_bound * y_bound


def constants_from_eps(eps: float, y_bound: float, lambda_plus: float) -> TheoremConstants:
    """Derive the whole constant set from the slack parameter.

    Refuses an eps whose b or a leaves the normal floats (s then stays
    within them), or whose mu rounds up to :func:`mu_supremum`.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"slack parameter must be finite and positive, got {eps}")
    y2 = cap_squared(y_bound)
    z = z_of(lambda_plus)
    b = eps / y2
    a = (1.0 - z * z) * eps / (y2 * (2.0 * eps + 1.0))
    for name, value in (("b", b), ("a", a)):
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise ValueError(f"slack parameter {eps!r} gives {name} = {value!r} at magnitude cap "
                             f"{y_bound!r}, outside the normal floats")
    s = y2 / 2.0 + 1.0 / (4.0 * b)
    mu = (2.0 + 2.0 * z) / s
    sup = mu_supremum(y_bound, lambda_plus)
    if not mu < sup:
        raise ValueError(f"slack parameter {eps!r} rounds the learning rate up to its "
                         f"supremum {sup!r} for this cap and floor")
    c = TheoremConstants(eps=eps, y_bound=y_bound, lambda_plus=lambda_plus, z=z, a=a, b=b, s=s, mu=mu)
    bad = constant_identity_errors(c)
    if bad:
        raise ArithmeticError(f"derived constants violate their identities: {bad}")
    return c


def mu_supremum(y_bound: float, lambda_plus: float) -> float:
    """Least upper bound of learning rates reachable by some slack eps > 0."""
    y2 = cap_squared(y_bound)
    return 2.0 * (2.0 + 2.0 * z_of(lambda_plus)) / y2


def eps_from_mu(mu: float, y_bound: float, lambda_plus: float) -> float:
    """Invert the eps -> mu map: eps = mu / (4*c - 2*mu), c = (2+2z)/Y^2."""
    sup = mu_supremum(y_bound, lambda_plus)
    if not (math.isfinite(mu) and 0.0 < mu < sup):
        raise ValueError(
            f"learning rate must lie in the open interval (0, {sup!r}) "
            f"for this cap and floor, got {mu}"
        )
    c = (2.0 + 2.0 * z_of(lambda_plus)) / (y_bound * y_bound)
    return mu / (4.0 * c - 2.0 * mu)


def constants_from_mu(mu: float, y_bound: float, lambda_plus: float) -> TheoremConstants:
    """Constant set whose learning rate matches ``mu``; a refusal names ``mu``."""
    eps = eps_from_mu(mu, y_bound, lambda_plus)
    try:
        return constants_from_eps(eps, y_bound, lambda_plus)
    except ValueError as exc:
        raise ValueError(f"learning rate {mu!r}: {exc}") from None


def kl(beta: float, lam: float) -> float:
    """Divergence from (beta, 1-beta) to (lam, 1-lam), in nats.

    A zero comparator component contributes nothing; a zero weight component
    against a positive comparator one makes the divergence infinite.
    """
    if not (0.0 <= beta <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"weights must lie in [0, 1], got {beta} and {lam}")
    total = 0.0
    for ui, wi in ((beta, lam), (1.0 - beta, 1.0 - lam)):
        if ui > 0.0:
            if wi <= 0.0:
                return math.inf
            total += ui * math.log(ui / wi)
    return max(total, 0.0)


def loss_factor(constants: TheoremConstants) -> float:
    """Multiplier applied to the hindsight loss in the regret definition."""
    return (2.0 * constants.eps + 1.0) / (1.0 - constants.z * constants.z)


# how far below zero a per-step margin may fall and still meet the requirement
DEFAULT_TOL = 1e-9
# how far a constant identity, or a sufficiency root's bracket check, may miss at unit scale
IDENTITY_TOL = 1e-12


def per_step_margin(a, b, beta, lam, lam1, y, y1, y2):
    """The requirement's two sides ``(lhs, progress)`` at one instance, as floats, unchecked.

    The scalar twin of :func:`requirement_sides`, with the same arguments
    and the same operation order; the weights must lie strictly inside (0, 1).
    """
    e = y - (lam * y1 + (1.0 - lam) * y2)
    e_beta = y - (beta * y1 + (1.0 - beta) * y2)
    progress = beta * math.log(lam1 / lam) + (1.0 - beta) * math.log((1.0 - lam1) / (1.0 - lam))
    return a * e * e - b * e_beta * e_beta, progress


def log_ratios(lam, lam1):
    """The progress's factors without ``beta``: ln(lam1/lam) and ln((1-lam1)/(1-lam))."""
    return np.log(lam1 / lam), np.log((1.0 - lam1) / (1.0 - lam))


def requirement_sides(a, b, beta, lam, lam1, y, y1, y2):
    """The requirement's two sides ``(lhs, progress)`` over broadcast arrays, unchecked.

    The margin is progress - lhs; the weights must lie strictly inside (0, 1).
    The factors without ``beta`` (the two log ratios and a*e*e) come first,
    at their own shape, so a block of comparator rows takes each log once
    per step.  The terms with ``beta`` then go into three float64 buffers
    of the broadcast shape, never into an argument; the two sides are two
    of them.
    """
    log1, log0 = log_ratios(lam, lam1)
    e = y - (lam * y1 + (1.0 - lam) * y2)
    aee = a * e * e
    shape = np.broadcast(beta, lam, lam1, y, y1, y2).shape
    beta_rest = 1.0 - beta
    progress = np.multiply(beta, log1, out=np.empty(shape))
    term = np.multiply(beta_rest, log0, out=np.empty(shape))
    progress += term
    # e_beta = y - (beta*y1 + (1-beta)*y2) in term, then b*e_beta*e_beta
    np.multiply(beta, y1, out=term)
    lhs = np.multiply(beta_rest, y2, out=np.empty(shape))
    term += lhs
    np.subtract(y, term, out=term)
    np.multiply(b, term, out=lhs)
    lhs *= term
    return np.subtract(aee, lhs, out=lhs), progress


def per_step_margins(
    constants: TheoremConstants,
    betas,
    lambda_t,
    lambda_t1,
    y,
    yhat1,
    yhat2,
) -> np.ndarray:
    """Vectorized margins, one row per comparator weight, one column per step.

    ``betas`` may be a vector of shared weights or a full (k, n) matrix of
    per-step weights.  All weight inputs must lie strictly inside (0, 1).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim == 1:
        betas = betas[:, None]
    l0, l1 = (np.asarray(v, dtype=float)[None, :] for v in (lambda_t, lambda_t1))
    for lam in (l0, l1):
        # written so that a NaN weight fails
        if not ((0.0 < lam) & (lam < 1.0)).all():
            raise ValueError("weights must lie strictly inside (0, 1)")
    y, y1, y2 = (np.asarray(v, dtype=float)[None, :] for v in (y, yhat1, yhat2))
    lhs, progress = requirement_sides(constants.a, constants.b, betas, l0, l1, y, y1, y2)
    return progress - lhs


class SufficiencyRoots(NamedTuple):
    k1: float
    k2: float
    k1_at_least_quarter: bool
    k2_within_floor: bool


def sufficiency_roots(constants: TheoremConstants) -> SufficiencyRoots:
    """Roots of H(k) = k^2*mu^2*s - mu*k + a and the bracket checks.

    The per-step requirement holds whenever lam*(1-lam) lies between the
    roots, so the checks are k1 >= 1/4 (covers the midpoint) and
    k2 <= lambda_plus*(1-lambda_plus) (covers the floor).
    """
    a, mu, s = constants.a, constants.mu, constants.s
    disc = 1.0 - 4.0 * a * s
    if disc < 0.0:
        raise ValueError(
            f"discriminant 1 - 4*a*s = {disc} is negative; the constants are inconsistent"
        )
    root = math.sqrt(disc)
    k1 = (1.0 + root) / (2.0 * mu * s)
    k2 = (1.0 - root) / (2.0 * mu * s)
    k0 = constants.lambda_plus * (1.0 - constants.lambda_plus)
    return SufficiencyRoots(k1, k2, k1 >= 0.25 - IDENTITY_TOL, k2 <= k0 + IDENTITY_TOL)


class RegretBound(NamedTuple):
    regret: float
    bound_total: float
    bound_normalized: float


def regret_and_bound(
    l_alg,
    l_best,
    constants: TheoremConstants,
    n,
    lambda_init: float = 0.5,
) -> RegretBound:
    """Regret against the inflated hindsight loss and its guarantee.

    The guarantee is (1/a) times the divergence from the comparator pair
    (beta, 1-beta) to the initial weight pair, at its worst case over beta
    in [0, 1], which is attained at an endpoint; at lambda_init = 1/2 it
    equals ln(2)/a.

    ``l_alg``, ``l_best`` and ``n`` are floats and an int, or arrays that
    broadcast together, such as every prefix of a run; ``regret`` and
    ``bound_normalized`` are then arrays, each entry the float the scalar
    call gives.
    """
    if np.any(np.less(l_alg, 0.0)) or np.any(np.less(l_best, 0.0)):
        raise ValueError("losses must be nonnegative")
    if np.any(np.less(n, 1)):
        raise ValueError(f"horizon must be at least 1, got {np.min(n)}")
    if not 0.0 < lambda_init < 1.0:
        raise ValueError(f"initial weight must lie strictly inside (0, 1), got {lambda_init}")
    regret = l_alg - loss_factor(constants) * l_best
    div = max(-math.log(lambda_init), -math.log(1.0 - lambda_init))
    bound_total = div / constants.a
    return RegretBound(regret, bound_total, bound_total / n)


def constant_identity_errors(constants: TheoremConstants) -> list[str]:
    """Check every internal identity of a constant set; empty list means clean.

    Used defensively at construction time and by the verification CLI,
    where a deliberately perturbed constant must be caught.
    """
    c = constants
    y2 = c.y_bound * c.y_bound
    errors: list[str] = []

    def check(name: str, got: float, want: float):
        scale = max(1.0, abs(want))
        # written so that a NaN on either side fails
        if not abs(got - want) <= IDENTITY_TOL * scale:
            errors.append(f"{name}: {got!r} != {want!r}")

    check("z", c.z, z_of(c.lambda_plus))
    check("b", c.b, c.eps / y2)
    check("a", c.a, (1.0 - c.z * c.z) * c.eps / (y2 * (2.0 * c.eps + 1.0)))
    check("s", c.s, y2 / 2.0 + 1.0 / (4.0 * c.b))
    check("mu", c.mu, (2.0 + 2.0 * c.z) / c.s)
    check("mu_alt", c.mu, (4.0 * c.eps / (2.0 * c.eps + 1.0)) * (2.0 + 2.0 * c.z) / y2)
    check("4as", 4.0 * c.a * c.s, 1.0 - c.z * c.z)
    disc = 1.0 - 4.0 * c.a * c.s
    if disc < 0.0:
        errors.append(f"discriminant: 1 - 4*a*s = {disc!r} is negative")
    else:
        check("sqrt(1-4as)", math.sqrt(disc), c.z)
    return errors
