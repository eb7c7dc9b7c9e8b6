"""
How the guarantee constants fit together
========================================

Every quantity in the regret guarantee is derived from three inputs: the
slack eps, the signal cap Y, and the weight floor lambda_plus.  This walk
shows the derivation, the identities that lock the constants to each other,
and the trade-off that eps controls.
"""

import math

from convexmix.bounds import (
    constants_from_eps,
    eps_from_mu,
    loss_factor,
    mu_supremum,
    regret_and_bound,
    sufficiency_roots,
)

eps, Y, lam_plus = 0.1, 1.0, 0.08
c = constants_from_eps(eps, Y, lam_plus)

print(f"inputs: eps={eps}, Y={Y}, lambda_plus={lam_plus}")
print(f"  z  = {c.z!r}   (shrinks toward 0 as the floor widens to 1/2)")
print(f"  a  = {c.a!r}   (progress coefficient)")
print(f"  b  = {c.b!r}   (comparator coefficient, eps/Y^2)")
print(f"  s  = {c.s!r}   (curvature scale Y^2/2 + 1/(4b))")
print(f"  mu = {c.mu!r}  (learning rate (2+2z)/s)")

# ---------------------------------------------------------------------------
# Two identities pin the family together: 4*a*s = 1 - z^2, whose square root
# recovers z, and the quadratic H(k) = k^2 mu^2 s - mu k + a has its roots
# exactly at 1/4 and at the floor product lambda_plus*(1-lambda_plus).

print(f"4*a*s        = {4 * c.a * c.s!r}")
print(f"1 - z^2      = {1 - c.z ** 2!r}")
roots = sufficiency_roots(c)
print(f"roots of H   : k1 = {roots.k1!r} (= 1/4), k2 = {roots.k2!r} "
      f"(= {lam_plus * (1 - lam_plus)!r})")
# Between the roots H is negative, which is what makes every admissible
# weight product k = lam*(1-lam) safe.
mid = 0.5 * (roots.k1 + roots.k2)
h_mid = mid * mid * c.mu * c.mu * c.s - c.mu * mid + c.a
print(f"H(midpoint)  = {h_mid:.6f} < 0")

# ---------------------------------------------------------------------------
# The map eps -> mu inverts cleanly as long as mu stays under its supremum
# 2*(2+2z)/Y^2; at the supremum eps would have to be infinite.

print(f"mu supremum for (Y={Y}, floor={lam_plus}): {mu_supremum(Y, lam_plus):.6f}")
print(f"eps_from_mu(mu) roundtrip: {eps_from_mu(c.mu, Y, lam_plus)!r} vs {eps}")

# The benchmark rates correspond to small slacks:
for mu, y in ((0.08, 0.5), (0.04, 0.54)):
    print(f"  mu={mu}, Y={y}  ->  eps = {eps_from_mu(mu, y, lam_plus):.10g}")

# ---------------------------------------------------------------------------
# eps trades the additive bound against the multiplicative comparator factor:
# growing eps shrinks ln(2)/a but inflates (2*eps+1)/(1-z^2).

print(f"{'eps':>8} {'bound total':>12} {'loss factor':>12}")
for e in (0.01, 0.1, 0.5, 2.0):
    ce = constants_from_eps(e, Y, lam_plus)
    bound = regret_and_bound(0.0, 0.0, ce, 1).bound_total
    print(f"{e:8.2f} {bound:12.2f} {loss_factor(ce):12.4f}")
print(f"(bound total is ln(2)/a = {math.log(2.0) / c.a:.2f} at eps={eps})")
