"""
Worst-case instances and broken constant triples
================================================

Two closed-form instances nearly saturate the per-step requirement and pin
down how large the constants must be.  Evaluating them exactly — and then
deliberately breaking the triple — shows the audit machinery working in both
directions.  An instance is five floats (y, yhat1, yhat2, lambda_t, beta);
evaluated, it is one row of WITNESS_COLUMNS, the instance followed by the
requirement's two sides and their margin.  The constructions and the
search's witnesses are rows of the same shape, printed here alike.
"""

from convexmix.audit import (
    WITNESS_COLUMNS,
    construction_instances,
    evaluate_instance,
    search_violations,
)
from convexmix.bounds import constants_from_eps

c = constants_from_eps(0.1, 1.0, 0.08)
print(f"derived triple: a={c.a:.6f}, b={c.b:.6f}, mu={c.mu:.6f}")


def show(label, row):
    r = dict(zip(WITNESS_COLUMNS, row))
    print(f"{label:9} y={r['y']:+.3f} yhat1={r['yhat1']:+.3f} yhat2={r['yhat2']:+.3f} "
          f"lam={r['lambda_t']:.3f} beta={r['beta']:.3f}: lhs={r['lhs']:+.6f} "
          f"progress={r['progress']:+.6f} margin={r['margin']:+.6f}")


# ---------------------------------------------------------------------------
# The closed-form bound.  The floor construction (weight at lambda_plus, the
# accurate expert at the cap) forces mu >= a/k0 with k0 = lambda_plus*(1 -
# lambda_plus); no closed form is claimed for b, whose sufficiency the exact
# evaluation and the search below check.

k0 = c.lambda_plus * (1.0 - c.lambda_plus)
print(f"mu_min = a/k0 = {c.a / k0:.6f} (mu {c.mu:.6f}, b {c.b:.6f})")

# ---------------------------------------------------------------------------
# Exact evaluation of both constructions under the derived triple.  Neither
# binds exactly -- the floor instance clears by ~0.014, and the midpoint
# instance's progress term is genuinely positive (~+0.12): pulling weight
# toward the less-wrong expert helps even when both experts miss.

for label, instance in zip(("floor", "midpoint"), construction_instances(1.0, 0.08)):
    show(label, evaluate_instance(c.a, c.b, c.mu, *instance))

# ---------------------------------------------------------------------------
# A counterexample search over a structured grid plus random instances.  The
# derived triple survives any budget; shrinking b by a factor of twenty
# produces a crowd of witnesses, worst first.

ok = search_violations(c.a, c.b, c.mu, 0.08, 1.0, budget=50_000, seed=0)
print(f"derived triple: {len(ok)} violations in 50000 instances")

bad = search_violations(c.a, c.b / 20.0, c.mu, 0.08, 1.0, budget=50_000, seed=0)
print(f"b/20 triple:    {len(bad)} violations in 50000 instances")
# one row per witness, worst first; the search's margins match the scalar
# evaluation of the same instance
show("worst", bad[0].tolist())
show("rechecked", evaluate_instance(c.a, c.b / 20.0, c.mu, *bad[0, :5].tolist()))
# The worst witnesses put the comparator fully on one expert with the weight
# far from it -- exactly where a too-small b underpays the comparator's loss.
