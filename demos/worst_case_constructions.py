"""
Worst-case instances and broken constant triples
================================================

Two closed-form instances nearly saturate the per-step requirement and pin
down how large the constants must be.  Evaluating them exactly — and then
deliberately breaking the triple — shows the audit machinery working in both
directions.
"""

from convexmix import (
    WITNESS_COLUMNS,
    constants_from_eps,
    construction_instances,
    evaluate_instance,
    lemma_bounds,
    search_violations,
)

c = constants_from_eps(0.1, 1.0, 0.08)
print(f"derived triple: a={c.a:.6f}, b={c.b:.6f}, mu={c.mu:.6f}")

# ---------------------------------------------------------------------------
# Closed-form bounds.  The floor construction (weight at lambda_plus, the
# accurate expert at the cap) genuinely forces mu >= a/k0.  A linearized
# reading of the midpoint construction suggests b >= 4a + mu/4, but that
# figure is conservative: the exact evaluation below clears the instance
# with a much smaller b.

lb = lemma_bounds(c.a, c.mu, 0.08)
print(f"mu >= {lb.mu_min:.6f} required (have {c.mu:.6f}); "
      f"conservative b reference {lb.b_min_combined:.6f} (actual b {c.b:.6f})")

# ---------------------------------------------------------------------------
# Exact evaluation of both constructions under the derived triple.  Neither
# binds exactly -- the floor instance clears by ~0.014, and the midpoint
# instance's progress term is genuinely positive (~+0.12): pulling weight
# toward the less-wrong expert helps even when both experts miss.

for label, inst in zip(("floor", "midpoint"), construction_instances(1.0, 0.08)):
    rep = evaluate_instance(c.a, c.b, c.mu, inst)
    print(f"{label:9} y={inst.y:+.2f} yhat1={inst.yhat1:+.2f} yhat2={inst.yhat2:+.2f} "
          f"lam={inst.lambda_t:.2f}: lhs={rep.lhs:+.6f} progress={rep.progress:+.6f} "
          f"margin={rep.margin:+.6f} violated={rep.violated}")

# ---------------------------------------------------------------------------
# A counterexample search over a structured grid plus random instances.  The
# derived triple survives any budget; shrinking b by a factor of twenty
# produces a crowd of witnesses, worst first.

ok = search_violations(c.a, c.b, c.mu, 0.08, 1.0, budget=50_000, seed=0)
print(f"derived triple: {len(ok)} violations in 50000 instances")

bad = search_violations(c.a, c.b / 20.0, c.mu, 0.08, 1.0, budget=50_000, seed=0)
print(f"b/20 triple:    {len(bad)} violations in 50000 instances")
# one row per witness, in the columns of WITNESS_COLUMNS
worst = dict(zip(WITNESS_COLUMNS, bad[0].tolist()))
print(f"  worst: margin={worst['margin']:.6f} at y={worst['y']:+.3f} "
      f"yhat1={worst['yhat1']:+.3f} yhat2={worst['yhat2']:+.3f} "
      f"lam={worst['lambda_t']:.3f} beta={worst['beta']:.3f}")
# The worst witnesses put the comparator fully on one expert with the weight
# far from it -- exactly where a too-small b underpays the comparator's loss.
