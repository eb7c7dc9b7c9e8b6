"""
The two benchmark sequences, end to end
=======================================

A clean expert against an alternating one.  In the first setup the clean
expert is exactly right, so the best fixed mixture puts all weight on it and
suffers zero loss.  In the second the "clean" expert carries a small
systematic offset, which moves the hindsight optimum strictly inside (0, 1).
"""

from convexmix.bounds import constants_from_mu, regret_and_bound
from convexmix.mixture import MixtureParams, run
from convexmix.oracle import best_betas, prefix_stats, stats_from
from convexmix.signals import SequenceSpec, generate

# ---------------------------------------------------------------------------
# Setup 1: target 0.5, expert 1 pinned at 0.5, expert 2 alternating +-0.5.

samples = generate(SequenceSpec(kind="case1", n=10_000))
constants = constants_from_mu(0.08, 0.5, 0.08)
params = MixtureParams(mu=0.08, lambda_plus=0.08, y_bound=0.5, mode="project")

traj = run(params, samples)
loss = float(traj.cum_loss[-1])
# the closed form prices the three sums of the whole sequence
best, best_loss = map(float, best_betas(*stats_from(samples)[1:]))
rb = regret_and_bound(loss, best_loss, constants, len(samples))

print("setup 1 (clean expert exact)")
print(f"  algorithm loss   {loss:.4f}")
print(f"  best fixed beta  {best:g} with loss {best_loss:g}")
print(f"  final weight     {traj.final_lambda:.4f} (drawn toward expert 1)")
print(f"  regret {rb.regret:.4f} <= bound {rb.bound_total:.4f}")

# ---------------------------------------------------------------------------
# Setup 2: the clean expert now sits at 0.54 while the target stays at 0.5,
# so leaning fully on it costs a little and the optimum backs off to ~0.96.

samples2 = generate(SequenceSpec(kind="case2", n=10_000))
constants2 = constants_from_mu(0.04, 0.54, 0.08)
params2 = MixtureParams(mu=0.04, lambda_plus=0.08, y_bound=0.54, mode="project")

traj2 = run(params2, samples2)
loss2 = float(traj2.cum_loss[-1])
best2, best_loss2 = map(float, best_betas(*stats_from(samples2)[1:]))
rb2 = regret_and_bound(loss2, best_loss2, constants2, len(samples2))

print("setup 2 (clean expert offset by 0.04)")
print(f"  algorithm loss   {loss2:.4f}")
print(f"  best fixed beta  {best2:.6f} with loss {best_loss2:.4f}")
print(f"  regret {rb2.regret:.4f} <= bound {rb2.bound_total:.4f}")

# ---------------------------------------------------------------------------
# The guarantee holds along the whole trajectory, not only at the end: the
# running regret stays below the (constant) total bound at every prefix.

s_dd, s_rd, s_rr = prefix_stats(*samples2.T)
_, prefix_best_loss = best_betas(s_dd[1:], s_rd[1:], s_rr[1:])
# regret_and_bound takes every prefix at once: loss arrays and horizons 1..n
prefix_regret = regret_and_bound(traj2.cum_loss, prefix_best_loss, constants2,
                                 traj2.t).regret

print(f"  max prefix regret {prefix_regret.max():.4f} "
      f"(bound {rb2.bound_total:.4f}) at t = {prefix_regret.argmax() + 1}")
