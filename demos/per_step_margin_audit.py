"""
Watching the per-step inequality hold
=====================================

The regret proof rests on one pointwise claim: on every step whose weight
lies inside [lambda_plus, 1-lambda_plus],

    a*e^2 - b*e_beta^2  <=  beta*ln(l'/l) + (1-beta)*ln((1-l')/(1-l))

for every comparator beta.  The right side telescopes across steps, so any
run certifies itself: evaluate the margin (right minus left) everywhere and
look for a negative one.
"""

import numpy as np

from convexmix.bounds import constants_from_eps, kl, log_ratios, per_step_margins
from convexmix.mixture import MixtureParams, run

constants = constants_from_eps(0.1, 1.0, 0.08)
params = MixtureParams(mu=constants.mu, lambda_plus=0.08, y_bound=1.0, mode="monitor")

# A rough random sequence: both experts noisy, target uncorrelated.
rng = np.random.default_rng(2026)
n = 500
y, y1, y2 = columns = rng.uniform(-1.0, 1.0, (3, n))

traj = run(params, columns.T)
in_range = traj.in_range
print(f"{int(in_range.sum())} of {n} steps stayed inside the floor band")

# ---------------------------------------------------------------------------
# Margins across a sweep of comparators, restricted to in-range steps.
betas = np.linspace(0.0, 1.0, 21)
margins = per_step_margins(
    constants, betas,
    traj.lam[in_range], traj.lam_after[in_range],
    y[in_range], y1[in_range], y2[in_range],
)
print(f"evaluated {margins.size} (beta, step) pairs")
print(f"smallest margin: {margins.min():.3e} (never below -1e-9)")
worst_beta = betas[margins.min(axis=1).argmin()]
print(f"tightest comparator: beta = {worst_beta:.2f}")

# ---------------------------------------------------------------------------
# The progress side telescopes: summed over all steps it equals the drop in
# divergence between the start and the final weight, for any fixed beta.

l0 = traj.lam
log1, log0 = log_ratios(l0, traj.lam_after)
for beta in (0.0, 0.5, 1.0):
    total = float(beta * log1.sum() + (1 - beta) * log0.sum())
    drop = kl(beta, l0[0]) - kl(beta, traj.final_lambda)
    print(f"beta={beta}: summed progress {total:+.6f}, divergence drop {drop:+.6f}, "
          f"difference {abs(total - drop):.2e}")
