"""
Tracking a role switch, and sweeping the learning rate
======================================================

A single fixed mixture cannot follow a sequence whose good expert changes
identity halfway through.  The windowed summary restarts the comparison
inside each regime, which is where an online combiner shines; a learning-rate
sweep then shows the guarantee's price for faster adaptation.
"""

from convexmix.bounds import constants_from_mu
from convexmix.mixture import MixtureParams, run
from convexmix.oracle import best_betas, stats_from
from convexmix.report import summarize, sweep
from convexmix.signals import SequenceSpec, generate

# Expert roles swap at t = 1000: first expert 1 is clean, then expert 2.
n = 2000
samples = generate(SequenceSpec(kind="piecewise_switch", n=n, amplitude=0.8,
                                y_bound=1.0, switch_at=1000))

mu = 0.6
constants = constants_from_mu(mu, 1.0, 0.08)
params = MixtureParams(mu=mu, lambda_plus=0.08, y_bound=1.0, mode="project")

# Global comparison: the best single beta must split the difference.
beta, loss = map(float, best_betas(*stats_from(samples)[1:]))
print(f"global best fixed beta {beta:.3f}, loss {loss:.2f}")

# Windowed comparison: within each regime the best mixture is pure, and the
# combiner's windowed regret stays modest because it re-converges after the
# switch.
for window in ((1, 1000), (1001, 2000)):
    _, summary = summarize(run(params, samples), constants, window=window)
    print(f"window {summary['window']}: best beta {summary['window_beta']:.3f} "
          f"(loss {summary['window_best_loss']:.2f}), "
          f"windowed regret {summary['window_regret']:.2f} "
          f"<= bound {summary['window_bound_total']:.2f}")

# ---------------------------------------------------------------------------
# Sweeping mu on the same sequence.  Faster rates track the switch better
# (lower realized loss here) but carry a larger worst-case guarantee: the
# bound scales like 1/mu under the fixed-start convention.

table, summaries = sweep(samples, (0.1, 0.3, 0.6, 1.0), 1.0, 0.08, mode="project")
print(f"{'mu':>6} {'loss':>9} {'regret':>9} {'bound':>10} {'final lam':>10}")
for mu, summary in zip(table["mu"], summaries):
    print(f"{mu:6.2f} {summary['l_alg']:9.2f} {summary['regret']:9.2f} "
          f"{summary['bound_total']:10.2f} {summary['final_lambda']:10.4f}")
