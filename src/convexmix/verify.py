"""Seeded random checks of the guarantee machinery: constant identities,
per-step margins, telescoping, the two update forms and the two oracles.
Every failure is reported with the seed that reproduces it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bounds, mixture, oracle
from .bounds import TheoremConstants
from .mixture import MixtureParams

__all__ = ["run_verification", "IDENTITY_TOL", "EQUIVALENCE_TOL"]

IDENTITY_TOL = 1e-12
EQUIVALENCE_TOL = 1e-12
# trial-steps per mixture.run call of the margin and telescoping suites: a
# block's run holds about 34 bytes per trial-step (columns, weights, flags),
# its margins 9 (weights and range flags), so 3.4 MB and 0.9 MB
_BLOCK_CELLS = 100_000
# the comparator weights every in-range step is checked against, besides
# 20 random ones per step
_FIXED_BETAS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
# the comparator weights whose progress over a trial telescopes
_TELESCOPE_BETAS = (0.0, 0.5, 1.0)


def _columns(constants, trial_seed, n):
    """A trial's generator, and its ``(3, n)`` columns: its first draw."""
    rng = np.random.default_rng(trial_seed)
    return rng, rng.uniform(-constants.y_bound, constants.y_bound, (3, n))


def _block_weights(params, constants, seeds, n):
    """``lam``, ``in_range`` and the final weights of some trials, from one run."""
    stack = np.empty((len(seeds), 3, n))
    for columns, trial_seed in zip(stack, seeds):
        columns[:] = _columns(constants, trial_seed, n)[1]
    traj = mixture.run(params, stack.transpose(0, 2, 1))
    return traj.lam, traj.in_range, traj.final_lambda.tolist()


def _check_block(constants, params, seeds, n, tol, margin_suite, tele_suite):
    """Add the margins and telescoping sums of some trials to the two suites.

    The trials' weights come from one run.  Their columns are then drawn
    again, trial by trial, so they never sit in memory beside the margins'
    temporaries; and the block's arrays are freed when this returns, before
    the next block's run.
    """
    # the fixed weights' rows, then each trial's random ones: one margin call
    betas = np.empty((len(_FIXED_BETAS) + 20, n))
    betas[: len(_FIXED_BETAS)] = _FIXED_BETAS[:, None]
    for trial_seed, l0, mask, final in zip(seeds, *_block_weights(params, constants, seeds, n)):
        rng, (y, y1, y2) = _columns(constants, trial_seed, n)
        # the bits of rng.uniform(0.0, 1.0, (20, n)), drawn into the matrix
        rng.random(out=betas[len(_FIXED_BETAS) :])
        l1 = np.append(l0[1:], final)  # this trial's row of the run's lam_after
        margin_suite["skipped_out_of_range_steps"] += int(n - mask.sum())
        if mask.any():
            steps = (betas, l0, l1, y, y1, y2)
            if not mask.all():
                steps = tuple(v[..., mask] for v in steps)
            margins = bounds.per_step_margins(constants, *steps)
            margin_suite["checked"] += margins.size
            worst = float(margins.min())
            # written so that a NaN margin fails
            if not worst >= -tol:
                margin_suite["failures"].append({"seed": trial_seed, "worst_margin": worst})
        # the progress is linear in the two log ratios, so its sum is theirs
        s1, s0 = (float(v.sum()) for v in bounds.log_ratios(l0, l1))
        for beta in _TELESCOPE_BETAS:
            via_kl = bounds.kl(beta, l0[0]) - bounds.kl(beta, final)
            tele_suite["checked"] += 1
            err = abs(beta * s1 + (1.0 - beta) * s0 - via_kl)
            if not err <= tol:
                tele_suite["failures"].append({"seed": trial_seed, "beta": beta, "error": err})


def _margin_and_telescope_suites(constants, trials, n, seed, tol):
    params = MixtureParams(
        mu=constants.mu,
        lambda_plus=constants.lambda_plus,
        y_bound=constants.y_bound,
        mode="monitor",
    )
    margin_suite = {"checked": 0, "skipped_out_of_range_steps": 0, "failures": []}
    tele_suite = {"checked": 0, "failures": []}
    width = max(1, _BLOCK_CELLS // n)
    for first in range(seed, seed + trials, width):
        seeds = range(first, min(first + width, seed + trials))
        _check_block(constants, params, seeds, n, tol, margin_suite, tele_suite)
    return margin_suite, tele_suite


def _equivalence_suite(constants, trials, seed):
    failures = []
    draws = 10
    # one update moves rho by up to mu*Y^2, so rates are drawn in units of
    # 1/Y^2: at any cap the updated weight stays inside (0, 1)
    cap2 = constants.y_bound * constants.y_bound
    # a trial's draws of (lam, mu, y, yhat1, yhat2) come from one call, each
    # field scaled as ``lo + (hi - lo)*u``, the doubles ``rng.uniform`` gives
    lo = np.array([0.01, 0.01] + [-constants.y_bound] * 3)
    span = np.array([0.99, 2.0] + [constants.y_bound] * 3) - lo
    for i in range(trials):
        trial_seed = seed + 50_000 + i
        u = np.random.default_rng(trial_seed).random((draws, 5))
        for lam, mu, y, y1, y2 in (lo + span * u).tolist():
            mu = mu / cap2
            params = MixtureParams(
                mu=mu, lambda_plus=constants.lambda_plus,
                y_bound=constants.y_bound, mode="monitor",
            )
            lam_new = mixture.step(params, mixture.logit(lam), lam, y, y1, y2)[1]
            other = mixture.multiplicative_lambda(mu, lam, y, y1, y2)
            diff = abs(lam_new - other)
            if diff > EQUIVALENCE_TOL:
                failures.append({"seed": trial_seed, "lam": lam, "mu": mu, "diff": diff})
    return {"checked": trials * draws, "tolerance": EQUIVALENCE_TOL, "failures": failures}


def _oracle_suite(constants, trials, n, seed, resolution):
    failures = []
    for i in range(trials):
        trial_seed = seed + 100_000 + i
        samples = _columns(constants, trial_seed, n)[1].T
        sums = oracle.stats_from(samples)[1:]
        beta, loss = map(float, oracle.best_betas(*sums))
        grid = oracle.grid_best_beta(samples, resolution)
        beta_gap = abs(beta - grid.beta)
        # the closed form must also price the grid's winner consistently
        cross = abs(float(oracle.quadratic_loss(*sums, grid.beta)) - grid.loss)
        scale = max(1.0, grid.loss)
        if beta_gap > resolution + 1e-12 or loss > grid.loss + 1e-9 * scale or cross > 1e-9 * scale:
            failures.append({"seed": trial_seed, "beta_gap": beta_gap,
                             "closed_loss": loss, "grid_loss": grid.loss})
    return {"checked": trials, "failures": failures}


def _identity_suite(constants):
    failures = list(bounds.constant_identity_errors(constants, tol=IDENTITY_TOL))
    checked = 8  # constant_identity_errors' comparisons; a refused root pair counts once
    info = {}
    try:
        roots = bounds.sufficiency_roots(constants)
        checked += 2
        info["k1"] = roots.k1
        info["k2"] = roots.k2
        if not roots.k1_at_least_quarter:
            failures.append(f"k1 = {roots.k1!r} is below 1/4")
        if not roots.k2_within_floor:
            failures.append(f"k2 = {roots.k2!r} exceeds the floor product")
    except ValueError as exc:
        checked += 1
        failures.append(str(exc))
    checked += 1  # the eps roundtrip
    try:
        eps_back = bounds.eps_from_mu(constants.mu, constants.y_bound, constants.lambda_plus)
        info["eps_roundtrip"] = eps_back
        # eps = mu/(4c - 2mu) has condition number 2*eps + 1: a double mu
        # carries eps only to that multiple of the identities' tolerance
        scale = (2.0 * constants.eps + 1.0) * max(1.0, abs(constants.eps))
        if abs(eps_back - constants.eps) > IDENTITY_TOL * scale:
            failures.append(f"eps roundtrip {eps_back!r} != {constants.eps!r}")
    except ValueError as exc:
        failures.append(f"eps roundtrip: {exc}")
    return {"checked": checked, "tolerance": IDENTITY_TOL, "failures": failures, **info}


def run_verification(
    constants: TheoremConstants,
    *,
    trials: int,
    n: int,
    seed: int,
    resolution: float,
    tol: float,
) -> dict:
    """Run every verification suite; the report lists failures with seeds."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 < resolution <= 0.1:
        raise ValueError(f"resolution must lie in (0, 0.1], got {resolution}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    margin_suite, tele_suite = _margin_and_telescope_suites(constants, trials, n, seed, tol)
    report = {
        "tolerance": tol,
        "trials": trials,
        "n": n,
        "seed": seed,
        "constants": dataclasses.asdict(constants),
        "suites": {
            "constant_identities": _identity_suite(constants),
            "per_step_margin": margin_suite,
            "telescoping": tele_suite,
            "form_equivalence": _equivalence_suite(constants, trials, seed),
            "oracle_agreement": _oracle_suite(constants, trials, n, seed, resolution),
        },
    }
    report["all_pass"] = all(not s["failures"] for s in report["suites"].values())
    return report
