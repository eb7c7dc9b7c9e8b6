"""Acceptance gate: one test per shipped criterion, in order.

Each test prints a single ``[acceptance] criterion NN: PASS|FAIL`` line
(visible under ``pytest -s``) and then asserts, so the terse summary and the
test outcome cannot disagree.  Shared heavy computations (the benchmark runs,
the 100-trial margin suite) live in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from convexmix import audit, bounds, mixture, oracle, report, signals, verify
from convexmix.mixture import MixtureParams

MARGIN_TRIALS = 100
MARGIN_N = 500
MARGIN_SEED = 7

REF = bounds.constants_from_eps(0.1, 1.0, 0.08)


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d}: {status}{tail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _benchmark_run(case: int, mu: float, n: int = 10_000):
    spec = signals.SequenceSpec(kind=f"case{case}", n=n)
    resolved = signals.resolve(spec)
    samples = signals.generate(resolved)
    constants = bounds.constants_from_mu(mu, resolved.y_bound, 0.08)
    params = MixtureParams(mu=mu, lambda_plus=0.08, y_bound=resolved.y_bound, mode="project")
    frame, summary = report.summarize(mixture.run(params, samples), constants)
    return frame, summary, constants


@pytest.fixture(scope="module")
def benchmark_frames():
    out = {}
    for case, mu in ((1, 0.08), (2, 0.04)):
        start = time.perf_counter()
        frame, summary, constants = _benchmark_run(case, mu)
        out[case] = (frame, summary, constants, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def margin_suites():
    start = time.perf_counter()
    margin, tele = verify._margin_and_telescope_suites(REF, MARGIN_TRIALS, MARGIN_N, MARGIN_SEED)
    return margin, tele, time.perf_counter() - start


def test_criterion_01_first_benchmark_oracle_exact():
    start = time.perf_counter()
    samples = signals.generate(signals.SequenceSpec(kind="case1", n=10_000))
    stats = oracle.stats_from(samples)
    beta, loss = map(float, oracle.best_betas(*stats[1:]))
    elapsed = time.perf_counter() - start
    ok = beta == 1.0 and loss == 0.0 and stats.s_dd > 0.0 and elapsed < 1.0
    _report(1, ok, f"beta={beta!r} loss={loss!r} in {elapsed:.3f}s")


def test_criterion_02_second_benchmark_oracle_located():
    start = time.perf_counter()
    samples = signals.generate(signals.SequenceSpec(kind="case2", n=10_000))
    beta = float(oracle.best_betas(*oracle.stats_from(samples)[1:])[0])
    grid = oracle.grid_best_beta(samples, 1e-4)
    elapsed = time.perf_counter() - start
    ok = (
        0.955 <= beta <= 0.965
        and abs(beta - grid.beta) <= 1e-4 + 1e-12
        and elapsed < 1.0
    )
    _report(2, ok, f"beta={beta:.10f} grid={grid.beta:.10f} in {elapsed:.3f}s")


def test_criterion_03_regret_never_exceeds_bound(benchmark_frames):
    worst = []
    ok = True
    for case in (1, 2):
        frame, summary, constants, elapsed = benchmark_frames[case]
        bound_total = summary["bound_total"]
        max_regret = float(frame.regret.max())
        ok = ok and max_regret <= bound_total and elapsed < 5.0
        worst.append(f"case{case}: max regret {max_regret:.4f} vs bound "
                     f"{bound_total:.4f} in {elapsed:.2f}s")
    bound1 = benchmark_frames[1][1]["bound_total"]
    ok = ok and bound1 == pytest.approx(152.37936659592276, rel=1e-9)
    _report(3, ok, "; ".join(worst))


def test_criterion_04_normalized_gap_shrinks(benchmark_frames):
    ok = True
    details = []
    for case in (1, 2):
        frame = benchmark_frames[case][0]
        gap = frame.bound_norm - frame.norm_regret
        early, late = float(gap[999]), float(gap[9999])
        ok = ok and late < early
        details.append(f"case{case}: gap {early:.6f} @1000 -> {late:.6f} @10000")
    _report(4, ok, "; ".join(details))


def test_criterion_05_smaller_rate_tightens_normalized_bound(benchmark_frames):
    # As stated this cannot hold: with the comparison anchored at the midpoint
    # start, the total guarantee is 8*ln(2)/(mu*(1-z)), strictly decreasing in
    # mu, so halving mu doubles the normalized figure instead of shrinking it.
    # The quantity that does tighten with smaller mu is the multiplicative
    # loss factor (2*eps+1)/(1-z^2), covered by the bounds tests.  Kept as
    # stated; expected to fail.
    low = benchmark_frames[2][1]["bound_normalized"]
    _, summary_high, _ = _benchmark_run(2, 0.08)
    high = summary_high["bound_normalized"]
    ok = low < high
    _report(5, ok, f"bound_normalized mu=0.04: {low:.6f}, mu=0.08: {high:.6f}")


def test_criterion_06_margins_nonnegative_in_range(margin_suites):
    margin, _, elapsed = margin_suites
    ok = not margin["failures"] and margin["checked"] > 0 and elapsed < 30.0
    _report(6, ok, f"{margin['checked']} margin checks, "
                   f"{len(margin['failures'])} failures in {elapsed:.2f}s")


def test_criterion_07_progress_telescopes(margin_suites):
    _, tele, _ = margin_suites
    ok = not tele["failures"] and tele["checked"] == 3 * MARGIN_TRIALS
    _report(7, ok, f"{tele['checked']} telescoping checks, "
                   f"{len(tele['failures'])} failures")


def test_criterion_08_update_forms_agree():
    rng = np.random.default_rng(101)
    draws = 100_000
    lam = rng.uniform(0.01, 0.99, draws)
    mu = rng.uniform(0.01, 2.0, draws)
    y, y1, y2 = rng.uniform(-1.0, 1.0, (3, draws))
    worst = 0.0
    for i in range(draws):
        sample = y[i], y1[i], y2[i]
        params = MixtureParams(mu=mu[i], lambda_plus=0.08, y_bound=1.0, mode="monitor")
        lam_new = mixture.step(params, mixture.logit(lam[i]), lam[i], *sample)[1]
        other = mixture.multiplicative_lambda(mu[i], lam[i], *sample)
        diff = abs(lam_new - other)
        if diff > worst:
            worst = diff
    ok = worst <= 1e-12
    _report(8, ok, f"{draws} draws, worst |additive - multiplicative| = {worst:.3e}")


def test_criterion_09_constant_identities_random_box():
    rng = np.random.default_rng(211)
    worst = 0.0
    ok = True
    for _ in range(1000):
        eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
        y = float(rng.uniform(0.1, 2.0))
        lp = float(rng.uniform(0.01, 0.45))
        c = bounds.constants_from_eps(eps, y, lp)
        e1 = abs(4 * c.a * c.s - (1 - c.z ** 2))
        e2 = abs(c.mu - (2 + 2 * c.z) / c.s) / c.mu
        roots = bounds.sufficiency_roots(c)
        e3 = abs(roots.k1 - 0.25)
        back = bounds.eps_from_mu(c.mu, y, lp)
        e4 = abs(back - eps) / eps
        worst = max(worst, e1, e2, e3, e4)
        ok = ok and roots.k2 <= lp * (1 - lp) + 1e-12
    ok = ok and worst <= 1e-12
    _report(9, ok, f"1000 triples, worst identity error = {worst:.3e}")


def test_criterion_10_search_finds_no_counterexample():
    found = audit.search_violations(
        REF.a, REF.b, REF.mu, 0.08, 1.0, budget=100_000, seed=0
    )
    ok = len(found) == 0
    _report(10, ok, f"budget 100000, {len(found)} violations")


def test_criterion_11_midpoint_construction_is_positive():
    _, second = audit.construction_instances(1.0, 0.08)
    *_, progress, margin = audit.evaluate_instance(REF.a, REF.b, REF.mu, *second)
    violated = margin < -bounds.DEFAULT_TOL
    ok = (
        progress == pytest.approx(0.1204930492688809, abs=1e-9)
        and progress > 0.0
        and margin == pytest.approx(0.08692246687866127, abs=1e-9)
        and not violated
    )
    _report(11, ok, f"progress={progress:.6f} margin={margin:.6f} "
                    f"violated={violated}")
