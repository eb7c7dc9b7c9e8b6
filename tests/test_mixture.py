"""Tests for the online convex combiner: parameterization, updates, runs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexmix import mixture
from convexmix.bounds import mu_supremum
from convexmix.signals import SequenceSpec, generate
from convexmix.verify import EQUIVALENCE_TOL
from convexmix.mixture import (
    MixtureParams,
    NumericError,
    logistic,
    logistic_lambdas,
    logit,
    multiplicative_lambda,
    run,
    sample_columns,
    step,
)


def _params(mu=0.08, lambda_plus=0.08, y_bound=0.5, mode="monitor"):
    return MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode)


class TestLogistic:
    def test_symmetry_point(self):
        assert logistic(0.0) == 0.5

    def test_small_argument(self):
        """Direct evaluation of 1/(1+e^-0.01)."""
        assert logistic(0.01) == pytest.approx(0.502499979166875, rel=1e-15)

    def test_antisymmetry(self):
        """logistic(-x) + logistic(x) = 1."""
        assert logistic(1.3) + logistic(-1.3) == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(3)
        for x in rng.uniform(-30, 30, 200):
            assert logistic(x) + logistic(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(-20, 20, 400)
        vals = [logistic(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                logistic(bad)


class TestLogit:
    def test_midpoint(self):
        assert logit(0.5) == 0.0

    def test_near_ceiling(self):
        """ln(0.92/0.08)."""
        assert logit(0.92) == pytest.approx(2.4423470353692044, rel=1e-12)

    def test_roundtrip(self):
        assert logit(logistic(3.7)) == pytest.approx(3.7, abs=1e-12)
        rng = np.random.default_rng(11)
        for lam in rng.uniform(1e-6, 1 - 1e-6, 300):
            assert logistic(logit(lam)) == pytest.approx(lam, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                logit(bad)


def _yhat(lam, y, y1, y2):
    """The prediction ``step`` makes at weight ``lam``; it reads no ``rho``."""
    return step(_params(), 0.0, lam, y, y1, y2)[2]


class TestPredict:
    def test_midpoint_symmetry(self):
        assert _yhat(0.5, 0.0, 1.0, -1.0) == 0.0

    def test_unit_experts(self):
        assert _yhat(0.3, 0.0, 1.0, 0.0) == pytest.approx(0.3)

    def test_benchmark_first_step(self):
        """Equal and opposite experts at weight 1/2 cancel."""
        assert _yhat(0.5, 0.5, 0.5, -0.5) == 0.0

    def test_stays_in_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            lam = rng.uniform(1e-6, 1 - 1e-6)
            y1, y2 = rng.uniform(-2, 2, 2)
            yhat = _yhat(lam, 0.0, y1, y2)
            assert min(y1, y2) - 1e-12 <= yhat <= max(y1, y2) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            _yhat(0.0, 0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            _yhat(1.0, 0.0, 1.0, -1.0)


class TestStep:
    def test_hand_computed_update(self):
        """mu*e*lam*(1-lam)*(yhat1-yhat2) = 0.08*0.5*0.25*1.0 = 0.01."""
        rho, lam, yhat, e, in_range, projected = step(_params(), 0.0, 0.5, 0.5, 0.5, -0.5)
        assert (yhat, e) == (0.0, 0.5)
        assert rho == pytest.approx(0.01, abs=1e-15)
        assert lam == pytest.approx(0.502499979166875, rel=1e-12)
        assert in_range and not projected

    def test_identical_experts_freeze(self):
        rho, lam = step(_params(), 0.0, 0.5, 0.3, 0.2, 0.2)[:2]
        assert rho == 0.0
        assert lam == 0.5

    def test_zero_error_freezes(self):
        rho, _, _, e, _, _ = step(_params(), 0.0, 0.5, 0.0, 0.5, -0.5)
        assert e == 0.0
        assert rho == 0.0

    def test_project_clamps_and_resets_rho(self):
        params = _params(mu=50.0, lambda_plus=0.45, y_bound=1.0, mode="project")
        rho, lam, _, _, _, projected = step(params, 0.0, 0.5, 1.0, 1.0, -1.0)
        assert projected
        assert lam == 0.55
        assert rho == pytest.approx(logit(0.55), rel=1e-12)
        assert logistic(rho) == pytest.approx(lam, abs=1e-15)

    def test_monitor_never_clamps(self):
        params = _params(mu=50.0, lambda_plus=0.45, y_bound=1.0, mode="monitor")
        _, lam, _, _, _, projected = step(params, 0.0, 0.5, 1.0, 1.0, -1.0)
        assert not projected
        assert lam > 0.55

    def test_in_range_reflects_weight_before(self):
        params = _params(lambda_plus=0.4, y_bound=1.0)
        in_range = step(params, logit(0.2), 0.2, 1.0, 1.0, -1.0)[4]
        assert not in_range

    def test_numeric_error_has_no_step_index(self):
        """Only ``run`` knows which step failed."""
        params = _params(mu=1e308, y_bound=10.0)
        with pytest.raises(NumericError, match="^auxiliary variable became non-finite$") as info:
            step(params, 0.0, 0.5, 10.0, 10.0, -10.0)
        assert info.value.step is None


class TestMultiplicativeForm:
    def test_matches_additive_on_hand_example(self):
        params = _params()
        lam = step(params, 0.0, 0.5, 0.5, 0.5, -0.5)[1]
        other = multiplicative_lambda(params.mu, 0.5, 0.5, 0.5, -0.5)
        assert abs(lam - other) <= 1e-12
        assert other == pytest.approx(0.50250, abs=5e-6)

    def test_identical_experts_exact_fixpoint(self):
        assert multiplicative_lambda(0.7, 0.31, 0.9, 0.4, 0.4) == 0.31

    def test_hand_computed_asymmetric_case(self):
        """Exponent mu*e*lam*(1-lam)*yhat2 = -0.25752; weight is logistic(0.25752)."""
        lam = multiplicative_lambda(1.03008, 0.5, -0.5, 0.0, 1.0)
        assert lam == pytest.approx(0.564026555444559, rel=1e-12)

    def test_form_equivalence_property(self):
        """Additive update through rho and multiplicative update agree to 1e-12."""
        rng = np.random.default_rng(42)
        for _ in range(2000):
            lam = rng.uniform(0.01, 0.99)
            mu = rng.uniform(0.01, 2.0)
            sample = rng.uniform(-1, 1, 3)
            params = _params(mu=mu, y_bound=1.0)
            lam_new = step(params, logit(lam), lam, *sample)[1]
            assert abs(lam_new - multiplicative_lambda(mu, lam, *sample)) <= 1e-12

    def test_saturation_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="degenerated"):
            multiplicative_lambda(1e6, 0.5, -1.0, 0.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            multiplicative_lambda(0.1, 0.0, 0.0, 0.0, 0.0)


_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


class TestMultiplicativeKernel:
    """The array update kernel, ``logistic_lambdas``, against the combiner's
    ``step`` and against the scalar multiplicative form that cross-checks it.

    ``np.log`` and ``np.exp`` may differ from ``math.log`` and ``math.exp``
    in the last ulp, so agreement with ``step`` is checked in ulp, not bit
    for bit.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 2.0), _unit, _unit, _unit),
                    min_size=1, max_size=50))
    def test_agrees_with_scalar_and_step(self, rows):
        lam, mu, y, y1, y2 = (np.array(c) for c in zip(*rows))
        for k, m in enumerate(mu.tolist()):
            # one rate per call, as the audit uses it
            got = logistic_lambdas(m, lam[k:k + 1], y[k:k + 1], y1[k:k + 1], y2[k:k + 1])[0]
            sample = y[k], y1[k], y2[k]
            lam_new = step(_params(mu=m, y_bound=1.0), logit(lam[k]), lam[k], *sample)[1]
            assert abs(got - lam_new) <= 2 * math.ulp(lam_new)
            assert abs(got - multiplicative_lambda(m, lam[k], *sample)) <= EQUIVALENCE_TOL

    def test_seeded_draws_within_two_ulp_of_step(self):
        """At most 2 ulp from ``step`` on every draw, and equal to it on at
        least 97% of them (97.8% at this seed)."""
        rng = np.random.default_rng(26)
        equal = 0
        for m in rng.uniform(0.01, 2.0, 20).tolist():
            lam = rng.uniform(0.01, 0.99, 1000)
            y, y1, y2 = rng.uniform(-1.0, 1.0, (3, 1000))
            got = logistic_lambdas(m, lam, y, y1, y2).tolist()
            params = _params(mu=m, y_bound=1.0)
            for v, row in zip(got, zip(lam.tolist(), y.tolist(), y1.tolist(), y2.tolist())):
                want = step(params, logit(row[0]), *row)[1]
                assert abs(v - want) <= 2 * math.ulp(want)
                equal += v == want
        assert equal >= 0.97 * 20_000

    def test_whole_array_matches_rowwise(self):
        """A block and its rows one 0-d call at a time, as the search and
        ``audit.evaluate_instance`` call it, give the same bits."""
        rng = np.random.default_rng(8)
        lam = rng.uniform(0.08, 0.92, 5000)
        y, y1, y2 = rng.uniform(-1, 1, (3, 5000))
        whole = logistic_lambdas(1.03, lam, y, y1, y2)
        rows = [float(logistic_lambdas(1.03, *v)) for v in zip(
            lam.tolist(), y.tolist(), y1.tolist(), y2.tolist())]
        assert whole.tolist() == rows

    def test_identical_experts_round_trip_the_weight(self):
        """Identical experts make the step exactly zero, so the weight only
        goes through ln(lam/(1-lam)) and the logistic: it comes back to
        rounding, where the multiplicative form returns it exactly (see
        ``TestMultiplicativeForm``)."""
        got = logistic_lambdas(0.7, np.array([0.31, 0.5]), np.array([0.9, -1.0]),
                               np.array([0.4, 0.2]), np.array([0.4, 0.2]))
        assert got.tolist() == [0.31000000000000005, 0.5]

    def test_saturation_is_a_numeric_error(self):
        lam = np.array([0.5, 0.5])
        with pytest.raises(NumericError, match="^an updated weight saturated; mu too extreme$"):
            logistic_lambdas(1e6, lam, np.array([0.0, -1.0]), np.array([0.0, 0.0]),
                             np.array([0.0, 1.0]))


def _lambdas_expression(mu, lam, y, yhat1, yhat2):
    """``logistic_lambdas`` with one temporary per operation: the
    reference its buffered form must equal bit for bit."""
    e = y - (lam * yhat1 + (1.0 - lam) * yhat2)
    rho = np.log(lam / (1.0 - lam)) + mu * e * lam * (1.0 - lam) * (yhat1 - yhat2)
    ex = np.exp(-np.abs(rho))
    return np.where(rho >= 0.0, 1.0, ex) / (1.0 + ex)


def _frozen(values):
    """``values`` as a read-only float array, so a write into an argument raises."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class TestMultiplicativeKernelBits:
    """The buffered update kernel, ``logistic_lambdas``, against its
    expression form, bit for bit, on read-only inputs of the shapes its
    callers use."""

    # (weight shape, signal shape): equal, as the search calls it; a weight
    # matrix against one row of signals; a column against a row; 0-d, as
    # audit.evaluate_instance calls it
    @pytest.mark.parametrize("lam_shape, signal_shape",
                             [((5000,), (5000,)), ((25, 300), (1, 300)), ((40, 1), (300,)),
                              ((), ())])
    # signals drawn from [-1, 1], or from the audit grid's five levels (ties,
    # zeros and identical experts)
    @pytest.mark.parametrize("levels", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_expression_form(self, lam_shape, signal_shape, levels, seed):
        rng = np.random.default_rng(seed)
        lam = _frozen(rng.uniform(0.01, 0.99, lam_shape))
        if levels:
            y, y1, y2 = (_frozen(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], signal_shape))
                         for _ in range(3))
        else:
            y, y1, y2 = (_frozen(rng.uniform(-1.0, 1.0, signal_shape)) for _ in range(3))
        mu = float(rng.uniform(0.01, 2.0))
        got = logistic_lambdas(mu, lam, y, y1, y2)
        want = np.asarray(_lambdas_expression(mu, lam, y, y1, y2))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", range(4))
    def test_nan_input_is_a_numeric_error(self, field):
        args = [np.full(3, v) for v in (0.5, 0.2, -0.4, 0.9)]
        args[field][1] = math.nan
        with pytest.raises(NumericError, match="saturated"):
            logistic_lambdas(1.03, *map(_frozen, args))

    def test_empty_input_passes(self):
        got = logistic_lambdas(1.03, *(_frozen(np.empty(0)),) * 4)
        assert got.shape == (0,)


def _case1(n):
    rows = np.full((n, 3), 0.5)
    rows[::2, 2] = -0.5
    return rows


class TestRun:
    def test_two_step_prefix_loss(self):
        """First error 0.5, second error exactly 0, so L_2 = 0.25."""
        traj = run(_params(), _case1(2))
        assert traj.cum_loss[0] == 0.25
        assert traj.cum_loss[1] == 0.25
        assert traj.e[1] == 0.0

    def test_perfect_experts_zero_loss(self):
        samples = [(0.3, 0.3, 0.3)] * 50
        traj = run(_params(y_bound=1.0), samples)
        assert traj.cum_loss[-1] == 0.0
        assert traj.lam_after.tolist() == [0.5] * 50

    def test_benchmark_weight_pins_at_ceiling(self):
        """Update sign is nonnegative every step, so the weight climbs and,
        with projection, sticks at 1 - lambda_plus."""
        traj = run(_params(mode="project"), _case1(10_000))
        lams = traj.lam
        assert np.all(np.diff(lams) >= 0.0)
        assert traj.final_lambda == 0.92
        assert traj.lam_after[-1] == 0.92
        assert traj.projected.sum() > 0

    def test_monitor_mode_exceeds_ceiling(self):
        traj = run(_params(mode="monitor"), _case1(10_000))
        assert traj.final_lambda > 0.92
        assert traj.final_lambda == pytest.approx(0.961828, abs=1e-3)
        assert traj.in_range.sum() < len(traj)

    def test_determinism(self):
        a = run(_params(mode="project"), _case1(300))
        b = run(_params(mode="project"), _case1(300))
        for name in ("t", "lam", "lam_after", "yhat", "e", "in_range", "projected"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True)
        assert a.final_lambda == b.final_lambda
        assert np.array_equal(a.cum_loss, b.cum_loss)
        assert np.array_equal(a.rho, b.rho)

    def test_state_consistency_throughout(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, (400, 3))
        traj = run(_params(mu=1.0, y_bound=1.0), samples)
        for lam, rho in zip(traj.lam, traj.rho):
            assert abs(lam - logistic(rho)) <= 1e-15

    def test_monotone_response(self):
        """In monitor mode the weight moves up exactly when e*(yhat1-yhat2) > 0."""
        rng = np.random.default_rng(19)
        samples = rng.uniform(-1, 1, (500, 3))
        traj = run(_params(mu=0.8, y_bound=1.0), samples)
        rows = zip(traj.e.tolist(), traj.lam.tolist(), traj.lam_after.tolist(),
                   (samples[:, 1] - samples[:, 2]).tolist())
        for e, before, after, d in rows:
            drive = e * d
            if drive > 0:
                assert after > before
            elif drive < 0:
                assert after < before
            else:
                assert after == before

    def test_boundedness(self):
        rng = np.random.default_rng(23)
        samples = rng.uniform(-0.5, 0.5, (500, 3))
        traj = run(_params(mu=1.0), samples)
        assert np.all(np.abs(traj.yhat) <= 0.5 + 1e-12)
        assert np.all(np.abs(traj.e) <= 1.0 + 1e-12)

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            run(_params(), np.empty((0, 3)))

    def test_rejects_unclipped_samples(self):
        with pytest.raises(ValueError, match="exceeds"):
            run(_params(), [(0.7, 0.1, 0.1)])

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            run(_params(), [(math.nan, 0.1, 0.1)])

    def test_rejects_initial_weight_outside_the_open_interval(self):
        for lam in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="^weight must lie strictly inside"):
                run(_params(), _case1(3), lambda_init=lam)

    def test_starts_from_the_initial_weight(self):
        traj = run(_params(), _case1(3), lambda_init=0.3)
        assert (traj.t[0], traj.lam[0], traj.rho[0]) == (1, 0.3, logit(0.3))

    def test_numeric_error_propagates_with_index(self):
        params = _params(mu=1e308, y_bound=10.0)
        samples = [(0.0, 1.0, 1.0), (10.0, 10.0, -10.0)]
        with pytest.raises(NumericError, match="step 2"):
            run(params, samples)


class TestParamsValidation:
    def test_rejects_bad_mu(self):
        for mu in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                MixtureParams(mu=mu, lambda_plus=0.08, y_bound=1.0)

    def test_rejects_bad_floor(self):
        for lp in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                MixtureParams(mu=0.1, lambda_plus=lp, y_bound=1.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            MixtureParams(mu=0.1, lambda_plus=0.08, y_bound=1.0, mode="clamp")


class TestSaturation:
    """A post-update weight of exactly 0 or 1 is a numeric failure of that step."""

    def test_run_reports_step_index(self):
        params = MixtureParams(mu=1e4, lambda_plus=0.08, y_bound=1.0, mode="monitor")
        with pytest.raises(NumericError, match="step 1: weight saturated") as info:
            run(params, _case1(50))
        assert info.value.step == 1

    def test_step_leaves_the_index_to_run(self):
        params = MixtureParams(mu=1e4, lambda_plus=0.08, y_bound=1.0, mode="monitor")
        with pytest.raises(NumericError, match="^weight saturated at 1.0$") as info:
            step(params, 0.0, 0.5, 0.5, 0.5, -0.5)
        assert info.value.step is None

    def test_saturation_toward_zero(self):
        params = MixtureParams(mu=1e4, lambda_plus=0.08, y_bound=1.0, mode="monitor")
        samples = [(0.5, 0.5, 0.5), (-0.5, 0.5, -0.5)]
        with pytest.raises(NumericError, match="step 2: weight saturated at 0.0"):
            run(params, samples)

    def test_projection_prevents_saturation(self):
        params = MixtureParams(mu=1e4, lambda_plus=0.08, y_bound=1.0, mode="project")
        traj = run(params, _case1(50))
        assert traj.final_lambda == 0.92


def _reference_columns(params, samples, lam):
    """Every column of a run from ``lam``, and its final weight, from a plain
    loop of the scalar reference ``step``; a failure is given its step index."""
    cols = {name: [] for name in ("t", "lam", "lam_after", "rho", "yhat",
                                  "e", "cum_loss", "in_range", "projected")}
    total = 0.0
    rho = logit(lam)
    for t, (y, y1, y2) in enumerate(samples, 1):
        cols["t"].append(t)
        cols["lam"].append(lam)
        cols["rho"].append(rho)
        try:
            rho, lam, yhat, e, in_range, projected = step(params, rho, lam, y, y1, y2)
        except NumericError as exc:
            raise NumericError(str(exc), step=t) from None
        total += e * e
        cols["lam_after"].append(lam)
        cols["yhat"].append(yhat)
        cols["e"].append(e)
        cols["cum_loss"].append(total)
        cols["in_range"].append(in_range)
        cols["projected"].append(projected)
    return cols, lam


@st.composite
def _runs(draw):
    y_bound = draw(st.sampled_from([0.5, 1.0, 3.0]))
    value = st.floats(-y_bound, y_bound, allow_nan=False, allow_subnormal=False)
    n = draw(st.integers(1, 40))
    samples = [(draw(value), draw(value), draw(value)) for _ in range(n)]
    # rates up to 1e3 push the weight out of range, so project mode clamps
    # and monitor mode may saturate
    mu = draw(st.floats(1e-3, 1e3))
    lambda_plus = draw(st.floats(0.01, 0.45))
    mode = draw(st.sampled_from(["monitor", "project"]))
    lam = draw(st.floats(0.02, 0.98))
    return MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode), samples, lam


_DTYPES = {"t": np.int64, "in_range": bool, "projected": bool}


def _bits(values, dtype=float):
    return np.asarray(values, dtype=dtype).tobytes()


class TestRunMatchesStep:
    """The float loop inside ``run`` reproduces a loop of ``step`` bit for bit."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_runs())
    def test_every_column_bit_identical(self, case):
        params, samples, lam = case
        try:
            want, want_final = _reference_columns(params, samples, lam)
        except NumericError as exc:
            with pytest.raises(NumericError) as info:
                run(params, samples, lambda_init=lam)
            assert info.value.step == exc.step
            assert str(info.value) == str(exc)
            return
        traj = run(params, samples, lambda_init=lam)
        assert len(traj) == len(samples)
        for name, values in want.items():
            dtype = _DTYPES.get(name, float)
            assert getattr(traj, name).dtype == dtype, name
            assert getattr(traj, name).tobytes() == _bits(values, dtype), name
        assert _bits([traj.final_lambda]) == _bits([want_final])
        for name, column in zip(("y", "yhat1", "yhat2"), zip(*samples)):
            assert getattr(traj, name).tobytes() == _bits(column), name

    def test_projected_steps_are_exercised(self):
        params = _params(mu=50.0, y_bound=1.0, mode="project")
        rng = np.random.default_rng(5)
        samples = rng.uniform(-1, 1, (300, 3))
        want, want_final = _reference_columns(params, samples.tolist(), 0.5)
        traj = run(params, samples)
        assert 0 < traj.projected.sum() < len(traj)
        for name, values in want.items():
            dtype = _DTYPES.get(name, float)
            assert getattr(traj, name).tobytes() == _bits(values, dtype), name
        assert traj.final_lambda == want_final

    @pytest.mark.parametrize("mode", ["monitor", "project"])
    def test_non_finite_rho_step_index(self, mode):
        params = _params(mu=1e308, y_bound=10.0, mode=mode)
        samples = [(0.0, 1.0, 1.0)] * 3 + [(10.0, 10.0, -10.0)]
        with pytest.raises(NumericError) as ref:
            _reference_columns(params, samples, 0.5)
        with pytest.raises(NumericError) as got:
            run(params, samples)
        assert got.value.step == ref.value.step == 4
        assert str(got.value) == str(ref.value)


B = mixture._RUN_BLOCK


class TestRunBlocks:
    """The loop runs ``_RUN_BLOCK`` steps at a time; block edges change no bit."""

    @pytest.mark.parametrize("mode", ["monitor", "project"])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_bit_identical_to_step_at_block_edges(self, n, mode):
        # rate 50 clamps often in project mode and stays in (0, 1) in monitor mode
        params = _params(mu=50.0 if mode == "project" else 0.5, y_bound=1.0, mode=mode)
        rows = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
        want, want_final = _reference_columns(params, rows.tolist(), 0.3)
        traj = run(params, rows, lambda_init=0.3)
        if mode == "project":
            assert traj.projected.any()
        for name, values in want.items():
            dtype = _DTYPES.get(name, float)
            assert getattr(traj, name).tobytes() == _bits(values, dtype), name
        assert traj.final_lambda == want_final

    @pytest.mark.parametrize("mode", ["monitor", "project"])
    def test_failure_in_second_block_carries_global_step(self, mode):
        params = _params(mu=1e308, y_bound=10.0, mode=mode)
        rows = np.array([[0.0, 1.0, 1.0]] * (B + 10) + [[10.0, 10.0, -10.0]])
        with pytest.raises(NumericError) as info:
            run(params, rows)
        assert info.value.step == B + 11
        assert str(info.value) == f"step {B + 11}: auxiliary variable became non-finite"


class TestRunMemory:
    def test_working_memory_is_one_block(self):
        """Beyond the columns it returns, a run holds one block's Python floats."""
        samples = generate(SequenceSpec("case1", n=200_000))
        params = _params(mode="project")
        tracemalloc.start()
        try:
            traj = run(params, samples)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.projected.any()
        assert peak - retained < 2**20


class TestArrayInput:
    """A sequence is an ``(n, 3)`` array, or rows ``np.asarray`` makes one of."""

    def test_columns_are_copies(self):
        rows = np.array([[0.5, 0.5, -0.5], [-0.5, -0.5, 0.5]])
        traj = run(_params(), rows)
        rows[:] = 0.0
        assert traj.y.tolist() == [0.5, -0.5]
        for column in sample_columns(rows):
            assert column.flags.c_contiguous and not np.shares_memory(column, rows)

    @pytest.mark.parametrize("bad, message", [
        ((0.1, math.nan, 0.1), "sample 2: field yhat1 is not finite (nan)"),
        ((0.1, 0.1, -math.inf), "sample 2: field yhat2 is not finite (-inf)"),
        ((0.7, 0.1, 0.9), "sample 2: field y = 0.7 exceeds the magnitude cap 0.5"),
    ])
    def test_same_rejection_messages(self, bad, message):
        with pytest.raises(ValueError) as info:
            run(_params(), np.array([(0.1, 0.2, 0.3), bad, (math.nan, 0.0, 0.0)]))
        assert str(info.value) == message

    def test_empty_input(self):
        with pytest.raises(ValueError, match="^sequence must be non-empty$"):
            run(_params(), np.empty((0, 3)))

    def test_list_of_rows(self):
        rows = [(0.5, 0.5, -0.5), (-0.5, -0.5, 0.5), (0.25, 0.0, 0.5)]
        want, got = run(_params(), np.array(rows)), run(_params(), rows)
        for name in ("y", "yhat1", "yhat2", "lam", "rho", "yhat", "e", "cum_loss"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (2, 3, 1)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            run(_params(), np.zeros(shape))


S = mixture._STACK_MIN


@st.composite
def _stacks(draw):
    """A ``(k, n, 3)`` stack across the narrow-stack width, with parameters
    whose rate reaches the largest one the guarantee's constants allow, and
    a start anywhere in (0, 1), outside the band included."""
    y_bound = draw(st.sampled_from([0.5, 1.0, 3.0]))
    lambda_plus = draw(st.floats(0.01, 0.45))
    mode = draw(st.sampled_from(["monitor", "project"]))
    mu = draw(st.floats(1e-3, 1.0)) * mu_supremum(y_bound, lambda_plus)
    lam = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    k = draw(st.one_of(st.sampled_from([1, S - 1, S, S + 1, 70]), st.integers(1, 70)))
    n = draw(st.one_of(st.sampled_from([1, 4097]), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.uniform(-y_bound, y_bound, (k, n, 3))
    if draw(st.booleans()):
        # the cap itself and zeros, where the predictions tie or hit the edge
        stack = rng.choice([-y_bound, 0.0, y_bound], (k, n, 3))
    return MixtureParams(mu=mu, lambda_plus=lambda_plus, y_bound=y_bound, mode=mode), stack, lam


def _failing_stack(k, n, fail_at, row):
    """k sequences of quiet rows ((0, 1, 1) leaves the weight alone), with
    ``row`` at step ``fail_at[j]`` of sequence j."""
    stack = np.tile([0.0, 1.0, 1.0], (k, n, 1))
    for j, t in fail_at.items():
        stack[j, t - 1] = row
    return stack


class TestStack:
    """A ``(k, n, 3)`` stack runs every sequence bit for bit as it runs alone."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_stacks())
    def test_each_sequence_bit_identical_to_its_own_run(self, case):
        params, stack, lam = case
        k, n, _ = stack.shape
        traj = run(params, stack, lambda_init=lam)
        assert len(traj) == k * n
        assert traj.lam.shape == traj.in_range.shape == traj.projected.shape == (k, n)
        assert traj.rho is traj.yhat is traj.e is traj.cum_loss is None
        after = traj.lam_after
        assert after.shape == (k, n)
        for j in range(k):
            alone = run(params, stack[j], lambda_init=lam)
            for name in ("lam", "in_range", "projected", "y", "yhat1", "yhat2"):
                assert getattr(traj, name)[j].tobytes() == getattr(alone, name).tobytes(), (j, name)
            assert after[j].tobytes() == alone.lam_after.tobytes(), j
            assert _bits([traj.final_lambda[j]]) == _bits([alone.final_lambda]), j
            assert traj.t[j].tolist() == alone.t.tolist()

    def test_projected_steps_are_exercised(self):
        params = _params(mu=50.0, y_bound=1.0, mode="project")
        stack = np.random.default_rng(5).uniform(-1, 1, (S + 3, 300, 3))
        traj = run(params, stack)
        assert 0 < traj.projected.sum() < len(traj)
        for j, rows in enumerate(stack):
            alone = run(params, rows)
            assert traj.projected[j].tobytes() == alone.projected.tobytes()
            assert traj.lam[j].tobytes() == alone.lam.tobytes()

    def test_columns_are_views_of_the_input(self):
        stack = np.random.default_rng(1).uniform(-0.5, 0.5, (3, 4, 3))
        traj = run(_params(), stack)
        for f, name in enumerate(("y", "yhat1", "yhat2")):
            assert np.shares_memory(getattr(traj, name), stack)
            assert getattr(traj, name).tolist() == stack[..., f].tolist()

    @pytest.mark.parametrize("k", [S - 24, S + 8])
    @pytest.mark.parametrize("mode", ["monitor", "project"])
    def test_lowest_failing_sequence_raises_at_its_first_failing_step(self, k, mode):
        """Sequence 3 fails at step 5 and sequence 7 earlier, at step 2: a
        trial-by-trial loop meets sequence 3's failure first."""
        params = _params(mu=1e308, y_bound=10.0, mode=mode)
        stack = _failing_stack(k, 9, {3: 5, 7: 2}, [10.0, 10.0, -10.0])
        with pytest.raises(NumericError) as info:
            run(params, stack)
        assert (info.value.sequence, info.value.step) == (3, 5)
        assert str(info.value) == "sequence 3, step 5: auxiliary variable became non-finite"
        with pytest.raises(NumericError) as alone:
            run(params, stack[3])
        assert str(info.value) == f"sequence 3, {alone.value}"

    @pytest.mark.parametrize("k", [S - 24, S + 8])
    def test_saturation_names_the_sequence_and_step(self, k):
        # a weight pinned at 1.0 stays there, so the stack loop sees it at the end
        params = MixtureParams(mu=1e4, lambda_plus=0.08, y_bound=1.0, mode="monitor")
        stack = _failing_stack(k, 6, {5: 3, 6: 1}, [0.5, 0.5, -0.5])
        with pytest.raises(NumericError) as info:
            run(params, stack)
        assert str(info.value) == "sequence 5, step 3: weight saturated at 1.0"

    def test_finite_weights_beyond_the_sum_check_run_correctly(self):
        """|rho| = 1e307 in 40 sequences overflows the loop's finiteness sum;
        the stack then runs sequence by sequence, with the same result."""
        params = MixtureParams(mu=2e307, lambda_plus=0.08, y_bound=1.0, mode="project")
        stack = np.tile([1.0, 1.0, -1.0], (S + 8, 3, 1))
        traj = run(params, stack)
        alone = run(params, stack[0])
        assert traj.projected.all() and alone.projected.all()
        assert (traj.lam == alone.lam).all() and (traj.final_lambda == alone.final_lambda).all()

    def test_out_of_cap_sample_names_the_sequence(self):
        stack = np.zeros((S + 1, 4, 3))
        stack[S, 2, 1] = 0.7
        stack[S - 1, 3, 0] = math.nan
        with pytest.raises(ValueError) as info:
            run(_params(), stack)
        assert str(info.value) == f"sequence {S - 1}, sample 4: field y is not finite (nan)"

    @pytest.mark.parametrize("shape, message", [
        ((0, 5, 3), "^stack must hold at least one sequence$"),
        ((2, 0, 3), "^sequence must be non-empty$"),
        ((2, 5, 2), r"^sample stack must have shape \(k, n, 3\), got \(2, 5, 2\)$"),
    ])
    def test_rejects_empty_and_misshapen_stacks(self, shape, message):
        with pytest.raises(ValueError, match=message):
            run(_params(), np.zeros(shape))
