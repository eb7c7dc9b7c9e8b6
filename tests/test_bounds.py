"""Tests for the guarantee constants, the per-step inequality, and the bound."""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from convexmix.bounds import (
    constant_identity_errors,
    constants_from_eps,
    constants_from_mu,
    eps_from_mu,
    kl,
    log_ratios,
    loss_factor,
    mu_supremum,
    per_step_margin,
    per_step_margins,
    regret_and_bound,
    requirement_sides,
    sufficiency_roots,
    z_of,
)
from convexmix.mixture import multiplicative_lambda


class TestZ:
    def test_reference_floor(self):
        """k0 = 0.0736 gives z = (1-4k0)/(1+4k0)."""
        assert z_of(0.08) == pytest.approx(0.5451174289245983, rel=1e-15)

    def test_quarter_floor(self):
        assert z_of(0.25) == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_vanishes_at_midpoint_limit(self):
        assert z_of(0.5 - 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 0.49, 100)
        vals = [z_of(float(p)) for p in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (0.0, 0.5, -0.1, 0.6):
            with pytest.raises(ValueError):
                z_of(bad)


class TestConstantsFromEps:
    def test_reference_values(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        assert c.b == 0.1
        assert c.s == 3.0
        assert c.a == pytest.approx(0.05857058239021963, rel=1e-12)
        assert c.mu == pytest.approx(1.0300782859497322, rel=1e-12)

    def test_identities(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        assert 4.0 * c.a * c.s == pytest.approx(1.0 - c.z ** 2, abs=1e-15)
        assert math.sqrt(1.0 - 4.0 * c.a * c.s) == pytest.approx(c.z, abs=1e-12)
        assert c.mu == pytest.approx((2.0 + 2.0 * c.z) / c.s, abs=1e-12)
        assert not constant_identity_errors(c)

    def test_small_eps_linearization(self):
        """mu ~ 4*eps*(2+2z)/Y^2 to first order."""
        eps = 1e-8
        c = constants_from_eps(eps, 1.3, 0.1)
        linear = 4.0 * eps * (2.0 + 2.0 * c.z) / 1.3 ** 2
        assert c.mu == pytest.approx(linear, rel=1e-6)

    def test_roundtrip_through_mu(self):
        for eps in (0.0016233, 0.1, 1.7):
            c = constants_from_eps(eps, 0.5, 0.08)
            back = eps_from_mu(c.mu, 0.5, 0.08)
            assert back == pytest.approx(eps, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            constants_from_eps(0.0, 1.0, 0.08)
        with pytest.raises(ValueError):
            constants_from_eps(0.1, -1.0, 0.08)
        with pytest.raises(ValueError):
            constants_from_eps(0.1, 1.0, 0.5)

    def test_identity_errors_catch_tampering(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        tampered = dataclasses.replace(c, a=2.0 * c.a)
        bad = constant_identity_errors(tampered)
        assert any("a" in msg for msg in bad)

    @pytest.mark.parametrize("name", ["eps", "z", "a", "b", "s", "mu", "y_bound"])
    def test_identity_errors_catch_nan(self, name):
        """A NaN fails every comparison, so each check must be written to fail on one."""
        c = dataclasses.replace(constants_from_eps(0.1, 1.0, 0.08), **{name: math.nan})
        assert constant_identity_errors(c)


class TestEpsFromMu:
    def test_first_benchmark(self):
        assert eps_from_mu(0.08, 0.5, 0.08) == pytest.approx(0.0016232528462103366, rel=1e-12)

    def test_second_benchmark(self):
        """eps = mu/(4c - 2mu) with c = (2+2z)/0.54^2 = 10.597524...; the
        quotient evaluates to 9.4540e-4."""
        assert eps_from_mu(0.04, 0.54, 0.08) == pytest.approx(0.0009454017955466989, rel=1e-12)

    def test_vanishes_with_mu(self):
        c = (2.0 + 2.0 * z_of(0.08)) / 0.25
        assert eps_from_mu(1e-12, 0.5, 0.08) == pytest.approx(1e-12 / (4 * c), rel=1e-9)

    def test_supremum_named_in_error(self):
        sup = mu_supremum(0.5, 0.08)
        with pytest.raises(ValueError, match=repr(sup)):
            eps_from_mu(sup, 0.5, 0.08)
        with pytest.raises(ValueError):
            eps_from_mu(sup * 2, 0.5, 0.08)
        with pytest.raises(ValueError):
            eps_from_mu(0.0, 0.5, 0.08)

    def test_constants_from_mu_matches_rate(self):
        c = constants_from_mu(0.08, 0.5, 0.08)
        assert c.mu == pytest.approx(0.08, rel=1e-12)


class TestKl:
    def test_point_mass(self):
        assert kl(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_identity(self):
        assert kl(0.3, 0.3) == 0.0

    def test_skewed_pair(self):
        """ln 2 minus the natural-log entropy of 0.96."""
        assert kl(0.96, 0.5) == pytest.approx(0.5252030328257724, rel=1e-12)

    def test_infinite_when_support_missing(self):
        assert kl(0.5, 1.0) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            u = rng.uniform(0.001, 0.999)
            w = rng.uniform(0.001, 0.999)
            assert kl(u, w) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            kl(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl(0.5, 1.2)


def _midpoint_instance_margin(c):
    lam1 = multiplicative_lambda(c.mu, 0.5, -0.5, 0.0, 1.0)
    lhs, progress = per_step_margin(c.a, c.b, 1.0, 0.5, lam1, -0.5, 0.0, 1.0)
    return progress - lhs, lam1


class TestPerStepMargin:
    def test_no_motion_no_loss(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        assert per_step_margin(c.a, c.b, 0.7, 0.4, 0.4, 0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_reference_instance(self):
        """Weight 1/2 moving toward a comparator fully on expert 1: the log
        progress clears the loss difference by a wide margin."""
        c = constants_from_eps(0.1, 1.0, 0.08)
        margin, lam1 = _midpoint_instance_margin(c)
        lhs = c.a * 1.0 - c.b * 0.25
        assert lam1 == pytest.approx(0.5640264500730588, rel=1e-12)
        assert lhs == pytest.approx(0.03357058239021963, rel=1e-9)
        assert margin == pytest.approx(0.08692246687866127, abs=1e-9)

    def test_frozen_weight_reduces_to_loss_gap(self):
        """With no motion and e_beta = e the margin is (b-a)e^2, positive."""
        c = constants_from_eps(0.1, 1.0, 0.08)
        for e in (0.3, -0.8, 1.0):
            # silent experts make both errors the target itself
            lhs, progress = per_step_margin(c.a, c.b, 0.25, 0.25, 0.25, e, 0.0, 0.0)
            got = progress - lhs
            assert got == pytest.approx((c.b - c.a) * e * e, rel=1e-12)
            assert got > 0.0

    def test_progress_equals_divergence_difference(self):
        rng = np.random.default_rng(53)
        c = constants_from_eps(0.1, 1.0, 0.08)
        for _ in range(300):
            beta = rng.uniform(0, 1)
            l0, l1 = rng.uniform(0.01, 0.99, 2)
            progress = beta * math.log(l1 / l0) + (1 - beta) * math.log((1 - l1) / (1 - l0))
            via_kl = kl(beta, l0) - kl(beta, l1)
            assert progress == pytest.approx(via_kl, abs=1e-12)
            assert per_step_margin(c.a, c.b, beta, l0, l1, 0.1, 0.1, 0.1)[1] == progress


class TestPerStepMargins:
    def test_matches_scalar(self):
        rng = np.random.default_rng(59)
        c = constants_from_eps(0.1, 1.0, 0.08)
        n = 40
        l0 = rng.uniform(0.05, 0.95, n)
        l1 = rng.uniform(0.05, 0.95, n)
        y, y1, y2 = rng.uniform(-1, 1, (3, n))
        betas = np.array([0.0, 0.3, 1.0])
        got = per_step_margins(c, betas, l0, l1, y, y1, y2)
        assert got.shape == (3, n)
        for i, beta in enumerate(betas):
            for j in range(n):
                step = (float(v[j]) for v in (l0, l1, y, y1, y2))
                lhs, progress = per_step_margin(c.a, c.b, float(beta), *step)
                assert got[i, j] == pytest.approx(progress - lhs, abs=1e-13)

    def test_per_step_beta_matrix(self):
        rng = np.random.default_rng(61)
        c = constants_from_eps(0.1, 1.0, 0.08)
        n = 25
        l0 = rng.uniform(0.1, 0.9, n)
        l1 = rng.uniform(0.1, 0.9, n)
        y, y1, y2 = rng.uniform(-1, 1, (3, n))
        betas = rng.uniform(0, 1, (4, n))
        got = per_step_margins(c, betas, l0, l1, y, y1, y2)
        lhs, progress = per_step_margin(c.a, c.b, betas[2, 7], *(v[7] for v in (l0, l1, y, y1, y2)))
        assert got[2, 7] == pytest.approx(progress - lhs, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_stacked_rows_are_bit_identical(self, n):
        """One call on shared weights broadcast to rows above per-step rows
        gives each row the bits of the call on that row's weights alone."""
        rng = np.random.default_rng(67 + n)
        c = constants_from_eps(0.1, 1.0, 0.08)
        l0, l1 = rng.uniform(0.01, 0.99, (2, n))
        y, y1, y2 = rng.uniform(-1, 1, (3, n))
        shared = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        drawn = rng.uniform(0, 1, (20, n))
        stacked = np.vstack((np.broadcast_to(shared[:, None], (5, n)), drawn))
        got = per_step_margins(c, stacked, l0, l1, y, y1, y2)
        assert got[:5].tobytes() == per_step_margins(c, shared, l0, l1, y, y1, y2).tobytes()
        assert got[5:].tobytes() == per_step_margins(c, drawn, l0, l1, y, y1, y2).tobytes()

    def test_rejects_boundary_weights(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        with pytest.raises(ValueError):
            per_step_margins(c, [0.5], [1.0], [0.5], [0.0], [0.1], [0.2])

    @pytest.mark.parametrize("row", [0, 1])
    def test_rejects_nan_weights(self, row):
        """A NaN current or updated weight is refused."""
        c = constants_from_eps(0.1, 1.0, 0.08)
        weights = [[0.5, 0.5], [0.5, 0.5]]
        weights[row][1] = math.nan
        with pytest.raises(ValueError, match="strictly inside"):
            per_step_margins(c, [0.5], *weights, [0.1, 0.1], [0.2, 0.2], [0.3, 0.3])


def _sides_expression(a, b, beta, lam, lam1, y, y1, y2):
    """``requirement_sides`` with one temporary per operation: the reference
    its buffered form must equal bit for bit."""
    progress = beta * np.log(lam1 / lam) + (1.0 - beta) * np.log((1.0 - lam1) / (1.0 - lam))
    e = y - (lam * y1 + (1.0 - lam) * y2)
    e_beta = y - (beta * y1 + (1.0 - beta) * y2)
    return a * e * e - b * e_beta * e_beta, progress


def _frozen(values):
    """``values`` as a read-only float array, so a write into an argument raises."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


class TestRequirementSidesBits:
    """The buffered sides and margins against their expression form, bit for
    bit, on read-only inputs of the shapes their callers use."""

    # (comparator shape, weight and signal shape): equal, as the audit calls
    # it; verify's (25, n) weights against one row of steps; the vector form
    # of shared weights; 0-d
    SHAPES = [((5000,), (5000,)), ((25, 300), (1, 300)), ((40, 1), (1, 300)), ((), ())]

    @staticmethod
    def _inputs(seed, beta_shape, step_shape):
        rng = np.random.default_rng(seed)
        # comparator weights on the fixed levels verify checks, or drawn
        levels = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], beta_shape)
        beta = np.where(rng.random(beta_shape) < 0.5, levels, rng.random(beta_shape))
        lam, lam1 = rng.uniform(0.01, 0.99, (2, *step_shape))
        y, y1, y2 = rng.uniform(-1.0, 1.0, (3, *step_shape))
        return tuple(map(_frozen, (beta, lam, lam1, y, y1, y2)))

    @pytest.mark.parametrize("beta_shape, step_shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sides_match_expression_form(self, beta_shape, step_shape, seed):
        c = constants_from_eps(0.1, 1.0, 0.08)
        args = (c.a, c.b, *self._inputs(seed, beta_shape, step_shape))
        for got, want in zip(requirement_sides(*args), _sides_expression(*args)):
            want = np.asarray(want)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    # verify sums the two log ratios of one trial's (300,) steps; at the
    # weights 1 and 0 the sides' progress is each ratio alone, bit for bit
    @pytest.mark.parametrize("beta_shape, step_shape", [*SHAPES, ((), (300,))])
    @pytest.mark.parametrize("beta, ratio", [(1.0, 0), (0.0, 1)])
    def test_progress_at_an_end_weight_is_one_log_ratio(self, beta_shape, step_shape, beta, ratio):
        c = constants_from_eps(0.1, 1.0, 0.08)
        _, lam, lam1, y, y1, y2 = self._inputs(5, beta_shape, step_shape)
        got = requirement_sides(c.a, c.b, np.full(beta_shape, beta), lam, lam1, y, y1, y2)[1]
        want = np.broadcast_to(log_ratios(lam, lam1)[ratio], got.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("betas", [(25, 300), (5,)])
    def test_margins_match_expression_form(self, betas):
        c = constants_from_eps(0.1, 1.0, 0.08)
        beta, lam, lam1, y, y1, y2 = self._inputs(4, betas, (300,))
        got = per_step_margins(c, beta, lam, lam1, y, y1, y2)
        column = beta if beta.ndim == 2 else beta[:, None]
        steps = (v[None, :] for v in (lam, lam1, y, y1, y2))
        lhs, progress = _sides_expression(c.a, c.b, column, *steps)
        assert got.tobytes() == (progress - lhs).tobytes()

    def test_empty_input_passes(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        lhs, progress = requirement_sides(c.a, c.b, *(_frozen(np.empty(0)),) * 6)
        assert lhs.shape == progress.shape == (0,)


def _h(c, k):
    """H(k) = k^2*mu^2*s - mu*k + a, the quadratic whose roots ``sufficiency_roots`` takes."""
    return k * k * c.mu * c.mu * c.s - c.mu * k + c.a


class TestSufficiencyRoots:
    def test_upper_root_is_quarter(self):
        """mu = (2+2z)/s makes 1/4 an exact root of H."""
        for eps, y, lp in ((0.1, 1.0, 0.08), (0.0016233, 0.5, 0.08), (1.5, 2.0, 0.3)):
            roots = sufficiency_roots(constants_from_eps(eps, y, lp))
            assert roots.k1 == pytest.approx(0.25, abs=1e-12)
            assert roots.k1_at_least_quarter

    def test_lower_root_hits_floor_product(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        roots = sufficiency_roots(c)
        k0 = 0.08 * 0.92
        assert roots.k2 == pytest.approx(k0, abs=1e-12)
        assert roots.k2_within_floor

    def test_roots_annihilate_h(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        roots = sufficiency_roots(c)
        assert abs(_h(c, roots.k1)) <= 1e-10
        assert abs(_h(c, roots.k2)) <= 1e-10

    def test_h_negative_between_roots(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        roots = sufficiency_roots(c)
        assert _h(c, (roots.k1 + roots.k2) / 2.0) < 0.0

    @pytest.mark.parametrize("lp", [0.495, 0.498, 0.49999])
    def test_checks_near_one_half(self, lp):
        """Near a floor of 1/2 z is tiny: the identities and both bracket checks hold
        without a square root of z^2, and a rate 1% high still fails a bracket."""
        c = constants_from_eps(0.1, 1.0, lp)
        assert not constant_identity_errors(c)
        assert sufficiency_roots(c)[2:] == (True, True)
        assert sufficiency_roots(dataclasses.replace(c, mu=1.01 * c.mu))[2:] != (True, True)

    def test_complex_roots_rejected(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        bad = dataclasses.replace(c, a=10.0 * c.a)
        with pytest.raises(ValueError, match="discriminant"):
            sufficiency_roots(bad)


def _exact_constants(eps, y, lp):
    """k0, z, a, b, s and mu from the ``bounds`` docstring's formulas, in exact arithmetic."""
    k0 = lp * (1 - lp)
    z = (1 - 4 * k0) / (1 + 4 * k0)
    b = eps / (y * y)
    a = (1 - z * z) * eps / (y * y * (2 * eps + 1))
    s = y * y / 2 + 1 / (4 * b)
    return k0, z, a, b, s, (2 + 2 * z) / s


@pytest.mark.parametrize("eps, y, lp", [
    (F(1, 10), F(1), F(2, 25)),
    (F(1), F(1, 2), F(1, 5)),
    (F(3), F(7, 3), F(1, 10)),
    (F(1, 100), F(2), F(3, 8)),
])
def test_tight_constants_satisfy_their_identities_exactly(eps, y, lp):
    """4as = 1 - z^2; H(k) = k^2*mu^2*s - mu*k + a has the roots k0 and 1/4,
    so the root test holds with no slack; and at the midpoint, with e -> 0
    and d = 2Y, G0(c) = mu*c - a - mu^2*c^2/(4b) - 2*mu^2*c^3*Y^2 is 0, so b
    is the least comparator coefficient the requirement allows."""
    k0, z, a, b, s, mu = _exact_constants(eps, y, lp)
    assert 4 * a * s == 1 - z * z
    for k in (k0, F(1, 4)):
        assert k * k * mu * mu * s - mu * k + a == 0
    c = F(1, 4)
    assert mu * c - a - mu * mu * c * c / (4 * b) - 2 * mu * mu * c ** 3 * y * y == 0


class TestRegretAndBound:
    def test_zero_best_loss_passthrough(self):
        c = constants_from_mu(0.08, 0.5, 0.08)
        rb = regret_and_bound(52.37, 0.0, c, 10_000)
        assert rb.regret == 52.37

    def test_benchmark_bound_value(self):
        """Y^2 (2eps+1) ln2 / (eps (1-z^2)) at the mu=0.08, Y=0.5 setup."""
        c = constants_from_mu(0.08, 0.5, 0.08)
        rb = regret_and_bound(0.0, 0.0, c, 10_000)
        direct = 0.25 * (2 * c.eps + 1) * math.log(2.0) / (c.eps * (1 - c.z ** 2))
        assert rb.bound_total == pytest.approx(direct, rel=1e-12)
        assert rb.bound_total == pytest.approx(152.37936659592276, rel=1e-9)
        assert rb.bound_normalized == pytest.approx(rb.bound_total / 10_000, rel=1e-15)

    def test_zero_regret_at_factor_multiple(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        l_best = 3.7
        rb = regret_and_bound(loss_factor(c) * l_best, l_best, c, 100)
        assert rb.regret == pytest.approx(0.0, abs=1e-12)

    def test_worst_case_comparator_at_half(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        rb = regret_and_bound(1.0, 0.0, c, 10)
        assert rb.bound_total == pytest.approx(math.log(2.0) / c.a, rel=1e-12)

    def test_known_comparator_shrinks_bound(self):
        """The bound prices the worst comparator; a known one starts closer."""
        c = constants_from_eps(0.1, 1.0, 0.08)
        free = regret_and_bound(1.0, 0.0, c, 10)
        assert kl(0.6, 0.5) / c.a < free.bound_total

    def test_off_center_start_uses_worse_endpoint(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        rb = regret_and_bound(0.0, 0.0, c, 1, lambda_init=0.9)
        assert rb.bound_total == pytest.approx(-math.log(0.1) / c.a, rel=1e-12)

    def test_bound_decreases_in_eps(self):
        """The additive bound shrinks as the slack grows; the multiplicative
        comparator factor pays for it by growing."""
        eps_grid = np.geomspace(1e-4, 2.0, 25)
        consts = [constants_from_eps(float(e), 1.0, 0.08) for e in eps_grid]
        bound = [regret_and_bound(0.0, 0.0, c, 1000).bound_normalized for c in consts]
        factor = [loss_factor(c) for c in consts]
        assert all(b2 < b1 for b1, b2 in zip(bound, bound[1:]))
        assert all(f2 > f1 for f1, f2 in zip(factor, factor[1:]))

    def test_validation(self):
        c = constants_from_eps(0.1, 1.0, 0.08)
        with pytest.raises(ValueError):
            regret_and_bound(-1.0, 0.0, c, 10)
        with pytest.raises(ValueError):
            regret_and_bound(0.0, 0.0, c, 0)
        with pytest.raises(ValueError):
            regret_and_bound(0.0, 0.0, c, 10, lambda_init=1.0)
        with pytest.raises(ValueError, match="losses must be nonnegative"):
            regret_and_bound(np.zeros(2), np.array([0.0, -1e-300]), c, np.array([1, 2]))
        with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
            regret_and_bound(np.zeros(2), np.zeros(2), c, np.array([1, 0]))

    def test_array_form_is_the_scalar_call_per_entry(self):
        """Every prefix at once, as ``report.summarize`` prices a run, bit for bit."""
        c = constants_from_mu(0.08, 0.5, 0.08)
        rng = np.random.default_rng(11)
        l_alg = np.concatenate(([0.0, 5e-324], rng.uniform(0.0, 60.0, 300)))
        l_best = np.concatenate(([0.0, 0.0], rng.uniform(0.0, 20.0, 300)))
        n = np.arange(1, len(l_alg) + 1)
        got = regret_and_bound(l_alg, l_best, c, n, lambda_init=0.3)
        want = [regret_and_bound(a, b, c, k, lambda_init=0.3)
                for a, b, k in zip(l_alg.tolist(), l_best.tolist(), n.tolist())]
        assert got.regret.tobytes() == np.array([w.regret for w in want]).tobytes()
        assert got.bound_normalized.tobytes() == np.array([w.bound_normalized for w in want]).tobytes()
        assert all(w.bound_total == got.bound_total for w in want)


class TestRandomTripleIdentities:
    def test_constants_identities_hold_across_parameter_box(self):
        """Every derived constant set satisfies its defining identities."""
        rng = np.random.default_rng(71)
        for _ in range(200):
            eps = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
            y = float(rng.uniform(0.1, 2.0))
            lp = float(rng.uniform(0.01, 0.45))
            c = constants_from_eps(eps, y, lp)
            assert not constant_identity_errors(c)
            roots = sufficiency_roots(c)
            assert roots.k1 == pytest.approx(0.25, abs=1e-12)
            assert roots.k2 <= lp * (1 - lp) + 1e-12
            assert eps_from_mu(c.mu, y, lp) == pytest.approx(eps, rel=1e-12)
