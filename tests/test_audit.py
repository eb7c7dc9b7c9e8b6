"""Tests for the worst-case constructions and the counterexample search."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from convexmix import audit, bounds
from convexmix.audit import (
    WITNESS_COLUMNS,
    audit_triple,
    construction_instances,
    evaluate_instance,
    search_violations,
)
from convexmix.bounds import constants_from_eps

REF = constants_from_eps(0.1, 1.0, 0.08)


def _evaluated(a, b, mu, instance):
    """The row of :func:`evaluate_instance` as a dict keyed by ``WITNESS_COLUMNS``."""
    return dict(zip(WITNESS_COLUMNS, evaluate_instance(a, b, mu, *instance)))


def _payload_bounds(a, mu, lambda_plus, b=1.0):
    """The ``lemma_bounds`` object of the payload :func:`audit_triple` writes, at a budget of 1."""
    payload, _, _ = audit_triple(a, b, mu, lambda_plus, 1.0, 1, 0)
    return payload["lemma_bounds"]


class TestAuditRateBound:
    def test_reference_triple(self):
        lb = _payload_bounds(REF.a, REF.mu, 0.08, REF.b)
        assert list(lb) == ["mu_min"]
        assert lb["mu_min"] == pytest.approx(0.7957959563888537, rel=1e-12)

    def test_reference_constants_clear_their_own_bounds(self):
        """The derived (a, b, mu) triple satisfies the necessary condition
        the floor construction imposes on it."""
        assert REF.mu >= _payload_bounds(REF.a, REF.mu, 0.08, REF.b)["mu_min"]

    def test_linear_in_a(self):
        lb1 = _payload_bounds(0.01, 1.0, 0.1)
        lb2 = _payload_bounds(0.02, 1.0, 0.1)
        assert lb2["mu_min"] == pytest.approx(2 * lb1["mu_min"], rel=1e-15)

    def test_midpoint_floor_limit(self):
        """As the floor approaches 1/2, k0 -> 1/4 and the bound tends to 4a."""
        assert _payload_bounds(0.01, 1.0, 0.499999)["mu_min"] == pytest.approx(0.04, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError, match="must be positive"):
            _payload_bounds(0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="must be positive"):
            _payload_bounds(0.01, -1.0, 0.1)
        with pytest.raises(ValueError, match="weight floor"):
            _payload_bounds(0.01, 1.0, 0.5)


class TestConstructionInstances:
    def test_unit_cap(self):
        first, second = construction_instances(1.0, 0.08)
        assert first == (1.0, 1.0, 0.0, 0.08, 1.0)
        assert second == (-0.5, 0.0, 1.0, 0.5, 1.0)

    def test_signals_scale_with_cap(self):
        first, second = construction_instances(0.5, 0.08)
        assert first[:3] == (0.5, 0.5, 0.0)
        assert second[:3] == (-0.25, 0.0, 0.5)
        assert (first[3], second[3]) == (0.08, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            construction_instances(0.0, 0.08)
        with pytest.raises(ValueError):
            construction_instances(1.0, 0.6)


class TestEvaluateInstance:
    def test_floor_construction_margin(self):
        """Weight at the floor, comparator on the accurate expert: the
        progress term clears the loss difference with margin ~0.0144."""
        first, _ = construction_instances(1.0, 0.08)
        rep = _evaluated(REF.a, REF.b, REF.mu, first)
        assert rep["lhs"] == pytest.approx(0.04957414093512029, abs=1e-9)
        assert rep["progress"] == pytest.approx(0.06398620364160835, abs=1e-9)
        assert rep["margin"] == pytest.approx(0.014412062706488063, abs=1e-9)
        assert rep["margin"] >= -bounds.DEFAULT_TOL

    def test_midpoint_construction_margin(self):
        """Both experts miss; the exact progress is positive (~0.1205), so
        the requirement holds with margin ~0.0869 rather than binding."""
        _, second = construction_instances(1.0, 0.08)
        rep = _evaluated(REF.a, REF.b, REF.mu, second)
        assert rep["lhs"] == pytest.approx(0.03357058239021963, abs=1e-9)
        assert rep["progress"] == pytest.approx(0.1204930492688809, abs=1e-9)
        assert rep["progress"] > 0.0
        assert rep["margin"] == pytest.approx(0.08692246687866127, abs=1e-9)
        assert rep["margin"] >= -bounds.DEFAULT_TOL

    def test_agreeing_experts_inert(self):
        row = evaluate_instance(REF.a, REF.b, REF.mu, 0.3, 0.3, 0.3, 0.4, 0.7)
        assert row[:5] == (0.3, 0.3, 0.3, 0.4, 0.7)
        assert row[-1] == 0.0

    def test_oversized_a_is_caught(self):
        """a > mu*k0 breaks the floor construction: the update cannot make
        enough progress (its log gain is below mu*k0*(1-lp)^2*Y^2) while the
        loss side charges a*(1-lp)^2*Y^2."""
        first, _ = construction_instances(1.0, 0.08)
        k0 = 0.08 * 0.92
        margin = evaluate_instance(1.5 * k0, 1e-6, 1.0, *first)[-1]
        assert margin < -bounds.DEFAULT_TOL

    def test_saturation_raises(self):
        first, _ = construction_instances(1.0, 0.08)
        with pytest.raises(ArithmeticError, match="saturated"):
            evaluate_instance(0.1, 0.1, 1e6, *first)

    def test_domain(self):
        with pytest.raises(ValueError):
            evaluate_instance(REF.a, REF.b, REF.mu, 0, 0, 0, 0.0, 0.5)
        with pytest.raises(ValueError):
            evaluate_instance(REF.a, REF.b, REF.mu, 0, 0, 0, 0.5, 1.5)


class TestSearchViolations:
    def test_derived_constants_survive_grid(self):
        assert search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=1875, seed=3).shape == (0, 8)

    def test_derived_constants_survive_random_fill(self):
        assert search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=4000, seed=3).shape == (0, 8)

    def test_undersized_b_is_found(self):
        """b far below the combined necessary bound yields grid witnesses;
        the worst sits at the midpoint weight with opposed experts."""
        found = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=1875, seed=0)
        assert len(found)
        assert found[0, 7] == pytest.approx(-0.3418285434612441, rel=1e-12)
        assert found[0, :5].tolist() == [-1.0, 1.0, -0.5, 0.5, 1.0]
        margins = found[:, 7].tolist()
        assert margins == sorted(margins)
        assert all(m < -1e-9 for m in margins)
        # every row is a genuine witness under exact evaluation
        for row in found.tolist():
            want = evaluate_instance(0.0586, 0.005, 1.03, *row[:5])
            assert want[:5] == tuple(row[:5])
            assert want[-1] < -bounds.DEFAULT_TOL
            assert list(want[5:]) == pytest.approx(row[5:], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("budget, count", [(20_000, 14_814), (70_001, 52_360)])
    def test_witness_counts_at_golden_budgets(self, budget, count):
        """The counts the CLI smoke run and the witness-file golden see."""
        found = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=budget, seed=0)
        assert len(found) == count

    def test_random_fill_extends_search(self):
        a_grid = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=1875, seed=0)
        a_fill = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=5000, seed=0)
        assert len(a_fill) > len(a_grid)
        # grid worst still dominates: random interior draws are milder
        assert a_fill[0, 7] == a_grid[0, 7]

    def test_deterministic(self):
        kw = dict(budget=3000, seed=11)
        one = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, **kw)
        two = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, **kw)
        assert one.tobytes() == two.tobytes()

    def test_single_instance_budget(self):
        assert search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=1, seed=0).shape == (0, 8)

    def test_saturating_rate_raises(self):
        with pytest.raises(ArithmeticError, match="saturated"):
            search_violations(0.1, 0.1, 1e6, 0.08, 1.0, budget=50, seed=0)

    def test_grid_only_budget_builds_no_generator(self):
        """Up to the grid size no draw is made, so the seed is never used."""
        assert search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=1875, seed=-1).shape == (0, 8)
        with pytest.raises(ValueError):
            search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=1876, seed=-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=0, seed=0)
        with pytest.raises(ValueError):
            search_violations(-0.1, REF.b, REF.mu, 0.08, 1.0, budget=10, seed=0)
        with pytest.raises(ValueError):
            search_violations(REF.a, REF.b, REF.mu, 0.55, 1.0, budget=10, seed=0)
        with pytest.raises(ValueError):
            search_violations(REF.a, REF.b, REF.mu, 0.08, math.inf, budget=10, seed=0)
        for triple in ((REF.a, math.inf, REF.mu), (math.inf, REF.b, REF.mu), (REF.a, REF.b, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                search_violations(*triple, 0.08, 1.0, budget=10, seed=0)

    @pytest.mark.parametrize("y_bound", [1e308, 1e-200])
    def test_cap_outside_the_constants_range_is_refused(self, y_bound):
        """A finite cap beyond [1e-150, 1e150] is refused by name: at 1e308 the draw range
        2*Y overflows, and every drawn instance would be inf or NaN."""
        cap_range = re.escape("magnitude cap must lie within [1e-150, 1e150]")
        with pytest.raises(ValueError, match=cap_range):
            search_violations(0.05, 0.1, 1e-320, 0.08, y_bound, 3000, 0)
        with pytest.raises(ValueError, match=cap_range):
            construction_instances(y_bound, 0.08)


class TestBlockedSearch:
    """Evaluating block by block gives the result of one evaluation of the
    whole budget, bit for bit, including across block boundaries."""

    @pytest.mark.parametrize("budget", [1, 1875, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 1875])
    @pytest.mark.parametrize("triple", [(REF.a, REF.b, REF.mu), (0.0586, 0.005, 1.03)])
    def test_matches_one_shot(self, budget, triple, monkeypatch):
        blocked = search_violations(*triple, 0.08, 1.0, budget=budget, seed=5)
        monkeypatch.setattr(audit, "BLOCK", budget)
        one_shot = search_violations(*triple, 0.08, 1.0, budget=budget, seed=5)
        assert blocked.shape == one_shot.shape
        assert blocked.tobytes() == one_shot.tobytes()

    def test_small_blocks(self, monkeypatch):
        whole = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=5000, seed=2)
        monkeypatch.setattr(audit, "BLOCK", 7)
        again = search_violations(0.0586, 0.005, 1.03, 0.08, 1.0, budget=5000, seed=2)
        assert again.shape == whole.shape and again.tobytes() == whole.tobytes()


def _one_shot_instances(budget, seed, y_bound, lambda_plus):
    """The instance layout drawn in one go: the grid, then five uniform rows
    drawn field by field from a single generator."""
    grid = audit._grid(y_bound, lambda_plus)[:budget].T
    draws = budget - grid.shape[1]
    if not draws:
        return grid
    rng = np.random.default_rng(seed)
    ranges = [(-y_bound, y_bound)] * 3 + [(lambda_plus, 1.0 - lambda_plus), (0.0, 1.0)]
    return np.concatenate((grid, [rng.uniform(lo, hi, draws) for lo, hi in ranges]), axis=1)


class TestInstanceBlocks:
    """Each field streams from its own advanced generator, yet the blocks
    together are the one-shot layout, bit for bit."""

    B = audit.BLOCK

    @pytest.mark.parametrize("budget", [1, 1875, 1876, B - 1, B, B + 1875, 3 * B + 5])
    @pytest.mark.parametrize("block", [None, 7, 1875])
    @pytest.mark.parametrize("seed", [5, 2**32 + 17])
    def test_blocks_concatenate_to_one_shot_layout(self, budget, block, seed, monkeypatch):
        if block is not None:
            monkeypatch.setattr(audit, "BLOCK", block)
        blocks = [b.copy() for b in audit._instance_blocks(budget, seed, 2.5, 0.1)]
        assert all(b.shape[0] == 5 and 1 <= b.shape[1] <= audit.BLOCK for b in blocks)
        got = np.concatenate(blocks, axis=1)
        want = _one_shot_instances(budget, seed, 2.5, 0.1)
        assert got.shape == want.shape == (5, budget)
        assert got.tobytes() == want.tobytes()


class TestSearchMemory:
    @staticmethod
    def _peak(budget):
        tracemalloc.start()
        try:
            found = search_violations(REF.a, REF.b, REF.mu, 0.08, 1.0, budget=budget, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # witnesses are output and grow with the budget; these constants have none
        assert found.shape == (0, 8)
        return peak

    def test_peak_does_not_grow_with_budget(self):
        small, large = self._peak(200_000), self._peak(800_000)
        assert large <= small + 2**20
        assert large < 8 * 2**20


class TestLogMixLowerBound:
    def test_holds_on_grid(self):
        """-ln(lp + (1-lp)e^{-x}) <= (1-lp)x for x >= 0: the log gain of a
        floor-weight update never exceeds its linearization, which is what
        caps the progress available to the floor construction."""
        x = np.linspace(0.0, 10.0, 2001)
        for lp in (0.01, 0.08, 0.25, 0.49):
            gain = -np.log(lp + (1.0 - lp) * np.exp(-x))
            assert np.all(gain <= (1.0 - lp) * x + 1e-12)
