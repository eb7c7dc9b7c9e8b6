"""Tests for the hindsight oracle: streaming stats, closed form, grid search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexmix import oracle
from convexmix.oracle import (
    OracleStats,
    best_betas,
    grid_best_beta,
    prefix_stats,
    quadratic_loss,
    stats_from,
)
from convexmix.signals import SequenceSpec, generate


def _random_samples(rng, n, scale=1.0):
    return scale * rng.uniform(-1, 1, (n, 3))


def _direct_loss(samples, beta):
    return sum((y - beta * y1 - (1 - beta) * y2) ** 2 for y, y1, y2 in samples.tolist())


def _best(samples):
    """``(beta, loss)`` floats of the whole sequence, as the closed form prices them."""
    return tuple(map(float, best_betas(*stats_from(samples)[1:])))


class TestAccumulate:
    """``stats_from`` folds each sample into the three sums."""

    def test_single_alternating_sample(self):
        """d = 1, r = 1 for (0.5, 0.5, -0.5)."""
        stats = stats_from([(0.5, 0.5, -0.5)])
        assert stats == OracleStats(n=1, s_dd=1.0, s_rd=1.0, s_rr=1.0)

    def test_identical_experts_leave_cross_terms(self):
        rows = [(0.3, -0.4, 0.9), (-0.7, 0.1, 0.25), (0.5, 0.5, -1.0)]
        before = stats_from(rows)
        after = stats_from(rows + [(0.5, 0.2, 0.2)])
        assert after.s_dd == before.s_dd
        assert after.s_rd == before.s_rd
        assert after.s_rr > before.s_rr

    def test_two_equal_samples_double(self):
        s = (0.4, -0.3, 0.1)
        once = stats_from([s])
        twice = stats_from([s, s])
        assert twice.n == 2
        assert twice.s_dd == 2 * once.s_dd
        assert twice.s_rd == 2 * once.s_rd
        assert twice.s_rr == 2 * once.s_rr

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(31)
        stats = stats_from(_random_samples(rng, 200))
        assert stats.s_rd ** 2 <= stats.s_dd * stats.s_rr * (1 + 1e-12)


class TestLossAtBeta:
    """``quadratic_loss`` prices a fixed weight from the three sums."""

    def test_alternating_benchmark_perfect_expert(self):
        stats = stats_from(generate(SequenceSpec("case1", n=10_000)))
        assert quadratic_loss(*stats[1:], 1.0) == 0.0

    def test_beta_zero_is_second_expert_loss(self):
        rng = np.random.default_rng(2)
        samples = _random_samples(rng, 50)
        stats = stats_from(samples)
        assert quadratic_loss(*stats[1:], 0.0) == stats.s_rr

    def test_offset_benchmark_quadratic_value(self):
        """At beta = 0.96 the per-pair loss is 0.0016*0.96^2 + (1 - 1.04*0.96)^2."""
        n = 10_000
        stats = stats_from(generate(SequenceSpec("case2", n=n)))
        want = (n / 2) * (0.0016 * 0.96 ** 2 + (1 - 1.04 * 0.96) ** 2)
        assert quadratic_loss(*stats[1:], 0.96) == pytest.approx(want, rel=1e-9)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            samples = _random_samples(rng, 80)
            betas = rng.uniform(0, 1, 5)
            got = quadratic_loss(*stats_from(samples)[1:], betas)
            want = [_direct_loss(samples, beta) for beta in betas]
            assert got == pytest.approx(want, rel=1e-9)

    def test_convex_in_beta(self):
        rng = np.random.default_rng(17)
        sums = stats_from(_random_samples(rng, 100))[1:]
        for _ in range(200):
            b0 = rng.uniform(0, 0.8)
            h = rng.uniform(0.01, 0.1)
            second = (
                quadratic_loss(*sums, b0 + 2 * h)
                - 2 * quadratic_loss(*sums, b0 + h)
                + quadratic_loss(*sums, b0)
            )
            assert second >= -1e-9


class TestBestBeta:
    """``best_betas`` on the three sums of a whole sequence."""

    def test_alternating_benchmark_exact_optimum(self):
        """Integer-valued sums make the optimum exact in float64."""
        samples = generate(SequenceSpec("case1", n=10_000))
        assert _best(samples) == (1.0, 0.0)
        assert stats_from(samples).s_dd > 0.0  # not degenerate

    def test_offset_benchmark_optimum(self):
        beta, loss = _best(generate(SequenceSpec("case2", n=10_000)))
        assert beta == pytest.approx(0.9601181683899552, abs=1e-9)
        assert loss == pytest.approx(7.385524372234613, rel=1e-9)

    def test_degenerate_when_experts_agree(self):
        samples = [(0.5, 0.2, 0.2)] * 4
        stats = stats_from(samples)
        assert stats.s_dd == 0.0
        assert _best(samples) == (0.5, stats.s_rr)

    def test_clamps_exterior_minimizer(self):
        # r and d anti-correlated pushes the raw ratio below 0
        samples = [(0.0, 1.0, -1.0), (0.0, 1.0, -1.0)]
        assert _best(samples)[0] == 0.5  # here the minimizer is interior; sanity
        samples = [(-1.0, 1.0, 0.0)] * 3
        assert _best(samples)[0] == 0.0

    def test_optimal_over_random_competitors(self):
        rng = np.random.default_rng(29)
        samples = _random_samples(rng, 60)
        for m in (1, 7, 33, 60):
            sums = stats_from(samples[:m])[1:]
            loss = best_betas(*sums)[1]
            assert np.all(loss <= quadratic_loss(*sums, rng.uniform(0, 1, 100)) + 1e-12)


class TestGridBestBeta:
    def test_offset_benchmark_agreement(self):
        samples = generate(SequenceSpec("case2", n=10_000))
        stats = stats_from(samples)
        beta, loss = _best(samples)
        grid = grid_best_beta(samples, 1e-4)
        assert abs(grid.beta - beta) <= 1e-4
        # curvature bound: quadratic with second derivative 2*s_dd
        assert grid.loss - loss <= stats.s_dd * 1e-4 ** 2 + 1e-9

    def test_alternating_benchmark_endpoint(self):
        samples = generate(SequenceSpec("case1", n=2_000))
        grid = grid_best_beta(samples, 1e-2)
        assert grid.beta == 1.0
        assert grid.loss == 0.0

    def test_tie_breaks_to_smaller_beta(self):
        samples = [(0.5, 0.5, 0.5)] * 5
        grid = grid_best_beta(samples, 0.1)
        assert grid.beta == 0.0

    def test_grid_endpoint_is_exactly_one(self):
        samples = [(1.0, 1.0, -1.0)]
        for res in (0.1, 0.07, 0.01, 1e-3):
            grid = grid_best_beta(samples, res)
            assert grid.beta == 1.0
            assert grid.loss == 0.0

    def test_agreement_property(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            samples = _random_samples(rng, 40)
            beta, loss = _best(samples)
            grid = grid_best_beta(samples, 0.01)
            assert abs(beta - grid.beta) <= 0.01 + 1e-12
            assert loss <= grid.loss + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            grid_best_beta(np.empty((0, 3)), 0.01)
        sample = [(0.1, 0.2, 0.3)]
        for bad in (0.0, 0.2, -0.1):
            with pytest.raises(ValueError):
                grid_best_beta(sample, bad)


_value = st.floats(-2.0, 2.0, allow_nan=False)


class TestPrefixColumns:
    """The prefix columns and their prices equal a left-to-right fold and the
    scalar clamp bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_value, _value, _value), min_size=1, max_size=30)
           | st.lists(st.sampled_from([(0.0, 0.5, 0.5), (-0.0, 0.5, 0.0),
                                       (0.5, -0.5, 0.5), (0.25, 0.25, 0.25)]),
                      min_size=1, max_size=12))
    def test_matches_fold(self, samples):
        cols = [np.array(c) for c in zip(*samples)]
        s_dd, s_rd, s_rr = prefix_stats(*cols)
        beta, loss = best_betas(s_dd[1:], s_rd[1:], s_rr[1:])
        dd = rd = rr = 0.0
        for k, (y, y1, y2) in enumerate(samples, start=1):
            d, r = y1 - y2, y - y2
            dd, rd, rr = dd + d * d, rd + r * d, rr + r * r
            # the midpoint where the experts coincide, else the clamped ratio
            b = 0.5 if dd <= 0.0 else min(max(rd / dd, 0.0), 1.0)
            want = (dd, rd, rr, b, max(rr - 2.0 * b * rd + b * b * dd, 0.0))
            got = (s_dd[k], s_rd[k], s_rr[k], beta[k - 1], loss[k - 1])
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert stats_from(samples) == (len(samples), dd, rd, rr)

    def test_empty_prefix_is_zero(self):
        s_dd, s_rd, s_rr = prefix_stats(*(np.array([0.5]),) * 3)
        assert (s_dd[0], s_rd[0], s_rr[0]) == (0.0, 0.0, 0.0)
        assert stats_from(np.empty((0, 3))) == OracleStats()


# multiples of 1/8 in [-2, 2]: every product is a multiple of 1/64 below 16
# in magnitude, so sums of a few hundred of them are exact in binary64
_dyadic = st.integers(-16, 16).map(lambda k: k / 8)
_dyadic_rows = st.lists(st.tuples(_dyadic, _dyadic, _dyadic), max_size=40)
_rows = st.lists(st.tuples(_value, _value, _value), max_size=40)


def _stats(rows):
    return stats_from(np.array(rows, dtype=float).reshape(-1, 3))


def _interval(rows, lo, hi):
    """Statistics of ``rows[lo:hi]`` as differences of the prefix columns, as a window is priced."""
    columns = np.array(rows, dtype=float).reshape(-1, 3).T
    return OracleStats(hi - lo, *(float(p[hi] - p[lo]) for p in prefix_stats(*columns)))


class TestStatsAlgebra:
    """Differences of ``prefix_stats`` entries against ``stats_from`` of the interval."""

    @settings(max_examples=200, deadline=None)
    @given(_dyadic_rows, _dyadic_rows)
    def test_exact_when_sums_are_exact(self, head, tail):
        rows = head + tail
        assert _interval(rows, len(head), len(rows)) == _stats(tail)
        assert _interval(rows, 0, len(head)) == _stats(head)
        assert _interval(rows, 0, len(rows)) == _stats(rows)

    @settings(max_examples=200, deadline=None)
    @given(_rows, _rows)
    def test_within_the_summation_error_bound(self, head, tail):
        """Splitting only reorders the additions of identical terms.

        Recursive summation of k terms errs by at most (k-1)*u*sum|x_i|
        with u = 2**-53; both sides are such sums plus one rounded add, so
        they differ by less than 4*(n+1)*u*sum|x_i| over all n terms.
        """
        rows = head + tail
        last = _stats(tail)
        cols = np.array(rows, dtype=float).reshape(-1, 3).T
        d, r = cols[1] - cols[2], cols[0] - cols[2]
        n = len(rows)
        suffix = _interval(rows, len(head), n)
        assert suffix.n == last.n
        for name, terms in (("s_dd", d * d), ("s_rd", r * d), ("s_rr", r * r)):
            tol = 4 * (n + 1) * 2.0**-53 * float(np.abs(terms).sum())
            assert abs(getattr(suffix, name) - getattr(last, name)) <= tol, name


class TestArrayInput:
    """A sequence is an ``(n, 3)`` array, a view of one included."""

    def test_transposed_view(self):
        rng = np.random.default_rng(4)
        columns = rng.uniform(-1, 1, (3, 500))
        rows = np.ascontiguousarray(columns.T)
        assert stats_from(columns.T) == stats_from(rows)
        assert grid_best_beta(columns.T, 0.05) == grid_best_beta(rows, 0.05)

    def test_empty_input(self):
        assert stats_from(np.empty((0, 3))) == OracleStats()
        with pytest.raises(ValueError, match="^sequence must be non-empty$"):
            grid_best_beta(np.empty((0, 3)), 0.01)


class TestGridChunks:
    """The chunked in-place grid search picks what one broadcast evaluation picks."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15, 1 << 18])
    @pytest.mark.parametrize("n, resolution", [(1, 0.1), (37, 0.03), (500, 1e-3)])
    def test_matches_one_shot(self, chunk, n, resolution, monkeypatch):
        rng = np.random.default_rng(n)
        y, y1, y2 = rng.uniform(-1, 1, (3, n))
        grid = oracle._beta_grid(resolution)[:, None]
        residual = (y - y2) - grid * (y1 - y2)
        losses = np.einsum("ij,ij->i", residual, residual)
        i = int(np.argmin(losses))
        monkeypatch.setattr(oracle, "GRID_CHUNK", chunk)
        got = grid_best_beta(np.stack((y, y1, y2), axis=1), resolution)
        assert got == (float(grid[i, 0]), float(losses[i]))

    @pytest.mark.parametrize("n, resolution", [(1, 0.1), (37, 0.03), (1000, 0.01), (500, 1e-3)])
    def test_loss_matches_the_mixture_residual(self, n, resolution):
        """The loss of ``r - beta*d`` at the chosen weight is the loss of the
        mixture's own residual ``y - (beta*y1 + (1-beta)*y2)`` to rounding."""
        rng = np.random.default_rng(1000 + n)
        y, y1, y2 = rng.uniform(-1, 1, (3, n))
        got = grid_best_beta(np.stack((y, y1, y2), axis=1), resolution)
        residual = y - (got.beta * y1 + (1.0 - got.beta) * y2)
        assert got.loss == pytest.approx(float(residual @ residual), rel=1e-12)
