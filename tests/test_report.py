"""Tests for the regret plot: the pixel-column envelope of its polylines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexmix import report
from convexmix.report import render_regret_svg


def _runs(x_px):
    """(start, stop) of each run of consecutive points sharing an integer pixel column."""
    col = np.floor(x_px)
    edges = [0, *(np.flatnonzero(col[1:] != col[:-1]) + 1).tolist(), len(x_px)]
    return list(zip(edges[:-1], edges[1:]))


@st.composite
def _series(draw):
    n = draw(st.integers(1, 120))
    # a 6-pixel band packs many points into each column
    x = draw(st.lists(st.floats(80.0, 86.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        x.sort()
    # few distinct heights make ties common
    y = draw(st.lists(st.sampled_from([50.0, 120.5, 300.25, 449.0]) | st.floats(50.0, 450.0),
                      min_size=n, max_size=n))
    return np.array(x), np.array(y)


class TestPixelEnvelope:
    @settings(max_examples=200, deadline=None)
    @given(_series())
    def test_each_column_keeps_first_last_min_max(self, series):
        x_px, y_px = series
        kept = report._pixel_envelope(x_px, y_px)
        assert (np.diff(kept) > 0).all()
        for start, stop in _runs(x_px):
            mine = kept[(kept >= start) & (kept < stop)]
            if stop - start <= 4:
                assert mine.tolist() == list(range(start, stop))
                continue
            assert len(mine) <= 4
            assert mine[0] == start and mine[-1] == stop - 1
            assert y_px[mine].min() == y_px[start:stop].min()
            assert y_px[mine].max() == y_px[start:stop].max()

    def test_long_run_keeps_four_points(self):
        x_px = np.full(10, 100.5)
        y_px = np.array([5.0, 3.0, 9.0, 1.0, 9.0, 1.0, 7.0, 4.0, 2.0, 6.0])
        # the first of the tied lows, the last of the tied highs
        assert report._pixel_envelope(x_px, y_px).tolist() == [0, 3, 4, 9]


def _points(svg: str) -> list[str]:
    return re.findall(r'points="([^"]*)"', svg)


class TestRenderedEnvelope:
    def _unreduced(self, monkeypatch, *args, **kwargs) -> str:
        with monkeypatch.context() as m:
            m.setattr(report, "_pixel_envelope", lambda x_px, y_px: np.arange(len(x_px)))
            return render_regret_svg(*args, **kwargs)

    def test_sparse_series_renders_unreduced(self, monkeypatch):
        """At most four points per pixel column: the bytes of the full polylines."""
        t = np.arange(1, 2001)
        r = np.sin(t / 7.0) / t
        g = 152.0 / t
        svg = render_regret_svg(t, r, g)
        assert svg == self._unreduced(monkeypatch, t, r, g)
        assert [len(p.split()) for p in _points(svg)] == [2000, 2000]

    @pytest.mark.parametrize("logx", [False, True])
    def test_dense_series_keeps_a_subset_of_the_full_points(self, monkeypatch, logx):
        t = np.arange(1, 30_001)
        r = np.cos(t / 3.0) / np.sqrt(t)
        g = 152.0 / t
        svg, full = render_regret_svg(t, r, g, logx=logx), self._unreduced(monkeypatch, t, r, g,
                                                                            logx=logx)
        assert _points(svg) != _points(full)
        # everything but the two point lists, the axes' ticks included, is unchanged
        assert re.sub(r'points="[^"]*"', "", svg) == re.sub(r'points="[^"]*"', "", full)
        for kept, every in zip(_points(svg), _points(full)):
            kept, every = kept.split(), every.split()
            assert kept[0] == every[0] and kept[-1] == every[-1]
            assert set(kept) <= set(every) and len(kept) <= 4 * 691

    @pytest.mark.parametrize("logx", [False, True])
    def test_million_points_render_under_100_kb(self, logx):
        t = np.arange(1, 1_000_001)
        r = np.random.default_rng(0).standard_normal(len(t)) / np.sqrt(t)
        svg = render_regret_svg(t, r, 152.0 / t, logx=logx)
        assert len(svg.encode()) < 100_000
