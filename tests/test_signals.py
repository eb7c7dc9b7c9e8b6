"""Tests for benchmark sequence generation and CSV round-trips."""

import csv
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexmix import bounds, report, signals
from convexmix.mixture import MixtureParams, Trajectory, run
from convexmix.signals import (
    TRAJECTORY_COLUMNS,
    ParseError,
    SequenceSpec,
    clip_samples,
    generate,
    load_csv,
    read_trajectory,
    resolve,
    sequence_from,
    write_trajectory,
)


class TestResolve:
    def test_benchmark_caps(self):
        assert resolve(SequenceSpec("case1", n=10)).y_bound == 0.5
        assert resolve(SequenceSpec("case2", n=10)).y_bound == 0.54
        assert resolve(SequenceSpec("alternating", n=10)).y_bound == 1.0

    def test_amplitude_defaults_to_cap(self):
        spec = resolve(SequenceSpec("constant", n=5, y_bound=0.3))
        assert spec.amplitude == 0.3

    def test_square_wave_period_default(self):
        assert resolve(SequenceSpec("square_wave", n=5)).period == 100

    def test_switch_default_is_midpoint(self):
        assert resolve(SequenceSpec("piecewise_switch", n=9)).switch_at == 4

    def test_custom_file_allows_zero_horizon(self):
        spec = resolve(SequenceSpec("custom_file", path="x.csv"))
        assert spec.n == 0 and spec.y_bound == 1.0

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown sequence kind"):
            resolve(SequenceSpec("sawtooth", n=5))
        with pytest.raises(ValueError, match="horizon"):
            resolve(SequenceSpec("case1", n=0))
        with pytest.raises(ValueError, match="amplitude"):
            resolve(SequenceSpec("alternating", n=5, y_bound=0.5, amplitude=0.7))
        with pytest.raises(ValueError, match="period"):
            resolve(SequenceSpec("square_wave", n=5, period=1))
        with pytest.raises(ValueError, match="switch step"):
            resolve(SequenceSpec("piecewise_switch", n=5, switch_at=6))
        with pytest.raises(ValueError, match="path"):
            resolve(SequenceSpec("custom_file"))
        with pytest.raises(ValueError, match="magnitude cap"):
            resolve(SequenceSpec("case1", n=5, y_bound=-1.0))

    @pytest.mark.parametrize("kind, field, value", [
        ("case1", "amplitude", 0.3), ("case2", "amplitude", 0.3), ("custom_file", "amplitude", 0.3),
        ("constant", "period", 7), ("piecewise_switch", "period", 7), ("custom_file", "period", 7),
        ("square_wave", "switch_at", 2), ("alternating", "switch_at", 2),
        ("case1", "path", "x.csv"), ("square_wave", "path", "x.csv"),
    ])
    def test_field_the_kind_never_reads_is_refused(self, kind, field, value):
        fields = {"path": "x.csv"} if kind == "custom_file" else {}
        fields[field] = value
        with pytest.raises(ValueError, match=f"^sequence field {field} is not read by kind {kind}$"):
            resolve(SequenceSpec(kind, n=5, **fields))


class TestGenerate:
    def test_first_benchmark_pattern(self):
        """Clean expert at the cap, second expert alternating, negative first."""
        got = generate(SequenceSpec("case1", n=4))
        want = [[0.5, 0.5, -0.5], [0.5, 0.5, 0.5], [0.5, 0.5, -0.5], [0.5, 0.5, 0.5]]
        np.testing.assert_array_equal(got, np.array(want), strict=True)

    def test_second_benchmark_pattern(self):
        """Target pinned at 0.5 while expert 1 carries the 0.54 offset."""
        got = generate(SequenceSpec("case2", n=2))
        np.testing.assert_array_equal(got, np.array([[0.5, 0.54, -0.5], [0.5, 0.54, 0.5]]),
                                      strict=True)

    def test_second_benchmark_target_not_scaled(self):
        got = generate(SequenceSpec("case2", n=2, y_bound=0.6))
        np.testing.assert_array_equal(got[0], np.array([0.5, 0.6, -0.5]), strict=True)

    def test_second_benchmark_needs_room_for_target(self):
        with pytest.raises(ValueError, match="below the fixed target level"):
            generate(SequenceSpec("case2", n=2, y_bound=0.4))

    def test_constant_zero(self):
        got = generate(SequenceSpec("constant", n=3, amplitude=0.0))
        np.testing.assert_array_equal(got, np.zeros((3, 3)), strict=True)

    def test_alternating_parity(self):
        got = generate(SequenceSpec("alternating", n=5, amplitude=0.2))
        signs = (got[:, 2] / 0.2).tolist()
        assert signs == [-1.0, 1.0, -1.0, 1.0, -1.0]
        assert got.shape == (5, 3) and (got[:, :2] == 0.2).all()

    def test_square_wave_blocks(self):
        got = generate(SequenceSpec("square_wave", n=6, period=4, amplitude=1.0))
        assert got[:, 0].tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0]
        assert got.shape == (6, 3) and got[:, 1:].tolist() == [[1.0, -1.0]] * 6

    def test_switch_swaps_expert_roles(self):
        got = generate(SequenceSpec("piecewise_switch", n=4, switch_at=2, amplitude=1.0))
        assert got[:2, 1:].tolist() == [[1.0, -1.0], [1.0, 1.0]]
        assert got[2:, 1:].tolist() == [[-1.0, 1.0], [1.0, 1.0]]
        assert got.shape == (4, 3) and (got[:, 0] == 1.0).all()


def _reference_rows(spec):
    """The sequence one step at a time, as plain floats: the reference for ``generate``."""
    spec = resolve(spec)
    a, rows = spec.amplitude, []
    for t in range(1, spec.n + 1):
        sign = -1.0 if t % 2 == 1 else 1.0
        if spec.kind == "case1":
            rows.append((spec.y_bound, spec.y_bound, sign * spec.y_bound))
        elif spec.kind == "case2":
            rows.append((0.5, spec.y_bound, sign * 0.5))
        elif spec.kind == "constant":
            rows.append((a, a, a))
        elif spec.kind == "alternating":
            rows.append((a, a, sign * a))
        elif spec.kind == "square_wave":
            block = 1.0 if ((t - 1) // (spec.period // 2)) % 2 == 0 else -1.0
            rows.append((block * a, a, -a))
        elif t <= spec.switch_at:
            rows.append((a, a, sign * a))
        else:
            rows.append((a, sign * a, a))
    return rows


@st.composite
def _specs(draw):
    kind = draw(st.sampled_from(["case1", "case2", "constant", "alternating", "square_wave",
                                 "piecewise_switch"]))
    n = draw(st.integers(1, 60))
    y_bound = draw(st.sampled_from([None, 0.5, 0.75, 1, 2.0]))
    # only the fields the kind reads: resolve refuses any other
    fields = {}
    if kind not in ("case1", "case2"):
        cap = resolve(SequenceSpec("constant", n=n, y_bound=y_bound)).y_bound
        fields["amplitude"] = draw(st.none() | st.sampled_from([0.0, -0.0, cap, -cap])
                                   | st.floats(-cap, cap, allow_nan=False))
    if kind == "square_wave":
        fields["period"] = draw(st.none() | st.integers(2, 2 * n + 3))
    if kind == "piecewise_switch":
        # the default switch step n // 2 is valid only from n = 2 on
        fields["switch_at"] = draw((st.none() if n > 1 else st.nothing()) | st.integers(1, n))
    return SequenceSpec(kind, n=n, y_bound=y_bound, **fields)


class TestGenerateMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_specs())
    def test_bit_identical_to_step_loop(self, spec):
        got = generate(spec)
        assert got.dtype == np.float64 and got.shape == (spec.n, 3)
        assert got.tobytes() == np.array(_reference_rows(spec), dtype=float).tobytes()


@pytest.fixture(params=["numpy"])
def parser(request):
    """The table reader's one path, ``np.loadtxt`` on the kept columns."""
    return request.param


def _write_input_csv(path, rows, header=("y", "yhat1", "yhat2")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestLoadCsv:
    def test_plain_load(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.1, 0.2, -0.3), (0.0, -1.0, 1.0)])
        samples, clipped = load_csv(str(p), 1.0)
        np.testing.assert_array_equal(samples, np.array([[0.1, 0.2, -0.3], [0.0, -1.0, 1.0]]),
                                      strict=True)
        assert clipped == 0

    def test_clipping_counts_fields(self):
        samples, clipped = clip_samples(np.array([[0.7, 0.2, -0.1]]), 0.5)
        np.testing.assert_array_equal(samples, np.array([[0.5, 0.2, -0.1]]), strict=True)
        assert clipped == 1

    def test_clipping_from_file_both_signs(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.7, -0.9, 0.1)])
        samples, clipped = load_csv(str(p), 0.5)
        np.testing.assert_array_equal(samples, np.array([[0.5, -0.5, 0.1]]), strict=True)
        assert clipped == 2

    def test_accepts_trajectory_header(self, tmp_path):
        """A written run file can be replayed: the input echo columns feed back."""
        p = tmp_path / "traj.csv"
        frame = _tiny_frame()
        write_trajectory(frame, str(p))
        samples, clipped = load_csv(str(p), 1.0)
        assert samples.tobytes() == np.stack((frame.y, frame.yhat1, frame.yhat2), axis=1).tobytes()
        assert samples.shape == (len(frame), 3)
        assert clipped == 0

    def test_row_numbered_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="row 1: empty file"):
            load_csv(str(empty), 1.0)

        bad_header = tmp_path / "h.csv"
        bad_header.write_text("target,p1,p2\n0,0,0\n")
        with pytest.raises(ParseError, match="row 1: expected columns y,yhat1,yhat2"):
            load_csv(str(bad_header), 1.0)

        ragged = tmp_path / "r.csv"
        ragged.write_text("y,yhat1,yhat2\n0,0,0\n0,0\n")
        with pytest.raises(ParseError, match="row 3: expected 3 columns, found 2"):
            load_csv(str(ragged), 1.0)

        alpha = tmp_path / "a.csv"
        alpha.write_text("y,yhat1,yhat2\n0,zero,0\n")
        with pytest.raises(ParseError, match="row 2: non-numeric value 'zero'"):
            load_csv(str(alpha), 1.0)

        inf = tmp_path / "i.csv"
        inf.write_text("y,yhat1,yhat2\n0,inf,0\n")
        with pytest.raises(ParseError, match="row 2: non-finite value"):
            load_csv(str(inf), 1.0)

        headonly = tmp_path / "ho.csv"
        headonly.write_text("y,yhat1,yhat2\n")
        with pytest.raises(ParseError, match="row 2: no data rows"):
            load_csv(str(headonly), 1.0)

    def test_cap_validation(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0, 0, 0)])
        with pytest.raises(ValueError, match="magnitude cap"):
            load_csv(str(p), 0.0)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_drawn_doubles_load_bit_for_bit(self, tmp_path, parser, data):
        """Finite doubles, written shortest or with 17 digits, load exactly."""
        n = data.draw(st.integers(1, 8))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=3 * n, max_size=3 * n))
        fmt = data.draw(st.sampled_from([repr, "{:.17g}".format]))
        p = tmp_path / "drawn.csv"
        _write_input_csv(p, [[fmt(v) for v in values[i : i + 3]] for i in range(0, 3 * n, 3)])
        samples, clipped = load_csv(str(p), 1.7976931348623157e308)
        want = np.array(values, dtype=float).reshape(n, 3)
        assert samples.dtype == want.dtype and samples.shape == want.shape
        assert samples.tobytes() == want.tobytes()
        assert clipped == 0


class TestLoadCsvRouting:
    """What the reader accepts, and the row or column it names in what it refuses."""

    WANT = np.array([[0.1, 0.2, -0.3], [0.0, -1.0, 1.0]])

    def _load(self, tmp_path, text):
        p = tmp_path / "seq.csv"
        p.write_bytes(text.encode())
        return load_csv(str(p), 1.0)[0]

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("last", [True, False], ids=["trailing-newline", "no-trailing-newline"])
    def test_line_ends(self, tmp_path, end, last):
        text = end.join(["y,yhat1,yhat2", "0.1,0.2,-0.3", "0,-1,1"]) + (end if last else "")
        np.testing.assert_array_equal(self._load(tmp_path, text), self.WANT, strict=True)

    def test_lone_carriage_returns_are_refused(self, tmp_path):
        with pytest.raises(ParseError, match="row 1: lines end in a lone carriage return"):
            self._load(tmp_path, "y,yhat1,yhat2\r0.1,0.2,-0.3\r0,-1,1\r")
        with pytest.raises(ParseError, match="rows 2-3: .*embedded newline"):
            self._load(tmp_path, "y,yhat1,yhat2\n0.1,0.2,-0.3\n0,-1\r,1\n")

    def test_quoted_line_break_is_refused(self, tmp_path):
        """numpy joins a quoted line break into one row; the rows that block held are named."""
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        lines = p.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        rows[0][5], rows[1][5] = '"0', '0"'  # rho, which load_csv does not keep
        p.write_text("\n".join(lines[:1] + [",".join(row) for row in rows]) + "\n")
        with pytest.raises(ParseError, match="rows 2-4: a quoted cell runs over a line end$"):
            load_csv(str(p), 1.0)

    def test_quoted_cell_and_whitespace(self, tmp_path):
        text = 'y,yhat1,yhat2\n"0.1", 0.2 ,\t-0.3\n0,"-1",1 \n'
        np.testing.assert_array_equal(self._load(tmp_path, text), self.WANT, strict=True)

    def test_underscore_cell_is_refused(self, tmp_path):
        """float() takes digit-group underscores; numpy does not, and the reader follows numpy."""
        with pytest.raises(ParseError, match="row 3: non-numeric value '1_0e-1' in column yhat2$"):
            self._load(tmp_path, "y,yhat1,yhat2\n0.1,0.2,-0.3\n0,-1,1_0e-1\n")

    def test_blank_line(self, tmp_path):
        with pytest.raises(ParseError, match="row 3: expected 3 columns, found 0"):
            self._load(tmp_path, "y,yhat1,yhat2\n0.1,0.2,-0.3\n\n0,-1,1\n")

    def test_blank_body(self, tmp_path):
        with pytest.raises(ParseError, match="row 2: expected 3 columns, found 0"):
            self._load(tmp_path, "y,yhat1,yhat2\n\n")

    def test_extra_column_on_every_row(self, tmp_path):
        with pytest.raises(ParseError, match="row 2: expected 3 columns, found 4"):
            self._load(tmp_path, "y,yhat1,yhat2\n0.1,0.2,-0.3,9\n0,-1,1,9\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_numpy_parses(self, tmp_path, cell):
        with pytest.raises(ParseError, match=f"row 3: non-finite value '{cell}' in column yhat1$"):
            self._load(tmp_path, f"y,yhat1,yhat2\n0.1,0.2,-0.3\n0,{cell},1\n")

    def test_trajectory_with_bad_unpicked_cell(self, tmp_path):
        """A replayed run file needs only its input echo columns to be numbers."""
        p = tmp_path / "traj.csv"
        frame = _tiny_frame()
        write_trajectory(frame, str(p))
        lines = p.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "x"
        p.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        samples, _ = load_csv(str(p), 1.0)
        assert samples.tobytes() == np.stack((frame.y, frame.yhat1, frame.yhat2), axis=1).tobytes()

    def test_width_error_before_bad_cell(self, tmp_path):
        """A block's row widths are checked before any of its cells is converted."""
        with pytest.raises(ParseError, match="row 3: expected 3 columns, found 2"):
            self._load(tmp_path, "y,yhat1,yhat2\n0,zero,0\n0,0\n")

    def test_clean_files_skip_the_csv_pass(self, tmp_path, monkeypatch):
        """The csv module splits the header line only; numpy parses every data line."""
        reader, split = csv.reader, []

        def counted(lines):
            split.extend(lines)
            return reader(lines)
        monkeypatch.setattr(csv, "reader", counted)
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        assert len(read_trajectory(str(p))) == 3
        assert load_csv(str(p), 1.0)[0].shape == (3, 3)
        np.testing.assert_array_equal(self._load(tmp_path, "y,yhat1,yhat2\n0.1,0.2,-0.3\n0,-1,1\n"),
                                      self.WANT, strict=True)
        header = ",".join(TRAJECTORY_COLUMNS) + "\r\n"
        assert split == [header, header, "y,yhat1,yhat2\n"]


class TestCustomFileSequences:
    def test_truncates_and_counts_clips(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.1, 0.2, 0.3), (2.0, 0.0, 0.0), (0.4, 0.4, 0.4)])
        got, _, clipped = sequence_from({"kind": "custom_file", "n": 2, "path": str(p)})
        np.testing.assert_array_equal(got, np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 0.0]]),
                                      strict=True)
        assert clipped == 1

    def test_zero_horizon_takes_all_rows(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.1, 0.1, 0.1)] * 5)
        assert len(sequence_from({"kind": "custom_file", "path": str(p)})[0]) == 5

    def test_horizon_beyond_the_rows_is_refused(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.1, 0.1, 0.1)] * 3)
        assert len(sequence_from({"kind": "custom_file", "n": 3, "path": str(p)})[0]) == 3
        with pytest.raises(ValueError, match="n = 4 exceeds the file's 3 data rows"):
            sequence_from({"kind": "custom_file", "n": 4, "path": str(p)})

    def test_generate_refuses_a_file(self, tmp_path):
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [(0.1, 0.1, 0.1)] * 3)
        with pytest.raises(ValueError, match="custom_file sequences are read by sequence_from"):
            generate(SequenceSpec("custom_file", path=str(p)))


def _hypothesis_frame(data) -> Trajectory:
    """A trajectory of 1-8 rows of drawn finite doubles, -0.0, subnormals and extremes among them."""
    n = data.draw(st.integers(1, 8))
    edges = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             -2.225073858507201e-308, 1e308, -1e308,
                             1.7976931348623157e308, 1 / 3])
    floats = iter(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | edges,
                                     min_size=13 * n, max_size=13 * n)))
    flags = iter(data.draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)))
    columns = {}
    for name in TRAJECTORY_COLUMNS:
        if name == "t":
            values = range(1, n + 1)
        else:
            source = flags if name in ("in_range", "projected") else floats
            values = [next(source) for _ in range(n)]
        columns["lam" if name == "lambda" else name] = np.array(values)
    return Trajectory(**columns)


def _column(frame, name):
    """The column of ``frame`` named ``name`` in the file schema (``lambda`` is ``lam``)."""
    return getattr(frame, "lam" if name == "lambda" else name)


def _tiny_frame() -> Trajectory:
    n = 3
    return Trajectory(
        t=np.arange(1, n + 1),
        y=np.array([1 / 3, -0.1, 5e-324]),
        yhat1=np.array([math.pi / 4, 0.0, 1e-17]),
        yhat2=np.array([-1.0, 0.54, 0.1 + 0.2]),
        lam=np.array([0.5, 0.502499979166875, 0.92]),
        rho=np.array([0.0, 0.01, 2.4423470353692044]),
        yhat=np.array([0.25, -0.05, 0.3]),
        e=np.array([1 / 3 - 0.25, -0.05, -0.3]),
        cum_loss=np.array([0.25, 0.5, 0.75]),
        best_beta_prefix=np.array([1.0, 0.9601181683899552, 0.5]),
        best_loss_prefix=np.array([0.0, 7.385524372234613, 1.0]),
        regret=np.array([0.25, 0.1, -0.2]),
        norm_regret=np.array([0.25, 0.05, -0.2 / 3]),
        bound_norm=np.array([152.0, 76.0, 152.0 / 3]),
        in_range=np.array([1, 1, 0]),
        projected=np.array([0, 1, 0]),
    )


class TestTrajectoryRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        """17 significant digits reproduce every double bit-for-bit."""
        p = tmp_path / "traj.csv"
        frame = _tiny_frame()
        write_trajectory(frame, str(p))
        back = read_trajectory(str(p))
        for name in TRAJECTORY_COLUMNS:
            np.testing.assert_array_equal(_column(back, name), _column(frame, name), err_msg=name)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_drawn_doubles_roundtrip_bit_for_bit(self, tmp_path, parser, data):
        """Any finite double survives write then read, -0.0, subnormals and +-1e308 included."""
        frame = _hypothesis_frame(data)
        p = tmp_path / "drawn.csv"
        write_trajectory(frame, str(p))
        back = read_trajectory(str(p))
        for name in TRAJECTORY_COLUMNS:
            assert _column(back, name).dtype == _column(frame, name).dtype, name
            assert _column(back, name).tobytes() == _column(frame, name).tobytes(), name

    def test_header_row_order(self, tmp_path):
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "1"

    def test_flags_written_as_integers(self, tmp_path):
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        row = p.read_text().splitlines()[1].split(",")
        assert row[-2] == "1" and row[-1] == "0"

    def test_refuses_empty(self, tmp_path):
        frame = _tiny_frame()
        empty = Trajectory(**{
            name: _column(frame, col)[:0]
            for col, name in zip(
                TRAJECTORY_COLUMNS,
                [c if c != "lambda" else "lam" for c in TRAJECTORY_COLUMNS],
            )
        })
        with pytest.raises(ValueError, match="empty trajectory"):
            write_trajectory(empty, str(tmp_path / "x.csv"))

    def test_refuses_unfilled_comparator_columns(self, tmp_path):
        """A frame straight from ``run`` has no comparator columns; no file is created."""
        params = MixtureParams(mu=0.08, lambda_plus=0.08, y_bound=0.5)
        frame = run(params, generate(SequenceSpec("case1", n=10)))
        p = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="^refusing to write a trajectory whose column "
                                             "best_beta_prefix is unfilled; summarize the run first$"):
            write_trajectory(frame, str(p))
        assert not p.exists()

    def test_read_back_has_no_weight_after_last_step(self, tmp_path):
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        back = read_trajectory(str(p))
        assert back.final_lambda is None
        with pytest.raises(ValueError, match="^a trajectory read from CSV has no final weight$"):
            back.lam_after

    def test_read_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,y\n1,0\n")
        with pytest.raises(ParseError, match="row 1: expected the trajectory columns"):
            read_trajectory(str(p))

    def test_read_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        good = ",".join(TRAJECTORY_COLUMNS)
        p.write_text(good + "\n1,0,0\n")
        with pytest.raises(ParseError, match="row 2: expected 16 columns, found 3"):
            read_trajectory(str(p))

    def _written(self, tmp_path):
        p = tmp_path / "traj.csv"
        write_trajectory(_tiny_frame(), str(p))
        return p, p.read_text().splitlines()

    def test_read_rejects_blank_row(self, tmp_path):
        p, lines = self._written(tmp_path)
        p.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(ParseError, match="row 3: expected 16 columns, found 0"):
            read_trajectory(str(p))

    def test_read_rejects_comment_like_row(self, tmp_path):
        p, lines = self._written(tmp_path)
        p.write_text("\n".join(lines[:1] + ["#x"] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match="row 2: expected 16 columns, found 1"):
            read_trajectory(str(p))

    def test_read_rejects_fractional_step(self, tmp_path):
        p, lines = self._written(tmp_path)
        cells = lines[2].split(",")
        cells[0] = "1.5"
        p.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ParseError, match="row 3: non-integer value '1.5' in column t$"):
            read_trajectory(str(p))

    def test_read_accepts_quoted_numeric_cell(self, tmp_path):
        p, lines = self._written(tmp_path)
        cells = lines[1].split(",")
        cells[4] = '"0.5"'
        p.write_text("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n")
        back = read_trajectory(str(p))
        np.testing.assert_array_equal(back.lam, _tiny_frame().lam)

    def test_read_accepts_whitespace_and_signs(self, tmp_path):
        """Whitespace and signs parse as int()/float() parse them; a digit-group
        underscore, which float() also takes, is refused, naming its row and column."""
        p, lines = self._written(tmp_path)
        cells = lines[1].split(",")
        cells[0], cells[1], cells[8] = " +1 ", "+7.5e-1", " 0.25\t"
        p.write_text("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n")
        back = read_trajectory(str(p))
        assert back.t.tolist() == [1, 2, 3]
        assert back.y[0] == 0.75 and back.cum_loss[0] == 0.25
        cells[1] = "7_5e-2"
        p.write_text("\n".join(lines[:1] + [",".join(cells)] + lines[2:]) + "\n")
        with pytest.raises(ParseError, match="row 2: non-numeric value '7_5e-2' in column y$"):
            read_trajectory(str(p))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_kept_columns_bit_identical_to_full_read(self, tmp_path, data):
        """Any set of kept columns, in any order, reads back the bits of a full
        read; the other fields are None and the length is the row count."""
        frame = _hypothesis_frame(data)
        keep = data.draw(st.lists(st.sampled_from(TRAJECTORY_COLUMNS), min_size=1, unique=True))
        p = tmp_path / "drawn.csv"
        write_trajectory(frame, str(p))
        full, kept = read_trajectory(str(p)), read_trajectory(str(p), keep=tuple(keep))
        assert len(kept) == len(frame)
        for name in TRAJECTORY_COLUMNS:
            got, want = _column(kept, name), _column(full, name)
            if name in keep:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            else:
                assert got is None, name

    def test_read_names_first_bad_column(self, tmp_path):
        p, lines = self._written(tmp_path)
        cells = lines[3].split(",")
        cells[5], cells[14] = "x", "1.0"
        p.write_text("\n".join(lines[:3] + [",".join(cells)]) + "\n")
        with pytest.raises(ParseError, match="row 4: non-numeric value 'x' in column rho$"):
            read_trajectory(str(p))

    def test_written_bytes_match_csv_writer(self, tmp_path):
        """The same bytes as csv.writer over f-string cells, CRLF line ends included."""
        frame = _tiny_frame()
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRAJECTORY_COLUMNS)
            for i in range(len(frame)):
                cells = [_column(frame, name)[i] for name in TRAJECTORY_COLUMNS]
                writer.writerow([f"{int(cells[0])}"]
                                + [f"{float(c):.17g}" for c in cells[1:14]]
                                + [f"{int(c)}" for c in cells[14:]])
        got = tmp_path / "got.csv"
        write_trajectory(frame, str(got))
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes().count(b"\r\n") == 4


# The writer's former per-row format, kept as the reference for the block formatter.
_ROW_FORMAT = "%d," + "%.17g," * 13 + "%d,%d\r\n"


def _reference_bytes(frame) -> bytes:
    cols = [np.asarray(_column(frame, name)).tolist() for name in TRAJECTORY_COLUMNS]
    rows = "".join(map(_ROW_FORMAT.__mod__, zip(*cols)))
    return (",".join(TRAJECTORY_COLUMNS) + "\r\n" + rows).encode()


def _texts(cells: np.ndarray) -> list:
    """The text of each row of NUL-padded cells."""
    return [row[row != 0].tobytes().decode() for row in cells]


def _bits(*patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


class TestCellFormatter:
    """The cells equal Python's ``'%.17g' % x`` and ``'%d' % i``, byte for byte."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
             1e-5, 1e-4, 0.00011, 9.9999999999999e-5, 1e16, 1e17, 9.9999999999999999e16,
             12345678901234567.0, 123456789012345678.0, 0.08, 0.1, 0.3, 1 / 3, -2.5, 1e100,
             1.5e-100, 2.0**-25, 2.0**-24, 152.37936659592273]

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        assert _texts(signals._float_cells(x)) == ["%.17g" % v for v in x.tolist()]

    def test_edges(self):
        self._check(self.EDGES + [-v for v in self.EDGES])

    def test_nan_of_either_sign_prints_nan(self):
        nans = _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)
        assert np.isnan(nans).all() and np.signbit(nans[1])
        self._check(nans)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_bit_patterns(self, seed):
        """Every exponent, subnormals and non-finite values included, in any order."""
        bits = np.random.default_rng(seed).integers(-(2**63), 2**63, 1 << 14, dtype=np.int64)
        self._check(bits.view(np.float64))
        self._check(np.sort(bits).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        """Where the log10 estimate of the exponent can be off by one."""
        powers = 10.0 ** np.arange(-307, 309)
        near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self._check(np.concatenate([near, -near]))

    def test_ties_and_their_neighbours(self):
        """x * 10**(16 - k) an exact half, rounded to even, and the doubles beside it."""
        rng = np.random.default_rng(5)
        whole = rng.integers(10**14, 2**47, 2000).astype(np.float64)
        ties = whole + 0.125 * rng.choice([1, 3, 5, 7], 2000)
        ties = np.concatenate([ties, 2.0 ** -np.arange(20, 60)])
        self._check(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))

    def test_decimal_looking_values(self):
        rng = np.random.default_rng(9)
        digits = rng.integers(0, 10**9, 4000).astype(np.float64)
        self._check(digits / 10.0 ** rng.integers(0, 12, 4000) * 10.0 ** rng.integers(-6, 12, 4000))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_drawn_floats(self, values):
        self._check(values)

    def test_four_digit_table_is_the_percent_table(self):
        want = np.array([b"%04d" % i for i in range(10_000)]).view(np.uint32)
        got = signals._four_digits()
        assert got.dtype == want.dtype and got.shape == want.shape == (10_000,)
        assert got.tobytes() == want.tobytes()

    def test_integers(self):
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(3)
        drawn = rng.integers(info.min, info.max, 4000, dtype=np.int64, endpoint=True)
        drawn //= 10 ** rng.integers(0, 19, 4000)
        v = np.concatenate([[info.min, info.max, info.min + 1, 0, -1, 1, 10**18, -(10**18)], drawn])
        assert _texts(signals._int_cells(v)) == ["%d" % i for i in v.tolist()]


def _drawn_frame(n: int, seed: int) -> Trajectory:
    """A frame whose float columns mix random bit patterns, repeated and ordinary values."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 0.5, -0.5, 0.08, 1.0, 5e-324, math.inf, math.nan, 1e-5, 1e17])
    kinds = [
        lambda: rng.integers(-(2**63), 2**63, n, dtype=np.int64).view(np.float64),
        lambda: rng.choice(pool, n),
        lambda: rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n),
        lambda: np.cumsum(rng.random(n)),
    ]
    columns = {"t": np.arange(1, n + 1), "in_range": rng.integers(0, 2, n),
               "projected": rng.integers(0, 2, n).astype(bool)}
    for i, name in enumerate(TRAJECTORY_COLUMNS[1:14]):
        columns["lam" if name == "lambda" else name] = kinds[i % len(kinds)]()
    return Trajectory(**columns)


class TestBlockWriter:
    @pytest.mark.parametrize("rows", [1, signals._WRITE_BLOCK - 1, signals._WRITE_BLOCK,
                                      signals._WRITE_BLOCK + 1, 3 * signals._WRITE_BLOCK + 5])
    def test_file_matches_the_row_format(self, tmp_path, rows):
        frame = _drawn_frame(rows, seed=rows)
        p = tmp_path / "traj.csv"
        write_trajectory(frame, str(p))
        assert p.read_bytes() == _reference_bytes(frame)

    def test_run_frame_writes_as_its_read_back(self, tmp_path):
        """A frame straight from a run (bool flags) and the same frame read back (int64 flags)."""
        samples = generate(SequenceSpec("piecewise_switch", n=3000))
        params = MixtureParams(mu=0.5, lambda_plus=0.3, y_bound=1.0, mode="monitor")
        frame, _ = report.summarize(run(params, samples), bounds.constants_from_mu(0.5, 1.0, 0.3))
        assert frame.in_range.dtype == bool and 0 < frame.in_range.sum() < len(frame)
        first, second = tmp_path / "run.csv", tmp_path / "back.csv"
        write_trajectory(frame, str(first))
        back = read_trajectory(str(first))
        assert back.in_range.dtype == np.int64
        write_trajectory(back, str(second))
        assert first.read_bytes() == second.read_bytes() == _reference_bytes(frame)


def _table_reference(columns: dict) -> bytes:
    """The CSV bytes of a table, row by row with ``%``: ``'%.17g'`` for floats, ``'%d'`` else."""
    fmts = ["%.17g" if np.asarray(col).dtype.kind == "f" else "%d" for col in columns.values()]
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
    lines = [",".join(columns)] + [",".join(f % v for f, v in zip(fmts, row)) for row in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


class TestTableWriter:
    """``write_table`` formats all float columns of a block in one call and all others in a second."""

    def _check(self, tmp_path, columns):
        p = tmp_path / "table.csv"
        signals.write_table(str(p), columns)
        assert p.read_bytes() == _table_reference(columns)

    def test_int_columns_only(self, tmp_path):
        rng = np.random.default_rng(1)
        self._check(tmp_path, {"t": np.arange(1, 5001), "flag": rng.random(5000) < 0.5,
                               "big": rng.integers(-(2**63), 2**63 - 1, 5000, endpoint=True)})

    def test_float_columns_only(self, tmp_path):
        rng = np.random.default_rng(2)
        self._check(tmp_path, {"a": rng.standard_normal(5000), "b": rng.integers(-3, 3, 5000) / 4.0,
                               "c": 10.0 ** rng.integers(-300, 300, 5000)})

    def test_one_bit_pattern_in_two_columns(self, tmp_path):
        """The concatenated distinct values of one formatter call hold the pattern twice."""
        x = np.array([0.1, 0.5, 0.1, 1 / 3] * 300)
        self._check(tmp_path, {"x": x, "y": x[::-1].copy(), "i": np.tile([1, 0, 1], 400),
                               "j": np.tile([0, 1, 1], 400)})

    def test_zeros_and_nans_of_both_signs_in_one_block(self, tmp_path):
        special = np.concatenate([[0.0, -0.0], _bits(0x7FF8000000000000, 0xFFF8000000000000)])
        rng = np.random.default_rng(3)
        a = rng.choice(special, 3000)
        b = np.where(rng.random(3000) < 0.5, rng.choice(special, 3000), rng.standard_normal(3000))
        assert np.signbit(a).any() and not np.signbit(a).all()
        self._check(tmp_path, {"a": a, "b": b, "t": np.arange(3000)})

    def test_every_column_one_value_per_block(self, tmp_path):
        n = 2 * signals._WRITE_BLOCK
        half = np.arange(n) // signals._WRITE_BLOCK  # 0 in the first block, 1 in the second
        self._check(tmp_path, {"x": np.where(half, -2.5, 0.08), "y": np.full(n, 1e300),
                               "k": half + 7, "f": half == 0})

    def test_one_row_past_a_block(self, tmp_path):
        n = signals._WRITE_BLOCK + 1
        rng = np.random.default_rng(4)
        self._check(tmp_path, {"t": np.arange(1, n + 1), "x": rng.standard_normal(n),
                               "bits": rng.integers(-(2**63), 2**63, n, dtype=np.int64).view(np.float64),
                               "flag": rng.random(n) < 0.1})

    @pytest.mark.parametrize("existing", [False, True])
    def test_unequal_columns_refused_before_the_file_is_touched(self, tmp_path, existing):
        p = tmp_path / "table.csv"
        if existing:
            p.write_bytes(b"kept\r\n")
        with pytest.raises(ValueError, match="^column b has shape \\(4100,\\); "):
            signals.write_table(str(p), {"a": np.arange(5000), "b": np.arange(4100) * 0.5,
                                         "c": np.arange(3)})
        assert p.read_bytes() == b"kept\r\n" if existing else not p.exists()

    def test_a_column_not_1d_is_refused(self, tmp_path):
        p = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="^column a has shape \\(2, 5\\); "):
            signals.write_table(str(p), {"a": np.zeros((2, 5)), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="^column b has shape \\(\\); "):
            signals.write_table(str(p), {"a": np.zeros(1), "b": np.float64(0.5)})
        with pytest.raises(ValueError, match="^no columns to write$"):
            signals.write_table(str(p), {})
        assert not p.exists()


class TestWriterMemory:
    def _peak(self, n: int) -> int:
        rng = np.random.default_rng(n)
        # few distinct values keep the formatting short; the buffers are what is measured
        columns = {name: rng.integers(-50, 50, n) / 8.0 for name in
                   ("y", "yhat1", "yhat2", "lam", "rho", "yhat", "e", "cum_loss", "best_beta_prefix",
                    "best_loss_prefix", "regret", "norm_regret", "bound_norm")}
        frame = Trajectory(t=np.arange(1, n + 1), in_range=rng.random(n) < 0.5,
                           projected=rng.random(n) < 0.5, **columns)
        # the lazy tables are built outside the measurement
        write_trajectory(_drawn_frame(10, seed=0), os.devnull)
        tracemalloc.start()
        try:
            write_trajectory(frame, os.devnull)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_rows(self):
        small, large = self._peak(50_000), self._peak(200_000)
        assert large <= small + 2**20


RB = signals._READ_BLOCK


def _cells_parsed_by_python(path) -> dict:
    """Each column of a trajectory file converted cell by cell with int() and float()."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {name: np.array([(int if name in signals._INT_COLUMNS else float)(cell)
                            for cell in cells])
            for name, cells in zip(TRAJECTORY_COLUMNS, zip(*rows))}


class TestBlockReader:
    """The table reader parses ``_READ_BLOCK`` rows per numpy call; block edges change nothing."""

    @pytest.mark.parametrize("rows", [RB - 1, RB, RB + 1])
    def test_columns_bit_identical_at_block_edges(self, tmp_path, parser, rows):
        p = tmp_path / "traj.csv"
        write_trajectory(_drawn_frame(rows, seed=rows), str(p))
        back = read_trajectory(str(p))
        for name, want in _cells_parsed_by_python(p).items():
            got = _column(back, name)
            assert got.dtype == want.dtype and got.flags.owndata, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("rows", [RB - 1, RB, RB + 1])
    def test_input_file_bit_identical_at_block_edges(self, tmp_path, parser, rows):
        want = np.random.default_rng(rows).standard_normal((rows, 3))
        p = tmp_path / "seq.csv"
        _write_input_csv(p, [[repr(v) for v in row] for row in want.tolist()])
        samples, clipped = load_csv(str(p), 1e308)
        assert samples.tobytes() == want.tobytes() and clipped == 0

    def _last_block_edited(self, tmp_path, edit):
        p = tmp_path / "traj.csv"
        write_trajectory(_drawn_frame(2 * RB + 5, seed=1), str(p))
        lines = p.read_bytes().decode().split("\r\n")[:-1]
        edit(lines)
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_bad_cell_in_last_block(self, tmp_path):
        def edit(lines):
            cells = lines[-2].split(",")
            cells[5] = "x"
            lines[-2] = ",".join(cells)
        with pytest.raises(ParseError, match=f"row {2 * RB + 5}: non-numeric value 'x' in column rho$"):
            read_trajectory(self._last_block_edited(tmp_path, edit))

    def test_blank_line_in_last_block(self, tmp_path):
        path = self._last_block_edited(tmp_path, lambda lines: lines.insert(2 * RB + 3, ""))  # row 2 * RB + 4
        with pytest.raises(ParseError, match=f"row {2 * RB + 4}: expected 16 columns, found 0$"):
            read_trajectory(path)

    def test_short_row_in_last_block(self, tmp_path):
        def edit(lines):
            lines[-1] = "1,0,0"
        path = self._last_block_edited(tmp_path, edit)
        with pytest.raises(ParseError, match=f"row {2 * RB + 6}: expected 16 columns, found 3$"):
            read_trajectory(path)
        with pytest.raises(ParseError, match=f"row {2 * RB + 6}: expected 16 columns, found 3$"):
            load_csv(path, 1.0)


class TestReaderMemory:
    @staticmethod
    def _written(tmp_path, n, seed):
        rng = np.random.default_rng(seed)
        # few distinct values keep the file quick to write
        columns = {field: rng.integers(-50, 50, n) / 8.0 for field in signals._FIELDS[1:14]}
        frame = Trajectory(t=np.arange(1, n + 1), in_range=rng.integers(0, 2, n),
                           projected=rng.integers(0, 2, n), **columns)
        p = tmp_path / "traj.csv"
        write_trajectory(frame, str(p))
        return p

    @staticmethod
    def _read_traced(p, keep=None):
        """The trajectory read back, and the bytes held at the peak beyond what it retains."""
        tracemalloc.start()
        try:
            back = read_trajectory(str(p), keep=keep)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return back, peak - retained

    def test_working_memory_is_one_block(self, tmp_path):
        """Beyond the 16 columns it returns, reading 100,000 rows holds about one block."""
        n = 100_000
        back, extra = self._read_traced(self._written(tmp_path, n, seed=0))
        assert len(back) == n
        assert extra < 2 * 2**20

    def test_kept_columns_working_memory_is_one_block(self, tmp_path):
        """Beyond the three columns it returns, reading 3 * _READ_BLOCK rows holds
        what reading one block's rows holds: one block of lines at a time."""
        keep = ("t", "norm_regret", "bound_norm")
        _, one = self._read_traced(self._written(tmp_path, RB, seed=1), keep)
        back, three = self._read_traced(self._written(tmp_path, 3 * RB, seed=1), keep)
        assert len(back) == 3 * RB and back.t.flags.owndata and back.y is None
        # two blocks of lines held at once would read about 1.8 times one,
        # and the whole file about 3 times
        assert three < 1.25 * one


_MALFORMED_ROWS = 2 * RB + 5
# the data row edited: the first (file row 2), either side of the first block edge, the last
_EDITED_ROWS = {"row 2": 0, "block end": RB - 1, "block start": RB, "last block": _MALFORMED_ROWS - 1}
_YHAT1 = TRAJECTORY_COLUMNS.index("yhat1")


def _with_yhat1(cell):
    return lambda cells: cells[:_YHAT1] + [cell] + cells[_YHAT1 + 1 :]


# each malformed line, made from a good line's cells, and what each reader
# says of it after "row N: ": every column, plot's columns, load_csv's input
# columns; None where that reader accepts the file
_MALFORMED = {
    "blank line": (lambda cells: [], ("expected 16 columns, found 0",) * 3),
    "short row": (lambda cells: cells[:3], ("expected 16 columns, found 3",) * 3),
    "extra cell": (lambda cells: cells + ["9"], ("expected 16 columns, found 17",) * 3),
    "bad cell": (_with_yhat1("x"), ("non-numeric value 'x' in column yhat1", None,
                                    "non-numeric value 'x' in column yhat1")),
    "underscore": (_with_yhat1("7_5e-2"), ("non-numeric value '7_5e-2' in column yhat1", None,
                                           "non-numeric value '7_5e-2' in column yhat1")),
    "non-finite input cell": (_with_yhat1("inf"), (None, None,
                                                   "non-finite value 'inf' in column yhat1")),
}


@pytest.fixture(scope="module")
def run_file_lines(tmp_path_factory):
    """The lines of a trajectory file of a case1 run over three blocks of rows."""
    params = MixtureParams(mu=0.08, lambda_plus=0.08, y_bound=0.5)
    frame, _ = report.summarize(run(params, generate(SequenceSpec("case1", n=_MALFORMED_ROWS))),
                                bounds.constants_from_mu(0.08, 0.5, 0.08))
    p = tmp_path_factory.mktemp("run") / "traj.csv"
    write_trajectory(frame, str(p))
    return p.read_bytes().decode().split("\r\n")[:-1]


@pytest.mark.parametrize("where", _EDITED_ROWS)
@pytest.mark.parametrize("kind", _MALFORMED)
def test_malformed_files(tmp_path, run_file_lines, kind, where):
    """Each refusal names its file row, and a bad cell its column, wherever it lies;
    a bad cell in a column the reader does not keep stops nothing."""
    edit, messages = _MALFORMED[kind]
    i = _EDITED_ROWS[where]
    lines = list(run_file_lines)
    lines[i + 1] = ",".join(edit(lines[i + 1].split(",")))
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n")
    readers = (read_trajectory, lambda path: read_trajectory(path, keep=("t", "norm_regret", "bound_norm")),
               lambda path: load_csv(path, 1.0)[0])
    for read, message in zip(readers, messages):
        if message is None:
            assert len(read(str(p))) == _MALFORMED_ROWS
            continue
        with pytest.raises(ParseError) as refused:
            read(str(p))
        assert re.search(r"\brow \d+|\bcolumn \w+", str(refused.value))
        assert str(refused.value) == f"{p}: row {i + 2}: {message}"
