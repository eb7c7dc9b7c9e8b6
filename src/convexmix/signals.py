"""Benchmark sequences and CSV input/output.

Synthetic sequence kinds cover the two benchmark setups (a clean expert
paired with an alternating one, with and without a small systematic offset)
plus simple building blocks, and external sequences load from CSV with
out-of-cap values clipped and counted.  Trajectory files round-trip through
a fixed 16-column schema with 17-significant-digit floats, so reloading is
exact.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .mixture import Trajectory

__all__ = [
    "KINDS",
    "TRAJECTORY_COLUMNS",
    "SequenceSpec",
    "ParseError",
    "resolve",
    "generate",
    "load_sequence",
    "load_csv",
    "write_trajectory",
    "read_trajectory",
    "clip_samples",
]

KINDS = (
    "case1",
    "case2",
    "constant",
    "alternating",
    "square_wave",
    "piecewise_switch",
    "custom_file",
)

INPUT_COLUMNS = ("y", "yhat1", "yhat2")

TRAJECTORY_COLUMNS = (
    "t",
    "y",
    "yhat1",
    "yhat2",
    "lambda",
    "rho",
    "yhat",
    "e",
    "cum_loss",
    "best_beta_prefix",
    "best_loss_prefix",
    "regret",
    "norm_regret",
    "bound_norm",
    "in_range",
    "projected",
)
# the Trajectory field of each column
_FIELDS = tuple("lam" if name == "lambda" else name for name in TRAJECTORY_COLUMNS)


class ParseError(ValueError):
    """A CSV file did not match the expected schema; messages carry row numbers."""


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for a benchmark sequence.

    ``n`` is the horizon (for ``custom_file`` it may be 0, meaning all rows).
    ``y_bound`` and the kind-specific fields default per kind at resolve
    time.  Signs alternate starting negative at t = 1.
    """

    kind: str
    n: int = 0
    y_bound: float | None = None
    amplitude: float | None = None
    period: int | None = None
    switch_at: int | None = None
    path: str | None = None


# the type of each spec field that has one; bools are refused although
# Python counts them as integers
_FIELD_TYPES = {"n": numbers.Integral, "period": numbers.Integral, "switch_at": numbers.Integral,
                "y_bound": numbers.Real, "amplitude": numbers.Real, "path": str}
_TYPE_NAMES = {numbers.Integral: "an integer", numbers.Real: "a real number", str: "a string"}


def resolve(spec: SequenceSpec) -> SequenceSpec:
    """Fill kind-specific defaults and validate the spec."""
    for name, kind in _FIELD_TYPES.items():
        value = getattr(spec, name)
        optional = value is None and name != "n"
        if not optional and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"sequence field {name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if spec.kind not in KINDS:
        raise ValueError(f"unknown sequence kind {spec.kind!r}; expected one of {KINDS}")
    if spec.kind == "custom_file":
        if not spec.path:
            raise ValueError("custom_file sequences need a path")
        if spec.n < 0:
            raise ValueError(f"horizon must be nonnegative, got {spec.n}")
        y_bound = 1.0 if spec.y_bound is None else spec.y_bound
        if not (math.isfinite(y_bound) and y_bound > 0.0):
            raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
        return replace(spec, y_bound=y_bound)

    if spec.n < 1:
        raise ValueError(f"horizon must be at least 1, got {spec.n}")
    if spec.kind == "case1":
        y_bound = 0.5 if spec.y_bound is None else spec.y_bound
    elif spec.kind == "case2":
        y_bound = 0.54 if spec.y_bound is None else spec.y_bound
    else:
        y_bound = 1.0 if spec.y_bound is None else spec.y_bound
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")

    amplitude = spec.amplitude
    if spec.kind in ("case1", "case2"):
        amplitude = None
    elif amplitude is None:
        amplitude = y_bound
    if amplitude is not None and abs(amplitude) > y_bound:
        raise ValueError(f"amplitude {amplitude} exceeds the magnitude cap {y_bound}")

    period = spec.period
    if spec.kind == "square_wave":
        period = 100 if period is None else period
        if period < 2:
            raise ValueError(f"period must be at least 2, got {period}")
    switch_at = spec.switch_at
    if spec.kind == "piecewise_switch":
        switch_at = spec.n // 2 if switch_at is None else switch_at
        if not 1 <= switch_at <= spec.n:
            raise ValueError(f"switch step must lie in [1, {spec.n}], got {switch_at}")
    return replace(spec, y_bound=y_bound, amplitude=amplitude, period=period, switch_at=switch_at)


def generate(spec: SequenceSpec) -> np.ndarray:
    """Materialize the sequence described by ``spec``.

    Returns an ``(n, 3)`` float64 array whose row ``t - 1`` holds step t's
    ``y``, ``yhat1``, ``yhat2``.
    """
    spec = resolve(spec)
    if spec.kind == "custom_file":
        samples, clipped = load_sequence(spec)
        # clipping must never be silent
        if clipped:
            warnings.warn(f"clipped {clipped} out-of-cap fields while loading {spec.path}")
        return samples
    n, a = spec.n, spec.amplitude
    t = np.arange(1, n + 1)
    # alternation starts negative: -1 at t = 1, +1 at t = 2, ...
    sign = np.where(t % 2 == 1, -1.0, 1.0)
    if spec.kind == "case1":
        cols = (np.full(n, spec.y_bound), np.full(n, spec.y_bound), sign * spec.y_bound)
    elif spec.kind == "case2":
        level = 0.5
        if spec.y_bound < level:
            raise ValueError(f"magnitude cap {spec.y_bound} is below the fixed target level {level}")
        cols = (np.full(n, level), np.full(n, spec.y_bound), sign * level)
    elif spec.kind == "constant":
        cols = (np.full(n, a),) * 3
    elif spec.kind == "alternating":
        cols = (np.full(n, a), np.full(n, a), sign * a)
    elif spec.kind == "square_wave":
        blocks = np.where((t - 1) // (spec.period // 2) % 2 == 0, 1.0, -1.0)
        cols = (blocks * a, np.full(n, a), np.full(n, -a))
    else:  # piecewise_switch: the experts swap roles after switch_at
        clean, noisy = np.full(n, a), sign * a
        before = t <= spec.switch_at
        cols = (clean, np.where(before, clean, noisy), np.where(before, noisy, clean))
    return np.stack(cols, axis=1, dtype=float)


def load_sequence(spec: SequenceSpec) -> tuple[np.ndarray, int]:
    """Load a ``custom_file`` sequence, truncated to its first ``n`` rows if n >= 1.

    Returns the ``(n, 3)`` array and the number of fields clipped in the
    whole file.
    """
    spec = resolve(spec)
    if spec.kind != "custom_file":
        raise ValueError(f"only custom_file sequences are loaded, got {spec.kind!r}")
    samples, clipped = load_csv(spec.path, spec.y_bound)
    if spec.n >= 1:
        samples = samples[: spec.n]
    return samples, clipped


def load_csv(path: str, y_bound: float) -> tuple[np.ndarray, int]:
    """Load a sequence from CSV, clipping fields into [-y_bound, y_bound].

    Accepts either the 3-column input schema (y, yhat1, yhat2) or a full
    trajectory file, whose input-echo columns are extracted.  Returns the
    ``(n, 3)`` array and the number of clipped fields.
    """
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
    header, columns, parsed = _read_table(
        path, f"columns {','.join(INPUT_COLUMNS)} (or a full trajectory header)",
        INPUT_COLUMNS, TRAJECTORY_COLUMNS, keep=INPUT_COLUMNS,
    )
    if parsed and all(np.isfinite(column).all() for column in columns.values()):
        return clip_samples(np.stack([columns[name] for name in INPUT_COLUMNS], axis=1), y_bound)
    # the csv rows name a cell numpy rejected, or a non-finite one it parsed
    picks = [(header.index(name), columns[name]) for name in INPUT_COLUMNS]
    count, blocks = _csv_rows(path, len(header))
    for start, rows in blocks:
        for i, row in enumerate(rows, start=start):
            for j, column in picks:
                cell = row[j].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}: row {i + 2}: non-numeric value {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}: row {i + 2}: non-finite value {cell!r}")
                column[i] = v
    return clip_samples(np.stack([columns[name][:count] for name in INPUT_COLUMNS], axis=1),
                        y_bound)


# rows parsed per np.loadtxt call of the table reader
_READ_BLOCK = 4096


def _read_table(path: str, expected: str, *headers: tuple, ints=(), keep=None) -> tuple:
    """Parse a CSV file whose header is one of ``headers``.

    Returns ``(header, columns, parsed)``.  ``columns`` maps each name of
    ``keep`` (default: the whole header) to an owned array with one entry
    per data line, int64 for the names in ``ints`` and float64 otherwise.
    The open file is parsed :data:`_READ_BLOCK` rows per ``np.loadtxt``
    call, whose number parsing gives the same doubles as float(), straight
    into those arrays; every cell is parsed, kept or not.  ``parsed`` is
    false when numpy rejects a cell or parses a different number of rows
    than the file has lines (a blank line, a quoted newline); the caller
    then fills the columns from :func:`_csv_rows`.
    """
    with open(path, newline="") as fh:
        try:
            header = tuple(h.strip() for h in next(csv.reader(fh)))
        except StopIteration:
            raise ParseError(f"{path}: row 1: empty file, expected a header") from None
        if header not in headers:
            raise ParseError(f"{path}: row 1: expected {expected}, got {','.join(header)}")
        lines = sum(1 for _ in fh)
        if not lines:
            raise ParseError(f"{path}: row 2: no data rows after the header")
        dtype = np.dtype([(name, np.int64 if name in ints else np.float64) for name in header])
        columns = {name: np.empty(lines, dtype[name]) for name in keep or header}
        fh.seek(0)
        next(csv.reader(fh))
        done = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns on blank lines and on empty input
            try:
                for start in range(0, lines, _READ_BLOCK):
                    # a short block means the lines ran out first: every later one is empty
                    block = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                       quotechar='"', ndmin=1,
                                       max_rows=min(_READ_BLOCK, lines - start))
                    for name, column in columns.items():
                        column[start : start + len(block)] = block[name]
                    done = start + len(block)
            except (ValueError, OverflowError):
                pass
    return header, columns, done == lines


def _csv_rows(path: str, width: int) -> tuple:
    """The data rows as the csv module splits them: ``(count, blocks)``.

    One streaming pass checks that every row is ``width`` cells wide and
    counts them, before any cell is converted; ``blocks`` then reads the
    file again and yields ``(start, rows)``, lists of at most
    :data:`_READ_BLOCK` rows, so working memory is one block at any length.
    """
    with open(path, newline="") as fh:
        count = 0
        for count, row in enumerate(itertools.islice(csv.reader(fh), 1, None), start=1):
            if len(row) != width:
                raise ParseError(f"{path}: row {count + 1}: expected {width} columns, found {len(row)}")

    def blocks():
        with open(path, newline="") as fh:
            rows = itertools.islice(csv.reader(fh), 1, None)
            for start in range(0, count, _READ_BLOCK):
                yield start, list(itertools.islice(rows, _READ_BLOCK))

    return count, blocks()


_INT_COLUMNS = ("t", "in_range", "projected")
# rows formatted per write: a block's buffers stay near 2 MB at any n
_WRITE_BLOCK = 4096
_COMMA, _CRLF = (np.frombuffer(sep, np.uint8)[None] for sep in (b",", b"\r\n"))


def write_trajectory(frame: Trajectory, path: str) -> None:
    """Write every column as CSV, floats as ``'%.17g' % x`` and steps and flags as ``'%d' % x``.

    The bytes are those csv.writer wrote, CRLF line ends included.  Per block
    of rows, each column's distinct values are formatted once into NUL-padded
    cells; the cells are joined with commas and line ends, and the NULs dropped.
    """
    if len(frame) == 0:
        raise ValueError("refusing to write an empty trajectory")
    for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS):
        if getattr(frame, field) is None:
            raise ValueError(f"refusing to write a trajectory whose column {name} is unfilled; "
                             "summarize the run first")
    cols = [(np.asarray(getattr(frame, field)),
             *((np.int64, _int_cells) if name in _INT_COLUMNS else (np.float64, _float_cells)))
            for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS)]
    with open(path, "wb") as fh:
        fh.write((",".join(TRAJECTORY_COLUMNS) + "\r\n").encode())
        for start in range(0, len(frame), _WRITE_BLOCK):
            pieces = []
            for col, dtype, cells in cols:
                # converted per block (flags may be bool); distinct bit
                # patterns, so that -0.0 stays apart from 0.0
                values = np.asarray(col[start : start + _WRITE_BLOCK], dtype=dtype)
                bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
                text = cells(bits.view(dtype))
                # columns that are NUL in every cell are dropped before the gather
                pieces += [text[:, text.any(axis=0)][inverse], _COMMA]
            pieces[-1] = _CRLF
            block = np.hstack([np.broadcast_to(p, (len(values), p.shape[1])) for p in pieces])
            fh.write(block[block != 0])


# 2**27 + 1 splits a double into two halves whose products are exact (Dekker 1971)
_SPLIT = 134217729.0
# k = floor(log10 |x|) lies in [-308, 308] for normal doubles; p = 16 - k
_P_MIN, _P_MAX = 16 - 308, 16 + 308


@functools.cache
def _powers_of_ten() -> tuple:
    """hi, the two halves of hi, lo and shift: 10**p = (hi + lo) * 2**shift, hi in (1/2, 2).

    For p in [_P_MIN, _P_MAX]; Python's int / int rounds correctly, so
    hi + lo is 10**p to about 106 bits.
    """
    table = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length()
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        a, b = (num / den).as_integer_ratio()
        table.append((a / b, (num * b - a * den) / (den * b), s))
    hi, lo, shift = map(np.array, zip(*table))
    hi_hi = _SPLIT * hi - (_SPLIT * hi - hi)
    return hi, hi_hi, hi - hi_hi, lo, shift


@functools.cache
def _four_digits() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, one uint32 per number."""
    return np.array([b"%04d" % i for i in range(10_000)]).view(np.uint32)


def _digits17(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each int64 of ``d``, 10**16 <= d < 10**17."""
    top, low = np.divmod(d, 10**16)
    quarters = np.stack(np.divmod(np.stack(np.divmod(low, 10**8), axis=1), 10**4), axis=2)
    groups = np.hstack((top[:, None], quarters.reshape(-1, 4)))
    return _four_digits()[groups].view(np.uint8)[:, 3:]


def _decimal17(a: np.ndarray) -> tuple:
    """``(d, x, exact)``: each positive normal double of ``a`` rounds to ``d * 10**(x - 16)``.

    10**16 <= d < 10**17.  ``exact`` is False where ``a * 10**(16 - k)`` is within
    1e-6 of a tie, or where the estimate k of x was off near a power of ten.
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_hi, hi_lo, lo, shift = (t[16 - k - _P_MIN] for t in _powers_of_ten())
    m, e = np.frexp(a)
    # m * (hi + lo) as the double-double s + low: Dekker's error-free
    # product m * hi = p + err, with m * lo folded into the error
    m_hi = _SPLIT * m - (_SPLIT * m - m)
    m_lo = m - m_hi
    p = m * hi
    err = ((m_hi * hi_hi - p) + m_hi * hi_lo + m_lo * hi_hi) + m_lo * hi_lo + m * lo
    s = p + err
    low = np.ldexp(err - (s - p), e + shift)
    s = np.ldexp(s, e + shift)
    # s >= 2**53 is a whole number, so the fraction is all in low
    whole, frac = np.divmod(low, 1.0)
    ok = (s >= 1e16) & (s < 1e17)
    floor = np.where(ok, s, 1e16).astype(np.int64) + whole.astype(np.int64)
    exact = ok & (np.abs(frac - 0.5) >= 1e-6) & (floor >= 10**16) & (floor < 10**17)
    d = floor + (frac > 0.5)
    carry = d == 10**17
    return np.where(carry, 10**16, d), k + carry, exact


# ``%g`` layouts: fixed notation for decimal exponents in [-4, 17), else exponential
_EXPONENTIAL, _SLOW = 17, 99


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float64 ``v`` of ``x``, as rows of ASCII padded with NULs anywhere.

    Zeros, subnormals, non-finite values and the rare values
    :func:`_decimal17` is not certain of are formatted by Python.
    """
    out = np.zeros((len(x), 24), np.uint8)
    a = np.abs(x)
    fast = (a >= np.finfo(np.float64).tiny) & (a <= np.finfo(np.float64).max)
    d, exp10, exact = _decimal17(np.where(fast, a, 1.0))
    fast &= exact
    digits = _digits17(d)
    # shown[:, j]: a nonzero digit lies at j or after it; trailing zeros become NUL
    shown = np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    tail = digits * shown
    out[:, 0] = 45 * np.signbit(x)
    layout = np.where(fast, np.where((exp10 >= -4) & (exp10 < 17), exp10, _EXPONENTIAL), _SLOW)
    # np.unique sorts by bits, so each layout is a few runs of rows
    edges = [0, *(np.flatnonzero(np.diff(layout)) + 1), len(x)]
    for i, j in zip(edges[:-1], edges[1:]):
        kind, o = layout[i], out[i:j]
        if kind < 0:  # 0.000ddd
            o[:, 1:3] = np.frombuffer(b"0.", np.uint8)
            o[:, 3 : 2 - kind] = 48
            o[:, 2 - kind : 19 - kind] = tail[i:j]
        elif kind != _SLOW:
            # exponential notation is fixed with one digit before the point, plus a suffix
            point = 0 if kind == _EXPONENTIAL else kind
            o[:, 1 : point + 2] = digits[i:j, : point + 1]
            if point < 16:
                o[:, point + 2] = 46 * shown[i:j, point + 1]
                o[:, point + 3 : 19] = tail[i:j, point + 1 :]
        if kind == _EXPONENTIAL:
            o[:, 19] = ord("e")
            o[:, 20] = np.where(exp10[i:j] < 0, ord("-"), ord("+"))
            mag = np.abs(exp10[i:j, None])
            o[:, 21:24] = np.where(mag >= [100, 0, 0], 48 + mag // [100, 10, 1] % 10, 0)
    slow = [b"%.17g" % v for v in x[~fast].tolist()]
    out[~fast] = np.array(slow, "S24").view(np.uint8).reshape(-1, 24)
    return out


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each int64 ``i`` of ``v``, as rows of NUL-padded ASCII."""
    return np.array([b"%d" % i for i in v.tolist()], "S20").view(np.uint8).reshape(-1, 20)


def read_trajectory(path: str) -> Trajectory:
    """Read back a trajectory CSV written by :func:`write_trajectory`.

    Flags come back as int64 and ``final_state`` as ``None``.  Should numpy
    reject the file, every cell goes through int()/float() instead, which
    names the offending column or accepts what Python accepts (such as
    digit-group underscores).
    """
    _, columns, parsed = _read_table(
        path, f"the trajectory columns {','.join(TRAJECTORY_COLUMNS)}", TRAJECTORY_COLUMNS,
        ints=_INT_COLUMNS,
    )
    if not parsed:
        count, blocks = _csv_rows(path, len(TRAJECTORY_COLUMNS))
        bad = {}  # column index -> the error of its first bad cell
        for start, rows in blocks:
            # a column after the first bad one cannot be the one named
            for j, cells in enumerate(zip(*rows)):
                if bad and j >= min(bad):
                    break
                name = TRAJECTORY_COLUMNS[j]
                try:
                    columns[name][start : start + len(cells)] = list(
                        map(int if name in _INT_COLUMNS else float, cells))
                except (ValueError, OverflowError) as exc:
                    bad[j] = f"{path}: column {name}: {exc}"
        if bad:
            raise ParseError(bad[min(bad)])
        if count < len(columns["t"]):  # a quoted line break joined lines into one row
            columns = {name: column[:count] for name, column in columns.items()}
    return Trajectory(**{field: columns[name] for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS)})


def clip_samples(samples: np.ndarray, y_bound: float) -> tuple[np.ndarray, int]:
    """Clip every field of an ``(n, 3)`` array into [-y_bound, y_bound]; returns the clip count."""
    clipped = np.clip(samples, -y_bound, y_bound)
    return clipped, int((clipped != samples).sum())
