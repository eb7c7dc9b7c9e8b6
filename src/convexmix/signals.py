"""Benchmark sequences and CSV input/output.

Synthetic sequence kinds cover the two benchmark setups (a clean expert
paired with an alternating one, with and without a small systematic offset)
plus simple building blocks, and external sequences load from CSV with
out-of-cap values clipped and counted.  A trajectory file has one column per
field of :class:`~convexmix.mixture.Trajectory` but ``final_lambda``, in field
order and with ``lam`` headed ``lambda``; its floats have 17 significant
digits, so reloading is exact.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .mixture import Trajectory

__all__ = [
    "KINDS",
    "TRAJECTORY_COLUMNS",
    "SequenceSpec",
    "ParseError",
    "resolve",
    "generate",
    "sequence_from",
    "load_csv",
    "write_trajectory",
    "write_table",
    "read_trajectory",
    "clip_samples",
]

# each sequence kind and the optional fields it reads; resolve refuses any other it is given
_KIND_FIELDS = {"case1": (), "case2": (), "constant": ("amplitude",), "alternating": ("amplitude",),
                "square_wave": ("amplitude", "period"),
                "piecewise_switch": ("amplitude", "switch_at"), "custom_file": ("path",)}
KINDS = tuple(_KIND_FIELDS)

INPUT_COLUMNS = ("y", "yhat1", "yhat2")

# the Trajectory field of each trajectory column, in file order: every field but final_lambda
_FIELDS = tuple(f.name for f in fields(Trajectory) if f.name != "final_lambda")
TRAJECTORY_COLUMNS = tuple("lambda" if name == "lam" else name for name in _FIELDS)


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
# the kinds whose magnitude cap defaults to other than 1.0
_DEFAULT_CAPS = {"case1": 0.5, "case2": 0.54}


def resolve(spec: SequenceSpec) -> SequenceSpec:
    """Fill kind-specific defaults and validate the spec."""
    for name, kind in _FIELD_TYPES.items():
        value = getattr(spec, name)
        optional = value is None and name != "n"
        if not optional and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"sequence field {name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if spec.kind not in KINDS:
        raise ValueError(f"unknown sequence kind {spec.kind!r}; expected one of {KINDS}")
    for name in ("amplitude", "period", "switch_at", "path"):
        if getattr(spec, name) is not None and name not in _KIND_FIELDS[spec.kind]:
            raise ValueError(f"sequence field {name} is not read by kind {spec.kind}")
    y_bound = _DEFAULT_CAPS.get(spec.kind, 1.0) if spec.y_bound is None else spec.y_bound
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
    if spec.kind == "custom_file":
        if not spec.path:
            raise ValueError("custom_file sequences need a path")
        if spec.n < 0:
            raise ValueError(f"horizon must be nonnegative, got {spec.n}")
        return replace(spec, y_bound=y_bound)

    if spec.n < 1:
        raise ValueError(f"horizon must be at least 1, got {spec.n}")
    amplitude = spec.amplitude
    if amplitude is None and "amplitude" in _KIND_FIELDS[spec.kind]:
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
    """Materialize the synthetic sequence described by ``spec``.

    Returns an ``(n, 3)`` float64 array whose row ``t - 1`` holds step t's
    ``y``, ``yhat1``, ``yhat2``.  A ``custom_file`` spec is refused: it is
    read by :func:`sequence_from`, which also returns the clip count.
    """
    spec = resolve(spec)
    if spec.kind == "custom_file":
        raise ValueError("custom_file sequences are read by sequence_from, not generated")
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


def sequence_from(spec: dict, *, n: int | None = None, y_bound: float | None = None,
                  origin: str = "sequence spec") -> tuple[np.ndarray, float, int]:
    """The samples, magnitude cap and clip count of the sequence a JSON object describes.

    ``spec`` holds :class:`SequenceSpec` fields, ``kind`` among them, and
    ``origin`` names it in errors; ``n`` and ``y_bound``, where given,
    replace its own.  A ``custom_file`` is read by :func:`load_csv`, cut to
    its first ``n`` rows if n >= 1; the clips of the whole file are counted.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"{origin}: expected an object with a 'kind'")
    unknown = set(spec) - {field.name for field in fields(SequenceSpec)}
    if unknown:
        raise ValueError(f"sequence spec has unknown keys: {sorted(unknown)}")
    given = {"n": n, "y_bound": y_bound}
    spec = resolve(SequenceSpec(**{**spec, **{key: v for key, v in given.items() if v is not None}}))
    if spec.kind != "custom_file":
        return generate(spec), spec.y_bound, 0
    samples, clipped = load_csv(spec.path, spec.y_bound)
    if spec.n > len(samples):
        raise ValueError(f"{spec.path}: n = {spec.n} exceeds the file's {len(samples)} data rows")
    return samples[: spec.n or None], spec.y_bound, clipped


def load_csv(path: str, y_bound: float) -> tuple[np.ndarray, int]:
    """Load a sequence from CSV, clipping fields into [-y_bound, y_bound].

    Accepts either the 3-column input schema (y, yhat1, yhat2) or a full
    trajectory file, of which only the input-echo columns are parsed: a bad
    cell elsewhere in it does not stop the load.  Every parsed cell must be
    a finite number.  Returns the ``(n, 3)`` array and the number of clipped
    fields.
    """
    if not (math.isfinite(y_bound) and y_bound > 0.0):
        raise ValueError(f"magnitude cap must be finite and positive, got {y_bound}")
    header, columns = _read_table(
        path, f"columns {','.join(INPUT_COLUMNS)} (or a full trajectory header)",
        INPUT_COLUMNS, TRAJECTORY_COLUMNS, keep=INPUT_COLUMNS,
    )
    samples = np.stack([columns[name] for name in INPUT_COLUMNS], axis=1)
    bad = ~np.isfinite(samples)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), len(INPUT_COLUMNS))
        with open(path, "rb") as fh:
            line = next(itertools.islice(fh, i + 1, None))
        raise ParseError(f"{path}: row {i + 2}: non-finite value "
                         f"{_cell(line, header.index(INPUT_COLUMNS[j]))!r} in column {INPUT_COLUMNS[j]}")
    return clip_samples(samples, y_bound)


# lines parsed per np.loadtxt call of the table reader
_READ_BLOCK = 4096
# where numpy's conversion error puts the cell: 0-based row of the call, 1-based file column
_NUMPY_CELL = re.compile(r"at row (\d+), column (\d+)")


def _cell(line: bytes, j: int) -> str:
    """The text of cell ``j`` of a data line, without surrounding whitespace."""
    return line.split(b",")[j].strip().decode("latin-1")


def _read_table(path: str, expected: str, *headers: tuple, ints=(), keep=None) -> tuple:
    """Parse the columns ``keep`` (default: all) of a CSV file whose header is one of ``headers``.

    Returns ``(header, columns)``: ``columns`` maps each name of ``keep``
    to an owned array with one entry per data line, int64 for the names in
    ``ints`` and float64 otherwise.  The data lines are counted on the raw
    bytes and the columns allocated; the file is then read
    :data:`_READ_BLOCK` lines at a time.  Every line's width is checked by
    its commas, kept columns or not, and then ``np.loadtxt`` parses only the
    kept columns (``usecols``), to the same doubles as float(); the other
    cells are never converted.  A bad width names the row, and a cell numpy
    rejects names its row and column.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ParseError(f"{path}: row 1: empty file, expected a header")
        if b"\r" in first.rstrip(b"\r\n"):  # the lines are split on LF only
            raise ParseError(f"{path}: row 1: lines end in a lone carriage return, expected LF or CRLF")
        header = tuple(h.strip() for h in next(csv.reader([first.decode("latin-1")])))
        if header not in headers:
            raise ParseError(f"{path}: row 1: expected {expected}, got {','.join(header)}")
        body, lines, last = fh.tell(), 0, b"\n"
        for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
            lines, last = lines + chunk.count(b"\n"), chunk[-1:]
        lines += last != b"\n"  # a last line without its line end
        if not lines:
            raise ParseError(f"{path}: row 2: no data rows after the header")
        keep = keep or header
        usecols = [header.index(name) for name in keep]
        dtype = np.dtype([(name, np.int64 if name in ints else np.float64) for name in keep])
        columns = {name: np.empty(lines, dtype[name]) for name in keep}
        fh.seek(body)
        for start in range(0, lines, _READ_BLOCK):
            block = list(itertools.islice(fh, _READ_BLOCK))
            commas = list(map(bytes.count, block, itertools.repeat(b",")))
            if commas.count(len(header) - 1) < len(block):
                i = next(i for i, c in enumerate(commas) if c != len(header) - 1)
                found = commas[i] + 1 if block[i].strip(b"\r\n") else 0
                raise ParseError(f"{path}: row {start + i + 2}: expected {len(header)} columns, "
                                 f"found {found}")
            try:
                parsed = np.loadtxt(block, dtype, delimiter=",", comments=None, quotechar='"',
                                    usecols=usecols, ndmin=1)
            except ValueError as exc:
                at = _NUMPY_CELL.search(str(exc))
                if at is None:
                    raise ParseError(f"{path}: rows {start + 2}-{start + len(block) + 1}: {exc}") from None
                i, j = int(at[1]), int(at[2]) - 1
                kind = "non-integer" if header[j] in ints else "non-numeric"
                raise ParseError(f"{path}: row {start + i + 2}: {kind} value {_cell(block[i], j)!r} "
                                 f"in column {header[j]}") from None
            if len(parsed) < len(block):
                raise ParseError(f"{path}: rows {start + 2}-{start + len(block) + 1}: "
                                 "a quoted cell runs over a line end")
            for name, column in columns.items():
                column[start : start + len(block)] = parsed[name]
            del block, parsed  # before the next block is read, so one block is held at a time
    return header, columns


_INT_COLUMNS = ("t", "in_range", "projected")
# rows formatted per write: a block's buffers stay near 2 MB at any n
_WRITE_BLOCK = 4096
_CRLF = np.frombuffer(b"\r\n", np.uint8)


def write_trajectory(frame: Trajectory, path: str) -> None:
    """Write every column of a summarized run with :func:`write_table`."""
    if len(frame) == 0:
        raise ValueError("refusing to write an empty trajectory")
    for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS):
        if getattr(frame, field) is None:
            raise ValueError(f"refusing to write a trajectory whose column {name} is unfilled; "
                             "summarize the run first")
    write_table(path, {name: getattr(frame, field) for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS)})


def write_table(path: str, columns: dict) -> None:
    """Write equal-length columns as CSV under a header of their names, in order.

    Floating columns are written as ``'%.17g' % x``, integer and boolean ones
    as ``'%d' % x``, with CRLF line ends: the bytes csv.writer wrote.  The
    columns are checked to be 1-D and of one length before the file is
    opened.  Per block of rows, each column is reduced to its distinct bit
    patterns; those of all float columns are formatted by one call into
    NUL-padded cells, and those of all the others by a second.  Each
    column's cells are then taken row by row into one byte buffer between
    commas and line ends, and the NULs are dropped.
    """
    cols = list(map(np.asarray, columns.values()))
    if not cols:
        raise ValueError("no columns to write")
    for name, col in zip(columns, cols):
        if col.ndim != 1 or col.shape != cols[0].shape:
            raise ValueError(f"column {name} has shape {col.shape}; the columns must be 1-D "
                             f"and as long as the first, {next(iter(columns))}")
    floats = [col.dtype.kind == "f" for col in cols]
    # each formatter and the columns it formats, all of them in one call per block
    kinds = [(dtype, cells, at) for dtype, cells, at in
             ((np.float64, _float_cells, [j for j, f in enumerate(floats) if f]),
              (np.int64, _int_cells, [j for j, f in enumerate(floats) if not f])) if at]
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\r\n").encode())
        for start in range(0, len(cols[0]), _WRITE_BLOCK):
            inverses, texts = [None] * len(cols), [None] * len(cols)
            for dtype, cells, at in kinds:
                bits = []
                for j in at:
                    # converted per block (flags may be bool); distinct bit
                    # patterns, so that -0.0 stays apart from 0.0
                    values = np.asarray(cols[j][start : start + _WRITE_BLOCK], dtype)
                    distinct, inverses[j] = np.unique(values.view(np.int64), return_inverse=True)
                    bits.append(distinct)
                text = cells(np.concatenate(bits).view(dtype))
                for j, part in zip(at, np.split(text, np.cumsum(list(map(len, bits)))[:-1])):
                    # byte columns that are NUL in every cell are dropped before the take
                    texts[j] = part[:, part.any(axis=0)]
            block = np.empty((len(inverses[0]), sum(t.shape[1] + 1 for t in texts) + 1), np.uint8)
            left = 0
            for text, inverse in zip(texts, inverses):
                right = left + text.shape[1]
                block[:, left:right] = np.take(text, inverse, axis=0)
                block[:, right] = 44  # the comma, or the CR of the line end
                left = right + 1
            block[:, -2:] = _CRLF
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
    digits = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    return digits.astype(np.uint8).view(np.uint32).ravel()


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
# the positions of the 17 significant digits
_J17 = np.arange(17)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each float64 ``v`` of ``x``, as rows of ASCII padded with NULs anywhere.

    ``x`` arrives as each column's distinct values sorted by bit pattern, as
    ``np.unique`` returns them, so the values of one layout form a few runs
    of rows.  Each run costs a Python iteration: 50,000 unsorted values of
    mixed exponents take about 18 times as long as after ``np.unique``.
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
    # (the first digit is never zero, so every row has a last nonzero digit)
    shown = _J17 <= (16 - np.argmax(digits[:, ::-1] != 48, axis=1))[:, None]
    tail = digits * shown
    out[:, 0] = 45 * np.signbit(x)
    layout = np.where(fast, np.where((exp10 >= -4) & (exp10 < 17), exp10, _EXPONENTIAL), _SLOW)
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


def read_trajectory(path: str, keep=None) -> Trajectory:
    """Read back a trajectory CSV written by :func:`write_trajectory`.

    Only the columns named in ``keep`` (default: all 16) are parsed; the
    other fields come back as ``None``, as does ``final_lambda``.  Every
    row's width is checked all the same.  Flags come back as int64.
    """
    _, columns = _read_table(
        path, f"the trajectory columns {','.join(TRAJECTORY_COLUMNS)}", TRAJECTORY_COLUMNS,
        ints=_INT_COLUMNS, keep=keep,
    )
    return Trajectory(**{field: columns.get(name) for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS)})


def clip_samples(samples: np.ndarray, y_bound: float) -> tuple[np.ndarray, int]:
    """Clip every field of an ``(n, 3)`` array into [-y_bound, y_bound]; returns the clip count."""
    clipped = np.clip(samples, -y_bound, y_bound)
    return clipped, int((clipped != samples).sum())
