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
    header, table, rows = _read_table(
        path, float, f"columns {','.join(INPUT_COLUMNS)} (or a full trajectory header)",
        INPUT_COLUMNS, TRAJECTORY_COLUMNS,
    )
    picks = [1, 2, 3] if header == TRAJECTORY_COLUMNS else [0, 1, 2]
    if table is not None and np.isfinite(table[:, picks]).all():
        return clip_samples(table[:, picks], y_bound)
    values = []
    # a non-finite cell numpy parsed is named from the csv rows
    for i, row in enumerate(rows or _csv_rows(path, len(header)), start=2):
        for j in picks:
            cell = row[j].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {i}: non-numeric value {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: row {i}: non-finite value {cell!r}")
            values.append(v)
    return clip_samples(np.array(values).reshape(-1, 3), y_bound)


def _read_table(path: str, dtype, expected: str, *headers: tuple) -> tuple:
    """Parse a CSV file whose header is one of ``headers``.

    Returns ``(header, table, rows)``.  ``table`` is one numpy parse of the
    data rows with ``dtype``, whose number parsing gives the same doubles as
    float(); it is ``None`` when numpy rejects a cell or parses a different
    number of rows than the file has lines (a blank line, a quoted newline).
    Only then is ``rows`` the cells as the csv module splits them.
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
    shape = (lines,) if np.dtype(dtype).names else (lines, len(header))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on a body of blank lines
        try:
            table = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                               quotechar='"', ndmin=len(shape))
        except (ValueError, OverflowError):
            table = None
    if table is not None and table.shape == shape:
        return header, table, None
    return header, None, _csv_rows(path, len(header))


def _csv_rows(path: str, width: int) -> list:
    """The data rows as the csv module splits them, each checked to be ``width`` cells wide."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {i}: expected {width} columns, found {len(row)}")
    return rows


# One data row exactly as csv.writer wrote it: no formatted number needs
# quoting, and rows end in CRLF.
_ROW_FORMAT = "%d," + "%.17g," * 13 + "%d,%d\r\n"
_INT_COLUMNS = ("t", "in_range", "projected")
_WRITE_BLOCK = 8192


def write_trajectory(frame: Trajectory, path: str) -> None:
    """Write every column as CSV, floats with 17 significant digits and flags as 0/1."""
    if len(frame) == 0:
        raise ValueError("refusing to write an empty trajectory")
    cols = [np.asarray(getattr(frame, name)) for name in _FIELDS]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        # blocks of rows keep the Python objects of only one block alive
        for start in range(0, len(frame), _WRITE_BLOCK):
            block = [c[start : start + _WRITE_BLOCK].tolist() for c in cols]
            fh.writelines(map(_ROW_FORMAT.__mod__, zip(*block)))


_TRAJECTORY_DTYPE = np.dtype(
    [(name, np.int64 if name in _INT_COLUMNS else np.float64) for name in TRAJECTORY_COLUMNS]
)


def read_trajectory(path: str) -> Trajectory:
    """Read back a trajectory CSV written by :func:`write_trajectory`.

    Flags come back as int64 and ``final_state`` as ``None``.  Should numpy
    reject the file, every cell goes through int()/float() instead, which
    names the offending column or accepts what Python accepts (such as
    digit-group underscores).
    """
    _, table, rows = _read_table(
        path, _TRAJECTORY_DTYPE, f"the trajectory columns {','.join(TRAJECTORY_COLUMNS)}",
        TRAJECTORY_COLUMNS,
    )
    if table is None:
        table = {}
        for name, cells in zip(TRAJECTORY_COLUMNS, zip(*rows)):
            try:
                table[name] = np.array(list(map(int if name in _INT_COLUMNS else float, cells)))
            except ValueError as exc:
                raise ParseError(f"{path}: column {name}: {exc}") from None
    return Trajectory(**{field: np.ascontiguousarray(table[name])
                         for field, name in zip(_FIELDS, TRAJECTORY_COLUMNS)})


def clip_samples(samples: np.ndarray, y_bound: float) -> tuple[np.ndarray, int]:
    """Clip every field of an ``(n, 3)`` array into [-y_bound, y_bound]; returns the clip count."""
    clipped = np.clip(samples, -y_bound, y_bound)
    return clipped, int((clipped != samples).sum())
