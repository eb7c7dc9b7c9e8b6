"""Online convex combination of two expert predictors.

The combiner keeps a weight ``lam`` in (0, 1) and predicts
``yhat = lam*yhat1 + (1-lam)*yhat2``.  The weight is parameterized through
an auxiliary variable ``rho`` by the logistic map, and after each
observation ``rho`` moves along the stochastic gradient of the squared
prediction error:

    rho' = rho + mu * e * lam * (1-lam) * (yhat1 - yhat2)

:func:`run` advances a stack of sequences side by side, one sequence as
a stack of one, so each sequence's weights are bit-identical whatever
stack it runs in.  :func:`logistic_lambdas` is the same update over arrays;
the multiplicative form on ``lam`` itself, :func:`multiplicative_lambda`,
is kept as a scalar cross-check and agrees to floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericError",
    "MixtureParams",
    "Trajectory",
    "logistic",
    "logit",
    "step",
    "multiplicative_lambda",
    "logistic_lambdas",
    "sample_columns",
    "run",
]

MODES = ("monitor", "project")
# steps per block of the combiner loop: the per-step Python floats and
# lists of one block stay well under 1 MB at any n
_RUN_BLOCK = 4096
# a stack narrower than this runs sequence by sequence through the float
# loop: below about 32 sequences a step of (k,) vectors costs more than k
# scalar steps
_STACK_MIN = 32


class NumericError(ArithmeticError):
    """A non-finite value appeared while updating the combiner.

    ``step`` counts from 1; ``sequence`` is the index of the failing
    sequence in a stack passed to :func:`run`, and ``None`` otherwise.
    """

    def __init__(self, message: str, step: int | None = None, sequence: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        if sequence is not None:
            message = f"sequence {sequence}, {message}"
        super().__init__(message)
        self.step = step
        self.sequence = sequence


@dataclass(frozen=True)
class MixtureParams:
    """Run configuration: learning rate, weight floor, magnitude cap, mode.

    ``lambda_plus`` is the distance kept from the endpoints of (0, 1); the
    admissible weight range is [lambda_plus, 1 - lambda_plus].  ``monitor``
    mode applies the raw update and only flags range violations; ``project``
    mode clamps the weight back into range after each update.
    """

    mu: float
    lambda_plus: float
    y_bound: float
    mode: str = "monitor"

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"learning rate must be finite and positive, got {self.mu}")
        if not 0.0 < self.lambda_plus < 0.5:
            raise ValueError(f"weight floor must lie in (0, 1/2), got {self.lambda_plus}")
        if not (math.isfinite(self.y_bound) and self.y_bound > 0.0):
            raise ValueError(f"magnitude cap must be finite and positive, got {self.y_bound}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def logistic(rho: float) -> float:
    """Map the auxiliary variable to a combination weight in (0, 1)."""
    if not math.isfinite(rho):
        raise ValueError(f"auxiliary variable must be finite, got {rho}")
    if rho >= 0.0:
        return 1.0 / (1.0 + math.exp(-rho))
    # mirrored form avoids overflow in exp for large negative arguments
    ex = math.exp(rho)
    return ex / (1.0 + ex)


def logit(lam: float) -> float:
    """Inverse of :func:`logistic`; defined on the open interval (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"weight must lie strictly inside (0, 1), got {lam}")
    return math.log(lam / (1.0 - lam))


def step(
    params: MixtureParams, rho: float, lam: float, y: float, yhat1: float, yhat2: float
) -> tuple[float, float, float, float, bool, bool]:
    """Advance the combiner by one observation from ``rho`` and ``lam = logistic(rho)``.

    Returns ``(rho, lam, yhat, e, in_range, projected)``, the first two after
    the update.  The range flag refers to the weight that produced the
    prediction, i.e. the weight before the update.  This is the readable
    reference that the loop in :func:`run` reproduces bit for bit; a
    :class:`NumericError` raised here carries no step index.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"weight must lie strictly inside (0, 1), got {lam}")
    yhat = lam * yhat1 + (1.0 - lam) * yhat2
    e = y - yhat
    rho_new = rho + params.mu * e * lam * (1.0 - lam) * (yhat1 - yhat2)
    if not math.isfinite(rho_new):
        raise NumericError("auxiliary variable became non-finite")
    lam_new = logistic(rho_new)
    projected = False
    if params.mode == "project":
        lo = params.lambda_plus
        hi = 1.0 - params.lambda_plus
        if lam_new < lo:
            lam_new, rho_new, projected = lo, logit(lo), True
        elif lam_new > hi:
            lam_new, rho_new, projected = hi, logit(hi), True
    if not 0.0 < lam_new < 1.0:
        raise NumericError(f"weight saturated at {lam_new}")
    in_range = params.lambda_plus <= lam <= 1.0 - params.lambda_plus
    return rho_new, lam_new, yhat, e, in_range, projected


def multiplicative_lambda(mu: float, lam: float, y: float, yhat1: float, yhat2: float) -> float:
    """Weight after one multiplicative update, equivalent to :func:`step`.

    With m = mu * e * lam * (1-lam), the next weight is

        lam' = lam * exp(m*yhat1) / (lam * exp(m*yhat1) + (1-lam) * exp(m*yhat2))

    computed with the largest exponent subtracted for stability.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"weight must lie strictly inside (0, 1), got {lam}")
    e = y - (lam * yhat1 + (1.0 - lam) * yhat2)
    m = mu * e * lam * (1.0 - lam)
    g1 = m * yhat1
    g2 = m * yhat2
    top = max(g1, g2)
    num = lam * math.exp(g1 - top)
    den = num + (1.0 - lam) * math.exp(g2 - top)
    out = num / den
    # saturation at 0 or 1 (exponent underflow) breaks downstream logs
    if not 0.0 < out < 1.0:
        raise NumericError(f"multiplicative update degenerated to {out}")
    return out


def logistic_lambdas(mu: float, lam, y, yhat1, yhat2) -> np.ndarray:
    """:func:`step`'s next weight from ``rho = logit(lam)``, over arrays that broadcast together.

    ``lam`` must lie in (0, 1).  The operations are :func:`step`'s, in its
    order, written into two float64 buffers of the broadcast shape, never
    into an argument.  ``np.log`` and ``np.exp`` may differ from ``math``'s
    in the last ulp, so a row can differ from :func:`step` by an ulp or two.  Raises
    :class:`NumericError` if any weight leaves (0, 1) or is NaN.
    """
    shape = np.broadcast(lam, y, yhat1, yhat2).shape
    rest = 1.0 - lam
    # rho = ln(lam/(1-lam)) + mu*e*lam*(1-lam)*(yhat1-yhat2), e the prediction error
    e = np.multiply(lam, yhat1, out=np.empty(shape))
    rho = np.multiply(rest, yhat2, out=np.empty(shape))
    e += rho
    np.subtract(y, e, out=e)
    e *= mu
    e *= lam
    e *= rest
    e *= np.subtract(yhat1, yhat2, out=rho)
    np.log(np.divide(lam, rest, out=rho), out=rho)
    rho += e
    # the logistic with ex = exp(-|rho|): 1/(1+ex) where rho >= 0, ex/(1+ex)
    # elsewhere; ex <= 1, so the numerator is the larger of ex and rho >= 0
    ex = np.exp(np.copysign(rho, -1.0, out=e), out=e)
    out = np.maximum(ex, rho >= 0.0, out=rho)
    ex += 1.0
    out /= ex
    # min and max are NaN if any weight is, so NaN is caught as well
    if out.size and not (out.min() > 0.0 and out.max() < 1.0):
        raise NumericError("an updated weight saturated; mu too extreme")
    return out


@dataclass(kw_only=True)
class Trajectory:
    """One run, one array per column of :data:`convexmix.signals.TRAJECTORY_COLUMNS`.

    The field order, ``final_lambda`` left out, is the trajectory file's
    column order, and ``lam`` is written as ``lambda``.  :func:`run` fills
    the combiner columns; :func:`convexmix.report.summarize` fills in the
    five comparator columns.
    ``final_lambda`` is the weight after the last update, so the weight path
    lambda_1, ..., lambda_{n+1} is available in full; a trajectory read back
    from CSV has none, and ``None`` for each column the reader did not keep.

    :func:`run` over a stack of k sequences holds ``(k, n)`` columns ``t``,
    ``y``, ``yhat1``, ``yhat2``, ``lam``, ``in_range`` and ``projected``, one
    row per sequence, and a ``(k,)`` array ``final_lambda``; ``rho``,
    ``yhat``, ``e`` and ``cum_loss`` are ``None``.  One sequence runs as a
    stack of one, and its trajectory is that stack's row with those four
    filled in.  ``len`` counts steps, k*n for a stack.
    """

    t: np.ndarray
    y: np.ndarray
    yhat1: np.ndarray
    yhat2: np.ndarray
    lam: np.ndarray
    rho: np.ndarray | None = None
    yhat: np.ndarray | None = None
    e: np.ndarray | None = None
    cum_loss: np.ndarray | None = None
    best_beta_prefix: np.ndarray | None = None
    best_loss_prefix: np.ndarray | None = None
    regret: np.ndarray | None = None
    norm_regret: np.ndarray | None = None
    bound_norm: np.ndarray | None = None
    in_range: np.ndarray
    projected: np.ndarray
    final_lambda: float | np.ndarray | None = None

    def __len__(self) -> int:
        return next(c for c in vars(self).values() if isinstance(c, np.ndarray)).size

    @property
    def lam_after(self) -> np.ndarray:
        """The weight after each step, lambda_2, ..., lambda_{n+1}, along the last axis."""
        if self.final_lambda is None:
            raise ValueError("a trajectory read from CSV has no final weight")
        last = np.asarray(self.final_lambda)[..., None]
        return np.concatenate((self.lam[..., 1:], last), axis=-1)


def sample_columns(samples) -> np.ndarray:
    """The ``(3, n)`` float64 array of rows ``y``, ``yhat1``, ``yhat2``.

    ``samples`` is an ``(n, 3)`` array, or anything ``np.asarray`` makes
    one of, one row per step in field order.  The result is a fresh array,
    never a view of the caller's data.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError(f"sample array must have shape (n, 3), got {samples.shape}")
    return np.array(samples.T, order="C")


def _check_samples(columns: np.ndarray, y_bound: float, stack: bool):
    # columns is (3, k, n) in field order; report the first offending field
    # in sequence-major, then sample-major order, naming the sequence only
    # for a stack.  NaN fails both comparisons, so clean samples pass
    # without a temporary the size of the columns.
    if -y_bound <= columns.min() and columns.max() <= y_bound:
        return
    bad = ~np.isfinite(columns) | (np.abs(columns) > y_bound)
    j, i = divmod(int(np.argmax(bad.any(axis=0))), columns.shape[2])
    f = int(np.argmax(bad[:, j, i]))
    where = f"sequence {j}, " if stack else ""
    name = ("y", "yhat1", "yhat2")[f]
    v = float(columns[f, j, i])
    if not math.isfinite(v):
        raise ValueError(f"{where}sample {i + 1}: field {name} is not finite ({v})")
    raise ValueError(f"{where}sample {i + 1}: field {name} = {v} exceeds the magnitude cap {y_bound}")


def _float_loop(params: MixtureParams, y, y1, y2, lambda_init: float, lam_col, rho_col, projected,
                sequence):
    """The recurrence over one sequence as a loop over plain floats.

    Fills the ``(n,)`` rows ``lam_col``, ``rho_col`` and ``projected`` (the
    last all False on entry) and returns the final weight.  A :class:`NumericError`
    names the step and ``sequence``.
    """
    rho, lam = logit(lambda_init), lambda_init
    mu = params.mu
    lo = params.lambda_plus
    hi = 1.0 - params.lambda_plus
    project = params.mode == "project"
    rho_lo, rho_hi = logit(lo), logit(hi)
    exp, inf = math.exp, math.inf
    n = len(y)
    for start in range(0, n, _RUN_BLOCK):
        stop = start + _RUN_BLOCK
        lams, rhos, projected_at = [], [], []
        for i, (a, b, c) in enumerate(zip(y[start:stop].tolist(), y1[start:stop].tolist(),
                                          y2[start:stop].tolist()), start):
            lams.append(lam)
            rhos.append(rho)
            rho = rho + mu * (a - (lam * b + (1.0 - lam) * c)) * lam * (1.0 - lam) * (b - c)
            if not -inf < rho < inf:
                raise NumericError("auxiliary variable became non-finite", i + 1, sequence)
            if rho >= 0.0:
                lam = 1.0 / (1.0 + exp(-rho))
            else:
                ex = exp(rho)
                lam = ex / (1.0 + ex)
            if project:
                if lam < lo:
                    lam, rho = lo, rho_lo
                    projected_at.append(i)
                elif lam > hi:
                    lam, rho = hi, rho_hi
                    projected_at.append(i)
            elif not 0.0 < lam < 1.0:
                raise NumericError(f"weight saturated at {lam}", i + 1, sequence)
        lam_col[start:stop] = lams
        rho_col[start:stop] = rhos
        projected[projected_at] = True
    return lam


def _vector_loop(params: MixtureParams, y, y1, y2, lambda_init: float):
    """The recurrence over ``(k, n)`` columns, all k weights as one ``(k,)`` vector.

    Each step repeats the operations of :func:`_float_loop` in the same
    order, elementwise, and takes the logistic's ``exp`` from ``math.exp``
    (``np.exp`` differs from it in the last ulp on some inputs), so every
    row is bit-identical to that sequence's own float loop.  Returns
    ``(lam, projected, final weights)``, or ``None`` if some sequence may
    have failed: the caller then runs the sequences one by one, which
    raises the failure in the per-sequence order.
    """
    k, n = y.shape
    mu = params.mu
    lo = params.lambda_plus
    hi = 1.0 - params.lambda_plus
    project = params.mode == "project"
    rho_lo, rho_hi = logit(lo), logit(hi)
    exp, inf = math.exp, math.inf
    rho = np.full(k, logit(lambda_init))
    lam = np.full(k, lambda_init)
    lam_col = np.empty((k, n))
    projected = np.zeros((k, n), dtype=bool)
    # a failed sequence carries inf or nan, which must not warn
    with np.errstate(all="ignore"):
        for i, (a, b, c) in enumerate(zip(y.T, y1.T, y2.T)):
            lam_col[:, i] = lam
            q = 1.0 - lam
            rho += mu * (a - (lam * b + q * c)) * lam * q * (b - c)
            # the logistic's exp argument, -|rho|, is 0 or below; its sum is
            # finite unless some rho is not, or the |rho| add up past 1.8e308,
            # which only costs a rerun sequence by sequence
            arg = np.copysign(rho, -1.0).tolist()
            if not -inf < sum(arg):
                return None
            ex = np.fromiter(map(exp, arg), float, k)
            lam = np.where(rho >= 0.0, 1.0, ex)
            lam /= 1.0 + ex
            if project:
                low = lam < lo
                high = lam > hi
                out = low | high
                if out.any():
                    lam[low], rho[low] = lo, rho_lo
                    lam[high], rho[high] = hi, rho_hi
                    projected[:, i] = out
    # A weight of exactly 0 or 1 stays put: the update multiplies by
    # lam*(1-lam) = 0, or turns nan and fails the check above.  So a
    # monitor-mode saturation at any step shows in the final weights.
    if not project and not ((0.0 < lam) & (lam < 1.0)).all():
        return None
    return lam_col, projected, lam


def run(params: MixtureParams, samples, lambda_init: float = 0.5) -> Trajectory:
    """Run the combiner from weight ``lambda_init`` at step 1, over one sequence or a stack.

    ``samples`` is an ``(n, 3)`` array (see :func:`sample_columns`), or a
    ``(k, n, 3)`` stack of k sequences of the same length.  All sample
    fields must already lie within ``params.y_bound`` in absolute value;
    out-of-cap inputs are rejected rather than silently clipped.

    One sequence runs as a stack of one: the input is viewed as ``(3, k, n)``
    columns, checked, and given its weights by one dispatch.  From
    :data:`_STACK_MIN` sequences up, all k weights advance in one loop over
    the steps on ``(k,)`` vectors; below it, each sequence runs as a loop
    over plain floats, :data:`_RUN_BLOCK` steps at a time, so no per-step
    Python object outlives its block.  Both repeat the arithmetic of
    :func:`step` operation for operation, so every column is bit-identical
    to a loop of :func:`step` over that sequence alone.  A
    :class:`NumericError` names the lowest-index failing sequence (of a
    stack) and its first failing step.

    A stack returns its ``(k, n)`` columns (see :class:`Trajectory`), with
    ``y``, ``yhat1`` and ``yhat2`` views of the input.  A single sequence
    returns its row of copied columns, with predictions, errors and running
    loss computed over whole columns, in place.
    """
    samples = np.asarray(samples, dtype=float)
    stack = samples.ndim == 3
    if not stack:
        columns = sample_columns(samples)[:, None]
    elif samples.shape[2:] != (3,):
        raise ValueError(f"sample stack must have shape (k, n, 3), got {samples.shape}")
    elif not len(samples):
        raise ValueError("stack must hold at least one sequence")
    else:
        columns = np.moveaxis(samples, 2, 0)
    k, n = columns.shape[1:]
    if not n:
        raise ValueError("sequence must be non-empty")
    _check_samples(columns, params.y_bound, stack)
    y, y1, y2 = columns
    weights = _vector_loop(params, y, y1, y2, lambda_init) if k >= _STACK_MIN else None
    if weights is None:
        # rho is kept for a single sequence only; a stack's rows share this one
        lam_col, rho_col, projected = np.empty((k, n)), np.empty(n), np.zeros((k, n), dtype=bool)
        final = [_float_loop(params, y[j], y1[j], y2[j], lambda_init, lam_col[j], rho_col,
                             projected[j], j if stack else None) for j in range(k)]
    else:
        lam_col, projected, final = weights
    in_range = params.lambda_plus <= lam_col
    in_range &= lam_col <= 1.0 - params.lambda_plus
    if stack:
        return Trajectory(t=np.broadcast_to(np.arange(1, n + 1), (k, n)), y=y, yhat1=y1, yhat2=y2,
                          lam=lam_col, in_range=in_range, projected=projected,
                          final_lambda=np.asarray(final, dtype=float))

    # whole-column arithmetic in place: the only arrays allocated are the
    # returned columns, each computed as lam*y1 + (1-lam)*y2 and y - yhat
    y, y1, y2, lam_col = y[0], y1[0], y2[0], lam_col[0]
    e = np.subtract(1.0, lam_col)
    e *= y2
    yhat = lam_col * y1
    yhat += e
    np.subtract(y, yhat, out=e)
    cum_loss = e * e
    np.cumsum(cum_loss, out=cum_loss)
    return Trajectory(t=np.arange(1, n + 1), y=y, yhat1=y1, yhat2=y2, lam=lam_col, rho=rho_col,
                      yhat=yhat, e=e, cum_loss=cum_loss, in_range=in_range[0],
                      projected=projected[0], final_lambda=final[0])
