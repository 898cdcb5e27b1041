"""Exception hierarchy for the subspace_net package.

Public functions raise these semantic errors instead of bare ValueError /
RuntimeError so callers can distinguish bad arguments, degenerate inputs,
diverging optimization, and corrupt files.

It also holds what the config schema and the public functions share:
`_setting` declares a field with its default and scalar rule, which
`check_argument` applies, and `check_matrix` takes a real matrix argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field

import numpy as np


class SubspaceNetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SubspaceNetError, ValueError):
    """An argument violates its contract (non-finite, out of range, bad rank)."""


class DimensionError(SubspaceNetError, ValueError):
    """Array shapes do not agree with the operation's contract."""


class EmptyInputError(SubspaceNetError, ValueError):
    """An operation that needs at least one element received none."""


class DegenerateInputError(SubspaceNetError, ValueError):
    """A zero-norm column/row or zero-variance input makes a metric undefined."""


class ConditioningError(SubspaceNetError, ValueError):
    """A linear system is singular or numerically unusable as posed."""


class StepSizeError(SubspaceNetError, RuntimeError):
    """A gradient update produced non-finite values (step size too large).

    ``iteration`` is the 0-based sample index at which divergence was
    detected. When raised from a full training pass, ``last_state`` holds the
    last finite ``(U, V)`` pair and ``trace`` the log collected so far.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 last_state=None, trace=None):
        super().__init__(message)
        self.iteration = iteration
        self.last_state = last_state
        self.trace = trace


class ParseError(SubspaceNetError, ValueError):
    """A CSV or config file is malformed; the message pinpoints file/line/column."""


class ConfigError(SubspaceNetError, ValueError):
    """An experiment configuration failed schema validation."""


class ModelFormatError(SubspaceNetError):
    """A model file is not in the expected binary format."""


class ModelVersionError(ModelFormatError):
    """The model file declares an unsupported format version."""


class TruncatedModelError(ModelFormatError):
    """The model file ends before the declared payload is complete."""


class ChecksumError(ModelFormatError):
    """The model file's trailing CRC32 does not match its contents."""


class SaturationWarning(RuntimeWarning):
    """Emitted when a censored-likelihood argument is clamped to its cap."""


def _number(*, integer=False, minimum=None, exclusive_min=None):
    def check(val):
        if not isinstance(val, numbers.Real) or isinstance(val, bool):
            return f"must be a number, got {type(val).__name__}"
        if not (isinstance(val, numbers.Integral) or math.isfinite(val)):
            return f"must be finite, got {val}"
        if integer and not isinstance(val, numbers.Integral):
            return "must be an integer"
        if minimum is not None and val < minimum:
            return f"must be >= {minimum}, got {val}"
        if exclusive_min is not None and val <= exclusive_min:
            return f"must be > {exclusive_min}, got {val}"
        return None
    return check


_COUNT = _number(integer=True, minimum=1)
_SEED = _number(integer=True, minimum=0)
_NONNEGATIVE = _number(minimum=0.0)
_POSITIVE = _number(exclusive_min=0.0)


def _fraction(val):
    if _POSITIVE(val) is None and val < 1.0:
        return None
    return f"must lie strictly in (0, 1), got {val}"


def _boolean(val):
    return None if isinstance(val, bool) else "must be a boolean"


def _setting(default, check, *, key=None, each=None):
    """A field with its default, its rule ``check`` (value -> message or None),
    its config key if not its name, and for lists an optional rule ``each``
    for every entry. A field without a default is required."""
    meta = {"check": check, "key": key, "each": each}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def check_argument(name: str, val, rule):
    """Raise `InvalidArgumentError` naming ``name`` when ``rule`` rejects ``val``."""
    message = rule(val)
    if message:
        raise InvalidArgumentError(f"{name} {message}")


_FLOAT64 = np.dtype(np.float64)


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; a ragged sequence raises `DimensionError`
    and a dtype of no integer or float kind `InvalidArgumentError`."""
    try:
        value = np.asarray(value)
    except ValueError as exc:
        raise DimensionError(f"{name} must not be a ragged sequence") from exc
    if value.dtype is _FLOAT64:  # the common case costs no further call
        return value
    if value.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must hold real numbers, got dtype {value.dtype}")
    return value.astype(np.float64)


def check_matrix(name: str, value, width: int | None = None) -> np.ndarray:
    """``value`` as a `_real_array`; raise `DimensionError` naming ``name``
    unless it is 2-D, with ``width`` columns when ``width`` is given."""
    value = _real_array(name, value)
    if value.ndim != 2 or (width is not None and value.shape[1] != width):
        columns = "" if width is None else f" with {width} columns"
        raise DimensionError(f"{name} must be 2-D{columns}, got shape {value.shape}")
    return value
