"""Exception types shared across the package, and the config field check."""

import math
import numbers


class MMVSegError(Exception):
    """Base class for all package errors."""


class ShapeError(MMVSegError, ValueError):
    """Tensor extents do not satisfy an operation's shape contract."""


class ContractError(MMVSegError, ValueError):
    """An API precondition other than a shape constraint was violated."""


class NumericError(MMVSegError, ArithmeticError):
    """A non-finite value was produced or consumed where finiteness is required."""


class ConfigError(MMVSegError, ValueError):
    """A configuration object is internally inconsistent or unsupported."""


def is_number(value, kind=float):
    """Whether `value` is a non-bool real (integral, for `kind` int); numpy scalars count."""
    base = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, base) and not isinstance(value, bool)


def _number(name, kind, least, value):
    if not is_number(value, kind):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be {'positive' if least == 1 else f'>= {least}'}, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def check_fields(obj, rows):
    """Check and normalize fields of `obj`, one (field, kind, least) row each.

    `kind` is bool; int, a non-bool integral number (numpy ones too); float,
    a finite non-bool real; or a count n, a list or tuple of n ints, stored as
    a tuple.  Numbers are stored back as a Python int, or a float if not
    integral, so 1 stays 1 in JSON.  `least` is an inclusive lower bound (on
    each entry) or None.  A field that breaks its row is a ConfigError."""
    for name, kind, least in rows:
        value = getattr(obj, name)
        if kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        elif kind in (int, float):
            value = _number(name, kind, least, value)
        elif isinstance(value, (list, tuple)) and len(value) == kind:
            value = tuple(_number(f"{name} entry", int, least, v) for v in value)
        else:
            raise ConfigError(f"{name} needs {kind} entries, got {value!r}")
        setattr(obj, name, value)


class FormatError(MMVSegError, ValueError):
    """A binary file does not conform to its declared on-disk format."""


class GenerationError(MMVSegError, RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""
