"""Exception types shared across the package."""


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


def check_int(name, value):
    """`value` if it is an int and not a bool, else a ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


class FormatError(MMVSegError, ValueError):
    """A binary file does not conform to its declared on-disk format."""


class GenerationError(MMVSegError, RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""
