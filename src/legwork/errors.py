"""Exception types, and the input rules that raise ConfigurationError."""

import numbers


class ConfigurationError(ValueError):
    """Invalid configuration: bad ranges, mismatched shapes, unknown keys."""


class NumericsError(ArithmeticError):
    """Non-finite values where finite ones are required; signals an upstream bug."""


def check_word(value, bits: int, name: str) -> None:
    """Raise ConfigurationError unless value is an integer in [0, 2**bits)
    (a bool is not one): a seed takes 64 bits and a spawn-key word 32, as
    seed_state packs them."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       and 0 <= value < 2**bits):
        raise ConfigurationError(f"{name} must be an integer in [0, 2**{bits}), "
                                 f"got {value!r}")


def check_count(value, low: int, name: str) -> None:
    """Raise ConfigurationError unless value is an integer >= low, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       and value >= low):
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(value, name: str) -> None:
    """Raise ConfigurationError unless value is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
