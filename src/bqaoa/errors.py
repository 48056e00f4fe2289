"""Exception hierarchy shared across the package.

The CLI maps the two bases to exit codes; any other exception is
unexpected (exit 4).  A leaf class exists only where code catches it::

    BqaoaError
      InputError (exit 2)
        ValidationError         the message names the field, if any
        TooLargeError           caught to name the size field (cli._dense)
      InfeasibleError (exit 3)
        NoChainError            caught for a benchmark row without a chain
        NoFeasibleOutcomeError  caught for a benchmark row without results

The loaders coerce document fields with ``as_float``, ``as_int``,
``as_list`` and ``as_object``, which raise ``ValidationError`` naming the
field.  A boolean is not a number to them, though Python counts it as one.
"""

import math


class BqaoaError(Exception):
    """Base class for all package errors."""


class InputError(BqaoaError):
    """Malformed input or configuration (CLI exit code 2)."""


class InfeasibleError(BqaoaError):
    """A well-formed request that cannot be met (CLI exit code 3)."""


class ValidationError(InputError):
    """Input that cannot be read or parsed, or that breaks an invariant."""


def as_float(value, field_name: str) -> float:
    """The field as a finite float, or a ValidationError naming it."""
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None:
        raise ValidationError(f"{field_name}: expected a number, got {value!r}")
    if not math.isfinite(number):
        raise ValidationError(f"{field_name}: must be finite, got {number}")
    return number


def as_int(value, field_name: str) -> int:
    """The field as an integer (``3``, ``3.0``, ``"3"``), or a ValidationError."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (isinstance(value, float) and value != number):
        raise ValidationError(f"{field_name}: expected an integer, got {value!r}")
    return number


def as_list(value, field_name: str) -> list:
    """A list-valued document field, or a ValidationError naming it."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{field_name}: expected a list, got {value!r}")
    return list(value)


def as_object(value, field_name: str, keys=None) -> dict:
    """An object-valued document field, or a ValidationError naming it; with
    ``keys``, a key outside them is a ValidationError naming that key."""
    if not isinstance(value, dict):
        raise ValidationError(f"{field_name}: expected an object, got {value!r}")
    for key in value if keys is not None else ():
        if key not in keys:
            name = f"{field_name}.{key}" if field_name else key
            expected = ", ".join(keys)
            raise ValidationError(f"{name}: unknown key, expected one of {expected}")
    return value


class TooLargeError(InputError):
    """Problem size exceeds what dense simulation supports."""


class NoChainError(InfeasibleError):
    """No chain satisfies the selection constraints (names the constraint)."""


class NoFeasibleOutcomeError(InfeasibleError):
    """Budget post-selection removed every outcome from a distribution."""
