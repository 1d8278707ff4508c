"""Exception types shared across the package, and the input rules that raise them."""

import contextlib
import dataclasses
import json
import math


class ModmiError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ModmiError):
    """A file or manifest does not conform to its declared format."""


class DataError(ModmiError):
    """Values violate a type invariant (non-finite, out of range, bad shape)."""


class AlignmentError(ModmiError):
    """Streams that must share length/rate do not."""


class InfeasibleError(ModmiError):
    """A requested configuration cannot be satisfied (e.g. k > distinct rows)."""


@contextlib.contextmanager
def located(where, as_type: type[ModmiError] | None = None):
    """Re-raise a ModmiError from the block as ``as_type`` (by default its own type),
    unchained, with ``where: `` before its message; other exceptions pass through."""
    try:
        yield
    except ModmiError as exc:
        raise (as_type or type(exc))(f"{where}: {exc}") from None


def is_numpy(value, *classes: str) -> bool:
    """Whether ``value`` is a numpy scalar of one of ``classes``, without loading numpy."""
    return any(t.__module__ == "numpy" and t.__name__ in classes for t in type(value).__mro__)


def shown(value) -> str:
    """``repr(value)`` for an error message; an integer too long for Python to
    print shows as its sign and bit length."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def printable(value) -> str:
    """``str(value)`` for a message, or that string's ``repr`` if a character of
    it does not print: a path or name with a line break keeps the error on one line."""
    text = str(value)
    return text if text.isprintable() else repr(text)


def is_json_type(value, types) -> bool:
    """``isinstance(value, types)``, but a bool counts only where ``types`` is bool."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def is_finite_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float, not a bool,
    whose float is finite."""
    real = is_json_type(value, (int, float)) or is_numpy(value, "integer", "floating")
    with contextlib.suppress(OverflowError):  # an integer too large for a float
        return real and math.isfinite(value)
    return False


def store_python_scalars(obj) -> None:
    """Store each numpy scalar in a field of frozen dataclass ``obj``, or among
    a dict field's values, as a Python value."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            value = {key: _python_scalar(item) for key, item in value.items()}
        object.__setattr__(obj, f.name, _python_scalar(value))


def _python_scalar(value):
    """``value``, or a numpy scalar's Python value: ``.item()`` keeps a longdouble."""
    if not is_numpy(value, "generic"):
        return value
    return float(value) if is_numpy(value, "floating") else value.item()


def check_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int: a Python or numpy integer, never a bool, and
    at least ``minimum`` when one is given.  Anything else raises DataError."""
    if not (is_json_type(value, int) or is_numpy(value, "integer")):
        raise DataError(f"{what} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise DataError(f"{what} must be >= {minimum}, got {shown(int(value))}")
    return int(value)


def check_positive(value, what: str) -> float:
    """``value`` as a finite float > 0: a value ``is_finite_real`` takes whose
    float is > 0.  Anything else raises DataError."""
    if is_finite_real(value) and float(value) > 0:
        return float(value)
    raise DataError(f"{what} must be finite and > 0 (a number, not a bool), got {shown(value)}")


def check_bool(value, what: str) -> bool:
    """``value`` as a Python bool: a Python or numpy bool.  Anything else
    raises DataError."""
    if is_json_type(value, bool) or is_numpy(value, "bool", "bool_"):  # bool_ before numpy 2
        return bool(value)
    raise DataError(f"{what} must be a bool, got {shown(value)}")


def check_type(value, types, what: str):
    """``value`` if it is an instance of ``types``, a class or a tuple of classes;
    otherwise DataError ``{what} must be a T[ or a U], got V``."""
    if isinstance(value, types):
        return value
    names = [t.__name__ for t in (types if isinstance(types, tuple) else (types,))]
    wanted = " or ".join(f"a{'n' * (name[0] in 'AEIOUaeiou')} {name}" for name in names)
    raise DataError(f"{what} must be {wanted}, got {type(value).__name__}")


def check_tuple(value, what: str) -> tuple:
    """``value`` as a tuple: a tuple or a list.  Anything else raises DataError."""
    if not isinstance(value, (tuple, list)):
        raise DataError(f"{what} must be a tuple or list, got {type(value).__name__}")
    return tuple(value)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's key/value ``pairs`` as a dict; a repeated key raises FormatError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(raw: str | bytes, where: str):
    """The JSON document ``raw``; invalid JSON or a repeated key in any object
    raises FormatError prefixed with ``where``."""
    try:
        with located(where):
            return json.loads(raw, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError, TypeError) as exc:  # TypeError: ``raw`` is not text
        raise FormatError(f"{where}: invalid JSON: {exc}") from None


def read_object(obj, where: str, required=()) -> dict:
    """``obj`` if it is a JSON object that holds every key of ``required``;
    otherwise FormatError: ``{where} must be an object`` or ``{where} is missing 'k'``."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be an object")
    for key in required:
        if key not in obj:
            raise FormatError(f"{where} is missing {key!r}")
    return obj


def check_keys(obj: dict, known, where: str) -> None:
    """Reject a key of JSON object ``obj`` that is not in ``known``."""
    for key in obj:
        if key not in known:
            raise FormatError(f"{where}: unknown key {key!r}")
