"""Exception types of the package, what a number is, its ranges, switches, and number lists."""

from math import isfinite


class QuadArmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QuadArmError):
    """A physical or controller parameter violates its constraints."""


def number(value) -> bool:
    """Whether ``value`` is an int or a float in the float range, not a bool; NaN and inf are."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= 1.7976931348623157e308)  # largest float


#: each range a parameter may be asked to lie in: its words in a refusal, what it admits
RANGES = {"positive": ("positive and finite", lambda x: x > 0),
          "non-negative": ("non-negative and finite", lambda x: x >= 0),
          "finite": ("finite", lambda x: True)}


def admits(range: str, value) -> bool:
    """Whether ``value`` is a finite ``number`` in ``range``, a key of ``RANGES``."""
    return number(value) and isfinite(value) and RANGES[range][1](value)


def in_range(range: str, **values) -> None:
    """Refuse the first of the named ``values`` that ``range`` does not admit with an
    ``InvalidParameterError``: ``<name> must be positive and finite``, say."""
    for name, value in values.items():
        if not admits(range, value):
            raise InvalidParameterError(f"{name} must be {RANGES[range][0]}")


def switches(**values) -> None:
    """Refuse the first of ``values`` that is not a bool: ``<name> must be true or false``."""
    for name, value in values.items():
        if not isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be true or false")


def floats(entries, n: int, refusal: str, range: str | None = None) -> tuple:
    """A list, tuple or 1-D numpy vector of ``n`` ``number``s, each in ``range`` unless that
    is None, as a tuple of floats; anything else is an ``InvalidParameterError`` saying
    ``refusal``."""
    entries = entries.tolist() if hasattr(entries, "tolist") else entries  # a numpy vector
    if not (isinstance(entries, (list, tuple)) and len(entries) == n and all(
            admits(range, x) if range else number(x) for x in entries)):
        raise InvalidParameterError(refusal)
    return tuple(map(float, entries))


class ConfigurationError(QuadArmError):
    """A configuration is internally inconsistent (singular mixer, bad gains, ...)."""


class DivergenceError(QuadArmError):
    """The simulation state left the finite envelope."""

    def __init__(self, time):
        self.time = time
        super().__init__(f"simulation diverged at t={time:.6g} s")


class IntegrationError(QuadArmError):
    """A period produced a non-finite state."""

    def __init__(self, time):
        self.time = time
        super().__init__(f"non-finite derivative at t={time:.6g} s")
