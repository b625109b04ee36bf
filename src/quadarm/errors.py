"""Exception types shared across the package, what a number is, and fixed-width number lists."""


class QuadArmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QuadArmError):
    """A physical or controller parameter violates its constraints."""


def number(value) -> bool:
    """Whether ``value`` is an int or a float in the float range, not a bool; NaN and inf are."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= 1.7976931348623157e308)  # largest float


def floats(entries, n: int, refusal: str) -> tuple:
    """A list, tuple or 1-D numpy vector of ``n`` ``number``s as a tuple of floats;
    anything else is an ``InvalidParameterError`` saying ``refusal``."""
    entries = entries.tolist() if hasattr(entries, "tolist") else entries  # a numpy vector
    if not (isinstance(entries, (list, tuple)) and len(entries) == n and all(map(number, entries))):
        raise InvalidParameterError(refusal)
    return tuple(map(float, entries))


class InvalidInputError(QuadArmError):
    """A runtime input (rotor speed, control vector, ...) is out of domain."""


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
