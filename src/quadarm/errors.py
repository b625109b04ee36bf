"""Exception types shared across the package, and the reader of a fixed-width number list."""


class QuadArmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QuadArmError):
    """A physical or controller parameter violates its constraints."""


def floats(entries, n: int, refusal: str) -> tuple:
    """A list or tuple of ``n`` entries as a tuple of ``float()``s, which refuse a
    non-number; anything else is an ``InvalidParameterError`` saying ``refusal``."""
    if not (isinstance(entries, (list, tuple)) and len(entries) == n):
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
