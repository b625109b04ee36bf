"""Exception types shared across the package."""


class QuadArmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QuadArmError):
    """A physical or controller parameter violates its constraints."""


class InvalidInputError(QuadArmError):
    """A runtime input (rotor speed, control vector, ...) is out of domain."""


class ConfigurationError(QuadArmError):
    """A configuration is internally inconsistent (singular mixer, bad gains, ...)."""


class DivergenceError(QuadArmError):
    """The simulation state left the finite envelope."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"simulation diverged at t={time:.6g} s")


class IntegrationError(QuadArmError):
    """A period produced a non-finite state."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"non-finite derivative at t={time:.6g} s")
