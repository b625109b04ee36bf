"""Exception types of the package, what a number is, the kinds of value, records, number lists."""

import dataclasses
import functools
import typing
from math import isfinite


class QuadArmError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(QuadArmError):
    """A physical or controller parameter violates its constraints."""


def number(value) -> bool:
    """Whether ``value`` is an int or a float in the float range, not a bool; NaN and inf are."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= 1.7976931348623157e308)  # largest float


#: each kind of scalar a parameter may be asked to be: its words in a refusal, what it admits
RANGES = {
    "positive": ("positive and finite", lambda x: number(x) and isfinite(x) and x > 0),
    "non-negative": ("non-negative and finite", lambda x: number(x) and isfinite(x) and x >= 0),
    "finite": ("finite", lambda x: number(x) and isfinite(x)),
    "switch": ("true or false", lambda x: isinstance(x, bool)),
    "count": ("an integer >= 0", lambda x: number(x) and isinstance(x, int) and x >= 0),
    "positive count": ("an integer >= 1", lambda x: number(x) and isinstance(x, int) and x >= 1),
}


def admits(kind, value) -> bool:
    """Whether ``value`` is of ``kind``: a key of ``RANGES``, or a record class."""
    return isinstance(value, kind) if isinstance(kind, type) else RANGES[kind][1](value)


def in_range(kind, **values) -> None:
    """Refuse the first of ``values`` that ``kind`` does not admit: ``<name> must be <words>``."""
    for name, value in values.items():
        if not admits(kind, value):
            words = (("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__
                     if isinstance(kind, type) else RANGES[kind][0])  # "a QuadState", say
            raise InvalidParameterError(f"{name} must be {words}")


def ranged(kind: str, default=dataclasses.MISSING):
    """A dataclass field whose value ``Record`` asks to be of ``kind``, a key of ``RANGES``."""
    return dataclasses.field(default=default, metadata={"kind": kind})


@functools.cache
def kinds(record: type) -> tuple:
    """Each field of the dataclass ``record`` with a kind, as (name, kind, optional) in field
    order: its ``ranged`` kind or the package record its annotation names; optional: None too."""
    hints, found = typing.get_type_hints(record), []
    for f in dataclasses.fields(record):
        args = typing.get_args(hints[f.name]) or (hints[f.name],)
        kind = f.metadata.get("kind") or next((a for a in args if dataclasses.is_dataclass(a)
                                               and a.__module__.startswith(__package__)), None)
        if kind:
            found.append((f.name, kind, type(None) in args))
    return tuple(found)


class Record:
    """A dataclass base that, when built, refuses the first field its ``kinds`` do not admit."""

    def __post_init__(self):
        for name, kind, optional in kinds(type(self)):
            if not (optional and getattr(self, name) is None):
                in_range(kind, **{name: getattr(self, name)})


def floats(entries, n: int, refusal: str, range: str | None = None, lead: bool = False) -> tuple:
    """A list, tuple or 1-D numpy vector of ``n`` ``number``s, or if ``lead`` the leading ``n``
    of a longer one, each in ``range`` unless that is None, as a tuple of floats; anything
    else is an ``InvalidParameterError`` saying ``refusal``."""
    entries = entries.tolist() if hasattr(entries, "tolist") else entries  # a numpy vector
    if not (isinstance(entries, (list, tuple)) and len(entries) >= n and (lead or len(entries) == n)
            and all(admits(range, x) if range else number(x) for x in entries[:n])):
        raise InvalidParameterError(refusal)
    return tuple(map(float, entries[:n]))


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
