"""Exception types shared across the package, and the input checks that raise them."""

import dataclasses
import math
import numbers


class CoopDetectError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CoopDetectError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(CoopDetectError):
    """A matrix required to be Hermitian positive definite is not."""


class InvalidConfig(CoopDetectError):
    """A configuration object failed validation; message lists the fields."""


class ConfigMismatch(CoopDetectError):
    """Two objects that must describe the same experiment do not line up."""


class UnknownEdge(CoopDetectError):
    """A solve's neighbor sets do not form a backhaul graph (``netsim.neighbor_problems``)."""


class StateConsistencyError(CoopDetectError):
    """A solver state invariant failed (e.g. the maintained covariance drifted)."""


class DegenerateClasses(CoopDetectError):
    """A rate is undefined because one of the two activity classes is empty."""


def check_keys(what: str, d, cls, partial: bool = False) -> None:
    """Raise InvalidConfig unless ``d`` is an object of ``cls``'s fields, all unless ``partial``."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"a {what} must be a JSON object, got {type(d).__name__}")
    names = [f.name for f in dataclasses.fields(cls)]
    missing = [] if partial else [name for name in names if name not in d]
    unknown = sorted(d.keys() - set(names), key=str)
    problems = [f"{what} is missing {missing}"] if missing else []
    problems += [f"{what} has unknown keys {unknown}"] if unknown else []
    if problems:
        raise InvalidConfig("; ".join(problems))


def is_number(x) -> bool:
    """Whether ``x`` is a real number, numpy's included; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_integer(x) -> bool:
    """Whether ``x`` is an integer, numpy's included, not a bool; a plain int answers first."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_integers(values: dict) -> None:
    """Raise InvalidConfig naming each value of ``{name: value}`` that is not an integer."""
    wrong = [f"{k} must be an integer, got {v!r}" for k, v in values.items() if not is_integer(v)]
    if wrong:
        raise InvalidConfig("; ".join(wrong))


def seed_problems(seeds: dict) -> list[str]:
    """A message for each value of ``{name: value}`` that is not a nonnegative integer.

    That is what numpy's ``SeedSequence`` takes; numpy's integers count, a bool does not.
    """
    return [f"{k} must be a nonnegative integer, got {v!r}" for k, v in seeds.items()
            if not (is_integer(v) and v >= 0)]


def is_finite(x) -> bool:
    """Whether ``x`` is a finite real number; an int too large for a float is not."""
    try:
        return is_number(x) and math.isfinite(x)
    except OverflowError:
        return False
