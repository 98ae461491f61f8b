"""Exception hierarchy shared across the package."""


class HypercirclesError(Exception):
    """Base class for all package-specific errors."""


class InstanceError(HypercirclesError):
    """Malformed or unsupported input (files, fields, parametrizations)."""


class NonProperParametrization(HypercirclesError):
    """A class's parameter budget ran out before a proven u or two values
    of t not attained at distinct points: as the budget suffices for every
    proper parametrization (`hypercircle.parameter_budget`), this proves the
    input non-proper.  None of its samples is GOOD: apart from poles, they
    read singular, or not attained at one point.
    """


class InternalInvariantError(HypercirclesError):
    """An internal consistency check failed; indicates a bug, not bad input."""
