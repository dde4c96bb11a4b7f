"""Exception types shared across the library, and the checks of integer input."""


class SlvirError(Exception):
    """Base class for library-specific errors."""


class NotRepresentable(SlvirError):
    """The requested value does not exist inside the Gaussian-rational field."""


class BadPolynomial(SlvirError):
    """Polynomial input violates the degree or support requirements."""


class NotASubalgebra(SlvirError):
    """The given span is not closed under the Lie bracket."""


class NotInSubalgebra(SlvirError):
    """The element does not lie in the polynomial subalgebra."""


class NotWeightModule(SlvirError):
    """The module has no weight-space decomposition."""


class WrongAlgebra(SlvirError):
    """The algebra element cannot act on this module family."""


class DepthExceeded(SlvirError):
    """A computation reached past a handle's depth; rebuild with a larger depth."""


class InvalidParameter(SlvirError):
    """Module or suite parameters violate their preconditions."""


def only_keys(obj: dict, allowed, what: str) -> None:
    """InvalidParameter naming each key of ``obj`` not in ``allowed``, so
    that a misspelt key is never silently dropped."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InvalidParameter(f"unknown key {', '.join(map(repr, unknown))} in {what} "
                               f"(allowed: {', '.join(sorted(allowed))})")


def required_keys(obj: dict, required, what: str) -> None:
    """InvalidParameter naming each key of ``required`` missing from ``obj``."""
    missing = [key for key in required if key not in obj]
    if missing:
        raise InvalidParameter(f"missing key {', '.join(map(repr, missing))} in {what}")


def positive_int(value, name: str) -> int:
    """``value`` if it is an int (not a bool) >= 1; else InvalidParameter
    naming ``name``.  JSON input goes through here, so 7.5, true and "7"
    are rejected instead of being truncated or coerced."""
    if type(value) is not int or value < 1:
        raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")
    return value


def integer(value, name: str) -> int:
    """``value`` if it is an int, not a bool; else InvalidParameter naming
    ``name`` and the value, so that 1.5 and True are never read as 1."""
    if type(value) is not int:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    return value


# The largest depth a suite or a VirPoly handle accepts: the degree-3 restriction
# takes 90-140 s at depth 60 on a 2-core x86-64 host (README), so 1000 would take hours.
MAX_DEPTH = 100

# The largest |n| of an e_n that Module.act accepts (the suites stay within MAX_DEPTH + 3):
# VirPoly projects t^n in |n| steps on coefficients that grow with |n|.
MAX_VIR_INDEX = 1000


def bounded_depth(value, name: str) -> int:
    """:func:`positive_int`, and at most MAX_DEPTH (the error names it)."""
    if positive_int(value, name) > MAX_DEPTH:
        raise InvalidParameter(f"{name} {value} exceeds the limit of {MAX_DEPTH}")
    return value


def nonnegative_int(value, name: str) -> int:
    """``value`` if it is an int (not a bool) >= 0; else InvalidParameter
    "bad <name> <value>", the wording of every rejected vector key.  Vector
    keys read from JSON go through here, so 1.5 and true are rejected
    instead of being truncated or coerced."""
    if type(value) is not int or value < 0:
        raise InvalidParameter(f"bad {name} {value!r}")
    return value
