"""Exact Gaussian-rational scalars.

Every coefficient in the library is a value ``a + b*i`` with ``a, b``
rational.  All field operations are exact; nothing in the system ever
rounds.  Values that would require leaving this field (for example a
square root of 2) raise :class:`~slvir.errors.NotRepresentable` instead
of being approximated.

The real and imaginary parts are fractions.Fraction.  The hot loops
(module actions, elimination) run on the exact integer rows of
:mod:`slvir.sparse` rather than on Scalars.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction

from .errors import InvalidParameter, NotRepresentable

_FZERO = Fraction(0)

_SCALAR_RE = _re.compile(
    r"^(?P<real>[+-]?\d+(?:/\d+)?)?(?P<imag>[+-]?(?:\d+(?:/\d+)?\*)?i)?$"
)
_JSON_INT = _re.compile(r"-?[0-9]+")


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    ns = math.isqrt(num)
    ds = math.isqrt(den)
    if ns * ns != num or ds * ds != den:
        return None
    return Fraction(ns, ds)


class Scalar:
    """An element ``re + im*i`` of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, bool):
            # a JSON true/false is not a number, although bool is an int
            raise TypeError(f"cannot coerce {x!r} to Scalar")
        if isinstance(x, (int, Fraction)):
            return _make(Fraction(x), _FZERO)
        if isinstance(x, str):
            return Scalar.parse(x)
        raise TypeError(f"cannot coerce {x!r} to Scalar")

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def i() -> "Scalar":
        return _I

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.re.numerator

    def __add__(self, other):
        if isinstance(other, Scalar):
            return _make(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return _make(self.re + other, self.im)
        return self + Scalar.of(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return _make(self.re - other.re, self.im - other.im)
        if isinstance(other, int):
            return _make(self.re - other, self.im)
        return self - Scalar.of(other)

    def __rsub__(self, other):
        return Scalar.of(other).__sub__(self)

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b and not d:
                return _make(a * c, _FZERO)
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, int):
            return _make(self.re * other, self.im * other)
        return self * Scalar.of(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(self.re / other, self.im / other)
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Scalar")
            return _make(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.of(other).__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar exponents must be integers")
        if n < 0:
            return _ONE / self ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Total order used only for deterministic output, not algebra."""
        return (self.re, self.im)

    # -- text and JSON forms -------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.im)}*i")
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse ``a/b+c/d*i`` with either part optional (``i`` means ``1*i``)."""
        s = text.strip().replace(" ", "")
        m = _SCALAR_RE.fullmatch(s)
        if not m or (m.group("real") is None and m.group("imag") is None) or not s:
            raise ValueError(f"cannot parse scalar {text!r}")
        re_part = Fraction(m.group("real").lstrip("+")) if m.group("real") else _FZERO
        im_part = _FZERO
        if m.group("imag"):
            imtxt = m.group("imag")
            sign = -1 if imtxt.startswith("-") else 1
            imtxt = imtxt.lstrip("+-")
            coeff = imtxt[:-1].rstrip("*")
            im_part = sign * (Fraction(coeff) if coeff else Fraction(1))
        return _make(re_part, im_part)

    def to_json(self):
        return [
            str(self.re.numerator),
            str(self.re.denominator),
            str(self.im.numerator),
            str(self.im.denominator),
        ]

    @staticmethod
    def from_json(data) -> "Scalar":
        """The inverse of :meth:`to_json`: four integers or integer strings,
        the numerator and denominator of each part.  Anything else, and a
        zero denominator, raises InvalidParameter: 1.5 and true are
        rejected instead of being truncated or coerced."""
        if not isinstance(data, (list, tuple)) or len(data) != 4 \
                or not all(_is_json_int(x) for x in data):
            raise InvalidParameter(f"bad scalar {data!r}: four integers expected")
        rn, rd, im, id_ = (int(x) for x in data)
        if not rd or not id_:
            raise InvalidParameter(f"bad scalar {data!r}: zero denominator")
        return _make(Fraction(rn, rd), Fraction(im, id_))


def _is_json_int(x) -> bool:
    """An int that is not a bool, or a string of decimal digits with an
    optional minus sign."""
    if isinstance(x, str):
        return _JSON_INT.fullmatch(x) is not None
    return type(x) is int


def _make(re, im) -> Scalar:
    out = object.__new__(Scalar)
    object.__setattr__(out, "re", re)
    object.__setattr__(out, "im", im)
    return out


_ZERO = Scalar(0)
_ONE = Scalar(1)
_I = Scalar(0, 1)


def sqrt_exact(a: Scalar) -> Scalar:
    """Square root within Q(i).

    The branch is deterministic: the result has positive real part, or
    nonnegative imaginary part when the real part is zero.  Raises
    NotRepresentable when no square root exists in Q(i).
    """
    a = Scalar.of(a)
    if not a.im:
        if not a.re:
            return _ZERO
        if a.re > 0:
            r = _rational_sqrt(a.re)
            if r is None:
                raise NotRepresentable(f"{a} has no square root in Q(i)")
            return _make(r, _FZERO)
        r = _rational_sqrt(-a.re)
        if r is None:
            raise NotRepresentable(f"{a} has no square root in Q(i)")
        return _make(_FZERO, r)
    # For re + im*i with im != 0 solve c^2 = (re + |a|)/2, d = im/(2c);
    # both |a| and c must be rational for the root to exist in Q(i).
    norm = _rational_sqrt(a.re * a.re + a.im * a.im)
    if norm is None:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    c = _rational_sqrt((a.re + norm) / 2)
    if c is None or not c:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    return _make(c, a.im / (2 * c))
