"""Exact Gaussian-rational scalars.

Every coefficient in the library is a value ``a + b*i`` with ``a, b``
rational.  All field operations are exact; nothing in the system ever
rounds.  Values that would require leaving this field (for example a
square root of 2) raise :class:`~slvir.errors.NotRepresentable` instead
of being approximated.

A Scalar is three ints ``(n, m, d)`` standing for ``(n + m*i)/d``, with
``d > 0`` and ``gcd(n, m, d) == 1``: a Gaussian-integer numerator over one
denominator, the one-key case of the rows of :mod:`slvir.sparse`.  Each
value has exactly one such form, so equality compares the three ints, and
every operation is a few integer multiplies and one gcd of its result.
The real and imaginary parts are read as fractions.Fraction through
``re`` and ``im``, for output.  The hot loops (module actions,
elimination) run on the integer rows of :mod:`slvir.sparse` rather than
on Scalars.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InvalidParameter, NotRepresentable

# after a real part the imaginary part needs its sign, so that "12*i" is
# not read as 1 + 2*i, nor "2i" as 2 + i; that sign is the only place
# inside a scalar where spaces may stand, so that "1 2" is not read as 12
_SCALAR_RE = _re.compile(
    r"(?P<real>[+-]?\d+(?:/\d+)?)?(?P<imag>(?(real) *[+-] *|[+-]?)(?:\d+(?:/\d+)?\*)?i)?"
)
_JSON_INT = _re.compile(r"-?[0-9]+")
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    ns = isqrt(num)
    ds = isqrt(den)
    if ns * ns != num or ds * ds != den:
        return None
    return Fraction(ns, ds)


class Scalar:
    """An element ``(n + m*i)/d`` of Q(i), immutable and hashable."""

    __slots__ = ("n", "m", "d")

    def __init__(self, re=0, im=0):
        """re + im*i from two ints (not bools) or Fractions."""
        for x in (re, im):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"Scalar parts must be ints or Fractions, not {x!r}")
        re, im = Fraction(re), Fraction(im)
        # over the least common denominator the form is already canonical
        d = lcm(re.denominator, im.denominator)
        _set_n(self, re.numerator * (d // re.denominator))
        _set_m(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.m, self.d)

    @staticmethod
    def of(x) -> "Scalar":
        """The one reader of a scalar: a Scalar, an int (not a bool), a
        Fraction, a string for :meth:`parse`, or the list form of
        :meth:`from_json`."""
        if isinstance(x, Scalar):
            return x
        if isinstance(x, bool):
            # a JSON true/false is not a number, although bool is an int
            raise TypeError(f"cannot coerce {x!r} to Scalar")
        if isinstance(x, int):
            return _new(x, 0, 1)
        if isinstance(x, Fraction):
            return _new(x.numerator, 0, x.denominator)
        if isinstance(x, str):
            return Scalar.parse(x)
        if isinstance(x, list):
            return Scalar.from_json(x)
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
        return not self.n and not self.m

    def is_integer(self) -> bool:
        return not self.m and self.d == 1

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.n

    def __add__(self, other):
        if isinstance(other, Scalar):
            d, e = self.d, other.d
            if d == e:
                return _reduced(self.n + other.n, self.m + other.m, d)
            return _reduced(self.n * e + other.n * d, self.m * e + other.m * d, d * e)
        if isinstance(other, int):
            d = self.d
            return _new(self.n + other * d, self.m, d)
        return self + Scalar.of(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            d, e = self.d, other.d
            if d == e:
                return _reduced(self.n - other.n, self.m - other.m, d)
            return _reduced(self.n * e - other.n * d, self.m * e - other.m * d, d * e)
        if isinstance(other, int):
            d = self.d
            return _new(self.n - other * d, self.m, d)
        return self - Scalar.of(other)

    def __rsub__(self, other):
        return Scalar.of(other).__sub__(self)

    def __neg__(self):
        return _new(-self.n, -self.m, self.d)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            a, b, c, e = self.n, self.m, other.n, other.m
            if not b and not e:
                return _reduced(a * c, 0, self.d * other.d)
            return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)
        if isinstance(other, int):
            return _reduced(self.n * other, self.m * other, self.d)
        return self * Scalar.of(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero Scalar")
            if other < 0:
                return _reduced(-self.n, -self.m, -other * self.d)
            return _reduced(self.n, self.m, other * self.d)
        if not isinstance(other, Scalar):
            other = Scalar.of(other)
        a, b, c, e, f = self.n, self.m, other.n, other.m, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f, self.d * c)
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        return Scalar.of(other).__truediv__(self)

    def __pow__(self, k: int):
        # (n + m*i)^k / d^k by repeated squaring in integers, with one gcd;
        # for k < 0 the base is 1/self = d*(n - m*i) / (n^2 + m^2)
        if not isinstance(k, int):
            raise TypeError("Scalar exponents must be integers")
        n, m, d = self.n, self.m, self.d
        if k < 0:
            if not (n or m):
                raise ZeroDivisionError("division by zero Scalar")
            n, m, d, k = d * n, -d * m, n * n + m * m, -k
        re, im, d = 1, 0, d**k
        while k:
            if k & 1:
                re, im = re * n - im * m, re * m + im * n
            n, m, k = n * n - m * m, 2 * n * m, k >> 1
        return _reduced(re, im, d)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.n == other.n and self.m == other.m and self.d == other.d
        if isinstance(other, int):
            return not self.m and self.d == 1 and self.n == other
        if isinstance(other, Fraction):
            return not self.m and self.n == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        n, m, d = self.n, self.m, self.d
        if m:
            return hash((n, m, d))
        if d == 1:
            return hash(n)
        # hash(Fraction(n, d)), as the numeric hash rule defines it
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:
            h = _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def sort_key(self):
        """Total order used only for deterministic output, not algebra."""
        return (self.re, self.im)

    # -- text and JSON forms -------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.n:
            parts.append(str(self.re))
        if self.m:
            sign = "-" if self.m < 0 else ("+" if parts else "")
            parts.append(f"{sign}{abs(self.im)}*i")
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse ``a/b+c/d*i`` with either part optional (``i`` means ``1*i``);
        spaces may stand at the ends and around the sign before the
        imaginary part, nowhere else."""
        s = text.strip()
        m = _SCALAR_RE.fullmatch(s)
        if not m or (m.group("real") is None and m.group("imag") is None) or not s:
            raise ValueError(f"cannot parse scalar {text!r}")
        try:
            re_part = Fraction(m.group("real").lstrip("+")) if m.group("real") else Fraction(0)
            im_part = Fraction(0)
            if m.group("imag"):
                imtxt = m.group("imag").replace(" ", "")
                sign = -1 if imtxt.startswith("-") else 1
                imtxt = imtxt.lstrip("+-")
                coeff = imtxt[:-1].rstrip("*")
                im_part = sign * (Fraction(coeff) if coeff else Fraction(1))
        except ZeroDivisionError:
            raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from None
        return Scalar(re_part, im_part)

    def to_json(self):
        n, m, d = self.n, self.m, self.d
        g, h = gcd(n, d), gcd(m, d)
        return [str(n // g), str(d // g), str(m // h), str(d // h)]

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
        return Scalar(Fraction(rn, rd), Fraction(im, id_))


def _is_json_int(x) -> bool:
    """An int that is not a bool, or a string of decimal digits with an
    optional minus sign."""
    if isinstance(x, str):
        return _JSON_INT.fullmatch(x) is not None
    return type(x) is int


# The slot setters write past Scalar.__setattr__, for construction only.
_set_n, _set_m, _set_d = Scalar.n.__set__, Scalar.m.__set__, Scalar.d.__set__
_object_new = object.__new__


def _new(n, m, d) -> Scalar:
    """The Scalar (n + m*i)/d of three ints already in canonical form."""
    out = _object_new(Scalar)
    _set_n(out, n)
    _set_m(out, m)
    _set_d(out, d)
    return out


def _reduced(n, m, d) -> Scalar:
    """The Scalar (n + m*i)/d of any ints with d > 0."""
    g = gcd(n, m, d)
    if g != 1:
        n, m, d = n // g, m // g, d // g
    # _new written out: every arithmetic operation ends here
    out = _object_new(Scalar)
    _set_n(out, n)
    _set_m(out, m)
    _set_d(out, d)
    return out


_ZERO = _new(0, 0, 1)
_ONE = _new(1, 0, 1)
_I = _new(0, 1, 1)


def sqrt_exact(a: Scalar) -> Scalar:
    """Square root within Q(i).

    The branch is deterministic: the result has positive real part, or
    nonnegative imaginary part when the real part is zero.  Raises
    NotRepresentable when no square root exists in Q(i).
    """
    a = Scalar.of(a)
    re, im = a.re, a.im
    if not im:
        if not re:
            return _ZERO
        r = _rational_sqrt(abs(re))
        if r is None:
            raise NotRepresentable(f"{a} has no square root in Q(i)")
        return Scalar(r) if re > 0 else Scalar(0, r)
    # For re + im*i with im != 0 solve c^2 = (re + |a|)/2, d = im/(2c);
    # both |a| and c must be rational for the root to exist in Q(i).
    norm = _rational_sqrt(re * re + im * im)
    if norm is None:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    c = _rational_sqrt((re + norm) / 2)
    if c is None or not c:
        raise NotRepresentable(f"{a} has no square root in Q(i)")
    return Scalar(c, im / (2 * c))
