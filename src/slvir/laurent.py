"""Sparse Laurent polynomials over Q(i) and window reduction modulo t^i*f.

A Laurent polynomial is a finite map exponent -> nonzero Scalar, a
:class:`~slvir.sparse.Terms` keyed by integers.  The key
operation beyond ring arithmetic is :func:`divmod_window`: writing any
p(t) as q(t)*f(t) + r(t) with r supported on a fixed complement window of
the lattice spanned by {t^i f}.  For f of degree k with nonzero constant
and leading coefficients the windows are

    k = 1: {0}      k = 2: {0, 1}      k = 3: {-1, 0, 1}

Each window spans a complement because nonzero multiples of f have width
at least k while window-supported polynomials have width below k, so the
quotient and remainder are unique.
"""

from __future__ import annotations

from functools import partial

from .errors import BadPolynomial, integer
from .scalar import Scalar
from .sparse import Terms, sum_terms


class LaurentPoly(Terms):
    """Finite exponent -> Scalar map; the empty map is zero."""

    __slots__ = ()

    _key = staticmethod(partial(integer, name="a Laurent exponent"))

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def t(exp: int = 1, coeff=1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @staticmethod
    def from_roots(roots) -> "LaurentPoly":
        """Expand prod (t - lam)^mult for [(lam, mult), ...]."""
        out = LaurentPoly.one()
        for lam, mult in roots:
            factor = LaurentPoly({1: 1, 0: -Scalar.of(lam)})
            for _ in range(int(mult)):
                out = out * factor
        return out

    def coeff(self, exp: int) -> Scalar:
        return self.terms.get(exp, Scalar.zero())

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def __mul__(self, other):
        return LaurentPoly._raw(sum_terms((e1 + e2, c1 * c2) for e1, c1 in self.terms.items()
                                          for e2, c2 in other.terms.items()))

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly._raw({e + k: v for e, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[exp]})*t^{exp}" for exp in sorted(self.terms))

    def to_json(self):
        return [[e, self.terms[e].to_json()] for e in sorted(self.terms)]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        return LaurentPoly({e: Scalar.from_json(c) for e, c in data})


def sl2_window(k: int) -> tuple[int, ...]:
    """The fixed complement window for a degree-k polynomial."""
    if k == 1:
        return (0,)
    if k == 2:
        return (0, 1)
    if k == 3:
        return (-1, 0, 1)
    raise BadPolynomial(f"degree {k} outside the supported range 1..3")


def check_window_poly(f: LaurentPoly) -> int:
    """Validate support on 0..k with nonzero ends, k in {1,2,3}; return k."""
    if f.is_zero():
        raise BadPolynomial("zero polynomial")
    if f.min_exp() != 0:
        raise BadPolynomial("constant coefficient must be nonzero")
    k = f.max_exp()
    if k not in (1, 2, 3):
        raise BadPolynomial(f"degree {k} outside the supported range 1..3")
    return k


def divmod_window(p: LaurentPoly, f: LaurentPoly, window=None):
    """Write p = q*f + r with support(r) inside the window; return (q, r).

    Eliminates exponents above the window with the leading coefficient and
    exponents below it with the constant coefficient; each step strictly
    shrinks the out-of-window support interval, and neither phase can
    reintroduce exponents eliminated by the other.
    """
    k = check_window_poly(f)
    if window is None:
        window = sl2_window(k)
    lo, hi = min(window), max(window)
    a0 = f.coeff(0)
    ak = f.coeff(k)
    q = LaurentPoly.zero()
    r = p
    while not r.is_zero() and r.max_exp() > hi:
        m = r.max_exp()
        c = r.coeff(m) / ak
        q = q + LaurentPoly.t(m - k, c)
        r = r - f.shift(m - k).scale(c)
    while not r.is_zero() and r.min_exp() < lo:
        m = r.min_exp()
        c = r.coeff(m) / a0
        q = q + LaurentPoly.t(m, c)
        r = r - f.shift(m).scale(c)
    return q, r


# kept while perfbench/tracing.py wraps it and tests/test_tooling.py pins it (ROADMAP item 7)
def reduce_power(n: int, f: LaurentPoly, window=None):
    """divmod_window specialised to p = t^n."""
    return divmod_window(LaurentPoly.t(int(n)), f, window)

