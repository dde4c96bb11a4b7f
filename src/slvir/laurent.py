"""Sparse Laurent polynomials over Q(i) and window reduction modulo t^i*f.

A Laurent polynomial is a finite map exponent -> nonzero Scalar, a
:class:`~slvir.sparse.Terms` keyed by integers; a product is one
:func:`~slvir.sparse.bilinear` of two rows.  The key operation beyond ring
arithmetic is :func:`divmod_window`: writing any p(t) as q(t)*f(t) + r(t)
with r supported on a fixed complement window of the lattice spanned by
{t^i f}.  For f of degree k with nonzero constant
and leading coefficients the windows are

    k = 1: {0}      k = 2: {0, 1}      k = 3: {-1, 0, 1}

Each window spans a complement because nonzero multiples of f have width
at least k while window-supported polynomials have width below k, so the
quotient and remainder are unique.
"""

from __future__ import annotations

from functools import partial

from .errors import BadPolynomial, integer, positive_int
from .scalar import Scalar, _reduced
from .sparse import Terms, bilinear, gauss, lincomb, rekey, unit_row


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
        """Expand prod (t - lam)^mult for [(lam, mult), ...]; each factor is
        one lincomb, of the product so far times t and times -lam."""
        row = unit_row(0)
        for lam, mult in roots:
            n, m, d = gauss(Scalar.of(lam))
            for _ in range(positive_int(mult, "a root multiplicity")):
                row = lincomb([(1, 0, 1, rekey(row, lambda e: e + 1)), (-n, -m, d, row)])
        return LaurentPoly._of_row(row)

    def coeff(self, exp: int) -> Scalar:
        den, re, im = self.row
        return _reduced(re.get(exp, 0), im.get(exp, 0), den)

    def min_exp(self) -> int:
        return min(self.keys())

    def max_exp(self) -> int:
        return max(self.keys())

    def __mul__(self, other):
        return LaurentPoly._of_row(bilinear(self.row, other.row, lambda a, b: unit_row(a + b)))

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly._of_row(rekey(self.row, lambda e: e + k))

    def __str__(self):
        return " + ".join(f"({self.terms[exp]})*t^{exp}" for exp in sorted(self.terms)) or "0"

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


def divmod_window(p: LaurentPoly, f: LaurentPoly):
    """Write p = q*f + r with support(r) inside :func:`sl2_window`; return (q, r).

    Eliminates exponents above the window with the leading coefficient and
    exponents below it with the constant coefficient; each step strictly
    shrinks the out-of-window support interval, and neither phase can
    reintroduce exponents eliminated by the other (nor set a q exponent twice).
    """
    k = check_window_poly(f)
    window = sl2_window(k)
    a0, ak = f.coeff(0), f.coeff(k)
    q: dict = {}
    r = p
    while not r.is_zero() and (m := r.max_exp()) > window[-1]:
        q[m - k] = c = r.coeff(m) / ak
        r = r - f.shift(m - k).scale(c)
    while not r.is_zero() and (m := r.min_exp()) < window[0]:
        q[m] = c = r.coeff(m) / a0
        r = r - f.shift(m).scale(c)
    return LaurentPoly(q), r


# kept while perfbench/tracing.py wraps it and tests/test_tooling.py pins it (ROADMAP item 7)
def reduce_power(n: int, f: LaurentPoly):
    """divmod_window specialised to p = t^n."""
    return divmod_window(LaurentPoly.t(integer(n, "the exponent of t^n")), f)

