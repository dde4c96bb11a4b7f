"""Known answers for the benchmark's checks, computed without slvir.

Every expected verdict here comes from the closed-form statements that the
suites verify, evaluated with this file's own Gaussian-rational arithmetic
on ``fractions.Fraction`` pairs.  Nothing in this file imports slvir, so a
wrong verdict from the code under test cannot be reproduced by the oracle.

Scalars are compared in slvir's documented JSON form
``[re_num, re_den, im_num, im_den]`` (decimal strings).
"""

from __future__ import annotations

from fractions import Fraction


class G:
    """An element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _g(other)
        return G(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _g(other)
        return G(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, other):
        other = _g(other)
        return G(self.re * other.re - self.im * other.im,
                 self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = _g(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return G((self.re * other.re + self.im * other.im) / n,
                 (self.im * other.re - self.re * other.im) / n)

    def __eq__(self, other):
        other = _g(other)
        return self.re == other.re and self.im == other.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def text(self) -> str:
        """slvir's scalar text form, ``a/b+c/d*i`` with either part optional."""
        if not self.im:
            return str(self.re)
        im = f"{self.im}*i"
        if not self.re:
            return im
        return f"{self.re}{'' if self.im < 0 else '+'}{im}"

    def json(self) -> list:
        return [str(self.re.numerator), str(self.re.denominator),
                str(self.im.numerator), str(self.im.denominator)]

    def __repr__(self):
        return f"G({self.text()})"


def _g(x) -> G:
    return x if isinstance(x, G) else G(x)


# -- restriction to the embedded sl2 ---------------------------------------------


def restriction_expect(roots, polys) -> dict:
    """Expected outcome of ``suite_restriction`` for degree 1 or 2.

    ``roots`` is [(lam, mult)], ``polys`` one coefficient list per root; the
    character sends t^j f to sum_i p_i(j) lam_i^j.  The predicted targets:

    - degree 1: twisted Verma with delta = 2m/lam and Casimir scalar (delta+1)^2
    - double root: twisted W with eta = mu(t^-1 f) = (p0 - p1)/lam
    - split roots: twisted X with xi = -2 mu(t^-1 f)/(lam2 - lam1)
    """
    if len(roots) == 1 and roots[0][1] == 1:
        lam, m = roots[0][0], _coeff(polys[0], 0)
        delta = m * 2 / lam
        return {"family": "Verma", "param": ("delta", delta),
                "casimir_scalar": (delta + 1) * (delta + 1)}
    if len(roots) == 1 and roots[0][1] == 2:
        lam = roots[0][0]
        eta = (_coeff(polys[0], 0) - _coeff(polys[0], 1)) / lam
        return {"family": "W", "param": ("eta", eta)}
    if len(roots) == 2:
        (lam1, _), (lam2, _) = roots
        mu_m1 = _coeff(polys[0], 0) / lam1 + _coeff(polys[1], 0) / lam2
        xi = mu_m1 * -2 / (lam2 - lam1)
        return {"family": "X", "param": ("xi", xi)}
    raise ValueError("only degree-1 and degree-2 restrictions have a closed form here")


def _coeff(poly, k) -> G:
    return poly[k] if k < len(poly) else G(0)


# -- one-dimensional subalgebras ---------------------------------------------------


def subalgebra_kind(e: G, h: G, f: G) -> str:
    """Kind of span{e*E + h*H + f*F} in the classification of slvir.lie.

    With e != 0 the span is that of E - beta H - delta F (beta = -h/e,
    delta = -f/e): nilpotent when delta = beta^2, Cartan otherwise.
    Without e, h decides between a Cartan conjugate and C f.
    """
    if not e.is_zero():
        beta = -h / e
        delta = -f / e
        return "n_lambda" if delta == beta * beta else "h_pair"
    return "h_lambda" if not h.is_zero() else "n_minus"


def induction_expect(kind: str, mu0: G) -> dict:
    """Nilpotent kinds induce a twisted W(mu0), Cartan kinds a twisted X(mu0)."""
    if kind in ("n_lambda", "n_minus"):
        return {"family": "W", "param": ("eta", mu0)}
    return {"family": "X", "param": ("xi", mu0)}


# -- dense modules and simplicity ----------------------------------------------------

# Draws keep |xi| and |tau| small (see workloads.py), so every integer
# solution of (xi + 2i + 1)^2 = tau has |i| <= (sqrt|tau| + |xi| + 1)/2 < 20
# and this window is exhaustive for them.
SEARCH_WINDOW = 60


def casimir_roots(xi: G, tau: G) -> list[int]:
    """All integers i with (xi + 2i + 1)^2 = tau, by direct search."""
    if abs(xi.re) + abs(xi.im) > 8 or abs(tau.re) + abs(tau.im) > 400:
        raise ValueError("draw outside the range the search window covers")
    out = []
    for i in range(-SEARCH_WINDOW, SEARCH_WINDOW + 1):
        w = xi + (2 * i + 1)
        if w * w == tau:
            out.append(i)
    return out


def simplicity_expect(xi: G, tau: G) -> dict:
    """Irreducible iff no integer root; the witness is the root nearest zero."""
    roots = casimir_roots(xi, tau)
    if not roots:
        return {"irreducible": True, "witness_i": None}
    return {"irreducible": False, "witness_i": min(roots, key=lambda i: (abs(i), i))}


def dense_expect(xi: G, tau: G, depth: int) -> dict:
    """Branch and j0 of ``suite_dense``: j0 is the least root i >= 0.

    Raises ValueError when j0 > depth - 2, which is outside the suite's
    domain (it would raise DepthExceeded).
    """
    nonneg = [i for i in casimir_roots(xi, tau) if i >= 0]
    if not nonneg:
        return {"branch": "iso_to_Vdense", "j0": None}
    j0 = min(nonneg)
    if j0 > depth - 2:
        raise ValueError(f"j0 = {j0} needs depth at least {j0 + 2}")
    return {"branch": "composition_series", "j0": j0,
            "quotient_delta": xi + 2 * j0, "sub_delta": xi + 2 * j0 + 2}
