"""The two Lie algebras and the maps between them.

sl2(C) carries the basis {e, h, f} with [h,e] = 2e, [e,f] = h and
[h,f] = -2f.  The Virasoro algebra has basis {z, e_i : i in Z} with z
central and [e_i, e_j] = (j-i) e_{i+j} + delta_{j,-i} (i^3-i)/12 z.  The
embedding h -> 2 e_0, e -> e_1, f -> -e_{-1} identifies sl2 with
span{e_-1, e_0, e_1}.

Every automorphism of sl2 is inner, x -> g x g^-1 for a g in PGL2(Q(i)),
so an automorphism is stored as the 2x2 matrix g up to scale.  Its 3x3
matrix on (e, h, f) coordinates follows in closed form, its inverse is Ad
of the adjugate of g, and the three named families (gamma, gamma2,
sigma) are recognised by the shape of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

from .errors import (
    InvalidParameter,
    NotASubalgebra,
    WrongAlgebra,
    integer,
)
from .laurent import LaurentPoly, check_window_poly
from .linalg import Echelon
from .scalar import Scalar, sqrt_exact
from .sparse import Terms, row_from_scalars, row_to_scalars, sum_terms


class SL2Elt:
    """Coordinates (ce, ch, cf) in the basis {e, h, f}."""

    __slots__ = ("ce", "ch", "cf", "_hash")

    def __init__(self, ce=0, ch=0, cf=0):
        object.__setattr__(self, "ce", Scalar.of(ce))
        object.__setattr__(self, "ch", Scalar.of(ch))
        object.__setattr__(self, "cf", Scalar.of(cf))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SL2Elt is immutable")

    def coords(self):
        return (self.ce, self.ch, self.cf)

    def is_zero(self) -> bool:
        return self.ce.is_zero() and self.ch.is_zero() and self.cf.is_zero()

    def __add__(self, other):
        return SL2Elt(self.ce + other.ce, self.ch + other.ch, self.cf + other.cf)

    def __sub__(self, other):
        return SL2Elt(self.ce - other.ce, self.ch - other.ch, self.cf - other.cf)

    def __neg__(self):
        return SL2Elt(-self.ce, -self.ch, -self.cf)

    def scale(self, c) -> "SL2Elt":
        c = Scalar.of(c)
        return SL2Elt(self.ce * c, self.ch * c, self.cf * c)

    def __eq__(self, other):
        if not isinstance(other, SL2Elt):
            return NotImplemented
        return self.coords() == other.coords()

    def __hash__(self):
        # immutable, so the hash of its three Scalars is taken once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.coords()))
        return self._hash

    def __str__(self):
        bits = []
        for c, name in zip(self.coords(), ("e", "h", "f")):
            if not c.is_zero():
                bits.append(f"({c})*{name}")
        return " + ".join(bits) if bits else "0"

    __repr__ = __str__

    def to_json(self):
        return {"e": self.ce.to_json(), "h": self.ch.to_json(), "f": self.cf.to_json()}

    @staticmethod
    def from_json(data) -> "SL2Elt":
        return SL2Elt(
            Scalar.from_json(data["e"]),
            Scalar.from_json(data["h"]),
            Scalar.from_json(data["f"]),
        )


E = SL2Elt(1, 0, 0)
H = SL2Elt(0, 1, 0)
F = SL2Elt(0, 0, 1)


def bracket_sl2(x: SL2Elt, y: SL2Elt) -> SL2Elt:
    """Bilinear antisymmetric extension of the three defining relations."""
    return SL2Elt(
        (x.ch * y.ce - x.ce * y.ch) * 2,
        x.ce * y.cf - x.cf * y.ce,
        (x.cf * y.ch - x.ch * y.cf) * 2,
    )


class VirElt(Terms):
    """Finite combination of e_i plus a central z component: a
    :class:`~slvir.sparse.Terms` keyed by indices, which overrides only
    what z changes."""

    __slots__ = ("z",)

    _key = staticmethod(partial(integer, name="a Virasoro index"))

    def __init__(self, terms=None, z=0):
        super().__init__(terms)
        object.__setattr__(self, "z", Scalar.of(z))

    @classmethod
    def _raw(cls, terms: dict, z: Scalar = Scalar.zero()) -> "VirElt":
        obj = super()._raw(terms)
        object.__setattr__(obj, "z", z)
        return obj

    @staticmethod
    def e(i: int, coeff=1) -> "VirElt":
        return VirElt({i: coeff})

    @staticmethod
    def central(coeff=1) -> "VirElt":
        return VirElt({}, coeff)

    @staticmethod
    def from_laurent(p: LaurentPoly, z=0) -> "VirElt":
        return VirElt(p.terms, z)

    def is_zero(self) -> bool:
        return not self.terms and self.z.is_zero()

    def __add__(self, other):
        return VirElt._raw(sum_terms(chain(self.terms.items(), other.terms.items())),
                           self.z + other.z)

    def __neg__(self):
        return VirElt._raw({i: -c for i, c in self.terms.items()}, -self.z)

    def scale(self, c) -> "VirElt":
        c = Scalar.of(c)
        return VirElt._raw(super().scale(c).terms, self.z * c)

    def __eq__(self, other):
        if type(other) is not VirElt:
            return NotImplemented
        return self.terms == other.terms and self.z == other.z

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.z))

    def __str__(self):
        bits = [f"({c})*e_{i}" for i, c in sorted(self.terms.items())]
        if not self.z.is_zero():
            bits.append(f"({self.z})*z")
        return " + ".join(bits) if bits else "0"

    def to_json(self):
        return {"terms": [[i, self.terms[i].to_json()] for i in sorted(self.terms)],
                "z": self.z.to_json()}

    @staticmethod
    def from_json(data) -> "VirElt":
        return VirElt({i: Scalar.from_json(c) for i, c in data["terms"]},
                      Scalar.from_json(data["z"]))


def bracket_vir(x: VirElt, y: VirElt) -> VirElt:
    """[e_i, e_j] = (j-i) e_{i+j} + delta_{j,-i} (i^3-i)/12 z; z central."""
    pairs = []
    zpart = Scalar.zero()
    for i, ci in x.terms.items():
        for j, cj in y.terms.items():
            c = ci * cj
            pairs.append((i + j, c * (j - i)))
            if j == -i:
                zpart = zpart + c * Scalar.of(i**3 - i) / 12
    return VirElt._raw(sum_terms(pairs), zpart)


def embed_sl2(x: SL2Elt) -> VirElt:
    """Linear extension of h -> 2 e_0, e -> e_1, f -> -e_{-1}."""
    return VirElt({1: x.ce, 0: x.ch * 2, -1: -x.cf})


def sl2_from_vir(v: VirElt) -> SL2Elt:
    """Inverse of the embedding; defined on span{e_-1, e_0, e_1} with no z."""
    if not v.z.is_zero() or any(i not in (-1, 0, 1) for i in v.terms):
        raise WrongAlgebra(f"{v} is not in the embedded sl2")
    return SL2Elt(v.terms.get(1, Scalar.zero()),
                  v.terms.get(0, Scalar.zero()) / 2,
                  -v.terms.get(-1, Scalar.zero()))


# -- automorphisms ----------------------------------------------------------

def _mat_vec(m, v):
    return tuple(sum((m[i][j] * v[j] for j in range(3)), Scalar.zero()) for i in range(3))


class Automorphism:
    """The sl2 automorphism Ad(g): x -> g x g^-1, for an invertible
    g = [[p, q], [r, s]] over Q(i) taken up to scale; every automorphism of
    sl2 is one.

    ``matrix`` is its 3x3 matrix on (e, h, f) coordinates.  ``kind`` is one
    of identity / gamma / gamma2 / sigma / composite, read off g by
    :func:`_recognize`.  The inverse is Ad of the adjugate; it remembers its
    origin (``_inverse``, set on the result only, so no reference cycle
    forms), so inverting it again is free.
    """

    __slots__ = ("g", "matrix", "kind", "params", "_inverse")

    def __init__(self, g):
        p, q, r, s = g = tuple(map(Scalar.of, g))
        det = p * s - q * r
        if det.is_zero():
            raise InvalidParameter("an automorphism needs an invertible g")
        # the columns are the images of e, h and f
        inv_det = Scalar.one() / det
        matrix = tuple(tuple(c * inv_det for c in row) for row in (
            (p * p, p * q * -2, -(q * q)),
            (-(p * r), p * s + q * r, q * s),
            (-(r * r), r * s * 2, s * s),
        ))
        kind, params = _recognize(g)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @staticmethod
    def identity() -> "Automorphism":
        return Automorphism((1, 0, 0, 1))

    @staticmethod
    def gamma(lam) -> "Automorphism":
        """g = [[1, 0], [lam, 1]]: e -> e - lam h - lam^2 f,  h -> h + 2 lam f,
        f -> f."""
        return Automorphism((1, 0, lam, 1))

    @staticmethod
    def gamma2(lam1, lam2) -> "Automorphism":
        """g = [[1, 1], [lam1, lam2]]; requires lam1 != lam2.

        e -> (e - lam1 h - lam1^2 f) / (lam2 - lam1)
        h -> (-2e + (lam1+lam2) h + 2 lam1 lam2 f) / (lam2 - lam1)
        f -> (-e + lam2 h + lam2^2 f) / (lam2 - lam1)
        """
        if Scalar.of(lam1) == Scalar.of(lam2):
            raise InvalidParameter("gamma2 needs distinct parameters")
        return Automorphism((1, 1, lam1, lam2))

    @staticmethod
    def sigma() -> "Automorphism":
        """g = [[0, 1], [1, 0]]: the flip e <-> f, h -> -h."""
        return Automorphism((0, 1, 1, 0))

    def apply(self, x: SL2Elt) -> SL2Elt:
        return SL2Elt(*_mat_vec(self.matrix, x.coords()))

    def inverse(self) -> "Automorphism":
        """Ad of the adjugate (s, -q, -r, p); the inverse of an inverse is
        its origin."""
        if self._inverse is not None:
            return self._inverse
        p, q, r, s = self.g
        inv = Automorphism((s, -q, -r, p))
        object.__setattr__(inv, "_inverse", self)
        return inv

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    @property
    def tag(self) -> str:
        if self.kind in ("identity", "sigma", "composite"):
            return self.kind
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind}({inner})"

    def __repr__(self):
        return f"Automorphism[{self.tag}]"

    def to_json(self):
        return {
            "matrix": [c.to_json() for row in self.matrix for c in row],
            "tag": self.tag,
        }


def _recognize(g):
    """The family of Ad(g) and its parameters, matched on g up to scale;
    exact, as Ad is injective on PGL2."""
    p, q, r, s = g
    if q.is_zero() and s == p:
        lam = r / p
        return ("identity", ()) if lam.is_zero() else ("gamma", (lam,))
    if p.is_zero() and s.is_zero() and q == r:
        return "sigma", ()
    if not p.is_zero() and q == p:
        return "gamma2", (r / p, s / p)
    return "composite", ()


# -- subalgebra classification ----------------------------------------------

@dataclass(frozen=True)
class SubalgebraClass1D:
    """A one-dimensional subalgebra: its kind, the carrying automorphism,
    and the canonical generator aut(std) where std is e or h."""

    kind: str  # n_lambda | n_minus | h_lambda | h_pair
    aut: Automorphism
    generator: SL2Elt
    params: tuple


@dataclass(frozen=True)
class SubalgebraClass2D:
    kind: str  # b_plus | b_minus | b_lambda
    aut: Automorphism
    params: tuple


def classify_subalgebra_1d(x: SL2Elt) -> SubalgebraClass1D:
    """Classify span{x} among the one-dimensional subalgebras.

    Inputs with a nonzero e-coordinate are rescaled to e - beta h - delta f.
    The case delta = beta^2 yields gamma_beta(Ce); otherwise the span is a
    Cartan conjugate gamma2(beta +/- sqrt(beta^2 - delta))(Ch), which needs
    the square root to stay inside Q(i).
    """
    if x.is_zero():
        raise InvalidParameter("cannot classify the zero span")
    if not x.ce.is_zero():
        beta = -x.ch / x.ce
        delta = -x.cf / x.ce
        if delta == beta * beta:
            aut = Automorphism.gamma(beta)
            return SubalgebraClass1D("n_lambda", aut, aut.apply(E), (beta,))
        root = sqrt_exact(beta * beta - delta)
        lam1, lam2 = beta + root, beta - root
        aut = Automorphism.gamma2(lam1, lam2)
        return SubalgebraClass1D("h_pair", aut, aut.apply(H), (lam1, lam2))
    if not x.ch.is_zero():
        delta = -x.cf / x.ch
        lam = -delta / 2
        aut = Automorphism.gamma(lam)
        return SubalgebraClass1D("h_lambda", aut, aut.apply(H), (lam,))
    aut = Automorphism.sigma()
    return SubalgebraClass1D("n_minus", aut, aut.apply(E), ())


_EHF_ORDER = {"f": 0, "h": 1, "e": 2}  # pivot order e > h > f


def _ehf_row(x: SL2Elt) -> tuple:
    return row_from_scalars(dict(zip("ehf", x.coords())))


def classify_subalgebra_2d(x: SL2Elt, y: SL2Elt) -> SubalgebraClass2D:
    """Classify span{x, y} among the two-dimensional subalgebras.

    After closure is checked, the span either projects onto the (e, h)
    plane, giving a basis {h + alpha f, e + beta f} with alpha^2 = 4 beta
    (the conjugate gamma_{alpha/2} of span{h, e}), or contains f, which
    forces span{h, f}.
    """
    ech = Echelon(_EHF_ORDER.get)
    ech.insert(_ehf_row(x))
    ech.insert(_ehf_row(y))
    if ech.rank < 2:
        raise InvalidParameter("inputs are linearly dependent")
    if not ech.contains(_ehf_row(bracket_sl2(x, y))):
        raise NotASubalgebra(f"span of {x} and {y} is not bracket-closed")
    if "e" in ech.rows and "h" in ech.rows:
        # the reduced basis {e + beta f, h + alpha f}; closure forces alpha^2 = 4 beta
        beta, alpha = (row_to_scalars(ech.rows[p]).get("f", Scalar.zero()) for p in "eh")
        if alpha * alpha != beta * 4:
            raise NotASubalgebra("closed span with inconsistent basis shape")
        if alpha.is_zero():
            return SubalgebraClass2D("b_plus", Automorphism.identity(), ())
        lam = alpha / 2
        return SubalgebraClass2D("b_lambda", Automorphism.gamma(lam), (lam,))
    return SubalgebraClass2D("b_minus", Automorphism.sigma(), ())


def intersect_virf_sl2(f: LaurentPoly) -> list[VirElt]:
    """Basis of the intersection of the embedded sl2 with span{z, t^i f}.

    These are the shifts t^i f whose support fits inside {-1, 0, 1}; there
    are exactly 3 - deg(f) of them, listed with i descending.
    """
    deg = check_window_poly(f)
    return [VirElt.from_laurent(f.shift(i)) for i in range(1 - deg, -2, -1)]
