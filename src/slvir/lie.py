"""The two Lie algebras and the maps between them.

sl2(C) carries the basis {e, h, f} with [h,e] = 2e, [e,f] = h and
[h,f] = -2f.  The Virasoro algebra has basis {z, e_i : i in Z} with z
central and [e_i, e_j] = (j-i) e_{i+j} + delta_{j,-i} (i^3-i)/12 z.  The
embedding h -> 2 e_0, e -> e_1, f -> -e_{-1} identifies sl2 with
span{e_-1, e_0, e_1}.  An sl2 element is a term map keyed by the letters
e, h and f, and the facts about the letters are stated here once, for
every layer to read: their order (:data:`LETTER_RANK`), their brackets
(:data:`LETTER_BRACKET`), their embedding (:data:`EMBEDDING`) and the
basis elements themselves (:data:`LETTERS`).

Every automorphism of sl2 is inner, x -> g x g^-1 for a g in PGL2(Q(i)),
so an automorphism is stored as the 2x2 matrix g up to scale.  The image
rows of e, h and f follow in integers, its inverse is Ad of the adjugate,
and the three named families (gamma, gamma2, sigma) are recognised by the
shape of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import lcm

from .errors import InvalidParameter, NotASubalgebra, WrongAlgebra, integer
from .laurent import LaurentPoly, check_window_poly
from .linalg import Echelon
from .scalar import _ZERO, Scalar, sqrt_exact
from .sparse import ZERO_ROW, Terms, bilinear, expand, lincomb, row_keys, row_of


class SL2Elt(Terms):
    """An sl2 element: a :class:`~slvir.sparse.Terms` keyed by the letters
    e, h and f, with coordinates (ce, ch, cf)."""

    __slots__ = ("_hash",)

    # the constructor names the letters itself
    _key = staticmethod(lambda letter: letter)

    def __init__(self, ce=0, ch=0, cf=0):
        super().__init__({"e": ce, "h": ch, "f": cf})

    def keys(self) -> list:
        # the letters always in the order e, h, f, as the constructor takes them
        _, re, im = self.row
        return [letter for letter in "ehf" if letter in re or letter in im]

    ce = property(lambda self: self.terms.get("e", _ZERO))
    ch = property(lambda self: self.terms.get("h", _ZERO))
    cf = property(lambda self: self.terms.get("f", _ZERO))

    def coords(self):
        return (self.ce, self.ch, self.cf)

    def __hash__(self):
        # a memo key of twists and tensor products: hashed once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", super().__hash__())
            return self._hash

    def __str__(self):
        bits = [f"({c})*{name}" for name, c in zip("ehf", self.coords()) if not c.is_zero()]
        return " + ".join(bits) if bits else "0"

    def to_json(self):
        return {name: c.to_json() for name, c in zip("ehf", self.coords())}

    @staticmethod
    def from_json(data) -> "SL2Elt":
        return SL2Elt(*(Scalar.from_json(data[name]) for name in "ehf"))


# the PBW order f < h < e, also the pivot order of a span
LETTER_RANK = {"f": 0, "h": 1, "e": 2}
# [x, y] of two letters as an integer combination of letters
LETTER_BRACKET = {
    ("h", "e"): {"e": 2},
    ("e", "h"): {"e": -2},
    ("e", "f"): {"h": 1},
    ("f", "e"): {"h": -1},
    ("h", "f"): {"f": -2},
    ("f", "h"): {"f": 2},
}
# the embedding in Vir: a letter goes to k e_i for its (i, k)
EMBEDDING = {"e": (1, 1), "h": (0, 2), "f": (-1, -1)}

E = SL2Elt(1, 0, 0)
H = SL2Elt(0, 1, 0)
F = SL2Elt(0, 0, 1)
LETTERS = {"e": E, "h": H, "f": F}


def bracket_sl2(x: SL2Elt, y: SL2Elt) -> SL2Elt:
    """Bilinear extension of the letter brackets."""
    return SL2Elt._of_row(bilinear(x.row, y.row,
                                   lambda p, q: (1, LETTER_BRACKET.get((p, q), {}), {})))


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
    def _of_row(cls, row, z: Scalar = _ZERO) -> "VirElt":
        obj = super()._of_row(row)
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
        return VirElt._of_row(p.row, Scalar.of(z))

    def is_zero(self) -> bool:
        return super().is_zero() and self.z.is_zero()

    def __add__(self, other):
        return VirElt._of_row(super().__add__(other).row, self.z + other.z)

    def __sub__(self, other):
        return VirElt._of_row(super().__sub__(other).row, self.z - other.z)

    def __neg__(self):
        return VirElt._of_row(super().__neg__().row, -self.z)

    def scale(self, c) -> "VirElt":
        c = Scalar.of(c)
        return VirElt._of_row(super().scale(c).row, self.z * c)

    def __eq__(self, other):
        if type(other) is not VirElt:
            return NotImplemented
        return self.row == other.row and self.z == other.z

    def __hash__(self):
        return hash((super().__hash__(), self.z))

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
    ys = y.terms
    z = sum((c * ys[-i] * (i**3 - i) for i, c in x.terms.items() if -i in ys), _ZERO) / 12
    return VirElt._of_row(bilinear(x.row, y.row, lambda i, j: (1, {i + j: j - i}, {})
                                   if i != j else ZERO_ROW), z)


def embed_sl2(x: SL2Elt) -> VirElt:
    """Linear extension of the letters' :data:`EMBEDDING`."""
    den, re, im = x.row
    return VirElt._of_row(row_of(*[(i, k * re.get(letter, 0), k * im.get(letter, 0), den)
                                   for letter, (i, k) in EMBEDDING.items()]))


def sl2_from_vir(v: VirElt) -> SL2Elt:
    """Inverse of the embedding, e_i -> letter/k = k letter/k^2; defined on
    span{e_-1, e_0, e_1} with no z."""
    den, re, im = v.row
    row = row_of(*[(letter, k * re.get(i, 0), k * im.get(i, 0), k * k * den)
                   for letter, (i, k) in EMBEDDING.items()])
    if not v.z.is_zero() or len(row_keys(row)) < len(v.keys()):
        raise WrongAlgebra(f"{v} is not in the embedded sl2")
    return SL2Elt._of_row(row)


# -- automorphisms ----------------------------------------------------------

# the coordinates of aut(e), aut(h) and aut(f) times det g, and det g, as
# sums of c * g[a] * g[b] over (c, a, b), with g = (p, q, r, s) indexed 0..3
_IMAGES = {"e": {"e": [(1, 0, 0)], "h": [(-1, 0, 2)], "f": [(-1, 2, 2)]},
           "h": {"e": [(-2, 0, 1)], "h": [(1, 0, 3), (1, 1, 2)], "f": [(2, 2, 3)]},
           "f": {"e": [(-1, 1, 1)], "h": [(1, 1, 3)], "f": [(1, 3, 3)]}}
_DET = [(1, 0, 3), (-1, 1, 2)]


def _quadratic(g, terms) -> tuple:
    """sum(c * g[a] * g[b]) over (c, a, b), for Gaussian integers g[j] = (re, im)."""
    re = im = 0
    for c, a, b in terms:
        (ar, ai), (br, bi) = g[a], g[b]
        re, im = re + c * (ar * br - ai * bi), im + c * (ar * bi + ai * br)
    return re, im


class Automorphism:
    """The sl2 automorphism Ad(g): x -> g x g^-1, for an invertible
    g = [[p, q], [r, s]] over Q(i) taken up to scale; every automorphism of
    sl2 is one.

    It holds g and ``_images``, the integer rows of aut(e), aut(h) and
    aut(f) keyed by letter, built in integers from g over one denominator;
    :meth:`apply` sums them over the letters of x.  The rows are canonical,
    so g and c*g compare equal.  Everything else is computed when it is
    read: ``matrix``, the 3x3 matrix on (e, h, f) coordinates whose columns
    are the images; ``kind``, one of identity / gamma / gamma2 / sigma /
    composite, and its ``params``, read off g by :func:`_recognize`; and
    the inverse, Ad of the adjugate.
    """

    __slots__ = ("g", "_images")

    def __init__(self, g):
        g = tuple(map(Scalar.of, g))
        # Ad(g) = Ad(c*g): over one denominator, g is four Gaussian integers
        den = lcm(*(x.d for x in g))
        ints = [(x.n * (den // x.d), x.m * (den // x.d)) for x in g]
        dr, di = _quadratic(ints, _DET)
        if not (dr or di):
            raise InvalidParameter("an automorphism needs an invertible g")
        # an image over det is the image times conj(det) over |det|^2
        norm = dr * dr + di * di
        images = {x: {y: _quadratic(ints, terms) for y, terms in coords.items()}
                  for x, coords in _IMAGES.items()}
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_images", {
            x: row_of(*[(y, a * dr + b * di, b * dr - a * di, norm) for y, (a, b) in image.items()])
            for x, image in images.items()})

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
        return SL2Elt._of_row(lincomb(expand(x.row, [(1, 0, 1, self._images.__getitem__)])))

    def inverse(self) -> "Automorphism":
        """Ad of the adjugate (s, -q, -r, p)."""
        p, q, r, s = self.g
        return Automorphism((s, -q, -r, p))

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self._images == other._images

    def __hash__(self):
        return hash(self.matrix)

    @property
    def matrix(self) -> tuple:
        # its columns are the coordinates of the images
        return tuple(zip(*(SL2Elt._of_row(self._images[x]).coords() for x in "ehf")))

    kind = property(lambda self: _recognize(self.g)[0])
    params = property(lambda self: _recognize(self.g)[1])

    @property
    def tag(self) -> str:
        kind, params = _recognize(self.g)
        return f"{kind}({','.join(map(str, params))})" if params else kind

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


def classify_subalgebra_2d(x: SL2Elt, y: SL2Elt) -> SubalgebraClass2D:
    """Classify span{x, y} among the two-dimensional subalgebras.

    After closure is checked, the span either projects onto the (e, h)
    plane, giving a basis {h + alpha f, e + beta f} with alpha^2 = 4 beta
    (the conjugate gamma_{alpha/2} of span{h, e}), or contains f, which
    forces span{h, f}.
    """
    ech = Echelon(LETTER_RANK.get)  # pivot order e > h > f
    ech.insert(x.row)
    ech.insert(y.row)
    if ech.rank < 2:
        raise InvalidParameter("inputs are linearly dependent")
    if not ech.contains(bracket_sl2(x, y).row):
        raise NotASubalgebra(f"span of {x} and {y} is not bracket-closed")
    if "e" in ech.rows and "h" in ech.rows:
        # the reduced basis {e + beta f, h + alpha f}; closure forces alpha^2 = 4 beta
        beta, alpha = (SL2Elt._of_row(ech.rows[p]).cf for p in "eh")
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
