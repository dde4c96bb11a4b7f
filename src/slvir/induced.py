"""Modules presented as left-ideal quotients of U(sl2), and the Virasoro
modules induced from polynomial subalgebras.

An :class:`InducedModule` is U(sl2) modulo the left ideal generated by
{s - mu(s) : s in a list of sl2 elements}, realised concretely.  U(sl2) is
an algebra of solvable type: under the degree-lex order the leading
monomial of m * g is m times the leading monomial of g, with coefficient
one.  So once the relations are interreduced they are a left Groebner basis
exactly when every S-pair reduces to zero (Kandri-Rody and Weispfenning,
J. Symb. Comp. 9, 1990), which the construction checks instead of
assuming.  The basis is the standard monomials, those no leading monomial
divides, and the normal form of any other monomial m is that of
m - q * g, for a relation g whose leading monomial divides m and
q = m / lm(g).  Normal forms are computed when first asked for and
memoised per handle.  This construction never assumes any isomorphism
theorem about the resulting module, which keeps downstream verification
non-circular.

A :class:`VirPolyModule` is the induced module attached to the degree-k
subalgebra span{z, t^i f} (k in {1,2,3}, nonzero roots) and a character
mu with mu(z) = 0.  Its underlying space is the InducedModule on the
relations from the intersection with the embedded sl2; the action of a
Virasoro element is computed by commuting it rightward to the generator
(e_n . (x w) v = x (e_n w) v + [e_n, x] w v) and reducing e_m . v through
the projection of t^m = q f + r: q f acts through mu and the window
remainder r acts as an sl2 element.  The projection is linear and sends
t^j f to its character value, so each exponent follows from the k next
to it; no quotient q is built.

Rows are the integer form of :mod:`slvir.sparse`.  Each division step is
one :func:`~slvir.sparse.lincomb` of the cached integer normal forms of
:mod:`slvir.pbw`, so reduction does no Scalar arithmetic.  A VirPoly
handle's ops are the letters e, h, f and the indices n of e_n; it builds
their rows on basis monomials (:meth:`VirPolyModule._build_row`, e_n's on
the generator from the window letters' rows) under the one memo of
:class:`~slvir.modules.Module`, and an action on a vector is one lincomb
of them.  The projection of each t^n is memoised per handle too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from math import lcm

from .errors import (BadPolynomial, DepthExceeded, InvalidParameter, NotInSubalgebra,
                     nonnegative_int, positive_int)
from .laurent import LaurentPoly, divmod_window, sl2_window
from .lie import (EMBEDDING, LETTERS, VirElt, bracket_vir, embed_sl2, intersect_virf_sl2,
                  sl2_from_vir)
from .linalg import Echelon, degree_lex
from .modules import Module
from .pbw import UEnvElt, _word_normal_form, gen_times_mono, monomial_letters
from .scalar import Scalar, _reduced
from .sparse import ZERO_ROW, expand, gauss, lincomb, row_keys, unit_row


@dataclass(frozen=True)
class MuData:
    """Character data for a polynomial subalgebra.

    ``roots`` lists (lambda_i, n_i) with distinct nonzero lambda_i, and
    ``polys`` one coefficient tuple per root with deg p_i < n_i; the
    character sends t^j f to sum_i p_i(j) lambda_i^j and z to 0.
    """

    roots: tuple
    polys: tuple

    def __post_init__(self):
        # shapes are read whole before unpacking; a string is no coefficient list
        seq = (list, tuple)
        if not (isinstance(self.roots, seq)
                and all(isinstance(r, seq) and len(r) == 2 for r in self.roots)):
            raise InvalidParameter("roots must be a list of [lambda, multiplicity] pairs, "
                                   f"got {self.roots!r}")
        if not (isinstance(self.polys, seq) and all(isinstance(p, seq) for p in self.polys)):
            raise InvalidParameter("polys must be a list of coefficient lists, "
                                   f"got {self.polys!r}")
        roots = tuple((Scalar.of(lam), positive_int(n, "root multiplicity"))
                      for lam, n in self.roots)
        polys = tuple(tuple(Scalar.of(c) for c in p) for p in self.polys)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "polys", polys)
        if any(lam.is_zero() for lam, _ in roots):
            raise BadPolynomial("roots must be nonzero")
        if len({lam for lam, _ in roots}) < len(roots):
            raise InvalidParameter("repeated root; merge multiplicities")
        if self.degree not in (1, 2, 3):
            raise BadPolynomial(f"total degree {self.degree} outside 1..3")
        if len(polys) != len(roots):
            raise InvalidParameter("need one coefficient tuple per root")
        for (lam, n), p in zip(roots, polys):
            if len(p) > n:
                raise InvalidParameter(f"deg p >= multiplicity at root {lam}")
        # expanded once per MuData: a restriction reads it several times
        object.__setattr__(self, "_poly", LaurentPoly.from_roots(roots))

    @property
    def degree(self) -> int:
        return sum(n for _, n in self.roots)

    def poly(self) -> LaurentPoly:
        return self._poly

    def value_at(self, j: int) -> Scalar:
        """mu(t^j f) = sum_i p_i(j) lambda_i^j."""
        return _reduced(*self._pairing(unit_row(j)))

    def _pairing(self, row) -> tuple:
        """(re, im, den) with (re + im*i)/den = sum_j c_j mu(t^j f) for a row of
        terms c_j t^j, in integers; the only Scalar work is each lambda_i^j."""
        rd, rre, rim = row
        re, im, den = 0, 0, 1
        for j in row_keys(row):
            a, b = rre.get(j, 0), rim.get(j, 0)
            for (lam, _), p in zip(self.roots, self.polys):
                ln, lm, ld = gauss(lam**j)
                ur, ui = a * ln - b * lm, a * lm + b * ln
                for e, c in enumerate(p):  # add (a + b*i) c j^e lambda^j, over c.d * ld
                    cn, cm, cd = c.n * j**e, c.m * j**e, c.d * ld
                    g = lcm(den, cd)
                    re = re * (g // den) + (cn * ur - cm * ui) * (g // cd)
                    im = im * (g // den) + (cn * ui + cm * ur) * (g // cd)
                    den = g
        return re, im, den * rd

    def is_zero(self) -> bool:
        return all(c.is_zero() for p in self.polys for c in p)

    def to_json(self):
        return {
            "roots": [[lam.to_json(), n] for lam, n in self.roots],
            "polys": [[c.to_json() for c in p] for p in self.polys],
        }

    @staticmethod
    def from_json(data) -> "MuData":
        """From ``{"roots": [[lambda, n], ...], "polys": [[c, ...], ...]}``,
        each scalar in any form :meth:`Scalar.of` reads."""
        return MuData(data["roots"], data["polys"])


def mu_eval(mu: MuData, w: VirElt) -> Scalar:
    """Evaluate the character on an element of span{z, t^i f}.

    The Laurent part must be exactly divisible by f (checked through the
    window reduction); the z component contributes nothing.  The quotient
    is paired with mu in integers.
    """
    q, r = divmod_window(LaurentPoly._of_row(w.row), mu.poly())
    if not r.is_zero():
        raise NotInSubalgebra(f"{w} is not in the polynomial subalgebra")
    return _reduced(*mu._pairing(q.row))


def _monomials_up_to(depth: int, free=(True, True, True)):
    """The monomials (a, b, c) of degree <= depth in degree-lex order, with
    a zero exponent wherever ``free`` is False."""
    fa, fb, fc = free
    for total in range(depth + 1):
        for a in range(total if fa else 0, -1, -1):
            rest = total - a
            for b in range(rest if fb else 0, -1 if fc else rest - 1, -1):
                yield (a, b, rest - b)


def _times(mono, g, sign=1) -> list:
    """lincomb items of sign * mono * g, for a row g over {1, e, h, f}."""
    word = monomial_letters(mono)
    return expand(g, [(sign, 0, 1,
                       lambda k: (1, _word_normal_form(word + monomial_letters(k)), {}))])


class InducedModule(Module):
    """U(sl2) modulo the left ideal of {s - mu(s)}, depth-bounded."""

    family = "Induced"

    def __init__(self, relations, depth: int):
        if depth < 1:
            raise InvalidParameter("depth must be at least 1")
        self.relations = tuple((s, Scalar.of(v)) for s, v in relations)
        self.depth = int(depth)
        # interreduce the rows s - mu(s) over {1, e, h, f}: each pivot is
        # the leading monomial of a relation with coefficient one
        ech = Echelon(degree_lex)
        for s, v in self.relations:
            ech.insert(lincomb([(1, 0, 1, UEnvElt.from_sl2(s).row),
                                (-v.n, -v.m, v.d, unit_row((0, 0, 0)))]))
        if (0, 0, 0) in ech.rows:
            raise InvalidParameter("degenerate relations: the generator vanishes")
        self._gens = list(ech.rows.items())
        self._nf_rows: dict = {}
        for (lead1, g1), (lead2, g2) in combinations(self._gens, 2):
            # the S-pair lead2 * g1 - lead1 * g2 cancels the common leading term
            spair = lincomb(_times(lead2, g1) + _times(lead1, g2, -1))
            if self._reduce_poly(spair) != ZERO_ROW:
                raise InvalidParameter(
                    "relations are not a character of a subalgebra: an S-pair "
                    "does not reduce to zero")
        # every lead is one letter: a standard monomial has no lead letter
        free = [all(not lead[j] for lead, _ in self._gens) for j in range(3)]
        self._basis = list(_monomials_up_to(self.depth, free))
        self._basis_set = set(self._basis)

    def _divisor(self, mono):
        """(q, g) for the first relation g whose leading monomial divides
        mono, with q = mono / lm(g); None for a standard monomial."""
        for lead, g in self._gens:
            q = (mono[0] - lead[0], mono[1] - lead[1], mono[2] - lead[2])
            if min(q) >= 0:
                return q, g
        return None

    def _nf(self, mono):
        """The normal form of a monomial, memoised per handle, at any degree.

        The reduction runs on an explicit stack, so a long chain of
        division steps never deepens the Python stack.
        """
        rows = self._nf_rows
        row = rows.get(mono)
        if row is not None:
            return row
        # mono - q * g for each monomial on the stack; its keys lie below mono
        steps: dict = {}
        stack = [mono]
        while stack:
            m = stack[-1]
            if m in rows:
                stack.pop()
                continue
            step = steps.get(m)
            if step is None:
                div = self._divisor(m)
                if div is None:
                    rows[m] = unit_row(m)
                    stack.pop()
                    continue
                step = steps[m] = lincomb([(1, 0, 1, unit_row(m))] + _times(*div, -1))
            missing = [k for k in row_keys(step) if k not in rows]
            if missing:
                stack += missing
                continue
            stack.pop()
            rows[m] = self._reduce_poly(step)
        return rows[mono]

    def _reduce_poly(self, row):
        return lincomb(expand(row, [(1, 0, 1, self._nf)]))

    def _reduce_row(self, mono):
        if sum(mono) > self.depth:
            raise DepthExceeded(
                f"degree {sum(mono)} escapes the depth-{self.depth} window")
        return self._nf(mono)

    def _build_row(self, letter: str, mono):
        return lincomb([(k, 0, 1, self._reduce_row(m2))
                        for m2, k in gen_times_mono(letter, mono).items()])

    def validate_key(self, key):
        if key not in self._basis_set:
            raise InvalidParameter(f"{key!r} is not a normal-form monomial here")

    def key_depth(self, key):
        return sum(key)

    def basis_keys(self, depth):
        if depth > self.depth:
            raise DepthExceeded(f"window {depth} beyond table depth {self.depth}")
        return [m for m in self._basis if sum(m) <= depth]

    def key_sort_token(self, key):
        return degree_lex(key)

    def key_str(self, key):
        a, b, c = key
        return ("".join(s * n for s, n in zip(("f", "h", "e"), (a, b, c))) or "1") + " v"

    def key_json(self, key):
        return list(key)

    def key_from_json(self, data):
        if not isinstance(data, list):
            raise InvalidParameter(f"bad {self.family} key {data!r}")
        return tuple(nonnegative_int(x, f"{self.family} key entry") for x in data)

    def generator_relations(self):
        return [(UEnvElt.from_sl2(s), v) for s, v in self.relations]

    def basis_words(self, depth):
        return [(m, monomial_letters(m)) for m in self.basis_keys(depth)]

    def params_json(self):
        return {
            "relations": [[s.to_json(), v.to_json()] for s, v in self.relations],
            "depth": self.depth,
        }


@cache
def _en_bracket(n: int, letter: str) -> tuple:
    """The row of [e_n, letter] over the indices, computed once per process;
    its central part acts as zero and is left out."""
    return bracket_vir(VirElt.e(n), embed_sl2(LETTERS[letter])).row


class VirPolyModule(InducedModule):
    """The Virasoro module induced from a polynomial subalgebra character."""

    family = "VirPoly"
    accepts_vir = True
    # e_i = sign/den * letter as (letter, sign, den), read off the embedding
    # letter -> k e_i: sign/den = 1/k
    _WINDOW_LETTERS = {i: (letter, 1 if k > 0 else -1, abs(k))
                       for letter, (i, k) in EMBEDDING.items()}

    def __init__(self, mu: MuData, depth: int = 6):
        self.mu = mu
        self._f = mu.poly()
        window = self._window = sl2_window(mu.degree)
        # each w = t^i f in the embedded sl2 is a relation w - mu(t^i f)
        super().__init__([(sl2_from_vir(w), mu.value_at(min(w.keys())))
                          for w in intersect_virf_sl2(self._f)], depth)
        self._projections = {w: unit_row(w) for w in window}

    def _project(self, n: int) -> tuple:
        """P(n), memoised per handle: the row of r_n on the window keys and a_n
        at key "a", where t^n = q f + r_n with r_n on the window, a_n = mu(q f).

        P is linear in t^n, is (0, t^n) on the window and sends t^j f to
        (mu(t^j f), 0), so sum_i f_i P(j + i) = (value_at(j), 0).  Each
        exponent outside the window follows from the k next to it on the
        window's side: one ``value_at`` and one lincomb of rows.
        """
        proj = self._projections
        # the lead coefficient (x + y*i)/fd of f is its top above the window, else its bottom
        step, lead = (1, self.mu.degree) if n > 0 else (-1, 0)
        fd, fre, fim = self._f.row
        x, y = fre.get(lead, 0), fim.get(lead, 0)
        norm = x * x + y * y
        others = [(i, fre.get(i, 0), fim.get(i, 0)) for i in row_keys(self._f.row) if i != lead]
        m = n
        while m not in proj:
            m -= step
        while m != n:
            m += step
            j = m - lead
            # P(m) = (value_at(j), 0)/f_lead - sum_i f_i/f_lead P(j + i), where
            # 1/f_lead = fd*(x - y*i)/norm and fd cancels from f_i/f_lead
            vr, vi, vd = gauss(self.mu.value_at(j))
            items = [(fd * (vr * x + vi * y), fd * (vi * x - vr * y), vd * norm, unit_row("a"))]
            items += [(-(a * x + b * y), a * y - b * x, norm, proj[j + i]) for i, a, b in others]
            proj[m] = lincomb(items)
        return proj[n]

    def _build_row(self, op, mono) -> tuple:
        """The reduced row of op . (mono * v): a letter's as on any induced
        module, and e_n's by commuting it rightward to the generator."""
        if isinstance(op, str):
            return super()._build_row(op, mono)
        if mono == (0, 0, 0):
            # e_n v = a_n v + r_n v, the window part r_n through the letters' rows
            den, re, im = self._project(op)
            items = [(re.get("a", 0), im.get("a", 0), den, unit_row(mono))]
            for w in reversed(self._window):
                if w in re or w in im:
                    letter, sign, wd = self._WINDOW_LETTERS[w]
                    items.append((sign * re.get(w, 0), sign * im.get(w, 0), wd * den,
                                  self._row(letter, mono)))
            return lincomb(items)
        a, b, c = mono
        if a > 0:
            letter, rest = "f", (a - 1, b, c)
        elif b > 0:
            letter, rest = "h", (a, b - 1, c)
        else:
            letter, rest = "e", (a, b, c - 1)
        # e_n . (letter rest v) = letter . (e_n . rest v) + [e_n, letter] . rest v
        items = expand(self._row(op, rest), [(1, 0, 1, partial(self._row, letter))])
        items += expand(_en_bracket(op, letter), [(1, 0, 1, lambda m: self._row(m, rest))])
        return lincomb(items)

    def params_json(self):
        out = self.mu.to_json()
        out["depth"] = self.depth
        return out
