"""U(sl2) in PBW normal form.

Elements are finite combinations of ordered monomials f^a h^b e^c (the
PBW order f < h < e of :data:`~slvir.lie.LETTER_RANK`).  Products are
straightened by recursive single-swap rewriting: locate a misordered
adjacent pair of generators, replace it by the swapped pair plus their
bracket from :data:`~slvir.lie.LETTER_BRACKET`, and recurse.  Each
step either shortens the word or lowers its inversion count, so the
rewriting terminates; results are memoised per word, as integer rows, and
a product of two elements is one :func:`~slvir.sparse.bilinear` of theirs.
"""

from __future__ import annotations

from functools import cache, reduce

from .errors import InvalidParameter
from .lie import LETTER_BRACKET, LETTER_RANK, LETTERS, E, F, SL2Elt
from .scalar import Scalar
from .sparse import Terms, bilinear, expand, lincomb, rekey

_WORD_CACHE: dict[tuple[str, ...], dict[tuple[int, int, int], int]] = {}


def _word_normal_form(word: tuple[str, ...]) -> dict[tuple[int, int, int], int]:
    """Normal form of a word of generators; integer coefficients, the ``re``
    of a row over denominator 1.

    Callers must not mutate the returned (cached) dict.
    """
    cached = _WORD_CACHE.get(word)
    if cached is not None:
        return cached
    at = next((j for j in range(len(word) - 1)
               if LETTER_RANK[word[j]] > LETTER_RANK[word[j + 1]]), None)
    if at is None:
        result = {(word.count("f"), word.count("h"), word.count("e")): 1}
    else:
        # x y = y x + [x, y] at the first misordered pair
        x, y, head, tail = word[at], word[at + 1], word[:at], word[at + 2:]
        result = lincomb([(1, 0, 1, (1, _word_normal_form(head + (y, x) + tail), {}))]
                         + [(k, 0, 1, (1, _word_normal_form(head + (z,) + tail), {}))
                            for z, k in LETTER_BRACKET[(x, y)].items()])[1]
    _WORD_CACHE[word] = result
    return result


# the monomial f^a h^b e^c of each letter, as (a, b, c)
_LETTER_MONOMIAL = {"f": (1, 0, 0), "h": (0, 1, 0), "e": (0, 0, 1)}


def monomial_letters(mono: tuple[int, int, int]) -> tuple[str, ...]:
    a, b, c = mono
    return ("f",) * a + ("h",) * b + ("e",) * c


def gen_times_mono(letter: str, mono) -> dict[tuple[int, int, int], int]:
    """Normal form of generator * monomial; cached, do not mutate."""
    return _word_normal_form((letter,) + monomial_letters(mono))


class UEnvElt(Terms):
    """Finite map (a, b, c) -> nonzero Scalar for the monomial f^a h^b e^c."""

    __slots__ = ()

    @staticmethod
    def _key(mono):
        if type(mono) is tuple and len(mono) == 3 and all(type(x) is int and x >= 0 for x in mono):
            return mono
        raise InvalidParameter(f"a PBW monomial must be three integers >= 0, got {mono!r}")

    @staticmethod
    def one() -> "UEnvElt":
        return UEnvElt({(0, 0, 0): 1})

    @staticmethod
    def monomial(mono, coeff=1) -> "UEnvElt":
        return UEnvElt({tuple(mono): coeff})

    @staticmethod
    def from_sl2(x: SL2Elt) -> "UEnvElt":
        return UEnvElt._of_row(rekey(x.row, _LETTER_MONOMIAL.__getitem__))

    def degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def __mul__(self, other):
        return nf_multiply(self, other)

    def __str__(self):
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            name = "".join(s * n for s, n in zip(("f", "h", "e"), mono)) or "1"
            bits.append(f"({self.terms[mono]})*{name}")
        return " + ".join(bits) or "0"

    def to_json(self):
        return [[list(m), self.terms[m].to_json()]
                for m in sorted(self.terms, key=lambda m: (sum(m), m))]

    @staticmethod
    def from_json(data) -> "UEnvElt":
        # each monomial is read (a list as a tuple) before its coefficient
        return UEnvElt({UEnvElt._key(tuple(m) if type(m) is list else m): Scalar.from_json(c)
                        for m, c in data})


def nf_multiply(u: UEnvElt, v: UEnvElt) -> UEnvElt:
    """The normal form of the product u*v in U(sl2)."""
    return UEnvElt._of_row(bilinear(u.row, v.row, lambda m1, m2: (
        1, _word_normal_form(monomial_letters(m1) + monomial_letters(m2)), {})))


@cache
def casimir_elt() -> UEnvElt:
    """The central element 4fe + (h+1)^2 in normal form; built once, as
    UEnvElt is immutable."""
    fe = nf_multiply(UEnvElt.from_sl2(F), UEnvElt.from_sl2(E))
    h_plus_1 = UEnvElt({(0, 1, 0): 1, (0, 0, 0): 1})
    return fe.scale(4) + nf_multiply(h_plus_1, h_plus_1)


# kept while perfbench/tracing.py wraps it and tests/test_tooling.py pins it (ROADMAP item 7)
def aut_extend(aut, u: UEnvElt) -> UEnvElt:
    """Apply an sl2 automorphism to every tensor factor and renormalise: the
    unique algebra-homomorphism extension of the automorphism to U(sl2)."""
    images = {letter: UEnvElt.from_sl2(aut.apply(x)) for letter, x in LETTERS.items()}
    return UEnvElt._of_row(lincomb(expand(u.row, [(1, 0, 1, lambda mono: reduce(
        nf_multiply, [images[letter] for letter in monomial_letters(mono)], UEnvElt.one()).row)])))
