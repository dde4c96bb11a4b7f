"""Straightening is checked against an independent free-algebra oracle:
the oracle rewrites the rightmost misordered pair with no memoisation, so
agreement between the two is a confluence check, not a shared code path.
"""

import itertools

import pytest

from slvir.errors import InvalidParameter
from slvir.lie import Automorphism, E, F, H, bracket_sl2
from slvir.pbw import (
    UEnvElt,
    aut_extend,
    casimir_elt,
    monomial_letters,
    nf_multiply,
)
from slvir.scalar import Scalar

S = Scalar.of

_RANK = {"f": 0, "h": 1, "e": 2}
_BRACKET = {
    ("h", "e"): {"e": 2},
    ("e", "h"): {"e": -2},
    ("e", "f"): {"h": 1},
    ("f", "e"): {"h": -1},
    ("h", "f"): {"f": -2},
    ("f", "h"): {"f": 2},
}


def oracle_nf(word):
    """Rightmost-swap rewriting, no cache."""
    for i in range(len(word) - 2, -1, -1):
        x, y = word[i], word[i + 1]
        if _RANK[x] > _RANK[y]:
            out = {}
            for mono, c in oracle_nf(word[:i] + (y, x) + word[i + 2:]).items():
                out[mono] = out.get(mono, 0) + c
            for letter, coeff in _BRACKET[(x, y)].items():
                for mono, c in oracle_nf(word[:i] + (letter,) + word[i + 2:]).items():
                    out[mono] = out.get(mono, 0) + coeff * c
            return {m: c for m, c in out.items() if c}
    return {(word.count("f"), word.count("h"), word.count("e")): 1}


def monomials_up_to(d):
    out = []
    for total in range(d + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                out.append((a, b, total - a - b))
    return out


def test_generator_products():
    e, h, f = (UEnvElt.from_sl2(x) for x in (E, H, F))
    assert nf_multiply(e, f) == UEnvElt({(1, 0, 1): 1, (0, 1, 0): 1})
    assert nf_multiply(h, f) == UEnvElt({(1, 1, 0): 1, (1, 0, 0): -2})


def test_casimir_two_presentations():
    e, h, f = (UEnvElt.from_sl2(x) for x in (E, H, F))
    one = UEnvElt.one()
    lhs = nf_multiply(e, f).scale(4) + nf_multiply(h - one, h - one)
    rhs = nf_multiply(f, e).scale(4) + nf_multiply(h + one, h + one)
    assert lhs == rhs == casimir_elt()


def test_casimir_normal_form():
    assert casimir_elt() == UEnvElt(
        {(1, 0, 1): 4, (0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1})


def test_casimir_central():
    c = casimir_elt()
    for x in (E, H, F):
        u = UEnvElt.from_sl2(x)
        assert nf_multiply(c, u) == nf_multiply(u, c)


def test_matches_free_algebra_oracle():
    monos = monomials_up_to(3)
    for m1, m2 in itertools.product(monos, monos):
        word = monomial_letters(m1) + monomial_letters(m2)
        got = nf_multiply(UEnvElt.monomial(m1), UEnvElt.monomial(m2))
        want = {m: S(c) for m, c in oracle_nf(word).items()}
        assert got.terms == want, (m1, m2)


def test_matches_oracle_degree_four_spots():
    spots = [((0, 0, 4), (4, 0, 0)), ((2, 2, 0), (0, 0, 3)),
             ((0, 4, 0), (4, 0, 0)), ((1, 1, 2), (2, 1, 1))]
    for m1, m2 in spots:
        word = monomial_letters(m1) + monomial_letters(m2)
        got = nf_multiply(UEnvElt.monomial(m1), UEnvElt.monomial(m2))
        want = {m: S(c) for m, c in oracle_nf(word).items()}
        assert got.terms == want


def test_associativity_small_degrees():
    monos = monomials_up_to(3)
    triples = [(a, b, c) for a in monos for b in monos for c in monos
               if sum(a) + sum(b) + sum(c) <= 3]
    for m1, m2, m3 in triples:
        u, v, w = (UEnvElt.monomial(m) for m in (m1, m2, m3))
        assert nf_multiply(nf_multiply(u, v), w) == nf_multiply(u, nf_multiply(v, w))


def test_commutator_matches_bracket():
    for x in (E, H, F):
        for y in (E, H, F):
            u, v = UEnvElt.from_sl2(x), UEnvElt.from_sl2(y)
            assert nf_multiply(u, v) - nf_multiply(v, u) == \
                UEnvElt.from_sl2(bracket_sl2(x, y))


def test_aut_extend_fixes_casimir():
    c = casimir_elt()
    for lam in (S(1), S("-1/2"), S("2*i"), S("1/3+1/4*i")):
        assert aut_extend(Automorphism.gamma(lam), c) == c
    assert aut_extend(Automorphism.sigma(), c) == c
    assert aut_extend(Automorphism.gamma2(1, 2), c) == c
    assert aut_extend(Automorphism.identity(), c) == c


def test_aut_extend_identity_fixes_everything():
    u = UEnvElt({(1, 2, 0): S("1/2"), (0, 0, 3): S("2*i"), (0, 0, 0): 1})
    assert aut_extend(Automorphism.identity(), u) == u


def test_aut_extend_is_algebra_homomorphism():
    auts = [Automorphism.gamma(S("1/2")), Automorphism.sigma(),
            Automorphism.gamma2(1, 2)]
    samples = [UEnvElt.monomial(m) for m in
               [(1, 0, 0), (0, 1, 1), (2, 0, 1), (0, 0, 2), (1, 1, 1)]]
    for aut in auts:
        for u in samples:
            for v in samples:
                if u.degree() + v.degree() > 3:
                    continue
                lhs = aut_extend(aut, nf_multiply(u, v))
                rhs = nf_multiply(aut_extend(aut, u), aut_extend(aut, v))
                assert lhs == rhs


def test_json_round_trip():
    u = UEnvElt({(1, 2, 0): S("1/2"), (0, 0, 3): S("-2*i")})
    assert UEnvElt.from_json(u.to_json()) == u


@pytest.mark.parametrize("mono", [5, "fhe", [1, 2], [1, 2, "3"], [1, 0, -1], [True, 0, 0]])
def test_from_json_names_a_bad_monomial(mono):
    # the monomial is read before its coefficient, which is bad here too
    with pytest.raises(InvalidParameter, match="PBW monomial.*got"):
        UEnvElt.from_json([[mono, "1"]])


# -- matrix oracle: the (n+1)-dimensional irreducible representation ---------
# h v_j = (n - 2j) v_j,  f v_j = v_{j+1},  e v_j = j(n - j + 1) v_{j-1}.
# Products in U(sl2) must act as matrix products; this shares nothing with
# the straightening code.


def _irrep_matrices(n):
    dim = n + 1
    e = [[0] * dim for _ in range(dim)]
    h = [[0] * dim for _ in range(dim)]
    f = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        h[j][j] = n - 2 * j
        if j + 1 < dim:
            f[j + 1][j] = 1
        if j - 1 >= 0:
            e[j - 1][j] = j * (n - j + 1)
    return {"e": e, "h": h, "f": f}


def _mat_mul(a, b):
    dim = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def _uenv_matrix(u, mats, dim):
    total = [[0] * dim for _ in range(dim)]
    for mono, coeff in u.terms.items():
        acc = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for letter in monomial_letters(mono):
            acc = _mat_mul(acc, mats[letter])
        assert coeff.is_integer()
        c = coeff.as_int()
        for i in range(dim):
            for j in range(dim):
                total[i][j] += c * acc[i][j]
    return total


def test_products_act_correctly_on_finite_irreps():
    monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 2, 0),
             (2, 0, 1), (0, 1, 2)]
    for n in (1, 2, 4, 6):
        mats = _irrep_matrices(n)
        for m1 in monos:
            for m2 in monos:
                u, v = UEnvElt.monomial(m1), UEnvElt.monomial(m2)
                lhs = _uenv_matrix(nf_multiply(u, v), mats, n + 1)
                rhs = _mat_mul(_uenv_matrix(u, mats, n + 1),
                               _uenv_matrix(v, mats, n + 1))
                assert lhs == rhs, (n, m1, m2)


def test_casimir_scalar_on_finite_irreps():
    # the Casimir acts on the (n+1)-dimensional irrep by (n+1)^2
    for n in (0, 1, 3, 5):
        mats = _irrep_matrices(n)
        got = _uenv_matrix(casimir_elt(), mats, n + 1)
        want = [[(n + 1) ** 2 * int(i == j) for j in range(n + 1)]
                for i in range(n + 1)]
        assert got == want
