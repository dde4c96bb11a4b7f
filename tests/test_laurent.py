from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from closed_forms import divmod_window_form
from slvir.errors import BadPolynomial, InvalidParameter
from slvir.laurent import LaurentPoly, divmod_window, reduce_power, sl2_window
from slvir.scalar import Scalar

S = Scalar.of


def naive_mul(p: LaurentPoly, q: LaurentPoly) -> dict:
    """Independent termwise-distribution oracle."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            out[e1 + e2] = out.get(e1 + e2, Scalar.zero()) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def test_mul_example():
    p = LaurentPoly({1: 1, 0: -2})
    q = LaurentPoly({2: 1, 1: 2, 0: 4})
    prod = p * q
    assert prod == LaurentPoly({3: 1, 0: -8})
    assert prod.terms == naive_mul(p, q)


def test_mul_identity_and_inverse_powers():
    p = LaurentPoly({3: S("1/2"), -2: S("2*i")})
    assert p * LaurentPoly.one() == p
    assert LaurentPoly.t(-1) * LaurentPoly.t(1) == LaurentPoly.one()


def test_mul_matches_oracle_samples():
    samples = [
        LaurentPoly({0: 1, 1: -1, 5: S("1/3")}),
        LaurentPoly({-3: S("2+1*i"), 2: -2}),
        LaurentPoly({0: 7}),
        LaurentPoly.zero(),
    ]
    for p in samples:
        for q in samples:
            assert (p * q).terms == naive_mul(p, q)


def test_divmod_examples():
    f = LaurentPoly({1: 1, 0: -2})
    q, r = reduce_power(3, f)
    assert q == LaurentPoly({2: 1, 1: 2, 0: 4})
    assert r == LaurentPoly({0: 8})
    q, r = reduce_power(1, f)
    assert q == LaurentPoly.one()
    assert r == LaurentPoly({0: 2})
    q, r = reduce_power(-1, f)
    assert q == LaurentPoly({-1: S("-1/2")})
    assert r == LaurentPoly({0: S("1/2")})


FS = [
    LaurentPoly({1: 1, 0: -2}),
    LaurentPoly({1: S("1/3"), 0: S("1+1*i")}),
    LaurentPoly({2: 1, 1: -3, 0: 2}),
    LaurentPoly({2: S(2), 0: S("-1/2")}),
    LaurentPoly({3: 1, 2: -6, 1: 11, 0: -6}),
    LaurentPoly({3: S("1/2"), 0: S("3*i")}),
]


def test_divmod_reconstructs_every_power():
    for f in FS:
        k = f.max_exp()
        window = sl2_window(k)
        for n in range(-12, 13):
            q, r = reduce_power(n, f)
            assert q * f + r == LaurentPoly.t(n)
            assert all(e in window for e in r.terms)


def test_remainder_is_representative_invariant():
    # adding any multiple of f leaves the window remainder unchanged
    for f in FS[:4]:
        g = LaurentPoly({-2: S("1/5"), 0: -1, 3: S("2*i")})
        for n in (-5, 0, 4, 9):
            p = LaurentPoly.t(n)
            _, r1 = divmod_window(p, f)
            _, r2 = divmod_window(p + g * f, f)
            assert r1 == r2


def test_window_layout():
    assert sl2_window(1) == (0,)
    assert sl2_window(2) == (0, 1)
    assert sl2_window(3) == (-1, 0, 1)
    with pytest.raises(BadPolynomial):
        sl2_window(4)


def test_bad_polynomials_rejected():
    with pytest.raises(BadPolynomial):
        reduce_power(0, LaurentPoly({2: 1, 1: 1}))  # zero constant term
    with pytest.raises(BadPolynomial):
        reduce_power(0, LaurentPoly({4: 1, 0: 1}))  # degree 4
    with pytest.raises(BadPolynomial):
        reduce_power(0, LaurentPoly.zero())
    with pytest.raises(BadPolynomial):
        reduce_power(0, LaurentPoly({0: 3}))  # degree 0


def test_from_roots():
    f = LaurentPoly.from_roots([(S(1), 2)])
    assert f == LaurentPoly({2: 1, 1: -2, 0: 1})
    g = LaurentPoly.from_roots([(S(1), 1), (S(2), 1), (S(3), 1)])
    assert g == LaurentPoly({3: 1, 2: -6, 1: 11, 0: -6})


@pytest.mark.parametrize("mult", [1.5, True, 0, -1, "2"])
def test_from_roots_refuses_a_multiplicity_that_is_no_positive_int(mult):
    with pytest.raises(InvalidParameter, match=f"root multiplicity must be .*{mult!r}"):
        LaurentPoly.from_roots([(S(1), mult)])


@pytest.mark.parametrize("n", [1.5, True, "3"])
def test_reduce_power_refuses_an_exponent_that_is_no_int(n):
    with pytest.raises(InvalidParameter, match=f"exponent of t\\^n must be .*{n!r}"):
        reduce_power(n, LaurentPoly({1: 1, 0: -1}))


def test_json_round_trip():
    p = LaurentPoly({-2: S("1/2"), 5: S("3-1*i")})
    assert LaurentPoly.from_json(p.to_json()) == p


_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_non_real = st.builds(Scalar, _fracs, _fracs.filter(bool))


@settings(max_examples=40, deadline=None)
@given(st.lists(_non_real, min_size=2, max_size=4), st.integers(-12, 12))
def test_shift_matches_the_constructor_route(coeffs, k):
    # shift reuses the canonical terms; the constructor re-canonicalises them
    p = LaurentPoly(dict(enumerate(coeffs)))
    shifted = p.shift(k)
    want = LaurentPoly({e + k: v for e, v in p.terms.items()})
    assert shifted == want
    assert list(shifted.terms.items()) == list(want.terms.items())
    assert all(type(e) is int for e in shifted.terms)
    assert p == LaurentPoly(dict(enumerate(coeffs)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.lists(_non_real, min_size=2, max_size=2),
       st.lists(_non_real | st.just(Scalar.zero()), min_size=2, max_size=2),
       st.dictionaries(st.integers(-40, 40), _non_real | _fracs.map(Scalar.of), max_size=6))
def test_divmod_window_matches_the_scalar_route(k, ends, middle, p_terms):
    # f of degree k with non-real ends, p anywhere in -40..40: the row
    # elimination gives the Scalar route's quotient and remainder, in its order
    f = LaurentPoly({0: ends[0], k: ends[1], **dict(enumerate(middle[:k - 1], 1))})
    p = LaurentPoly(p_terms)
    q, r = divmod_window(p, f)
    want_q, want_r = divmod_window_form(p, f)
    assert (q, r) == (want_q, want_r)
    assert list(q.terms.items()) == list(want_q.terms.items())
    assert list(r.terms.items()) == list(want_r.terms.items())
