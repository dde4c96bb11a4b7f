"""The integer-form sparse rows against plain Scalar (Fraction) arithmetic."""

import re
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from test_scalar import RefScalar, assert_canonical

from slvir.errors import MAX_DEPTH, InvalidParameter
from slvir.laurent import LaurentPoly
from slvir.lie import VirElt
from slvir.linalg import BlockModP, Echelon
from slvir.pbw import UEnvElt
from slvir.scalar import Scalar
from slvir.sparse import (
    MODULUS,
    ZERO_ROW,
    expand,
    gauss,
    lincomb,
    pack,
    residues,
    row_from_scalars,
    row_to_scalars,
    slot_width,
    sum_terms,
    unit_row,
)

S = Scalar.of

fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
scalars = st.builds(Scalar, fracs, fracs | st.just(0))
vectors = st.dictionaries(st.integers(0, 6), scalars, max_size=5)


def _scalar_sum(terms):
    out: dict = {}
    for c, vec in terms:
        for k, x in vec.items():
            out[k] = out.get(k, Scalar.zero()) + c * x
    return {k: x for k, x in out.items() if not x.is_zero()}


@given(scalars)
def test_gauss_is_exact_and_least(s):
    re, im, den = gauss(s)
    assert Scalar(re, im) / den == s
    assert den == row_from_scalars({0: s})[0]


@given(vectors)
def test_rows_match_the_fraction_reference(vec):
    # each coefficient's row entries over the common denominator are its
    # Fraction parts; gauss is the Scalar's own (n, m, d)
    den, re, im = row_from_scalars(vec)
    for k, x in vec.items():
        ref = RefScalar.of(x)
        assert (Fraction(re.get(k, 0), den), Fraction(im.get(k, 0), den)) == (ref.re, ref.im)
        n, m, d = gauss(x)
        assert (Fraction(n, d), Fraction(m, d)) == (ref.re, ref.im)
        assert (n, m, d) == (x.n, x.m, x.d)
    assert den == lcm(1, *(gauss(x)[2] for x in vec.values()))
    back = row_to_scalars((den, re, im))
    for k, x in back.items():
        assert_canonical(x)
        assert RefScalar.of(x) == RefScalar.of(vec[k])
    assert set(back) == {k for k, x in vec.items() if not x.is_zero()}


@given(vectors)
def test_row_round_trip_is_canonical(vec):
    row = row_from_scalars(vec)
    assert row_to_scalars(row) == {k: x for k, x in vec.items() if not x.is_zero()}
    # 2*row - row, summed and reduced, gives the very same triple
    assert lincomb([(2, 0, 1, row), (-1, 0, 1, row)]) == row


@given(st.lists(st.tuples(st.integers(0, 4), scalars), max_size=10), st.data())
def test_sum_terms_matches_scalar_fold(pairs, data):
    # the negations of some drawn pairs cancel their keys' sums to zero
    if pairs:
        pairs += [(k, -c) for k, c in data.draw(st.lists(st.sampled_from(pairs), max_size=4))]
    out = sum_terms(pairs)
    assert out == _scalar_sum((Scalar.one(), {k: c}) for k, c in pairs)
    assert not any(c.is_zero() for c in out.values())
    assert list(out) == [k for k in dict.fromkeys(k for k, _ in pairs) if k in out]


@settings(max_examples=50)
@given(st.lists(st.tuples(scalars, vectors), max_size=4))
def test_lincomb_matches_scalar_arithmetic(terms):
    got = lincomb([gauss(c) + (row_from_scalars(vec),) for c, vec in terms])
    want = _scalar_sum(terms)
    assert row_to_scalars(got) == want
    assert got == row_from_scalars(want)  # canonical: equal vectors, equal rows


@settings(max_examples=50)
@given(vectors, st.lists(st.tuples(scalars, st.dictionaries(st.integers(0, 6), vectors,
                                                              max_size=4)), max_size=2))
def test_expand_matches_scalar_arithmetic(vec, action):
    # action: sum of c * A, where A sends key k to the vector table[k] (0 if absent)
    items = expand(row_from_scalars(vec),
                   [gauss(c) + (lambda k, t=table: row_from_scalars(t.get(k, {})),)
                    for c, table in action])
    want = _scalar_sum((c * x, table.get(k, {}))
                       for c, table in action for k, x in vec.items())
    assert row_to_scalars(lincomb(items)) == want


def test_lincomb_gaussian_example():
    row = row_from_scalars({"a": S("1/2+1*i"), "b": S("-1/3")})
    assert row == (6, {"a": 3, "b": -2}, {"a": 6})
    # (1 - i) * row
    got = lincomb([(1, -1, 1, row)])
    assert row_to_scalars(got) == {"a": S("3/2+1/2*i"), "b": S("-1/3+1/3*i")}
    assert lincomb([(1, 0, 1, row), (-1, 0, 1, row)]) == ZERO_ROW
    assert lincomb([(2, 0, 2, unit_row("x"))]) == unit_row("x")


def _scalar_rref(vectors):
    """Reduced echelon rows (pivot = largest key), by plain Scalar arithmetic."""
    rows: dict = {}
    for vec in vectors:
        res = dict(vec)
        for p, row in rows.items():
            c = res.get(p)
            if c is not None and not c.is_zero():
                for k, x in row.items():
                    res[k] = res.get(k, Scalar.zero()) - c * x
        res = {k: x for k, x in res.items() if not x.is_zero()}
        if not res:
            continue
        pivot = max(res)
        row = {k: x / res[pivot] for k, x in res.items()}
        for p, other in rows.items():
            c = other.get(pivot)
            if c is not None:
                for k, x in row.items():
                    other[k] = other.get(k, Scalar.zero()) - c * x
                rows[p] = {k: x for k, x in other.items() if not x.is_zero()}
        rows[pivot] = row
    return rows


def _scalar_residue(rows, probe):
    """The probe after eliminating every pivot of reduced rows ``rows``."""
    residue = {k: x for k, x in probe.items() if not x.is_zero()}
    for p, row in rows.items():
        c = residue.get(p)
        if c is not None:
            for k, x in row.items():
                residue[k] = residue.get(k, Scalar.zero()) - c * x
    return {k: x for k, x in residue.items() if not x.is_zero()}


def _scalar_table(rows):
    # the tails are canonical rows, so they compare equal as rows
    return {p: row_from_scalars({k: -x for k, x in row.items() if k != p})
            for p, row in rows.items()}


@settings(max_examples=50)
@given(st.lists(vectors, max_size=6), vectors)
def test_echelon_matches_scalar_elimination(vecs, probe):
    ech = Echelon()
    grew = [ech.insert(row_from_scalars(v)) for v in vecs]
    rows = _scalar_rref(vecs)
    assert ech.rank == len(rows) == sum(grew)
    assert ech.reduction_table() == _scalar_table(rows)
    residue = _scalar_residue(rows, probe)
    assert ech.reduce(row_from_scalars(probe)) == row_from_scalars(residue)
    assert ech.contains(row_from_scalars(probe)) == (not residue)


@settings(max_examples=80)
@given(st.lists(vectors, max_size=7), vectors, st.data())
def test_echelon_does_not_depend_on_insertion_order(vecs, probe, data):
    # ascending pivots take the path that stores a row without touching the
    # others; descending ones back-substitute every new pivot
    def pivot(v):
        return max((k for k, x in v.items() if not x.is_zero()), default=-1)

    ascending = sorted(vecs, key=pivot)
    rows = _scalar_rref(vecs)
    residue = row_from_scalars(_scalar_residue(rows, probe))
    shuffled = [vecs[i] for i in data.draw(st.permutations(range(len(vecs))))]
    for order in (ascending, ascending[::-1], shuffled):
        ech = Echelon()
        for v in order:
            ech.insert(row_from_scalars(v))
        assert ech.rank == len(rows)
        assert ech.reduction_table() == _scalar_table(rows)
        assert ech.reduce(row_from_scalars(probe)) == residue
        assert ech.contains(row_from_scalars(probe)) == (residue == ZERO_ROW)


# -- rank mod a prime ------------------------------------------------------------

P, I = MODULUS


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7, which decide every n < 3.2e9."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modulus_is_a_prime_with_a_root_of_minus_one():
    assert _is_prime(P) and P % 4 == 1
    assert I * I % P == P - 1


@settings(max_examples=60)
@given(vectors, st.sampled_from([MODULUS, (5, 2), (13, 5)]))
def test_residues_are_the_ring_map(vec, modulus):
    # each coefficient (n + m*i)/d goes to (n + m*I)/d mod p
    p, i = modulus
    row = row_from_scalars(vec)
    got = residues(row, p, i)
    if row[0] % p == 0:
        assert got is None
        return
    expected = {k: r for k, x in vec.items() if (r := (x.n + x.m * i) * pow(x.d, -1, p) % p)}
    assert got == expected


# Gaussian integers a + b*i with |a|, |b| <= 2: a minor of at most five such
# rows has norm below (5 * 8)^5 < P, so it vanishes mod P only if it is zero
_gauss_ints = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2) | st.just(0))
_int_rows = st.dictionaries(st.integers(0, 4), _gauss_ints, max_size=5)


@settings(max_examples=60)
@given(_int_rows, st.sampled_from([MODULUS, (5, 2), (13, 5)]), st.sampled_from([2, 3, 7]))
def test_residues_of_integer_rows_match_the_generic_path(vec, modulus, d):
    # den == 1 skips the inverse, and a real row its imaginary half: each
    # agrees with the same vector written over den d with an explicit
    # imaginary part on every key, which takes neither shortcut
    p, i = modulus
    den, re, im = row_from_scalars(vec)
    assert den == 1
    for row in ((1, re, im), (1, re, {})):
        over_d = (d, {k: d * v for k, v in row[1].items()},
                  {k: d * row[2].get(k, 0) for k in {**row[1], **row[2]}})
        assert residues(row, p, i) == residues(over_d, p, i)


@settings(max_examples=150)
@given(st.lists(_int_rows, min_size=1, max_size=6), st.sampled_from([MODULUS, (5, 2)]))
def test_full_rank_mod_p_implies_full_rank(vecs, modulus):
    p, i = modulus
    rows = [row_from_scalars(v) for v in vecs]
    block, ech, cols = BlockModP(p), Echelon(), {}
    mod_p = [block.insert(pack(residues(row, p, i).items(), cols, slot_width(p)))
             for row in rows]
    exact = [ech.insert(row) for row in rows]
    if all(mod_p):
        assert all(exact)
    assert block.rank == sum(mod_p) <= ech.rank == sum(exact)
    if p == P:
        assert mod_p == exact


def _independent_mod_p(rows, p):
    """Reference for BlockModP: whether each row is independent of the rows
    before it mod p, by elimination on lists of reduced entries."""
    basis, out = [], []
    for row in rows:
        row = [v % p for v in row]
        for pivot, b in basis:
            if c := row[pivot]:
                row = [(x - c * y) % p for x, y in zip(row, b)]
        j = next((j for j, v in enumerate(row) if v), None)
        out.append(j is not None)
        if j is not None:
            inv = pow(row[j], -1, p)
            basis.append((j, [v * inv % p for v in row]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([MODULUS, (5, 2)]))
def test_packed_block_matches_unpacked_elimination(data, modulus):
    # rows are sums of products of residues near p - 1 over r base rows, as
    # the certificate builds them: unreduced slots up to r * (p - 1)**2, and
    # with r below the columns, many rows that must reduce to zero
    p = modulus[0]
    ncols = data.draw(st.integers(12, 16))
    r = data.draw(st.integers(1, ncols))
    near = st.integers(max(p - 3, 0), p - 1) | st.integers(0, p - 1)
    bases = data.draw(st.lists(st.lists(near, min_size=ncols, max_size=ncols),
                               min_size=r, max_size=r))
    coeffs = data.draw(st.lists(st.lists(near, min_size=r, max_size=r),
                                min_size=ncols + 1, max_size=ncols + 4))
    rows = [[sum(c * b[j] for c, b in zip(cs, bases)) for j in range(ncols)] for cs in coeffs]
    block, cols = BlockModP(p), {j: j for j in range(ncols)}
    got = [block.insert(pack(enumerate(row), cols, slot_width(p))) for row in rows]
    assert got == _independent_mod_p(rows, p)
    assert block.rank == sum(got) <= r


def test_packed_block_refuses_a_negative_row():
    # a negative int has no slots: its shifts tend to -1 and never reach 0,
    # so the pivot search would not end
    block = BlockModP(P)
    assert block.insert(1)
    for row in (-1, -(1 << slot_width(P))):
        with pytest.raises(ValueError):
            block.insert(row)
    assert block.rank == 1


def test_slot_width_has_room_for_the_largest_block():
    # a block has at most as many columns as the free degree-3 module has
    # keys of depth MAX_DEPTH; a slot sums fewer than twice that many
    # products of two residues
    assert comb(MAX_DEPTH + 2, 2) == 5151
    assert 2 * 5151 * P ** 2 < 2 ** slot_width(P)


_int_keys = st.dictionaries(st.integers(-4, 4), scalars, max_size=4)
terms_values = st.one_of(
    st.builds(LaurentPoly, _int_keys),
    st.builds(UEnvElt, st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), scalars,
                                       max_size=4)),
    st.builds(VirElt, _int_keys, scalars),
)


@given(terms_values, scalars.filter(lambda c: not c.is_zero()))
def test_terms_laws_hold_for_every_element_type(x, c):
    cls = type(x)
    zero = cls.zero()
    assert x - x == zero and x + (-x) == zero and (x - x).is_zero()
    assert x.scale(0) == zero and x.scale(1) == x
    # equal values built by different routes hash equal
    for y in (x.scale(c).scale(Scalar.one() / c), x + zero, zero + x):
        assert y == x and hash(y) == hash(x)
    assert x + x == x.scale(2) and hash(x + x) == hash(x.scale(2))
    # a value never equals one of another type with the same terms
    for other in {LaurentPoly, UEnvElt, VirElt} - {cls}:
        twin = other._raw(x.terms)
        assert x != twin and twin != x and not x == twin
    if cls is VirElt:
        assert VirElt(x.terms, x.z) == x and VirElt(x.terms, x.z + 1) != x
        with pytest.raises(AttributeError, match="VirElt"):
            x.z = Scalar.zero()
    with pytest.raises(AttributeError, match=cls.__name__):
        x.terms = {}


@pytest.mark.parametrize("cls, key", [
    (LaurentPoly, 1.5),       # was read as t
    (VirElt, 2.7),            # was read as e_2
    (VirElt, True),           # was read as e_1
    (UEnvElt, (0, 0, -1)),    # kept a negative exponent
    (UEnvElt, (1, 2)),        # failed later, in monomial_letters
])
def test_terms_refuse_keys_that_would_be_coerced(cls, key):
    with pytest.raises(InvalidParameter, match=re.escape(repr(key))):
        cls({key: 1})
