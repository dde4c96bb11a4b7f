from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from slvir.errors import (InvalidParameter, NotASubalgebra, NotRepresentable,
                          WrongAlgebra)
from slvir.laurent import LaurentPoly
from slvir.lie import (
    Automorphism,
    E,
    F,
    H,
    SL2Elt,
    VirElt,
    _recognize,
    bracket_sl2,
    bracket_vir,
    classify_subalgebra_1d,
    classify_subalgebra_2d,
    embed_sl2,
    intersect_virf_sl2,
    sl2_from_vir,
)
from slvir.linalg import Echelon
from slvir.scalar import Scalar
from slvir.sparse import row_from_scalars

from closed_forms import bracket_form, embed_form

S = Scalar.of
SL2_BASIS = (E, H, F)


def test_bracket_relations():
    assert bracket_sl2(H, E) == E.scale(2)
    assert bracket_sl2(E, F) == H
    assert bracket_sl2(H, F) == F.scale(-2)
    assert bracket_sl2(E, E).is_zero()


def test_sl2_antisymmetry_and_jacobi():
    for x in SL2_BASIS:
        for y in SL2_BASIS:
            assert bracket_sl2(x, y) == -bracket_sl2(y, x)
            for z in SL2_BASIS:
                total = (
                    bracket_sl2(x, bracket_sl2(y, z))
                    + bracket_sl2(y, bracket_sl2(z, x))
                    + bracket_sl2(z, bracket_sl2(x, y))
                )
                assert total.is_zero()


def test_vir_bracket_examples():
    assert bracket_vir(VirElt.e(1), VirElt.e(-1)) == VirElt.e(0, -2)
    expected = VirElt({0: -4}, S("1/2"))
    assert bracket_vir(VirElt.e(2), VirElt.e(-2)) == expected
    assert bracket_vir(VirElt.central(), VirElt.e(5)).is_zero()


def test_vir_jacobi_window():
    rng = range(-4, 5)
    for i in rng:
        for j in rng:
            assert bracket_vir(VirElt.e(i), VirElt.e(j)) == \
                -bracket_vir(VirElt.e(j), VirElt.e(i))
            for k in rng:
                x, y, z = VirElt.e(i), VirElt.e(j), VirElt.e(k)
                total = (
                    bracket_vir(x, bracket_vir(y, z))
                    + bracket_vir(y, bracket_vir(z, x))
                    + bracket_vir(z, bracket_vir(x, y))
                )
                assert total.is_zero()


def test_embedding():
    assert embed_sl2(H) == VirElt.e(0, 2)
    assert embed_sl2(F) == VirElt.e(-1, -1)
    assert embed_sl2(E + F) == VirElt({1: 1, -1: -1})
    for x in SL2_BASIS:
        for y in SL2_BASIS:
            assert embed_sl2(bracket_sl2(x, y)) == \
                bracket_vir(embed_sl2(x), embed_sl2(y))


def test_embedding_inverse():
    for x in (E, H, F, SL2Elt(S("1/2"), S("-2*i"), 3)):
        assert sl2_from_vir(embed_sl2(x)) == x
    with pytest.raises(WrongAlgebra):
        sl2_from_vir(VirElt.e(2))
    with pytest.raises(WrongAlgebra):
        sl2_from_vir(VirElt({0: 1}, 1))


GAMMA_SAMPLES = [S(0), S(1), S(-2), S("1/2"), S("-3/4"), S("2*i"),
                 S("1+1*i"), S("1/3-2/5*i"), S(5), S("-7/2"), S("i"), S("4/9")]


def test_gamma_examples():
    lam = S(3)
    g = Automorphism.gamma(lam)
    assert g.apply(E) == SL2Elt(1, -3, -9)
    assert g.apply(H) == SL2Elt(0, 1, 6)
    assert g.apply(F) == F


def test_sigma_and_gamma2_examples():
    s = Automorphism.sigma()
    assert s.apply(H) == -H
    assert s.apply(E) == F and s.apply(F) == E
    g = Automorphism.gamma2(1, 2)
    assert g.apply(H) == SL2Elt(-2, 3, 4)


def _compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """a after b: Ad(g_a) Ad(g_b) = Ad(g_a g_b)."""
    (p1, q1, r1, s1), (p2, q2, r2, s2) = a.g, b.g
    return Automorphism((p1 * p2 + q1 * r2, p1 * q2 + q1 * s2,
                         r1 * p2 + s1 * r2, r1 * q2 + s1 * s2))


def _preserves_brackets(aut: Automorphism) -> bool:
    return all(aut.apply(bracket_sl2(x, y)) == bracket_sl2(aut.apply(x), aut.apply(y))
               for x in SL2_BASIS for y in SL2_BASIS)


def test_bracket_preservation():
    for lam in GAMMA_SAMPLES:
        assert _preserves_brackets(Automorphism.gamma(lam))
    pairs = [(S(1), S(2)), (S("1/2"), S("-1/3")), (S("i"), S(1)), (S(-1), S("2*i"))]
    for l1, l2 in pairs:
        assert _preserves_brackets(Automorphism.gamma2(l1, l2))
    assert _preserves_brackets(Automorphism.sigma())


def test_compose_invert_and_recognition():
    assert Automorphism.gamma(0).kind == "identity"
    s = Automorphism.sigma()
    assert _compose(s, s).kind == "identity"
    for lam in (S(2), S("1/2"), S("1-1*i")):
        inv = Automorphism.gamma(lam).inverse()
        assert inv == Automorphism.gamma(-lam)
        assert inv.kind == "gamma" and inv.params == (-lam,)
    g2 = Automorphism.gamma2(S(5), S(1))
    assert _compose(g2.inverse(), g2).kind == "identity"
    # recognised up to scale: the adjugate of g = [[1, 1], [1, -1]] is -g
    assert Automorphism.gamma2(1, -1).inverse().tag == "gamma2(1,-1)"
    assert Automorphism.gamma2(1, 2).inverse().tag == "composite"
    comp = _compose(Automorphism.gamma(1), Automorphism.sigma())
    assert comp.kind == "composite"
    # gammas compose additively, and recognition sees it
    both = _compose(Automorphism.gamma(S(2)), Automorphism.gamma(S("1/2")))
    assert both == Automorphism.gamma(S("5/2"))
    assert both.kind == "gamma"


def test_apply_round_trip():
    test_elt = SL2Elt(S("2/3"), S("-1*i"), S(4))
    for aut in [Automorphism.gamma(S("1/2")), Automorphism.gamma2(1, 2),
                Automorphism.sigma()]:
        assert aut.apply(aut.inverse().apply(test_elt)) == test_elt


def test_gamma2_rejects_equal_parameters():
    with pytest.raises(InvalidParameter):
        Automorphism.gamma2(2, 2)


def test_classify_1d_nilpotent():
    res = classify_subalgebra_1d(SL2Elt(1, -3, -9))
    assert res.kind == "n_lambda"
    assert res.params == (S(3),)
    assert res.generator == SL2Elt(1, -3, -9)


def test_classify_1d_lower_nilpotent():
    res = classify_subalgebra_1d(F.scale(7))
    assert res.kind == "n_minus"
    assert res.aut.kind == "sigma"
    assert res.generator == F


def test_classify_1d_cartan_pair():
    res = classify_subalgebra_1d(SL2Elt(1, -3, -5))
    assert res.kind == "h_pair"
    assert res.params == (S(5), S(1))
    # generator spans the same line as the input
    ratio = res.generator.ce / S(1)
    assert res.generator == SL2Elt(1, -3, -5).scale(ratio)


def test_classify_1d_cartan_single():
    # 2h - 4f spans h - 2f = gamma(-1)(h)
    res = classify_subalgebra_1d(SL2Elt(0, 2, -4))
    assert res.kind == "h_lambda"
    assert res.params == (S(-1),)
    assert res.generator == SL2Elt(0, 1, -2)
    assert res.aut.apply(H) == res.generator


def test_classify_1d_errors():
    with pytest.raises(InvalidParameter):
        classify_subalgebra_1d(SL2Elt(0, 0, 0))
    with pytest.raises(NotRepresentable):
        classify_subalgebra_1d(SL2Elt(1, 0, -2))  # needs sqrt(2)


def test_classify_1d_generator_spans_input():
    samples = [SL2Elt(1, -1, -1), SL2Elt(2, 3, 4), SL2Elt(0, 5, 1),
               SL2Elt(1, 0, 4), SL2Elt(0, 0, -2)]
    for x in samples:
        try:
            res = classify_subalgebra_1d(x)
        except NotRepresentable:
            continue
        gen = res.generator
        # gen and x are proportional
        rows = Echelon()
        rows.insert(row_from_scalars({0: x.ce, 1: x.ch, 2: x.cf}))
        assert not rows.insert(row_from_scalars({0: gen.ce, 1: gen.ch, 2: gen.cf}))


def test_classify_2d():
    assert classify_subalgebra_2d(H, E).kind == "b_plus"
    res = classify_subalgebra_2d(H + F.scale(2), E + F)
    assert res.kind == "b_lambda" and res.params == (S(1),)
    assert classify_subalgebra_2d(H, F).kind == "b_minus"
    with pytest.raises(NotASubalgebra):
        classify_subalgebra_2d(E, F)
    with pytest.raises(InvalidParameter):
        classify_subalgebra_2d(E, E.scale(2))


fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
gaussians = st.builds(Scalar, fracs, fracs | st.just(0))
# entries (a, b, c, d) of an invertible 2x2 change of basis
basis_changes = st.tuples(gaussians, gaussians, gaussians, gaussians).filter(
    lambda m: not (m[0] * m[3] - m[1] * m[2]).is_zero())


def _change_basis(m, x, y):
    a, b, c, d = m
    return x.scale(a) + y.scale(b), x.scale(c) + y.scale(d)


@given(gaussians, basis_changes, gaussians)
def test_classify_2d_against_the_borel_subalgebras(lam, m, c):
    g = Automorphism.gamma(lam)
    res = classify_subalgebra_2d(*_change_basis(m, g.apply(H), g.apply(E)))
    if lam.is_zero():
        assert (res.kind, res.aut, res.params) == ("b_plus", Automorphism.identity(), ())
    else:
        assert (res.kind, res.aut, res.params) == ("b_lambda", g, (lam,))
    res = classify_subalgebra_2d(*_change_basis(m, g.apply(H), g.apply(F)))
    assert (res.kind, res.aut, res.params) == ("b_minus", Automorphism.sigma(), ())
    x, _ = _change_basis(m, g.apply(H), g.apply(E))
    with pytest.raises(InvalidParameter):
        classify_subalgebra_2d(x, x.scale(c))
    with pytest.raises(NotASubalgebra):
        classify_subalgebra_2d(*_change_basis(m, E, F))


def test_gamma2_borel_matches_gamma_borel():
    # image spans of {h, e} agree for gamma2(l1, l2) and gamma(l1)
    for l1, l2 in [(S(1), S(2)), (S("1/2"), S(-1))]:
        g2 = Automorphism.gamma2(l1, l2)
        g1 = Automorphism.gamma(l1)
        ech = Echelon()
        for img in (g1.apply(H), g1.apply(E)):
            ech.insert(row_from_scalars({0: img.ce, 1: img.ch, 2: img.cf}))
        assert ech.rank == 2
        for img in (g2.apply(H), g2.apply(E)):
            assert not ech.insert(row_from_scalars({0: img.ce, 1: img.ch, 2: img.cf}))


def test_intersections():
    lam = S(3)
    f1 = LaurentPoly({1: 1, 0: -lam})
    got = intersect_virf_sl2(f1)
    assert got == [VirElt({1: 1, 0: -lam}), VirElt({0: 1, -1: -lam})]
    f2 = LaurentPoly.from_roots([(lam, 2)])
    assert intersect_virf_sl2(f2) == [VirElt({1: 1, 0: -2 * lam, -1: lam * lam})]
    f3 = LaurentPoly.from_roots([(S(1), 1), (S(2), 1), (S(3), 1)])
    assert intersect_virf_sl2(f3) == []


def test_json_round_trips():
    x = SL2Elt(S("1/2"), S("2*i"), S(-3))
    assert SL2Elt.from_json(x.to_json()) == x
    v = VirElt({3: S("1/2"), -1: S(2)}, S("1*i"))
    assert VirElt.from_json(v.to_json()) == v
    aut = Automorphism.gamma2(1, 2)
    data = aut.to_json()
    assert data["tag"] == "gamma2(1,2)"
    assert len(data["matrix"]) == 9


non_real = st.builds(Scalar, fracs, fracs.filter(bool))


# -- the 3x3 reference routes: cofactor inverse and family matching ------------

def _mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _mat_inv(m):
    det = _mat_det(m)
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = (
                m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            )
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    return tuple(tuple(cof[j][i] / det for j in range(3)) for i in range(3))


def _match_3x3(matrix):
    """(kind, params) by comparing a 3x3 matrix with trial family matrices."""
    if matrix == Automorphism.identity().matrix:
        return "identity", ()
    lam = -matrix[1][0]
    if not lam.is_zero() and matrix == Automorphism.gamma(lam).matrix:
        return "gamma", (lam,)
    if matrix == Automorphism.sigma().matrix:
        return "sigma", ()
    a, b = matrix[0][0], matrix[1][0]
    if not a.is_zero():
        lam1 = -b / a
        lam2 = lam1 + Scalar.one() / a
        if matrix == Automorphism.gamma2(lam1, lam2).matrix:
            return "gamma2", (lam1, lam2)
    return "composite", ()


def _tag(kind, params):
    return kind if not params else f"{kind}({','.join(map(str, params))})"


def _assert_inverse_matches_the_cofactor_route(aut):
    ref = _mat_inv(aut.matrix)
    kind, params = _match_3x3(ref)
    inv = aut.inverse()
    assert (inv.matrix, inv.kind, inv.params, inv.tag) == (ref, kind, params, _tag(kind, params))
    # inverting the inverse gives the automorphism back
    back = inv.inverse()
    assert (back.matrix, back.kind, back.params, back.tag) == \
        (aut.matrix, aut.kind, aut.params, aut.tag)


@given(non_real, non_real)
@example(Scalar(0, 1), Scalar(1))
def test_inverse_matches_the_cofactor_route(lam, lam2):
    # gamma(lam)^-1 is gamma(-lam), sigma and the identity are their own inverses
    for aut in (Automorphism.gamma(lam), Automorphism.sigma(), Automorphism.identity(),
                Automorphism.gamma2(lam, lam + lam2)):
        _assert_inverse_matches_the_cofactor_route(aut)
    assert Automorphism.gamma(lam).inverse() == Automorphism.gamma(-lam)
    assert Automorphism.sigma().inverse().kind == "sigma"


# each g up to a nonzero scale: a named family, or any invertible g with non-real entries
families = st.one_of(
    st.just((1, 0, 0, 1)), st.just((0, 1, 1, 0)),
    st.builds(lambda lam: (1, 0, lam, 1), non_real),
    st.builds(lambda l1, l2: (1, 1, l1, l2), non_real, non_real).filter(lambda g: g[2] != g[3]),
)
random_g = st.tuples(non_real, non_real, non_real, non_real).filter(
    lambda g: not (g[0] * g[3] - g[1] * g[2]).is_zero())
scaled_g = st.builds(lambda g, c: tuple(Scalar.of(x) * c for x in g),
                     families | random_g, non_real)
automorphisms = st.recursive(
    st.builds(Automorphism, scaled_g),
    lambda inner: st.builds(_compose, inner, inner), max_leaves=3)


@given(automorphisms)
def test_ad_matches_the_3x3_routes(aut):
    assert _preserves_brackets(aut)
    assert _mat_det(aut.matrix) == Scalar.one()
    assert _recognize(aut.g) == _match_3x3(aut.matrix) == (aut.kind, aut.params)
    _assert_inverse_matches_the_cofactor_route(aut)


@given(automorphisms, non_real)
def test_scaled_g_and_a_double_inverse_give_the_same_automorphism(aut, c):
    scaled = Automorphism(tuple(x * c for x in aut.g))
    assert scaled == aut and hash(scaled) == hash(aut)
    assert scaled.to_json() == aut.to_json()
    back = aut.inverse().inverse()
    assert back == aut and back.tag == aut.tag and back.to_json() == aut.to_json()


@given(non_real, non_real, non_real, non_real, non_real, non_real)
def test_letter_tables_match_the_closed_forms(a, b, c, d, e, f):
    # bracket_sl2 and embed_sl2 read the letter tables; the closed forms
    # write the three relations and the embedding out
    x, y = SL2Elt(a, b, c), SL2Elt(d, e, f)
    for u, v in ((x, y), (x, H), (F, y), (x, x.scale(2))):
        assert bracket_sl2(u, v) == bracket_form(u, v)
    for u in (x, y, E, H, F, SL2Elt(a, 0, c)):
        assert embed_sl2(u) == embed_form(u)
        assert sl2_from_vir(embed_form(u)) == u
