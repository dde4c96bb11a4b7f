from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import slvir.modules as modules_mod
from slvir.errors import MAX_VIR_INDEX, InvalidParameter, NotWeightModule, WrongAlgebra
from slvir.lie import Automorphism, E, F, H, SL2Elt, VirElt, bracket_sl2
from slvir.induced import InducedModule, MuData, VirPolyModule
from slvir.modules import (
    _SCALAR_SPECS,
    _SPEC_KEYS,
    LETTERS,
    DenseModule,
    LowVermaModule,
    ModVec,
    TensorModule,
    TwistModule,
    VermaModule,
    WModule,
    XbarModule,
    XbarQuotientModule,
    XModule,
    act_uenv,
    casimir_action,
    make_module,
    weight_decompose,
)
from slvir.pbw import UEnvElt, aut_extend
from slvir.scalar import Scalar
from slvir.sparse import expand, lincomb, row_from_scalars, unit_row

from closed_forms import act_key, aut_apply_form
from pbw_oracles import pair_act_key, reduce_x_terms, verma_act_generic, xbar_act_generic

S = Scalar.of
GENS = (E, H, F)


def assert_module_axiom(module, depth):
    for i, x in enumerate(GENS):
        for y in GENS[i + 1:]:
            for key in module.basis_keys(depth):
                v = module.basis_vec(key)
                lhs = module.act(x, module.act(y, v)) - module.act(y, module.act(x, v))
                rhs = module.act(bracket_sl2(x, y), v)
                assert lhs == rhs, (module.family, key)


def test_w_generator_relation():
    w = WModule(S("3/2"))
    assert w.act(E, w.generator()) == w.generator().scale(S("3/2"))


def test_w_is_not_weight_module():
    w = WModule(S(1))
    with pytest.raises(NotWeightModule):
        weight_decompose(w, w.generator())


def test_x_weight_shifts():
    x = XModule(S("1/2"))
    for key in x.basis_keys(4):
        v = x.basis_vec(key)
        base = x.key_weight(key)
        for got_w, _ in weight_decompose(x, x.act(E, v)):
            assert got_w == base + 2
        for got_w, _ in weight_decompose(x, x.act(F, v)):
            assert got_w == base - 2
        assert x.act(H, v) == v.scale(base)


def test_xbar_closed_form_matches_quotient_oracle():
    for tau in (S(2), S(9)):
        xb = XbarModule(S(0), tau)
        for key in xb.basis_keys(6):
            v = xb.basis_vec(key)
            for g in GENS:
                assert xb.act(g, v) == xbar_act_generic(xb, g, v), (tau, key, g)


def test_xbar_weights():
    xb = XbarModule(S(0), S(9))
    assert xb.key_weight(("e", 2)) == S(4)
    assert xb.key_weight(("f", 1)) == S(-2)


def test_xbar_projection_kills_casimir_shift():
    # the quotient reduction sends (c - tau) X(xi) to zero, with the shifted
    # vectors computed through the generic enveloping action, not the
    # quotient's own closed form
    from slvir.pbw import casimir_elt

    for xi, tau in [(S(0), S(9)), (S(1), S("1/3")), (S("1*i"), S(2))]:
        x = XModule(xi)
        xb = XbarModule(xi, tau)
        for key in x.basis_keys(4):
            v = x.basis_vec(key)
            shifted = act_uenv(x, casimir_elt(), v) - v.scale(tau)
            assert reduce_x_terms(xb, dict(shifted.terms)) == {}, (xi, tau, key)


def test_dense_action():
    d = DenseModule(S(0), S(9))
    v2 = d.basis_vec(S(2))
    assert d.act(E, v2).is_zero()
    assert d.act(F, v2) == d.basis_vec(S(0))
    assert d.act(H, v2) == v2.scale(2)
    with pytest.raises(InvalidParameter):
        d.basis_vec(S(1))  # wrong coset


def test_verma_examples():
    v = VermaModule(S(2))
    m = v.generator()
    assert v.act(E, v.act(F, m)) == m.scale(2)
    assert v.act(E, m).is_zero()
    assert casimir_action(v, m) == m.scale(9)


def test_verma_closed_form_matches_generic():
    for delta in (S(2), S("-1/2"), S("1+1*i")):
        v = VermaModule(delta)
        for key in v.basis_keys(6):
            vec = v.basis_vec(key)
            for g in GENS:
                assert v.act(g, vec) == verma_act_generic(v, g, vec)


def test_lowverma_matches_sigma_twisted_verma():
    # e^k m in the lowest weight module behaves like f^k m in the
    # sigma-twist of the highest weight module of opposite weight
    delta = S("5/3")
    low = LowVermaModule(delta)
    tw = TwistModule(VermaModule(-delta), Automorphism.sigma())
    for k in range(6):
        for g in GENS:
            got = low.act(g, low.basis_vec(k))
            want = tw.act(g, tw.basis_vec(k))
            assert got.terms == want.terms, (k, g)


def test_twist_definition_and_composition_route():
    inner = VermaModule(S(3))
    aut = Automorphism.gamma(S(1))
    tw = TwistModule(inner, aut)
    for key in range(4):
        for g in GENS:
            got = tw.act(g, tw.basis_vec(key))
            want = inner.act(aut.apply(g), inner.basis_vec(key))
            assert got.terms == want.terms
    # independence route: extend the automorphism through U(sl2)
    samples = [UEnvElt.monomial(m) for m in [(1, 0, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)]]
    for u in samples:
        for key in range(3):
            got = act_uenv(tw, u, tw.basis_vec(key))
            want = act_uenv(inner, aut_extend(aut, u), inner.basis_vec(key))
            assert got.terms == want.terms


def test_casimir_on_x_generator():
    xi = S("1/3")
    x = XModule(xi)
    got = casimir_action(x, x.generator())
    want = x.vector({(1, 1): S(4), (0, 0): (xi + 1) ** 2})
    assert got == want


def test_casimir_commutes_with_generators():
    from slvir.induced import MuData, VirPolyModule

    modules = [XModule(S("1/2")), WModule(S(2)), VermaModule(S(3)),
               XbarModule(S(0), S(9)),
               VirPolyModule(MuData(((S(2), 1),), ((S(1),),)), 7)]
    for module in modules:
        for key in module.basis_keys(3):
            v = module.basis_vec(key)
            for g in GENS:
                assert casimir_action(module, module.act(g, v)) == \
                    module.act(g, casimir_action(module, v))


def test_module_axiom_all_sl2_families():
    aut = Automorphism.gamma(S(1))
    families = [
        WModule(S(1)),
        WModule(S(0)),
        XModule(S("1/2")),
        XbarModule(S(0), S(9)),
        XbarModule(S(1), S("1/3")),
        XbarQuotientModule(S(0), S(9), 1),
        DenseModule(S(0), S(2)),
        VermaModule(S(2)),
        LowVermaModule(S(-3)),
        TwistModule(XModule(S(1)), Automorphism.sigma()),
        TwistModule(VermaModule(S(3)), aut.inverse()),
        TensorModule(
            TwistModule(VermaModule(S(3)), Automorphism.gamma(S(1)).inverse()),
            TwistModule(VermaModule(S(1)), Automorphism.gamma(S(2)).inverse()),
        ),
    ]
    for module in families:
        assert_module_axiom(module, 4)


def test_tensor_leibniz():
    # f(m@m) = fm@m + m@fm
    t = TensorModule(VermaModule(S(1)), VermaModule(S(2)))
    got = t.act(F, t.generator())
    assert got == t.vector({(1, 0): 1, (0, 1): 1})
    # h is additive on the factors
    assert t.act(H, t.generator()) == t.generator().scale(3)


def test_weight_decompose_groups_and_sorts():
    xb = XbarModule(S(0), S(9))
    vec = xb.act(E, xb.generator()) + xb.act(F, xb.generator())
    decomposition = weight_decompose(xb, vec)
    assert [w for w, _ in decomposition] == [S(-2), S(2)]


def test_wrong_algebra_rejected():
    w = WModule(S(1))
    with pytest.raises(WrongAlgebra):
        w.act(VirElt.e(1), w.generator())


def test_twisted_vir_module_is_sl2_only():
    # a twist of a Virasoro-family handle is exposed through sl2 restriction
    from slvir.induced import MuData, VirPolyModule

    vp = VirPolyModule(MuData(((S(2), 1),), ((S(1),),)), 5)
    aut = Automorphism.gamma(S(1))
    tw = TwistModule(vp, aut)
    gen = tw.generator()
    got = tw.act(E, gen)
    want = vp.act(aut.apply(E), vp.generator())
    assert got.terms == want.terms
    with pytest.raises(WrongAlgebra):
        tw.act(VirElt.e(1), gen)


def test_vector_validation():
    v = VermaModule(S(2))
    with pytest.raises(InvalidParameter):
        v.basis_vec(-1)
    x = XModule(S(0))
    with pytest.raises(InvalidParameter):
        x.basis_vec((1,))
    with pytest.raises(InvalidParameter):
        v.generator() + VermaModule(S(3)).generator()


def test_make_module_round_trip():
    spec = {
        "family": "Tensor",
        "left": {"family": "Twist",
                 "inner": {"family": "Verma", "delta": "3"},
                 "aut": {"kind": "inverse", "of": {"kind": "gamma", "params": ["1"]}}},
        "right": {"family": "Twist",
                  "inner": {"family": "Verma", "delta": "1"},
                  "aut": {"kind": "inverse", "of": {"kind": "gamma", "params": ["2"]}}},
    }
    module = make_module(spec)
    assert module.family == "Tensor"
    assert_module_axiom(module, 3)
    with pytest.raises(InvalidParameter):
        make_module({"family": "nope"})
    with pytest.raises(Exception):
        make_module({"family": "VirPoly", "roots": [["0", 1]], "polys": [["1"]]})


def test_modvec_serialization():
    v = VermaModule(S(2))
    vec = v.vector({0: S("1/2"), 2: S("-1*i")})
    data = vec.to_json()
    assert data["schema"] == "modvec/1"
    assert data["family"] == "Verma"
    assert data["terms"] == [[0, ["1", "2", "0", "1"]], [2, ["0", "1", "-1", "1"]]]


# -- the memoised letter rows against the per-key Scalar route ------------------


def _reference_key(module, x, key) -> dict:
    """x on one basis key, summed from the families' per-key Scalar closed
    forms (``closed_forms.act_key``), or the PBW route for W and X: twists
    act by aut(x) (``closed_forms.aut_apply_form``), tensors by the Leibniz
    rule."""
    if isinstance(module, TwistModule):
        return _reference_key(module.inner, aut_apply_form(module.aut, x), key)
    if isinstance(module, TensorModule):
        kl, kr = key
        out = {(k, kr): c for k, c in _reference_key(module.left, x, kl).items()}
        for k, c in _reference_key(module.right, x, kr).items():
            out[(kl, k)] = out.get((kl, k), Scalar.zero()) + c
        return out
    if isinstance(module, (WModule, XModule)):
        return pair_act_key(module, x, key)
    return act_key(module, x, key)


def _reference_act(module, x, vec):
    out: dict = {}
    for key, coeff in vec.terms.items():
        for k2, c2 in _reference_key(module, x, key).items():
            out[k2] = out.get(k2, Scalar.zero()) + coeff * c2
    return ModVec(module, out)


# one handle per family, with non-real parameters where the family allows;
# the handles are shared across examples, so their caches are exercised warm
FAMILY_HANDLES = [
    WModule(S("1/2+1*i")),
    XModule(S("1*i")),
    XbarModule(S("1/3+1*i"), S("2-1*i")),
    XbarQuotientModule(S(0), S(9), 1),
    DenseModule(S("1*i"), S(3)),
    VermaModule(S("2+1*i")),
    LowVermaModule(S("-1/2*i")),
    TwistModule(XModule(S("1*i")), Automorphism.gamma(S("1+1*i")).inverse()),
    TwistModule(WModule(S("-1+1*i")), Automorphism.gamma2(S(2), S("1*i")).inverse()),
    TensorModule(TwistModule(VermaModule(S(1)), Automorphism.gamma(S(2)).inverse()),
                 LowVermaModule(S("1*i"))),
]

_fracs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
_nonzero_fracs = _fracs.filter(bool)
_non_real = st.builds(Scalar, _fracs, _nonzero_fracs)
_gaussian = st.builds(Scalar, _fracs, _fracs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY_HANDLES), _non_real, _non_real, _non_real, st.data())
def test_act_matches_per_key_scalar_route(module, ce, ch, cf, data):
    x = SL2Elt(ce, ch, cf)
    keys = module.basis_keys(3)
    coeffs = data.draw(st.dictionaries(st.sampled_from(keys), _gaussian, max_size=4))
    vec = ModVec(module, coeffs)
    assert module.act(x, vec) == _reference_act(module, x, vec), module.family


@settings(max_examples=30, deadline=None)
@given(_non_real, _non_real, _non_real, _non_real, st.integers(0, 6))
def test_lowverma_matches_generic_route_through_sigma(delta, ce, ch, cf, k):
    # independent oracle: multiply in U(sl2) and substitute in the highest
    # weight module of weight -delta, acted on by sigma(x); e^k m <-> f^k m
    x = SL2Elt(ce, ch, cf)
    low, verma = LowVermaModule(delta), VermaModule(-delta)
    got = low.act(x, low.basis_vec(k))
    want = verma_act_generic(verma, Automorphism.sigma().apply(x), verma.basis_vec(k))
    assert got.terms == want.terms


# W and X: the closed forms against the PBW route, and the tops from gr U(sl2)

PAIR_HANDLES = [cls(S(p)) for cls in (WModule, XModule)
                for p in ("0", "1", "-2", "1/3", "1+1*i", "-1/2*i")]


def _pair_id(module):
    return f"{module.family}({getattr(module, module.PARAMS[0])})"


@pytest.mark.parametrize("module", PAIR_HANDLES, ids=_pair_id)
def test_pair_rows_match_the_pbw_route(module):
    for key in module.basis_keys(7):
        for letter, x in (("e", E), ("h", H), ("f", F)):
            want = row_from_scalars(pair_act_key(module, x, key))
            assert module._row(letter, key) == want, (letter, key)
            assert module._top(letter, key) == module._top_part(key, want), (letter, key)


# every closed-form family builds the row of one letter on one key in
# integer arithmetic: the same row, keys in the same order, as the Scalar
# closed form on the whole letter

_XI = S("1/2+1*i")
CLOSED_FORM_HANDLES = [
    WModule(S("1/2+1*i")), XModule(S("-1/3+1*i")), XbarModule(S("1/3+1*i"), S("2-1*i")),
    XbarQuotientModule(_XI, (_XI + 5) ** 2, 2),  # tau = (xi + 2*j0 + 1)^2
    DenseModule(S("1*i"), S("3-2*i")), VermaModule(S("2+1*i")), LowVermaModule(S("-1/2*i")),
]


@pytest.mark.parametrize("module", CLOSED_FORM_HANDLES, ids=lambda m: m.family)
def test_letter_rows_match_the_scalar_closed_forms(module):
    for key in module.basis_keys(7):
        for letter, x in zip("ehf", GENS):
            got, want = module._row(letter, key), row_from_scalars(act_key(module, x, key))
            assert got == want, (letter, key)
            assert [list(got[1]), list(got[2])] == [list(want[1]), list(want[2])], (letter, key)


@settings(max_examples=40, deadline=None)
@given(_non_real, _non_real, _non_real, _non_real, _non_real)
def test_twist_op_split_matches_aut_apply(a, b, ce, ch, cf):
    # aut.apply, one lincomb of the rows of aut(e), aut(h), aut(f), agrees
    # with the Scalar matrix product, and a twist splits x into the ops of aut(x)
    auts = [Automorphism.gamma(a), Automorphism.sigma(), Automorphism((1, a, b, a * b + 1))]
    if a != b:
        auts += [Automorphism.gamma2(a, b), Automorphism.gamma2(a, b).inverse()]
    for aut in auts:
        for inner in (XModule(a), VermaModule(b)):
            twist = TwistModule(inner, aut)
            for x in (SL2Elt(ce, ch, cf), SL2Elt(ce, 0, cf), E, H, F):
                want = aut_apply_form(aut, x)
                assert aut.apply(x) == want, (aut, x)
                assert twist._ops(x) == inner._ops(want), (aut, x)


@settings(max_examples=15, deadline=None)
@given(_non_real, _non_real, _non_real, _non_real, st.data())
def test_twists_of_twists_and_tensors_act_by_aut_apply(a, ce, ch, cf, data):
    # their inners split aut(x) on their own; twisting twice is twisting by the composite
    x = SL2Elt(ce, ch, cf)
    g1, g2 = Automorphism.gamma(a), Automorphism.gamma2(S(1), a + 1)
    twice = TwistModule(TwistModule(XModule(a), g1), g2)
    tensor = TwistModule(TensorModule(VermaModule(a), LowVermaModule(S(1))), g1)
    for module in (twice, tensor):
        keys = module.basis_keys(3)
        vec = ModVec(module, data.draw(st.dictionaries(st.sampled_from(keys), _gaussian,
                                                       max_size=3)))
        assert module.act(x, vec) == _reference_act(module, x, vec)
    # Ad(g1) Ad(g2) = Ad(g1 g2)
    once = TwistModule(XModule(a), Automorphism(_matmul(g1.g, g2.g)))
    vec = twice.vector({(1, 2): S("1*i"), (0, 0): S(2)})
    assert twice.act(x, vec).row == once.act(x, once.vector(vec.terms)).row


def _matmul(g, h):
    # the 2x2 product g h of matrices read row by row as (p, q, r, s)
    p, q, r, s = g
    p2, q2, r2, s2 = h
    return (p * p2 + q * r2, p * q2 + q * s2, r * p2 + s * r2, r * q2 + s * s2)


# Verma, LowVerma, Xbar and its quotient read their tops off gr U(sl2) too,
# and a tensor product sums its factors' tops

GR_TOP_HANDLES = [
    VermaModule(S("1/3")), LowVermaModule(S("-2+1*i")), XbarModule(S("1/2"), S("3+1*i")),
    XbarQuotientModule(S(1), S(36), 2),  # tau = (xi + 2*j0 + 1)^2
    TensorModule(TwistModule(VermaModule(S(1)), Automorphism.gamma(S("2+1*i"))),
                 TwistModule(VermaModule(S(-1)), Automorphism.gamma2(S("1/3"), S(2)))),
]


# every class of the zoo that builds rows of its own
ROW_BUILDERS = [cls for cls in vars(modules_mod).values()
                if isinstance(cls, type) and "_build_row" in vars(cls)]


@pytest.mark.parametrize("module", GR_TOP_HANDLES, ids=lambda m: m.family)
def test_gr_tops_match_the_row_route(module, monkeypatch):
    if isinstance(module, TensorModule):
        ops = [E, H, F, SL2Elt(S("1*i"), S(2), S("-1/3"))]
    else:
        ops = list(LETTERS)
    pairs = [(op, key) for key in module.basis_keys(7) for op in ops]

    def no_rows(*args):
        raise AssertionError("a top built a full row")
    with monkeypatch.context() as mp:
        for cls in ROW_BUILDERS:
            mp.setattr(cls, "_build_row", no_rows)
        tops = [module._top(op, key) for op, key in pairs]
    for (op, key), top in zip(pairs, tops):
        assert top == module._top_part(key, module._row(op, key)), (op, key)


def top_action(module, x) -> list:
    """The top part of ``module._action(x)``, in the same form: row_of(k) is
    the part of x . k at depth ``key_depth(k) + 1``, one memoised ``_top``
    per op."""
    return [c + (partial(module._top, op),) for c, op in module._ops(x)]


@pytest.mark.parametrize("module", [
    TwistModule(WModule(S(-2)), Automorphism.gamma2(S(2), S("1*i"))),
    TwistModule(XModule(S("-1/2*i")), Automorphism.gamma2(S("1/3"), S(-1)).inverse()),
], ids=lambda m: m.inner.family)
def test_twisted_pair_tops_are_the_top_parts_of_the_rows(module):
    # the tops of x . key, summed over the letters of aut(x), against the
    # top part of the whole row
    for key in module.basis_keys(6):
        for x in (E, H, F, SL2Elt(S("1*i"), S(2), S("-1/3"))):
            top = lincomb(expand(unit_row(key), top_action(module, x)))
            full = lincomb(expand(unit_row(key), module._action(x)))
            assert top == module._top_part(key, full), (x, key)


# the derived rules: one generator, one weight test, one parameter table

INDUCED = InducedModule([(H, S(2)), (E, S(0))], 3)
VIRPOLY = VirPolyModule(MuData([(S(2), 2)], [[S(1), S(3)]]), 3)


def _depth_zero_key(module):
    if isinstance(module, TwistModule):
        return _depth_zero_key(module.inner)
    if isinstance(module, TensorModule):
        return (_depth_zero_key(module.left), _depth_zero_key(module.right))
    if isinstance(module, DenseModule):
        return module.xi
    return {"W": (0, 0), "X": (0, 0), "Xbar": ("e", 0), "XbarModY": ("e", 0), "Verma": 0,
            "LowVerma": 0, "Induced": (0, 0, 0), "VirPoly": (0, 0, 0)}[module.family]


@pytest.mark.parametrize("module", FAMILY_HANDLES + [INDUCED, VIRPOLY],
                         ids=lambda m: m.family)
def test_generator_is_the_one_depth_zero_key(module):
    key = _depth_zero_key(module)
    assert module.basis_keys(0) == [key]
    gen = module.generator()
    assert gen == module.basis_vec(key) and gen.module is module


@pytest.mark.parametrize("module", [
    WModule(S(1)),
    TwistModule(WModule(S(2)), Automorphism.sigma()),
    TensorModule(VermaModule(S(1)), WModule(S(1))),
    VIRPOLY,
], ids=lambda m: m.family)
def test_weight_decompose_names_the_module_itself(module):
    for vec in (module.generator(), ModVec(module)):
        with pytest.raises(NotWeightModule,
                           match=f"^{module.family} is not a weight-module family$"):
            weight_decompose(module, vec)


@pytest.mark.parametrize("module", [m for m in FAMILY_HANDLES if m.family in _SCALAR_SPECS],
                         ids=lambda m: m.family)
def test_scalar_families_declare_their_params_once(module):
    assert _SPEC_KEYS[module.family] == tuple(module.params_json())
    rebuilt = make_module({"family": module.family, **module.params_json()})
    assert rebuilt.signature() == module.signature()


# each Scalar family and the values that name a handle, in PARAMS order
POSITIONAL = [(WModule, ("1/2+i",)), (XModule, ("-3",)), (XbarModule, ("1/2", "9*i")),
              (DenseModule, ("i", "4")), (VermaModule, ("5",)), (LowVermaModule, ("-2/3",))]


@pytest.mark.parametrize("cls, values", POSITIONAL, ids=[cls.family for cls, _ in POSITIONAL])
def test_positional_values_name_the_handle_of_the_spec(cls, values):
    spec = dict(zip(cls.PARAMS, values), family=cls.family)
    assert cls(*values).params_json() == make_module(spec).params_json()
    for wrong in (values[1:], values + ("1",)):
        with pytest.raises(TypeError, match=rf"^{cls.family} takes the params"):
            cls(*wrong)


def test_xbar_quotient_is_named_by_the_xbar_values_and_j0():
    spec = {"family": "Xbar", "xi": "1/2", "tau": "9*i"}
    assert XbarQuotientModule("1/2", "9*i", 1).params_json() == \
        dict(make_module(spec).params_json(), j0=1)
    with pytest.raises(TypeError):
        XbarQuotientModule("1/2", "9*i")


def test_pair_keys_reject_bools():
    with pytest.raises(InvalidParameter):
        WModule(S(1)).basis_vec((True, 0))
    with pytest.raises(InvalidParameter):
        XbarModule(S(1), S(2)).basis_vec(("e", True))


def test_act_refuses_a_virasoro_index_beyond_the_limit():
    # Module.act checks every index of the element before any row is built,
    # on a VirPoly handle and on a tensor of them alike
    vp = VirPolyModule(MuData([(S(1), 1), (S(3), 1)], [[S(1)], [S(1)]]), 2)
    for module in (vp, TensorModule(vp, vp)):
        gen = module.generator()
        assert not module.act(VirElt({MAX_VIR_INDEX: 1, -MAX_VIR_INDEX: 1}), gen).is_zero()
        for n in (MAX_VIR_INDEX + 1, -MAX_VIR_INDEX - 1):
            with pytest.raises(InvalidParameter, match=rf"index {n} exceeds the limit"):
                module.act(VirElt({1: 1, n: 2}), gen)
