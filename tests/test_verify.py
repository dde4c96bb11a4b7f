from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, partial
from itertools import count
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

import slvir.linalg as linalg_mod
import slvir.modules as modules_mod
import slvir.verify as verify_mod
from slvir.errors import DepthExceeded, InvalidParameter
from slvir.induced import InducedModule, MuData, VirPolyModule
from slvir.lie import Automorphism, E, F, H, SL2Elt, VirElt, classify_subalgebra_1d
from slvir.linalg import BlockModP, Echelon
from slvir.modules import (LETTERS, DenseModule, KeyAboveTop, LowVermaModule, ModVec,
                           TensorModule,
                           TwistModule, VermaModule, WModule, XbarModule, XbarQuotientModule,
                           XModule, act_uenv, act_word)
from slvir.pbw import UEnvElt, aut_extend, casimir_elt, monomial_letters
from slvir.scalar import Scalar
from slvir.sparse import (MODULUS, expand, gauss, lincomb, low_slot, residues, restrict,
                          row_keys, slot_width, unit_row)
from slvir.verify import (
    Report,
    _casimir_shifter,
    _dense_intertwiner,
    _word_images,
    check_module_map,
    generator_test,
    simplicity_test,
    suite_dense,
    suite_restriction,
    suite_tensor_vermas,
    suite_twist_induction,
)

from pbw_oracles import xbar_act_generic
from test_modules import top_action

S = Scalar.of


def mud(roots, polys):
    return MuData(tuple(roots), tuple(tuple(p) for p in polys))


def brute_force_reducible(xi, tau, window=50):
    """Oracle: scan the weight window for a vector killed by e."""
    for i in range(-window, window + 1):
        if (tau - (xi + 2 * i + 1) ** 2).is_zero():
            return True, i
    return False, None


def module_reducible(xi, tau, window=25):
    """Second oracle route: act by e in the dense module itself."""
    from slvir.lie import E

    d = DenseModule(xi, tau)
    return any(d.act(E, d.basis_vec(w)).is_zero() for w in d.basis_keys(window))


def test_identity_map_on_verma():
    v = VermaModule(S(2))
    report = check_module_map(v, v, v.generator(), 6)
    assert report.flags["relations_hold"]
    assert report.flags["injective_up_to_N"]
    assert report.flags["surjective_onto_window"]
    assert report.witness is None
    assert report.all_ok


@pytest.mark.parametrize("dst", [
    WModule(S(0)),
    TwistModule(WModule(S(0)), Automorphism.gamma(S(2)).inverse()),
], ids=["W", "twisted_W"])
def test_window_span_is_checked_on_w_targets(dst):
    # one Verma image per degree cannot span the d + 1 keys of depth d of
    # W: the span is checked on W targets as on every other, not read off
    # the generator
    report = check_module_map(VermaModule(S(0)), dst, dst.generator(), 4)
    assert report.flags["surjective_onto_window"] is False
    assert report.flags["injective_up_to_N"]
    assert report.rank == 5


def test_weight_preserving_candidate_fails_at_root():
    # X(0) -> Vdense(0, 9): relations hold but e^2 is sent to zero
    x = XModule(S(0))
    d = DenseModule(S(0), S(9))
    report = check_module_map(x, d, d.basis_vec(S(0)), 6)
    assert report.flags["relations_hold"]
    assert not report.flags["injective_up_to_N"]
    assert report.witness == {"kind": "dependent_image", "src_key": [0, 2]}


def test_simplicity_examples():
    assert simplicity_test(0, 1).extra["irreducible"] is False
    assert simplicity_test(0, 1).extra["witness_i"] == 0
    assert simplicity_test(0, 9).extra["witness_i"] == 1
    assert simplicity_test(0, 2).extra["irreducible"] is True
    assert simplicity_test(0, 2).extra["witness_i"] is None


def test_simplicity_gaussian_parameters():
    # tau = (xi + 2i + 1)^2 manufactured in Q(i)
    xi = S("1+1*i")
    tau = (xi + 5) ** 2
    rep = simplicity_test(xi, tau)
    assert rep.extra["irreducible"] is False and rep.extra["witness_i"] == 2
    assert simplicity_test(S("1*i"), S(2)).extra["irreducible"] is True


def test_simplicity_against_brute_force():
    xis = [S(0), S(1), S("1/2"), S(-3), S("1*i")]
    taus = [S(k) for k in range(-3, 10)] + [S("1/4"), S("2*i"), (S("1*i") + 4) ** 2]
    for xi in xis:
        for tau in taus:
            rep = simplicity_test(xi, tau)
            reducible, _ = brute_force_reducible(xi, tau)
            assert rep.extra["irreducible"] == (not reducible), (xi, tau)
            assert module_reducible(xi, tau) == reducible, (xi, tau)


def test_generator_examples():
    assert generator_test(0, 9).extra["generates"] is False
    assert generator_test(0, 9).extra["witness_i"] == 1
    assert generator_test(4, 9).extra["generates"] is True
    assert generator_test(0, 2).extra["generates"] is True
    # negative-only roots do not obstruct generation
    assert simplicity_test(4, 9).extra["irreducible"] is False
    assert generator_test(4, 9).extra["generates"] is True


def test_dense_suite_iso_branch():
    report = suite_dense(0, 2, 6)
    assert report.extra["branch"] == "iso_to_Vdense"
    assert report.extra.get("j0") is None
    assert report.extra["filtration_strict_to"] == 3
    assert report.all_ok, report.flags
    assert report.extra.get("pieces") is None


def test_dense_suite_composition_branch():
    report = suite_dense(0, 9, 6)
    assert report.extra["branch"] == "composition_series"
    assert report.extra["j0"] == 1
    assert report.extra["pieces"]["quotient"] == {"family": "Verma", "delta": S(2).to_json()}
    assert report.extra["pieces"]["sub"] == {"family": "LowVerma", "delta": S(4).to_json()}
    assert report.all_ok, report.flags


def test_dense_suite_more_parameters():
    assert suite_dense(1, 4, 6).extra["j0"] == 0
    assert suite_dense(1, 4, 6).all_ok
    r = suite_dense(S("1*i"), S(-1), 6)  # tau = (i)^2 would need xi+2j+1 = i
    assert r.extra["branch"] == "iso_to_Vdense" and r.all_ok
    r = suite_dense(S("1/2"), S("2*i"), 6)
    assert r.extra["branch"] == "iso_to_Vdense" and r.all_ok


def test_dense_suite_gaussian_composition_series():
    xi = S("1*i")
    tau = (xi + 3) ** 2  # root at j = 1, the mirror root is not an integer
    r = suite_dense(xi, tau, 6)
    assert r.extra["branch"] == "composition_series" and r.extra["j0"] == 1
    assert r.all_ok, r.flags
    assert Scalar.from_json(r.extra["pieces"]["quotient"]["delta"]) == xi + 2


def test_dense_suite_depth_guards():
    with pytest.raises(InvalidParameter):
        suite_dense(0, 9, 4)
    with pytest.raises(DepthExceeded):
        suite_dense(0, S((2 * 8 + 1) ** 2), 6)  # j0 = 8 beyond the window


def test_restriction_degree_one():
    mu = mud([(S(1), 1)], [[S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.extra["target"]["inner"] == {"family": "Verma", "delta": S(2).to_json()}
    assert report.extra["casimir_scalar"] == S(9).to_json()
    assert report.flags["parameter_formula_consistent"]
    # another sample: lambda = 2i, mu(f) = 1/2 gives delta = 1/(2i) = -i/2
    mu = mud([(S("2*i"), 1)], [[S("1/2")]])
    report = suite_restriction(mu, 6)
    assert report.all_ok
    assert report.extra["target"]["inner"]["delta"] == S("-1/2*i").to_json()


def test_restriction_double_root():
    mu = mud([(S(1), 2)], [[S(0), S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.extra["target"]["inner"] == {"family": "W", "eta": S(-1).to_json()}
    assert not report.extra["mu_is_zero"]


def test_restriction_double_root_nonwhittaker_edge():
    # mu == 0 entirely: still a valid identification, explicitly flagged
    mu = mud([(S(1), 2)], [[]])
    report = suite_restriction(mu, 5)
    assert report.all_ok, report.flags
    assert report.extra["mu_is_zero"] is True
    assert report.extra["target_note"].startswith("non-Whittaker")


def test_restriction_distinct_roots():
    mu = mud([(S(1), 1), (S(2), 1)], [[S(1)], []])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.extra["target"]["inner"] == {"family": "X", "xi": S(-2).to_json()}


def test_restriction_cubic_freeness():
    mu = mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.extra["independent_images"] == 56


def test_tensor_suite():
    report = suite_tensor_vermas(1, 2, 3, 1, 5)
    assert report.all_ok, report.flags
    assert report.extra["target"]["inner"] == {"family": "X", "xi": S(2).to_json()}
    report = suite_tensor_vermas(1, 2, 1, 1, 4)
    assert report.all_ok
    assert report.extra["target"]["inner"]["xi"] == S(0).to_json()
    with pytest.raises(InvalidParameter):
        suite_tensor_vermas(1, 1, 3, 1, 5)
    with pytest.raises(InvalidParameter):
        suite_tensor_vermas(0, 1, 3, 1, 5)


@pytest.mark.parametrize("lam1, lam2, mu1, mu2", [
    (S("1/2+1*i"), S("-2+1/3*i"), S("3-1*i"), S("1/5*i")),
    (S("1*i"), S("-1*i"), S("2+1*i"), S("-1/3+2*i")),
])
def test_tensor_map_matches_the_twisted_source_route(lam1, lam2, mu1, mu2):
    # the suite checks X(mu1 - mu2) into the tensor T twisted by aut12; the
    # reference route maps X twisted by aut12^-1 into T, its words spelt in
    # aut12's images of the letters and its relation carried through aut12
    # extended to U(sl2): the same images, word by word
    aut12 = Automorphism.gamma2(lam1, lam2)
    tensor = TensorModule(TwistModule(VermaModule(mu1), Automorphism.gamma(lam1).inverse()),
                          TwistModule(VermaModule(mu2), Automorphism.gamma(lam2).inverse()))
    gen = tensor.generator()
    src, dst = XModule(mu1 - mu2), TwistModule(tensor, aut12)
    words = src.basis_words(4)
    images = _word_images(lambda l, v: dst.act(LETTERS[l], v), words, dst.generator())
    for (key, word), (_, image) in zip(words, images):
        want = act_word(tensor, tuple(aut12.apply(LETTERS[l]) for l in word), gen)
        assert image.row == want.row, key
    ((u, xi),) = src.generator_relations()
    assert xi == mu1 - mu2
    assert (act_uenv(dst, u, dst.generator()).row
            == act_uenv(tensor, aut_extend(aut12, u), gen).row == gen.scale(xi).row)
    assert suite_tensor_vermas(lam1, lam2, mu1, mu2, 4).all_ok


def test_a_twist_is_no_map_source():
    # a map out of a twist is checked as the map into the opposite twist
    twist = TwistModule(XModule(S(1)), Automorphism.gamma(S(2)))
    with pytest.raises(NotImplementedError, match="Twist has no generator relations"):
        check_module_map(twist, twist, twist.generator(), 2)


def test_twist_induction_examples():
    sub = classify_subalgebra_1d(SL2Elt(1, -3, -9))
    report = suite_twist_induction(sub, 5, 6)
    assert report.all_ok, report.flags
    assert report.extra["target"]["inner"] == {"family": "W", "eta": S(5).to_json()}

    sub = classify_subalgebra_1d(SL2Elt(0, 0, 1))
    report = suite_twist_induction(sub, 2, 6)
    assert report.all_ok
    assert report.extra["target"]["inner"] == {"family": "W", "eta": S(2).to_json()}
    assert report.params["aut"] == "sigma"

    sub = classify_subalgebra_1d(SL2Elt(1, -3, -5))
    report = suite_twist_induction(sub, 1, 6)
    assert report.all_ok
    assert report.extra["target"]["inner"] == {"family": "X", "xi": S(1).to_json()}

    sub = classify_subalgebra_1d(SL2Elt(0, 1, -2))  # h - 2f = gamma(-1)(h)
    report = suite_twist_induction(sub, S("1/2"), 6)
    assert report.all_ok
    assert report.extra["target"]["inner"] == {"family": "X", "xi": S("1/2").to_json()}


def test_twist_induction_whittaker_zero_flag():
    sub = classify_subalgebra_1d(SL2Elt(1, 0, 0))
    report = suite_twist_induction(sub, 0, 5)
    assert report.all_ok
    assert report.extra["target_note"].startswith("non-Whittaker")


def test_report_scan_stops_at_the_first_failure():
    evaluated = []

    def fails(i):
        evaluated.append(i)
        return i in (3, 5)

    report = Report("t", {})
    report.scan("flag", ({"kind": "bad", "i": i} for i in range(10) if fails(i)))
    assert report.flags == {"flag": False}
    assert report.witness == {"kind": "bad", "i": 3}
    assert evaluated == [0, 1, 2, 3]


def test_report_scan_records_true_with_no_witness():
    report = Report("t", {})
    report.scan("flag", ({"kind": "bad"} for i in range(10) if i < 0))
    assert report.flags == {"flag": True}
    assert report.witness is None and "witness" not in report.to_json()


def test_report_scan_keeps_an_earlier_witness():
    report = Report("t", {})
    report.record("first", False, {"kind": "first"})
    report.scan("second", iter([{"kind": "second"}]))
    report.scan("third", iter([]))
    assert report.flags == {"first": False, "second": False, "third": True}
    assert report.witness == {"kind": "first"}


def test_report_shapes():
    report = suite_dense(0, 9, 6)
    data = report.to_json()
    assert data["schema"] == "report/1"
    assert data["suite"] == "dense"
    assert "elapsed_ms" not in data
    assert report.to_json(elapsed_ms=12)["elapsed_ms"] == 12
    assert (report.extra.get("j0") is not None) == (report.extra["branch"] == "composition_series")


def _per_word_images(act, words, vec):
    """The route shared images replace: every word applied from vec."""
    out = []
    for key, word in words:
        cur = vec
        for x in reversed(word):
            cur = act(x, cur)
        out.append((key, cur))
    return out


def _negative_control(case):
    if case == "relation":
        # the twist-induction target with its parameter moved by one
        sub = classify_subalgebra_1d(SL2Elt(1, -3, -5))
        src = InducedModule([(sub.generator, S("2+1*i"))], 6)
        dst = TwistModule(XModule(S("3+1*i")), sub.aut.inverse())
        return src, dst, dst.generator()
    # X(xi) onto its Casimir quotient: the images become dependent
    xbar = XbarModule(S("1/2"), S(9))
    return XModule(S("1/2")), xbar, xbar.generator()


def _full_route_only(monkeypatch):
    """Turn the graded certificate off, so that check_module_map decides
    every map by the full route; returns the list of full-route calls."""
    calls = []
    eliminate = verify_mod._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(verify_mod, "_graded_certificate", lambda *args: False)
    monkeypatch.setattr(verify_mod, "_eliminate", counted)
    return calls


@pytest.mark.parametrize("case", ["relation", "dependent_image"])
def test_shared_word_images_match_per_word_route(case, monkeypatch):
    # the shared images of the full route (the graded certificate would
    # settle the relation case without it)
    calls = _full_route_only(monkeypatch)
    src, dst, gen = _negative_control(case)
    words = src.basis_words(6)
    assert list(_word_images(lambda l, v: dst.act(LETTERS[l], v), words, gen)) == \
        [(key, act_word(dst, tuple(LETTERS[l] for l in word), gen)) for key, word in words]
    shared = check_module_map(src, dst, gen, 6)
    assert not shared.all_ok and shared.witness["kind"] == case
    monkeypatch.setattr(verify_mod, "_word_images", _per_word_images)
    per_word = check_module_map(src, dst, gen, 6)
    assert shared.to_json() == per_word.to_json()
    assert shared.witness == per_word.witness
    assert len(calls) == 2


@pytest.mark.parametrize("module", [
    WModule(S(2)), XbarModule(S("1/2"), S(9)),
    InducedModule([(classify_subalgebra_1d(SL2Elt(1, -3, -5)).generator, S(2))], 6),
], ids=lambda m: m.family)
@pytest.mark.parametrize("fresh", [False, True], ids=["words", "fresh_tuples"])
def test_word_images_act_once_per_distinct_suffix(module, fresh):
    # suffixes are keyed by their letters, not by the word objects: a copy
    # of every word shares its suffixes all the same
    words = module.basis_words(6)
    if fresh:
        words = [(key, tuple(list(word))) for key, word in words]
    calls = []

    def act(letter, image):
        calls.append(letter)
        return (letter,) + image  # the image of a word is the word itself

    assert list(_word_images(act, words, ())) == words
    suffixes = {word[j:] for _, word in words for j in range(len(word))}
    assert len(calls) == len(suffixes)


# -- the graded certificate ------------------------------------------------------

_fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_non_real = st.builds(Scalar, _fracs, _fracs.filter(bool))


_SHIFT_FAMILIES = {"twisted_W": WModule, "twisted_X": XModule, "twisted_Verma": VermaModule,
                   "twisted_LowVerma": LowVermaModule}


def _map_case(case, a, b, c):
    """The JSON of one suite or map check on non-real data a, b, c."""
    depth = 5
    if case == "deg1":
        return suite_restriction(mud([(a, 1)], [[b]]), depth).to_json()
    if case == "double":
        return suite_restriction(mud([(a, 2)], [[b, c]]), depth).to_json()
    if case == "split":
        return suite_restriction(mud([(a, 1), (b, 1)], [[c], []]), depth).to_json()
    if case == "n_lambda":
        sub = classify_subalgebra_1d(SL2Elt(1, -a, -a * a))
        return suite_twist_induction(sub, b, depth).to_json()
    if case == "h_pair":
        sub = classify_subalgebra_1d(SL2Elt(1, -(a + b) / 2, -a * b))
        return suite_twist_induction(sub, c, depth).to_json()
    if case == "tensor":
        return suite_tensor_vermas(a, b, c, c + 1, 4).to_json()
    if case == "cubic":
        # its own target, acted on through the Virasoro path
        return suite_restriction(mud([(a, 1), (b, 1), (a + b, 1)], [[c], [c], []]),
                                 depth).to_json()
    if case == "dense_series":
        # root at j0 = 1: the quotient map takes the full route
        return suite_dense(a, (a + 3) ** 2, 6).to_json()
    if case == "relation":
        sub = classify_subalgebra_1d(SL2Elt(1, -(a + b) / 2, -a * b))
        src = InducedModule([(sub.generator, c)], depth)
        dst = TwistModule(XModule(c + 1), sub.aut.inverse())
        return check_module_map(src, dst, dst.generator(), depth).to_json()
    if case in _SHIFT_FAMILIES:
        # a twist that mixes the letters, into each family of the shift
        # route; the relations need not hold, the tops are walked all the same
        inner = _SHIFT_FAMILIES[case](a)
        src = (VermaModule if inner.family.endswith("Verma") else XModule)(c)
        dst = TwistModule(inner, Automorphism.gamma2(b, c))
        return check_module_map(src, dst, dst.generator(), depth, window_span=False).to_json()
    if case == "dependent_image":
        xbar = XbarModule(a, b)
        return check_module_map(XModule(a), xbar, xbar.generator(), depth).to_json()
    # not_spanned: relations fail, the images are independent but do not span
    x = XModule(a)
    return check_module_map(VermaModule(a), x, x.generator(), depth).to_json()


def _cut_top_action(module, x) -> list:
    """Like ``top_action``, but each op's top on a key is cut from its full
    row (``_top_part``), never read from ``_top`` or a slot table."""
    return [c + (lambda key, op=op: module._top_part(key, module._row(op, key)),)
            for c, op in module._ops(x)]


def _exact_tops(dst, letters, words, gen_image):
    """(key, top row) of each word's image, in order, walked exactly over
    Q(i) from the top of gen_image, with every letter's top cut from its
    full rows."""
    key_depth = dst.key_depth
    s = max(map(key_depth, row_keys(gen_image.row)))
    tops = cache(lambda l: _cut_top_action(dst, letters[l]))
    top = restrict(gen_image.row, lambda k: key_depth(k) == s)
    return _word_images(lambda x, row: lincomb(expand(row, tops(x))), words, top)


def _exact_certificate(dst, letters, words, gen_image, depth, window_span):
    """Reference for the graded certificate: the same walk of the tops,
    exact over Q(i), each length's block in an :class:`Echelon`."""
    key_depth = dst.key_depth
    keys = row_keys(gen_image.row)
    if not keys:
        return False
    if window_span and max(map(key_depth, keys)):
        return False
    blocks = defaultdict(lambda: Echelon(dst.key_sort_token))
    try:
        for (_, word), (_, row) in zip(words, _exact_tops(dst, letters, words, gen_image)):
            if not blocks[len(word)].insert(row):
                return False
    except KeyAboveTop:
        return False
    return not window_span or (Counter(map(key_depth, dst.basis_keys(depth)))
                               == Counter({d: block.rank for d, block in blocks.items()}))


def _checked_certificate(monkeypatch):
    """Run the exact reference beside every graded certificate; returns the
    (mod P, exact) verdict pairs."""
    verdicts = []
    certificate = verify_mod._graded_certificate

    def both(*args):
        verdicts.append((certificate(*args), _exact_certificate(*args)))
        return verdicts[-1][0]

    monkeypatch.setattr(verify_mod, "_graded_certificate", both)
    return verdicts


_CASES = ["deg1", "double", "split", "n_lambda", "h_pair", "tensor", "cubic", "dense_series",
          "relation", "dependent_image", "not_spanned"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_CASES), _non_real, _non_real, _non_real)
def test_graded_certificate_keeps_every_report(case, a, b, c):
    assume(a != b and (case != "cubic" or a + b != 0))
    with pytest.MonkeyPatch.context() as mp:
        verdicts = _checked_certificate(mp)
        certified = _map_case(case, a, b, c)
    with pytest.MonkeyPatch.context() as mp:
        calls = _full_route_only(mp)
        full = _map_case(case, a, b, c)
    assert certified == full
    assert calls
    if case in ("relation", "dependent_image"):
        assert full["witness"]["kind"] == case
    # the certificate mod P holds only where the exact reference does
    assert verdicts and all(exact or not mod_p for mod_p, exact in verdicts)


def _slots(row, w):
    """The slots of a packed row, lowest first."""
    out = []
    while row:
        out.append(row & (1 << w) - 1)
        row >>= w
    return out


def _twisted_induced_map(src_family, a, b, c):
    # a twist of an induced module: its tops have large residues, and so
    # have the coefficients of its letters, so their products fill the slots
    sub = classify_subalgebra_1d(SL2Elt(1, -a, -a * a))
    dst = TwistModule(InducedModule([(sub.generator, c)], 7), Automorphism.gamma2(b, c))
    return check_module_map(src_family(c), dst, dst.generator(), 6, window_span=False)


# a prime p = 1 mod 4 of 64 bits and a root of -1 mod p: a product of three
# residues has 3 * 64 bits, more than the 2 * 64 + 32 of a slot
_P64 = (2 ** 64 - 59, 2296021864060584341)


# the cases whose targets are W, X, Verma or LowVerma, or twists of them:
# their certificate takes the shift route, the others the generic walk
_SHIFT_CASES = {"deg1", "double", "split", "n_lambda", "h_pair", "relation", "not_spanned",
                *_SHIFT_FAMILIES}


@pytest.mark.parametrize("modulus", [MODULUS, _P64])
@pytest.mark.parametrize("case", _CASES + [WModule, XModule] + list(_SHIFT_FAMILIES))
def test_certificate_rows_are_the_residues_of_the_exact_tops(case, modulus, monkeypatch):
    # each packed row the certificate inserts holds, slot by slot mod p,
    # the residues of the exact top row of its word, cut from full rows; a
    # multiplicand not reduced to [0, p) would make slots carry into their
    # neighbours.  On the shift route each key has a fixed slot, so the
    # rows are compared slot by slot, and a wrong slot shift fails here.
    # The generic walk keeps its own cases: tensor products, Xbar and its
    # quotient, twisted induced modules, and the degree-3 restriction
    # (cubic), a VirPoly module mapped to itself with lift embed_sl2
    p, i = modulus
    assert i * i % p == p - 1
    monkeypatch.setattr(verify_mod, "MODULUS", modulus)
    w = slot_width(p)
    certificate = verify_mod._graded_certificate
    runs = []

    def recorded(*args):
        rows = []

        class Recording(BlockModP):
            def insert(self, row):
                rows.append(row)
                return super().insert(row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, "BlockModP", Recording)
            verdict = certificate(*args)
        runs.append((args, rows))
        return verdict

    monkeypatch.setattr(verify_mod, "_graded_certificate", recorded)
    run = partial(_map_case if isinstance(case, str) else _twisted_induced_map, case)
    run(S("1/2+1*i"), S("-2+1/3*i"), S("3-1*i"))
    assert any(rows for _, rows in runs)
    for (dst, letters, words, gen_image, _, _), rows in runs:
        shift_route = dst._TOP_SLOTS is not None
        assert shift_route == (case in _SHIFT_CASES)
        for row, (_, exact) in zip(rows, _exact_tops(dst, letters, words, gen_image)):
            want = residues(exact, p, i)
            if shift_route:
                assert ({j: v % p for j, v in enumerate(_slots(row, w)) if v % p}
                        == {dst._slot(k): v for k, v in want.items()})
            else:
                assert sorted(v % p for v in _slots(row, w) if v % p) == sorted(want.values())


_fracs5 = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 5]))
_non_real5 = st.builds(Scalar, _fracs5, _fracs5.filter(bool))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_CASES), _non_real5, _non_real5, _non_real5)
def test_small_modulus_keeps_every_report(case, a, b, c):
    # mod 5, with parameters over 5, blocks are often singular and
    # denominators often vanish: the map falls back to the full route, and
    # the report stays that of the full route
    assume(a != b and (case != "cubic" or a + b != 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_mod, "MODULUS", (5, 2))
        verdicts = _checked_certificate(mp)
        small = _map_case(case, a, b, c)
    with pytest.MonkeyPatch.context() as mp:
        _full_route_only(mp)
        full = _map_case(case, a, b, c)
    assert small == full
    assert all(exact or not mod_p for mod_p, exact in verdicts)


def test_small_modulus_falls_back_on_certified_maps(monkeypatch):
    # maps the exact certificate settles but the one mod 5 refuses: with
    # lambda = 5 a block is singular mod 5, and the roots 1 and 6 put 5 in a
    # denominator; the full route settles them alike
    mus = [mud([(S(5), 1)], [[S(2)]]), mud([(S(1), 1), (S(6), 1)], [[S(1)], [S(2)]])]
    expected = [suite_restriction(mu, 6).to_json() for mu in mus]
    monkeypatch.setattr(verify_mod, "MODULUS", (5, 2))
    verdicts = _checked_certificate(monkeypatch)
    assert [suite_restriction(mu, 6).to_json() for mu in mus] == expected
    assert verdicts == [(False, True), (False, True)]
    assert all(report["flags"] and all(report["flags"].values()) for report in expected)


def _nonzero_slots(row, mask) -> int:
    count = 0
    while row:
        row >>= mask.bit_length() * low_slot(row, mask)
        count += 1
        row >>= mask.bit_length()
    return count


@pytest.mark.parametrize("depth", [20, 30])
def test_certificate_slot_visits_track_nonzero_slots(depth, monkeypatch):
    # the degree-3 restriction of c12: every top is one nonzero slot in a
    # block up to (depth + 1)(depth + 2)/2 slots wide.  The walk and
    # BlockModP.insert visit a slot only through low_slot, so its calls
    # count the slot visits; a walk of every slot, or an insert that loops
    # over every stored row, costs the block's width per row instead
    visits, rows, nonzero = [0], [0], [0]

    def counted(row, mask):
        visits[0] += 1
        return low_slot(row, mask)

    class Counting(BlockModP):
        def insert(self, row):
            rows[0] += 1
            nonzero[0] += _nonzero_slots(row, (1 << self.w) - 1)
            return super().insert(row)

    monkeypatch.setattr(verify_mod, "BlockModP", Counting)
    monkeypatch.setattr(verify_mod, "low_slot", counted)
    monkeypatch.setattr(linalg_mod, "low_slot", counted)
    report = suite_restriction(mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]]),
                               depth)
    assert report.all_ok and report.extra["target"]["family"] == "free"
    assert rows[0] == nonzero[0] > depth ** 3 / 6
    assert rows[0] <= visits[0] <= 3 * nonzero[0]


@pytest.mark.parametrize("depth", [20, 30])
def test_certificate_holds_one_block_and_two_lengths_of_tops(depth, monkeypatch):
    # the degree-3 restriction of c12 again.  A length's tops are read only
    # by the next length, and a finished block only for its rank: at every
    # insert one block is live, and with the target's row memo warm, the
    # certificate's peak memory is within twice the rows inserted at the two
    # longest lengths.  A block kept per length fails the first bound, and
    # the tops of every length (about 3x at d20 and 4x at d30) the second
    live, sizes, runs = weakref.WeakSet(), Counter(), []
    lengths = count()

    class Tracked(BlockModP):
        def __init__(self, p):
            super().__init__(p)
            self.length = next(lengths)  # blocks open in the order of word length
            live.add(self)

        def insert(self, row):
            assert len(live) == 1
            sizes[self.length] += sys.getsizeof(row)
            return super().insert(row)

    certificate = verify_mod._graded_certificate

    def recorded(*args):
        runs.append(args)
        return certificate(*args)

    monkeypatch.setattr(verify_mod, "BlockModP", Tracked)
    monkeypatch.setattr(verify_mod, "_graded_certificate", recorded)
    report = suite_restriction(mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]]),
                               depth)
    assert report.all_ok and len(runs) == 1 and len(sizes) == depth
    monkeypatch.setattr(verify_mod, "BlockModP", BlockModP)
    tracemalloc.start()
    try:
        assert certificate(*runs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (sizes[depth - 1] + sizes[depth - 2])


def _contract_handles(a, b, c):
    """One handle of every family, with non-real parameters; the induced
    ones are built one degree deeper than the window read from them."""
    return [
        WModule(a), XModule(a), XbarModule(a, b), XbarQuotientModule(a, (a + 3) ** 2, 1),
        DenseModule(a, b), VermaModule(a), LowVermaModule(a),
        TwistModule(XModule(a), Automorphism.gamma2(b, b + 1).inverse()),
        TwistModule(WModule(a), Automorphism.gamma(b).inverse()),
        TensorModule(TwistModule(VermaModule(a), Automorphism.gamma(b).inverse()),
                     LowVermaModule(c)),
        InducedModule([(SL2Elt(1, -(a + b) / 2, -a * b), c)], 6),
        VirPolyModule(mud([(a, 2)], [[b, c]]), 6),
        VirPolyModule(mud([(a, 1), (b, 1), (a + b, 1)], [[c], [c], []]), 6),
        TensorModule(VirPolyModule(mud([(a, 1)], [[c]]), 6),
                     VirPolyModule(mud([(b, 1)], [[a]]), 6)),
    ]


@settings(max_examples=10, deadline=None)
@given(_non_real, _non_real, _non_real)
def test_letters_raise_key_depth_by_at_most_one(a, b, c):
    # the contract of Module.key_depth that the graded certificate rests on
    assume(a != b and a + b != 0 and a + b != a and a + b != b)
    # and basis_keys(n) lists every key of depth <= n that the letters reach
    for module in _contract_handles(a, b, c):
        window = module.basis_keys(5)
        listed = set(window)
        for key in window:
            bound = module.key_depth(key) + 1
            for letter in (E, H, F):
                img = module.act(letter, module.basis_vec(key))
                assert all(module.key_depth(k) <= bound for k in img.terms), \
                    (module.family, key, letter)
                assert all(k in listed for k in img.terms if module.key_depth(k) <= 5), \
                    (module.family, key, letter)
        # a map source's words: a word's length is its key's depth, and its
        # suffix is a listed word, which the certificate's flat loop reads
        try:
            words = dict(module.basis_words(5))
        except NotImplementedError:
            continue
        assert all(len(word) == module.key_depth(key) for key, word in words.items())
        assert {word[1:] for word in words.values() if word} <= set(words.values())


@settings(max_examples=10, deadline=None)
@given(_non_real, _non_real, _non_real, st.integers(-3, 3))
def test_top_rows_are_the_top_of_the_full_rows(a, b, c, n):
    # each letter's top row (and e_n's on the Virasoro modules) is the part
    # of the full row at depth key_depth + 1, on every family
    assume(a != b and a + b != 0 and a + b != a and a + b != b)
    for module in _contract_handles(a, b, c):
        elts = [E, H, F] + ([VirElt.e(n)] if module.accepts_vir else [])
        for key in module.basis_keys(5):
            target = module.key_depth(key) + 1
            for x in elts:
                full = module.act(x, module.basis_vec(key)).row
                top = lincomb(expand(unit_row(key), top_action(module, x)))
                assert top == restrict(full, lambda k: module.key_depth(k) == target), \
                    (module.family, key, x)


def _letter_row_twist_act(twist, x, vec):
    """Reference route of a twist's action: the row of each letter on a key
    is the inner action of the twisted letter, and x acts through the rows
    of its e, h and f parts."""
    def letter_rows(letter):
        action = twist.inner._action(twist.aut.apply(LETTERS[letter]))
        return lambda key: lincomb(expand(unit_row(key), action))

    action = [gauss(c) + (letter_rows(letter),)
              for letter, c in (("e", x.ce), ("h", x.ch), ("f", x.cf)) if not c.is_zero()]
    return ModVec._of_row(twist, lincomb(expand(vec.row, action)))


@settings(max_examples=15, deadline=None)
@given(_non_real, _non_real, _non_real, _non_real, _non_real,
       st.lists(_non_real, min_size=1, max_size=6))
def test_twist_acts_through_its_inner_module(a, b, ce, ch, cf, coeffs):
    assume(a != b)
    x = SL2Elt(ce, ch, cf)
    for twist in (TwistModule(XModule(a), Automorphism.gamma2(b, b + 1).inverse()),
                  TwistModule(WModule(a), Automorphism.gamma(b).inverse()),
                  TwistModule(VermaModule(a), Automorphism.sigma()),
                  TwistModule(XbarModule(a, b), Automorphism.gamma(a))):
        keys = twist.basis_keys(4)
        vec = twist.vector({keys[(7 * i) % len(keys)]: c for i, c in enumerate(coeffs)})
        for y in (x, E, H, F):
            assert twist.act(y, vec) == _letter_row_twist_act(twist, y, vec)
        # the rows and tops it read are its inner module's
        assert "_rows" not in twist.__dict__


def test_certified_twisted_targets_build_no_deep_full_rows(monkeypatch):
    # a work guard that does not depend on the host.  Full rows of W, X and
    # Verma are built only for the relations on the generator.  Their
    # certificate takes the shift route, which reads no top row and builds
    # no row, and every check certifies: the generic walk, or the full
    # route, raises here
    depths = []
    for cls in (WModule, XModule, VermaModule):
        build = cls._build_row

        def counted(self, letter, key, build=build):
            depths.append(self.key_depth(key))
            return build(self, letter, key)
        monkeypatch.setattr(cls, "_build_row", counted)

    def refuse(*args):
        raise AssertionError("the shift route was not taken")

    certificate = verify_mod._graded_certificate

    def guarded(dst, *args):
        with pytest.MonkeyPatch.context() as mp:
            for cls in (WModule, XModule, VermaModule):
                mp.setattr(cls, "_top", refuse)
                mp.setattr(cls, "_build_row", refuse)
            mp.setattr(dst, "_top", refuse)  # a twist holds its inner module's bound _top
            return certificate(dst, *args)

    monkeypatch.setattr(verify_mod, "_graded_certificate", guarded)
    monkeypatch.setattr(verify_mod, "_eliminate", refuse)
    for mu in (mud([(S(2), 1)], [[S(3)]]), mud([(S(2), 2)], [[S(1), S(-1)]]),
               mud([(S(2), 1), (S(-2), 1)], [[S(1)], [S(2)]])):
        assert suite_restriction(mu, 10).all_ok
    for elt, kind in ((SL2Elt(1, -3, -9), "n_lambda"), (SL2Elt(0, 0, 1), "n_minus"),
                      (SL2Elt(0, 1, 4), "h_lambda"), (SL2Elt(1, -3, -5), "h_pair")):
        sub = classify_subalgebra_1d(elt)
        assert sub.kind == kind
        assert suite_twist_induction(sub, S(5), 10).all_ok
    assert depths and max(depths) <= 1


def test_top_rows_check_the_filtered_normal_forms(monkeypatch):
    # a row with a key above depth k + 1 breaks the contract: the top row
    # cut from it refuses it, and the full route decides.  A dense module
    # cuts its tops from its rows; on the walk down from the generator by f,
    # the added key w - 4 is two depths past w
    build = DenseModule._build_row

    def raised(self, letter, key):
        row = build(self, letter, key)
        return lincomb([(1, 0, 1, row), (1, 0, 1, unit_row(key - 4))]) if letter == "f" else row
    monkeypatch.setattr(DenseModule, "_build_row", raised)
    src, dst = VermaModule(S(1)), DenseModule(S(1), S(3))
    gen = dst.generator()
    assert not verify_mod._graded_certificate(dst, LETTERS, src.basis_words(2), gen, 2,
                                              False)
    got = check_module_map(src, dst, gen, 2).to_json()
    monkeypatch.setattr(verify_mod, "_graded_certificate", lambda *args: False)
    assert got == check_module_map(src, dst, gen, 2).to_json()


def test_positive_checks_never_reach_the_full_route(monkeypatch):
    # the predicted identifications are settled by the graded certificate;
    # if it stopped applying they would only get slower, so fail loudly
    def refuse(*args):
        raise AssertionError("the full route ran")

    monkeypatch.setattr(verify_mod, "_eliminate", refuse)
    for mu in (mud([(S("1*i"), 1)], [[S(2)]]), mud([(S(2), 2)], [[S(1), S(-1)]]),
               mud([(S(2), 1), (S(-2), 1)], [[S(1)], [S(2)]])):
        report = suite_restriction(mu, 10)
        assert report.all_ok, report.flags
    cubic = suite_restriction(mud([(S(1), 1), (S(2), 1), (S(3), 1)],
                                  [[S(1)], [S(1)], [S(1)]]), 10)
    assert cubic.all_ok, cubic.flags
    assert cubic.extra["independent_images"] == 220
    for elt, kind in ((SL2Elt(1, -3, -9), "n_lambda"), (SL2Elt(1, -3, -5), "h_pair")):
        sub = classify_subalgebra_1d(elt)
        assert sub.kind == kind
        report = suite_twist_induction(sub, S(5), 10)
        assert report.all_ok, report.flags


class _SteepVerma(VermaModule):
    """A Verma module whose key_depth counts f twice, so that f raises it
    by two: outside the contract of Module.key_depth."""

    def key_depth(self, key):
        return 2 * key


def test_graded_certificate_refuses_keys_above_the_expected_depth():
    # f sends the generator m @ m' to f m @ m' (depth 1, the expected top)
    # and m @ f m' (depth 2): the certificate must not drop the deeper part
    dst = TensorModule(VermaModule(S(1)), _SteepVerma(S(2)))
    src = VermaModule(S(3))
    gen = dst.generator()
    assert not verify_mod._graded_certificate(dst, LETTERS, src.basis_words(3), gen, 3,
                                              False)
    report = check_module_map(src, dst, gen, 3)
    assert report.flags["relations_hold"] and report.flags["injective_up_to_N"]


# -- witnesses of the comparison flags -------------------------------------------
# Each test breaks one computation with monkeypatch, so that exactly the
# flag under test is the first check to fail and supplies the witness.

@pytest.mark.parametrize("mu, expected, found", [
    (mud([(S(2), 1)], [[S(1)]]), S(1), S(2)),
    (mud([(S(2), 2)], [[S(1), S(-1)]]), S(1), S(2)),
    (mud([(S(2), 1), (S(-2), 1)], [[S(1)], [S(2)]]), S("1/4"), S("3/4")),
])
def test_parameter_formula_witness(mu, expected, found, monkeypatch):
    mu_eval = verify_mod.mu_eval
    monkeypatch.setattr(verify_mod, "mu_eval", lambda m, x: mu_eval(m, x) + 1)
    report = suite_restriction(mu, 4)
    assert report.flags["parameter_formula_consistent"] is False
    assert report.witness == {"kind": "parameter_formula_consistent",
                              "expected": expected.to_json(), "found": found.to_json()}


def test_casimir_scalar_witness(monkeypatch):
    casimir = verify_mod.casimir_action
    monkeypatch.setattr(verify_mod, "casimir_action", lambda m, v: casimir(m, v).scale(2))
    report = suite_restriction(mud([(S(2), 1)], [[S(1)]]), 4)
    # delta = 1, so the Casimir scalar is (delta + 1)^2 = 4
    assert report.flags["parameter_formula_consistent"] is True
    assert report.flags["casimir_scalar_matches"] is False
    assert report.witness == {"kind": "casimir_scalar_matches",
                              "expected": [[[0, 0, 0], S(4).to_json()]],
                              "found": [[[0, 0, 0], S(8).to_json()]]}


def test_twisted_eigenvector_witness(monkeypatch):
    class Doubled(TensorModule):
        def act(self, x, v):
            return super().act(x, v).scale(2)

    monkeypatch.setattr(verify_mod, "TensorModule", Doubled)
    report = suite_tensor_vermas(1, 2, 1, 2, 3)
    assert report.flags["generator_is_twisted_eigenvector"] is False
    assert report.witness == {"kind": "generator_is_twisted_eigenvector",
                              "expected": [[[0, 0], S(-1).to_json()]],
                              "found": [[[0, 0], S(-2).to_json()]]}


def test_f_kills_submodule_generator_witness(monkeypatch):
    fe = modules_mod._fe  # fe on a weight vector of Xbar, as (re, im, den): add 1

    def shifted(tau, n, m, d):
        re, im, den = fe(tau, n, m, d)
        return (re + den, im, den)
    monkeypatch.setattr(modules_mod, "_fe", shifted)
    report = suite_dense(0, 9, 6)
    assert report.extra["j0"] == 1 and report.flags["f_kills_submodule_generator"] is False
    assert report.witness == {"kind": "f_kills_submodule_generator", "expected": [],
                              "found": [[["e", 1], S(1).to_json()]]}


def test_window_ranks_witness(monkeypatch):
    weight = LowVermaModule.key_weight
    monkeypatch.setattr(LowVermaModule, "key_weight", lambda self, k: weight(self, k) + 2)
    report = suite_dense(0, 9, 6)
    assert [f for f, ok in report.flags.items() if not ok] == ["window_ranks_match"]
    # the submodule's lowest weight moved from xi + 2(j0 + 1) to xi + 2(j0 + 2)
    assert report.witness == {"kind": "window_ranks_match", "s": 2,
                              "expected": {"quotient": 0, "sub": 1},
                              "found": {"quotient": 0, "sub": 0}}


def test_shift_dependent_witness_comes_before_the_filtration(monkeypatch):
    # the shift sends the window's last two keys where it sends the first:
    # no basis vector is killed, the first dependent key is the witness,
    # and the filtration, which then fails too, does not replace it
    shifter = verify_mod._casimir_shifter
    x_mod = XModule(S(0))
    keys = x_mod.basis_keys(4)
    moved = [unit_row(keys[-2]), unit_row(keys[-1])]

    def broken(x, tau):
        shift = shifter(x, tau)
        return lambda row: shift(unit_row(keys[0]) if row in moved else row)

    monkeypatch.setattr(verify_mod, "_casimir_shifter", broken)
    report = suite_dense(0, 9, 6)
    assert [f for f in ("shift_nonvanishing", "shift_injective_on_window", "filtration_strict")
            if not report.flags[f]] == ["shift_injective_on_window", "filtration_strict"]
    assert report.witness == {"kind": "shift_dependent", "key": x_mod.key_json(keys[-2])}


def test_witness_keeps_the_first_failure(monkeypatch):
    # a broken mu_eval fails the parameter formula before the map check,
    # whose own witness does not replace it
    mu_eval = verify_mod.mu_eval
    monkeypatch.setattr(verify_mod, "mu_eval", lambda m, x: mu_eval(m, x) + 1)
    report = suite_restriction(mud([(S(2), 1)], [[S(1)]]), 4)
    assert report.flags["casimir_scalar_matches"] is False
    assert report.witness["kind"] == "parameter_formula_consistent"


def test_two_failing_checks_keep_the_earlier_witness(monkeypatch):
    # each suite here has two checks broken independently: both flags read
    # False, and the earlier check's witness is the one reported
    mu_eval, casimir = verify_mod.mu_eval, verify_mod.casimir_action
    with monkeypatch.context() as m:
        m.setattr(verify_mod, "mu_eval", lambda mu, x: mu_eval(mu, x) + 1)
        m.setattr(verify_mod, "casimir_action", lambda mod, v: casimir(mod, v).scale(2))
        report = suite_restriction(mud([(S(2), 1)], [[S(1)]]), 4)
    assert report.flags["parameter_formula_consistent"] is False
    assert report.flags["casimir_scalar_matches"] is False
    assert report.witness == {"kind": "parameter_formula_consistent",
                              "expected": S(1).to_json(), "found": S(2).to_json()}

    class Doubled(TensorModule):
        def act(self, x, v):
            return super().act(x, v).scale(2)

    act_uenv = verify_mod.act_uenv
    monkeypatch.setattr(verify_mod, "TensorModule", Doubled)
    monkeypatch.setattr(verify_mod, "act_uenv", lambda mod, u, v: act_uenv(mod, u, v) + v)
    report = suite_tensor_vermas(1, 2, 1, 2, 3)
    assert report.flags["generator_is_twisted_eigenvector"] is False
    assert report.flags["relations_hold"] is False
    assert report.witness == {"kind": "generator_is_twisted_eigenvector",
                              "expected": [[[0, 0], S(-1).to_json()]],
                              "found": [[[0, 0], S(-2).to_json()]]}


# -- the U(sl2) action and the Casimir shift ------------------------------------


def _letterwise_act_uenv(module, u, vec):
    """The reference route of act_uenv: each PBW monomial applied letter by
    letter through Module.act, summed with ModVec sums and scales."""
    out = module.vector({})
    for mono, coeff in u.terms.items():
        cur = vec
        for letter in reversed(monomial_letters(mono)):
            cur = module.act(LETTERS[letter], cur)
        out = out + cur.scale(coeff)
    return out


# degree <= 3 on vectors of depth <= 2 stays inside the induced handles' window
_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(
    lambda m: sum(m) <= 3)


@settings(max_examples=10, deadline=None)
@given(_non_real, _non_real, _non_real, st.dictionaries(_monos, _non_real, min_size=1, max_size=6))
def test_row_level_act_uenv_matches_the_letterwise_route(a, b, c, terms):
    assume(a != b and a + b != 0 and a + b != a and a + b != b)
    # monomials that share the suffixes e and h e, next to random ones
    shared = UEnvElt({(1, 0, 1): a, (0, 0, 1): b, (2, 1, 1): c, (0, 1, 1): 1})
    elements = [casimir_elt(), shared, UEnvElt(terms)]
    for module in _contract_handles(a, b, c):
        if isinstance(module, TwistModule):
            # a twist is no map source; its inner module's relations carried
            # through aut^-1 fix its generator up to scale, so they stay inputs
            relations = [aut_extend(module.aut.inverse(), u)
                         for u, _ in module.inner.generator_relations()]
        else:
            try:
                relations = [u for u, _ in module.generator_relations()]
            except NotImplementedError:
                relations = []
        keys = module.basis_keys(2)
        vecs = [module.vector({k: c * (i + 1) + a for i, k in enumerate(keys)}),
                module.basis_vec(keys[-1])]
        for u in elements + relations:
            for vec in vecs:
                assert act_uenv(module, u, vec) == _letterwise_act_uenv(module, u, vec), \
                    (module.family, u)
    other = XModule(a + 1)
    with pytest.raises(InvalidParameter):
        act_uenv(XModule(a), casimir_elt(), other.generator())


def _check_shifter(xi, tau):
    # every key of the depth-9 window, and one vector over all of them
    x = XModule(xi)
    shift = _casimir_shifter(x, tau)
    keys = x.basis_keys(9)
    for key in keys:
        v = x.basis_vec(key)
        assert shift(unit_row(key)) == (act_uenv(x, casimir_elt(), v) - v.scale(tau)).row, key
    v = x.vector({k: xi + i for i, k in enumerate(keys)})
    assert shift(v.row) == (act_uenv(x, casimir_elt(), v) - v.scale(tau)).row


@settings(max_examples=15, deadline=None)
@given(_non_real, _non_real)
def test_casimir_shifter_matches_act_uenv(xi, tau):
    _check_shifter(xi, tau)


@pytest.mark.parametrize("xi", [S(0), S(1), S(-1), S(2), S("1/2")])
def test_casimir_shifter_matches_act_uenv_on_real_pools(xi):
    # the dense suite's real pools: tau a square (xi + 2j + 1)^2, or generic
    for tau in [(xi + 2 * j + 1) ** 2 for j in range(5)] + \
            [S(2), S(3), S(5), S(7), S("1/3"), S(-2)]:
        _check_shifter(xi, tau)


def test_casimir_shifter_makes_no_act_uenv_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("act_uenv called")

    monkeypatch.setattr(verify_mod, "act_uenv", refuse)
    monkeypatch.setattr(modules_mod, "act_uenv", refuse)
    x = XModule(S("1/2+1*i"))
    shift = _casimir_shifter(x, S(9))
    assert all(shift(unit_row(key)) for key in x.basis_keys(9))
    # the irreducible branch checks no module map, so it makes no act_uenv call
    report = suite_dense(S("1/2+1*i"), S(9), 6)
    assert report.extra["branch"] == "iso_to_Vdense" and report.all_ok


@settings(max_examples=15, deadline=None)
@given(_non_real, _non_real)
def test_dense_action_matches_xbar_act_generic_through_the_intertwiner(xi, tau):
    # an independent route to DenseModule: where v generates, the suite's
    # normalised intertwiner maps Xbar's action through X(xi) and nf_multiply
    # onto Vdense's closed form
    assume(generator_test(xi, tau).extra["generates"])
    depth = 6
    xbar, dense = XbarModule(xi, tau), DenseModule(xi, tau)
    rows = _dense_intertwiner(xbar, depth)

    def phi(vec):
        return ModVec._of_row(dense, lincomb(expand(vec.row, [(1, 0, 1, rows)])))
    for key in xbar.basis_keys(depth):
        v = xbar.basis_vec(key)
        assert not phi(v).is_zero(), key
        for g in (E, H, F):
            assert phi(xbar_act_generic(xbar, g, v)) == dense.act(g, phi(v)), (key, g)


def test_dense_intertwiner_failure_names_the_first_bad_key(monkeypatch):
    # doubling the image of e^2 xbar breaks the square at e^1 xbar (e sends
    # it to e^2), the first key in basis order that reaches e^2
    intertwiner = verify_mod._dense_intertwiner

    def broken(xbar, depth):
        rows = intertwiner(xbar, depth)
        return lambda key: lincomb([(2, 0, 1, rows(key))]) if key == ("e", 2) else rows(key)

    xi, tau = S("1/2+1*i"), S(9)
    assert suite_dense(xi, tau, 6).flags["dense_map_intertwines"]
    monkeypatch.setattr(verify_mod, "_dense_intertwiner", broken)
    report = suite_dense(xi, tau, 6)
    assert report.extra["branch"] == "iso_to_Vdense"
    assert not report.flags["dense_map_intertwines"]
    assert report.witness == {"kind": "intertwine_failure", "key": ["e", 1]}
