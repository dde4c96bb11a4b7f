import pytest

import slvir.verify as verify_mod
from slvir.errors import DepthExceeded, InvalidParameter
from slvir.induced import InducedModule, MuData
from slvir.lie import SL2Elt, classify_subalgebra_1d
from slvir.modules import (DenseModule, TwistModule, VermaModule, XbarModule, XModule,
                           act_word)
from slvir.scalar import Scalar
from slvir.verify import (
    _word_images,
    check_module_map,
    generator_test,
    report_to_text,
    simplicity_test,
    suite_dense,
    suite_restriction,
    suite_tensor_vermas,
    suite_twist_induction,
)

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
    assert report.relations_hold
    assert report.injective_up_to_N
    assert report.surjective_onto_window
    assert report.witness is None
    assert report.all_ok


def test_weight_preserving_candidate_fails_at_root():
    # X(0) -> Vdense(0, 9): relations hold but e^2 is sent to zero
    x = XModule(S(0))
    d = DenseModule(S(0), S(9))
    report = check_module_map(x, d, d.basis_vec(S(0)), 6)
    assert report.relations_hold
    assert not report.injective_up_to_N
    assert report.witness == {"kind": "dependent_image", "src_key": [0, 2]}


def test_simplicity_examples():
    assert simplicity_test(0, 1).irreducible is False
    assert simplicity_test(0, 1).witness_i == 0
    assert simplicity_test(0, 9).witness_i == 1
    assert simplicity_test(0, 2).irreducible is True
    assert simplicity_test(0, 2).witness_i is None


def test_simplicity_gaussian_parameters():
    # tau = (xi + 2i + 1)^2 manufactured in Q(i)
    xi = S("1+1*i")
    tau = (xi + 5) ** 2
    rep = simplicity_test(xi, tau)
    assert rep.irreducible is False and rep.witness_i == 2
    assert simplicity_test(S("1*i"), S(2)).irreducible is True


def test_simplicity_against_brute_force():
    xis = [S(0), S(1), S("1/2"), S(-3), S("1*i")]
    taus = [S(k) for k in range(-3, 10)] + [S("1/4"), S("2*i"), (S("1*i") + 4) ** 2]
    for xi in xis:
        for tau in taus:
            rep = simplicity_test(xi, tau)
            reducible, _ = brute_force_reducible(xi, tau)
            assert rep.irreducible == (not reducible), (xi, tau)
            assert module_reducible(xi, tau) == reducible, (xi, tau)


def test_generator_examples():
    assert generator_test(0, 9).generates is False
    assert generator_test(0, 9).witness_i == 1
    assert generator_test(4, 9).generates is True
    assert generator_test(0, 2).generates is True
    # negative-only roots do not obstruct generation
    assert simplicity_test(4, 9).irreducible is False
    assert generator_test(4, 9).generates is True


def test_dense_suite_iso_branch():
    report = suite_dense(0, 2, 6)
    assert report.branch == "iso_to_Vdense"
    assert report.j0 is None
    assert report.filtration_strict_to == 3
    assert report.all_ok, report.flags
    assert report.pieces is None


def test_dense_suite_composition_branch():
    report = suite_dense(0, 9, 6)
    assert report.branch == "composition_series"
    assert report.j0 == 1
    assert report.pieces["quotient"] == {"family": "Verma", "delta": S(2).to_json()}
    assert report.pieces["sub"] == {"family": "LowVerma", "delta": S(4).to_json()}
    assert report.all_ok, report.flags


def test_dense_suite_more_parameters():
    assert suite_dense(1, 4, 6).j0 == 0
    assert suite_dense(1, 4, 6).all_ok
    r = suite_dense(S("1*i"), S(-1), 6)  # tau = (i)^2 would need xi+2j+1 = i
    assert r.branch == "iso_to_Vdense" and r.all_ok
    r = suite_dense(S("1/2"), S("2*i"), 6)
    assert r.branch == "iso_to_Vdense" and r.all_ok


def test_dense_suite_gaussian_composition_series():
    xi = S("1*i")
    tau = (xi + 3) ** 2  # root at j = 1, the mirror root is not an integer
    r = suite_dense(xi, tau, 6)
    assert r.branch == "composition_series" and r.j0 == 1
    assert r.all_ok, r.flags
    assert Scalar.from_json(r.pieces["quotient"]["delta"]) == xi + 2


def test_dense_suite_depth_guards():
    with pytest.raises(InvalidParameter):
        suite_dense(0, 9, 4)
    with pytest.raises(DepthExceeded):
        suite_dense(0, S((2 * 8 + 1) ** 2), 6)  # j0 = 8 beyond the window


def test_restriction_degree_one():
    mu = mud([(S(1), 1)], [[S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.target["inner"] == {"family": "Verma", "delta": S(2).to_json()}
    assert report.notes["casimir_scalar"] == S(9).to_json()
    assert report.flags["parameter_formula_consistent"]
    # another sample: lambda = 2i, mu(f) = 1/2 gives delta = 1/(2i) = -i/2
    mu = mud([(S("2*i"), 1)], [[S("1/2")]])
    report = suite_restriction(mu, 6)
    assert report.all_ok
    assert report.target["inner"]["delta"] == S("-1/2*i").to_json()


def test_restriction_double_root():
    mu = mud([(S(1), 2)], [[S(0), S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.target["inner"] == {"family": "W", "eta": S(-1).to_json()}
    assert not report.notes["mu_is_zero"]


def test_restriction_double_root_nonwhittaker_edge():
    # mu == 0 entirely: still a valid identification, explicitly flagged
    mu = mud([(S(1), 2)], [[]])
    report = suite_restriction(mu, 5)
    assert report.all_ok, report.flags
    assert report.notes["mu_is_zero"] is True
    assert report.notes["target_note"].startswith("non-Whittaker")


def test_restriction_distinct_roots():
    mu = mud([(S(1), 1), (S(2), 1)], [[S(1)], []])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.target["inner"] == {"family": "X", "xi": S(-2).to_json()}


def test_restriction_cubic_freeness():
    mu = mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]])
    report = suite_restriction(mu, 6)
    assert report.all_ok, report.flags
    assert report.notes["independent_images"] == 56


def test_tensor_suite():
    report = suite_tensor_vermas(1, 2, 3, 1, 5)
    assert report.all_ok, report.flags
    assert report.target["inner"] == {"family": "X", "xi": S(2).to_json()}
    report = suite_tensor_vermas(1, 2, 1, 1, 4)
    assert report.all_ok
    assert report.target["inner"]["xi"] == S(0).to_json()
    with pytest.raises(InvalidParameter):
        suite_tensor_vermas(1, 1, 3, 1, 5)
    with pytest.raises(InvalidParameter):
        suite_tensor_vermas(0, 1, 3, 1, 5)


def test_twist_induction_examples():
    sub = classify_subalgebra_1d(SL2Elt(1, -3, -9))
    report = suite_twist_induction(sub, 5, 6)
    assert report.all_ok, report.flags
    assert report.target["inner"] == {"family": "W", "eta": S(5).to_json()}

    sub = classify_subalgebra_1d(SL2Elt(0, 0, 1))
    report = suite_twist_induction(sub, 2, 6)
    assert report.all_ok
    assert report.target["inner"] == {"family": "W", "eta": S(2).to_json()}
    assert report.params["aut"] == "sigma"

    sub = classify_subalgebra_1d(SL2Elt(1, -3, -5))
    report = suite_twist_induction(sub, 1, 6)
    assert report.all_ok
    assert report.target["inner"] == {"family": "X", "xi": S(1).to_json()}

    sub = classify_subalgebra_1d(SL2Elt(0, 1, -2))  # h - 2f = gamma(-1)(h)
    report = suite_twist_induction(sub, S("1/2"), 6)
    assert report.all_ok
    assert report.target["inner"] == {"family": "X", "xi": S("1/2").to_json()}


def test_twist_induction_whittaker_zero_flag():
    sub = classify_subalgebra_1d(SL2Elt(1, 0, 0))
    report = suite_twist_induction(sub, 0, 5)
    assert report.all_ok
    assert report.notes["target_note"].startswith("non-Whittaker")


def test_report_shapes():
    report = suite_dense(0, 9, 6)
    data = report.to_json()
    assert data["schema"] == "report/1"
    assert data["suite"] == "dense"
    assert "elapsed_ms" not in data
    assert report.to_json(elapsed_ms=12)["elapsed_ms"] == 12
    assert (report.j0 is not None) == (report.branch == "composition_series")
    text = report_to_text(report)
    assert "dense" in text and "ok" in text


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


@pytest.mark.parametrize("case", ["relation", "dependent_image"])
def test_shared_word_images_match_per_word_route(case, monkeypatch):
    src, dst, gen = _negative_control(case)
    words = src.basis_words(6)
    assert list(_word_images(dst.act, words, gen)) == \
        [(key, act_word(dst, word, gen)) for key, word in words]
    shared = check_module_map(src, dst, gen, 6)
    assert not shared.all_ok and shared.witness["kind"] == case
    monkeypatch.setattr(verify_mod, "_word_images", _per_word_images)
    per_word = check_module_map(src, dst, gen, 6)
    assert shared.to_json() == per_word.to_json()
    assert shared.witness == per_word.witness
