"""Acceptance criteria, one test per criterion.

Every check is exact (Scalar equality); each test prints a single
pass/fail line with its runtime against the stated budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from slvir.induced import MuData, VirPolyModule
from slvir.lie import (
    Automorphism,
    E,
    F,
    H,
    SL2Elt,
    VirElt,
    bracket_sl2,
    bracket_vir,
    classify_subalgebra_1d,
)
from slvir.modules import (
    DenseModule,
    LowVermaModule,
    TensorModule,
    TwistModule,
    VermaModule,
    WModule,
    XbarModule,
    XModule,
)
from slvir.pbw import aut_extend, casimir_elt
from slvir.scalar import Scalar
from slvir.verify import (
    simplicity_test,
    suite_dense,
    suite_restriction,
    suite_tensor_vermas,
    suite_twist_induction,
)

S = Scalar.of
SL2_GENS = (E, H, F)


def _criterion(num, name, budget_s, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:  # pragma: no cover - report then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if failure is None else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({elapsed:.2f}s, budget {budget_s}s)")
    if failure is not None:
        raise failure
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_c01_lie_axioms():
    def body():
        for x in SL2_GENS:
            for y in SL2_GENS:
                assert bracket_sl2(x, y) == -bracket_sl2(y, x)
                for z in SL2_GENS:
                    jac = (bracket_sl2(x, bracket_sl2(y, z))
                           + bracket_sl2(y, bracket_sl2(z, x))
                           + bracket_sl2(z, bracket_sl2(x, y)))
                    assert jac.is_zero()
        rng = range(-6, 7)
        basis = {i: VirElt.e(i) for i in rng}
        for i in rng:
            for j in rng:
                assert bracket_vir(basis[i], basis[j]) == \
                    -bracket_vir(basis[j], basis[i])
        for i in rng:
            for j in rng:
                for k in rng:
                    jac = (bracket_vir(basis[i], bracket_vir(basis[j], basis[k]))
                           + bracket_vir(basis[j], bracket_vir(basis[k], basis[i]))
                           + bracket_vir(basis[k], bracket_vir(basis[i], basis[j])))
                    assert jac.is_zero()
        z = VirElt.central()
        for i in (-6, 0, 5):
            assert bracket_vir(z, basis[i]).is_zero()

    _criterion(1, "lie-axioms", 1.0, body)


LAMBDAS = [S(1), S(-2), S("1/2"), S("-3/4"), S("2*i"), S("1+1*i"),
           S("1/3-2/5*i"), S(5), S("-7/2"), S("1*i"), S("4/9"), S("-5/6+1/2*i")]
PAIRS = [(S(1), S(2)), (S("1/2"), S("-1/3")), (S("1*i"), S(1)), (S(-1), S("2*i")),
         (S(3), S("3/2")), (S("1+1*i"), S("1-1*i")), (S(2), S(-2)),
         (S("1/4"), S("3/4")), (S(-5), S("1/5")), (S("2*i"), S("-1*i")),
         (S(7), S(1)), (S("1/2+1/2*i"), S(2))]


def test_c02_automorphism_suite():
    def body():
        cas = casimir_elt()
        auts = [Automorphism.gamma(lam) for lam in LAMBDAS]
        auts += [Automorphism.gamma2(a, b) for a, b in PAIRS]
        auts.append(Automorphism.sigma())
        for aut in auts:
            for x in SL2_GENS:
                for y in SL2_GENS:
                    assert aut.apply(bracket_sl2(x, y)) == \
                        bracket_sl2(aut.apply(x), aut.apply(y))
        for lam in LAMBDAS:
            inv = Automorphism.gamma(lam).inverse()
            assert inv == Automorphism.gamma(-lam)
            assert aut_extend(Automorphism.gamma(lam), cas) == cas
        assert aut_extend(Automorphism.sigma(), cas) == cas

    _criterion(2, "automorphisms", 1.0, body)


def _axiom_sl2(module, depth=6):
    for idx, x in enumerate(SL2_GENS):
        for y in SL2_GENS[idx + 1:]:
            br = bracket_sl2(x, y)
            for key in module.basis_keys(depth):
                v = module.basis_vec(key)
                lhs = module.act(x, module.act(y, v)) - module.act(y, module.act(x, v))
                assert lhs == module.act(br, v), (module.family, key)


def _axiom_vir(module, depth=6):
    gens = [VirElt.e(n) for n in range(-5, 6)] + [VirElt.central()]
    keys = module.basis_keys(depth)
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            br = bracket_vir(x, y)
            for key in keys:
                v = module.basis_vec(key)
                lhs = module.act(x, module.act(y, v)) - module.act(y, module.act(x, v))
                assert lhs == module.act(br, v), (module.family, key)


def test_c03_module_axiom_every_family():
    def body():
        sl2_families = [
            WModule(S(1)),
            WModule(S(0)),
            XModule(S("1/2")),
            XbarModule(S(0), S(9)),
            XbarModule(S(1), S("1/3")),
            DenseModule(S(0), S(2)),
            DenseModule(S(0), S(9)),
            VermaModule(S(2)),
            LowVermaModule(S(-3)),
            TwistModule(VermaModule(S(3)), Automorphism.gamma(S(1)).inverse()),
            TwistModule(XModule(S(1)), Automorphism.sigma()),
            TensorModule(
                TwistModule(VermaModule(S(3)), Automorphism.gamma(S(1)).inverse()),
                TwistModule(VermaModule(S(1)), Automorphism.gamma(S(2)).inverse()),
            ),
        ]
        for module in sl2_families:
            _axiom_sl2(module)
        vir_modules = [
            VirPolyModule(MuData(((S(1), 1),), ((S(1),),)), 8),
            VirPolyModule(MuData(((S(1), 2),), ((S(0), S(1)),)), 8),
            VirPolyModule(MuData(((S(1), 1), (S(2), 1)), ((S(1),), ())), 8),
            VirPolyModule(
                MuData(((S(1), 1), (S(2), 1), (S(3), 1)),
                       ((S(1),), (S(1),), (S(1),))), 8),
        ]
        for module in vir_modules:
            _axiom_sl2(module)
            _axiom_vir(module)

    _criterion(3, "module-axiom", 10.0, body)


def test_c04_dense_structure():
    def body():
        iso_cases = [(S(0), S(2)), (S("1/2"), S("1/3")), (S("1*i"), S(-1)),
                     (S(2), S(7)), (S(1), S(5))]
        series_cases = [(S(0), S(9)), (S(1), S(4)), (S(0), S(1)),
                        (S(0), S(25)), (S(-3), S(4)), (S(2), S(49))]
        for xi, tau in iso_cases:
            report = suite_dense(xi, tau, 6)
            assert report.extra["branch"] == "iso_to_Vdense" and report.all_ok, (xi, tau)
            assert report.extra["filtration_strict_to"] == 3
        for xi, tau in series_cases:
            report = suite_dense(xi, tau, 6)
            assert report.extra["branch"] == "composition_series" and report.all_ok, (xi, tau)
            assert report.extra["filtration_strict_to"] == 3
            delta_q = Scalar.from_json(report.extra["pieces"]["quotient"]["delta"])
            delta_s = Scalar.from_json(report.extra["pieces"]["sub"]["delta"])
            assert delta_q == xi + 2 * report.extra["j0"]
            assert delta_s == xi + 2 * report.extra["j0"] + 2

    _criterion(4, "dense-structure", 5.0, body)


def test_c05_degree_one_restriction():
    def body():
        samples = [(S(1), S(1)), (S(2), S("1/2")), (S(-1), S(1)),
                   (S("1/2"), S(-3)), (S("1*i"), S(1))]
        for lam, m in samples:
            mu = MuData(((lam, 1),), ((m,),))
            report = suite_restriction(mu, 6)
            assert report.all_ok, (lam, m, report.flags)
            delta = m * 2 / lam
            assert report.extra["target"]["inner"] == {"family": "Verma",
                                                       "delta": delta.to_json()}
            assert report.extra["casimir_scalar"] == ((delta + 1) ** 2).to_json()
        nine = suite_restriction(MuData(((S(1), 1),), ((S(1),),)), 6)
        assert nine.extra["casimir_scalar"] == S(9).to_json()

    _criterion(5, "restriction-degree-1", 5.0, body)


def test_c06_degree_two_restriction():
    def body():
        whittaker = [(S(1), (S(0), S(1))), (S(2), (S(1), S(0))),
                     (S(-1), (S(1), S(1))), (S("1/2"), (S(2), S(-1))),
                     (S("1*i"), (S("1/2"), S("1/3")))]
        for lam, p in whittaker:
            mu = MuData(((lam, 2),), (p,))
            report = suite_restriction(mu, 6)
            assert report.all_ok, (lam, p, report.flags)
            assert report.extra["target"]["inner"]["family"] == "W"
        split = [((S(1), S(2)), (S(1), S(0))), ((S(1), S(-1)), (S(1), S(1))),
                 ((S(2), S(3)), (S("1/2"), S(1))), ((S("1/2"), S(1)), (S(1), S(2))),
                 ((S("1*i"), S(1)), (S(1), S(1)))]
        for (l1, l2), (p1, p2) in split:
            mu = MuData(((l1, 1), (l2, 1)), ((p1,), (p2,)))
            report = suite_restriction(mu, 6)
            assert report.all_ok, (l1, l2, report.flags)
            assert report.extra["target"]["inner"]["family"] == "X"

    _criterion(6, "restriction-degree-2", 10.0, body)


def test_c07_cubic_freeness():
    def body():
        mu = MuData(((S(1), 1), (S(2), 1), (S(3), 1)),
                    ((S(1),), (S(1),), (S(1),)))
        report = suite_restriction(mu, 6)
        assert report.all_ok, report.flags
        assert report.extra["independent_images"] == 56

    _criterion(7, "cubic-freeness", 10.0, body)


def test_c08_tensor_of_twisted_vermas():
    def body():
        samples = [(S(1), S(2), S(3), S(1)), (S(1), S(2), S(1), S(1)),
                   (S(2), S(3), S("1/2"), S(1)), (S(-1), S(1), S(2), S(0)),
                   (S(1), S("1*i"), S(1), S(1))]
        for l1, l2, m1, m2 in samples:
            report = suite_tensor_vermas(l1, l2, m1, m2, 5)
            assert report.all_ok, (l1, l2, m1, m2, report.flags)
            assert report.extra["target"]["inner"] == {"family": "X",
                                                       "xi": (m1 - m2).to_json()}

    _criterion(8, "tensor-vermas", 10.0, body)


def test_c09_twist_induction_all_types():
    def body():
        cases = []
        for lam, mu0 in [(S(3), S(5)), (S("-1/2"), S(1)), (S("1+1*i"), S("1/2"))]:
            cases.append((SL2Elt(1, -lam, -(lam * lam)), mu0, "n_lambda", "W"))
        for mu0 in (S(2), S("-1/3"), S("1*i")):
            cases.append((F, mu0, "n_minus", "W"))
        for delta, mu0 in [(S(0), S(1)), (S(2), S("1/2")), (S(-3), S(4))]:
            cases.append((SL2Elt(0, 1, -delta), mu0, "h_lambda", "X"))
        for (beta, delta), mu0 in [((S(3), S(5)), S(1)), ((S(0), S(-4)), S(2)),
                                   ((S("3/2"), S(2)), S("1/3"))]:
            cases.append((SL2Elt(1, -beta, -delta), mu0, "h_pair", "X"))
        for elt, mu0, kind, family in cases:
            sub = classify_subalgebra_1d(elt)
            assert sub.kind == kind, (elt, sub.kind)
            report = suite_twist_induction(sub, mu0, 6)
            assert report.all_ok, (kind, mu0, report.flags)
            assert report.extra["target"]["inner"]["family"] == family

    _criterion(9, "twist-induction", 5.0, body)


def test_c10_simplicity_against_window_oracle():
    def body():
        def oracle_reducible(xi, tau, window=50):
            return any((tau - (xi + 2 * i + 1) ** 2).is_zero()
                       for i in range(-window, window + 1))

        xis = [S(0), S(1), S("1/2"), S(-3), S("1*i"), S("3/4"), S("2-1*i"), S(5)]
        pairs = []
        for xi in xis:
            for i in range(-5, 6):
                pairs.append((xi, (xi + 2 * i + 1) ** 2))  # boundary cases
        generic_taus = [S(2), S(3), S(5), S("1/3"), S("1*i"), S("7+2*i"),
                        S(-2), S("9/4"), S(0), S(16), S(100), S("1/4"),
                        S("-1/2"), S("5*i"), S(7)]
        for xi in xis:
            for tau in generic_taus:
                pairs.append((xi, tau))
        assert len(pairs) >= 200
        for xi, tau in pairs:
            rep = simplicity_test(xi, tau)
            assert rep.extra["irreducible"] == (not oracle_reducible(xi, tau)), (xi, tau)
            if rep.extra["witness_i"] is not None:
                assert (tau - (xi + 2 * rep.extra["witness_i"] + 1) ** 2).is_zero()

    _criterion(10, "simplicity-oracle", 2.0, body)


def test_depth_10_restriction_and_twist_induction():
    # "verified to depth N" at N = 10 for restriction and twist induction
    def body():
        lam, m = S("1*i"), S(2)
        report = suite_restriction(MuData(((lam, 1),), ((m,),)), 10)
        assert report.all_ok, report.flags
        assert report.extra["target"]["inner"] == {"family": "Verma",
                                                   "delta": (m * 2 / lam).to_json()}
        report = suite_restriction(MuData(((S(2), 2),), ((S(1), S(-1)),)), 10)
        assert report.all_ok, report.flags
        assert report.extra["target"]["inner"]["family"] == "W"
        report = suite_restriction(MuData(((S(2), 1), (S(-2), 1)), ((S(1),), (S(2),))), 10)
        assert report.all_ok, report.flags
        assert report.extra["target"]["inner"]["family"] == "X"
        for elt, mu0, kind, family in [
                (SL2Elt(1, -3, -9), S(5), "n_lambda", "W"),
                (SL2Elt(0, 1, 2), S("1/2+1*i"), "h_lambda", "X"),
                (SL2Elt(1, -3, -5), S(1), "h_pair", "X")]:
            sub = classify_subalgebra_1d(elt)
            assert sub.kind == kind, (elt, sub.kind)
            report = suite_twist_induction(sub, mu0, 10)
            assert report.all_ok, (kind, report.flags)
            assert report.extra["target"]["inner"]["family"] == family
            assert report.depth == 10

    _criterion(11, "depth-10", 3.0, body)


def test_c12_depth_30_restriction_and_twist_induction():
    # "verified to depth N" at N = 30: normal forms are reduced on demand,
    # so a deep window costs what the checks read, not the whole window
    def body():
        for mu, family in [
                (MuData(((S("1*i"), 1),), ((S(2),),)), "Verma"),
                (MuData(((S(2), 2),), ((S(1), S(-1)),)), "W"),
                (MuData(((S(2), 1), (S(-2), 1)), ((S(1),), (S(2),))), "X")]:
            report = suite_restriction(mu, 30)
            assert report.all_ok, report.flags
            assert report.extra["target"]["inner"]["family"] == family
            assert report.depth == 30
        report = suite_restriction(
            MuData(((S(1), 1), (S(2), 1), (S(3), 1)), ((S(1),), (S(1),), (S(1),))), 30)
        assert report.all_ok, report.flags
        assert report.extra["target"]["family"] == "free"
        for elt, mu0, kind, family in [
                (SL2Elt(1, -3, -9), S(5), "n_lambda", "W"),
                (SL2Elt(1, -3, -5), S(1), "h_pair", "X")]:
            sub = classify_subalgebra_1d(elt)
            assert sub.kind == kind, (elt, sub.kind)
            report = suite_twist_induction(sub, mu0, 30)
            assert report.all_ok, (kind, report.flags)
            assert report.extra["target"]["inner"]["family"] == family
            assert report.depth == 30

    _criterion(12, "depth-30", 15.0, body)
