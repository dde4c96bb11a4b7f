from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from slvir.errors import (
    BadPolynomial,
    DepthExceeded,
    InvalidParameter,
    NotInSubalgebra,
)
from slvir.induced import InducedModule, MuData, VirPolyModule, _monomials_up_to, mu_eval
from slvir.laurent import LaurentPoly, reduce_power, sl2_window
from slvir.lie import (Automorphism, E, F, H, SL2Elt, VirElt, bracket_vir,
                       classify_subalgebra_1d, embed_sl2, sl2_from_vir)
from slvir.linalg import Echelon, degree_lex
from slvir.modules import casimir_action
from slvir.pbw import UEnvElt, gen_times_mono, nf_multiply
from slvir.scalar import Scalar
from slvir.sparse import expand, gauss, lincomb, row_from_scalars, unit_row

from closed_forms import value_at_form

S = Scalar.of


def mud(roots, polys):
    return MuData(tuple(roots), tuple(tuple(p) for p in polys))


def test_mudata_validation():
    with pytest.raises(BadPolynomial):
        mud([(S(0), 1)], [[S(1)]])
    with pytest.raises(BadPolynomial):
        mud([(S(1), 4)], [[S(1)]])
    with pytest.raises(InvalidParameter):
        mud([(S(1), 1)], [[S(1), S(1)]])  # deg p >= multiplicity
    with pytest.raises(InvalidParameter):
        mud([(S(1), 1), (S(1), 1)], [[S(1)], [S(1)]])  # repeated root
    assert mud([(S(1), 2)], [[]]).is_zero()
    with pytest.raises(InvalidParameter, match="polys"):
        MuData.from_json({"roots": [["1", 2]], "polys": ["12"]})


def test_mu_eval_examples():
    mu = mud([(S(1), 2)], [[S(0), S(1)]])  # f = (t-1)^2, p(j) = j
    f = mu.poly()
    assert mu_eval(mu, VirElt.from_laurent(f)).is_zero()
    assert mu_eval(mu, VirElt.from_laurent(f.shift(-1))) == S(-1)
    mu2 = mud([(S(2), 1)], [[S("1/2")]])  # f = t-2, p = 1/2
    assert mu_eval(mu2, VirElt.from_laurent(mu2.poly().shift(2))) == S(2)


_gauss_fracs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_gauss = st.builds(Scalar, _gauss_fracs, _gauss_fracs)
# every root shape of degree 1..3: the multiplicities of the distinct roots
_ROOT_SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_ROOT_SHAPES), st.data())
def test_value_at_matches_the_scalar_form(shape, data):
    # the integer sum against the Scalar one, on non-real roots among others,
    # with polynomials of every length the multiplicities allow
    lams = data.draw(st.lists(_gauss.filter(lambda s: not s.is_zero()), min_size=len(shape),
                              max_size=len(shape), unique=True))
    polys = [data.draw(st.lists(_gauss, max_size=n)) for n in shape]
    mu = mud(list(zip(lams, shape)), polys)
    for j in range(-40, 41):
        assert mu.value_at(j) == value_at_form(mu, j), j


def test_value_at_covers_non_real_roots():
    mu = mud([(S("1+2*i"), 2), (S("-1/3*i"), 1)], [[S("1/2"), S("2-1*i")], [S(3)]])
    for j in range(-40, 41):
        assert mu.value_at(j) == value_at_form(mu, j), j
    assert mu.value_at(-1) == (S("1/2") - S("2-1*i")) / S("1+2*i") + S(3) / S("-1/3*i")


def test_mu_eval_rejects_outsiders():
    mu = mud([(S(1), 1)], [[S(1)]])
    with pytest.raises(NotInSubalgebra):
        mu_eval(mu, VirElt.e(0))


def test_mu_eval_kills_z():
    mu = mud([(S(1), 1)], [[S(1)]])
    f = mu.poly()
    w = VirElt.from_laurent(f, z=S(7))
    assert mu_eval(mu, w) == mu_eval(mu, VirElt.from_laurent(f))


def test_mu_is_a_lie_homomorphism():
    # mu([x, y]) = 0 for x, y in the polynomial subalgebra
    cases = [
        mud([(S(2), 1)], [[S(3)]]),
        mud([(S(1), 2)], [[S(1), S(-2)]]),
        mud([(S(1), 1), (S(2), 1)], [[S(1)], [S("1/2")]]),
        mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]]),
    ]
    for mu in cases:
        f = mu.poly()
        for i in range(-3, 4):
            for j in range(-3, 4):
                x = VirElt.from_laurent(f.shift(i))
                y = VirElt.from_laurent(f.shift(j))
                assert mu_eval(mu, bracket_vir(x, y)).is_zero(), (i, j)


def test_induced_from_borel_is_verma_sized():
    # relations h -> delta, e -> 0 present the highest weight module
    mod = InducedModule([(H, S(2)), (E, S(0))], 6)
    assert len(mod.basis_keys(6)) == 7
    gen = mod.generator()
    assert mod.act(H, gen) == gen.scale(2)
    assert mod.act(E, gen).is_zero()
    v = mod.act(F, gen)
    assert mod.act(E, v) == gen.scale(2)


def test_induced_degenerate_relations_rejected():
    # forcing 1 = 0 collapses the module
    with pytest.raises(InvalidParameter):
        InducedModule([(H, S(1)), (H.scale(2), S(3))], 3)


def test_virpoly_window_counts():
    deg1 = VirPolyModule(mud([(S(2), 1)], [[S(1)]]), 6)
    assert [len(deg1.basis_keys(d)) for d in range(4)] == [1, 2, 3, 4]
    deg2 = VirPolyModule(mud([(S(1), 2)], [[S(1), S(0)]]), 5)
    assert len(deg2.basis_keys(5)) == 21
    deg3 = VirPolyModule(mud([(S(1), 1), (S(2), 1), (S(3), 1)],
                             [[S(1)], [S(1)], [S(1)]]), 4)
    assert len(deg3.basis_keys(4)) == 35


def test_virpoly_degree_one_action_example():
    for m in (S(1), S("1/2"), S("2*i")):
        mu = mud([(S(2), 1)], [[m]])
        vp = VirPolyModule(mu, 6)
        v = vp.generator()
        lhs = vp.act(VirElt.e(3), v)
        rhs = v.scale(m * 12) + vp.act(VirElt.e(0), v).scale(8)
        assert lhs == rhs


def test_virpoly_z_acts_as_zero():
    vp = VirPolyModule(mud([(S(1), 2)], [[S(1), S(1)]]), 5)
    for key in vp.basis_keys(4):
        assert vp.act(VirElt.central(), vp.basis_vec(key)).is_zero()


def _has_imaginary_part(vec):
    return any(c.im for c in vec.terms.values())


def test_virpoly_sl2_route_matches_vir_route():
    handles = [
        VirPolyModule(mud([(S(1), 1), (S(3), 1)], [[S(1)], [S(2)]]), 5),
        # non-real root and character value: the Gaussian branch of the sums
        VirPolyModule(mud([(S("1+1*i"), 1), (S(3), 1)], [[S(1)], [S("1*i")]]), 5),
    ]
    for vp in handles:
        for g in (E, H, F):
            for key in vp.basis_keys(4):
                v = vp.basis_vec(key)
                assert vp.act(g, v) == vp.act(embed_sl2(g), v)
    assert any(_has_imaginary_part(handles[1].act(embed_sl2(g), handles[1].basis_vec(key)))
               for g in (E, H, F) for key in handles[1].basis_keys(4))


def test_virpoly_module_axiom_window():
    handles = [
        VirPolyModule(mud([(S(2), 1)], [[S(1)]]), 6),
        # non-real root and character value: the Gaussian branch of the sums
        VirPolyModule(mud([(S("1+1*i"), 1)], [[S("1*i")]]), 6),
    ]
    for vp in handles:
        for n in range(-3, 4):
            for m in range(n + 1, 4):
                x, y = VirElt.e(n), VirElt.e(m)
                for key in vp.basis_keys(3):
                    v = vp.basis_vec(key)
                    lhs = vp.act(x, vp.act(y, v)) - vp.act(y, vp.act(x, v))
                    rhs = vp.act(bracket_vir(x, y), v)
                    assert lhs == rhs, (n, m, key)
    assert any(_has_imaginary_part(handles[1].act(VirElt.e(n), handles[1].basis_vec(key)))
               for n in range(-3, 4) for key in handles[1].basis_keys(3))


def _nonzero(terms):
    return {k: c for k, c in terms.items() if not c.is_zero()}


def _add_into(out, terms, coeff=1):
    for k, c in terms.items():
        out[k] = out.get(k, Scalar.zero()) + coeff * c


class _ScalarReference:
    """The Virasoro action of a VirPolyModule recomputed key by key in
    Scalar arithmetic, with its own reduced echelon form of the ideal rows.

    It follows the construction in the module docstring directly:
    e_n . (x w) v = x (e_n w) v + [e_n, x] w v, and e_n . v through the
    window division of t^n by f.
    """

    def __init__(self, vp):
        self.vp = vp
        gens = [UEnvElt.from_sl2(s) - UEnvElt.one().scale(v) for s, v in vp.relations]
        rows: dict = {}
        for mono in product(range(vp.depth), repeat=3):
            if sum(mono) < vp.depth:
                for g in gens:
                    self._insert(rows, nf_multiply(UEnvElt.monomial(mono), g).terms)
        self.table = {p: {k: -c for k, c in row.items() if k != p}
                      for p, row in rows.items()}
        self.cache: dict = {}

    @staticmethod
    def _insert(rows, vec):
        res = dict(vec)
        for p, row in rows.items():
            c = res.get(p)
            if c is not None:
                _add_into(res, row, -c)
        res = _nonzero(res)
        if not res:
            return
        pivot = max(res, key=lambda m: (sum(m), m))
        row = {k: c / res[pivot] for k, c in res.items()}
        for p, other in rows.items():
            c = other.get(pivot)
            if c is not None:
                _add_into(other, row, -c)
                rows[p] = _nonzero(other)
        rows[pivot] = row

    def reduce(self, terms):
        out: dict = {}
        for mono, c in terms.items():
            assert sum(mono) <= self.vp.depth
            _add_into(out, self.table.get(mono, {mono: Scalar.one()}), c)
        return _nonzero(out)

    def en(self, n, mono):
        """e_n . (mono * v) as a dict key -> Scalar."""
        if (n, mono) not in self.cache:
            self.cache[(n, mono)] = self._en(n, mono)
        return self.cache[(n, mono)]

    def _en(self, n, mono):
        mu = self.vp.mu
        if mono == (0, 0, 0):
            q, r = reduce_power(n, mu.poly())
            val = Scalar.zero()
            for j, c in q.terms.items():
                val = val + c * mu.value_at(j)
            r = sl2_from_vir(VirElt.from_laurent(r))
            return self.reduce({(0, 0, 0): val, (0, 0, 1): r.ce,
                                (0, 1, 0): r.ch, (1, 0, 0): r.cf})
        a, b, c = mono
        if a:
            letter, gen, rest = "f", F, (a - 1, b, c)
        elif b:
            letter, gen, rest = "h", H, (a, b - 1, c)
        else:
            letter, gen, rest = "e", E, (a, b, c - 1)
        moved: dict = {}
        for m2, c2 in self.en(n, rest).items():
            _add_into(moved, {m3: Scalar.of(k) for m3, k in gen_times_mono(letter, m2).items()},
                      c2)
        out = self.reduce(moved)
        # the central part of [e_n, gen] acts as zero
        for m, c2 in bracket_vir(VirElt.e(n), embed_sl2(gen)).terms.items():
            _add_into(out, self.en(m, rest), c2)
        return _nonzero(out)

    def act(self, x, vec):
        out: dict = {}
        for key, cv in vec.terms.items():
            for n, cx in x.terms.items():
                _add_into(out, self.en(n, key), cv * cx)
        return _nonzero(out)


def test_virpoly_vir_action_matches_scalar_reference():
    handles = [
        # the cubic handle of acceptance criterion c03
        VirPolyModule(mud([(S(1), 1), (S(2), 1), (S(3), 1)], [[S(1)], [S(1)], [S(1)]]), 8),
        # non-real data
        VirPolyModule(mud([(S("1+1*i"), 1), (S(-2), 1)], [[S("1*i")], [S(1)]]), 7),
    ]
    x = VirElt({1: S(2), -3: S("-1/2*i"), 0: S("1/3+1*i")}, z=S(5))
    for vp in handles:
        ref = _ScalarReference(vp)
        keys = vp.basis_keys(6)
        for key in keys:
            v = vp.basis_vec(key)
            for n in range(-5, 6):
                assert vp.act(VirElt.e(n), v).terms == ref.en(n, key), (n, key)
            assert vp.act(x, v).terms == ref.act(x, v), key
        vec = vp.vector({k: S(f"{j + 1}/{j % 4 + 1}-{j % 3}*i") for j, k in enumerate(keys)})
        assert vp.act(x, vec).terms == ref.act(x, vec)
        assert _has_imaginary_part(vp.act(x, vec))
    assert any(_has_imaginary_part(handles[1].act(VirElt.e(n), handles[1].basis_vec(key)))
               for n in range(-5, 6) for key in handles[1].basis_keys(6))


def test_virpoly_casimir_scalar():
    # f = t - 1, mu(f) = 1: the Casimir acts by (2*1/1 + 1)^2 = 9
    vp = VirPolyModule(mud([(S(1), 1)], [[S(1)]]), 4)
    gen = vp.generator()
    assert casimir_action(vp, gen) == gen.scale(9)


def test_virpoly_depth_exceeded():
    vp = VirPolyModule(mud([(S(1), 1), (S(2), 1), (S(3), 1)],
                           [[S(1)], [S(1)], [S(1)]]), 2)
    top = vp.basis_vec((0, 0, 2))
    with pytest.raises(DepthExceeded):
        vp.act(E, top)
    with pytest.raises(DepthExceeded):
        vp.basis_keys(5)


def test_mudata_json_round_trip():
    mu = mud([(S(1), 2), (S("2*i"), 1)], [[S(1), S("1/2")], [S(-1)]])
    assert MuData.from_json(mu.to_json()).to_json() == mu.to_json()


def _nf_route_table(relations, depth):
    """The reduction table built from Scalar products nf(m * (s - mu(s)))."""
    gens = [UEnvElt.from_sl2(s) - UEnvElt.one().scale(v) for s, v in relations]
    ech = Echelon(degree_lex)
    for mono in product(range(depth), repeat=3):
        if sum(mono) < depth:
            for g in gens:
                ech.insert(row_from_scalars(nf_multiply(UEnvElt.monomial(mono), g).terms))
    return ech.reduction_table()


@pytest.mark.parametrize("coords, mu0, kind", [
    ((1, -3, -9), "5", "n_lambda"),
    ((0, 0, 1), "1/2+1*i", "n_minus"),
    ((0, 1, 4), "-2*i", "h_lambda"),
    ((1, -3, -5), "3", "h_pair"),
])
def test_induced_table_matches_nf_multiply_route(coords, mu0, kind):
    sub = classify_subalgebra_1d(SL2Elt(*coords))
    assert sub.kind == kind
    mod = InducedModule([(sub.generator, S(mu0))], 6)
    table = _nf_route_table(mod.relations, 6)
    assert set(mod.basis_keys(6)) == {m for m in product(range(7), repeat=3)
                                      if sum(m) <= 6 and m not in table}
    assert {m: mod._reduce_row(m) for m in table} == table


def test_virpoly_table_matches_nf_multiply_route():
    vp = VirPolyModule(mud([(S("1+1*i"), 1)], [[S("1*i")]]), 6)
    table = _nf_route_table(vp.relations, 6)
    assert {m: vp._reduce_row(m) for m in table} == table
    assert not set(vp.basis_keys(6)) & set(table)


@pytest.mark.parametrize("make", [
    # degree 1 with a non-real root: two relations
    lambda: VirPolyModule(mud([(S("1+1*i"), 1)], [[S("1*i")]]), 8),
    lambda: InducedModule(
        [(classify_subalgebra_1d(SL2Elt(1, -3, -9)).generator, S("1/2-2*i"))], 8),
], ids=["virpoly_degree_1", "n_lambda"])
def test_tables_match_nf_multiply_route_at_depth_8(make):
    # the reference eliminates the whole window; the module divides by its
    # interreduced relations, one monomial at a time
    mod = make()
    table = _nf_route_table(mod.relations, 8)
    assert set(mod.basis_keys(8)) == {m for m in product(range(9), repeat=3)
                                      if sum(m) <= 8 and m not in table}
    assert {m: mod._reduce_row(m) for m in table} == table


# Gaussian rationals with a nonzero imaginary part, so that every
# comparison below runs on non-real data
_GAUSS = st.builds(lambda a, b, d: S(f"{a}/{d}+{b}*i"),
                   st.integers(-3, 3), st.integers(1, 3), st.integers(1, 2))
_ONE_DIM_KINDS = {
    "n_lambda": lambda b, c: SL2Elt(1, -b, -b * b),
    "n_minus": lambda b, c: SL2Elt(0, 0, c),
    "h_lambda": lambda b, c: SL2Elt(0, c, b),
    # delta = beta^2 - c^2 with c != 0: two distinct roots beta +- c
    "h_pair": lambda b, c: SL2Elt(1, -b, c * c - b * b),
}


@st.composite
def _induced_handles(draw):
    """A 1-d subalgebra induced module or a degree-1 VirPoly, non-real data."""
    depth = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(sorted(_ONE_DIM_KINDS) + ["virpoly_degree_1"]))
    b, c, mu0 = draw(_GAUSS), draw(_GAUSS), draw(_GAUSS)
    if kind == "virpoly_degree_1":
        return kind, VirPolyModule(mud([(b, 1)], [[mu0]]), depth)
    sub = classify_subalgebra_1d(_ONE_DIM_KINDS[kind](b, c))
    assert sub.kind == kind
    return kind, InducedModule([(sub.generator, mu0)], depth)


@settings(max_examples=30, deadline=None)
@given(_induced_handles())
def test_lazy_normal_forms_match_table_route(handle):
    # every monomial of the window: the basis is the non-pivots of the
    # reference table, and each reduced row is the table's (a unit row on
    # the basis)
    _, mod = handle
    table = _nf_route_table(mod.relations, mod.depth)
    window = list(_monomials_up_to(mod.depth))
    assert mod.basis_keys(mod.depth) == [m for m in window if m not in table]
    for m in window:
        assert mod._reduce_row(m) == table.get(m, unit_row(m)), m
    with pytest.raises(DepthExceeded):
        mod._reduce_row((0, 0, mod.depth + 1))


def _basis_handles(depth):
    """Twist inductions of every subalgebra kind and VirPoly of degrees 1-3."""
    b, c, mu0 = S("1+1*i"), S("2-1*i"), S("1/2+1*i")
    gamma = Automorphism.gamma(b)
    relations = [[(classify_subalgebra_1d(make(b, c)).generator, mu0)]
                 for make in _ONE_DIM_KINDS.values()]
    relations += [[(H, mu0)], [(E, mu0)],  # a lead h or e alone
                  [(H, mu0), (E, S(0))], [(H, mu0), (F, S(0))],  # b_plus, b_minus
                  [(gamma.apply(H), mu0), (gamma.apply(E), S(0))],  # b_lambda
                  [(E, S(0)), (H, S(0)), (F, S(0))]]
    mus = [mud([(b, 1)], [[mu0]]), mud([(b, 2)], [[c, mu0]]),
           mud([(b, 1), (c, 1), (b + c, 1)], [[mu0], [mu0], []])]
    return ([InducedModule(rels, depth) for rels in relations]
            + [VirPolyModule(mu, depth) for mu in mus])


@pytest.mark.parametrize("depth", [8, 11])
def test_standard_monomials_are_listed_directly(depth):
    # every lead is one letter, so the basis is read off the free letters;
    # it must be the old filter of the whole window, in the same order
    for mod in _basis_handles(depth):
        assert mod._basis == [m for m in _monomials_up_to(depth) if mod._divisor(m) is None]


@pytest.mark.parametrize("relations", [
    [(E, S(0)), (F, S(0))],  # the ideal holds [e, f] = h
    [(H, S(1)), (E, S(1))],  # mu([h, e]) = 2 mu(e) != 0
], ids=["e_f", "h_e"])
@pytest.mark.parametrize("depth", [1, 2, 3, 6, 8])
def test_non_character_relations_rejected_at_every_depth(relations, depth):
    # these relations are no character of a subalgebra; a window table once
    # gave them a basis that grew with the window
    with pytest.raises(InvalidParameter):
        InducedModule(relations, depth)


def test_trivial_character_of_sl2_gives_the_trivial_module():
    mod = InducedModule([(E, S(0)), (H, S(0)), (F, S(0))], 4)
    assert mod.basis_keys(4) == [(0, 0, 0)]
    for g in (E, H, F):
        assert mod.act(g, mod.generator()).is_zero()


def test_virpoly_degree_one_builds_at_depth_one():
    # the S-pair of the two relations has degree 2, above the window: its
    # reduction is not bounded by the window
    vp = VirPolyModule(mud([(S("1+1*i"), 1)], [[S("1*i")]]), 1)
    deeper = VirPolyModule(vp.mu, 4)
    assert vp.basis_keys(1) == deeper.basis_keys(1) == [(0, 0, 0), (0, 0, 1)]
    gen = vp.generator()
    assert vp.act(VirElt.e(2), gen).terms == deeper.act(VirElt.e(2), deeper.generator()).terms


@pytest.mark.parametrize("make", [
    lambda: VirPolyModule(mud([(S("1+1*i"), 1)], [[S("1*i")]]), 30),
    lambda: InducedModule([(classify_subalgebra_1d(SL2Elt(0, 0, 1)).generator, S("2-1*i"))],
                          30),
], ids=["virpoly_degree_1", "n_minus"])
def test_depth_30_top_degree_reduces_without_recursion_error(make):
    # the first reduction of (30, 0, 0) runs a chain of division steps
    # through most of the window
    mod = make()
    top = [m for m in _monomials_up_to(30) if sum(m) == 30]
    rows = [mod._reduce_row(m) for m in top]
    basis = set(mod.basis_keys(30))
    assert [row == unit_row(m) for m, row in zip(top, rows)] == [m in basis for m in top]


_gauss_ints = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3).filter(bool))


_root_shapes = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_root_shapes), st.lists(_gauss_ints, min_size=3, max_size=3),
       st.lists(_gauss_ints, min_size=6, max_size=6), st.randoms())
def test_projection_matches_reduce_power(shape, lams, coeffs, rnd):
    # P(n) = (a_n, r_n) by the character recurrence, per handle, against a
    # fresh division t^n = q f + r: a_n = sum_j q_j mu(t^j f), r_n the window
    # coefficients of r.  Roots are non-real, and the polys at double and
    # triple roots are not constant, since a_n reads every p_i(j); the
    # exponents come in a random order, so the recurrence starts from every side
    assume(len(set(lams[:len(shape)])) == len(shape))
    coeffs = iter(coeffs)
    mu = mud(zip(lams, shape), [[next(coeffs) for _ in range(n)] for n in shape])
    vp = VirPolyModule(mu, 1)
    f, window = mu.poly(), sl2_window(mu.degree)
    exponents = list(range(-12, 13))
    rnd.shuffle(exponents)
    for n in exponents:
        q, r = reduce_power(n, f)
        a = Scalar.zero()
        for j, c in q.terms.items():
            a = a + c * mu.value_at(j)
        assert vp._project(n) == (a, tuple(r.coeff(w) for w in window)), n


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_root_shapes), st.lists(_gauss_ints, min_size=3, max_size=3),
       st.lists(_gauss_ints, min_size=6, max_size=6))
def test_generator_rows_of_e_n_match_the_sl2_route(shape, lams, coeffs):
    # e_n v = a_n v + r_n v: the window part through the rows of e, h/2 and
    # -f, against r_n read as the sl2 element it embeds and acting by it
    assume(len(set(lams[:len(shape)])) == len(shape))
    coeffs = iter(coeffs)
    mu = mud(zip(lams, shape), [[next(coeffs) for _ in range(n)] for n in shape])
    vp = VirPolyModule(mu, 1)
    v = unit_row((0, 0, 0))
    for n in range(-8, 9):
        a, r = vp._project(n)
        x = sl2_from_vir(VirElt(dict(zip(vp._window, r))))
        want = lincomb([gauss(a) + (v,)] + expand(v, vp._action(x)))
        got = vp._row(n, (0, 0, 0))
        assert got == want, n
        assert [list(got[1]), list(got[2])] == [list(want[1]), list(want[2])], n


def test_mudata_expands_its_polynomial_once():
    mu = mud([(S(2), 1), (S("1*i"), 2)], [[S(1)], [S(1), S(2)]])
    assert mu.poly() is mu.poly()
    assert mu.poly() == LaurentPoly.from_roots(mu.roots)
    assert mu == mud([(S(2), 1), (S("1*i"), 2)], [[S(1)], [S(1), S(2)]])
