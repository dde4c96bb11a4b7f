"""Depth-bounded exact verification of the structural statements.

Every suite here checks a finite shadow of a global statement: generator
relations are tested exactly, injectivity and spanning are certified on
the depth-N window only, and reports say so.  A single failing scalar
comparison fails a suite.  Witnesses are minimal in degree-lex order.

A module map is certified degree by degree where it can be: the maps the
paper predicts respect the PBW filtration, so the top-degree components of
the images, one small block per degree of packed rows (one int each) of
full rank mod a fixed prime, prove injectivity and the window span.
Where they do not, one exact echelon of the whole images decides, and it
alone supplies dependent_image and not_spanned witnesses.  Every target is checked the same way, the
degree-3 restriction (a module that is its own target) included.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product

from .errors import DepthExceeded, InvalidParameter, NotRepresentable
from .induced import InducedModule, MuData, VirPolyModule, mu_eval
from .lie import (
    Automorphism,
    LETTERS,
    E,
    F,
    H,
    SubalgebraClass1D,
    VirElt,
    embed_sl2,
)
from .linalg import BlockModP, Echelon
from .modules import (
    DenseModule,
    KeyAboveTop,
    LowVermaModule,
    ModVec,
    Module,
    TensorModule,
    TwistModule,
    VermaModule,
    WModule,
    XbarModule,
    XbarQuotientModule,
    XModule,
    _word_images,
    act_uenv,
    casimir_action,
)
from .scalar import Scalar, sqrt_exact
from .sparse import (MODULUS, ZERO_ROW, expand, gauss, lincomb, pack, residues, restrict,
                     row_from_scalars, row_keys, slot_width, unit_row)


@dataclass
class Report:
    """A report of schema ``report/1``: one type for every suite, map check
    and verdict.

    ``flags`` are the pass/fail checks, set through :meth:`record`, which
    keeps the witness of the first failure, or through :meth:`scan`, which
    stops at the first failing candidate.  ``extra`` holds every other
    top-level key: a target, a scope, a suite's notes or branch, or a
    verdict's answer and ``witness_i``.  A verdict has no flags, so its
    JSON has no ``flags`` key and ``all_ok`` is True.  ``rank``, a map
    check's number of independent images, is not serialised.
    """

    suite: str
    params: dict
    depth: int = 0
    flags: dict = field(default_factory=dict)
    witness: object = None
    extra: dict = field(default_factory=dict)
    rank: int | None = None

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values())

    def record(self, flag: str, ok: bool, witness=None) -> None:
        """Set ``flags[flag]`` to ok; a failure keeps ``witness`` unless an
        earlier one filled the report's."""
        self.flags[flag] = ok
        if not ok and self.witness is None:
            self.witness = witness

    def scan(self, flag: str, failures) -> None:
        """Record ``flag`` from a lazy iterable of witnesses (never None):
        False with the first one it yields, True when it yields none.  No
        candidate after the first failure is evaluated."""
        witness = next(iter(failures), None)
        self.record(flag, witness is None, witness)

    def compare(self, flag: str, expected, found) -> None:
        """Record whether found == expected; a mismatch is witnessed by both
        values in JSON (a vector by its terms)."""
        def as_json(x):
            return x.to_json()["terms"] if isinstance(x, ModVec) else x.to_json()

        ok = found == expected
        self.record(flag, ok, None if ok else
                    {"kind": flag, "expected": as_json(expected), "found": as_json(found)})

    def to_json(self, elapsed_ms=None) -> dict:
        """The report's JSON; a key whose value is None is left out, and so
        are the flags of a verdict."""
        out = {"schema": "report/1", "suite": self.suite, "params": self.params,
               "flags": self.flags or None, "depth": self.depth, "witness": self.witness,
               "elapsed_ms": elapsed_ms, **self.extra}
        return {key: value for key, value in out.items() if value is not None}


def _scoped_report(suite: str, params: dict, depth: int) -> Report:
    """The report of a map check, or of a suite that identifies a module
    with a predicted target, which says that it is verified to depth N."""
    return Report(suite, params, depth, extra={"scope": f"verified to depth {depth}"})


class _Unreduced(ArithmeticError):
    """P divides a denominator on the walk of the graded certificate."""


def _graded_certificate(dst: Module, letters: dict, words, gen_image: ModVec, depth: int,
                        window_span: bool) -> bool:
    """Whether the top components of the images certify the map.

    ``words`` are sorted by length, and the letter l acts as ``letters[l]``.
    With s the depth of gen_image, the top component of a word's image is
    its part at depth s + len(word); the top of g.v is the top of g acting
    on the top of v, so the tops are walked with the shared suffixes of
    :func:`_word_images` from dst's top rows of the ops of letters[l]
    (:meth:`~slvir.modules.Module._top`), never the full images.
    The walk runs in F_P (:data:`~slvir.sparse.MODULUS`) on packed rows
    (:func:`~slvir.sparse.pack`), the keys of each depth in slots in the
    order they first appear.  Each op's top on a key is read through
    :func:`~slvir.sparse.residues` once per call, and each letter's top on
    a key is packed once, every slot reduced to [0, P).  A word's top is
    the sum of v * (letter's top on key) over the slots v, reduced where
    read, of the top it acts on, so every multiplicand has its slots in
    [0, P) and no slot carries; each length's block goes into a
    :class:`~slvir.linalg.BlockModP`.  Sending i to I is a ring map where
    P divides no denominator, and rank can only drop under it, so a block
    of full rank mod P is independent over Q(i).  True when every block
    has full rank mod P and, with ``window_span``, s = 0 and each block's
    rank is the number of dst's window keys of that depth.  False, leaving
    the map to :func:`_eliminate`, when P divides a denominator, a block
    is singular mod P, or a top row reaches a key above its expected depth.
    """
    key_depth = dst.key_depth
    keys = row_keys(gen_image.row)
    if not keys:
        return False
    s = max(map(key_depth, keys))
    if window_span and s:
        return False
    p, i = MODULUS
    w = slot_width(p)
    mask = (1 << w) - 1
    cols = defaultdict(dict)  # depth -> {key: slot}

    def reduced(row):
        out = residues(row, p, i)
        if out is None:
            raise _Unreduced
        return out

    op_tops: dict = {}  # (op, key) -> the residues of dst's top row of op on key
    walked: dict = {}  # l -> (the reduced ops of letters[l], {key: packed top of l on key})

    def letter_top(ops, key, slots):
        acc: dict = {}
        for c, op in ops:
            top = op_tops.get((op, key))
            if top is None:
                top = op_tops[op, key] = reduced(dst._top(op, key))
            for k, v in top.items():
                acc[k] = acc.get(k, 0) + c * v
        return pack(((k, v % p) for k, v in acc.items()), slots, w)

    def act(letter, top):
        d, row = top
        if letter not in walked:  # a coefficient is reduced as a one-key row
            walked[letter] = ([(reduced((cd, {0: cr}, {0: ci})).get(0, 0), op)
                               for (cr, ci, cd), op in dst._ops(letters[letter])], {})
        ops, tops = walked[letter]
        out = 0
        for key in cols[d]:
            if not row:
                break
            if v := (row & mask) % p:
                t = tops.get(key)
                if t is None:
                    t = tops[key] = letter_top(ops, key, cols[d + 1])
                out += v * t
            row >>= w
        return d + 1, out

    blocks = defaultdict(partial(BlockModP, p))
    try:
        top = reduced(restrict(gen_image.row, lambda k: key_depth(k) == s))
        tops = _word_images(act, words, (s, pack(top.items(), cols[s], w)))
        for (_, word), (_, (_, row)) in zip(words, tops):
            if not blocks[len(word)].insert(row):
                return False
    except (KeyAboveTop, _Unreduced):
        return False
    return not window_span or (Counter(map(key_depth, dst.basis_keys(depth)))
                               == Counter({d: block.rank for d, block in blocks.items()}))


def _eliminate(report: Report, src: Module, dst: Module, act, words, gen_image: ModVec,
               depth: int, window_span: bool) -> None:
    """The full route: record injectivity, the window span if
    ``window_span`` asks for it, and the rank, from one echelon of the
    whole images; the only source of dependent_image and not_spanned
    witnesses."""
    ech = Echelon(dst.key_sort_token)
    dependent = [key for key, img in _word_images(act, words, gen_image)
                 if not ech.insert(img.row)]
    report.record("injective_up_to_N", not dependent,
                  {"kind": "dependent_image", "src_key": src.key_json(dependent[0])}
                  if dependent else None)
    if window_span:
        report.scan("surjective_onto_window",
                    ({"kind": "not_spanned", "dst_key": dst.key_json(dkey)}
                     for dkey in dst.basis_keys(depth) if not ech.contains(unit_row(dkey))))
    report.rank = ech.rank


def check_module_map(src: Module, dst: Module, gen_image: ModVec, depth: int,
                     window_span: bool = True, lift=None) -> Report:
    """Verify the module map src -> dst sending the generator to gen_image.

    relations_hold: gen_image satisfies the defining relations of src's
    generator.  injective_up_to_N: the images of src's basis monomials of
    depth <= N are linearly independent in dst (exact rank).
    surjective_onto_window, when ``window_span`` is True: the images span
    every basis key of dst of depth <= N.  A letter l of src's words acts
    on dst as ``lift(LETTERS[l])``, computed once per check (LETTERS[l] by
    default; the degree-3 restriction passes the Virasoro embedding), for
    the images and the certificate's tops alike.  src is never a twist:
    check a map out of A twisted by a as one from A into dst twisted by a^-1.

    The graded certificate is tried first.  Every letter raises
    ``key_depth`` by at most one (the contract of :meth:`Module.key_depth`),
    so with s the depth of gen_image, a word of length d sends it to depth
    at most s + d.  Suppose the tops (the parts at depth exactly s + d) of
    the length-d images are independent for every d.  In a vanishing
    combination of images, the longest words that occur, of length D, meet
    no other image at depth s + D, so their tops would vanish in
    combination; hence the images are independent.  If moreover s = 0 and
    the length-d block is square (its rank is the number of dst keys of
    depth d), the tops span the depth-d keys, and by induction on d the
    images span every key of the window.  When the certificate does not
    hold, one echelon of the whole images decides: rank, injectivity, and
    the span by membership of each window key; it gives the witness.  The
    report has no span flag when ``window_span`` is False.

    The certificate takes each block's rank mod the prime P of
    :data:`~slvir.sparse.MODULUS`, with i sent to a root of -1 mod P: a
    ring map wherever P divides no denominator, under which rank can only
    drop, so full rank mod P is full rank over Q(i).  A block singular mod
    P, or a denominator P divides, proves nothing; the full route decides,
    with the report a certificate would give, so P never shows.
    """
    letters = {l: lift(x) for l, x in LETTERS.items()} if lift else LETTERS
    report = _scoped_report("map_check", {}, depth)
    report.scan("relations_hold",
                ({"kind": "relation", "element": u.to_json(),
                  "expected_scalar": Scalar.of(s).to_json()}
                 for u, s in src.generator_relations()
                 if act_uenv(dst, u, gen_image) != gen_image.scale(s)))

    words = sorted(src.basis_words(depth),
                   key=lambda kw: (src.key_depth(kw[0]), src.key_sort_token(kw[0])))
    if _graded_certificate(dst, letters, words, gen_image, depth, window_span):
        report.record("injective_up_to_N", True)
        if window_span:
            report.record("surjective_onto_window", True)
        report.rank = len(words)
    else:
        _eliminate(report, src, dst, lambda l, v: dst.act(letters[l], v), words, gen_image,
                   depth, window_span)
    return report


# -- simplicity and generation ------------------------------------------------


def _verdict(suite: str, answer: str, xi: Scalar, tau: Scalar, witness_i) -> Report:
    """A verdict, not a pass/fail check: no flags, and ``answer`` (True
    when no integer witnesses against it) at the top level with
    ``witness_i``."""
    return Report(suite, {"xi": xi.to_json(), "tau": tau.to_json()},
                  extra={answer: witness_i is None, "witness_i": witness_i})


def _integer_roots(xi: Scalar, tau: Scalar, minimum: int | None) -> list[int]:
    """Integers i with (xi + 2i + 1)^2 = tau, optionally bounded below."""
    try:
        s = sqrt_exact(tau)
    except NotRepresentable:
        return []
    found = set()
    for branch in (s, -s):
        x = (branch - xi - 1) / 2
        if x.is_integer():
            found.add(x.as_int())
    if minimum is not None:
        found = {i for i in found if i >= minimum}
    return sorted(found)


def simplicity_test(xi, tau) -> Report:
    """Whether the dense module with these parameters is irreducible.

    Solves (xi + 2i + 1)^2 = tau exactly over the integers; the reported
    witness is the solution closest to zero (ties to the negative side).
    """
    xi, tau = Scalar.of(xi), Scalar.of(tau)
    roots = _integer_roots(xi, tau, None)
    witness = min(roots, key=lambda i: (abs(i), i)) if roots else None
    return _verdict("simplicity", "irreducible", xi, tau, witness)


def generator_test(xi_prime, tau) -> Report:
    """Whether v at weight xi' generates the dense module: no root i >= 0."""
    xi_prime, tau = Scalar.of(xi_prime), Scalar.of(tau)
    roots = _integer_roots(xi_prime, tau, 0)
    return _verdict("generator", "generates", xi_prime, tau, roots[0] if roots else None)


# -- the dense-structure suite -------------------------------------------------


def _casimir_shifter(x_mod: XModule, tau: Scalar):
    """The row map of v -> (c - tau) v on X(xi).  c is central and acts on
    e^l x as 4fe + (h + 1)^2, so
    (c - tau) f^k e^l x = 4 f^(k+1) e^(l+1) x + ((xi + 2l + 1)^2 - tau) f^k e^l x:
    each key's row is that lincomb of two unit rows, memoised, and a
    vector's shift is one lincomb of those rows."""
    diagonal = cache(lambda l: gauss((x_mod.xi + 2 * l + 1) ** 2 - tau))

    @cache
    def row_of(key):
        k, l = key
        return lincomb([(4, 0, 1, unit_row((k + 1, l + 1))), diagonal(l) + (unit_row(key),)])

    return lambda row: lincomb(expand(row, [(1, 0, 1, row_of)]))


def _dense_intertwiner(xbar: XbarModule, depth: int):
    """The unique intertwiner Xbar(xi, tau) -> Vdense(xi, tau) normalised by
    xbar -> v_xi, as a row map on the keys of depth <= depth + 1: each key
    goes to one scaled unit row,
    e^l -> (prod_{j<l} (tau - (xi+2j+1)^2)/4) v_{xi+2l},  f^k -> v_{xi-2k}."""
    xi, tau = xbar.xi, xbar.tau
    scale_for = {("f", k): Scalar.one() for k in range(1, depth + 2)}
    acc = Scalar.one()
    for l in range(depth + 2):
        scale_for[("e", l)] = acc
        acc = acc * (tau - (xi + 2 * l + 1) ** 2) / 4
    rows = {key: row_from_scalars({xbar.key_weight(key): c}) for key, c in scale_for.items()}
    return rows.__getitem__


def suite_dense(xi, tau, depth: int = 6) -> Report:
    """Check the filtration/quotient structure of X(xi) at one (xi, tau).

    Verifies, exactly on the depth window: the Casimir shift kills no
    basis vector and is injective; the shift-power filtration is strict
    through n = 3; and the quotient Xbar(xi, tau) is either identified
    with the dense module by an explicit intertwiner, or has the
    two-piece composition series with highest and lowest weight Verma
    constituents located at j0.
    """
    xi, tau = Scalar.of(xi), Scalar.of(tau)
    if depth < 6:
        raise InvalidParameter("the dense suite needs depth at least 6")
    report = Report("dense", {"xi": xi.to_json(), "tau": tau.to_json()}, depth)
    x_mod = XModule(xi)

    shift = _casimir_shifter(x_mod, tau)

    # (a) (c - tau) v != 0 for every basis vector of the window
    report.scan("shift_nonvanishing",
                ({"kind": "casimir_shift_vanishes", "key": x_mod.key_json(key)}
                 for key in x_mod.basis_keys(depth) if shift(unit_row(key)) == ZERO_ROW))

    # (c) strictness of the shift-power filtration for n <= 3; its level n = 1
    # gives (b), v -> (c - tau) v injective on the window of depth - 2
    def filtration_failures():
        prev_ech, rows = None, {}
        for n in range(4):
            # (c - tau)^n on the window of depth - 2n (>= 0), one shift of level n - 1
            rows = {key: shift(rows[key]) if n else unit_row(key)
                    for key in x_mod.basis_keys(depth - 2 * n)}
            ech_n = Echelon(x_mod.key_sort_token)
            dependent = [key for key, r in rows.items() if not ech_n.insert(r)]
            if n == 1:
                report.record("shift_injective_on_window", not dependent,
                              {"kind": "shift_dependent", "key": x_mod.key_json(dependent[0])}
                              if dependent else None)
            if prev_ech is not None and not (all(map(prev_ech.contains, rows.values()))
                                             and ech_n.rank < prev_ech.rank):
                yield {"kind": "filtration_failure", "n": n}
            prev_ech = ech_n

    report.scan("filtration_strict", filtration_failures())
    report.extra["filtration_strict_to"] = 3 if report.flags["filtration_strict"] else 0

    gen = generator_test(xi, tau)
    xbar = XbarModule(xi, tau)
    if gen.extra["generates"]:
        report.extra["branch"] = "iso_to_Vdense"
        dense = DenseModule(xi, tau)
        phi = _dense_intertwiner(xbar, depth)
        report.scan("dense_map_intertwines",
                    ({"kind": "intertwine_failure", "key": xbar.key_json(key)}
                     for key, g in product(xbar.basis_keys(depth), ("e", "h", "f"))
                     if (lincomb(expand(xbar._row(g, key), [(1, 0, 1, phi)]))
                         != lincomb(expand(phi(key), [(1, 0, 1, partial(dense._row, g))])))))
        return report

    j0 = gen.extra["witness_i"]
    report.extra.update(branch="composition_series", j0=j0)
    if j0 + 2 > depth:
        raise DepthExceeded(f"j0 = {j0} needs depth at least {j0 + 2}")
    top = xbar.basis_vec(("e", j0 + 1))
    report.compare("f_kills_submodule_generator", xbar.vector({}), xbar.act(F, top))

    report.scan("submodule_invariant",
                ({"kind": "submodule_escape", "key": xbar.key_json(key)}
                 for key, g in product((("e", j0 + i) for i in range(1, depth - j0 + 1)),
                                       (E, H, F))
                 if any(k[0] != "e" or k[1] <= j0
                        for k in xbar.act(g, xbar.basis_vec(key)).terms)))

    quotient = XbarQuotientModule(xi, tau, j0)
    verma = VermaModule(xi + 2 * j0)
    q_check = check_module_map(verma, quotient, quotient.basis_vec(("e", j0)), depth,
                               window_span=False)
    report.record("quotient_relations", q_check.flags["relations_hold"], q_check.witness)
    report.record("quotient_injective", q_check.flags["injective_up_to_N"], q_check.witness)

    low = LowVermaModule(xi + 2 * j0 + 2)
    s_check = check_module_map(low, xbar, top, depth, window_span=False)
    report.record("submodule_relations", s_check.flags["relations_hold"], s_check.witness)
    report.record("submodule_injective", s_check.flags["injective_up_to_N"], s_check.witness)

    # window rank data: per weight xi + 2s the quotient piece carries
    # dimension 1 for s <= j0 and 0 above; the submodule complements it.
    quot_weights = Counter(map(quotient.key_weight, quotient.basis_keys(depth)))
    sub_weights = Counter(map(low.key_weight, range(depth - j0)))
    expected = {s: {"quotient": int(s <= j0), "sub": int(s > j0)}
                for s in range(-depth, depth + 1)}
    found = {s: {"quotient": quot_weights[xi + 2 * s], "sub": sub_weights[xi + 2 * s]}
             for s in expected}
    report.scan("window_ranks_match",
                ({"kind": "window_ranks_match", "s": s, "expected": expected[s],
                  "found": found[s]} for s in expected if found[s] != expected[s]))
    report.extra["pieces"] = {
        "quotient": {"family": "Verma", "delta": (xi + 2 * j0).to_json()},
        "sub": {"family": "LowVerma", "delta": (xi + 2 * j0 + 2).to_json()},
    }
    return report


# -- restriction suites ---------------------------------------------------------


def _twisted_target(inner: Module, aut: Automorphism, report: Report) -> TwistModule:
    """The predicted target inner twisted by aut^-1; its JSON goes into
    the report as ``target``."""
    report.extra["target"] = {"family": "Twist",
                              "inner": {"family": inner.family, **inner.params_json()},
                              "aut": f"{aut.tag}^-1"}
    return TwistModule(inner, aut.inverse())


def _record_map(report: Report, mc: Report) -> None:
    """Record every flag of the map check mc, with its witness."""
    for flag, ok in mc.flags.items():
        report.record(flag, ok, mc.witness)


def suite_restriction(mu: MuData, depth: int = 6) -> Report:
    """Identify the polynomial-subalgebra module as a twisted sl2 module.

    Degree 1 gives a twisted highest weight Verma module (with the
    Casimir acting by the predicted square), a double root gives a
    twisted e-induced module W, distinct roots give a twisted X, and
    degree 3 gives a free module: all depth-N shadows checked exactly.
    """
    k = mu.degree
    vp = VirPolyModule(mu, depth)
    report = _scoped_report("restriction", mu.to_json(), depth)
    report.extra["mu_is_zero"] = mu.is_zero()

    if k == 1:
        lam = mu.roots[0][0]
        aut = Automorphism.gamma(lam)
        delta = mu_eval(mu, embed_sl2(aut.apply(H)))
        report.compare("parameter_formula_consistent", mu.value_at(0) * 2 / lam, delta)
        target_mod = _twisted_target(VermaModule(delta), aut, report)
        scalar = (delta + 1) ** 2
        gen = vp.generator()
        report.compare("casimir_scalar_matches", gen.scale(scalar), casimir_action(vp, gen))
        report.extra["casimir_scalar"] = scalar.to_json()
    elif k == 2 and len(mu.roots) == 1:
        lam = mu.roots[0][0]
        aut = Automorphism.gamma(lam)
        eta = mu_eval(mu, embed_sl2(aut.apply(E)))
        report.compare("parameter_formula_consistent", mu.value_at(-1), eta)
        target_mod = _twisted_target(WModule(eta), aut, report)
        if eta.is_zero():
            report.extra["target_note"] = "non-Whittaker induced (eta = 0)"
    elif k == 2:
        lam1, lam2 = mu.roots[0][0], mu.roots[1][0]
        aut = Automorphism.gamma2(lam1, lam2)
        xi = mu_eval(mu, embed_sl2(aut.apply(H)))
        shifted = VirElt.from_laurent(mu.poly().shift(-1))
        report.compare("parameter_formula_consistent",
                       mu_eval(mu, shifted) * (-2) / (lam2 - lam1), xi)
        target_mod = _twisted_target(XModule(xi), aut, report)
    else:
        # degree 3: the restriction is free of rank one, so vp is its own
        # target: the images of all PBW monomials of degree < depth,
        # computed through the Virasoro action path, are independent and
        # span the window
        report.extra["target"] = {"family": "free", "description": "free of rank 1 over U(sl2)"}
        mc = check_module_map(vp, vp, vp.generator(), depth - 1, lift=embed_sl2)
        report.extra["independent_images"] = mc.rank
    if k < 3:
        mc = check_module_map(vp, target_mod, target_mod.generator(), depth)

    _record_map(report, mc)
    return report


def suite_tensor_vermas(lam1, lam2, mu1, mu2, depth: int = 5) -> Report:
    """Identify a tensor of two differently-twisted Verma modules.

    (a) sl2 level: the tensor of generators is an eigenvector for
    gamma2(lam1, lam2)(h) with eigenvalue mu1 - mu2, and the map from the
    twisted X(mu1 - mu2) checks out on the window.  (b) Virasoro level:
    the tensor of the two degree-1 polynomial-module generators satisfies
    the degree-2 subalgebra relations of the summed character.
    """
    lam1, lam2 = Scalar.of(lam1), Scalar.of(lam2)
    mu1, mu2 = Scalar.of(mu1), Scalar.of(mu2)
    if lam1.is_zero() or lam2.is_zero() or lam1 == lam2:
        raise InvalidParameter("parameters must be nonzero and distinct")
    params = {"lambda1": lam1.to_json(), "lambda2": lam2.to_json(),
              "mu1": mu1.to_json(), "mu2": mu2.to_json()}
    report = _scoped_report("tensor_vermas", params, depth)

    aut12 = Automorphism.gamma2(lam1, lam2)
    # the report names the target X^(aut12^-1); as Hom(X^(aut12^-1), T) = Hom(X, T^(aut12)),
    # the map is checked from X into the tensor twisted by aut12
    src = _twisted_target(XModule(mu1 - mu2), aut12, report).inner
    tensor = TensorModule(
        TwistModule(VermaModule(mu1), Automorphism.gamma(lam1).inverse()),
        TwistModule(VermaModule(mu2), Automorphism.gamma(lam2).inverse()),
    )
    gen = tensor.generator()
    report.compare("generator_is_twisted_eigenvector",
                   gen.scale(mu1 - mu2), tensor.act(aut12.apply(H), gen))
    dst = TwistModule(tensor, aut12)
    _record_map(report, check_module_map(src, dst, dst.generator(), depth))

    # Virasoro level: characters mu~_i(t - lam_i) = mu_i lam_i / 2, and the
    # summed character on the degree-2 subalgebra of (t-lam1)(t-lam2)
    m1t = mu1 * lam1 / 2
    m2t = mu2 * lam2 / 2
    vir_tensor = TensorModule(
        VirPolyModule(MuData(((lam1, 1),), ((m1t,),)), 3),
        VirPolyModule(MuData(((lam2, 1),), ((m2t,),)), 3),
    )
    vgen = vir_tensor.generator()
    summed = MuData(((lam1, 1), (lam2, 1)),
                    ((m1t * (lam1 - lam2),), (m2t * (lam2 - lam1),)))
    report.scan("vir_relations_hold",
                ({"kind": "vir_relation_failure", "shift": i} for i in range(-depth, depth + 1)
                 if vir_tensor.act(VirElt.from_laurent(summed.poly().shift(i)), vgen)
                 != vgen.scale(summed.value_at(i))))
    return report


def suite_twist_induction(sub: SubalgebraClass1D, mu0, depth: int = 6) -> Report:
    """Identify the module induced from a one-dimensional subalgebra.

    ``mu0`` is the character value on the classifier's canonical
    generator (the automorphism image of e or h).  The induced module is
    built concretely as a left-ideal quotient and compared with the
    predicted twist of W(mu0) or X(mu0).
    """
    mu0 = Scalar.of(mu0)
    params = {"kind": sub.kind, "generator": sub.generator.to_json(),
              "mu0": mu0.to_json(), "aut": sub.aut.tag}
    report = _scoped_report("twist_induction", params, depth)
    src = InducedModule([(sub.generator, mu0)], depth)
    if sub.kind in ("n_lambda", "n_minus"):
        inner: Module = WModule(mu0)
        if mu0.is_zero():
            report.extra["target_note"] = "non-Whittaker induced (eta = 0)"
    else:
        inner = XModule(mu0)
    dst = _twisted_target(inner, sub.aut, report)
    _record_map(report, check_module_map(src, dst, dst.generator(), depth))
    return report
