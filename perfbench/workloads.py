"""The benchmark's two workloads: seeded inputs, the checks, and their judges.

A workload is built from a seed and from ``sl``, the freshly imported slvir
package (with ``sl.cli`` loaded).  It exposes:

- ``setup()``: handle construction and warm-up, timed as part of ``setup_s``;
- ``item(k)``: the k-th input of the closed loop, a pure function of the seed;
- ``check(item)``: the call into slvir whose latency is measured;
- ``judge(item, out)``: compares the output with the oracle's known answer
  and returns whether the verdict is right;
- ``payload(out)``: the canonical text of the emitted verdict, which feeds
  the determinism digest.

``cycle`` is the number of items after which the input mix repeats its
composition; a run stops only at a cycle boundary, so every run measures
the same mix whatever the seed.  ``digest_checks`` items are always run,
and the digest covers exactly those, so it is comparable between runs of
one seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from oracle import (
    G,
    dense_expect,
    induction_expect,
    restriction_expect,
    simplicity_expect,
    subalgebra_kind,
)

# Parameter pools.  A check's cost depends on its parameters: on this
# Fraction backend a depth-6 split-roots restriction costs between 50k and
# 86k Fraction operations depending on the roots and polynomials drawn.
# Each check kind therefore draws from parameter sets of equal cost (counted
# in Fraction operations, equal to within 0.3% at depth 6), and the seed
# picks signs, order and which of those sets each check gets.  Runs on
# different seeds then measure the same amount of work.  Non-real values
# are drawn only where a workload says so.
SMALL = [G(1), G(-1), G(2), G(-2)]
GAUSS = [G(0, 1), G(0, -1)]
REAL_XI = [G(0), G(1), G(-1), G(2), G("1/2")]
NONREAL_XI = [G(0, 1), G(1, 1)]
DENSE_XI = REAL_XI + NONREAL_XI
GENERIC_TAU = [G(2), G(3), G(5), G(7), G("1/3"), G(-2)]
# double root at +-2 with these (p0, p1)
DOUBLE_POLYS = [(G(a), G(b)) for a, b in
                ((1, -2), (-1, -2), (2, 1), (2, -1), (1, 2), (-2, -1), (-1, 2), (-2, 1))]
# split roots c and -c with constant terms (a, b): a != b, and {a, b} != {2, -2}
SPLIT_POLYS = [(a, b) for a in SMALL for b in SMALL
               if a != b and {a.text(), b.text()} != {"2", "-2"}]
TWIST_KINDS = ("n_lambda", "n_minus", "h_lambda", "h_pair")


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _flags_ok(report_json: dict) -> bool:
    return all(report_json.get("flags", {}).values())


class _Workload:
    """Shared plumbing; subclasses set name, cycle, digest_checks and
    calibration_checks, and define the methods listed above."""

    def __init__(self, sl, seed: int, scratch_dir: str):
        self.sl = sl
        self.seed = seed
        self.scratch_dir = scratch_dir
        self._items: list = []

    def item(self, k: int):
        while len(self._items) <= k:
            self._items.extend(self._make_cycle(len(self._items) // self.cycle))
        return self._items[k]

    def _rng(self, *salt) -> random.Random:
        return random.Random(_canon([self.name, self.seed, *salt]))

    def _scalar(self, g: G):
        return self.sl.Scalar.parse(g.text())


# -- induced-deep ------------------------------------------------------------------


def _draw_restriction(rng, kind, gaussian=False):
    """(roots, polys) as oracle values for one restriction kind.

    Degree 1: lam from SMALL and m = lam (delta = 2), or with ``gaussian``
    lam = +-i and m from SMALL (delta non-real).  Double root: lam = +-2
    with (p0, p1) from DOUBLE_POLYS.  Split roots: c and -c with c = +-2 and
    constant terms from SPLIT_POLYS.  No predicted parameter is 0.
    """
    if kind == "deg1":
        if gaussian:
            return [(rng.choice(GAUSS), 1)], [[rng.choice(SMALL)]]
        lam = rng.choice(SMALL)
        return [(lam, 1)], [[lam]]
    c = rng.choice([G(2), G(-2)])
    if kind == "double":
        return [(c, 2)], [list(rng.choice(DOUBLE_POLYS))]
    a, b = rng.choice(SPLIT_POLYS)
    return [(c, 1), (-c, 1)], [[a], [b]]


def _draw_twist(rng, sub_kind):
    """(e, h, f) coordinates of a span of the given kind, and mu0.

    mu0 is 1 except for n_minus, whose cost does not depend on it; n_lambda
    has beta in {-1, -2}, and h_pair the roots c and -c (beta = 0).
    """
    s = rng.choice([G(1), G(-1)])
    mu0 = G(1)
    if sub_kind == "n_lambda":
        beta = rng.choice([G(-1), G(-2)])
        coords = (s, -beta * s, -(beta * beta) * s)
    elif sub_kind == "n_minus":
        coords = (G(0), G(0), s)
        mu0 = rng.choice(SMALL)
    elif sub_kind == "h_lambda":
        coords = (G(0), s, -(s * rng.choice(SMALL)))
    else:
        c = rng.choice([G(1), G(2)])
        coords = (s, G(0), c * c * s)
    return coords, mu0


class InducedDeep(_Workload):
    """Restriction and twist-induction checks at depths 6, 8 and 10.

    Every cycle holds the same 13 checks, in a seeded order: at each depth
    a degree-1, a double-root and a split-roots restriction, and twist
    inductions of subkind n_minus (depth 6), h_pair (8), n_lambda and
    h_lambda (10).  Four of them are negative controls, one per target
    family and one per depth at least, and the depth-6 degree-1 check has a
    non-real root.  The seed picks the order and every parameter.
    """

    name = "induced-deep"
    # (depth, kind, negative control?)
    MIX = (
        (6, "deg1", False), (6, "double", True), (6, "split", False), (6, "n_minus", False),
        (8, "deg1", False), (8, "double", False), (8, "split", True), (8, "h_pair", False),
        (10, "deg1", True), (10, "double", False), (10, "split", False),
        (10, "n_lambda", False), (10, "h_lambda", True),
    )
    cycle = len(MIX)
    digest_checks = len(MIX)
    calibration_checks = 3

    def _make_cycle(self, c):
        rng = self._rng("cycle", c)
        items = []
        for depth, kind, negative in rng.sample(self.MIX, len(self.MIX)):
            item = {"kind": kind, "depth": depth, "negative": negative}
            if kind in TWIST_KINDS:
                item["coords"], item["mu0"] = _draw_twist(rng, kind)
                found = subalgebra_kind(*item["coords"])
                item["expect"] = {**induction_expect(found, item["mu0"]), "kind": found}
            else:
                item["roots"], item["polys"] = _draw_restriction(
                    rng, kind, gaussian=(depth, kind) == (6, "deg1"))
                item["expect"] = restriction_expect(item["roots"], item["polys"])
            items.append(item)
        return items

    def setup(self):
        # warm-up: one shallow check of each family
        rng = self._rng("warmup")
        for kind in ("deg1", "double", "split", "h_pair"):
            warm = {"kind": kind, "depth": 4, "negative": False}
            if kind in TWIST_KINDS:
                warm["coords"], warm["mu0"] = _draw_twist(rng, kind)
            else:
                warm["roots"], warm["polys"] = _draw_restriction(rng, kind)
            self.check(warm)

    def _mu(self, item):
        sl = self.sl
        roots = tuple((self._scalar(lam), n) for lam, n in item["roots"])
        polys = tuple(tuple(self._scalar(c) for c in p) for p in item["polys"])
        return sl.MuData(roots, polys)

    def check(self, item):
        sl = self.sl
        depth = item["depth"]
        if item["kind"] in TWIST_KINDS:
            sub = sl.classify_subalgebra_1d(sl.SL2Elt(*(self._scalar(c) for c in item["coords"])))
            mu0 = self._scalar(item["mu0"])
            if not item["negative"]:
                return sl.suite_twist_induction(sub, mu0, depth)
            src = sl.InducedModule([(sub.generator, mu0)], depth)
            inner_cls = sl.WModule if sub.kind in ("n_lambda", "n_minus") else sl.XModule
            dst = sl.TwistModule(inner_cls(mu0 + 1), sub.aut.inverse())
            return sl.check_module_map(src, dst, dst.generator(), depth)
        mu = self._mu(item)
        if not item["negative"]:
            return sl.suite_restriction(mu, depth)
        # negative control: the predicted target with its parameter moved by one
        src = sl.VirPolyModule(mu, depth)
        param = self._scalar(item["expect"]["param"][1]) + 1
        lams = [self._scalar(lam) for lam, _ in item["roots"]]
        if item["kind"] == "deg1":
            inner, aut = sl.VermaModule(param), sl.Automorphism.gamma(lams[0])
        elif item["kind"] == "double":
            inner, aut = sl.WModule(param), sl.Automorphism.gamma(lams[0])
        else:
            inner, aut = sl.XModule(param), sl.Automorphism.gamma2(lams[0], lams[1])
        dst = sl.TwistModule(inner, aut.inverse())
        return sl.check_module_map(src, dst, dst.generator(), depth)

    def judge(self, item, report):
        out = report.to_json()
        expect = item["expect"]
        if item["negative"]:
            return (out["flags"]["relations_hold"] is False
                    and out.get("witness") is not None)
        family, (pname, pval) = expect["family"], expect["param"]
        ok = (report.all_ok and _flags_ok(out)
              and out["target"]["inner"] == {"family": family, pname: pval.json()})
        if item["kind"] == "deg1":
            ok = ok and out["casimir_scalar"] == expect["casimir_scalar"].json()
        if item["kind"] in TWIST_KINDS:
            ok = ok and out["params"]["kind"] == expect["kind"]
        return ok

    @staticmethod
    def payload(report) -> str:
        return _canon(report.to_json())

    @staticmethod
    def label(item) -> str:
        return f"depth{item['depth']}"


# -- batch-report --------------------------------------------------------------------


class BatchReport(_Workload):
    """In-process ``slvir report --config`` on seeded 8-suite configs.

    Every config has the composition of configs/sample-suites.json: two
    dense suites (one irreducible branch, one composition series), three
    depth-6 restrictions (degree 1, double root, split roots), a depth-5
    tensor of twisted Vermas, a depth-6 twist induction and a simplicity
    verdict, with ``"parallel": true`` as shipped.  The irreducible dense
    suite has a non-real xi and the series one a real xi, and the tensor's
    mu1 and mu2 are 1 or 2, so that every config of a cycle costs the same
    on every seed (see the parameter pools).
    """

    name = "batch-report"
    cycle = 4  # twist-induction subkinds rotate over four configs
    digest_checks = 4
    calibration_checks = 2

    def item(self, c: int):
        rng = self._rng("config", c)
        suites, expects = [], []

        def add(entry, expect):
            suites.append(entry)
            expects.append(expect)

        add(*self._dense(rng, series=False, xi_pool=NONREAL_XI))
        add(*self._dense(rng, series=True, xi_pool=REAL_XI))
        for kind in ("deg1", "double", "split"):
            roots, polys = _draw_restriction(rng, kind)
            params = {"roots": [[lam.text(), n] for lam, n in roots],
                      "polys": [[g.text() for g in p] for p in polys]}
            match = {"roots": [[lam.json(), n] for lam, n in roots],
                     "polys": [[g.json() for g in p] for p in polys]}
            add({"name": "restriction", "params": params, "depth": 6},
                {"suite": "restriction", "match": match,
                 **restriction_expect(roots, polys)})
        lam1, lam2 = rng.sample(SMALL, 2)
        mu1, mu2 = rng.choice([G(1), G(2)]), rng.choice([G(1), G(2)])
        tparams = {"lambda1": lam1, "lambda2": lam2, "mu1": mu1, "mu2": mu2}
        add({"name": "tensor_vermas", "params": {k: g.text() for k, g in tparams.items()},
             "depth": 5},
            {"suite": "tensor_vermas", "match": {k: g.json() for k, g in tparams.items()},
             "family": "X", "param": ("xi", mu1 - mu2)})
        coords, mu0 = _draw_twist(rng, TWIST_KINDS[c % 4])
        kind = subalgebra_kind(*coords)
        add({"name": "twist_induction",
             "params": {"x": ",".join(g.text() for g in coords), "mu0": mu0.text()},
             "depth": 6},
            {"suite": "twist_induction", "match": {"mu0": mu0.json(), "kind": kind},
             **induction_expect(kind, mu0)})
        xi = rng.choice(DENSE_XI)
        if rng.random() < 0.5:
            tau = xi + (2 * rng.randrange(-5, 6) + 1)
            tau = tau * tau
        else:
            tau = rng.choice(GENERIC_TAU)
        add({"name": "simplicity", "params": {"xi": xi.text(), "tau": tau.text()}},
            {"suite": "simplicity", "match": {"xi": xi.json(), "tau": tau.json()},
             **simplicity_expect(xi, tau)})
        return {"config": {"suites": suites, "parallel": True}, "expects": expects,
                "path": os.path.join(self.scratch_dir, f"config-{c}.json")}

    @staticmethod
    def _dense(rng, series, xi_pool):
        while True:
            xi = rng.choice(xi_pool)
            if series:
                w = xi + (2 * rng.randrange(0, 5) + 1)
                tau = w * w
            else:
                tau = rng.choice(GENERIC_TAU)
            try:
                expect = dense_expect(xi, tau, 6)
            except ValueError:
                continue  # j0 beyond the depth-6 domain of the suite
            if (expect["branch"] == "composition_series") == series:
                break
        entry = {"name": "dense", "params": {"xi": xi.text(), "tau": tau.text()}, "depth": 6}
        return entry, {"suite": "dense", "match": {"xi": xi.json(), "tau": tau.json()},
                       **expect}

    def setup(self):
        # warm-up: a one-suite report through the same entry point
        warm = {"config": {"suites": [{"name": "simplicity",
                                       "params": {"xi": "0", "tau": "9"}}]},
                "path": os.path.join(self.scratch_dir, "warmup.json")}
        self.check(warm)

    def check(self, item):
        with open(item["path"], "w", encoding="utf-8") as handle:
            json.dump(item["config"], handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sl.cli.main(["report", "--config", item["path"]])
        return code, out.getvalue(), err.getvalue()

    def judge(self, item, out):
        code, stdout, _ = out
        if code != 0:
            return False
        data = json.loads(stdout)
        reports = list(data["reports"])
        ok = data["all_ok"] is True and len(reports) == len(item["expects"])
        for expect in item["expects"]:
            found = next((r for r in reports if _report_matches(r, expect)), None)
            if found is None:
                return False
            reports.remove(found)
            ok = ok and _report_ok(found, expect)
        return ok

    @staticmethod
    def payload(out) -> str:
        return out[1]

    @staticmethod
    def label(item) -> str:
        return "report"


def _report_matches(report: dict, expect: dict) -> bool:
    if report["suite"] != expect["suite"]:
        return False
    params = report["params"]
    return all(params.get(k) == v for k, v in expect["match"].items())


def _report_ok(report: dict, expect: dict) -> bool:
    suite = expect["suite"]
    if suite == "simplicity":
        return (report["irreducible"] is expect["irreducible"]
                and report.get("witness_i") == expect["witness_i"])
    if not _flags_ok(report):
        return False
    if suite == "dense":
        ok = report["branch"] == expect["branch"] and report.get("j0") == expect["j0"]
        if expect["j0"] is not None:
            ok = ok and report["pieces"]["quotient"]["delta"] == expect["quotient_delta"].json() \
                and report["pieces"]["sub"]["delta"] == expect["sub_delta"].json()
        return ok and report["filtration_strict_to"] == 3
    family, (pname, pval) = expect["family"], expect["param"]
    ok = report["target"]["inner"] == {"family": family, pname: pval.json()}
    if "casimir_scalar" in expect:
        ok = ok and report["casimir_scalar"] == expect["casimir_scalar"].json()
    return ok


WORKLOADS = {cls.name: cls for cls in (InducedDeep, BatchReport)}
