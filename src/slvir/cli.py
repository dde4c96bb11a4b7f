"""Batch command line front end.

Verbs: act, classify, simplicity, weights, verify, report.  Output is
JSON by default (sorted keys, canonical scalar form) and is byte-for-byte
deterministic for a fixed command; pass --timing to include elapsed_ms.
Exit codes: 0 success, 1 when a verification suite fails (the report is
still emitted), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from functools import cache
from typing import Callable, NamedTuple

from .errors import InvalidParameter, SlvirError, bounded_depth, only_keys, required_keys
from .induced import MuData
from .lie import SL2Elt, VirElt, classify_subalgebra_1d, classify_subalgebra_2d
from .modules import make_module, weight_decompose
from .scalar import Scalar
from .verify import (
    simplicity_test,
    suite_dense,
    suite_restriction,
    suite_tensor_vermas,
    suite_twist_induction,
)

_FACTOR_RE = re.compile(r"\(t(?P<shift>[+-][^)]+)\)(?:\^(?P<power>\d+))?")


def parse_factored_poly(text: str) -> list:
    """Parse a factored polynomial like ``(t-1)^2(t-2)`` into root data; a
    space may stand only at the ends or next to a bracket, ^, + or -."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if re.search(r"[^ ()^+-] +[^ ()^+-]", s):
        raise ValueError(f"cannot parse polynomial {text!r}")
    s = s.replace(" ", "")
    if not s.startswith("("):
        s = f"({s})"
    roots = []
    pos = 0
    for m in _FACTOR_RE.finditer(s):
        if m.start() != pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        lam = -Scalar.parse(m.group("shift"))
        mult = int(m.group("power") or 1)
        roots.append((lam, mult))
        pos = m.end()
    if pos != len(s) or not roots:
        raise ValueError(f"cannot parse polynomial {text!r}")
    return roots


def parse_sl2(text: str) -> SL2Elt:
    """Parse comma-separated (e, h, f) coordinates."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("sl2 elements need three comma-separated coordinates")
    return SL2Elt(*(Scalar.parse(p) for p in parts))


def _pairs(terms, what: str) -> list:
    """``terms`` if it is a list of two-entry lists; else InvalidParameter
    naming the field, before any entry is unpacked."""
    if not (isinstance(terms, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in terms)):
        raise InvalidParameter(f"'terms' of {what} must be a list of [key, scalar] pairs, "
                               f"got {terms!r}")
    return terms


def parse_algebra_elt(text: str):
    s = text.strip()
    if s in ("e", "h", "f"):
        return SL2Elt(*(1 if s == n else 0 for n in ("e", "h", "f")))
    if s == "z":
        return VirElt.central()
    m = re.fullmatch(r"e_(-?\d+)", s)
    if m:
        return VirElt.e(int(m.group(1)))
    data = json.loads(s)
    if not isinstance(data, dict):
        raise ValueError(f"an element must be e|h|f|z|e_<n> or a JSON object, got {text!r}")
    if not data.keys() & {"terms", "z"}:
        only_keys(data, ("e", "h", "f"), "an sl2 element")
        return SL2Elt(data.get("e", 0), data.get("h", 0), data.get("f", 0))
    only_keys(data, ("terms", "z"), "a Virasoro element")
    terms = {}
    for i, c in _pairs(data.get("terms", []), "a Virasoro element"):
        # a JSON integer: 1.5 is not truncated, true is not read as 1
        if type(i) is not int:
            raise ValueError(f"a Virasoro index must be an integer, got {i!r}")
        if i in terms:
            raise ValueError(f"repeated Virasoro index {i}")
        terms[i] = Scalar.of(c)
    return VirElt(terms, Scalar.of(data.get("z", 0)))


def _emit(obj, args) -> None:
    indent = 2 if getattr(args, "text", False) else None
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=indent) + "\n")


def _run_classify(args) -> int:
    x = parse_sl2(args.x)
    result = classify_subalgebra_2d(x, parse_sl2(args.y)) if args.y else classify_subalgebra_1d(x)
    out = {"kind": result.kind, "automorphism": result.aut.tag,
           "params": [str(p) for p in result.params]}
    if not args.y:
        out["generator"] = result.generator.to_json()
    _emit(out, args)
    return 0


def _vec_from_json(module, text: str):
    """A list of [key, Scalar] pairs, or a ``modvec/1`` object of this module."""
    data = json.loads(text)
    terms = data
    if isinstance(data, dict):
        only_keys(data, ("schema", "family", "params", "terms"), "a vector")
        required_keys(data, ("terms",), "a vector")
        if data.get("schema", "modvec/1") != "modvec/1":
            raise InvalidParameter(f"a vector of schema {data['schema']!r}, not 'modvec/1'")
        theirs = json.dumps({"family": data.get("family", module.family),
                             "params": data.get("params", module.params_json())},
                            sort_keys=True)
        if theirs != module.signature():
            raise InvalidParameter(f"a vector of {theirs} given to the module {module}")
        terms = data["terms"]
    pairs = [(module.key_from_json(k), Scalar.of(c)) for k, c in _pairs(terms, "a vector")]
    coeffs: dict = {}
    for key, c in pairs:
        # before the key is hashed: one with a list inside is named, not unhashable
        module.validate_key(key)
        if key in coeffs:
            raise InvalidParameter(f"repeated key {module.key_json(key)!r} in a vector")
        coeffs[key] = c
    return module.vector(coeffs)


def _run_act(args) -> int:
    module = make_module(json.loads(args.module))
    vec = _vec_from_json(module, args.vec)
    elt = parse_algebra_elt(args.elt)
    result = module.act(elt, vec)
    _emit(result.to_json(), args)
    return 0


def _run_weights(args) -> int:
    module = make_module(json.loads(args.module))
    vec = _vec_from_json(module, args.vec)
    decomposition = weight_decompose(module, vec)
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["weight", "basis_key", "coefficient"])
        for weight, component in decomposition:
            for key, coeff in component.sorted_terms():
                writer.writerow([str(weight), json.dumps(module.key_json(key)),
                                 str(coeff)])
    else:
        out = [{"weight": w.to_json(),
                "terms": [[module.key_json(k), c.to_json()]
                          for k, c in comp.sorted_terms()]}
               for w, comp in decomposition]
        _emit(out, args)
    return 0


def _restriction_params(args) -> dict:
    """--poly with --p per root or --mu, as a restriction entry's params."""
    roots = parse_factored_poly(args.poly)
    if args.p:
        if len(args.p) != len(roots):
            raise ValueError("need one --p coefficient list per distinct root")
        polys = [[c for c in spec.split(",") if c != ""] for spec in args.p]
    elif args.mu is not None:
        if len(roots) != 1 or roots[0][1] != 1:
            raise ValueError("--mu shorthand only applies to a single simple root")
        polys = [[args.mu]]
    else:
        raise ValueError("give --mu (degree 1) or --p per root")
    return {"roots": roots, "polys": polys}


def _twist_induction(params: dict, depth: int):
    coords = params["x"]
    if isinstance(coords, str):
        x = parse_sl2(coords)
    elif isinstance(coords, list) and len(coords) == 3:
        x = SL2Elt(*coords)
    else:
        raise InvalidParameter(f"'x' of twist_induction params must be a string or a list "
                               f"of three scalars, got {coords!r}")
    return suite_twist_induction(classify_subalgebra_1d(x), params["mu0"], depth)


class _Suite(NamedTuple):
    """``run(params, depth)`` takes config-entry params and calls the suite
    function by its name here, looked up when it runs.  Each of ``flags``
    (argparse keywords by name) is the param of its name, unless
    ``from_flags`` maps them to ``config_keys``, the params a config entry
    takes; ``fallback`` is verify's default depth."""

    run: Callable
    flags: dict
    fallback: int = 6
    from_flags: Callable | None = None
    config_keys: tuple = ()


_REQUIRED = {"required": True}

# config-entry name -> suite; `slvir verify` spells the names with "-"
_SUITES = {
    "dense": _Suite(lambda p, d: suite_dense(p["xi"], p["tau"], d),
                    {"xi": _REQUIRED, "tau": _REQUIRED}),
    "restriction": _Suite(
        lambda p, d: suite_restriction(MuData.from_json(p), d),
        {"poly": {"required": True, "help": 'factored, e.g. "(t-1)^2"'},
         "mu": {"help": "character value on f (degree-1 shorthand)"},
         "p": {"action": "append", "help": "polynomial coefficients c0,c1,... (one per root)"}},
        from_flags=_restriction_params, config_keys=("roots", "polys")),
    "tensor_vermas": _Suite(
        lambda p, d: suite_tensor_vermas(p["lambda1"], p["lambda2"], p["mu1"], p["mu2"], d),
        dict.fromkeys(("lambda1", "lambda2", "mu1", "mu2"), _REQUIRED), fallback=5),
    "twist_induction": _Suite(
        _twist_induction,
        {"x": {"required": True, "help": "e,h,f coordinates of the span"},
         "mu0": {"required": True, "help": "character value on the canonical generator"}}),
    # a verdict that takes no depth, run by `slvir simplicity`
    "simplicity": _Suite(lambda p, d: simplicity_test(p["xi"], p["tau"]),
                         {"xi": _REQUIRED, "tau": _REQUIRED}),
}


def _suite_depth(source: dict, fallback: int = 6) -> int:
    """The one depth rule: source["depth"] (--depth, or a config entry's
    key), else SLVIR_DEPTH, else ``fallback``; an integer in 1..MAX_DEPTH,
    else invalid input naming where it came from."""
    if "depth" in source:
        return bounded_depth(source["depth"], "depth")
    value = os.environ.get("SLVIR_DEPTH", "")
    if not value:
        return fallback
    if not re.fullmatch(r"[0-9]+", value):
        raise ValueError(f"SLVIR_DEPTH must be a positive integer, got {value!r}")
    return bounded_depth(int(value), "SLVIR_DEPTH")


def _run_suite(name: str, params, depth: int):
    """The one place where a suite runs, for every verb."""
    return _SUITES[name].run(params, depth)


def _run_suite_verb(args) -> int:
    """`slvir verify <suite>` and `slvir simplicity`: exit 1 if a flag fails."""
    suite = _SUITES[args.suite_name]
    depth = _suite_depth(vars(args), suite.fallback)
    params = suite.from_flags(args) if suite.from_flags \
        else {flag: getattr(args, flag) for flag in suite.flags}
    t0 = time.perf_counter()
    report = _run_suite(args.suite_name, params, depth)
    elapsed = int((time.perf_counter() - t0) * 1000) if args.timing else None
    _emit(report.to_json(elapsed_ms=elapsed), args)
    return 0 if report.all_ok else 1


def _run_report(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or not isinstance(config.get("suites", None), list):
        raise ValueError("config must be an object with a 'suites' list")
    only_keys(config, ("suites", "parallel"), "a config")
    if not isinstance(config.get("parallel", False), bool):
        raise InvalidParameter(f"'parallel' of a config must be a JSON bool, "
                               f"got {config['parallel']!r}")
    entries = config["suites"]
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"config suite entry {entry!r} is not an object")
        only_keys(entry, ("name", "params", "depth"), "a config suite entry")
        suite = _SUITES.get(entry.get("name"))
        if suite is None:
            raise ValueError(f"unknown suite name in config: {entry.get('name')!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"config suite params must be a JSON object, got {params!r}")
        what = f"{entry['name']} params"
        only_keys(params, suite.config_keys or suite.flags, what)
        required_keys(params, suite.config_keys
                      or [flag for flag, kw in suite.flags.items() if kw.get("required")], what)
    depths = [_suite_depth(e, _SUITES[e["name"]].fallback) for e in entries]
    # the suites are bound by the interpreter lock, so a "parallel" key is
    # accepted but ignored: they run one after another
    reports = [_run_suite(e["name"], e.get("params", {}), d) for e, d in zip(entries, depths)]
    payload = sorted(
        (r.to_json() for r in reports),
        key=lambda rep: (rep["suite"], json.dumps(rep["params"], sort_keys=True)),
    )
    all_ok = all(r.all_ok for r in reports)
    _emit({"schema": "report/1", "reports": payload, "all_ok": all_ok}, args)
    return 0 if all_ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; a missing --depth
    is resolved from SLVIR_DEPTH when the suite runs."""
    parser = argparse.ArgumentParser(
        prog="slvir",
        description="exact sl2/Virasoro module computations and verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", default=True,
                       help="JSON output (default)")
        p.add_argument("--text", action="store_true", help="indented output")
        p.add_argument("--timing", action="store_true",
                       help="include elapsed_ms in reports")

    def suite_flags(p, name):
        for flag, keywords in _SUITES[name].flags.items():
            p.add_argument(f"--{flag}", **keywords)
        common(p)
        p.set_defaults(func=_run_suite_verb, suite_name=name)

    suite_flags(sub.add_parser("simplicity", help="irreducibility of a dense module"),
                "simplicity")

    p = sub.add_parser("classify", help="classify a subalgebra span")
    p.add_argument("--x", required=True, help="e,h,f coordinates")
    p.add_argument("--y", help="second element for a two-dimensional span")
    common(p)
    p.set_defaults(func=_run_classify)

    p = sub.add_parser("act", help="apply an algebra element to a vector")
    p.add_argument("--module", required=True, help="module handle JSON")
    p.add_argument("--elt", required=True, help="e|h|f|z|e_<n> or element JSON")
    p.add_argument("--vec", required=True, help="vector terms JSON")
    common(p)
    p.set_defaults(func=_run_act)

    p = sub.add_parser("weights", help="weight decomposition of a vector")
    p.add_argument("--module", required=True)
    p.add_argument("--vec", required=True)
    p.add_argument("--csv", action="store_true", help="CSV rows")
    common(p)
    p.set_defaults(func=_run_weights)

    p = sub.add_parser("verify", help="run one verification suite")
    vsub = p.add_subparsers(dest="suite", required=True)

    for name in _SUITES:
        if name != "simplicity":
            q = vsub.add_parser(name.replace("_", "-"))
            # absent unless given, so that the depth rule falls back
            q.add_argument("--depth", type=int, default=argparse.SUPPRESS)
            suite_flags(q, name)

    p = sub.add_parser("report", help="run a batch of suites from a config file")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=_run_report)

    return parser


def main(argv=None) -> int:
    try:
        # an invalid SLVIR_DEPTH is invalid input to every command
        _suite_depth({})
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (SlvirError, ValueError, KeyError, TypeError, IndexError,
            OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
