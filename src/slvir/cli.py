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

from .errors import SlvirError, positive_int
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


def _default_depth(fallback: int = 6) -> int:
    """The depth from SLVIR_DEPTH (a positive integer), else ``fallback``."""
    value = os.environ.get("SLVIR_DEPTH", "")
    if not value:
        return fallback
    if not re.fullmatch(r"[0-9]+", value) or int(value) < 1:
        raise ValueError(f"SLVIR_DEPTH must be a positive integer, got {value!r}")
    return int(value)


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
    if "terms" in data:
        return VirElt({int(i): Scalar.of(c) for i, c in data["terms"]},
                      Scalar.of(data.get("z", 0)))
    return SL2Elt(Scalar.of(data.get("e", 0)), Scalar.of(data.get("h", 0)),
                  Scalar.of(data.get("f", 0)))


def _emit(obj, args) -> None:
    if getattr(args, "text", False):
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _finish_report(report, args) -> int:
    elapsed = getattr(args, "_elapsed_ms", None) if args.timing else None
    _emit(report.to_json(elapsed_ms=elapsed), args)
    return 0 if report.all_ok else 1


def _mu_from_args(args) -> MuData:
    roots = parse_factored_poly(args.poly)
    if args.p:
        if len(args.p) != len(roots):
            raise ValueError("need one --p coefficient list per distinct root")
        polys = tuple(tuple(Scalar.parse(c) for c in spec.split(",") if c != "")
                      for spec in args.p)
    elif args.mu is not None:
        if len(roots) != 1 or roots[0][1] != 1:
            raise ValueError("--mu shorthand only applies to a single simple root")
        polys = ((Scalar.parse(args.mu),),)
    else:
        raise ValueError("give --mu (degree 1) or --p per root")
    return MuData(tuple(roots), polys)


def _run_verify(args) -> int:
    depth = _default_depth(args.fallback_depth) if args.depth is None else args.depth
    if depth < 1:
        raise ValueError("depth must be at least 1")
    t0 = time.perf_counter()
    if args.suite == "dense":
        report = suite_dense(Scalar.parse(args.xi), Scalar.parse(args.tau), depth)
    elif args.suite == "restriction":
        report = suite_restriction(_mu_from_args(args), depth)
    elif args.suite == "tensor-vermas":
        report = suite_tensor_vermas(
            Scalar.parse(args.lambda1), Scalar.parse(args.lambda2),
            Scalar.parse(args.mu1), Scalar.parse(args.mu2), depth)
    elif args.suite == "twist-induction":
        sub = classify_subalgebra_1d(parse_sl2(args.x))
        report = suite_twist_induction(sub, Scalar.parse(args.mu0), depth)
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    args._elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return _finish_report(report, args)


def _run_simplicity(args) -> int:
    t0 = time.perf_counter()
    report = simplicity_test(Scalar.parse(args.xi), Scalar.parse(args.tau))
    args._elapsed_ms = int((time.perf_counter() - t0) * 1000)
    elapsed = args._elapsed_ms if args.timing else None
    _emit(report.to_json(elapsed_ms=elapsed), args)
    return 0


def _run_classify(args) -> int:
    x = parse_sl2(args.x)
    if args.y:
        result = classify_subalgebra_2d(x, parse_sl2(args.y))
        out = {"kind": result.kind, "automorphism": result.aut.tag,
               "params": [str(p) for p in result.params]}
    else:
        result = classify_subalgebra_1d(x)
        out = {"kind": result.kind, "automorphism": result.aut.tag,
               "generator": result.generator.to_json(),
               "params": [str(p) for p in result.params]}
    _emit(out, args)
    return 0


def _vec_from_json(module, text: str):
    data = json.loads(text)
    terms = data["terms"] if isinstance(data, dict) else data
    mapping = {}
    for key_json, coeff in terms:
        key = module.key_from_json(key_json)
        mapping[key] = Scalar.of(coeff) if not isinstance(coeff, list) \
            else Scalar.from_json(coeff)
    return module.vector(mapping)


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


_CONFIG_SUITES = {"dense", "restriction", "tensor_vermas", "twist_induction",
                  "simplicity"}


def _config_depth(entry: dict) -> int:
    """An entry's depth: a JSON integer (not a bool) >= 1, else SLVIR_DEPTH."""
    if "depth" not in entry:
        return _default_depth()
    return positive_int(entry["depth"], "config depth")


def _run_config_entry(entry: dict, depth: int):
    name = entry["name"]
    params = entry.get("params", {})
    if name == "dense":
        return suite_dense(Scalar.of(params["xi"]), Scalar.of(params["tau"]), depth)
    if name == "simplicity":
        return simplicity_test(Scalar.of(params["xi"]), Scalar.of(params["tau"]))
    if name == "restriction":
        mu = MuData(
            tuple((Scalar.of(lam), m) for lam, m in params["roots"]),
            tuple(tuple(Scalar.of(c) for c in p) for p in params["polys"]),
        )
        return suite_restriction(mu, depth)
    if name == "tensor_vermas":
        return suite_tensor_vermas(
            Scalar.of(params["lambda1"]), Scalar.of(params["lambda2"]),
            Scalar.of(params["mu1"]), Scalar.of(params["mu2"]), depth)
    if name == "twist_induction":
        coords = params["x"]
        x = parse_sl2(coords) if isinstance(coords, str) \
            else SL2Elt(*(Scalar.of(c) for c in coords))
        return suite_twist_induction(classify_subalgebra_1d(x),
                                     Scalar.of(params["mu0"]), depth)
    raise ValueError(f"unknown suite {name!r}")


def _run_report(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or not isinstance(config.get("suites", None), list):
        raise ValueError("config must be an object with a 'suites' list")
    entries = config["suites"]
    for entry in entries:
        if not isinstance(entry, dict) or entry.get("name") not in _CONFIG_SUITES:
            raise ValueError(f"unknown suite name in config: {entry.get('name')!r}")
    depths = [_config_depth(e) for e in entries]
    # the suites are bound by the interpreter lock, so a "parallel" key is
    # accepted but ignored: they run one after another
    reports = [_run_config_entry(e, d) for e, d in zip(entries, depths)]
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

    p = sub.add_parser("simplicity", help="irreducibility of a dense module")
    p.add_argument("--xi", required=True)
    p.add_argument("--tau", required=True)
    common(p)
    p.set_defaults(func=_run_simplicity)

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

    q = vsub.add_parser("dense")
    q.add_argument("--xi", required=True)
    q.add_argument("--tau", required=True)
    q.add_argument("--depth", type=int)
    common(q)
    q.set_defaults(func=_run_verify, fallback_depth=6)

    q = vsub.add_parser("restriction")
    q.add_argument("--poly", required=True, help='factored, e.g. "(t-1)^2"')
    q.add_argument("--mu", help="character value on f (degree-1 shorthand)")
    q.add_argument("--p", action="append",
                   help="polynomial coefficients c0,c1,... (one per root)")
    q.add_argument("--depth", type=int)
    common(q)
    q.set_defaults(func=_run_verify, fallback_depth=6)

    q = vsub.add_parser("tensor-vermas")
    q.add_argument("--lambda1", required=True)
    q.add_argument("--lambda2", required=True)
    q.add_argument("--mu1", required=True)
    q.add_argument("--mu2", required=True)
    q.add_argument("--depth", type=int)
    common(q)
    q.set_defaults(func=_run_verify, fallback_depth=5)

    q = vsub.add_parser("twist-induction")
    q.add_argument("--x", required=True, help="e,h,f coordinates of the span")
    q.add_argument("--mu0", required=True,
                   help="character value on the canonical generator")
    q.add_argument("--depth", type=int)
    common(q)
    q.set_defaults(func=_run_verify, fallback_depth=6)

    p = sub.add_parser("report", help="run a batch of suites from a config file")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=_run_report)

    return parser


def main(argv=None) -> int:
    try:
        # an invalid SLVIR_DEPTH is invalid input to every command
        _default_depth()
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
