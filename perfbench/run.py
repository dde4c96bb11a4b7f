"""slvir verification benchmark: one closed-loop client driving slvir's API.

Usage (from the repository root):

    python3 perfbench/run.py --workload induced-deep --seed 1 --seconds 50 --trace 0

Workloads are defined in workloads.py and documented in README.md.  The
run imports slvir from ``src/`` next to this directory, sets up (import,
handle construction, warm-up) several times and reports the median, then
issues seeded checks one after another in whole input cycles, ending at
the cycle boundary nearest to ``--seconds``.  Every verdict is compared with the answer
from oracle.py.

Standard output ends with two lines: ``detail {...}`` (run metadata,
sample counts, determinism digest and diagnostics) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the layers of slvir
are wrapped (tracing.py) and the metrics are per-layer means per check.

The end-to-end times are scaled to a nominal host speed (see
``REF_NOMINAL_S``); ``detail.unscaled`` holds the same metrics in plain
wall time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# a run ends at a cycle boundary once --seconds have passed, or at the next
# check once this cap has passed, so that it always ends well within 180 s
HARD_CAP_S = 120.0

# Host-speed reference.  On a shared host the speed of the same Fraction-bound
# code drifts by up to a factor of two over tens of seconds, as other tenants
# load its cores, and CPU time drifts with wall time.  Every timed span of an
# untraced run is therefore bracketed by a fixed workload of this file's own,
# Gaussian-rational multiply-accumulate into a dict keyed by tuples (the
# shape of slvir's inner loops), and the end-to-end times are reported at the
# speed at which that workload takes REF_NOMINAL_S:
# span * REF_NOMINAL_S / reference time.  REF_NOMINAL_S is about the
# reference's median time on a shared 2-core x86-64 Linux host with Python
# 3.11, so scaled times there read close to wall times.  A change to slvir
# moves the scaled times; a change in host load mostly does not.
REF_NOMINAL_S = 0.02
_REF_KEYS = [(i % 13, i // 13, i % 5) for i in range(1500)]
_REF_ZS = [(Fraction(3 * i + 1, 7 * (i % 11) + 2), Fraction(i % 9 - 4, 3 ** (i % 4)))
           for i in range(1500)]


def _reference_once() -> float:
    t0 = time.perf_counter()
    acc: dict = {}
    for i, key in enumerate(_REF_KEYS):
        a, b = _REF_ZS[i]
        c, d = _REF_ZS[(i * 7 + 1) % 1500]
        re, im = a * c - b * d, a * d + b * c
        s = acc.get(key)
        acc[key] = (re, im) if s is None else (s[0] + re, s[1] + im)
    return time.perf_counter() - t0


def _reference_s() -> float:
    """Faster of two timings of the reference workload."""
    return min(_reference_once(), _reference_once())


def _scaled(span_s: float, ref_before: float, ref_after: float) -> float:
    return span_s * REF_NOMINAL_S * 2 / (ref_before + ref_after)


def _purge_slvir():
    for name in list(sys.modules):
        if name == "slvir" or name.startswith("slvir."):
            del sys.modules[name]


def _import_slvir():
    pkg = importlib.import_module("slvir")
    importlib.import_module("slvir.cli")
    expected = ROOT / "src" / "slvir"
    if Path(pkg.__file__).resolve().parent != expected:
        raise ImportError(f"slvir was imported from {pkg.__file__}, not from {expected}")
    return pkg


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _meta(sl, seed: int) -> dict:
    rational = type(sl.Scalar.of(1).re)
    return {
        "scalar_backend": f"{rational.__module__}.{rational.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class _Run:
    """Timed closed loop over one workload's items."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at nominal host speed, untraced only
        self._ref_s = None  # the reference timing that follows the last check
        self.labels: list[str] = []
        self.failed = 0
        self.negatives = 0
        self.negatives_failing = 0
        self.digest = hashlib.sha256()
        self.layer_self = {}
        self.layer_counts = {}
        self.layer_times = {}
        self.covered_s = 0.0
        self.wall_s = 0.0

    def one(self, k: int) -> None:
        wl, tracer = self.wl, self.tracer
        item = wl.item(k)
        if not tracer and self._ref_s is None:
            self._ref_s = _reference_s()
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            out = wl.check(item)
            error = None
        except Exception:  # a raised check counts as a wrong verdict
            out, error = None, traceback.format_exc()
        latency = time.perf_counter() - t0
        if tracer:
            self._accumulate(before, tracer.snapshot())
        else:
            ref_before, self._ref_s = self._ref_s, _reference_s()
            self.scaled.append(_scaled(latency, ref_before, self._ref_s))
        self.latencies.append(latency)
        self.labels.append(wl.label(item))
        if error is None:
            try:
                ok = wl.judge(item, out)
            except Exception:  # malformed output is a wrong verdict too
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if k < wl.digest_checks:
            self.digest.update(("raised" if out is None else wl.payload(out)).encode())
            self.digest.update(b"\n")
        if item.get("negative"):
            self.negatives += 1
            self.negatives_failing += bool(ok)
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                shown = {key: repr(v) for key, v in item.items() if key != "config"}
                sys.stderr.write(f"wrong verdict on item {k}: {shown}\n{error or ''}")

    def _accumulate(self, before, after):
        for mine, b, a in zip((self.layer_self, self.layer_counts, self.layer_times),
                              before[:3], after[:3]):
            for key in a:
                mine[key] = mine.get(key, 0) + a[key] - b[key]
        self.covered_s += after[3] - before[3]

    def loop(self, seconds: float) -> None:
        """Run whole cycles, ending at the cycle boundary nearest to ``seconds``."""
        wl = self.wl
        start = time.perf_counter()
        k = 0
        boundary = 0.0
        while True:
            self.one(k)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= wl.digest_checks and (seconds <= 0 or elapsed >= HARD_CAP_S):
                break  # --seconds 0 runs only the digest prefix
            if k % wl.cycle:
                continue
            last_cycle, boundary = elapsed - boundary, elapsed
            # another cycle would overshoot by more than stopping now undershoots
            if k >= wl.digest_checks and elapsed + last_cycle - seconds >= seconds - elapsed:
                break
        self.wall_s = time.perf_counter() - start


def _calibrate(wl) -> float:
    """Untraced time of the first calibration items, after one warm pass."""
    for k in range(wl.calibration_checks):
        wl.check(wl.item(k))
    t0 = time.perf_counter()
    for k in range(wl.calibration_checks):
        wl.check(wl.item(k))
    return time.perf_counter() - t0


def _end_to_end(lat: list, run_s: float, setup_s: float) -> dict:
    return {
        "checks_per_s": {"value": len(lat) / run_s, "unit": "1/s"},
        "check_ms_p50": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "check_ms_p90": {"value": _p90(lat) * 1000, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _per_layer(run: _Run, tracer, overhead: float) -> dict:
    n = len(run.latencies)
    check_s = sum(run.latencies)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    counts, times, self_s = run.layer_counts, run.layer_times, run.layer_self
    per_check = [
        ("scalar.ops", counts["scalar.ops"]),
        ("laurent.calls", counts["laurent.calls"]),
        ("lie.calls", counts["lie.calls"]),
        ("pbw.nf_multiply.calls", counts["pbw.nf_multiply.calls"]),
        ("modules.act.calls", counts["modules.act.calls"]),
        ("modules.act.terms_out", counts["modules.act.terms_out"]),
        ("induced.table_build.calls", counts["induced.table_build.calls"]),
        ("induced.basis_keys", counts["induced.basis_keys"]),
        ("linalg.insert.calls", counts["linalg.insert.calls"]),
        ("verify.check_module_map.calls", counts["verify.check_module_map.calls"]),
    ]
    for name, total in per_check:
        put(name, total / n, "count/check")
    for layer, total in self_s.items():
        put(f"{layer}.self_s", total / n, "s/check")
    put("induced.table_build.s", times["induced.table_build.s"] / n, "s/check")
    put("induced.vir_act.s", times["induced.vir_act.s"] / n, "s/check")
    inserts = counts["linalg.insert.calls"]
    put("linalg.insert.useful_ratio",
        counts["linalg.insert.useful"] / inserts if inserts else 0.0, "ratio")
    put("linalg.rank_max", tracer.rank_max, "count")
    put("bench.self_s", (check_s - run.covered_s) / n, "s/check")
    put("trace.check_s", check_s / n, "s/check")
    put("trace.overhead_ratio", overhead, "ratio")
    put("trace.checks", n, "count")
    return metrics


def _by_label_ms(run: _Run) -> dict:
    groups: dict = {}
    for label, latency in zip(run.labels, run.latencies):
        groups.setdefault(label, []).append(latency)
    return {label: {"p50_ms": statistics.median(v) * 1000, "samples": len(v)}
            for label, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slvir" / "__init__.py").is_file():
        sys.stderr.write(f"error: no slvir sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        _import_slvir()  # primes the bytecode cache; not timed
        _reference_s()  # warms the reference up
        setups, scaled_setups = [], []
        for _ in range(SETUP_REPEATS):
            _purge_slvir()
            ref_before = _reference_s()
            gc.collect()
            t0 = time.perf_counter()
            sl = _import_slvir()
            wl = cls(sl, args.seed, scratch)
            wl.setup()
            setups.append(time.perf_counter() - t0)
            scaled_setups.append(_scaled(setups[-1], ref_before, _reference_s()))

        tracer = None
        if args.trace:
            from tracing import Tracer

            untraced = _calibrate(wl)
            tracer = Tracer()
            tracer.install()
        run = _Run(wl, tracer)
        run.loop(args.seconds)
        if tracer:
            overhead = sum(run.latencies[:wl.calibration_checks]) / untraced
            metrics = _per_layer(run, tracer, overhead)
        else:
            # throughput over the time spent in checks, at nominal host speed
            metrics = _end_to_end(run.scaled, sum(run.scaled),
                                  statistics.median(scaled_setups))
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import slvir: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    n = len(run.latencies)
    p90 = _p90(run.latencies)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "meta": _meta(sl, args.seed),
        "digest": {"checks": wl.digest_checks, "sha256": run.digest.hexdigest()},
        "samples": n,
        "beyond_p90": sum(1 for v in run.latencies if v > p90),
        "wrong_verdict_frac": run.failed / n,
        "negative_controls": {"attempted": run.negatives,
                              "reported_failing": run.negatives_failing},
        "run_s": run.wall_s,
        "setup_runs_s": setups,
        "unscaled": None if tracer else {
            name: m["value"] for name, m in _end_to_end(
                run.latencies, run.wall_s, statistics.median(setups)).items()},
        "host_speed": None if tracer else statistics.median(
            s / w for s, w in zip(run.scaled, run.latencies) if w > 0),
        "by_label": _by_label_ms(run),
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": n, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
