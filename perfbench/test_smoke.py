"""Smoke test of the benchmark itself: a tiny run of every workload.

Run from the repository root with ``python3 -m pytest -q perfbench/test_smoke.py``.
Each run uses ``--seconds 0``, so it stops after the fixed digest prefix of
its schedule.  The test checks the result schema, the metric names and
units against BENCHMARK.json, that every verdict is right (including the
negative controls), and that the determinism digest is the same across
PYTHONHASHSEED values and between traced and untraced runs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace=0, hash_seed="0", cwd=ROOT, seed=7):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180, check=False)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    assert detail_line.startswith("detail ")
    return json.loads(detail_line[len("detail "):]), json.loads(result_line)


def _check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return workload, _run(workload, hash_seed="0"), _run(workload, hash_seed="1"), \
        _run(workload, trace=1, hash_seed="2")


def test_untraced_schema_and_verdicts(runs):
    workload, plain, _, _ = runs
    detail, result = _parse(plain)
    _check_metrics(result, SPEC["end_to_end"])
    assert detail["wrong_verdict_frac"] == 0
    assert detail["unscaled"].keys() == result["metrics"].keys()
    assert detail["host_speed"] > 0
    assert detail["meta"]["scalar_backend"] and detail["meta"]["seed"] == 7
    negatives = detail["negative_controls"]
    assert negatives["attempted"] == negatives["reported_failing"]
    if workload == "induced-deep":
        assert negatives["attempted"] >= 3


def test_traced_schema(runs):
    _, _, _, traced = runs
    _, result = _parse(traced)
    _check_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # the layers' self times plus bench.self_s account for the traced check time
    accounted = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert accounted == pytest.approx(metrics["trace.check_s"], rel=1e-6)
    assert metrics["trace.overhead_ratio"] > 0


def test_digest_is_deterministic(runs):
    _, plain, other_hash, traced = runs
    digests = {_parse(p)[0]["digest"]["sha256"] for p in (plain, other_hash, traced)}
    assert len(digests) == 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
