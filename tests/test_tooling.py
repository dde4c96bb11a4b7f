"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps named functions and methods of the slvir
package; a rename or deletion there would only show when a traced
benchmark runs.  This installs the tracer on a freshly imported package in
a subprocess, so a missing name fails here as an AttributeError, and runs
one small suite and one small report under it (about 0.5 s in all), so a
wrapper that breaks at call time, or counts nothing, fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


TRACED_RUN = """
import sys
import slvir, slvir.cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
from slvir.lie import SL2Elt, classify_subalgebra_1d
from slvir.verify import suite_twist_induction
assert suite_twist_induction(classify_subalgebra_1d(SL2Elt(1, -3, -9)), 5, 4).all_ok
assert slvir.cli.main(["report", "--config", sys.argv[1]]) == 0
_, counts, _, _ = tracer.snapshot()
for name in ("induced.table_build.calls", "verify.check_module_map.calls", "scalar.ops"):
    assert counts[name] > 0, (name, counts)
"""


def test_tracer_installs_on_a_fresh_import(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suites": [
        {"name": "restriction", "params": {"roots": [["1", 1]], "polys": [["1"]]},
         "depth": 4}]}))
    path = [str(REPO / "src"), str(REPO / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("SLVIR_DEPTH", None)
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(config)],
                          env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
