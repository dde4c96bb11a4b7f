"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps named functions and methods of the slvir
package; a rename or deletion there would only show when a traced
benchmark runs.  This installs the tracer on a freshly imported package in
a subprocess (about 0.2 s), so a missing name fails here as an
AttributeError.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_a_fresh_import():
    path = [str(REPO / "src"), str(REPO / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import slvir, slvir.cli\n"
         "from tracing import Tracer\n"
         "Tracer().install()\n"],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
