"""The benchmark's tracer still finds every name it wraps, and no module
of the package imports a name it does not use.

``perfbench/tracing.py`` wraps named functions and methods of the slvir
package; a rename or deletion there would only show when a traced
benchmark runs.  This installs the tracer on a freshly imported package in
a subprocess, so a missing name fails here as an AttributeError, and runs
one small suite and one small report under it (about 0.5 s in all), so a
wrapper that breaks at call time, or counts nothing, fails here too.
"""

import ast
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


def _unused_imports(path: Path) -> list:
    """The names a module imports and never reads, with their lines."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports in order to export; every other module reads what it imports
    unused = {path.name: _unused_imports(path)
              for path in sorted((REPO / "src" / "slvir").glob("*.py"))
              if path.name != "__init__.py"}
    assert not any(unused.values()), {name: names for name, names in unused.items() if names}
