"""What the benchmark's tracer needs from the package.

``perfbench/tracing.py`` wraps pinfin functions by module and name, and only
in modules that ``import pinfin.cli`` has already loaded.  A layer it cannot
find is reported as absent and its metrics are dropped from the result line,
while the run itself still exits 0.  A rename, a move or a lazy import would
therefore go unnoticed; this test makes it fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import dataclasses, importlib.util, inspect, json, sys
import pinfin.cli

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

problems = []
for name, mod_name, attr, hook in tracing.LAYERS:
    owner = sys.modules.get(f"pinfin.{mod_name}")
    if owner is None:
        problems.append(f"{name}: pinfin.{mod_name} is not loaded by import pinfin.cli")
        continue
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        problems.append(f"{name}: pinfin.{mod_name}.{attr} is not a callable")

from pinfin import cli, config, io, optimizer

def first_param(fn):
    return next(iter(inspect.signature(fn).parameters))

def fields(cls):
    return {f.name for f in dataclasses.fields(cls)}

if first_param(optimizer.optimize) != "cfg":
    problems.append("optimize's first parameter is not cfg")
if "pg_tol" not in fields(optimizer.OptimConfig):
    problems.append("OptimConfig has no pg_tol")
missing = {"n_iterations", "trace", "pg_residual"} - fields(optimizer.OptimResult)
if missing:
    problems.append(f"OptimResult lacks {sorted(missing)}")
if first_param(io.write_table) != "path":
    problems.append("write_table's first parameter is not path")
for mod, fn in ((config, "load_config"), (cli, "main")):
    if not callable(getattr(mod, fn, None)):
        problems.append(f"{mod.__name__}.{fn} is missing")
print(json.dumps(problems))
"""


def test_every_traced_layer_resolves_after_importing_the_cli():
    # a fresh interpreter: another test's imports could load a lazy module
    tracing = ROOT / "perfbench" / "tracing.py"
    out = subprocess.run([sys.executable, "-c", PROBE, str(tracing)],
                         capture_output=True, text=True, check=True,
                         cwd=ROOT / "src")
    assert json.loads(out.stdout) == []
