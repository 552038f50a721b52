"""Every function in ``src/pinfin`` is reached by a shipped run.

A fresh interpreter runs, under ``sys.setprofile``, all five commands on
every shipped config, ``verify --seed 101`` without a config, a 4096-cell
JSON sweep, one invocation with a flag its command does not take and the
three demos, and reports the code it entered.  The
``def``s of ``src/pinfin`` it never entered must equal a short allow-list,
so code that no command reaches fails here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from pinfin import solver

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pinfin"
CONFIGS = ["constant_h", "decreasing_h", "step_h", "increasing_h", "verify"]
COMMANDS = ["solve", "optimize", "sweep", "sequence", "verify"]

RUNS = r"""
import contextlib, io, json, os, runpy, sys
from pathlib import Path

root, out, configs, commands = sys.argv[1], sys.argv[2], sys.argv[3:8], sys.argv[8:]
entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
from pinfin.cli import main

codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in configs:
        for cmd in commands:
            codes[f"{cmd}-{cfg}"] = main([cmd, "--config", f"{root}/configs/{cfg}.yaml",
                                         "--out", f"{out}/{cmd}-{cfg}"])
    codes["verify-seed-101"] = main(["verify", "--seed", "101",
                                     "--out", f"{out}/verify-seed-101"])
    codes["sweep-4096-json"] = main(["sweep", "--config", f"{root}/configs/constant_h.yaml",
                                     "--n-cells", "4096", "--format", "json",
                                     "--out", f"{out}/sweep-4096-json"])
    codes["sweep-seed"] = main(["sweep", "--config", f"{root}/configs/constant_h.yaml",
                                "--seed", "1", "--out", f"{out}/sweep-seed"])
    os.chdir(out)
    for demo in sorted(Path(root, "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered})}))
"""


def src_defs():
    """``module.Qual.name`` of every def in src/pinfin, keyed by file and first line."""
    defs = {}

    def walk(node, path, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(str(path), first)] = name
                walk(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), path.stem)
    return defs


def test_every_function_is_reached_by_a_shipped_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUNS, str(ROOT), str(tmp_path), *CONFIGS, *COMMANDS],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(proc.stdout)
    # sweep takes no --seed
    assert {k: v for k, v in result["codes"].items() if v} == {"sweep-seed": 1}
    entered = {(str(Path(f).resolve()), line) for f, line in result["entered"]}
    never = {name for key, name in src_defs().items() if key not in entered}
    # a user-facing config path no shipped config takes, and the solver's
    # dptsv route this numpy build does not take
    fallback = "solver._lapack_dptsv" if solver._BUNDLED is None else "solver._scipy_dptsv"
    assert never == {"config._table", fallback}
