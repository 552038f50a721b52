"""One pinfin CLI invocation in a fresh process, timed from the inside.

    python3 perfbench/child.py --report R.json --config C.yaml [--trace] -- <cli args>

Set-up is ``import pinfin.cli`` (which imports the whole package) plus one
``load_config`` of the workload's config.  The command itself then runs
through ``pinfin.cli.main``, which loads the config again as any CLI run
does.  The report holds the set-up and run times, the exit code, the library
versions and, with ``--trace``, the spans of the run.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from tracing import Tracer, aggregate, span_cost_s  # perfbench/ is sys.path[0]

ROOT = Path(__file__).resolve().parent.parent


def _versions():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (AttributeError, KeyError, TypeError):
            return None

    numpy_blas, scipy_blas = blas(numpy), blas(scipy)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy_blas and f"{numpy_blas.get('name')} {numpy_blas.get('version')}",
        "scipy_blas": scipy_blas and f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", type=Path, required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pinfin.cli
    from pinfin.config import load_config
    t1 = time.perf_counter()
    load_config(args.config)
    t2 = time.perf_counter()

    tracer = Tracer() if args.trace else None
    absent = tracer.install() if tracer else []
    t3 = time.perf_counter()
    rc = pinfin.cli.main(cli_args)
    t4 = time.perf_counter()

    report = {
        "exit_code": rc,
        "import_s": t1 - t0,
        "config_s": t2 - t1,
        "setup_s": t2 - t0,
        "run_s": t4 - t3,
        "versions": _versions(),
    }
    if tracer:
        records = tracer.records()
        layers, counts = aggregate(records)
        report.update(absent=absent, layers=layers, counts=counts, spans=records,
                      span_cost_s=span_cost_s())
    args.report.write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
