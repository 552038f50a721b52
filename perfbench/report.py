"""Run the benchmark on several workloads and seeds and print every metric.

    python3 perfbench/report.py [--workloads W ...] [--seeds 0 1 2 ...] [--trace 0|1]

Run from the repository root.  For each workload it runs ``run.py`` once per
seed, one run at a time, and prints each metric by name and unit with the
median of the runs and their spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound ``BENCHMARK.json`` fixes.  It also prints the
error rate, failed invocations over attempted ones, and whether every run's
output check passed.  The collected results go to
``.bench_build/perfbench/report-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    collected = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        collected[workload] = runs
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, error_rate {failed / attempted:.4g} "
              f"({failed}/{attempted} invocations)")
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in ("count", "bytes")} for r in runs]
            print(f"  counts identical across runs: {all(c == counts[0] for c in counts)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:<48} median {med:<12.6g} {unit:<6}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f" spread {spread:7.2%}"
                if bounds.get(name) is not None:
                    line += f"  bound {bounds[name]:.0%}" + \
                        ("" if spread < bounds[name] / 3 else "  <-- above a third of bound")
            print(line)
    out = ROOT / ".bench_build" / "perfbench" / f"report-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": collected}, indent=1))
    print(f"results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
