"""End-to-end benchmark of the pinfin CLI on two shipped workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each invocation is a real ``pinfin`` command
in a fresh child process (``perfbench/child.py``); one client drives them as
a closed loop, one at a time, with BLAS pinned to one thread.  The first
invocation of a run is a warm-up (bytecode, page cache) and is left out of
the timings; invocations then repeat while the next one, at the run's median
invocation time, would still end within ``--seconds`` of the start.  Every
invocation's outputs are checked against ``reference.json`` and must be
byte-identical to the warm-up's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced invocations alternate; the traced ones give
the per-layer metrics, and the ratio of their run times to the untraced ones
is the tracing overhead.  Earlier stdout lines give each metric with its
sample count and range, and the environment.  Full results and the spans of
the last traced invocation go to ``.bench_build/perfbench/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracing import LAYERS  # perfbench/ is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
REFERENCE = json.loads((HERE / "reference.json").read_text())
CHILD_TIMEOUT_S = 120
REL_TOL = 1e-9          # the ROADMAP's tolerance for optimizer changes

# Per-invocation quantities and their units.
QUANTITIES = {"setup_s": "s", "run_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}
# End-to-end metric: (quantity, statistic over the run's invocations).  The
# host's speed switches between a contended and a free state, each lasting
# from seconds to minutes.  A run's median of run and CLI times jumps from
# one state's speed to the other's as their mix changes from run to run; the
# mean moves in proportion to the mix (README, "Measured spread").
E2E = {"setup_s": ("setup_s", "median"), "run_mean_s": ("run_s", "mean"),
       "cli_mean_s": ("cli_s", "mean"), "peak_rss_mb": ("peak_rss_mb", "median")}


def _close(value, ref):
    return value is not None and abs(value - ref) <= REL_TOL * abs(ref)


def check_sweep(out, ref, seed):
    runs = json.loads((out / "sweep_summary.json").read_text())["runs"]
    problems = []
    if [r["cap_M_m"] for r in runs] != ref["cap_M_m"]:
        problems.append(f"caps {[r['cap_M_m'] for r in runs]} != {ref['cap_M_m']}")
    for r, obj, switch in zip(runs, ref["objective_W"], ref["switch_measured_m"]):
        tag = f"cap {r['cap_M_m']}"
        if not _close(r["objective_W"], obj):
            problems.append(f"{tag}: objective {r['objective_W']!r} != reference {obj!r}")
        if switch is not None and not _close(r.get("switch_measured_m"), switch):
            problems.append(f"{tag}: switch {r.get('switch_measured_m')!r} != reference {switch!r}")
    objs = [r["objective_W"] for r in runs]
    if any(b < a for a, b in zip(objs, objs[1:])):
        problems.append(f"objectives decrease from one cap to the next: {objs}")
    return problems


def check_verify(out, ref, seed):
    rep = json.loads((out / "verify_report.json").read_text())
    problems = [f"{it['name']} failed: {it['detail']}"
                for it in rep["items"] if not it["passed"]]
    if rep["all_passed"] is not True:
        problems.append("all_passed is not true")
    if rep["seed"] != seed:
        problems.append(f"report seed {rep['seed']} != {seed}")
    return problems


# name: (shipped config, CLI arguments, output check); only verify takes the seed
WORKLOADS = {
    "sweep-constant-4096": ("configs/constant_h.yaml", ["sweep", "--n-cells", "4096"],
                            check_sweep),
    "verify-default": ("configs/verify.yaml", ["verify"], check_verify),
}


def digest(out):
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def invoke(workload, seed, trace, tmp, index):
    """Run one CLI invocation in a fresh process and check its outputs."""
    config, cli_args, check = WORKLOADS[workload]
    out = tmp / f"out-{index}"
    report_path = tmp / f"report-{index}.json"
    log_path = tmp / f"log-{index}.txt"
    cli = [*cli_args, "--config", config, "--out", str(out)]
    if workload == "verify-default":
        cli += ["--seed", str(seed)]
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path),
           "--config", config, *(["--trace"] if trace else []), "--", *cli]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        cli_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"trace": trace, "exit_code": proc.returncode, "cli_s": cli_s,
              "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "problems": []}
    if report_path.exists():
        sample.update(json.loads(report_path.read_text()))
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        sample["problems"].append(f"exit code {proc.returncode}: {tail}")
    else:
        try:
            sample["problems"] += check(out, REFERENCE.get(workload), seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample["problems"].append(f"output check could not read outputs: {exc!r}")
        sample["digest"] = digest(out)
    shutil.rmtree(out, ignore_errors=True)
    return sample


def environment():
    env = {"platform": platform.platform(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
        env["caches"] = caches
    except OSError:
        pass
    return env


def summarize(values):
    values = sorted(values)
    return {"n": len(values), "median": statistics.median(values),
            "mean": statistics.fmean(values), "min": values[0], "max": values[-1]}


def measure(workload, seed, seconds, trace, tmp):
    """Invoke until the next invocation would end after ``seconds``."""
    start = time.perf_counter()
    warmup = invoke(workload, seed, False, tmp, 0)
    samples = []
    while True:
        n_traced = sum(s["trace"] for s in samples)
        enough = (n_traced >= 2 and len(samples) - n_traced >= 2) if trace \
            else len(samples) >= 3
        typical_s = statistics.median(s["cli_s"] for s in [warmup, *samples])
        if enough and time.perf_counter() - start + typical_s > seconds:
            break
        traced = trace and len(samples) % 2 == 1
        samples.append(invoke(workload, seed, traced, tmp, len(samples) + 1))
    return warmup, samples


def per_layer(samples):
    """Per-layer metrics from the traced samples; counts must repeat exactly."""
    traced = [s for s in samples if s["trace"]]
    plain = [s for s in samples if not s["trace"]]
    problems = []
    counts = traced[0]["counts"]
    for s in traced[1:]:
        if s["counts"] != counts:
            diff = {k: (counts.get(k), s["counts"].get(k))
                    for k in set(counts) | set(s["counts"])
                    if counts.get(k) != s["counts"].get(k)}
            problems.append(f"traced runs disagree on counts: {diff}")

    def self_s(layer):
        return statistics.median(s["layers"].get(layer, {}).get("self_s", 0.0)
                                 for s in traced)

    def total_s(layer):
        return statistics.median(s["layers"].get(layer, {}).get("total_s", 0.0)
                                 for s in traced)

    m = {}
    setup = [s for s in samples if "import_s" in s]
    m["import.pinfin_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    m["config.load_config_s"] = (statistics.median(s["config_s"] for s in setup), "s")
    m["cli.handler.self_s"] = (self_s("cli.handler"), "s")

    opt_calls = counts.get("optimizer.optimize", 0)
    evals = counts["optimizer.objective_evals"]
    accepted = counts["optimizer.accepted_steps"]
    m["optimizer.optimize.calls"] = (opt_calls, "count")
    m["optimizer.optimize.self_s"] = (self_s("optimizer.optimize"), "s")
    m["optimizer.iterations"] = (counts["optimizer.iterations"], "count")
    m["optimizer.accepted_steps"] = (accepted, "count")
    m["optimizer.objective_evals"] = (evals, "count")
    # each optimize evaluates its start point once, then once per trial step
    m["optimizer.line_search_rejects"] = (evals - accepted - opt_calls, "count")
    m["optimizer.accept_ratio"] = (accepted / evals if evals else 0.0, "ratio")
    m["optimizer.runs_above_pg_tol"] = (counts["optimizer.runs_above_pg_tol"], "count")

    def timed(layer, mean_us=False):
        calls = counts.get(layer, 0)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        if mean_us:
            m[f"{layer}.mean_us"] = (1e6 * self_s(layer) / calls if calls else 0.0, "us")

    timed("optimizer.project_box_budget", mean_us=True)
    timed("optimizer.radius_from_density")
    timed("optimizer.sweep_M")
    timed("optimizer.verify_bang_structure")
    timed("solver.solve_temperature", mean_us=True)
    timed("physics.beta")
    m["profiles.SurfaceMeasure.init.calls"] = (counts.get("profiles.SurfaceMeasure.init", 0), "count")
    timed("functionals.heat_flux_relaxed")
    timed("functionals.flux_gradient_density")
    timed("functionals.flux_report")
    timed("sequences.reconstruct_radius")
    timed("sequences.bang_density")
    timed("sequences.volume_constrained_design")
    timed("randoms.random_pair")
    timed("io.write_table")
    m["io.write_table.bytes"] = (counts["io.write_table.bytes"], "bytes")
    timed("io.write_json")
    for name, mod, _, _ in LAYERS:
        if mod == "verification":
            m[f"{name}.s"] = (total_s(name), "s")
    m["trace.spans"] = (counts["trace.spans"], "count")
    m["trace.overhead_s"] = (statistics.median(
        s["span_cost_s"] * s["counts"]["trace.spans"] for s in traced), "s")
    m["trace.overhead_ratio"] = (
        statistics.median(s["run_s"] for s in traced)
        / statistics.median(s["run_s"] for s in plain), "ratio")

    absent = sorted({a for s in traced for a in s.get("absent", [])})
    for layer in absent:   # a moved function: its metrics are absent, not zero
        for key in [k for k in m if k.startswith(layer + ".")]:
            del m[key]
    return m, absent, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    config = ROOT / WORKLOADS[args.workload][0]
    missing = [p for p in (ROOT / "src" / "pinfin" / "cli.py", config) if not p.is_file()]
    if missing:
        print(f"perfbench: program files missing: {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2

    STATE.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        warmup, samples = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = [warmup] + samples
    for s in samples:
        if "digest" in s and s["digest"] != warmup.get("digest"):
            s["problems"].append("outputs differ from the warm-up invocation's bytes")
    failed = sum(1 for s in everything if s["problems"])
    problems = [p for s in everything for p in s["problems"]]
    # An invocation that failed its check still has timings; the run is then
    # reported as not correct rather than dropped.
    timed = [s for s in samples if "run_s" in s]
    if not timed or (args.trace and len({s["trace"] for s in timed}) < 2):
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        print("perfbench: too few invocations ran to report metrics", file=sys.stderr)
        return 1

    env = environment()
    env["versions"] = timed[0]["versions"]
    summary = {name: summarize([s[name] for s in timed]) for name in QUANTITIES}
    absent = []
    if args.trace:
        layer_metrics, absent, trace_problems = per_layer(timed)
        problems += trace_problems
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        spans_path = STATE / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps([s for s in timed if s["trace"]][-1]["spans"]))
    else:
        metrics = {name: {"value": summary[q][stat], "unit": QUANTITIES[q]}
                   for name, (q, stat) in E2E.items()}

    result = {"correct": not problems, "attempted": len(everything),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": summary,
              "error_rate": failed / len(everything), "problems": problems,
              "absent": absent, "result": result,
              "samples": [{k: v for k, v in s.items() if k != "spans"}
                          for s in everything]}
    record_path = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1))

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {len(everything)} (1 warm-up)  failed {failed}  "
          f"error_rate {failed / len(everything):.4g}")
    for name, unit in QUANTITIES.items():
        q = summary[name]
        print(f"  {name:<12} median {q['median']:.6g} {unit}  mean {q['mean']:.6g}  "
              f"min {q['min']:.6g}  max {q['max']:.6g}  n={q['n']}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<48} {entry['value']:.6g} {entry['unit']}")
        if absent:
            print(f"  absent layers: {absent}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
