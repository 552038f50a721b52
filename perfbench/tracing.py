"""Spans around calls into pinfin's public functions, installed from outside.

The tracer never edits the package: it replaces module attributes with
wrappers.  pinfin's modules import functions by name, so one function can be
bound in several modules (``pinfin.optimizer.solve_temperature`` and
``pinfin.solver.solve_temperature`` are the same object); every binding is
replaced, or calls through the other names would go unseen.

A span is ``[name, parent, start_ns, end_ns, attrs]`` where ``parent`` is the
index of the enclosing span (-1 at the top).  Spans stay in memory until the
traced invocation ends.  A layer whose function no longer exists where the
table below names it is reported as absent instead of failing the run.
"""

import functools
import os
import sys
import time


def _optimize_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {
        "iterations": int(result.n_iterations),
        # objective_trace gets one entry per accepted step after the first
        "accepted": int(len(result.trace) - 1),
        # judged from the residual, because `converged` is also set on stalls
        "above_pg_tol": bool(result.pg_residual > cfg.pg_tol),
    }


def _write_table_attrs(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    if not os.path.exists(path):          # fmt="json" writes <stem>.json
        path = os.path.splitext(path)[0] + ".json"
    return {"bytes": os.path.getsize(path)}


# (span name, module under pinfin, attribute, hook on the return value)
LAYERS = [
    ("cli.handler", "cli", "cmd_solve", None),
    ("cli.handler", "cli", "cmd_optimize", None),
    ("cli.handler", "cli", "cmd_sweep", None),
    ("cli.handler", "cli", "cmd_verify", None),
    ("cli.handler", "cli", "cmd_sequence", None),
    ("optimizer.optimize", "optimizer", "optimize", _optimize_attrs),
    ("optimizer.project_box_budget", "optimizer", "project_box_budget", None),
    ("optimizer.radius_from_density", "optimizer", "radius_from_density", None),
    ("optimizer.sweep_M", "optimizer", "sweep_M", None),
    ("optimizer.verify_bang_structure", "optimizer", "verify_bang_structure", None),
    ("solver.solve_temperature", "solver", "solve_temperature", None),
    ("physics.beta", "physics", "PhysicalParams.beta", None),
    ("profiles.SurfaceMeasure.init", "profiles", "SurfaceMeasure.__init__", None),
    ("functionals.heat_flux_relaxed", "functionals", "heat_flux_relaxed", None),
    ("functionals.flux_gradient_density", "functionals", "flux_gradient_density", None),
    ("functionals.flux_report", "functionals", "flux_report", None),
    ("sequences.reconstruct_radius", "sequences", "reconstruct_radius", None),
    ("sequences.bang_density", "sequences", "bang_density", None),
    ("sequences.volume_constrained_design", "sequences", "volume_constrained_design", None),
    ("randoms.random_pair", "randoms", "random_pair", None),
    ("io.write_table", "io", "write_table", _write_table_attrs),
    ("io.write_json", "io", "write_json", None),
] + [(f"verification.{fn}", "verification", fn, None) for fn in (
    "check_closed_form", "check_flux_identity", "check_temperature_bounds",
    "check_supremum_convergence", "check_volume_unbounded", "check_gradient",
    "check_swap_derivative", "check_bang_structure", "check_sweep_monotone",
    "check_concentration", "check_surface_bound", "check_generalized_supremum",
)]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every binding of every layer function; return absent layers."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pinfin" or n.startswith("pinfin."))]
        found = set()
        for name, mod_name, attr, hook in LAYERS:
            module = sys.modules.get(f"pinfin.{mod_name}")
            owner = module
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                continue
            found.add(name)
            wrapped = self.wrap(name, fn, hook)
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
            else:                                  # a method: one binding
                setattr(owner, leaf, wrapped)
        return sorted({name for name, *_ in LAYERS} - found)

    def records(self):
        return [{"id": i, "name": s[0], "parent": s[1], "start_ns": s[2],
                 "end_ns": s[3], **({"attrs": s[4]} if s[4] else {})}
                for i, s in enumerate(self.spans)]


def span_cost_s(n=20000):
    """Time one span adds to a call, from a wrapped and a bare no-op."""
    def noop():
        return None
    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


def aggregate(records):
    """Per-layer calls, inclusive and self seconds, and work counts.

    Self time is a span's duration minus the time its child spans cover;
    spans run on one thread, so children never overlap.
    """
    child_ns = [0] * len(records)
    for r in records:
        if r["parent"] >= 0:
            child_ns[r["parent"]] += r["end_ns"] - r["start_ns"]
    layers = {}
    for r, covered in zip(records, child_ns):
        dur = r["end_ns"] - r["start_ns"]
        agg = layers.setdefault(r["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur * 1e-9
        agg["self_s"] += (dur - covered) * 1e-9
    counts = {name: agg["calls"] for name, agg in layers.items()}
    opt = [r.get("attrs", {}) for r in records if r["name"] == "optimizer.optimize"]
    counts["optimizer.iterations"] = sum(a["iterations"] for a in opt)
    counts["optimizer.accepted_steps"] = sum(a["accepted"] for a in opt)
    counts["optimizer.runs_above_pg_tol"] = sum(a["above_pg_tol"] for a in opt)
    # every objective evaluation inside optimize ends with one gradient call
    counts["optimizer.objective_evals"] = sum(
        1 for r in records if r["name"] == "functionals.flux_gradient_density"
        and r["parent"] >= 0 and records[r["parent"]]["name"] == "optimizer.optimize")
    counts["io.write_table.bytes"] = sum(
        r["attrs"]["bytes"] for r in records if r["name"] == "io.write_table")
    counts["trace.spans"] = len(records)
    return layers, counts
