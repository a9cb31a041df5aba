"""hetindex benchmark: verdict workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``theorem``, ``orbits``, ``suites``,
``bifurcate``; BENCHMARK.json gates on all but ``orbits``.  Each is a
closed loop: one caller in one process makes the verdict calls of a
pass one after another, and the pass repeats while another one fits in
``--seconds`` (it runs at least once).  Every verdict is checked against
its known answer.

``--trace 0`` reports the end-to-end metrics.  Its times are CPU times:
the CPU seconds of this process, all its threads, and any child process
it has waited for.  The program runs on one thread (OpenBLAS is pinned
to one below), so on a core of its own CPU time is its time to solution.
On a shared virtual machine wall time also counts the time the host
takes the virtual CPU away (steal time).  Measured on a shared 2-vCPU
VM, steal added up to a fifth to one ``theorem`` pass, and over ten runs
the spread of the median pass (quartile distance over median) was 10%
in wall time and 6% in CPU time.  The wall times go to the metadata.
A pass after which a child process still runs counts as failed, since
that child's CPU time would go uncounted.

* ``setup_s``: median of at least five fresh-process set-ups
  (``setup_probe.py``), one made before each pass so that they sample
  the whole run, after an untimed one that leaves the file cache warm;
* ``cpu_s``: median pass time, first verdict call to last verdict;
* ``op_p50_s``, ``op_p90_s``: time of one verdict call, median and the
  90th percentile, lowered until ten samples lie beyond it but not below
  the median; rank and sample count go to the metadata;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs a traced pass, an untraced one and a second traced
one, each with its own set-up, and reports the per-layer metrics of the
last (see ``tracing.py``); the first also warms the process up.  It
checks that traced verdicts equal the untraced ones and that layer self
times plus the benchmark's own time add up to the traced pass time, and
it lists every count that differs between the two traced passes as
non-deterministic.

The last line of standard output is the result as one JSON object; the
line before it holds the run metadata.  Both, and the spans of a traced
run, are also written under ``perfbench/out/``.  Exit status is 0 only
when every verdict was right.  Without hetindex under ``src/`` next to
this directory the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread.  The matrices are tiny (n <= 6, sparse LU in SuperLU),
# and on two cores a second OpenBLAS thread only spins between calls: it
# made runs slower and doubled their spread.  Set before numpy loads;
# the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5     # timed fresh-process set-ups per run, at least

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "op_p50_s": "s",
                    "op_p90_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "parity.sweeps": "count", "parity.lu_calls": "count",
    "parity.lu_nnz": "nnz-computed", "parity.sign_s": "s",
    "parity.kernel_s": "s", "parity.self_s": "s",
    "flow.limits_calls": "count", "flow.limits_per_lambda": "1",
    "flow.limits_s": "s", "flow.reseed_calls": "count",
    "flow.transport_calls": "count", "flow.horizon_t": "t",
    "flow.self_s": "s",
    "expr.eval_calls": "count", "expr.eval_points": "count",
    "expr.eval_s": "s", "expr.self_s": "s",
    "bifurcation.jacobian_calls": "count", "bifurcation.self_s": "s",
    "linalg.det_sign_calls": "count", "linalg.align_calls": "count",
    "linalg.gap_calls": "count", "linalg.split_calls": "count",
    "linalg.self_s": "s",
    "z2index.calls": "count", "z2index.refine_inserts": "count",
    "z2index.max_depth": "count", "z2index.self_s": "s",
    "maslov.crossings": "count", "maslov.census_s": "s",
    "maslov.self_s": "s",
    "suites.cases": "count", "suites.self_s": "s",
    "cli.resolve_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "lam_star_abs_err": "1", "fail_ratio": "1",
}


def load_hetindex():
    """Import hetindex from ``src/`` of this checkout, nowhere else."""
    if not (SRC / "hetindex" / "__init__.py").is_file():
        raise SystemExit(f"error: no hetindex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetindex

    if Path(hetindex.__file__).resolve().parent != SRC / "hetindex":
        raise SystemExit(f"error: hetindex imported from {hetindex.__file__}")
    return hetindex


# -- metadata ----------------------------------------------------------

def _git_sha():
    """HEAD of this checkout; None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _openblas():
    """Version and thread count of the OpenBLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["version"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    return info


def metadata(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "problem_size": wl.sizes[args.size],
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": _openblas(),
    }


# -- measurement -------------------------------------------------------

def setup_seconds(workload: str, size: str) -> float:
    """One fresh-process set-up time."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, size],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def cpu_clock() -> float:
    """CPU seconds of this process and of its ended child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def live_children() -> list[str]:
    """Pids of this process's running children (empty where not listed)."""
    return [pid for task in Path("/proc/self/task").glob("*/children")
            for pid in task.read_text().split()]


class Pass:
    """One pass over the ops, with each verdict judged after the pass."""

    def __init__(self, wl, ops, span=None):
        self.wl, self.ops, self.span = wl, ops, span
        self.latencies: list[float] = []   # CPU seconds per op
        self.summaries: list[tuple] = []
        self.lam_errors: list[float] = []
        self.failures: list[str] = []
        self.wall = self.cpu = 0.0

    def _one(self, label, call):
        t0 = cpu_clock()
        try:
            result = call() if self.span is None else self.span(
                "bench.op", "bench", call)
        except Exception as exc:   # a raising verdict call is a failed op
            self.latencies.append(cpu_clock() - t0)
            return label, None, f"{label}: {type(exc).__name__}: {exc}"
        self.latencies.append(cpu_clock() - t0)
        return label, result, None

    def _all(self):
        return [self._one(label, call) for label, call in self.ops]

    def run(self) -> "Pass":
        t0, c0 = time.perf_counter(), cpu_clock()
        raw = self._all() if self.span is None else self.span(
            "bench.pass", "bench", self._all)
        self.wall, self.cpu = time.perf_counter() - t0, cpu_clock() - c0
        alive = live_children()    # cpu_clock cannot see their CPU time
        if alive:
            self.failures.append(f"child processes {alive} outlived the pass")
        for label, result, error in raw:
            if error is not None:
                self.failures.append(error)
                self.summaries.append((label, "raised"))
                continue
            j = self.wl.judge(label, result)
            self.summaries.append((label,) + j.summary)
            self.lam_errors.extend(j.lam_errors)
            if j.problems:
                self.failures.append("; ".join(j.problems))
        return self


def high_percentile(samples: list[float]) -> tuple[float, int]:
    """90th percentile by rank, lowered until ten samples lie beyond it.

    It is lowered no further than the upper middle rank, which is not
    below the median: with fewer than twenty-one samples no rank above
    it has ten beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(min(math.ceil(0.9 * n), n - 10), n // 2 + 1)
    return xs[rank - 1], rank


def timed_run(args, wl) -> tuple[dict, dict]:
    probe = functools.partial(setup_seconds, wl.name, args.size)
    probe()   # untimed: writes the bytecode and fills the file cache
    state = wl.setup(args.size)
    ops = wl.ops(state, args.seed)
    setups, passes = [], []
    start = time.perf_counter()
    # one set-up probe before each pass, so set-up is sampled across the
    # run; a round starts only if it should end within the budget (the
    # first always runs), so the run length does not swing by a pass
    while not passes or (time.perf_counter() - start) * (
            len(passes) + 1) / len(passes) <= args.seconds:
        setups.append(probe())
        passes.append(Pass(wl, ops).run())
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    latencies = [x for p in passes for x in p.latencies]
    p90, rank = high_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples_s": setups, "passes": len(passes),
             "pass_cpus_s": [p.cpu for p in passes],
             "wall_s": statistics.median(p.wall for p in passes),
             "pass_walls_s": [p.wall for p in passes],
             "op_samples": len(latencies), "op_p90_rank": rank,
             "lam_star_abs_err": max(
                 (e for p in passes for e in p.lam_errors), default=0.0)}
    return _result(passes, metrics, END_TO_END_UNITS, extra)


def _result(passes, metrics, units, extra):
    attempted = sum(len(p.ops) for p in passes)
    failures = [f for p in passes for f in p.failures]
    extra = dict(extra, attempted=attempted, failed=len(failures),
                 fail_ratio=len(failures) / attempted,
                 failures=failures[:20])
    result = {
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, extra


# -- traced run --------------------------------------------------------

def _per_layer(setup_tr, tr, untraced_wall, traced_wall, failures,
               attempted, lam_errors) -> dict:
    c, s, i = tr.calls, tr.self_s, tr.incl_s
    limits = c["flow.asymptotic_limits"]
    return {
        "parity.sweeps": c["parity.operator_parity"],
        "parity.lu_calls": c["parity.sparse_det_sign"],
        "parity.lu_nnz": tr.counters["parity.lu_nnz"],
        "parity.sign_s": i["parity.sparse_det_sign"],
        "parity.kernel_s": i["parity.kernel_dimension"],
        "parity.self_s": s["parity"],
        "flow.limits_calls": limits,
        "flow.limits_per_lambda": (limits / len(tr.limit_keys)
                                   if tr.limit_keys else 0.0),
        "flow.limits_s": i["flow.asymptotic_limits"],
        "flow.reseed_calls": c["flow.subspace_at"],
        "flow.transport_calls": tr.counters["flow.transport_calls"],
        "flow.horizon_t": tr.counters["flow.horizon_t"],
        "flow.self_s": s["flow"],
        "expr.eval_calls": tr.counters["expr.eval_calls"],
        "expr.eval_points": tr.counters["expr.eval_points"],
        "expr.eval_s": i["expr.eval"],
        "expr.self_s": s["expr"],
        "bifurcation.jacobian_calls":
            c["bifurcation.NonlinearFamily.jacobian"],
        "bifurcation.self_s": s["bifurcation"],
        "linalg.det_sign_calls": c["linalg.det_sign"],
        "linalg.align_calls": c["linalg.align_frame"],
        "linalg.gap_calls": c["linalg.gap_distance"],
        "linalg.split_calls": c["linalg.spectral_split"],
        "linalg.self_s": s["linalg"],
        "z2index.calls": c["z2index.z2_index"],
        "z2index.refine_inserts": tr.counters["z2index.refine_inserts"],
        "z2index.max_depth": tr.maxima.get("z2index.max_depth", 0),
        "z2index.self_s": s["z2index"],
        "maslov.crossings": tr.counters["maslov.crossings"],
        "maslov.census_s": i["maslov.crossing_census"],
        "maslov.self_s": s["maslov"],
        "suites.cases": tr.counters["suites.cases"],
        "suites.self_s": s["suites"],
        "cli.resolve_s": setup_tr.incl_s["cli.resolve_config"],
        "bench.self_s": s["bench"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "lam_star_abs_err": max(lam_errors, default=0.0),
        "fail_ratio": failures / attempted,
    }


def traced_run(args, wl) -> tuple[dict, dict]:
    from tracing import LAYERS, Patched, Tracer

    reps, untraced = [], None
    for rep in range(2):
        setup_tr, tr = Tracer(), Tracer()
        with Patched(setup_tr):
            state = setup_tr.span("bench.setup", "bench", wl.setup,
                                  args.size)
        with Patched(tr) as patched:
            traced = Pass(wl, wl.ops(state, args.seed), span=tr.span).run()
        reps.append((setup_tr, tr, traced))
        accounted = sum(tr.self_s.values())
        if abs(accounted - traced.wall) > 1e-3 * traced.wall + 1e-3:
            raise RuntimeError(
                f"self times add to {accounted:.6f} s but the traced pass "
                f"took {traced.wall:.6f} s")
        if rep == 0:
            # after the first traced pass, so both timed passes run warm
            untraced = Pass(wl, wl.ops(wl.setup(args.size), args.seed)).run()
    passes = [untraced] + [p for _, _, p in reps]
    for traced in passes[1:]:
        if traced.summaries != untraced.summaries:
            traced.failures.append(
                f"traced verdicts {traced.summaries} differ from untraced "
                f"{untraced.summaries}")

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    per_rep = [_per_layer(setup_tr, tr, untraced.wall, traced.wall, failed,
                          attempted, traced.lam_errors)
               for setup_tr, tr, traced in reps]
    # the exact-count check: every count of the two traced passes
    unsteady = [m for m, unit in PER_LAYER_UNITS.items()
                if unit != "s" and per_rep[0][m] != per_rep[1][m]]
    calls = [{**s.calls, **t.calls} for s, t, _ in reps]
    unsteady_calls = sorted(k for k in calls[0].keys() | calls[1].keys()
                            if calls[0].get(k) != calls[1].get(k))
    setup_tr, tr, traced = reps[-1]
    layer_self = {layer: tr.self_s[layer] for layer in LAYERS + ("bench",)}
    extra = {
        "untraced_wall_s": untraced.wall,
        "traced_walls_s": [p.wall for _, _, p in reps],
        "layer_self_s": layer_self,
        "layer_share": {k: v / traced.wall for k, v in layer_self.items()},
        "nondeterministic": unsteady,
        "nondeterministic_calls": unsteady_calls,
        "wrapped": len(patched.wrapped), "not_found": patched.missing,
        "spans": len(tr.spans),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
        json.dump({"setup": setup_tr.dump(), "pass": tr.dump()}, fh)
    return _result(passes, per_rep[-1], PER_LAYER_UNITS, extra)


# -- entry point -------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="problem sizes; smoke is for the benchmark's "
                             "own test")
    args = parser.parse_args(argv)

    load_hetindex()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(WORKLOADS))
    wl = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    result, extra = run(args, wl)
    meta = dict(metadata(args, wl), **extra)

    OUT.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
