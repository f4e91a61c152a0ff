"""gmech benchmark: one workload, one seed, one JSON result on the last line.

    python3 bench/run.py --workload blackbox --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gmech is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics: ``wall_ref`` (median,
over the passes after a warm-up pass, of one pass's time over the workload's
fixed operation list in rounds of the workload's reference computation, timed
beside it), ``setup_s`` (median time of fresh imports plus workload set-ups,
in seconds at the reference's nominal speed) and ``peak_rss_mb``; the raw
times go to the ``info`` line.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of ``tracing.layer_metrics``,
the tracing overhead and the worst deviation from the independent references.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Single-threaded by construction: pin every pool before numpy is imported.
for _var in ("GMECH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from reference import INTERPRETER
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5


def fresh_import():
    """Import gmech from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "gmech" or m.startswith("gmech.")]:
        del sys.modules[name]
    gm = importlib.import_module("gmech")
    importlib.import_module("gmech.cli")
    return gm


def machine_info(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads_env": {v: os.environ.get(v) for v in (
            "GMECH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Pass:
    """Outputs of one pass: per-op digest (None when the op raised) and time.

    ``wall`` sums the operations' own times.  Given a ``reference``, one
    round of it runs before every operation and after the last one
    (``refs``), and ``norm`` is ``wall`` over their mean: the pass time in
    reference rounds, with the machine's drift in speed cancelled.
    """

    def __init__(self, ops, tracer=None, reference=None):
        self.digests = []
        self.outputs = []
        self.wall = 0.0
        self.refs = []
        for k, op in enumerate(ops):
            if reference is not None:
                self.refs.append(reference.time_s())
            if tracer is not None:
                tracer.op_id = k
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation is counted, the run goes on
                print(f"op {op.name} raised:", file=sys.stderr)
                traceback.print_exc()
                out = None
            self.wall += time.perf_counter() - start
            self.outputs.append(out)
            self.digests.append(None if out is None else hashlib.sha256(out).hexdigest())
        if reference is not None:
            self.refs.append(reference.time_s())
            self.norm = self.wall / statistics.fmean(self.refs)


class Run:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.expected = None
        self.max_abs_err = 0.0

    def warm_up(self):
        """First pass: check every output against its independent reference."""
        p = Pass(self.ops)
        self.attempted += len(self.ops)
        self.expected = p.digests
        for op, out in zip(self.ops, p.outputs):
            if out is None:
                self.failed += 1
                continue
            try:
                self.max_abs_err = max(self.max_abs_err, op.check(out))
            except CheckFailed as exc:
                print(f"op {op.name} failed its check: {exc}", file=sys.stderr)
                self.failed += 1
        return p

    def timed(self, tracer=None, reference=None) -> Pass:
        """A later pass: every output must reproduce the warm-up bytes."""
        p = Pass(self.ops, tracer, reference)
        self.attempted += len(self.ops)
        for op, got, want in zip(self.ops, p.digests, self.expected):
            if got is None or got != want:
                print(f"op {op.name}: output differs from the warm-up pass",
                      file=sys.stderr)
                self.failed += 1
        return p


def keep_measuring(rounds, started, seconds) -> bool:
    """Start another round only if it should end inside the measuring window."""
    if not rounds:
        return True
    return time.perf_counter() - started + statistics.median(rounds) <= seconds


def set_up(workload, work, seed):
    """Import gmech afresh and build the workload's inputs; also the time taken."""
    t0 = time.perf_counter()
    gm = fresh_import()
    ops = workload.setup(gm, work, seed)
    took = time.perf_counter() - t0
    gc.collect()  # free the modules of the last set-up, so peak memory stays flat
    return gm, ops, took


class SetUps:
    """Timed set-ups, each between two rounds of the ``INTERPRETER`` reference:
    importing modules and building inputs is interpreter-bound work on every
    workload."""

    def __init__(self, workload, work, seed):
        self.args = (workload, work, seed)
        self.seconds = []  # as measured
        self.norm = []     # divided by the mean of the two reference rounds

    def run(self):
        before = INTERPRETER.time_s()
        gm, ops, took = set_up(*self.args)
        self.seconds.append(took)
        self.norm.append(took / (0.5 * (before + INTERPRETER.time_s())))
        return gm, ops

    def median_s(self) -> float:
        """Median set-up time in seconds at the reference's nominal speed."""
        return INTERPRETER.nominal_s * statistics.median(self.norm)


def measure(run: Run, seconds: float, reference, setups: SetUps):
    """Timed passes until the window is used, each followed by a timed set-up,
    so set-up samples span the window as the pass samples do."""
    passes, rounds = [], []
    started = time.perf_counter()
    while keep_measuring(rounds, started, seconds):
        t0 = time.perf_counter()
        passes.append(run.timed(reference=reference))
        setups.run()
        rounds.append(time.perf_counter() - t0)
    return passes


def traced(run: Run, gm, seconds: float, workload, trace_path):
    """Alternate untraced and traced passes; per-layer metrics of the traced."""
    plain, walls, layers = [], [], []
    first = None
    started = time.perf_counter()
    while keep_measuring([a + b for a, b in zip(plain, walls)], started, seconds):
        plain.append(run.timed().wall)
        tracer = tracing.Tracer()
        inst = tracing.install(tracer, gm)
        try:
            walls.append(run.timed(tracer).wall)
        finally:
            inst.restore()
        layer = tracing.layer_metrics(tracer.summary(), tracer.counters)
        if first is None:
            first = layer
            tracer.save(trace_path)
        layers.append(layer)

    ok = True
    counts = [name for name, (_, unit) in first.items() if unit in ("count", "B")]
    for layer in layers[1:]:
        for name in counts:
            if layer[name][0] != first[name][0]:
                print(f"count {name} changed between traced passes: "
                      f"{first[name][0]} then {layer[name][0]}", file=sys.stderr)
                ok = False
    for name in workload.exercised:
        if not first[name][0]:
            print(f"coverage: {name} is 0 on {workload.name}, predicted nonzero",
                  file=sys.stderr)
            ok = False
    for name in workload.bypassed:
        if first[name][0]:
            print(f"bypass: {name} is {first[name][0]} on {workload.name}, "
                  "predicted 0", file=sys.stderr)
            ok = False

    metrics = {}
    for name, (value, unit) in first.items():
        if unit in ("count", "B"):
            metrics[name] = {"value": value, "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(l[name][0] for l in layers),
                             "unit": unit}
    metrics["trace.wall_s"] = {"value": statistics.median(walls), "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": statistics.median(plain), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(walls) - statistics.median(plain), "unit": "s"}
    metrics["check.max_abs_err"] = {"value": run.max_abs_err, "unit": "1"}
    return metrics, ok, len(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gmech" / "__init__.py").is_file():
        print(f"error: no gmech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = SetUps(workload, work, args.seed)
        if args.trace:
            gm, ops, _ = set_up(workload, work, args.seed)
        else:
            for _ in range(SETUP_REPEATS):
                gm, ops = setups.run()
        if not str(Path(gm.__file__).resolve()).startswith(str(SRC)):
            print(f"error: imported gmech from {gm.__file__}", file=sys.stderr)
            return 2

        run = Run(ops)
        warm = run.warm_up()
        info = machine_info(args)
        info["checksums"] = {op.name: d for op, d in zip(ops, run.expected)}
        if args.trace:
            trace_path = WORK_ROOT / f"trace-{args.workload}-{args.seed}.npz"
            metrics, ok, passes = traced(run, gm, args.seconds, workload, trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            timed = measure(run, args.seconds, workload.reference, setups)
            passes = len(timed)
            ok = True
            metrics = {
                "wall_ref": {"value": statistics.median(p.norm for p in timed),
                             "unit": "ref"},
                "setup_s": {"value": setups.median_s(), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
            info["walls_s"] = [p.wall for p in timed]
            info["wall_s"] = statistics.median(info["walls_s"])
            info["reference"] = workload.reference.name
            info["refs_s"] = [p.refs for p in timed]
            info["setups_s"] = setups.seconds
        info["warm_up_s"] = warm.wall
        info["passes"] = passes
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps({"correct": ok and run.failed == 0,
                          "attempted": run.attempted, "failed": run.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
