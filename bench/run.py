"""Benchmark of rkupdate: end-to-end times of three workloads, or a per-layer
trace of them.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload many-poles --seed 3 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a process of its own.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS thread, pinned before numpy loads: on two cores a second thread
# is no faster at these sizes, and it changes the last digits of results.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("paper-figures", "many-poles", "one-pole-long")

#: the import and the building of inputs are each timed this many times,
#: between the timed passes so that the samples meet the host's speed at
#: different moments; setup_s is the sum of their medians
SETUP_REPEATS = 5

END_TO_END = [("wall_rel", "yardstick"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

#: printed by every run and reported with the per-layer metrics: the raw pass
#: time and step rate, the yardstick time, the per-case times (zero on
#: workloads without the case), the steps of one pass, and failed cases over
#: attempted cases
PASS_METRICS = [("wall_s", "s"), ("steps_per_s", "1/s"), ("yardstick_s", "s"),
                ("fig1_s", "s"), ("fig2_s", "s"), ("fig3_s", "s"),
                ("run_update_s", "s"), ("sign_update_s", "s"), ("sylvester_s", "s"),
                ("steps", "count"), ("failed_frac", "ratio")]
CASE_TIMES = [name for name, _ in PASS_METRICS[3:-2]]
TRACE_METRICS = [("trace.overhead_frac", "ratio")]


class Ledger:
    """Attempted and failed cases; a case fails if it raises or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {label}: {failure}", file=sys.stderr)


def make_yardstick():
    """A fixed computation that does not use the library: a dense complex LU,
    products with a 32 MB matrix (memory bound), small numpy operations and
    a Python loop, in about equal parts, the mix the workloads run.  Returns
    a function that runs it once and returns its seconds.

    On a shared virtual machine the host's speed can drift by up to 1.6x
    over minutes, and all of this work slows together.  A pass's time divided
    by the yardstick's, timed between its calls, stays steady where the pass
    time alone does not.
    """
    import numpy as np
    import scipy.linalg as sla
    rng = np.random.default_rng(0)
    M = rng.standard_normal((300, 300)) + 0j
    G = rng.standard_normal((2048, 2048))
    X = rng.standard_normal((2048, 4))
    v = rng.standard_normal(64)

    def seconds():
        start = time.perf_counter()
        for _ in range(16):
            sla.lu_factor(M)
        for _ in range(8):
            G @ X
        for _ in range(12_000):
            np.sum(v / (v - 0.5))
        total = 0
        for i in range(500_000):
            total += i
        return time.perf_counter() - start
    return seconds


class Pass(NamedTuple):
    times: dict          # metric -> seconds of the call
    steps: int
    digests: dict        # metric -> output digest
    yardstick_s: float   # mean yardstick time around the calls (None if not timed)

    @property
    def wall(self):
        return sum(self.times.values())


def run_pass(cases, ledger, expected=None, tracer=None, yardstick=None):
    """Make every call of the workload once.

    With ``expected`` digests, an output that differs from the checked pass
    fails.  With a ``yardstick``, it is timed before every call and after the
    last one.
    """
    times, digests, steps, refs = {}, {}, 0, []
    for case in cases:
        if yardstick is not None:
            refs.append(yardstick())
        if tracer is not None:
            tracer.big_n = case.n
        try:
            start = time.perf_counter()
            result = case.call()
            times[case.metric] = time.perf_counter() - start
            case_steps, digest, failures = case.finish(result)
        except Exception:
            ledger.record(case.metric, [traceback.format_exc()])
            continue
        if expected is not None and digest != expected.get(case.metric):
            failures.append("output digest differs from the checked pass")
        ledger.record(case.metric, failures)
        steps += case_steps
        digests[case.metric] = digest
    if yardstick is not None:
        refs.append(yardstick())
    return Pass(times, steps, digests, statistics.mean(refs) if refs else None)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Threads of every OpenBLAS loaded into this process (numpy and scipy
    each bring their own)."""
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return threads
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu": _cpu_model(), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": _openblas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(), "seed": seed}


def _print_table(title, rows):
    print(f"## {title}")
    for name, value, unit in rows:
        print(f"{name:42s} {value:>16.6g} {unit}")


def _import_library():
    """Import rkupdate from this checkout's src/; None if it is not there."""
    if not (SRC / "rkupdate" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rkupdate
    if Path(rkupdate.__file__).resolve().parent != SRC / "rkupdate":
        return None
    return rkupdate


# prints the seconds a fresh interpreter takes to import the library
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import rkupdate; print(time.perf_counter() - t)")


def import_seconds():
    """Import time of the library in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                           stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(probe.stdout)


def measure(args):
    t0 = time.perf_counter()
    if _import_library() is None:
        print(f"error: no rkupdate sources under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    ledger = Ledger()
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        imports, builds = [], []

        def time_setup():
            imports.append(import_seconds())
            start = time.perf_counter()
            cases = workloads.build(args.workload, args.size, args.seed, workdir)
            builds.append(time.perf_counter() - start)
            return cases

        cases = time_setup()

        for label, check in workloads.reference_checks(args.workload, args.size, args.seed):
            try:
                rel, failures = check()
            except Exception:
                ledger.record(label, [traceback.format_exc()])
                continue
            print(f"reference check {label}: relative error {rel:.3e}")
            ledger.record(label, failures)

        # the checked pass: its outputs are the reference for every timed
        # pass, and it lets caches and lazy imports settle before timing
        expected = run_pass(cases, ledger).digests
        # read here: later passes only add the allocator's fragmentation,
        # which varies with how many passes fit into the run
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        yardstick = make_yardstick()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            untraced.append(run_pass(cases, ledger, expected, yardstick=yardstick))
            if tracer is not None:
                with tracer.tracing():
                    traced.append(run_pass(cases, ledger, expected, tracer))
            if len(builds) < SETUP_REPEATS:
                time_setup()
            now = time.perf_counter()
            if now + (now - start) > deadline:  # the next round would overrun
                break
        while len(builds) < SETUP_REPEATS:
            time_setup()
        setup_s = statistics.median(imports) + statistics.median(builds)

    wall_s = statistics.median(p.wall for p in untraced)
    steps = statistics.median(p.steps for p in untraced)
    values = {
        "wall_rel": statistics.median(p.wall / p.yardstick_s for p in untraced),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s if wall_s > 0 else 0.0,
        "yardstick_s": statistics.median(p.yardstick_s for p in untraced),
        "steps": steps,
        "failed_frac": ledger.failed / ledger.attempted,
    }
    for name in CASE_TIMES:
        case_times = [p.times[name] for p in untraced if name in p.times]
        values[name] = statistics.median(case_times) if case_times else 0.0

    print(f"# env {json.dumps(environment(args.seed))}")
    print(f"# workload {args.workload}: {len(untraced)} timed passes; "
          f"wall {', '.join(f'{p.wall:.3f}' for p in untraced)} s; "
          f"yardstick {', '.join(f'{p.yardstick_s:.4f}' for p in untraced)} s")
    _print_table("end to end (tracing off)", [(n, values[n], u) for n, u in END_TO_END])
    _print_table("per pass and per case (tracing off)",
                 [(n, values[n], u) for n, u in PASS_METRICS])
    units = dict(END_TO_END)
    if tracer is not None:
        layers = tracing.median_layer_metrics(tracer.passes)
        traced_wall = statistics.median(p.wall for p in traced)
        layers["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s if wall_s > 0 else 0.0
        _print_table(f"per layer (median of {len(traced)} traced passes; s = self time)",
                     [(n, layers[n], u) for n, u in tracing.LAYER_METRICS + TRACE_METRICS])
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            tracer.write_jsonl(fh, t0)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        values.update(layers)
        units = dict(PASS_METRICS + tracing.LAYER_METRICS + TRACE_METRICS)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{name}": value
                                 for name, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=_seed, default=None,
                   help="instance seed (default: the CLI's frozen figure seeds, "
                        "and seed 1 for the generated instances)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer trace instead of end-to-end metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="problem sizes; tiny is for the smoke test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
