#!/usr/bin/env python3
"""Benchmark of staffing-minimax, one workload per process.

    python3 benchmarks/run.py --workload world_lp --seed 1 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

The workloads are listed in BENCHMARK.json and defined in workloads.py.
The package is imported from ``src/`` next to this directory;
the run fails (exit 2, no result) when it is missing.

With ``--trace 0`` the run sets up SETUP_REPEATS times, each in a fresh
interpreter (setup_s is the median time to import the package and set up
there), sets up once more in its own process, then repeats passes of the
workload's fixed work on fresh inputs until ``--seconds`` is spent (at most
MAX_PASSES). It reports the median over passes of each timing; a pass has
at least 100 ops, so at least 10 lie beyond its 90th percentile.
Times are given at the reference host speed: each measured time is
multiplied by PROBE_REF_S over the probe time measured alongside it: a
pass's wall time by the mean over the pass, an op's latency by the median
of the probes nearest to it (see workloads.py). The summary line shows the
raw walls and the pass scale factors.
With ``--trace 1`` it sets up and runs pass 0 with the span tracer on, runs
the same set-up and pass untraced in a fresh interpreter to compare, writes
the spans to ``.bench_out/`` and reports the per-layer metrics. Every op is
checked against the pinned reference. The workloads and the default of
``--seconds`` come from BENCHMARK.json. The last line of standard output
is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import atexit
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_PROBES = 10

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def load_config() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_package():
    """Import the checkout's package (never an installed copy) and return
    the workloads module."""
    if not (SRC / "staffing_minimax" / "__init__.py").is_file():
        fail(f"no package source under {SRC}")
    for name in ("instances/bench_long.json", "instances/fig3c.json"):
        if not (ROOT / name).is_file():
            fail(f"missing input {name}")
    sys.path.insert(0, str(SRC))
    import workloads
    pkg = Path(sys.modules["staffing_minimax"].__file__).resolve()
    if SRC not in pkg.parents:
        fail(f"imported staffing_minimax from {pkg}, not {SRC}")
    return workloads


def probe_s(wl_module) -> float:
    return statistics.mean(wl_module.probe() for _ in range(SETUP_PROBES))


def work_dir(name: str, seed: int) -> Path:
    """A fresh directory for this process's files, removed when it exits.
    No run rewrites the files of an earlier one: on ext4, truncating and
    rewriting a file, as ``solve --out`` does to an existing file, waits
    for the disk, so solve_scaling would follow the host's disk load."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=OUT))
    atexit.register(shutil.rmtree, work, True)
    return work


def in_child(function: str, name: str, seed: int) -> dict:
    """Run ``function(name, seed)`` of this file in a fresh interpreter and
    return the JSON object it prints."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.{function}({name!r}, {seed})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{function} for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_setup(name: str, seed: int) -> None:
    """Child of ``measure``: import the package and set the workload up,
    as a user's fresh process would, and print the time at the reference
    host speed (import scaled by the probes after it, the set-up by the
    probes on both sides)."""
    clock = time.perf_counter
    t0 = clock()
    wl_module = import_package()
    import_s = clock() - t0
    w = wl_module.make(name, ROOT, seed, work_dir(name, seed))
    before = probe_s(wl_module)
    t0 = clock()
    ok = w.setup()
    setup = clock() - t0
    after = probe_s(wl_module)
    ref = wl_module.PROBE_REF_S
    print(json.dumps({"setup_s": import_s * ref / before
                      + setup * 2 * ref / (before + after), "ok": ok}))


def machine_facts() -> str:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}")


def percentile(values, q):
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(wl_module, name, seed, seconds):
    colds = [in_child("cold_setup", name, seed)
             for _ in range(SETUP_REPEATS)]
    attempted = len(colds)
    failed = sum(not c["ok"] for c in colds)
    w = wl_module.make(name, ROOT, seed, work_dir(name, seed))
    attempted += 1
    failed += not w.setup()
    ref = wl_module.PROBE_REF_S
    passes = []     # (raw wall s, pass host scale, normalized latencies s)
    t_start = time.perf_counter()
    for k in range(wl_module.MAX_PASSES):
        inputs = w.prepare(k)
        p = w.run_pass(inputs, probing=True)
        oks = w.check(inputs, p.outputs)
        scale = ref / p.probe_s
        passes.append((p.wall, scale, [x * ref / q for x, q
                                       in zip(p.lat, p.op_probe)]))
        attempted += len(oks)
        failed += oks.count(False)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.mean(q[0] for q in passes) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in colds),
        "wall_s": statistics.median(q[0] * q[1] for q in passes),
        "ops_per_s": statistics.median(len(q[2]) / (q[0] * q[1])
                                       for q in passes),
        "op_ms_p50": statistics.median(percentile(q[2], 50)
                                       for q in passes) * 1e3,
        "op_ms_p90": statistics.median(percentile(q[2], 90)
                                       for q in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = (f"{name}: {len(passes)} passes of {len(passes[0][2])} ops; "
               f"raw wall s {', '.join(f'{q[0]:.3f}' for q in passes)}; "
               f"host scale {', '.join(f'{q[1]:.3f}' for q in passes)}; "
               f"fail_ratio "
               f"{failed / attempted:.6g} ratio ({failed}/{attempted})")
    return attempted, failed, metrics, E2E_UNITS, summary


@contextlib.contextmanager
def tracing(tracer, wl_module):
    """Wrap the package's functions while the block runs (no-op for
    None); probe time is kept out of the spans."""
    if tracer is None:
        yield
        return
    tracer.install()
    tracer.pause_during(wl_module, "probe")
    try:
        yield
    finally:
        tracer.uninstall()


def first_pass(wl_module, name, seed, tracer=None):
    """Set up and run pass 0, traced when a tracer is given.  Returns the
    set-up's check, the first span of the pass, the pass, its host scale
    and its checks."""
    w = wl_module.make(name, ROOT, seed, work_dir(name, seed))
    with tracing(tracer, wl_module):
        ok = w.setup()
    inputs = w.prepare(0)
    lo = tracer.mark() if tracer else 0
    with tracing(tracer, wl_module):
        p = w.run_pass(inputs, probing=True)
    scale = wl_module.PROBE_REF_S / p.probe_s
    return ok, lo, p, scale, w.check(inputs, p.outputs)


def untraced_first_pass(name: str, seed: int) -> None:
    """Child of ``measure_traced``: the same set-up and pass untraced;
    prints the pass's wall at the reference host speed."""
    wl_module = import_package()
    ok, _, p, scale, oks = first_pass(wl_module, name, seed)
    print(json.dumps({"wall_s": p.wall * scale,
                      "ok": ok and all(oks)}))


def measure_traced(wl_module, name, seed):
    from tracer import Tracer
    tracer = Tracer()
    ok, lo, p, scale, oks = first_pass(wl_module, name, seed, tracer)
    hi = tracer.mark()
    twin = in_child("untraced_first_pass", name, seed)
    attempted = 2 + len(oks)
    failed = int(not ok) + oks.count(False) + int(not twin["ok"])

    metrics = tracer.metrics(lo, hi, p.wall, twin["wall_s"] / scale)
    path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    tracer.write(path, lo)
    units = {k: unit_of(k) for k in metrics}
    summary = (f"{name}: at reference speed, traced pass "
               f"{p.wall * scale:.3f} s, untraced {twin['wall_s']:.3f} s; "
               f"{hi - lo} spans written to "
               f"{path.relative_to(ROOT)}; fail_ratio "
               f"{failed / attempted:.6g} ratio ({failed}/{attempted})")
    return attempted, failed, metrics, units, summary


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("share"):
        return "ratio"
    return "count"


def run_one(args) -> None:
    wl_module = import_package()
    print(f"machine: {machine_facts()}")
    if args.trace:
        result = measure_traced(wl_module, args.workload, args.seed)
    else:
        result = measure(wl_module, args.workload, args.seed, args.seconds)
    attempted, failed, metrics, units, summary = result
    print(summary)
    for key, value in metrics.items():
        print(f"  {key:44s} {value:14.6f} {units[key]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def run_all(args, names) -> None:
    """Every workload, each in its own process, one after the other."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))


def main() -> None:
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        run_all(args, names)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
