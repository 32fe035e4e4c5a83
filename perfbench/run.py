"""Benchmark for ncfourier: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run builds the workload's inputs from the seed, then repeats whole rounds
of it until ``--seconds`` have passed, checking every round's outputs.  With
``--trace 0`` it reports the end-to-end metrics: set-up time (median of
fresh-interpreter probes), medians of the round times at one and two
processes, peak resident memory, estimates per second and the mean ratio of
certified lower bounds to their constant-1 upper bounds.  With ``--trace 1``
it alternates untraced and traced one-process rounds and reports per-layer
self times and counts from the traced ones.  The last line of standard output
is one JSON object; details and spans go to ``perfbench/out/``.  BLAS runs on
one thread.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median, quantiles

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
DEFAULT_SECONDS = 36


def _probe_setup(name: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import ncfourier and build the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _blas_facts() -> dict:
    """The loaded OpenBLAS's own build string and thread count, when it exposes them."""
    import numpy as np

    facts = {"build": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    facts.update(runtime=get_config().decode(), threads=int(get_threads()))
                    return facts
    return facts


def machine_facts() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_facts(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rounds(seconds: float):
    """Yield round numbers while another round, as long as the last one, still ends
    within ``seconds``; there is always at least one.  A run thus measures at
    most ``seconds`` however slow the machine is, and only whole rounds."""
    start = time.perf_counter()
    count = 0
    while True:
        began = time.perf_counter()
        yield count
        count += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup = [_probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    inputs = workload.setup(seed)
    walls, cpus, walls2, errors = [], [], [], []
    attempted = failed = 0
    for _ in _rounds(seconds):
        t0, c0 = time.perf_counter(), time.process_time()
        first = workload.run(inputs, 1)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        t0 = time.perf_counter()
        second = workload.run(inputs, 2)
        walls2.append(time.perf_counter() - t0)
        round_errors, figures = workload.check(inputs, first, second)
        errors += round_errors
        attempted += first.attempted + second.attempted
        failed += first.failed + second.failed
    wall = median(walls)
    metrics = {
        "setup_s": _metric(median(setup), "s"),
        "wall_s": _metric(wall, "s"),
        "jobs2_wall_s": _metric(median(walls2), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "estimates_per_s": _metric(figures["estimates"] / wall, "1/s"),
        "bound_ratio_mean": _metric(figures["bound_ratio_mean"], "ratio"),
    }
    raw = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus, "jobs2_wall_s": walls2, "figures": figures}
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw}


def measure_traced(workload, seed: int, seconds: float, trace_path: Path) -> dict:
    """Traced run: per-layer metrics from traced rounds, each after an untraced one."""
    from tracing import TRACED, Tracer
    from workloads import ORACLE_REFINE_STEPS, ORACLE_SAMPLES

    inputs = workload.setup(seed)
    tracer = Tracer()
    plain, traced, errors = [], [], []
    attempted = failed = 0
    for _ in _rounds(seconds):
        for timings, context in ((plain, contextlib.nullcontext()), (traced, tracer)):
            with context:
                t0 = time.perf_counter()
                result = workload.run(inputs, 1)
                timings.append(time.perf_counter() - t0)
            errors += workload.check(inputs, result, None)[0]
            attempted += result.attempted
            failed += result.failed
    tracer.write(trace_path)

    rounds = len(traced)
    self_s, calls, durations = tracer.self_times()
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = _metric(self_s.get(name, 0.0) / rounds, "s")
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) // rounds, "count")
    est_ms = [1e3 * d for d in durations.get("estimator.estimate_pq_norm", [])]
    p50, p90 = (median(est_ms), quantiles(est_ms, n=10)[-1]) if len(est_ms) > 1 else (0.0, 0.0)
    metrics["estimator.estimate_pq_norm.p50_ms"] = _metric(p50, "ms")
    metrics["estimator.estimate_pq_norm.p90_ms"] = _metric(p90, "ms")
    estimates = tracer.estimates
    metrics["estimator.restarts_used"] = _metric(sum(e.restarts_used for e in estimates) // rounds, "count")
    metrics["estimator.converged_fraction"] = _metric(
        fmean(e.converged_fraction for e in estimates) if estimates else 0.0, "ratio")
    brute_calls = calls.get("estimator.brute_force_pq_norm", 0)
    steps = ORACLE_SAMPLES * (ORACLE_REFINE_STEPS + 1) * brute_calls
    metrics["estimator.brute_force_pq_norm.sample_steps_per_s"] = _metric(
        steps / self_s["estimator.brute_force_pq_norm"] if brute_calls else 0.0, "1/s")
    metrics["trace.overhead_s"] = _metric(median(traced) - median(plain), "s")
    raw = {"plain_wall_s": plain, "traced_wall_s": traced}
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    bootstrap.OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace), "machine": facts}), flush=True)
    if trace:
        res = measure_traced(workload, seed, seconds, bootstrap.OUT / f"spans-{name}-seed{seed}.json")
    else:
        res = measure(workload, seed, seconds)
    for err in res["errors"][:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    record = {"workload": name, "seed": seed, "seconds": seconds, "machine": facts, **res}
    out_file = bootstrap.OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": res["metrics"]}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in its own process so that peak memory stays per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
