"""Run one dunklsmooth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the sources measured are ``src/`` next to this directory,
never an installed copy.  BLAS/OpenMP threads are pinned before numpy is
imported, here and in every process this script starts.

``--trace 0`` measures the end-to-end metrics: set-up in fresh processes,
then passes back to back (a closed loop with one caller) until the next pass
would end after ``--seconds``.  The sweeps' ``transform`` probe calls run
between passes, untimed by ``pass_s``.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-module metrics of ``tracing.py`` plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the metrics BENCHMARK.json declares for the mode, in its order and units.
The full result (samples, quartiles, machine) goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``, and a traced run's spans to
``...-spans.json`` beside it.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: on two cores, two threads gave a wider pass-to-pass spread.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
# Named here rather than taken from workloads.py, which imports numpy: the
# arguments are parsed before the thread variables are set.
WORKLOAD_NAMES = ("default-run", "chain-sweep", "transform-batch")
MIN_TRACED_PASSES = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one dunklsmooth benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Pin threads and point imports at ``src/``; must run before numpy loads."""
    if not (SRC / "dunklsmooth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dunklsmooth sources at {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dunklsmooth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def time_setup(workload: str) -> float:
    """Wall time of a fresh process doing the workload's set-up."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; "
        f"workloads.WORKLOADS[{workload!r}](0, None).setup()"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def run_passes(wl, seconds: float, min_passes: int, first: int, around=contextlib.nullcontext):
    """Passes back to back until ``min_passes`` are done and the next pass,
    taking as long as the last, would end after ``seconds``."""
    durations, errors = [], 0
    start = time.perf_counter()
    index = first
    while True:
        with around():
            t0 = time.perf_counter()
            try:
                wl.run_pass(index)
            except Exception:  # counted as a failed operation; the run goes on
                traceback.print_exc()
                errors += 1
            duration = time.perf_counter() - t0
        wl.after_pass(index)
        durations.append(duration)
        index += 1
        if len(durations) >= min_passes and time.perf_counter() - start + duration > seconds:
            return durations, errors


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(args, wl) -> tuple[dict, dict, int]:
    """End-to-end metrics (untraced run) and the details behind them."""
    import numpy as np
    import workloads

    setup_samples = [time_setup(args.workload) for _ in range(SETUP_SAMPLES)]
    wl.setup()
    wl.probe(wl.probe_chunk)
    durations, errors = run_passes(wl, args.seconds, wl.min_passes, first=0)
    wl.probe(workloads.MIN_TRANSFORM_CALLS - len(wl.latencies))
    latencies_ms = 1e3 * np.asarray(wl.latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(durations),
        "transform_ms_mean": float(np.mean(latencies_ms)),
        "transform_ms_p90": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_s_samples": setup_samples,
        "pass_s": spread(durations),
        "pass_s_samples": durations,
        "transform_ms": {
            **spread(list(latencies_ms)),
            "mean": metrics["transform_ms_mean"],
            "p90": metrics["transform_ms_p90"],
        },
    }
    return metrics, details, errors


def measure_traced(args, wl, run_id: str) -> tuple[dict, dict, int]:
    """Per-module metrics: one untraced pass, then traced passes."""
    from tracing import PASS_SPAN, Tracer, layer_metrics

    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.setup"):
        wl.setup()
    untraced, errors = run_passes(wl, 0.0, 1, first=0)
    with tracer.installed():
        traced, traced_errors = run_passes(
            wl, args.seconds - untraced[0], MIN_TRACED_PASSES, first=1,
            around=lambda: tracer.span(PASS_SPAN),
        )
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_pass_s"] = untraced[0]
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - untraced[0]
    metrics["trace.spans"] = float(len(tracer.spans))
    tracer.dump(OUT_DIR / f"{run_id}-spans.json")
    details = {"untraced_pass_s": untraced, "traced_pass_s": traced}
    return metrics, details, errors + traced_errors


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import dunklsmooth
    import workloads

    if not Path(dunklsmooth.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported dunklsmooth from {dunklsmooth.__file__}, not {SRC}")

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, details, errors = measure_traced(args, wl, run_id)
        else:
            metrics, details, errors = measure(args, wl)
        tally = wl.outcome()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    attempted = tally.attempted + wl.calls.attempted + errors
    failed = tally.failed + wl.calls.failed + errors
    not_ok = failed + tally.verdict_failed
    if not args.trace:
        metrics["ok_frac"] = (attempted - not_ok) / attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "attempted": attempted,
        "failed": failed,
        "verdict_failed_rows": tally.verdict_failed,
        "failed_frac": not_ok / attempted,
        "problems": tally.problems + wl.calls.problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "details": details,
    }
    (OUT_DIR / f"{run_id}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("machine " + json.dumps(result["machine"]))
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        p, t = details["pass_s"], details["transform_ms"]
        print(f"  pass_s q1={p['q1']:.4g} q3={p['q3']:.4g} n={p['n']}; "
              f"transform_ms p50={t['median']:.4g} q1={t['q1']:.4g} q3={t['q3']:.4g} n={t['n']}; "
              f"setup_s samples {', '.join(f'{s:.4g}' for s in details['setup_s_samples'])}")
    print(f"  failed_frac {result['failed_frac']:.6g} = ({failed} failed checks + "
          f"{tally.verdict_failed} rows with pass=false) / {attempted} operations")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
