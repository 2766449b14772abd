"""Run workloads on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 20 [--workload chain-sweep ...]
                                [--trace 0|1] [--out summary.json]

For every workload and metric this prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median over
the runs; the bound column is the one BENCHMARK.json sets.  With ``--out``
the same summary, plus every run's metrics and the machine, is written as
JSON (``baseline.json`` holds two such summaries).  Runs are made one at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            if "machine" not in summary:
                full = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
                summary["machine"] = {k: v for k, v in full["machine"].items() if k != "seed"}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0]["metrics"])
        metrics = {}
        for name in names:
            values = [run["metrics"][name]["value"] for run in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
            m = metrics[name]
            bound = bounds.get(name)
            print(f"  {name:<44} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                  f" spread {m['spread']:.4f}" + (f" (bound {bound})" if bound is not None else ""),
                  flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
