"""Self-check of the benchmark: run each workload briefly, untraced and traced,
and fail unless every metric BENCHMARK.json names is reported, finite and in
its declared unit, and nothing else is.

    python3 perfbench/selfcheck.py

Takes two to three minutes on two cores; exit status 0 means every check held.
"""

from __future__ import annotations

import json
import math
import sys

from repeat import ROOT, run_once

BRIEF_SECONDS = 1  # each run still makes the passes its output checks need


def check(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for metric in declared:
        entry = metrics.get(metric["name"])
        if entry is None:
            problems.append(f"{metric['name']} missing")
        elif entry["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} in {entry['unit']}, declared {metric['unit']}")
        elif not math.isfinite(entry["value"]):
            problems.append(f"{metric['name']} = {entry['value']!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_once(workload, 0, BRIEF_SECONDS, trace)
            problems = check(result, declared)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)
            for problem in problems:
                print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
