"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py --seed 1

Each run measures for BENCHMARK.json's run_seconds.  One line per metric:
workload, name, value, unit and the number of samples behind it.  ``error_rate`` is failed over attempted requests.  The exit code
is 1 when any output check failed (or a workload could not run), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def samples(name: str, result: dict) -> int:
    if name == "setup_s":
        return run.SETUP_STARTS
    if name == "peak_rss_mb":
        return 1
    if name in run.PER_LAYER:
        return result["metrics"]["trace.requests"]["value"]
    return result["attempted"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    print(f"{'workload':8} {'metric':42} {'value':>14} {'unit':6} {'samples':>7}")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            try:
                result = run.measure(workload, args.seed, seconds, trace)
            except run.RUN_ERRORS as exc:
                print(f"{workload:8} failed to run: {exc}")
                ok = False
                continue
            ok = ok and result["correct"]
            rows = [(name, m["value"], m["unit"], samples(name, result)) for name, m in result["metrics"].items()]
            if not trace:
                rows.append(("error_rate", result["failed"] / result["attempted"], "ratio", result["attempted"]))
            for name, value, unit, n in rows:
                print(f"{workload:8} {name:42} {value:14.4f} {unit:6} {n:7d}")
    if not ok:
        print("output checks failed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
