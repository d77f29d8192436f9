"""bunncalc benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload strata --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from ``src`` through
PYTHONPATH, not installed.  Every session is a fresh interpreter started by
this script (perfbench/worker.py), one at a time.

--trace 0 measures the end-to-end metrics: set-up time (the median of several
fresh starts), then a closed loop of whole passes over the seeded deck for
--seconds, in fresh sessions of at most SESSION_S each (a weights session
uses one part of its deck once, to keep its caches cold).  A request's latency is the
median of its repetitions in the run; the percentiles and requests_per_s are
taken over the requests of the deck.  Every time is reported at the
reference speed of speed.py, so that the drift of a shared machine's speed
cancels.  --trace 1 measures the per-layer metrics: a fixed number
of passes untraced, then the same passes with every library layer wrapped in
spans.

The last line of stdout is the JSON result.  The exit code is 0 whenever a
result was printed; ``correct`` is false when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")

WORKLOADS = ("strata", "weights", "eigen", "cli")
SETUP_STARTS = 20
# a run's loop is split into sessions of about this length, each a fresh
# interpreter, so that no one process's memory layout sets the result
SESSION_S = 5.0
# passes of a traced run (and of its untraced twin); fixed so counts repeat
TRACE_PASSES = {"strata": 1, "weights": 1, "eigen": 2, "cli": 1}
# a run must end within 180 s, whatever the program under test does
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kottwitz.enumerate_B.self_ms": "ms",
    "kottwitz.enumerate_B.points": "count",
    "kottwitz.hasse.self_ms": "ms",
    "kottwitz.hasse.edges": "count",
    "kottwitz.leq.calls": "count",
    "kottwitz.hasse.edges_per_leq": "ratio",
    "kottwitz.dot_export.self_ms": "ms",
    "weights.weight_multiplicities.self_ms": "ms",
    "weights.gt_patterns": "count",
    "weights.levi_branching.self_ms": "ms",
    "weights.levi_branching.terms": "count",
    "weights.levi_branching.cache_hit_ratio": "ratio",
    "weights.levi_branching.cache_calls": "count",
    "weights.weight_mults.cache_hit_ratio": "ratio",
    "weights.weight_mults.cache_calls": "count",
    "weights.sigma_chi.calls": "count",
    "weights.sigma_chi.self_ms": "ms",
    "lparams.make_F.calls": "count",
    "lparams.make_F.self_ms": "ms",
    "lparams.chi_to_rep.self_ms": "ms",
    "lparams.b_to_chis.calls": "count",
    "lparams.b_to_chis.self_ms": "ms",
    "bundles.rho_pairing.calls": "count",
    "bundles.rho_pairing.self_ms": "ms",
    "bundles.normalize_bundle.calls": "count",
    "bundles.normalize_bundle.self_ms": "ms",
    "spectral.hecke.calls": "count",
    "spectral.hecke.self_ms": "ms",
    "spectral.verify_eigen.self_ms": "ms",
    "shtuka.shtuka_cohomology.self_ms": "ms",
    "shtuka.harris_viehmann.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.build_parser.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "serialize.self_ms": "ms",
    "serialize.bytes_out": "count",
    "cli.stdout_bytes": "count",
    "trace.requests": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


# what a run can fail with: a worker that died, timed out or printed garbage
RUN_ERRORS = (BenchError, ValueError, OSError, subprocess.TimeoutExpired)


def run_worker(workload: str, seed: int, scratch: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--scratch", scratch, "--started", repr(time.monotonic()), *extra,
    ]
    # its own process group, so that a kill also reaches a CLI child it started
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def throughput(session: dict) -> float:
    done, busy = (sum(col) for col in zip(*session["passes"]))
    return done / busy if busy else 0.0


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def end_to_end(
    workload: str, seed: int, seconds: float, scratch: str, deadline: float
) -> tuple[dict, dict]:
    setups = [
        run_worker(workload, seed, scratch, deadline, "--setup-only")["setup_s"]
        for _ in range(SETUP_STARTS)
    ]
    sessions = []
    start = time.monotonic()
    # every part of a split deck runs at least once
    while (not sessions or time.monotonic() - start < seconds
           or len(sessions) < sessions[0]["parts"]):
        left = max(0.0, min(SESSION_S, seconds - (time.monotonic() - start)))
        sessions.append(run_worker(workload, seed, scratch, deadline, "--seconds", repr(left),
                                   "--session", str(len(sessions))))
    times: dict[str, list[float]] = {}
    for s in sessions:
        for req, ts in s["times"].items():
            times.setdefault(req, []).extend(ts)
    if len(times) < 2:
        raise BenchError(f"{workload}: fewer than two requests succeeded")
    typical = [statistics.median(ts) for ts in times.values()]
    q = deciles(typical)
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(typical) / sum(typical),
        "latency_p50_ms": q[4] * 1e3,
        "latency_p90_ms": q[8] * 1e3,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
    }
    return values, sessions


def per_layer(
    workload: str, seed: int, scratch: str, deadline: float
) -> tuple[dict, list[dict]]:
    passes = ("--passes", str(TRACE_PASSES[workload]))
    plain = run_worker(workload, seed, scratch, deadline, *passes)
    traced = run_worker(workload, seed, scratch, deadline, *passes, "--trace")
    values = {name: 0 for name in PER_LAYER}
    values.update({k: v for k, v in traced["layers"].items() if k in PER_LAYER})
    values["trace.requests"] = traced["attempted"]
    plain_rps, traced_rps = throughput(plain), throughput(traced)
    values["trace.overhead_ratio"] = traced_rps / plain_rps if plain_rps else 0.0
    return values, [plain, traced]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (without printing)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "bunncalc", "__init__.py")):
        raise BenchError("src/bunncalc not found: run from the root of a bunncalc checkout")
    scratch = os.path.join(SCRATCH, f"{workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if trace:
            values, runs = per_layer(workload, seed, scratch, deadline)
            units = PER_LAYER
        else:
            values, runs = end_to_end(workload, seed, seconds, scratch, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RUN_ERRORS as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
