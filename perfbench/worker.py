"""One benchmark session in a fresh interpreter.

Started by run.py, never by hand.  It imports bunncalc, builds the workload's
deck from the seed, prints ``ready`` and then runs a closed loop: one client,
each request sent when the previous one returned.  ``--seconds`` runs whole
passes until that much time has gone (or the deck has no more passes);
``--passes`` runs a fixed number of passes, which the traced runs use so that
their counts repeat exactly.  Every latency is reported at the reference
speed of speed.py, from a probe taken just before the request (and, for a
long request, just after it).  The last line of stdout is a JSON summary, with
the latencies of every request of the deck that passed its check, and the
completed requests and their summed latency for every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

import speed


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() just before this process was spawned")
    p.add_argument("--scratch", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float)
    p.add_argument("--passes", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--session", type=int,
                   help="index of this session in its run; picks the part of a split deck")
    return p.parse_args(argv)


def pin(session: int) -> None:
    """Keep a timed session, and every child it starts, on one processor.

    The speed probe then runs where the requests it scales run, even when a
    request is a child process; consecutive sessions of a run take the
    processors in turn, so a run samples each of them alike.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[session % len(cpus)]})
    except (AttributeError, OSError):
        pass  # no affinity control here: the session runs unpinned


def install_library_tracer(tracer):
    """Wrap the library layers named in the benchmark's per-layer metrics."""
    import bunncalc.bundles as B
    import bunncalc.kottwitz as K
    import bunncalc.lparams as L
    import bunncalc.shtuka as SH
    import bunncalc.spectral as SP
    import bunncalc.weights as W

    from spans import rebind

    sizes = tracer.counts
    wm_cache = W._weight_mults_cached

    def count_len(key):
        def after(_state, _args, out):
            sizes[key] += len(out)
        return after

    def gt_after(misses_before, args, _out):
        # a cache miss enumerates one pattern per dimension of the weight
        if wm_cache.cache_info().misses > misses_before:
            sizes["weights.gt_patterns"] += W.weyl_dim(args[1], args[0])

    hooks = {
        (K, "enumerate_B"): (None, count_len("kottwitz.enumerate_B.points")),
        (K, "hasse"): (None, count_len("kottwitz.hasse.edges")),
        (K, "dot_export"): (None, None),
        (W, "weight_multiplicities"): (lambda args: wm_cache.cache_info().misses, gt_after),
        (W, "levi_branching"): (None, count_len("weights.levi_branching.terms")),
        (W, "sigma_chi"): (None, None),
        (L, "make_F"): (None, None),
        (L, "chi_to_rep"): (None, None),
        (L, "b_to_chis"): (None, None),
        (B, "rho_pairing"): (None, None),
        (B, "normalize_bundle"): (None, None),
        (SP, "hecke"): (None, None),
        (SP, "verify_eigen"): (None, None),
        (SH, "shtuka_cohomology"): (None, None),
        (SH, "harris_viehmann"): (None, None),
    }
    for (module, name), (before, after) in hooks.items():
        layer = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        original = getattr(module, name)
        rebind(original, tracer.wrap(layer, original, before, after))
    rebind(K.leq, tracer.counter("kottwitz.leq.calls", K.leq))
    return [W.levi_branching.__wrapped__, wm_cache]


def library_layers(tracer, caches, before):
    self_ms, calls = tracer.summary()
    out = {}
    for name, ms in self_ms.items():
        out[f"{name}.self_ms"] = ms
        out[f"{name}.calls"] = calls[name]
    out.update(tracer.counts)
    leq = tracer.counts["kottwitz.leq.calls"]
    out["kottwitz.hasse.edges_per_leq"] = out.get("kottwitz.hasse.edges", 0) / leq if leq else 0.0
    for label, cache, (h0, m0) in zip(("levi_branching", "weight_mults"), caches, before):
        info = cache.cache_info()
        hits, total = info.hits - h0, info.hits - h0 + info.misses - m0
        out[f"weights.{label}.cache_calls"] = total
        out[f"weights.{label}.cache_hit_ratio"] = hits / total if total else 0.0
    return out


def cli_layers(probes):
    return {
        "cli.import_ms": statistics.median(p["import_ms"] for p in probes),
        "cli.build_parser.self_ms": sum(p["build_parser_ms"] for p in probes),
        "cli.main.self_ms": sum(p["main_self_ms"] for p in probes),
        "serialize.self_ms": sum(p["serialize_ms"] for p in probes),
        "serialize.bytes_out": sum(p["serialize_bytes"] for p in probes),
        "cli.stdout_bytes": sum(p["stdout_bytes"] for p in probes),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.session is not None:
        pin(args.session)
    t_import = perf_counter()
    import bunncalc.cli  # noqa: F401  (the whole package, as a CLI user loads it)
    import_ms = (perf_counter() - t_import) * 1e3

    import workloads

    expected = workloads.load_expected()
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(args.seed, expected, args.scratch, probe=args.trace)
    elif cls.parts > 1 and args.session is not None:
        wl = cls(args.seed, expected, part=args.session % cls.parts)
    else:
        wl = cls(args.seed, expected)
    first_pass = wl.make_pass(0)
    setup_s = speed.at_reference(time.monotonic() - args.started, speed.probe())
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = caches = before = None
    if args.trace and cls is not workloads.Cli:
        from spans import Tracer

        tracer = Tracer()
        caches = install_library_tracer(tracer)
        before = [(c.cache_info().hits, c.cache_info().misses) for c in caches]

    times = {}  # repr of a request -> its latencies, at the reference speed
    passes = []  # [completed requests, their summed latency] of each pass
    attempted = failed = 0
    rid = 0
    loop_start = perf_counter()
    index = 0
    while True:
        if wl.max_passes is not None and index >= wl.max_passes:
            break
        if args.passes is not None and index >= args.passes:
            break
        if args.seconds is not None and perf_counter() - loop_start >= args.seconds:
            break
        reqs = first_pass if index == 0 else wl.make_pass(index)
        done = busy = 0
        for req in reqs:
            attempted += 1
            rid += 1
            probe_s = speed.probe()
            if tracer:
                tracer.request = rid
                tracer.enabled = True
            t0 = perf_counter()
            try:
                out = wl.call(req)
                ok = True
            except Exception:
                ok = False
                traceback.print_exc()
            elapsed = perf_counter() - t0
            if tracer:
                tracer.enabled = False
            seen_s = probe_s
            if elapsed >= speed.LONG_REQUEST_S:
                seen_s = (probe_s + speed.probe()) / 2
            if ok:
                try:
                    ok = wl.check(req, out)
                except Exception:
                    ok = False
                    traceback.print_exc()
                if not ok:
                    print(f"output check failed: {args.workload} {req!r}"[:400], file=sys.stderr)
            if ok:
                latency = speed.at_reference(elapsed, seen_s)
                times.setdefault(repr(req), []).append(latency)
                done, busy = done + 1, busy + latency
            else:
                failed += 1
        passes.append([done, busy])
        index += 1
    loop_s = perf_counter() - loop_start

    # the cli workload's program is its children; this process is the harness
    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli else resource.RUSAGE_SELF
    summary = {
        "setup_s": setup_s,
        "import_ms": import_ms,
        "attempted": attempted,
        "failed": failed,
        "loop_s": loop_s,
        "parts": cls.parts,
        "times": times,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = cli_layers(wl.probes) if tracer is None else library_layers(tracer, caches, before)
        layers.setdefault("cli.import_ms", import_ms)
        summary["layers"] = layers
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
