"""Record the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/expected.json`` for every input any seed can draw: point and
edge counts of each strata bucket, sigma_chi dimensions and term counts of each
weight and split, the eigen windows and the digests of the outputs without an
independent oracle, and the exit code and output digests of every CLI command.
Run it only on a commit whose outputs are known to be right (the file in the
repository was recorded on the commit that introduced the benchmark); a
refactor must keep every recorded value.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads as wl


def record_strata() -> dict:
    out = {}
    for n, mu in wl.STRATA_CLASSES:
        points = wl.K.enumerate_B(n, mu)
        out[wl._key(n, mu)] = [len(points), len(wl.K.hasse(points))]
    return out


def record_weights() -> dict:
    out = {}
    for _, n, lam in wl.weights_pool():
        for a in sorted({n // 2, n - n // 2}):
            shape = wl.L.LParamShape.from_dims((a, n - a))
            sym = wl.W.sigma_chi(shape, lam, wl.sigma_char(lam, a))
            out[wl._key(n, lam, a)] = [sym.dim, len(sym.terms)]
    return out


def record_eigen() -> tuple[dict, dict]:
    windows, digests = {}, {}
    eigen = wl.Eigen.__new__(wl.Eigen)  # call() reads no instance state
    for dims, lam in wl.EIGEN_GROUPS:
        shape = wl.L.LParamShape.from_dims(dims)
        window = wl.eigen_window(shape, lam)
        windows[wl._key(dims, lam)] = wl.window_json(window)
        for xi in wl.xi_choices(len(dims)):
            for req in wl.group_requests(dims, lam, xi, window):
                key = wl.eigen_digest_key(req)
                if key is not None:
                    digests[key] = wl.eigen_digest_value(req, eigen.call(req))
    return windows, digests


def record_cli(root: str) -> dict:
    scratch = os.path.join(root, ".bench_tmp", f"record-{os.getpid()}")
    os.makedirs(scratch)
    try:
        cli = wl.Cli(0, {"cli": {}}, scratch)
        return {req[0]: cli.outcome(cli.call(req)) for req in cli.reqs}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run is using it
            pass


def main() -> int:
    root = os.path.dirname(wl.HERE)
    windows, digests = record_eigen()
    expected = {
        "strata": record_strata(),
        "weights_sigma": record_weights(),
        "eigen_windows": windows,
        "eigen": digests,
        "cli": record_cli(root),
    }
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}: " + ", ".join(f"{k} {len(v)}" for k, v in expected.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
