"""Seeded request decks for the benchmark workloads, the library calls each
request makes, and the check applied to every result.

A workload is a fixed set of size classes.  The seed chooses the concrete
input inside each class only along directions that leave its cost unchanged
(a determinant shift, the source character), and the order of the requests
in each pass where that order does not change their cost, so runs on different seeds cost the same
and differ only by the noise of the machine.  Checks use
independent oracles where one exists and digests recorded at the seed commit
(``expected.json``) otherwise; they run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import bunncalc.kottwitz as K
import bunncalc.lparams as L
import bunncalc.serialize as S
import bunncalc.shtuka as SH
import bunncalc.spectral as SP
import bunncalc.weights as W

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _key(*parts) -> str:
    return "|".join(str(p) for p in parts)


# ---------------------------------------------------------------- strata
#
# One (n, mu) per size class, n from 3 to 8, mu entries at most 3, 5 to 122
# Newton points.  Every class takes the enum path; all but the largest also take the
# hasse path (122 points would cost about 2.3 s there).  That makes 35
# requests a pass, an odd count with 0.9 * 35 halfway between two integers, so
# p50 and p90 fall in the middle of a class rather than between two classes;
# three hasse requests on 8 points make the plateau p50 falls on, and three on
# 29 points the one p90 falls on.
# The seed shifts each mu by a multiple of (1, ..., 1), which moves every
# Newton point and its endpoint invariant but leaves the poset and the cost
# unchanged.

STRATA_CLASSES = [
    (3, (3, 3, 0)),
    (4, (2, 2, 2, 0)),
    (4, (2, 2, 1, 0)),
    (4, (2, 2, 0, 0)),
    (4, (2, 1, 0, 0)),
    (4, (3, 2, 2, 0)),
    (4, (3, 3, 1, 0)),
    (5, (2, 2, 1, 1, 0)),
    (5, (2, 2, 2, 0, 0)),
    (7, (2, 0, 0, 0, 0, 0, 0)),
    (6, (2, 2, 2, 2, 1, 0)),
    (7, (1, 1, 1, 0, 0, 0, 0)),
    (8, (2, 1, 1, 1, 1, 1, 1, 0)),
    (8, (1, 1, 1, 1, 1, 0, 0, 0)),
    (6, (2, 2, 1, 1, 0, 0)),
    (6, (3, 2, 2, 2, 0, 0)),
    (8, (3, 3, 2, 2, 2, 2, 2, 0)),
    (8, (3, 3, 3, 3, 3, 2, 1, 0)),
]
STRATA_ENUM_ONLY = 1
STRATA_SHIFTS = (-1, 0, 1, 2)


def _partial_sums(vec):
    out, acc = [], Fraction(0)
    for x in vec:
        acc += x
        out.append(acc)
    return out


def _pairing(vec) -> Fraction:
    """<2rho, v> = sum_{i<j} (v_i - v_j), straight from the definition."""
    return sum((vec[i] - vec[j] for i in range(len(vec)) for j in range(i + 1, len(vec))), Fraction(0))


def _grade(point) -> Fraction:
    """(<2rho, nu> - def)/2 with def = n - sum of stable multiplicities."""
    vec = point.slope_vector()
    stable = sum(c // Fraction(s).denominator for s, c in point.classes)
    return (_pairing(vec) - (len(vec) - stable)) / 2


class Strata:
    """Newton strata: half the requests take the ``kottwitz hasse --dot`` path
    (enumerate_B, hasse, dot_export), half the ``kottwitz enum`` path
    (enumerate_B, then d_point and kappa of every point)."""

    max_passes = None
    parts = 1

    def __init__(self, seed: int, expected: dict):
        rng = random.Random(_key("strata", seed))
        self.seed = seed
        self.expected = expected["strata"]
        self.picks = []
        for n, mu in STRATA_CLASSES:
            c = rng.choice(STRATA_SHIFTS)
            self.picks.append((n, tuple(x + c for x in mu), _key(n, mu)))

    def make_pass(self, index: int) -> list:
        reqs = [("enum", pick) for pick in self.picks]
        reqs += [("hasse", pick) for pick in self.picks[:-STRATA_ENUM_ONLY]]
        random.Random(_key("strata", self.seed, index)).shuffle(reqs)
        return reqs

    def call(self, req):
        path, (n, mu, _) = req
        points = K.enumerate_B(n, mu)
        if path == "enum":
            return points, [(K.d_point(p), p.kappa) for p in points]
        edges = K.hasse(points)
        return points, edges, K.dot_export(points)

    def check(self, req, result) -> bool:
        path, (n, mu, key) = req
        want_points, want_edges = self.expected[key]
        points = result[0]
        top = _partial_sums(Fraction(x) for x in mu)
        if len(points) != want_points or points[0].slope_vector() != tuple(Fraction(x) for x in mu):
            return False
        for p in points:
            sums = _partial_sums(p.slope_vector())
            if sums[-1] != top[-1] or any(a > b for a, b in zip(sums, top)):
                return False
        if path == "enum":
            pairs = result[1]
            return all(
                d == _pairing(p.slope_vector()) and kappa == sum(mu)
                for p, (d, kappa) in zip(points, pairs)
            )
        edges, dot = result[1], result[2]
        if len(edges) != want_edges:
            return False
        if any(_grade(hi) - _grade(lo) != 1 for lo, hi in edges):
            return False
        lines = dot.splitlines()
        return (
            sum("[label=" in line for line in lines) == want_points
            and sum(" -> " in line for line in lines) == want_edges
        )


# ---------------------------------------------------------------- weights
#
# Every dominant weight of GL_n, n = 4..8, normalized size 1..8: 279 weights,
# dimension up to 50688.  Each is used once per session, so no top-level call
# hits a cache.  In order of dimension the weights take the four request kinds
# in turn, with two replacements by a two-block branch:
#
# - the torus branch above WEIGHTS_TORUS_MAX_DIM, where one torus request would
#   cost 1.5 to 2.7 s and dominate a session;
# - weight_multiplicities below MULT_MIN_N.  levi_branching looks up the
#   multiplicities of every block piece it splits off; a two-block split of
#   n <= 8 has blocks of at most 4 and the torus blocks of 1, so a top-level
#   multiplicity request on n >= 5 can never have been looked up before.
#
# The seed picks a nonzero determinant shift (with no shift, levi_branching's
# normalized inner call shares its cache entry with the request itself, which
# saves memory that a shifted weight does not).  Which of the mirrored splits (a, n - a)
# and (n - a, a) a weight uses alternates along the pool and is not seeded:
# it decides which block pieces get cached, and so how much memory a session
# peaks at.

WEIGHTS_TORUS_MAX_DIM = 12000
MULT_MIN_N = 5
# A timed session takes one part of the pool: the pool in order of dimension,
# cut into runs of one weight of each kind, dealt round the parts.  So a run of fixed length gets several short cold
# sessions rather than two or three long ones, and no one interpreter sets the
# result.  The parts and their order are fixed, not seeded: the first request
# to split off a block piece computes and caches its multiplicities, so the
# order sets what each request costs and how much memory a session peaks at.
WEIGHTS_PARTS = 4
WEIGHTS_SHIFTS = (-2, -1, 1, 2)
WEIGHT_KINDS = ("mult", "branch", "torus", "sigma")


def dominant_weights(n: int, size: int):
    """Weakly decreasing n-tuples ending in 0 with entry sum 1..size."""
    out = []

    def rec(prefix, cap, left):
        if len(prefix) == n - 1:
            if sum(prefix):
                out.append(tuple(prefix) + (0,))
            return
        for v in range(min(cap, left), -1, -1):
            rec(prefix + [v], v, left - v)

    rec([], size, size)
    return out


def weights_pool():
    return sorted(
        (W.weyl_dim(lam, n), n, lam)
        for n in range(4, 9)
        for lam in dominant_weights(n, 8)
    )


def weight_kind(i: int, n: int, dim: int) -> str:
    kind = WEIGHT_KINDS[i % len(WEIGHT_KINDS)]
    if (kind == "torus" and dim > WEIGHTS_TORUS_MAX_DIM) or (kind == "mult" and n < MULT_MIN_N):
        return "branch"
    return kind


def sigma_char(lam, a: int):
    """Block sums of the highest weight: a character with a nonzero slice."""
    return (sum(lam[:a]), sum(lam[a:]))


class Weights:
    """Representation layer with cold caches: weight_multiplicities,
    levi_branching to two blocks and to the torus, and sigma_chi, each on a
    weight no other request of the session uses; run.py starts fresh
    sessions until the run's time is up.  ``part`` picks one of the
    WEIGHTS_PARTS parts of the pool; None takes the whole pool."""

    max_passes = 1
    parts = WEIGHTS_PARTS

    def __init__(self, seed: int, expected: dict, part: int | None = None):
        rng = random.Random(_key("weights", seed))
        self.expected = expected["weights_sigma"]
        self.reqs = []
        for i, (dim, n, lam) in enumerate(weights_pool()):
            kind = weight_kind(i, n, dim)
            c = rng.choice(WEIGHTS_SHIFTS)
            a = (n // 2, n - n // 2)[i % 2]
            if part is None or i // len(WEIGHT_KINDS) % WEIGHTS_PARTS == part:
                self.reqs.append((kind, n, tuple(x + c for x in lam), a, dim, _key(n, lam, a)))
        random.Random("weights").shuffle(self.reqs)

    def make_pass(self, index: int) -> list:
        return list(self.reqs)

    def call(self, req):
        kind, n, lam, a = req[:4]
        if kind == "mult":
            return W.weight_multiplicities(n, lam)
        if kind == "branch":
            return W.levi_branching(n, lam, (a, n - a))
        if kind == "torus":
            return W.levi_branching(n, lam, (1,) * n)
        shape = L.LParamShape.from_dims((a, n - a))
        return W.sigma_chi(shape, lam, sigma_char(lam, a))

    def check(self, req, result) -> bool:
        kind, n, lam, a, dim, key = req
        if kind == "mult":
            return (
                sum(result.values()) == dim
                and result.get(lam) == 1
                and all(sum(w) == sum(lam) for w in result)
            )
        if kind in ("branch", "torus"):
            blocks = (a, n - a) if kind == "branch" else (1,) * n
            total = 0
            for ws, mult in result:
                prod = mult
                for w, m in zip(ws, blocks):
                    prod *= W.weyl_dim(w, m)
                total += prod
            return total == dim
        chi = sigma_char(lam, a)
        if any(tuple(sum(w) for w in ws) != chi for ws, _ in result.terms):
            return False
        return [result.dim, len(result.terms)] == self.expected[key]


# ---------------------------------------------------------------- eigen
#
# One (dims, lam) group per size class, from r = 2 to r = 4 components,
# n <= 5, weight size <= 6; the verify_eigen window is the expensive request.
# Five groups of eleven requests make 55 a pass, odd and with 0.9 * 55
# halfway between two integers (see the strata classes).

EIGEN_GROUPS = [
    ((1, 1), (4, 0)),
    ((1, 2), (6, 0, 0)),
    ((1, 1, 1), (3, 0, 0)),
    ((1, 2, 2), (3, 1, 0, 0, 0)),
    ((1, 1, 1, 1), (2, 0, 0, 0)),
]
EIGEN_WINDOW = 8


def xi_choices(r: int):
    """Source characters: +-1 on a single component."""
    return [tuple(s if j == i else 0 for j in range(r)) for i in range(r) for s in (1, -1)]


def eigen_window(shape, lam):
    """Strata carried by the weight-lam operator on the identity symbol."""
    dec = SP.hecke(shape, lam, L.make_F(shape, L.chi_id(shape.r)))
    strata = {sheaf.stratum for _, sheaf, _ in dec.terms}
    return sorted(strata, key=lambda p: p.slope_vector(), reverse=True)[:EIGEN_WINDOW]


def window_json(window) -> list:
    return [[str(x) for x in b.slope_vector()] for b in window]


def window_points(rows) -> list:
    return [K.point_from_vector(Fraction(x) for x in row) for row in rows]


def group_requests(dims, lam, xi, window):
    """The requests one (shape, weight) group issues, in a fixed order."""
    b0, b1 = window[0], window[len(window) // 2]
    g = (dims, lam, xi)
    minus = tuple(-x for x in xi)
    return [
        ("hecke", g, L.chi_id(len(dims))),
        ("hecke", g, xi),
        ("hecke", g, minus),
        ("stalk", g, b0),
        ("shtuka", g, (b0, "forward")),
        ("shtuka", g, (b0, "inverse")),
        ("shtuka", g, (b1, "forward")),
        ("shtuka", g, (b1, "inverse")),
        ("hv", g, None),
        ("eigenstalk", g, b1),
        ("verify", g, tuple(window)),
    ]


def eigen_digest_key(req) -> str | None:
    kind, (dims, lam, xi), arg = req
    if kind == "shtuka":
        return _key(kind, dims, lam, xi, arg[0], arg[1])
    if kind == "hv":
        return _key(kind, dims, lam, xi)
    if kind == "eigenstalk":
        return _key(kind, dims, arg)
    return None


def eigen_digest_value(req, result) -> str:
    if req[0] == "eigenstalk":
        return digest(S.eigenstalk_json(result))
    return digest(S.cohomology_json(result))


class Eigen:
    """Spectral and cohomology layers with shared work: every group reuses
    one levi_branching, so the time goes to make_F, chi_to_rep, the pairing,
    bundle normalization and the sigma_chi rescans."""

    max_passes = None
    parts = 1

    def __init__(self, seed: int, expected: dict):
        rng = random.Random(_key("eigen", seed))
        self.seed = seed
        self.expected = expected["eigen"]
        self.reqs = []
        for dims, lam in EIGEN_GROUPS:
            xi = rng.choice(xi_choices(len(dims)))
            # the window was recorded with eigen_window, so that building the
            # deck does not warm the library's caches
            window = window_points(expected["eigen_windows"][_key(dims, lam)])
            self.reqs.extend(group_requests(dims, lam, xi, window))

    def make_pass(self, index: int) -> list:
        reqs = list(self.reqs)
        random.Random(_key("eigen", self.seed, index)).shuffle(reqs)
        return reqs

    def call(self, req):
        kind, (dims, lam, xi), arg = req
        shape = L.LParamShape.from_dims(dims)
        if kind == "hecke":
            return SP.hecke(shape, lam, L.make_F(shape, arg))
        if kind == "stalk":
            dec = SP.hecke(shape, lam, L.make_F(shape, L.chi_id(shape.r)))
            return dec, SP.stalk(dec, arg)
        if kind == "shtuka":
            return SH.shtuka_cohomology(shape, xi, arg[0], lam, arg[1])
        if kind == "hv":
            return SH.harris_viehmann(shape, xi, lam)
        if kind == "eigenstalk":
            return SP.eigensheaf_stalk(shape, arg)
        return SP.verify_eigen(shape, lam, arg)

    def check(self, req, result) -> bool:
        kind, (dims, lam, xi), arg = req
        n = sum(dims)
        if kind == "hecke":
            return result.total_dim == W.weyl_dim(lam, n) and result.source == arg
        if kind == "stalk":
            dec, picked = result
            want = [(s, w) for _, s, w in dec.terms if s.stratum == arg]
            return picked == want and dec.total_dim == W.weyl_dim(lam, n)
        if kind == "verify":
            return result is True
        return self.expected.get(eigen_digest_key(req)) == eigen_digest_value(req, result)


# ---------------------------------------------------------------- cli
#
# Every command of the README, each in text, --ascii and --json form, run as a
# ``python -m bunncalc.cli`` subprocess from a scratch directory.

README_COMMANDS = [
    ["bundle", "O(3/4)+O(1/3)+O^3"],
    ["kottwitz", "enum", "-n", "10", "--mu", "1,0,0,0,0,0,0,0,0,0", "--dot", "poset.dot"],
    ["kottwitz", "hasse", "-n", "3", "--mu", "1,0,0"],
    ["chi-to-b", "--dims", "4,1", "--chi", "2,0"],
    ["b-to-chis", "--dims", "1,1,1", "--bundle", "O(1)^2+O"],
    ["shape", "--dims", "2,3", "--torsion", "2,3"],
    ["weights", "mult", "-n", "2", "--lambda", "3,0"],
    ["weights", "branch", "-n", "4", "--lambda", "1,1,0,0", "--blocks", "2,2"],
    ["weights", "sigma", "--dims", "1,1", "--lambda", "3,0", "--chi", "2,1"],
    ["spectral", "act", "--dims", "1,1", "--chi", "1,0", "--xi", "0,0"],
    ["hecke", "--dims", "1,1", "--lambda", "3,0", "--xi", "0,0", "--stalk", "O(2)+O(1)"],
    ["spectral", "eigensheaf", "--dims", "1,1,1", "--bundle", "O(1)^2+O"],
    ["spectral", "verify", "--dims", "2,1", "--lambda", "1,0,0", "--strata", "O^3;O(1/2)+O;O(1)+O^2"],
    ["shtuka", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0", "--target", "O^2"],
    ["hv", "--dims", "1,1", "--xi", "-1,-2", "--mu-inv", "3,0"],
    ["boyer", "--b", "O(3/4)+O(1/3)+O^3", "--bprime", "O(3/2)+O(1/2)+O(1/3)+O^3",
     "--mu", "1,0,0,0,0,0,0,0,0,0", "--split", "4"],
    ["modif", "targets", "-n", "5", "--nprime", "3"],
    ["modif", "necessary", "--b", "O^5", "--bprime", "O(1/5)", "--mu", "1,0,0,0,0"],
    ["igusa", "--dims", "1,1,1", "--mu", "1,0,0", "--b", "O(1)+O^2"],
]
CLI_MODES = {"text": [], "ascii": ["--ascii"], "json": ["--json"]}
DOT_NAME = "poset.dot"


def cli_argvs():
    return [
        (f"{mode}:{i}", argv + extra)
        for mode, extra in CLI_MODES.items()
        for i, argv in enumerate(README_COMMANDS)
    ]


class Cli:
    """The front end: interpreter start, import, argparse and rendering, one
    subprocess per README command and output mode."""

    max_passes = None
    parts = 1

    def __init__(self, seed: int, expected: dict, scratch: str, probe: bool = False):
        self.seed = seed
        self.expected = expected["cli"]
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        self.probe = probe
        self.probes: list[dict] = []  # in-process timings, one per invocation
        entry = [os.path.join(HERE, "cli_probe.py")] if probe else ["-m", "bunncalc.cli"]
        self.prefix = [sys.executable] + entry
        self.reqs = cli_argvs()

    def make_pass(self, index: int) -> list:
        reqs = list(self.reqs)
        random.Random(_key("cli", self.seed, index)).shuffle(reqs)
        return reqs

    def call(self, req) -> dict:
        dot = os.path.join(self.scratch, DOT_NAME)
        if os.path.exists(dot):
            os.remove(dot)
        proc = subprocess.run(
            self.prefix + req[1], cwd=self.scratch, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        out = {"code": proc.returncode, "stdout_sha": _sha(proc.stdout), "dot_sha": None}
        if self.probe:
            probe = json.loads(proc.stdout.decode().splitlines()[-1])
            self.probes.append(probe)
            out["code"], out["stdout_sha"] = probe["code"], probe["stdout_sha"]
        if DOT_NAME in req[1]:
            with open(dot, "rb") as fh:
                out["dot_sha"] = _sha(fh.read())
        return out

    @staticmethod
    def outcome(result: dict) -> list:
        return [result["code"], result["stdout_sha"], result["dot_sha"]]

    def check(self, req, result) -> bool:
        return self.outcome(result) == self.expected[req[0]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {"strata": Strata, "weights": Weights, "eigen": Eigen, "cli": Cli}
