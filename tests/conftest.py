import gc
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from bunncalc import BundleSpec, normalize_bundle, reduce_slope
from bunncalc.lparams import LParamShape


@st.composite
def bundle_specs(draw, max_rank: int = 12) -> BundleSpec:
    n_parts = draw(st.integers(1, 3))
    triples = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(1, 3), st.integers(1, 2)),
            min_size=n_parts,
            max_size=n_parts,
            unique_by=lambda t: Fraction(t[0], t[1]),
        )
    )
    spec = normalize_bundle([(reduce_slope(a, b), m) for a, b, m in triples])
    from hypothesis import assume

    assume(spec.rank <= max_rank)
    return spec


@st.composite
def shapes(draw, max_r: int = 4, max_dim: int = 4) -> LParamShape:
    r = draw(st.integers(1, max_r))
    dims = draw(st.lists(st.integers(1, max_dim), min_size=r, max_size=r))
    return LParamShape.from_dims(dims)


@st.composite
def shape_and_chi(draw, max_r: int = 4, max_dim: int = 4, max_d: int = 5):
    shape = draw(shapes(max_r, max_dim))
    chi = draw(
        st.lists(
            st.integers(-max_d, max_d),
            min_size=shape.r,
            max_size=shape.r,
        )
    )
    return shape, tuple(chi)


def all_compositions(n, max_parts=None):
    out = []

    def rec(rem, acc):
        if rem == 0:
            if acc:
                out.append(tuple(acc))
            return
        if max_parts is not None and len(acc) == max_parts:
            return
        for k in range(1, rem + 1):
            rec(rem - k, acc + [k])

    rec(n, [])
    return out


def small_bundles(max_rank: int = 6):
    """Every bundle of rank <= max_rank with slopes in [-2, 2], built from its
    segments (deg, rank): 2175 bundles for max_rank 6."""
    slopes = sorted(
        {Fraction(p, q) for q in range(1, max_rank + 1) for p in range(-2 * q, 2 * q + 1)},
        reverse=True,
    )

    def rec(start, rank_left, segments):
        if segments:
            yield BundleSpec(tuple(segments))
        for i in range(start, len(slopes)):
            s = slopes[i]
            for m in range(1, rank_left // s.denominator + 1):
                seg = (m * s.numerator, m * s.denominator)
                yield from rec(i + 1, rank_left - seg[1], segments + [seg])

    return list(rec(0, max_rank, []))


def fractions_built(call) -> int:
    """How many Fraction objects are constructed while call() runs."""
    original, new = Fraction.__dict__["__new__"], Fraction.__new__
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return new(*args, **kwargs)

    Fraction.__new__ = counted
    try:
        call()
    finally:
        Fraction.__new__ = original
    return count


def small_classes():
    """Every dominant mu with n <= 6 and entries in -1..3: 461 classes."""
    for n in range(1, 7):
        yield from combinations_with_replacement(range(3, -2, -1), n)


def normalized_weights(n, max_size):
    """Every dominant weight of length n with last entry 0 and size <= max_size."""
    out = []

    def rec(acc, rem):
        if len(acc) == n - 1:
            out.append(tuple(acc) + (0,))
            return
        for v in range(min(rem, acc[-1] if acc else rem), -1, -1):
            rec(acc + [v], rem - v)

    rec([], max_size)
    return out


def unreachable_after(call) -> int:
    """Objects the cyclic collector finds unreachable after call() runs with
    automatic collection off, that is, what call() left behind in cycles."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()
