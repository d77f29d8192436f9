import gc
import sys
from fractions import Fraction
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
