"""Modifications between bundles: factorization of a modification space
along a compatible split, rank-one modification sources, and necessary
conditions for a type-mu modification.  Bundles are read as their integer
segments (deg, rank), so everything here runs in integers.
"""

from __future__ import annotations

from operator import le

from .bundles import (
    BundleSpec,
    DomainError,
    Meter,
    as_int,
    check_dominant,
    is_minuscule,
    lattice_tops,
    pairing_note,
    record,
    rho_weight,
    segment_pairing,
)
from .kottwitz import (
    CharacterExponents,
    InnerFormGroup,
    NewtonPoint,
    automorphism_group,
    bundle_to_b,
    kappa_exponents,
)


def _split_at(e: BundleSpec, m: int) -> tuple[BundleSpec, BundleSpec] | None:
    """Split the segments (decreasing slope) into a top part of rank m; a
    class of segment (deg, rank) gives k of its rank to the top part only if
    k * deg is a multiple of rank."""
    if not 0 < m < e.rank:
        return None
    top, bottom = [], []
    for deg, rank in e.segments:
        k = min(m, rank)
        if k * deg % rank:
            return None
        m -= k
        if k:
            top.append((k * deg // rank, k))
        if k < rank:
            bottom.append((deg - k * deg // rank, rank - k))
    return BundleSpec(tuple(top)), BundleSpec(tuple(bottom))


def _cuts_class(top: BundleSpec, bottom: BundleSpec) -> bool:
    """Whether a split of one bundle into top and bottom cuts a slope class."""
    (d1, r1), (d2, r2) = top.segments[-1], bottom.segments[0]
    return d1 * r2 == d2 * r1


@record
class BoyerFactorization:
    split_rank: int
    direction: str  # "source-parabolic" or "target-parabolic"
    b1: NewtonPoint
    b2: NewtonPoint
    bp1: NewtonPoint
    bp2: NewtonPoint
    mu1: tuple[int, ...]
    mu2: tuple[int, ...]
    parabolic_group: InnerFormGroup
    parabolic_proper: bool
    levi: tuple[InnerFormGroup, InnerFormGroup]
    g_source: InnerFormGroup
    g_target: InnerFormGroup
    d: int
    h: int
    rho_whole: int
    rho_part1: int
    rho_part2: int
    kappa_twist: CharacterExponents
    # the factor groups the twist exponents live on (the two parts of the
    # side that defines d), in order
    kappa_twist_group: tuple[InnerFormGroup, InnerFormGroup]
    notes: tuple[str, ...]


def _boyer_conditions(eb: BundleSpec, ebp: BundleSpec, mu, m: int):
    """Common validation; returns (n, mu, m, split of eb, split of ebp)."""
    mu = check_dominant(mu)
    n = len(mu)
    if eb.rank != n or ebp.rank != n:
        raise DomainError(
            f"rank mismatch: bundles of rank {eb.rank}, {ebp.rank} with |mu| = {n}"
        )
    if not is_minuscule(mu):
        raise DomainError("cocharacter must be minuscule after central normalization")
    if sum(mu) != ebp.deg - eb.deg:
        raise DomainError(
            f"degree mismatch: deg(mu) = {sum(mu)} but target - source = {ebp.deg - eb.deg}"
        )
    m = as_int(m, "split rank m")
    if not 1 <= m < n:
        raise DomainError("split must be proper: need 1 <= m < n")
    sb = _split_at(eb, m)
    if sb is None:
        raise DomainError(f"source bundle does not split at rank {m}")
    sbp = _split_at(ebp, m)
    if sbp is None:
        raise DomainError(f"target bundle does not split at rank {m}")
    return n, mu, m, sb, sbp


def _kappa_twist(whole: BundleSpec, part1: BundleSpec, part2: BundleSpec) -> CharacterExponents:
    """Exponents of kappa(whole) / (kappa(part1) x kappa(part2)) on the Levi.
    The parts split whole, so their classes are its first and its last ones."""
    exps = kappa_exponents(whole).exps
    tail = exps[len(exps) - len(part2.segments) :]
    return CharacterExponents(
        tuple(
            w - e
            for heads, part in ((exps, part1), (tail, part2))
            for w, e in zip(heads, kappa_exponents(part).exps)
        )
    )


def boyer_factorize(eb: BundleSpec, ebp: BundleSpec, mu, m: int) -> BoyerFactorization:
    """Factor the modification space along a compatible rank-m split.

    Two variants are tried.  In the source-parabolic variant the target side
    splits strictly, the head/tail of mu distribute to the parts, and the
    dimension defect and |det|-twist are computed on the target side; the
    mirrored target-parabolic variant applies when mu ends in zeros and the
    top parts agree.  Inapplicable inputs are rejected with the violated
    condition named.
    """
    n, mu, m, (eb1, eb2), (ebp1, ebp2) = _boyer_conditions(eb, ebp, mu, m)
    source, target = (eb, eb1, eb2), (ebp, ebp1, ebp2)
    # (direction, side defining d, other side, mu1, mu2, (condition, reason)s)
    variants = (
        ("source-parabolic", target, source, mu[:m], mu[m:], (
            (ebp1.deg == eb1.deg + sum(mu[:m]),
             f"target top part degree {ebp1.deg} != source top degree {eb1.deg} "
             f"+ head of mu {sum(mu[:m])}"),
            (not _cuts_class(ebp1, ebp2),
             "target-side split is not strict (slope repeats across it)"),
        )),
        ("target-parabolic", source, target, (0,) * m, mu[: n - m], (
            (all(x == 0 for x in mu[n - m :]), "tail of mu is not zero"),
            (ebp1 == eb1, "top parts are not isomorphic"),
            (not _cuts_class(eb1, eb2),
             "source-side split is not strict (slope repeats across it)"),
        )),
    )
    reasons = []
    for direction, (whole, p1, p2), (other, o1, o2), mu1, mu2, conditions in variants:
        failed = [reason for ok, reason in conditions if not ok]
        if not failed:
            break
        reasons += failed
    else:
        raise DomainError("no applicable factorization: " + "; ".join(reasons))

    rho_whole, rho_p1, rho_p2 = (segment_pairing(e.segments) for e in (whole, p1, p2))
    d = rho_whole - rho_p1 - rho_p2
    h = rho_weight(mu) - rho_weight(mu1)
    notes = []
    flagged = pairing_note(whole.segments)
    if flagged:
        notes.append(flagged)
    return BoyerFactorization(
        split_rank=m,
        direction=direction,
        b1=bundle_to_b(eb1),
        b2=bundle_to_b(eb2),
        bp1=bundle_to_b(ebp1),
        bp2=bundle_to_b(ebp2),
        mu1=tuple(mu1),
        mu2=tuple(mu2),
        parabolic_group=automorphism_group(other),
        parabolic_proper=_cuts_class(o1, o2),
        levi=(automorphism_group(o1), automorphism_group(o2)),
        g_source=automorphism_group(eb),
        g_target=automorphism_group(ebp),
        d=d,
        h=h,
        rho_whole=rho_whole,
        rho_part1=rho_p1,
        rho_part2=rho_p2,
        kappa_twist=_kappa_twist(whole, p1, p2),
        kappa_twist_group=(automorphism_group(p1), automorphism_group(p2)),
        notes=tuple(notes),
    )


def modification_targets_rank_one(n: int, nprime: int) -> list[BundleSpec]:
    """Sources admitting an elementary (single unit) modification into the
    bundle with one slope-1/n' piece and trivial rest.

    The list is the trivial bundle plus one member per size of the negative
    tail: slope-1/n' piece, trivial middle, and a single slope -1/m' piece
    with n' + middle + m' = n.
    """
    n, nprime = as_int(n, "rank n"), as_int(nprime, "rank n'")
    if not 1 <= nprime <= n:
        raise DomainError(f"need 1 <= n' <= n, got n'={nprime}, n={n}")
    Meter("{} modification sources exceed").charge(n - nprime + 1)
    out = [BundleSpec(((0, n),))]
    for mprime in range(1, n - nprime + 1):
        segments = ((1, nprime), (0, n - nprime - mprime), (-1, mprime))
        # the trivial middle may be empty
        out.append(BundleSpec(tuple(seg for seg in segments if seg[1])))
    return out


def modification_necessary(eb: BundleSpec, ebp: BundleSpec, mu) -> bool:
    """Necessary (not sufficient) conditions for a type-mu modification
    from the source to the target.

    Checks the degree balance, and for effective mu (all entries >= 0) the
    injectivity bound: the target's slope polygon dominates the source's
    pointwise.
    """
    mu = check_dominant(mu)
    if eb.rank != len(mu) or ebp.rank != len(mu):
        raise DomainError("rank of both bundles must equal the length of mu")
    if sum(mu) != ebp.deg - eb.deg:
        return False
    if min(mu) >= 0:
        return all(map(le, lattice_tops(eb.segments), lattice_tops(ebp.segments)))
    return True
