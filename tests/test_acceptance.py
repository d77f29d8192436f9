"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All checks are exact
(symbolic equality); randomized suites use fixed seeds and report their case
counts.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial, prod

from bunncalc import (
    ascii_text,
    automorphism_group,
    b_to_bundle,
    b_to_chis,
    boyer_factorize,
    bundle_to_b,
    chi_id,
    chi_inv,
    chi_mul,
    chi_to_bundle,
    chi_to_rep,
    enumerate_B,
    eigensheaf_stalk,
    harris_viehmann,
    hecke,
    kappa_exponents,
    leq,
    make_F,
    modification_targets_rank_one,
    modulus_exponents,
    normalize_bundle,
    parse_bundle,
    reduce_slope,
    sigma_chi,
    spectral_act,
    verify_eigen,
    weyl_dim,
)
from bunncalc.kottwitz import d_point
from bunncalc.lparams import LParamShape
from bunncalc.weights import levi_branching
from conftest import small_classes
from oracles import newton_points_oracle

F = Fraction


def report(name: str, started: float) -> None:
    print(f"PASS: {name} ({time.perf_counter() - started:.2f}s)")


def compositions(n: int, max_parts: int | None = None):
    out = []

    def rec(rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        if max_parts is not None and len(acc) == max_parts:
            return
        for k in range(1, rem + 1):
            rec(rem - k, acc + [k])

    rec(n, [])
    return out


class TestCriterion1PaperExamples:
    def test_1a_rank_two_character_stratum(self):
        t0 = time.perf_counter()
        shape = LParamShape.from_dims((1, 1))
        e = chi_to_bundle(shape, (-1, -2))
        assert e == parse_bundle("O(-1)+O(-2)")
        assert d_point(bundle_to_b(e)) == 1
        report("1a character (-1,-2) lands on O(-1)+O(-2) with defect 1", t0)

    def test_1b_sym3_isotypic_lines(self):
        t0 = time.perf_counter()
        shape = LParamShape.from_dims((1, 1))
        expected = {
            (3, 0): ((((3,), (0,)), 1),),
            (2, 1): ((((2,), (1,)), 1),),
            (1, 2): ((((1,), (2,)), 1),),
            (0, 3): ((((0,), (3,)), 1),),
        }
        for chi, terms in expected.items():
            sym = sigma_chi(shape, (3, 0), chi)
            assert sym.terms == terms and sym.dim == 1
        # no other characters carry content
        others = [(1, 1), (4, -1), (0, 0), (3, 1)]
        assert all(not sigma_chi(shape, (3, 0), chi).terms for chi in others)
        report("1b cubic-power slices: four lines, each of dimension 1", t0)

    def test_1c_boyer_both_illustrations(self):
        t0 = time.perf_counter()
        f1 = boyer_factorize(
            parse_bundle("O(3/4)+O(1/3)+O^3"),
            parse_bundle("O(3/2)+O(1/2)+O(1/3)+O^3"),
            (1,) + (0,) * 9,
            4,
        )
        assert f1.mu1 == (1, 0, 0, 0) and f1.mu2 == (0,) * 6
        assert b_to_bundle(f1.b1) == parse_bundle("O(3/4)")
        assert b_to_bundle(f1.bp1) == parse_bundle("O(3/2)+O(1/2)")
        assert b_to_bundle(f1.b2) == b_to_bundle(f1.bp2) == parse_bundle("O(1/3)+O^3")
        assert f1.rho_part1 == 4 and f1.rho_part2 == 3
        assert f1.rho_whole == 27
        assert any("26" in n and "27" in n for n in f1.notes)
        assert f1.parabolic_group.describe() == "D^×_{-3/4} × D^×_{-1/3} × GL_3"

        f2 = boyer_factorize(
            parse_bundle("O(3/2)+O(1/2)^2+O(1/6)"),
            parse_bundle("O(3/2)^2+O(1/2)+O(1/3)+O^3"),
            (1, 1) + (0,) * 10,
            2,
        )
        assert f2.mu1 == (0, 0) and f2.mu2 == (1, 1) + (0,) * 8
        assert b_to_bundle(f2.b1) == b_to_bundle(f2.bp1) == parse_bundle("O(3/2)")
        assert ascii_text(f2.g_target.describe()) == (
            "GL_2(D_{-3/2}) x D^x_{-1/2} x D^x_{-1/3} x GL_3"
        )
        report("1c split factorizations reproduce both rank-10/12 configurations", t0)

    def test_1d_elementary_modification_sources(self):
        t0 = time.perf_counter()
        for n in range(3, 9):
            for nprime in range(2, n):
                expected = [normalize_bundle([(F(0), n)])]
                for mprime in range(1, n - nprime + 1):
                    mid = n - nprime - mprime
                    parts = [
                        (reduce_slope(1, nprime), 1),
                        (reduce_slope(-1, mprime), 1),
                    ]
                    if mid:
                        parts.append((F(0), mid))
                    expected.append(normalize_bundle(parts))
                assert modification_targets_rank_one(n, nprime) == expected
        report("1d elementary modification source sets for all 2 <= n' < n <= 8", t0)

    def test_1e_eigen_stalk_orbit_counts(self):
        t0 = time.perf_counter()
        checked = 0
        for n in range(1, 7):
            shape = LParamShape.from_dims((1,) * n)
            for comp in compositions(n):
                k = len(comp)
                # distinct integer slopes with the composition as multiplicities
                parts = [(F(k - i), comp[i]) for i in range(k)]
                b = bundle_to_b(normalize_bundle(parts))
                count = eigensheaf_stalk(shape, b).count
                expect = factorial(n) // prod(factorial(c) for c in comp)
                assert count == expect
                checked += 1
        assert checked == sum(len(compositions(n)) for n in range(1, 7))
        report(f"1e eigen-stalk orbit counts for {checked} compositions of n <= 6", t0)

    def test_1f_minuscule_outputs_cross_checked(self):
        t0 = time.perf_counter()
        rng = random.Random(2024)
        cases = 0
        while cases < 50:
            r = rng.randint(1, 3)
            dims = tuple(rng.randint(1, 4) for _ in range(r))
            n = sum(dims)
            if n > 8:
                continue
            xi = tuple(rng.randint(0, d) for d in dims)
            a = sum(xi)
            mu_inv = (0,) * (n - a) + (-1,) * a
            out = harris_viehmann(LParamShape.from_dims(dims), xi, mu_inv)
            assert len(out.pieces) == 1
            piece = out.pieces[0]
            expect_dim = prod(comb(ni, di) for ni, di in zip(dims, xi))
            assert piece.sigma.dim == expect_dim
            if a > 0:
                assert piece.sigma_dual
                assert piece.sigma.terms == (
                    (tuple((1,) * d + (0,) * (ni - d) for ni, d in zip(dims, xi)), 1),
                )
            # independent recomputation through the branching slice
            shape = LParamShape.from_dims(dims)
            assert sigma_chi(shape, mu_inv, chi_inv(xi)).dim == expect_dim
            cases += 1
        report("1f minuscule outputs match binomial products on 50 random cases", t0)


class TestCriterion2PropertySuites:
    def test_2a_bijection_round_trip_and_injectivity(self):
        t0 = time.perf_counter()
        rng = random.Random(11)
        seen = {}
        cases = 0
        for _ in range(250):
            r = rng.randint(1, 4)
            dims = tuple(rng.randint(1, 4) for _ in range(r))
            shape = LParamShape.from_dims(dims)
            chi = tuple(rng.randint(-5, 5) for _ in range(r))
            b = bundle_to_b(chi_to_bundle(shape, chi))
            assert chi in b_to_chis(shape, b)
            key = (dims, b, chi_to_rep(shape, chi))
            if key in seen:
                assert seen[key] == chi
            seen[key] = chi
            cases += 1
        assert cases >= 200
        report(f"2a bijection round-trip and injectivity on {cases} random cases", t0)

    def test_2b_operator_dimension_conservation(self):
        t0 = time.perf_counter()
        rng = random.Random(12)
        cases = 0
        while cases < 220:
            n = rng.randint(2, 8)
            comp = rng.choice(compositions(n, max_parts=4))
            a = rng.randint(1, n - 1)
            lam = (1,) * a + (0,) * (n - a)
            shape = LParamShape.from_dims(comp)
            dec = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
            assert dec.total_dim == comb(n, a) == weyl_dim(lam, n)
            cases += 1
        report(f"2b operator dimension conservation on {cases} random cases", t0)

    def test_2c_branching_matches_schur_oracle(self):
        t0 = time.perf_counter()
        from oracles import branching_expansion, schur_monomials

        rng = random.Random(13)
        cases = 0
        while cases < 200:
            n = rng.randint(2, 5)
            size = rng.randint(0, 6)
            lam = []
            rem = size
            for _ in range(n):
                x = rng.randint(0, rem)
                lam.append(x)
                rem -= x
            lam = tuple(sorted(lam, reverse=True))
            k = rng.randint(1, min(3, n))
            comp = rng.choice([c for c in compositions(n) if len(c) == k])
            terms = levi_branching(n, lam, comp)
            assert branching_expansion(n, terms, comp) == dict(schur_monomials(lam, n))
            cases += 1
        report(f"2c block branching equals the determinant oracle on {cases} cases", t0)

    def test_2d_eigen_identity_exhaustive(self):
        t0 = time.perf_counter()
        cases = 0
        for n in range(2, 7):
            for comp in compositions(n, max_parts=3):
                shape = LParamShape.from_dims(comp)
                for a in range(1, n):
                    lam = (1,) * a + (0,) * (n - a)
                    dec = hecke(shape, lam, make_F(shape, chi_id(shape.r)))
                    strata = [make_F(shape, chi_id(shape.r)).stratum]
                    strata += [sheaf.stratum for _, sheaf, _ in dec.terms]
                    dedup = []
                    for b in strata:
                        if b not in dedup:
                            dedup.append(b)
                    assert verify_eigen(shape, lam, dedup)
                    cases += 1
        report(f"2d termwise eigen identity on all {cases} (shape, weight) pairs", t0)

    def test_2e_poset_axioms_and_counts(self):
        t0 = time.perf_counter()
        assert len(enumerate_B(2, (1, 0))) == 2
        assert len(enumerate_B(3, (1, 0, 0))) == 3
        for mu in small_classes():
            got = {p.slope_vector() for p in enumerate_B(len(mu), mu)}
            assert got == newton_points_oracle(len(mu), mu), mu
        for n in range(2, 9):
            mu = (1,) + (0,) * (n - 1)
            pts = enumerate_B(n, mu)
            for p in pts:
                for s, c in p.classes:
                    assert c % s.denominator == 0
            for x in pts:
                assert leq(x, x)
                for y in pts:
                    if leq(x, y) and leq(y, x):
                        assert x == y
                    for z in pts:
                        if leq(x, y) and leq(y, z):
                            assert leq(x, z)
        report("2e poset axioms, breakpoint integrality, points vs lattice oracle on 461 classes", t0)

    def test_2f_modulus_inverse_law(self):
        t0 = time.perf_counter()
        rng = random.Random(14)
        checked = 0
        pool = []
        for n in range(2, 9):
            pool += [p for p in enumerate_B(n, (1,) + (0,) * (n - 1))]
            if n >= 3:
                pool += [p for p in enumerate_B(n, (2, 1) + (0,) * (n - 2))]
        bundles = [b_to_bundle(p) for p in pool]
        for _ in range(200):
            e = rng.choice(bundles)
            delta = modulus_exponents(e)
            kappa = kappa_exponents(e)
            assert kappa.exps == tuple(-x for x in delta.exps)
            ranks = [rank for _, rank in automorphism_group(e).segments]
            assert sum(m * x for m, x in zip(ranks, delta.exps)) == 0
            checked += 1
        assert checked >= 200
        report(f"2f inverse-modulus law and central triviality on {checked} strata", t0)


class TestCriterion3GroupLaw:
    def test_translation_group_law_500(self):
        t0 = time.perf_counter()
        rng = random.Random(15)
        for _ in range(500):
            r = rng.randint(1, 4)
            dims = tuple(rng.randint(1, 4) for _ in range(r))
            shape = LParamShape.from_dims(dims)
            xi = tuple(rng.randint(-4, 4) for _ in range(r))
            chi1 = tuple(rng.randint(-4, 4) for _ in range(r))
            chi2 = tuple(rng.randint(-4, 4) for _ in range(r))
            f = make_F(shape, xi)
            lhs = spectral_act(shape, chi1, spectral_act(shape, chi2, f))
            rhs = spectral_act(shape, chi_mul(chi1, chi2), f)
            assert lhs == rhs
        report("3 translation group law, exact symbol equality on 500 triples", t0)
