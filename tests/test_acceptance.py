"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with its measured runtime (run pytest with -s to see them
inline)."""

import time

import numpy as np

from torusdual import cli
from torusdual import clifford as cl
from torusdual import ktheory as kt
from torusdual import oscillator as osc
from torusdual import poincare as pc
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import full_fixed_points

PI4 = 4.0 * np.pi


def report(name, ok, elapsed, limit):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {name} failed"
    assert elapsed < limit, f"criterion {name} exceeded {limit}s ({elapsed:.2f}s)"


def test_01_inversion_action_ranks():
    t0 = time.perf_counter()
    group = weyl.WeylGroup.from_generators([((-1,),)], rank=1)
    rank = kt.rational_equivariant_k(group)
    ok = (rank.k0, rank.k1) == (3, 0)
    report("1 inversion-on-circle ranks (3,0)", ok, time.perf_counter() - t0, 1)


def test_02_connection_index_table():
    t0 = time.perf_counter()
    results = cli.run_table_check()
    fs = [r["f_computed"] for r in results]
    ok = all(r["pass"] for r in results) and fs == [3, 2, 2, 4, 3, 2, 1, 1, 1]
    report("2 dual-group table 9/9", ok, time.perf_counter() - t0, 5)


def test_03_su3_fixed_points():
    t0 = time.perf_counter()
    su3 = rdm.build_simple("A", 2, "sc")
    primal = len(full_fixed_points(su3))
    dual = len(full_fixed_points(rdm.dualize(su3)))
    ok = (primal, dual) == (3, 1)
    report("3 SU3/dual fixed points 3 vs 1", ok, time.perf_counter() - t0, 1)


DUALITY_CASES = (
    [("A", r) for r in (1, 2, 3, 4)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", r) for r in (3, 4)]
    + [("G", 2), ("F", 4)]
)


def test_04_duality_rank_equality_desk_scale():
    t0 = time.perf_counter()
    failures = []
    for type_, rank in DUALITY_CASES:
        for form in ("sc", "adjoint"):
            rep = kt.verify_duality(rdm.build_simple(type_, rank, form))
            if rep.verdict != "equal":
                failures.append((type_, rank, form, rep.primal, rep.dual))
    report("4 duality rank equality, ranks <= 4", not failures,
           time.perf_counter() - t0, 300)


def test_05_affine_comparison_adjoint_cases():
    t0 = time.perf_counter()
    ok = True
    for type_, rank in (("A", 2), ("A", 3), ("D", 4), ("G", 2), ("F", 4)):
        rep = kt.affine_comparison(rdm.build_simple(type_, rank, "adjoint"))
        ok = ok and rep.dual_equal and rep.own_equal is True
    report("5 affine vs extended affine ranks", ok, time.perf_counter() - t0, 120)


def test_06_oscillator_spectrum():
    t0 = time.perf_counter()
    rep = osc.spectral_check(osc.build_q0(1, 1600, 6.0), count=10)
    ok = True
    for lam, expect in zip(rep.eigenvalues, rep.expected):
        if expect == 0.0:
            ok = ok and abs(lam) <= 0.01 * PI4
        else:
            ok = ok and abs(lam - expect) <= 0.01 * expect
    ok = ok and rep.kernel_dim == 1
    ok = ok and rep.kernel_even_fraction >= 0.999
    ok = ok and rep.kernel_cosine >= 0.999
    rep2 = osc.spectral_check(osc.build_q0(2, 60, 4.0), count=6)
    for lam, expect in zip(rep2.eigenvalues, rep2.expected):
        if expect == 0.0:
            ok = ok and abs(lam) <= 0.03 * PI4
        else:
            ok = ok and abs(lam - expect) <= 0.03 * expect
    report("6 oscillator ladder spectrum 1D+2D", ok, time.perf_counter() - t0, 120)


def test_07_exact_clifford_identities():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        p = cl.clifford_projection(n)
        ok = ok and p * p == p
        ok = ok and cl.conjugation_by_u(n, p) == cl.dual_projection(n)
        for j in range(1, n + 1):
            e = cl.generator(n, "e", j)
            eps = cl.generator(n, "eps", j)
            ok = ok and cl.conjugation_by_u(n, e) == e
            ok = ok and cl.conjugation_by_u(n, eps) == -eps
        ok = ok and all(
            cl.symmetric_invariance_check(n, g, p) for g in cl.signed_permutations(n)
        )
    report("7 exact spinor-projection identities", ok, time.perf_counter() - t0, 10)


def test_08_line_bundle_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for rank in (1, 2):
        f1 = pc.random_bump(rng, rank)
        f2 = pc.random_bump(rng, rank)
        worst = max(worst, pc.quasi_periodicity_check(f1, rng, samples=100))
        worst = max(worst, pc.periodicity_check(f1, f2, rng, samples=100))
        mats = [-np.eye(rank, dtype=int)]
        if rank == 2:
            mats.append(np.array([[0, 1], [1, 0]]))
        for w in mats:
            worst = max(worst, pc.equivariance_check(w, f1, f2, rng, samples=100))
    report("8 line-bundle pairing properties <= 1e-10", worst <= 1e-10,
           time.perf_counter() - t0, 30)


def test_09_oracle_equivalence():
    t0 = time.perf_counter()
    cases = [
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2),
        ("B", 3), ("C", 3), ("D", 3), ("G", 2),
    ]
    ok = True
    for type_, rank in cases:
        for form in ("sc", "adjoint"):
            rd = rdm.build_simple(type_, rank, form)
            group = weyl.generate(rd)
            assert len(group) <= 48
            ok = ok and kt.rational_equivariant_k(rd) == kt.commuting_pairs_rank(group)
    so6 = rdm.build_simple("D", 3, [[1, 0, 0]])
    ok = ok and kt.rational_equivariant_k(so6) == kt.commuting_pairs_rank(weyl.generate(so6))
    report("9 class-representative vs commuting-pairs oracle", ok,
           time.perf_counter() - t0, 60)
