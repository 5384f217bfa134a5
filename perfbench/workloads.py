"""The benchmark workloads: inputs, cases and the known answers they are checked against.

Each workload function runs in the worker's set-up phase.  It builds the
root data and inputs (from `rng`, the only source of randomness) and
returns the cases as (name, thunk) pairs.  A thunk runs one case and
raises :class:`CheckFailed` when a verdict disagrees with the known value.
Library functions are looked up on their modules at call time, so the
traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from torusdual import cli, clifford, ktheory, oscillator, poincare, rootdata, weyl


class CheckFailed(AssertionError):
    """A case produced a verdict that disagrees with its known value."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# (type, rank, form, Langlands-dual label, graded rank (k0, k1) on both sides)
DUALITY_CASES = (
    ("A", 4, "sc", ("A", 4, "adjoint"), (11, 5)),
    ("B", 4, "sc", ("C", 4, "adjoint"), (39, 0)),
    ("D", 4, [[1, 0, 0, 0]], ("D", 4, "quotient"), (30, 0)),  # SO(8)
    ("F", 4, "sc", ("F", 4, "sc"), (40, 0)),
)
# commuting-pairs oracle: (type, rank, graded rank), simply connected form
ORACLE_CASES = (("B", 3, (17, 0)), ("A", 4, (11, 5)))


def kduality(rng, tracer):
    cases = []
    for t, r, form, dual_label, want in DUALITY_CASES:
        rd = rootdata.build_simple(t, r, form)

        def case(rd=rd, dual_label=dual_label, want=want):
            rep = ktheory.verify_duality(rd)
            got = ((rep.primal.k0, rep.primal.k1), (rep.dual.k0, rep.dual.k1))
            expect(rep.dual_label == dual_label,
                   f"dual of {rd} is {rep.dual_label}, expected {dual_label}")
            expect(got == (want, want), f"{rd}: ranks {got}, expected {want} on both sides")
            expect(rep.verdict == "equal", f"{rd}: verdict {rep.verdict}")

        cases.append((f"duality {t}{r} {rd.label[2]}", case))
    for t, r, want in ORACLE_CASES:
        rd = rootdata.build_simple(t, r, "sc")

        def case(rd=rd, want=want):
            group = weyl.generate(rd)
            pairs = ktheory.commuting_pairs_rank(group)
            class_sum = ktheory.rational_equivariant_k(group)
            expect((pairs.k0, pairs.k1) == want, f"{rd}: oracle {pairs}, expected {want}")
            expect(pairs == class_sum, f"{rd}: oracle {pairs} != class sum {class_sum}")

        cases.append((f"oracle {t}{r} sc", case))
    return cases


UNIT = 4.0 * math.pi
# lowest levels of the squared operator in units of 4*pi: multiplicities
# 1, 2, 2, ... in 1D and their convolution 1, 4, 8, ... in 2D
LADDER = {1: (0, 1, 1, 2, 2, 3, 3, 4, 4, 5), 2: (0, 1, 1, 1, 1, 2)}
# (dimension, grid points per axis, box halfwidth), the CLI's halfwidths
SPECTRAL_CASES = ((1, 1600, 6.0), (1, 2400, 6.0), (2, 60, 4.0), (2, 160, 4.0))


def spectral(rng, tracer):
    cases = []
    for dim, grid, halfwidth in SPECTRAL_CASES:

        def case(dim=dim, grid=grid, halfwidth=halfwidth):
            disc = oscillator.build_q0(dim, grid, halfwidth)
            rep = oscillator.spectral_check(disc)
            # the pass criteria of `torusdual oscillator`
            tol = 0.01 if dim == 1 else 0.03
            ladder = [UNIT * k for k in LADDER[dim]]
            expect(len(rep.eigenvalues) == len(ladder), f"{len(rep.eigenvalues)} levels")
            for lam, level in zip(rep.eigenvalues, ladder):
                expect(abs(lam - level) <= tol * (level or UNIT),
                       f"level {lam:.6f}, expected {level:.6f}")
            expect(rep.kernel_dim == 1, f"kernel dimension {rep.kernel_dim}")
            expect(rep.kernel_even_fraction >= 0.999, f"even fraction {rep.kernel_even_fraction}")
            expect(rep.kernel_cosine >= 0.999, f"kernel cosine {rep.kernel_cosine}")

        cases.append((f"oscillator {dim}D grid {grid}", case))
    return cases


POINCARE_SAMPLES = 1500
POINCARE_TOL = 1e-10
# fixed radii: the cost of a pairing grows with the support, so only the
# centres and sample points follow the seed and every seed asks for the
# same work
POINCARE_RADII = (0.8, 1.2)
# connection index |pi_1| * |Z| of the rows of the CLI's dual-group table
TABLE_F = (3, 2, 2, 4, 3, 2, 1, 1, 1)


def _signed_permutations(n):
    eye = np.eye(n, dtype=int)
    return [
        (eye[list(perm)] * np.array(signs)[:, None]).tolist()
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    ]


def identities(rng, tracer):
    cases = []
    for n in range(1, 5):
        perms = _signed_permutations(n)

        def case(n=n, perms=perms):
            with tracer.span("clifford.check"):
                p = clifford.clifford_projection(n)
                checks = [p * p == p, p.star() == p,
                          clifford.conjugation_by_u(n, p) == clifford.dual_projection(n)]
                for j in range(1, n + 1):
                    e = clifford.generator(n, "e", j)
                    eps = clifford.generator(n, "eps", j)
                    checks.append(clifford.conjugation_by_u(n, e) == e)
                    checks.append(clifford.conjugation_by_u(n, eps) == -eps)
                checks.extend(clifford.symmetric_invariance_check(n, g, p) for g in perms)
            tracer.add("clifford.identities", len(checks))
            expect(len(perms) == 2**n * math.factorial(n), f"{len(perms)} signed permutations")
            failed = len(checks) - sum(checks)
            expect(not failed, f"n={n}: {failed} of {len(checks)} identities fail")

        cases.append((f"clifford n={n}", case))

    for rank in (1, 2):
        f1, f2 = (
            poincare.CompactBump(center=tuple(rng.uniform(-0.5, 0.5, rank).tolist()),
                                 radius=radius)
            for radius in POINCARE_RADII
        )
        mats = [np.eye(rank, dtype=int), -np.eye(rank, dtype=int)]
        if rank == 2:
            mats.append(np.array([[0, 1], [1, 0]]))
        gram_point = rng.uniform(-1, 1, rank)
        samples = np.random.default_rng(rng.integers(2**63))

        def case(f1=f1, f2=f2, mats=mats, gram_point=gram_point, samples=samples):
            with tracer.span("poincare.check"):
                devs = [
                    poincare.periodicity_check(f1, f2, samples, POINCARE_SAMPLES),
                    poincare.quasi_periodicity_check(f1, samples, POINCARE_SAMPLES),
                ]
                devs += [poincare.equivariance_check(w, f1, f2, samples, POINCARE_SAMPLES)
                         for w in mats]
                gram = poincare.gram_matrix(f1, gram_point)
                devs.append(max(0.0, -float(np.linalg.eigvalsh(gram).min())))
            tracer.add("poincare.samples", POINCARE_SAMPLES * (2 + len(mats)))
            tracer.peak("poincare.max_deviation", max(devs))
            expect(max(devs) <= POINCARE_TOL, f"max deviation {max(devs):.3e}")

        cases.append((f"poincare rank {rank}", case))

    def table():
        rows = cli.run_table_check()
        expect(all(r["pass"] for r in rows), "a dual-group table row fails")
        got = tuple(r["f_computed"] for r in rows)
        expect(got == TABLE_F, f"connection indices {got}, expected {TABLE_F}")

    cases.append(("dual-group table", table))
    return cases


def spectral_identities(rng, tracer):
    return spectral(rng, tracer) + identities(rng, tracer)


WORKLOADS = {"kduality": kduality, "spectral_identities": spectral_identities}
