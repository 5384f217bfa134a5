import itertools

import numpy as np
import pytest

from torusdual import poincare as pc

TOL = 1e-10


def wide_bump(rng, rank, radii):
    """A bump drawn as pc.random_bump draws one, center first, but with
    its radius uniform in radii instead of pc.BUMP_RADII."""
    center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, size=rank))
    return pc.CompactBump(center=center, radius=float(rng.uniform(*radii)))


class SumBump:
    """a*f + b*g wrapper; keeps the support-bounds protocol."""

    def __init__(self, a, f, b, g):
        self.a, self.f, self.b, self.g = a, f, b, g

    @property
    def rank(self):
        return self.f.rank

    def __call__(self, x):
        return self.a * self.f(x) + self.b * self.g(x)

    def support_bounds(self):
        lo1, hi1 = self.f.support_bounds()
        lo2, hi2 = self.g.support_bounds()
        return np.minimum(lo1, lo2), np.maximum(hi1, hi2)


def test_small_bump_pairing_constant_in_eta():
    b = pc.CompactBump(center=(0.0, 0.0), radius=0.45)
    for eta in ([0.0, 0.0], [0.3, -0.8], [2.5, 1.1]):
        val = pc.pairing(b, b, [0.0, 0.0], eta)
        assert val == pytest.approx(b([0.0, 0.0]) ** 2)
        assert abs(val.imag) < TOL


def test_small_bump_section_is_plain_value():
    b = pc.CompactBump(center=(0.0,), radius=0.4)
    x = [0.2]
    assert pc.section_transform(b, x, [0.7]) == pytest.approx(b(x))


def test_trivial_character_periodizes():
    rng = np.random.default_rng(0)
    f = pc.random_bump(rng, 1)
    for _ in range(20):
        x = rng.uniform(-2, 2, 1)
        direct = sum(f(x - np.array([g])) for g in range(-5, 6))
        assert pc.section_transform(f, x, [0.0]) == pytest.approx(direct)


def test_periodicity_of_pairing():
    rng = np.random.default_rng(1)
    for rank in (1, 2):
        f1, f2 = pc.random_bump(rng, rank), pc.random_bump(rng, rank)
        assert pc.periodicity_check(f1, f2, rng, samples=100) <= TOL


def test_quasi_periodicity_of_section():
    rng = np.random.default_rng(2)
    for rank in (1, 2):
        f = pc.random_bump(rng, rank)
        assert pc.quasi_periodicity_check(f, rng, samples=100) <= TOL


def test_equivariance_identity_swap_inversion():
    rng = np.random.default_rng(3)
    f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
    assert pc.equivariance_check(np.eye(2, dtype=int), f1, f2, rng, 50) <= TOL
    assert pc.equivariance_check([[0, 1], [1, 0]], f1, f2, rng, 100) <= TOL
    g1, g2 = pc.random_bump(rng, 1), pc.random_bump(rng, 1)
    assert pc.equivariance_check([[-1]], g1, g2, rng, 100) <= TOL


def test_equivariance_shear():
    # any lattice automorphism works, not only orthogonal ones
    rng = np.random.default_rng(4)
    f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
    assert pc.equivariance_check([[1, 1], [0, 1]], f1, f2, rng, 50) <= TOL


def test_hermitian_symmetry():
    rng = np.random.default_rng(5)
    f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        eta = rng.uniform(-3, 3, 2)
        assert abs(
            pc.pairing(f1, f2, x, eta) - np.conj(pc.pairing(f2, f1, x, eta))
        ) <= TOL


def test_sesquilinearity():
    rng = np.random.default_rng(6)
    f1, f2, f3 = (pc.random_bump(rng, 1) for _ in range(3))
    a, b = 0.7, -1.3
    comb = SumBump(a, f2, b, f3)
    for _ in range(25):
        x = rng.uniform(-2, 2, 1)
        eta = rng.uniform(-3, 3, 1)
        lhs = pc.pairing(f1, comb, x, eta)
        rhs = a * pc.pairing(f1, f2, x, eta) + b * pc.pairing(f1, f3, x, eta)
        assert abs(lhs - rhs) <= TOL
        # conjugate-linearity in the first slot (real scalars: plain linear)
        lhs = pc.pairing(comb, f1, x, eta)
        rhs = np.conj(a) * pc.pairing(f2, f1, x, eta) + np.conj(b) * pc.pairing(f3, f1, x, eta)
        assert abs(lhs - rhs) <= TOL


def test_pairing_factorizes_through_section_transform():
    rng = np.random.default_rng(7)
    for rank in (1, 2):
        f1, f2 = pc.random_bump(rng, rank), pc.random_bump(rng, rank)
        for _ in range(25):
            x = rng.uniform(-2, 2, rank)
            eta = rng.uniform(-3, 3, rank)
            lhs = pc.pairing(f1, f2, x, eta)
            rhs = np.conj(pc.section_transform(f1, x, eta)) * pc.section_transform(
                f2, x, eta
            )
            assert abs(lhs - rhs) <= TOL


def test_gram_matrix_positive_semidefinite():
    rng = np.random.default_rng(8)
    for rank in (1, 2):
        f = wide_bump(rng, rank, (0.8, 2.0))
        for _ in range(10):
            gram = pc.gram_matrix(f, rng.uniform(-1, 1, rank))
            assert np.linalg.eigvalsh(gram).min() >= -TOL


def test_seeded_runs_reproduce():
    def run(seed):
        rng = np.random.default_rng(seed)
        f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
        return pc.periodicity_check(f1, f2, rng, samples=10)

    assert run(42) == run(42)


def test_equivariance_rank_mismatch():
    rng = np.random.default_rng(9)
    f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
    with pytest.raises(ValueError):
        pc.equivariance_check([[1]], f1, f2, rng, 5)


@pytest.mark.parametrize("w", [[[2, 0], [0, 1]], [[0, 0], [0, 1]]], ids=["det-2", "singular"])
def test_equivariance_rejects_a_matrix_not_preserving_the_lattice(w):
    # det 2 once returned a deviation of 3.68, read as a failed identity;
    # the singular matrix escaped as numpy's LinAlgError
    rng = np.random.default_rng(9)
    f1, f2 = pc.random_bump(rng, 2), pc.random_bump(rng, 2)
    with pytest.raises(ValueError, match="det"):
        pc.equivariance_check(w, f1, f2, rng, 5)


@pytest.mark.parametrize("w", [[[2, 0], [0, 1]], [[0, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]],
                         ids=["det-2", "singular", "not-square"])
def test_transform_bump_rejects_a_matrix_not_preserving_the_lattice(w):
    f = pc.random_bump(np.random.default_rng(10), 2)
    with pytest.raises(ValueError):
        pc.transform_bump(w, f)


# -- the batched sums against a per-point reference ------------------------


def reference_points(f, x):
    """Integer vectors a with x - a inside the support box of f, one by one."""
    lo, hi = f.support_bounds()
    ranges = [
        range(int(np.ceil(x[i] - hi[i] - 1e-9)), int(np.floor(x[i] - lo[i] + 1e-9)) + 1)
        for i in range(len(x))
    ]
    return [np.array(a) for a in itertools.product(*ranges)]


def reference_section(f, x, chi):
    x, chi = np.asarray(x, dtype=float), np.asarray(chi, dtype=float)
    return sum(
        (f(x - g) * np.exp(2j * np.pi * float(chi @ g)) for g in reference_points(f, x)),
        0j,
    )


def reference_pairing(f1, f2, x, eta):
    x, eta = np.asarray(x, dtype=float), np.asarray(eta, dtype=float)
    total = 0j
    for a in reference_points(f1, x):
        for b in reference_points(f2, x):
            total += f1(x - a) * f2(x - b) * np.exp(2j * np.pi * float(eta @ (b - a)))
    return total


def _bumps(rank):
    rng = np.random.default_rng(10 + rank)
    f = wide_bump(rng, rank, (0.8, 1.6))
    g = pc.random_bump(rng, rank)
    # radius 1/2 at the origin: a support box of integer width
    half = pc.CompactBump(center=(0.0,) * rank, radius=0.5)
    cases = {"compact": f, "integer_width": half, "sum": SumBump(0.7, f, -1.3, g)}
    mats = {"minus": -np.eye(rank, dtype=int)}
    if rank == 2:
        mats.update(swap=[[0, 1], [1, 0]], shear=[[1, 1], [0, 1]])
    for name, w in mats.items():
        cases[name] = pc.transform_bump(w, f)
    return cases


def _edge_points(f, rng, count=20):
    """Points on the faces of the support box of f, shifted by lattice
    vectors, plus random ones."""
    lo, hi = (np.asarray(b, dtype=float) for b in f.support_bounds())
    pts = []
    for corner in itertools.product(*zip(lo, hi)):
        pts.append(np.array(corner) + rng.integers(-2, 3, size=len(lo)))
        mixed = np.array(corner)
        mixed[0] = rng.uniform(lo[0], hi[0])
        pts.append(mixed)
    pts += list(rng.uniform(-2, 2, size=(count, len(lo))))
    return np.array(pts)


@pytest.mark.parametrize("rank", [1, 2])
def test_batched_sums_match_per_point_reference(rank):
    rng = np.random.default_rng(20 + rank)
    cases = _bumps(rank)
    other = pc.random_bump(rng, rank)
    for name, f in cases.items():
        xs = _edge_points(f, rng)
        chis = rng.uniform(-3, 3, size=xs.shape)
        sections = pc.section_transform(f, xs, chis)
        pairs = pc.pairing(f, other, xs, chis)
        pairs_rev = pc.pairing(other, f, xs, chis)
        assert sections.shape == pairs.shape == (len(xs),)
        for i, (x, chi) in enumerate(zip(xs, chis)):
            assert abs(sections[i] - reference_section(f, x, chi)) <= 1e-12, name
            assert abs(pairs[i] - reference_pairing(f, other, x, chi)) <= 1e-12, name
            assert abs(pairs_rev[i] - reference_pairing(other, f, x, chi)) <= 1e-12, name
            assert abs(pc.pairing(f, f, x, chi) - reference_pairing(f, f, x, chi)) <= 1e-12


def test_single_points_return_python_scalars():
    rng = np.random.default_rng(30)
    for rank in (1, 2):
        f = pc.random_bump(rng, rank)
        wf = pc.transform_bump(-np.eye(rank, dtype=int), f)
        x, eta = rng.uniform(-1, 1, rank), rng.uniform(-1, 1, rank)
        for bump in (f, wf):
            assert type(bump(x)) is float
            assert bump(x) == pytest.approx(bump(x[None, :])[0])
            assert bump(np.zeros((3, 4, rank))).shape == (3, 4)
        assert type(pc.section_transform(f, x, eta)) is complex
        assert type(pc.pairing(f, wf, x, eta)) is complex


def test_gram_matrix_matches_per_translate_values():
    rng = np.random.default_rng(31)
    f = wide_bump(rng, 2, (0.8, 2.0))
    x = rng.uniform(-1, 1, 2)
    vals = np.array([f(x - np.array(t)) for t in itertools.product(range(-2, 3), repeat=2)])
    assert np.array_equal(pc.gram_matrix(f, x), np.outer(vals, vals))


@pytest.mark.parametrize("x", [0.3, [0.3], [0.3, 0.1, 0.5]],
                         ids=["scalar", "length-1", "rank-3"])
def test_gram_matrix_rejects_a_base_point_of_another_shape(x):
    # a scalar or length-1 point would broadcast to (0.3, 0.3)
    f = pc.CompactBump(center=(0.0, 0.0), radius=0.8)
    with pytest.raises(ValueError, match=r"shape \(n,\), n = 2"):
        pc.gram_matrix(f, x)
    assert pc.gram_matrix(f, [0.3, 0.1]).shape == (25, 25)


def _block_draws(kind, rng, n, samples):
    """The fields each check draws: per block of k <= BLOCK samples, each
    field once as a (k, n) array, in field order."""
    blocks = []
    for start in range(0, samples, pc.BLOCK):
        k = min(pc.BLOCK, samples - start)
        fields = [rng.uniform(-2, 2, size=(k, n)), rng.uniform(-3, 3, size=(k, n))]
        if kind != "equivariance":
            fields.append(rng.integers(-3, 4, size=(k, n)))
        if kind == "periodicity":
            fields.append(rng.integers(-3, 4, size=(k, n)))
        blocks.append(fields)
    return blocks


@pytest.mark.parametrize("samples", [0, 1, 7, pc.BLOCK + 1])
def test_checks_consume_the_per_sample_stream(samples, monkeypatch):
    """Each check leaves the generator where the per-block reference does,
    and evaluates each block's drawn points and characters as one stack."""
    f1 = pc.CompactBump(center=(0.1, -0.2), radius=0.9)
    f2 = pc.CompactBump(center=(-0.3, 0.05), radius=1.3)
    calls = []

    def spy(real):
        def wrapped(*args):
            calls.append(args[-2:])
            return real(*args)
        return wrapped

    monkeypatch.setattr(pc, "pairing", spy(pc.pairing))
    monkeypatch.setattr(pc, "section_transform", spy(pc.section_transform))
    runs = {
        "periodicity": lambda rng: pc.periodicity_check(f1, f2, rng, samples),
        "quasi_periodicity": lambda rng: pc.quasi_periodicity_check(f1, rng, samples),
        "equivariance": lambda rng: pc.equivariance_check([[0, 1], [1, 0]], f1, f2, rng, samples),
    }
    for kind, run in runs.items():
        calls.clear()
        rng, ref = np.random.default_rng(40), np.random.default_rng(40)
        worst = run(rng)
        blocks = _block_draws(kind, ref, 2, samples)
        assert rng.bit_generator.state == ref.bit_generator.state, kind
        for x, second, *_ in blocks:
            assert any(np.array_equal(cx, x) and np.array_equal(cs, second)
                       for cx, cs in calls), kind
        assert type(worst) is float
        assert worst <= TOL
        if samples == 0:
            assert worst == 0.0 and not calls


def test_block_boundary_check_matches_per_sample_reference(monkeypatch):
    """The returned deviations equal per-point double sums on exactly the
    per-block draws.  w = 2 is no lattice automorphism, so its equivariance
    defect is of order one at every point and its maximum pins the points;
    the checks refuse such a w, so their determinant guard is lifted here."""
    monkeypatch.setattr(pc, "det", lambda w: 1)
    f1 = pc.CompactBump(center=(0.2,), radius=0.7)
    f2 = pc.CompactBump(center=(-0.1,), radius=1.1)
    w = [[2]]
    wf1, wf2 = pc.transform_bump(w, f1), pc.transform_bump(w, f2)
    for samples in (0, 1, 7, pc.BLOCK + 1):
        rng, ref = np.random.default_rng(50), np.random.default_rng(50)
        worst = pc.periodicity_check(f1, f2, rng, samples)
        expected = 0.0
        for xs, etas, gxs, getas in _block_draws("periodicity", ref, 1, samples):
            for x, eta, gx, geta in zip(xs, etas, gxs, getas):
                base = reference_pairing(f1, f2, x, eta)
                expected = max(
                    expected,
                    abs(reference_pairing(f1, f2, x + gx, eta) - base),
                    abs(reference_pairing(f1, f2, x, eta + geta) - base),
                )
        assert abs(worst - expected) <= 1e-12, samples

        worst = pc.equivariance_check(w, f1, f2, rng, samples)
        expected = 0.0
        for xs, etas in _block_draws("equivariance", ref, 1, samples):
            for x, eta in zip(xs, etas):
                lhs = reference_pairing(wf1, wf2, x, eta)
                expected = max(expected, abs(lhs - reference_pairing(f1, f2, x / 2, 2 * eta)))
        assert rng.bit_generator.state == ref.bit_generator.state, samples
        assert abs(worst - expected) <= 1e-12, samples
        assert expected > 1e-2 if samples else worst == 0.0


@pytest.mark.parametrize("x,eta", [
    ([0.1, 0.2], [0.3]),  # a character of length 1 broadcast over rank 2
    ([[0.1, 0.2]], [0.3, 0.4]),  # a stack of points with one character
    ([0.1, 0.2], [[0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),  # one point, three characters
    ([0.1, 0.2, 0.3], [0.3, 0.4, 0.5]),  # rank 3 points for a rank 2 bump
    ([[[0.1, 0.2]]], [[[0.3, 0.4]]]),  # a 3-d stack
    (0.1, 0.3),  # scalars
], ids=["short-eta", "stack-and-point", "point-and-stack", "wrong-rank", "3-d", "scalars"])
def test_sums_reject_mismatched_shapes(x, eta):
    f = pc.CompactBump(center=(0.0, 0.0), radius=0.8)
    with pytest.raises(ValueError, match="one shape"):
        pc.pairing(f, f, x, eta)
    with pytest.raises(ValueError, match="one shape"):
        pc.section_transform(f, x, eta)


def test_pairing_rejects_bumps_of_different_ranks():
    f, g = pc.CompactBump((0.0, 0.0), 0.8), pc.CompactBump((0.1,), 0.9)
    with pytest.raises(ValueError, match="ranks"):
        pc.pairing(f, g, [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(ValueError, match="ranks"):
        pc.pairing(g, f, [0.1], [0.3])


def test_random_bump_draws_its_radius_from_the_module_range():
    rng = np.random.default_rng(40)
    radii = [pc.random_bump(rng, 2).radius for _ in range(50)]
    assert pc.BUMP_RADII[0] <= min(radii) <= max(radii) < pc.BUMP_RADII[1]
