import functools
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusdual import oscillator as osc

PI4 = 4.0 * np.pi


def axis_matrix(disc):
    """The sparse (n-1) x n axis operator A from its two diagonals."""
    a = disc.axis_operator
    n = len(a.alpha) + 1
    return sp.diags([a.alpha, a.beta], [0, 1], shape=(n - 1, n), format="csr")


def assembled(disc):
    """Q assembled sparse from A, as the block rule that disc.q applies:
    [[0, A^T], [A, 0]] in 1D; in 2D the components are (node, node),
    (mid, node), (node, mid), (mid, mid), first axis slowest, axis-1
    operators couple 0<->1 and 2<->3, axis-2 operators couple 0<->2 and
    1<->3 with the grading sign of axis 1."""
    a = axis_matrix(disc)
    m, n = a.shape
    if disc.dimension == 1:
        return sp.bmat([[None, a.T], [a, None]], format="csr")
    a1_nn, a1_nm = sp.kron(a, sp.identity(n)), sp.kron(a, sp.identity(m))
    a2_nn, a2_mn = sp.kron(sp.identity(n), a), sp.kron(sp.identity(m), a)
    return sp.bmat([[None, a1_nn.T, a2_nn.T, None], [a1_nn, None, None, -a2_mn.T],
                    [a2_nn, None, None, a1_nm.T], [None, -a2_mn, a1_nm, None]], format="csr")


@pytest.mark.parametrize("dimension, grid", [(1, 5), (1, 50), (1, 200), (2, 12), (2, 20), (2, 30)])
def test_applied_q_matches_assembly(dimension, grid):
    disc = osc.build_q0(dimension, grid, 4.0)
    q = assembled(disc)
    assert disc.q.shape == q.shape and disc.size == q.shape[0]
    x = np.random.default_rng(grid).normal(size=(disc.size, 3))
    want = q @ x
    np.testing.assert_allclose(disc.q @ x, want, rtol=0, atol=1e-14 * np.abs(want).max())
    np.testing.assert_allclose(disc.q @ x[:, 0], want[:, 0], rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("dimension, grid", [(1, 50), (1, 200), (2, 12), (2, 30)])
def test_norm_estimate_matches_assembled_square(dimension, grid):
    disc = osc.build_q0(dimension, grid, 6.0)
    q = assembled(disc)
    qsq = abs(q @ q)
    want = np.sqrt(qsq.sum(axis=0).max() * qsq.sum(axis=1).max())
    assert disc.q.square_norm() == pytest.approx(want, rel=1e-12)


def test_staggered_stencil_entries():
    # derivative block: two-point +-1/h; position block: averaged products
    disc = osc.build_q0(1, 5, 6.0)
    n = 5
    y = disc.nodes
    h = y[1] - y[0]
    a = assembled(disc)[n:, :n]  # node -> midpoint block
    for i in range(n - 1):
        assert a[i, i] == pytest.approx(-1.0 / h + np.pi * y[i])
        assert a[i, i + 1] == pytest.approx(1.0 / h + np.pi * y[i + 1])
        for j in range(n):
            if j not in (i, i + 1):
                assert a[i, j] == 0.0


def test_q_symmetric_and_square_psd():
    disc = osc.build_q0(1, 200, 6.0)
    q = assembled(disc).toarray()
    assert np.max(np.abs(q - q.T)) == 0.0
    qsq = q @ q
    assert np.max(np.abs(qsq - qsq.T)) < 1e-10
    vals = np.linalg.eigvalsh(qsq)
    assert vals.min() > -1e-8


def test_grading_commutation():
    disc = osc.build_q0(1, 200, 6.0)
    q = assembled(disc).toarray()
    g = np.diag(disc.grading)
    assert np.max(np.abs(g @ q + q @ g)) == 0.0
    qsq = q @ q
    assert np.max(np.abs(g @ qsq - qsq @ g)) == 0.0


def test_grading_commutation_2d():
    disc = osc.build_q0(2, 20, 4.0)
    q = assembled(disc)
    g = sp.diags(disc.grading)
    assert abs(g @ q + q @ g).max() == 0.0
    qsq = q @ q
    assert abs(g @ qsq - qsq @ g).max() == 0.0
    assert abs(q - q.T).max() == 0.0


def test_1d_spectrum_grid_400():
    report = osc.spectral_check(osc.build_q0(1, 400, 6.0))
    for lam, expect in zip(report.eigenvalues, report.expected):
        if expect == 0.0:
            assert abs(lam) < 0.01 * PI4
        else:
            assert abs(lam - expect) < 0.01 * expect
    assert report.kernel_dim == 1
    assert report.kernel_even_fraction > 0.999
    assert report.kernel_cosine > 0.999
    assert report.residual_max <= 1e-8 * report.operator_norm_estimate


def test_1d_convergence_is_monotone():
    # the first excited level is exact up to roundoff for this stencil;
    # the deviation of the higher levels shrinks as the grid refines
    targets = [PI4 * k for k in (2, 3)]
    devs = []
    for n in (200, 400, 800):
        report = osc.spectral_check(osc.build_q0(1, n, 6.0))
        assert abs(report.eigenvalues[1] - PI4) < 1e-9
        got = [report.eigenvalues[3], report.eigenvalues[5]]
        devs.append([abs(g - t) for g, t in zip(got, targets)])
    for level in range(2):
        assert devs[0][level] > devs[1][level] > devs[2][level]


def test_kernel_stable_across_halfwidths():
    for halfwidth in (5.0, 6.0, 7.0):
        report = osc.spectral_check(osc.build_q0(1, 400, halfwidth))
        assert report.kernel_dim == 1
        assert report.kernel_cosine > 0.999


def test_2d_spectrum_small_grid():
    report = osc.spectral_check(osc.build_q0(2, 40, 4.0))
    expected = report.expected
    assert list(expected[:6]) == [0.0, PI4, PI4, PI4, PI4, 2 * PI4]
    assert abs(report.eigenvalues[0]) < 0.04 * PI4
    for lam, expect in zip(report.eigenvalues[1:], expected[1:]):
        assert abs(lam - expect) < 0.04 * expect
    assert report.kernel_dim == 1
    assert report.kernel_even_fraction > 0.999
    assert report.kernel_cosine > 0.99


def test_expected_levels_patterns():
    lv1 = osc.expected_levels(1, 10) / PI4
    assert list(lv1) == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    lv2 = osc.expected_levels(2, 13) / PI4
    assert list(lv2) == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("dimension,count,reach", [(1, 40, 21), (2, 60, 8), (3, 60, 6), (4, 60, 4)])
def test_expected_levels_count_multi_indices(dimension, count, reach):
    # level 4 pi k once for each n in Z^d with |n_1| + ... + |n_d| = k
    norms = sorted(sum(map(abs, n)) for n in itertools.product(range(-reach, reach + 1),
                                                               repeat=dimension))
    assert norms[count - 1] < reach  # every norm up to the last one kept is enumerated
    assert np.allclose(osc.expected_levels(dimension, count), PI4 * np.array(norms[:count]))


@pytest.mark.parametrize("dimension", [0, -1])
def test_expected_levels_reject_a_dimension_below_one(dimension):
    with pytest.raises(ValueError, match="dimension"):
        osc.expected_levels(dimension, 4)


def test_parameter_validation():
    with pytest.raises(ValueError):
        osc.build_q0(3, 100, 6.0)
    with pytest.raises(ValueError):
        osc.build_q0(1, 2, 6.0)
    with pytest.raises(ValueError):
        osc.build_q0(1, 400, 0.0)
    for halfwidth in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            osc.build_q0(1, 10, halfwidth)
    osc.build_q0(1, 3, 6.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_count_is_validated_before_any_solve(dimension, monkeypatch):
    disc = osc.build_q0(dimension, 3, 6.0)
    report = osc.spectral_check(disc, count=disc.size)
    assert len(report.eigenvalues) == len(report.expected) == disc.size

    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(osc, "_ladders", no_solve)
    for count in (0, disc.size + 1):
        with pytest.raises(ValueError, match="count"):
            osc.spectral_check(disc, count=count)


def test_report_json():
    report = osc.spectral_check(osc.build_q0(1, 200, 6.0), count=4)
    payload = osc.spectral_report_to_json(report)
    assert payload["dim"] == 1 and payload["grid"] == 200
    assert payload["kernel_parity"] == "even"
    assert len(payload["eigenvalues"]) == 4
    assert set(payload) == {
        "dim", "grid", "halfwidth", "eigenvalues", "expected", "kernel_dim",
        "kernel_parity", "kernel_even_fraction", "kernel_cosine", "residual_max",
    }


def _sector_blocks(disc):
    """Q^2 sector by sector: A^T A, A A^T in 1D; their Kronecker sums in 2D."""
    a = axis_matrix(disc)
    blocks = [a.T @ a, a @ a.T]
    if disc.dimension == 1:
        return blocks
    eye = [sp.identity(b.shape[0]) for b in blocks]
    # assembled order nn, mn, nm, mm: the first axis varies fastest
    return [sp.kron(blocks[p], eye[q]) + sp.kron(eye[p], blocks[q]) for q in (0, 1) for p in (0, 1)]


@pytest.mark.parametrize("dimension, grid", [(1, 50), (2, 12)],
                         ids=["1-50-staggered", "2-12-staggered"])
def test_square_is_block_diagonal_over_sectors(dimension, grid):
    disc = osc.build_q0(dimension, grid, 4.0)
    q = assembled(disc)
    qsq = q @ q
    diff = qsq - sp.block_diag(_sector_blocks(disc))
    assert abs(diff).max() <= 1e-12 * abs(qsq).max()


@pytest.mark.parametrize("grid", [200], ids=["staggered"])
def test_1d_levels_match_dense_eigh(grid):
    disc = osc.build_q0(1, grid, 6.0)
    q = assembled(disc).toarray()
    oracle = scipy.linalg.eigh(q @ q, eigvals_only=True, subset_by_index=[0, 9])
    got = osc.spectral_check(disc).eigenvalues
    np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-9 * PI4)


def test_2d_levels_match_shift_invert():
    disc = osc.build_q0(2, 30, 4.0)
    q = assembled(disc)
    qsq = (q @ q).tocsc()
    oracle = spla.eigsh(qsq, k=6, sigma=-1.0, which="LM", v0=np.ones(disc.size),
                        return_eigenvectors=False)
    got = osc.spectral_check(disc).eigenvalues
    np.testing.assert_allclose(got, np.sort(oracle), rtol=1e-9, atol=1e-9 * PI4)


@pytest.mark.parametrize("dimension, grid, halfwidth", [(1, 200, 6.0), (2, 30, 4.0)])
def test_residual_guard_checks_the_assembled_operator(dimension, grid, halfwidth):
    # the levels come from disc.axis_operator, the guard applies disc.q: an
    # edit of q alone, one stencil entry at the centre, must be caught
    disc = osc.build_q0(dimension, grid, halfwidth)
    osc.spectral_check(disc)
    alpha = disc.q.axis.alpha.copy()
    alpha[grid // 2] += 1.0
    disc.q = osc.DualityOperator(dimension, osc.AxisOperator(alpha, disc.q.axis.beta))
    assert disc.axis_operator.alpha[grid // 2] != alpha[grid // 2]
    with pytest.raises(ArithmeticError):
        osc.spectral_check(disc)


@pytest.mark.parametrize("dimension, grid, halfwidth",
                         [(1, 250, 6.0), (1, 1600, 6.0), (2, 50, 4.0), (2, 160, 4.0)])
def test_streamed_guard_matches_the_block_residual(dimension, grid, halfwidth):
    # the levels' vectors stacked into one block and checked on the sparse
    # assembly, independent of DualityOperator, give the same residual and
    # kernel diagnostics as the check that builds one vector at a time
    disc = osc.build_q0(dimension, grid, halfwidth)
    report = osc.spectral_check(disc)
    vals, levels = osc._lowest_eigenpairs(disc, len(report.eigenvalues))
    np.testing.assert_array_equal(vals, report.eigenvalues)
    block = np.zeros((disc.size, len(levels)))
    for col, (offset, factors) in enumerate(levels):
        part = functools.reduce(np.kron, factors)
        block[offset:offset + len(part), col] = part
    q = assembled(disc)
    residual = np.linalg.norm(q @ (q @ block) - block * vals, axis=0).max()
    assert report.residual_max == pytest.approx(residual, rel=1e-9)
    kv, ref = block[:, 0], disc.kernel_reference
    np.testing.assert_array_equal(report.kernel_vector, kv)
    assert report.kernel_even_fraction == pytest.approx(
        np.linalg.norm(kv[disc.grading > 0]) / np.linalg.norm(kv), rel=1e-12)
    assert report.kernel_cosine == pytest.approx(
        abs(kv @ ref) / (np.linalg.norm(kv) * np.linalg.norm(ref)), rel=1e-12)


def test_check_holds_a_few_grid_vectors():
    # one (size x 6) block of the levels, pushed through Q twice, peaks at
    # about 24 grid vectors; one level at a time needs a few
    disc = osc.build_q0(2, 160, 4.0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = osc.spectral_check(disc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 8 * 8 * disc.size, peak / (8 * disc.size)
    kv = report.kernel_vector
    assert kv.nbytes == 8 * disc.size and kv.base is None


# the CLI's grid bounds at halfwidths 4 and 10, and grid 3, where a ladder
# has fewer levels than are asked for
LADDER_CASES = [(1, g, w) for g in (250, 4000) for w in (4.0, 10.0)] + \
    [(2, g, w) for g in (50, 200) for w in (4.0, 10.0)] + [(1, 3, 6.0), (2, 3, 4.0)]


@pytest.mark.parametrize("dimension, grid, halfwidth", LADDER_CASES)
def test_ladders_match_eigh_tridiagonal(dimension, grid, halfwidth):
    disc = osc.build_q0(dimension, grid, halfwidth)
    count = 10 if dimension == 1 else 6
    a = axis_matrix(disc)
    for (vals, vecs), (diag, off), b in zip(osc._ladders(disc, count), disc.axis_operator.squares(),
                                            (a.T @ a, a @ a.T)):
        scale = abs(b).max()
        assert np.abs(diag - b.diagonal()).max() <= 1e-15 * scale
        assert np.abs(off - b.diagonal(-1)).max() <= 1e-15 * scale
        k = min(count, b.shape[0])
        want, want_vecs = scipy.linalg.eigh_tridiagonal(b.diagonal(), b.diagonal(-1), select="i",
                                                        select_range=(0, k - 1))
        assert len(vals) == k
        assert np.abs(vals - want).max() <= 1e-12 * scale
        np.testing.assert_allclose(np.abs(np.sum(vecs * want_vecs, axis=0)), 1.0, atol=1e-9)


@pytest.mark.parametrize("size", [1, 2, 5, 50, 300])
def test_sturm_count_matches_eigvalsh(size):
    rng = np.random.default_rng(size)
    for _ in range(5):
        diag, off = rng.normal(size=size), rng.normal(size=size - 1)
        off[rng.random(size - 1) < 0.1] = 0.0  # some reducible splits
        vals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        cuts = np.concatenate([[vals[0] - 1.0, vals[-1] + 1.0, np.inf], (vals[:-1] + vals[1:]) / 2])
        for x in cuts:
            assert osc._sturm_count(diag, off, x) == np.sum(vals < x), x


def test_sturm_count_survives_a_zero_pivot():
    # the first pivot of [[1, 1], [1, 2]] - 1 is exactly 0; the eigenvalues
    # are (3 -+ sqrt 5) / 2, one of them below 1
    assert osc._sturm_count(np.array([1.0, 2.0]), np.array([1.0]), 1.0) == 1


def test_missed_level_raises():
    # a diagonal B never mixes its unit eigenvectors, so a start block
    # without e_0 converges to the levels 1, 2, 3 and misses 0: the Sturm
    # count below 3.5 is 4, not 3
    start = np.eye(20)[:, 1:9]
    with pytest.raises(ArithmeticError, match="eigenvalues lie below"):
        osc._lowest_tridiagonal(np.arange(20.0), np.zeros(19), 3, start)


def test_1d_observed_convergence_order():
    # the two-point staggered stencil is second order: doubling the grid
    # quarters the error of the 8 pi and 12 pi levels (both copies)
    errors = []
    for n in (200, 400, 800):
        report = osc.spectral_check(osc.build_q0(1, n, 6.0))
        errors.append(np.abs(report.eigenvalues[3:7] - report.expected[3:7]))
    for coarse, fine in zip(errors, errors[1:]):
        order = np.log2(coarse / fine)
        assert np.all((1.8 <= order) & (order <= 2.2)), order
