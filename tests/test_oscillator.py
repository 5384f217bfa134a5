import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusdual import oscillator as osc

PI4 = 4.0 * np.pi


def test_staggered_stencil_entries():
    # derivative block: two-point +-1/h; position block: averaged products
    disc = osc.build_q0(1, 5, 6.0)
    n = 5
    y = disc.nodes
    h = y[1] - y[0]
    a = disc.q[n:, :n]  # node -> midpoint block
    for i in range(n - 1):
        assert a[i, i] == pytest.approx(-1.0 / h + np.pi * y[i])
        assert a[i, i + 1] == pytest.approx(1.0 / h + np.pi * y[i + 1])
        for j in range(n):
            if j not in (i, i + 1):
                assert a[i, j] == 0.0


def test_q_symmetric_and_square_psd():
    disc = osc.build_q0(1, 200, 6.0)
    q = disc.q.toarray()
    assert np.max(np.abs(q - q.T)) == 0.0
    qsq = q @ q
    assert np.max(np.abs(qsq - qsq.T)) < 1e-10
    vals = np.linalg.eigvalsh(qsq)
    assert vals.min() > -1e-8


def test_grading_commutation():
    disc = osc.build_q0(1, 200, 6.0)
    g = np.diag(disc.grading)
    assert np.max(np.abs(g @ disc.q + disc.q @ g)) == 0.0
    qsq = disc.q @ disc.q
    assert np.max(np.abs(g @ qsq - qsq @ g)) == 0.0


def test_grading_commutation_2d():
    disc = osc.build_q0(2, 20, 4.0)
    import scipy.sparse as sp

    g = sp.diags(disc.grading)
    assert abs(g @ disc.q + disc.q @ g).max() == 0.0
    qsq = disc.q @ disc.q
    assert abs(g @ qsq - qsq @ g).max() == 0.0
    assert abs(disc.q - disc.q.T).max() == 0.0


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


def test_parameter_validation():
    with pytest.raises(ValueError):
        osc.build_q0(3, 100, 6.0)
    with pytest.raises(ValueError):
        osc.build_q0(1, 2, 6.0)
    with pytest.raises(ValueError):
        osc.build_q0(1, 400, 0.0)
    osc.build_q0(1, 3, 6.0)


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
    a = disc.axis_operator
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
    qsq = disc.q @ disc.q
    diff = qsq - sp.block_diag(_sector_blocks(disc))
    assert abs(diff).max() <= 1e-12 * abs(qsq).max()


@pytest.mark.parametrize("grid", [200], ids=["staggered"])
def test_1d_levels_match_dense_eigh(grid):
    disc = osc.build_q0(1, grid, 6.0)
    q = disc.q.toarray()
    oracle = scipy.linalg.eigh(q @ q, eigvals_only=True, subset_by_index=[0, 9])
    got = osc.spectral_check(disc).eigenvalues
    np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-9 * PI4)


def test_2d_levels_match_shift_invert():
    disc = osc.build_q0(2, 30, 4.0)
    qsq = (disc.q @ disc.q).tocsc()
    oracle = spla.eigsh(qsq, k=6, sigma=-1.0, which="LM", v0=np.ones(disc.size),
                        return_eigenvectors=False)
    got = osc.spectral_check(disc).eigenvalues
    np.testing.assert_allclose(got, np.sort(oracle), rtol=1e-9, atol=1e-9 * PI4)


@pytest.mark.parametrize("dimension, grid, halfwidth", [(1, 200, 6.0), (2, 30, 4.0)])
def test_residual_guard_checks_the_assembled_operator(dimension, grid, halfwidth):
    # the levels come from the axis operator, the guard from q: an edit of
    # q alone must be caught
    disc = osc.build_q0(dimension, grid, halfwidth)
    mid = grid // 2 if dimension == 1 else (grid // 2) * (grid + 1)
    row, col = grid**dimension + mid, mid  # an entry of the axis-1 block at the centre
    assert disc.q[row, col] != 0.0
    disc.q[row, col] += 1.0
    with pytest.raises(ArithmeticError):
        osc.spectral_check(disc)


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
