import numpy as np
import pytest
import scipy.linalg as la

from sublra import (CURDecomp, DimensionError, PreconditionError,
                    SingularNucleusError, materialize, nucleus_norm_bound,
                    rr_select, svd_to_cur, truncate_svd)


def random_topsvd(m, n, rho, seed, sigma=None):
    rng = np.random.default_rng(seed)
    if sigma is None:
        sigma = np.sort(rng.uniform(0.5, 3.0, size=rho))[::-1]
    M = (la.qr(rng.standard_normal((m, rho)), mode="economic")[0]
         * sigma[None, :]) @ la.qr(rng.standard_normal((n, rho)),
                                   mode="economic")[0].T
    return truncate_svd(M, rho)


def test_square_diagonal_case():
    M = np.diag([5.0, 3.0, 1.0])
    S = truncate_svd(M, 3)
    d = svd_to_cur(S, k=3, l=3)
    assert np.array_equal(d.row_indices, [0, 1, 2])
    assert np.array_equal(d.col_indices, [0, 1, 2])
    assert np.allclose(d.C, M)
    assert np.allclose(d.R, M)
    assert np.allclose(d.N, np.diag([1 / 5.0, 1 / 3.0, 1.0]))


def test_exact_reconstruction_large():
    rng = np.random.default_rng(61)
    M = rng.standard_normal((1024, 10)) @ rng.standard_normal((10, 1024))
    S = truncate_svd(M, 10)
    d = svd_to_cur(S)
    err = np.linalg.norm(M - d.materialize())
    assert err <= 1e-10 * np.linalg.norm(M)


def test_c_and_r_are_literal_extracts():
    S = random_topsvd(90, 70, 6, seed=63)
    d = svd_to_cur(S, k=9, l=8)
    full = materialize(S)
    assert np.array_equal(d.C, full[:, d.col_indices])
    assert np.array_equal(d.R, full[d.row_indices, :])
    assert d.C.shape == (90, 8) and d.R.shape == (9, 70)
    assert d.N.shape == (8, 9)


def test_oversampled_selection_reconstructs():
    S = random_topsvd(64, 48, 5, seed=65)
    d = svd_to_cur(S, k=12, l=9)
    err = np.linalg.norm(materialize(S) - d.materialize())
    assert err <= 1e-10 * S.sigma[0]


def test_dimension_checks():
    S = random_topsvd(20, 15, 4, seed=67)
    with pytest.raises(DimensionError):
        svd_to_cur(S, k=3)
    with pytest.raises(DimensionError):
        svd_to_cur(S, l=16)
    with pytest.raises(TypeError):
        svd_to_cur(np.eye(4))


def test_singular_nucleus_rejected():
    S = random_topsvd(20, 15, 3, seed=69,
                      sigma=np.array([1.0, 0.5, 1e-16]))
    with pytest.raises(SingularNucleusError):
        svd_to_cur(S)


def test_nucleus_norm_bound_values():
    assert nucleus_norm_bound(8, 8, 8, sigma_rho=0.25) == pytest.approx(4.0)
    got = nucleus_norm_bound(1024, 1024, 10, sigma_rho=1.0)
    assert got == pytest.approx(1014 * 10 * 1.21 + 1, rel=1e-12)
    with pytest.raises(ValueError):
        nucleus_norm_bound(8, 8, 4, sigma_rho=0.0)


def test_nucleus_norm_within_slack_bound():
    bad = 0
    trials = 100
    for t in range(trials):
        S = random_topsvd(128, 96, 8, seed=1000 + t)
        d = svd_to_cur(S)
        bound = 3 * nucleus_norm_bound(128, 96, 8,
                                       sigma_rho=float(S.sigma[-1]))
        if la.svdvals(d.N)[0] > bound:
            bad += 1
    assert bad <= 0.01 * trials


class TestRRSelect:
    def test_identity_all_rows(self):
        idx = rr_select(np.eye(6), 6)
        assert np.array_equal(idx, np.arange(6))
        sub = np.eye(6)[idx, :]
        assert la.svdvals(la.pinv(sub))[0] == pytest.approx(1.0)

    def test_whole_matrix_selection(self):
        rng = np.random.default_rng(71)
        Q = la.qr(rng.standard_normal((40, 5)), mode="economic")[0]
        idx = rr_select(Q, 40)
        assert np.array_equal(idx, np.arange(40))
        assert la.svdvals(la.pinv(Q[idx, :]))[0] == pytest.approx(1.0)

    def test_selected_submatrix_well_conditioned(self):
        bad = 0
        trials = 100
        bound = 3 * np.sqrt((256 - 8) * 8 * 1.1 ** 2 + 1)
        for t in range(trials):
            rng = np.random.default_rng(2000 + t)
            Q = la.qr(rng.standard_normal((256, 8)), mode="economic")[0]
            idx = rr_select(Q, 8)
            pinv_norm = la.svdvals(la.pinv(Q[idx, :]))[0]
            assert np.isfinite(pinv_norm)
            if pinv_norm > bound:
                bad += 1
        assert bad <= 0.01 * trials

    def test_count_range(self):
        Q = np.eye(8)[:, :3]
        with pytest.raises(PreconditionError):
            rr_select(Q, 2)
        with pytest.raises(PreconditionError):
            rr_select(Q, 9)


def test_decomp_shape_property():
    S = random_topsvd(30, 22, 4, seed=73)
    d = svd_to_cur(S)
    assert isinstance(d, CURDecomp)
    assert d.shape == (30, 22)
