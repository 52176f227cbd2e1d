from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from sublra import (DimensionError, Factored2, PreconditionError,
                    QRPFallbackWarning, materialize, recompress, topsvd_of_lra,
                    topsvd_of_lra_qrp)
from sublra.topsvd import _svd, topsvd_flop_estimate


def decayed_instance(m, n, k, rate, seed):
    """Random factors sharing an inner decay profile, LRA-shaped."""
    rng = np.random.default_rng(seed)
    d = rate ** np.arange(k)
    A = rng.standard_normal((m, k)) * np.sqrt(d)[None, :]
    B = np.sqrt(d)[:, None] * rng.standard_normal((k, n))
    return Factored2(A, B)


def test_diagonal_core():
    k = 6
    A = np.eye(10)[:, :k]
    B = np.zeros((k, 8))
    diag = np.array([4.0, -7.0, 1.0, 3.0, -2.0, 0.5])
    B[:, :k] = np.diag(diag)
    S = topsvd_of_lra(Factored2(A, B), 3)
    assert np.allclose(S.sigma, [7.0, 4.0, 3.0])


def test_gesdd_nonconvergent_input():
    # a 60-by-60 core captured from a refine iterate (n=1024, rho=20, fast
    # decay: 20 singular values at 1.0) on which LAPACK gesdd fails
    W = np.load(Path(__file__).parent / "data" / "gesdd_nonconvergent_core.npy")
    s = la.svd(W, compute_uv=False, lapack_driver="gesvd")
    rho = 25
    for L in (Factored2(W, np.eye(60)), Factored2(np.eye(60), W)):
        S = topsvd_of_lra(L, rho)
        assert np.abs(S.sigma - s[:rho]).max() <= 1e-12
        err = la.svd(W - materialize(S), compute_uv=False)[0]
        assert err == pytest.approx(s[rho], rel=1e-6)


def test_svd_retries_gesdd_failure_with_gesvd():
    # gesdd (OpenBLAS 0.3.31) fails on the captured matrix itself but factors
    # the QR cores topsvd_of_lra builds from it, so the retry is checked here
    W = np.load(Path(__file__).parent / "data" / "gesdd_nonconvergent_core.npy")
    U, s, Vt = _svd(W)
    s_gesvd = la.svd(W, compute_uv=False, lapack_driver="gesvd")
    assert np.abs(s - s_gesvd).max() <= 1e-12
    assert np.abs((U * s) @ Vt - W).max() <= 1e-12


def test_matches_full_svd_oracle():
    rng = np.random.default_rng(21)
    L = Factored2(rng.standard_normal((200, 30)), rng.standard_normal((30, 150)))
    S = topsvd_of_lra(L, 10)
    M = materialize(L)
    s_oracle = la.svd(M, compute_uv=False)
    assert np.abs(S.sigma - s_oracle[:10]).max() <= 1e-10 * s_oracle[0]
    err = la.svdvals(M - materialize(S))[0]
    assert err == pytest.approx(s_oracle[10], rel=1e-9)


def test_projector_matches_oracle_when_gap():
    L = decayed_instance(80, 70, 12, 0.5, seed=2)
    rho = 4
    S = topsvd_of_lra(L, rho)
    U_o = la.svd(materialize(L))[0][:, :rho]
    assert np.linalg.norm(S.U @ S.U.T - U_o @ U_o.T) <= 1e-8


@pytest.mark.parametrize("bad", ["A", "B"])
def test_non_finite_factor_rejected(bad):
    rng = np.random.default_rng(22)
    factors = {"A": rng.standard_normal((40, 6)),
               "B": rng.standard_normal((6, 30))}
    factors[bad][3, 1] = -np.inf
    with pytest.raises(PreconditionError, match=f"factor {bad}"):
        topsvd_of_lra(Factored2(factors["A"], factors["B"]), 3)


def test_rho_out_of_range():
    L = Factored2(np.ones((5, 2)), np.ones((2, 5)))
    with pytest.raises(DimensionError):
        topsvd_of_lra(L, 3)


class TestQRPVariant:
    def test_exact_rank_product(self):
        rng = np.random.default_rng(25)
        k, rho = 16, 6
        d = np.zeros(k)
        d[:rho] = 0.8 ** np.arange(rho)
        A = rng.standard_normal((120, k)) * np.sqrt(d)[None, :]
        B = np.sqrt(d)[:, None] * rng.standard_normal((k, 100))
        L = Factored2(A, B)
        M = materialize(L)
        S = topsvd_of_lra_qrp(L, rho)
        err = la.svdvals(M - materialize(S))[0]
        assert err <= 1e-9 * la.svdvals(M)[0]

    def test_k_equals_rho_matches_exact_path(self):
        rng = np.random.default_rng(27)
        L = Factored2(rng.standard_normal((60, 7)), rng.standard_normal((7, 50)))
        S1 = topsvd_of_lra(L, 7)
        S2 = topsvd_of_lra_qrp(L, 7)
        assert np.abs(S1.sigma - S2.sigma).max() <= 1e-10 * S1.sigma[0]
        assert np.linalg.norm(materialize(S1) - materialize(S2)) \
            <= 1e-9 * S1.sigma[0]

    def test_error_bound_on_decaying_core(self):
        L = decayed_instance(256, 256, 40, 0.55, seed=29)
        rho, h = 10, 1.01
        M = materialize(L)
        s = la.svd(M, compute_uv=False)
        S = topsvd_of_lra_qrp(L, rho, h=h)
        err = la.svdvals(M - materialize(S))[0]
        k = L.rank_bound
        assert err <= 3.0 * np.sqrt(1 + h * h * (k - rho) * rho) * s[rho]

    def test_singular_core_falls_back(self):
        rng = np.random.default_rng(31)
        k, rank = 8, 3
        A = rng.standard_normal((30, rank)) @ rng.standard_normal((rank, k))
        B = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, 25))
        L = Factored2(A, B)
        with pytest.warns(QRPFallbackWarning):
            S = topsvd_of_lra_qrp(L, 5)
        exact = topsvd_of_lra(L, 5)
        assert np.abs(S.sigma - exact.sigma).max() <= 1e-10
        assert np.linalg.norm(materialize(S) - materialize(exact)) <= 1e-9

    def test_h_validation(self):
        L = Factored2(np.eye(4), np.eye(4))
        with pytest.raises(ValueError):
            topsvd_of_lra_qrp(L, 2, h=0.5)


class TestRecompress:
    def test_identity_at_full_rank(self):
        L = decayed_instance(50, 40, 8, 0.6, seed=33)
        R = recompress(L, 8)
        assert np.linalg.norm(materialize(R) - materialize(L)) \
            <= 1e-12 * np.linalg.norm(materialize(L))

    @pytest.mark.parametrize("method", ["svd"])
    def test_methods_reduce_rank(self, method):
        L = decayed_instance(64, 60, 12, 0.5, seed=35)
        R = recompress(L, 4)
        assert R.rank_bound == 4

    def test_error_growth_bounds(self):
        # triangle-inequality bounds for the exact truncation path
        rng = np.random.default_rng(37)
        for trial in range(20):
            m, n, k, rho = 40, 36, 10, 3
            M = rng.standard_normal((m, n))
            L = decayed_instance(m, n, k, 0.5, seed=100 + trial)
            Lr = recompress(L, rho)
            AB = materialize(L)
            for kind in (2, "fro"):
                err = np.linalg.norm(M - materialize(Lr), kind)
                base = np.linalg.norm(M - AB, kind)
                s_ab = la.svd(AB, compute_uv=False)
                s_m = la.svd(M, compute_uv=False)
                if kind == 2:
                    tau_ab, tau_m = s_ab[rho], s_m[rho]
                else:
                    tau_ab = np.sqrt((s_ab[rho:] ** 2).sum())
                    tau_m = np.sqrt((s_m[rho:] ** 2).sum())
                assert err <= base + tau_ab + 1e-9
                assert err <= 2 * base + tau_m + 1e-9


def test_flop_estimate_superfast_envelope():
    # modeled cost stays within C (m + n) k^2 for a fixed constant, and is
    # dominated by dense-product work whenever k^2 << min(m, n)
    C = 60
    for m, n, k in [(256, 256, 16), (1024, 512, 20), (4096, 4096, 40)]:
        est = topsvd_flop_estimate(m, n, k, rho=k // 2)
        assert est <= C * (m + n) * k * k
    for m, n, k in [(4096, 4096, 16), (16384, 16384, 40)]:
        assert topsvd_flop_estimate(m, n, k, rho=k // 2) < m * n * k
    # linear growth in m + n, unlike the quadratic dense-product cost
    small = topsvd_flop_estimate(1024, 1024, 24, 12)
    large = topsvd_flop_estimate(4096, 4096, 24, 12)
    assert large <= 4.1 * small
