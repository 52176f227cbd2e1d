import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given
from hypothesis import strategies as st

from sublra import (DimensionError, Factored2, PreconditionError,
                    QRPFallbackWarning, TopSVD, materialize, recompress,
                    topsvd_of_lra, topsvd_of_lra_qrp)
from sublra import topsvd
from sublra.core import lra_sum, thin_qr
from sublra.topsvd import _svd


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


@given(st.data())
def test_matches_dense_svd_property(data):
    m = data.draw(st.integers(1, 24), label="m")
    n = data.draw(st.integers(1, 24), label="n")
    k = data.draw(st.integers(1, min(m, n)), label="k")
    rho = data.draw(st.integers(1, k), label="rho")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    L = Factored2(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    T = topsvd_of_lra(L, rho)
    D = L.A @ L.B
    s = np.linalg.svd(D, compute_uv=False)
    assert np.abs(T.sigma - s[:rho]).max() <= 1e-10 * s[0]
    # any optimal rank-rho block misses D by exactly sigma_{rho+1}
    tail = s[rho] if rho < s.size else 0.0
    assert abs(np.linalg.norm(D - materialize(T), 2) - tail) <= 1e-10 * s[0]


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
    # the pivoted path checks before scipy's QR, which raises its own error
    for truncate in (topsvd_of_lra, topsvd_of_lra_qrp, recompress):
        with pytest.raises(PreconditionError, match=f"factor {bad}"):
            truncate(Factored2(factors["A"], factors["B"]), 3)


def test_rho_out_of_range():
    L = Factored2(np.ones((5, 2)), np.ones((2, 5)))
    with pytest.raises(DimensionError):
        topsvd_of_lra(L, 3)
    # a rank bound above min(m, n) = 3
    L = Factored2(np.ones((5, 4)), np.ones((4, 3)))
    for truncate in (topsvd_of_lra, recompress):
        with pytest.raises(DimensionError, match="exceeds min"):
            truncate(L, 2)


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
        S = topsvd_of_lra_qrp(L, rho)
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


def _qrp_by_permutation_matrices(L, rho):
    """topsvd_of_lra_qrp's non-fallback path with its rho-by-rho core formed
    by multiplying with permutation matrices, the reference for indexing."""

    def subpermutation(perm):
        cols = np.sort(perm[:rho])
        P = np.zeros((rho, rho))
        P[np.arange(rho), np.searchsorted(cols, perm[:rho])] = 1.0
        return P

    Q, R, piva = la.qr(L.A, mode="economic", pivoting=True)
    Qb, Lt, pivb = la.qr(L.B.T, mode="economic", pivoting=True)
    core = ((R[:rho, :rho] @ subpermutation(piva))
            @ (subpermutation(pivb).T @ Lt.T[:rho, :rho]))
    Uc, s, Vct = la.svd(core)
    return Q[:, :rho] @ Uc, s, Qb[:, :rho] @ Vct.T


def test_qrp_core_by_index_matches_permutation_matrices():
    rng = np.random.default_rng(41)
    for case in range(200):
        m, n = (int(v) for v in rng.integers(48, 161, size=2))
        k = int(rng.integers(2, 49))
        rho = int(rng.integers(1, min(k, 40) + 1))
        L = decayed_instance(m, n, k, float(rng.uniform(0.7, 0.97)),
                             seed=1000 + case)
        U, s, V = _qrp_by_permutation_matrices(L, rho)
        got = topsvd_of_lra_qrp(L, rho)
        assert np.array_equal(got.U, U), case
        assert np.array_equal(got.sigma, s), case
        assert np.array_equal(got.V, V), case


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
        # without right, the update of the rank-0 iterate by all of L
        assert isinstance(R, TopSVD)
        want = topsvd_of_lra(L, 4).sigma
        assert np.abs(R.sigma - want).max() <= 1e-12 * want[0]

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


def test_recompress_peak_memory_is_superfast():
    # the m-by-n product A @ B takes 128 MB at this shape; recompress works
    # on the factors and their k-by-k cores, a few MB
    m = n = 4096
    k = 40
    L = decayed_instance(m, n, k, 0.9, seed=43)
    tracemalloc.start()
    try:
        R = recompress(L, k // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R.rank_bound == k // 2
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def _piece(draw, rng, B, width, label):
    """An (rows x width) block against the orthonormal columns of B, all of
    one kind: Gaussian, inside span(B), off span(B) by a relative 10^-12 to
    10^-4 ("near"), zero, or Gaussian with repeated columns."""
    kind = draw(st.sampled_from(["gaussian", "inside", "near", "near",
                                 "zero", "repeat"]), label=label)
    rows, k = B.shape
    X = rng.standard_normal((rows, width))
    if kind in ("inside", "near"):
        X = B @ rng.standard_normal((k, width))
    if kind == "near":
        X += 10.0 ** rng.uniform(-12, -4) * rng.standard_normal((rows, width))
    if kind == "zero":
        X[:] = 0.0
    if kind == "repeat":
        X[:, 1::2] = X[:, :1]
    return X, kind in ("inside", "zero", "repeat")


@st.composite
def refine_sums(draw):
    """A sum of recompress's update form, L = [U, Q] [S V^T; C] with U and V
    orthonormal, and the rho to truncate it to.

    S is diagonal or lower triangular (as after a truncation or after
    iteration 0) with some zero singular values; Q and C^T are ``_piece``
    blocks against U and V; S, Q and C each carry a scale 10^e, e in
    [-150, 150].  ``degenerate`` says that Q or C^T holds an exact
    dependence, where the general path may serve.
    """
    k = draw(st.integers(1, 6), label="k")
    r = draw(st.integers(1, 20), label="r")  # up to three panels of _split
    m = draw(st.integers(k + r, 48), label="m")
    n = draw(st.integers(k + r, 48), label="n")
    rho = draw(st.integers(1, k + r), label="rho")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = thin_qr(rng.standard_normal((m, k)))[0]
    V = thin_qr(rng.standard_normal((n, k)))[0]
    S = np.diag(np.sort(rng.uniform(0.5, 2.0, k))[::-1])
    if draw(st.booleans(), label="triangular S"):
        S = np.tril(rng.standard_normal((k, k)))
    zeros = draw(st.integers(0, k), label="zero singular values")
    S[k - zeros:] = 0.0
    Q, q_degenerate = _piece(draw, rng, U, r, "Q kind")
    Ct, c_degenerate = _piece(draw, rng, V, r, "C kind")
    S, Q, Ct = (X * 10.0 ** rng.uniform(-150, 150) for X in (S, Q, Ct))
    L = lra_sum(Factored2(U, S @ V.T), Factored2(Q, Ct.T))
    return L, (S, V), rho, q_degenerate or c_degenerate


@given(refine_sums())
def test_update_matches_the_general_path(case):
    L, right, rho, degenerate = case
    with mock.patch.object(topsvd, "topsvd_of_lra",
                           wraps=topsvd.topsvd_of_lra) as general:
        got = recompress(L, rho, right=right)
    # the update itself serves every sum without an exact dependence
    assert degenerate or not general.called
    assert isinstance(got, TopSVD) and got.rank_bound == rho
    want = topsvd_of_lra(L, rho)
    assert np.abs(got.sigma - want.sigma).max() <= 1e-12 * want.sigma[0]
    for X in (got.U, got.V):
        assert np.abs(X.T @ X - np.eye(rho)).max() <= 1e-12


def test_update_rejects_right_factors_of_another_shape():
    rng = np.random.default_rng(48)
    U = thin_qr(rng.standard_normal((30, 3)))[0]
    V = thin_qr(rng.standard_normal((20, 3)))[0]
    L = lra_sum(Factored2(U, V.T), Factored2(rng.standard_normal((30, 4)),
                                             rng.standard_normal((4, 20))))
    with pytest.raises(DimensionError, match="right factors"):
        recompress(L, 3, right=(np.eye(3), V[:19]))
    with pytest.raises(DimensionError, match="right factors"):
        recompress(L, 3, right=(np.eye(2), V))
