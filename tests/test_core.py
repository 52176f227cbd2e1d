import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given
from hypothesis import strategies as st

from sublra import (CountingAccessor, DimensionError, Factored2,
                    PreconditionError, RatioOracle, RefineConfig, TopSVD,
                    as_dense, lra_sum, materialize, matrix_norm, refine,
                    relative_error_ratio, truncate_svd)
from sublra import core
from sublra.core import (DEGENERATE_GAP, FINITE_CHECK_BLOCK, spectral_norm,
                         thin_qr, top_singular_values)
from sublra.matgen import (fast_decay_spectrum, gen_synthetic,
                           slow_decay_spectrum)

NOT_FINITE = "entries must be finite"  # the accessor's and as_dense's raise


def test_as_dense_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_dense(np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        as_dense(np.zeros(4))
    with pytest.raises(PreconditionError):
        as_dense(np.array([[1.0, np.nan]]))


def test_norm_identity_and_diagonal():
    assert matrix_norm(np.eye(5), "spectral") == pytest.approx(1.0)
    assert matrix_norm(np.diag([3.0, 1.0]), "frobenius") == pytest.approx(
        np.sqrt(10.0))
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "nuclear")


def test_norm_matches_full_svd_oracle():
    rng = np.random.default_rng(42)
    M = rng.standard_normal((20, 15))
    oracle = la.svd(M, compute_uv=False)[0]
    assert matrix_norm(M, "spectral") == pytest.approx(oracle, rel=1e-10)


def test_truncate_svd_diagonal():
    S = truncate_svd(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.allclose(S.sigma, [5.0, 3.0])
    residual = np.diag([5.0, 3.0, 1.0]) - materialize(S)
    assert matrix_norm(residual, "spectral") == pytest.approx(1.0)


def test_truncate_svd_exact_rank():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 30))
    S = truncate_svd(M, 6)
    assert np.linalg.norm(M - materialize(S)) <= 1e-12 * np.linalg.norm(M)


def test_truncate_svd_frobenius_residual_matches_tail():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((64, 48))
    s = la.svd(M, compute_uv=False)
    S = truncate_svd(M, 8)
    expected = np.sqrt((s[8:] ** 2).sum())
    got = np.linalg.norm(M - materialize(S))
    assert got == pytest.approx(expected, rel=1e-10)


def test_truncate_svd_range_check():
    with pytest.raises(DimensionError):
        truncate_svd(np.eye(3), 4)
    with pytest.raises(DimensionError):
        truncate_svd(np.eye(3), 0)


def test_materialize_forms():
    assert np.array_equal(materialize(Factored2(np.eye(3), np.eye(3))),
                          np.eye(3))
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    S = TopSVD(e1, np.array([2.0]), e1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0
    assert np.array_equal(materialize(S), expected)


def test_factored_dimension_checks():
    with pytest.raises(DimensionError):
        Factored2(np.zeros((3, 2)), np.zeros((3, 4)))


def test_topsvd_invariants_enforced():
    with pytest.raises(PreconditionError):
        TopSVD(np.ones((4, 2)), np.array([1.0, 0.5]), np.eye(4)[:, :2])
    Q = np.eye(4)[:, :2]
    with pytest.raises(PreconditionError):
        TopSVD(Q, np.array([0.5, 1.0]), Q)
    with pytest.raises(PreconditionError):
        TopSVD(Q, np.array([1.0, -0.5]), Q)


def test_lra_sum_cancellation_and_identity():
    rng = np.random.default_rng(5)
    L = Factored2(rng.standard_normal((6, 2)), rng.standard_normal((2, 8)))
    neg = Factored2(-L.A, L.B)
    assert np.allclose(materialize(lra_sum(L, neg)), 0.0)
    empty = Factored2.zero(6, 8)
    summed = lra_sum(L, empty)
    assert np.array_equal(materialize(summed), materialize(L))
    assert summed.rank_bound == L.rank_bound
    with pytest.raises(DimensionError):
        lra_sum(L, Factored2.zero(6, 9))


def test_lra_sum_rank_grows():
    u = np.zeros((5, 1)); u[0] = 1.0
    v = np.zeros((5, 1)); v[1] = 1.0
    L1 = Factored2(u, np.ones((1, 4)))
    L2 = Factored2(v, np.array([[1.0, -1.0, 1.0, -1.0]]))
    s = la.svd(materialize(lra_sum(L1, L2)), compute_uv=False)
    assert (s > 1e-12).sum() == 2


def _spectral_norm_inputs():
    rng = np.random.default_rng(71)
    return {
        "tall": rng.standard_normal((300, 40)),
        "wide": rng.standard_normal((40, 300)),
        "rank1": np.outer(rng.standard_normal(200), rng.standard_normal(150)),
        # L = 0 on the fast-decay input: a 20-fold top cluster at 1.0
        "cluster": gen_synthetic(256, fast_decay_spectrum(256), seed=5),
        "tiny-noise": 1e-11 * rng.standard_normal((512, 512)),
    }


@pytest.mark.parametrize("name", ["tall", "wide", "rank1", "cluster",
                                  "tiny-noise"])
def test_spectral_norm_agrees_with_full_svd(name):
    D = _spectral_norm_inputs()[name]
    expected = la.svdvals(D)[0]
    got = spectral_norm(D)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)
    assert spectral_norm(D) == got  # same bits on a repeat


@pytest.mark.parametrize("shape", [(5, 4), (4, 5), (1, 9), (9, 1)])
def test_spectral_norm_invariant_breakdown(shape):
    # the zero matrix breaks down at the first Lanczos step; with one
    # nonzero entry the second step's left vector orthogonalizes to exactly
    # zero, an exact invariant pair; a single row or column converges in
    # one step, its orthogonalized right vector exactly zero
    D = np.zeros(shape)
    assert spectral_norm(D) == np.linalg.norm(D) == 0.0
    D[0, 0] = -2.0
    assert spectral_norm(D) == np.linalg.norm(D) == 2.0
    if min(shape) == 1:
        D.flat[:] = np.linspace(-3.0, 5.0, D.size) / 7.0
        assert spectral_norm(D) == np.linalg.norm(D)


def test_spectral_norm_basis_stays_bounded():
    # the Gaussian needs over a hundred Lanczos steps; kept in full, the
    # two bases alone would take several MB
    D = np.random.default_rng(72).standard_normal((2048, 2048))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral_norm(D)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_spectral_norm_gives_up_after_restart_limit(monkeypatch):
    # 300 x 40 fills the 32-vector basis once before it converges
    D = _spectral_norm_inputs()["tall"]
    monkeypatch.setattr(core, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        spectral_norm(D)


@pytest.mark.parametrize("D, s", [
    (np.arange(1.0, 10).reshape(1, 9) * 1e160, 1e160),
    (np.random.default_rng(75).standard_normal((6, 5)) * 1e160, 1e160),
    (np.random.default_rng(76).standard_normal((6, 5)) * 1e300, 1e300),
    (np.arange(1.0, 10).reshape(1, 9) * 1e-160, 1e-160),
    (np.random.default_rng(77).standard_normal((6, 5)) * 1e-160, 1e-160),
    (np.arange(1.0, 10).reshape(1, 9) * 1e-170, 1e-170),
    (np.arange(1.0, 10).reshape(1, 9) * 1e-300, 1e-300),
    (np.random.default_rng(77).standard_normal((6, 5)) * 1e-170, 1e-170),
    (np.random.default_rng(78).standard_normal((6, 5)) * 1e-300, 1e-300),
], ids=["row-1e160", "gaussian-1e160", "gaussian-1e300", "row-1e-160",
        "gaussian-1e-160", "row-1e-170", "row-1e-300", "gaussian-1e-170",
        "gaussian-1e-300"])
def test_spectral_norm_survives_overflowing_squares(D, s):
    # the squares of entries near 1e160 overflow, those near 1e-160 are
    # subnormal and lose bits, and those near 1e-170 underflow to zero;
    # every alpha and beta is a norm of a vector scaled by a power of two,
    # so the one Lanczos run gives the norm of the unscaled matrix, not an
    # inexact value, inf or an error
    # (abs=0: pytest's default absolute slack of 1e-12 would pass any
    # value at these scales)
    want = np.linalg.norm(D / s, 2) * s
    assert spectral_norm(D) == pytest.approx(want, rel=1e-14, abs=0)
    assert spectral_norm(D.T) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("s", [1e160, 1e-170])
def test_frobenius_norm_survives_overflowing_squares(s):
    D = np.random.default_rng(79).standard_normal((6, 5))
    assert matrix_norm(D * s, "frobenius") == pytest.approx(
        np.linalg.norm(D) * s, rel=1e-14, abs=0)


def test_spectral_norm_rejects_non_finite_entries():
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        spectral_norm(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def _decaying(m, n, rate, rng):
    """m x n matrix with singular values rate**i and Haar singular vectors."""
    r = min(m, n)
    U = la.qr(rng.standard_normal((m, r)), mode="economic")[0]
    V = la.qr(rng.standard_normal((n, r)), mode="economic")[0]
    return (U * rate ** np.arange(r)) @ V.T


@st.composite
def qr_inputs(draw):
    """An m-by-k matrix, 1 <= k <= 64 and k <= m <= 160, whose columns are
    Gaussians scaled by 10^e, e in [-150, 150], some of them exact zeros or
    repeats of an earlier column."""
    k = draw(st.integers(1, 64))
    m = draw(st.integers(k, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-150, 150, size=k)
    for j in range(k):
        kind = draw(st.sampled_from(["gaussian", "gaussian", "zero",
                                     "repeat"]))
        if kind == "zero":
            A[:, j] = 0.0
        elif kind == "repeat" and j:
            A[:, j] = A[:, draw(st.integers(0, j - 1))]
    return A


def _column_norms(A):
    return np.array([core._scale_safe(a) for a in A.T])


@given(A=qr_inputs())
def test_thin_qr_factors_any_column_scale(A):
    Q, R = thin_qr(A)
    k = A.shape[1]
    assert Q.shape == A.shape and R.shape == (k, k)
    assert np.array_equal(R, np.linalg.qr(A, mode="r"))
    assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-13
    assert np.all(_column_norms(Q @ R - A) <= 1e-13 * _column_norms(A))


@pytest.mark.parametrize("m, k", [(1, 1), (7, 3), (64, 64), (200, 60)])
def test_thin_qr_is_exact_on_identity_columns(m, k):
    E = np.eye(m, k)
    Q, R = thin_qr(E)
    assert np.array_equal(Q, E) and np.array_equal(R, np.eye(k))
    assert not np.signbit(Q).any()


def test_thin_qr_agrees_with_numpy_q():
    A = (np.random.default_rng(76).standard_normal((1024, 60))
         * np.logspace(0, -14, 60))
    Q = thin_qr(A)[0]
    assert np.abs(Q - np.linalg.qr(A)[0]).max() <= 1e-14


def _top_sv_inputs():
    rng = np.random.default_rng(74)
    slow = gen_synthetic(256, slow_decay_spectrum(256), seed=6)
    return {
        # sigma_21 = 0.5 sits just past the fast-decay input's 20-fold
        # cluster at 1.0
        "cluster": gen_synthetic(256, fast_decay_spectrum(256), seed=5),
        "slow": slow,
        # residual norms whose squares underflow must not stop the sweeps
        "slow-1e-170": slow * 1e-170,
        "tall": _decaying(500, 120, 0.8, rng),
        "wide": _decaying(120, 500, 0.8, rng),
        "rank3": rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64)),
        "gapless": rng.standard_normal((300, 300)),
    }


def _assert_top_values(D, k, got):
    expected = np.linalg.svd(D, compute_uv=False)[:k]
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected)
                  <= 1e-12 * expected + 1e-14 * expected[0])


@pytest.mark.parametrize("name, k", [("cluster", 21), ("cluster", 9),
                                     ("slow", 21), ("slow-1e-170", 21),
                                     ("tall", 21),
                                     ("wide", 21), ("rank3", 4)])
def test_top_singular_values_agree_with_full_svd(name, k):
    D = _top_sv_inputs()[name]
    got = top_singular_values(D, k)
    _assert_top_values(D, k, got)
    assert np.array_equal(top_singular_values(D, k), got)  # same bits


@pytest.mark.parametrize("shape, k", [((30, 50), 30), ((50, 30), 45),
                                      ((1, 9), 2), ((9, 1), 1)])
def test_top_singular_values_past_the_smaller_dimension(shape, k):
    # a block as wide as min(m, n) spans everything: all values come back
    D = np.random.default_rng(75).standard_normal(shape)
    got = top_singular_values(D, k)
    _assert_top_values(D, k, got)
    assert got.size == min(shape)


def test_top_singular_values_iterate_on_a_gapped_input(monkeypatch):
    # the cluster input converges in sweeps: no dense SVD of D is taken
    D = _top_sv_inputs()["cluster"]
    svd = np.linalg.svd
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    top_singular_values(D, 21)
    assert shapes and all(min(s) <= 41 for s in shapes)


def test_top_singular_values_fall_back_when_budget_runs_out(monkeypatch):
    D = _top_sv_inputs()["cluster"]
    monkeypatch.setattr(core, "TOP_SV_MAX_SWEEPS", 0)
    assert np.array_equal(top_singular_values(D, 21),
                          np.linalg.svd(D, compute_uv=False)[:21])


def test_top_singular_values_fall_back_on_a_gapless_spectrum():
    # the Gaussian has no gap past index 21: the residuals stall and the
    # values are the dense SVD's, bit for bit
    D = _top_sv_inputs()["gapless"]
    assert np.array_equal(top_singular_values(D, 21),
                          np.linalg.svd(D, compute_uv=False)[:21])


def test_ratio_oracle_keeps_degenerate_flag_and_leading_values():
    inputs = _top_sv_inputs()
    for name, rho in (("rank3", 3), ("cluster", 20), ("slow", 20)):
        M = inputs[name]
        s = np.linalg.svd(M, compute_uv=False)
        oracle = RatioOracle(M, rho)
        assert oracle.sigma.size == rho + 1
        assert oracle.degenerate == (s[rho] < DEGENERATE_GAP * s[0])
        assert abs(oracle.tau - s[rho]) <= 1e-12 * s[rho] + 1e-14 * s[0]
    assert RatioOracle(inputs["rank3"], 3).degenerate


def test_ratio_oracle_build_stays_small(monkeypatch):
    # tracemalloc sees numpy's arrays but not the buffers numpy.linalg
    # hands to LAPACK (a dense SVD copies all of M there), so the operands
    # numpy.linalg receives are checked as well
    n = 1024
    M = gen_synthetic(n, fast_decay_spectrum(n), seed=8)
    operands = []
    for name in ("svd", "qr"):
        fn = getattr(np.linalg, name)

        def recorded(a, *args, _fn=fn, **kwargs):
            operands.append(a.size)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        RatioOracle(M, 20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes / 2
    assert max(operands) <= n * 41


def test_relative_error_ratio_at_optimum():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((30, 25))
    S = truncate_svd(M, 5)
    r = relative_error_ratio(M, S, 5)
    assert not r.degenerate
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_relative_error_ratio_zero_approx_oracle():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=9)
    s = la.svd(M, compute_uv=False)
    r = relative_error_ratio(M, np.zeros_like(M), 20)
    assert r.value == pytest.approx(s[0] / s[20], rel=1e-9)


def test_relative_error_ratio_degenerate_flag():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    r = relative_error_ratio(M, np.zeros_like(M), 3)
    assert r.degenerate
    assert r.value == pytest.approx(la.svd(M, compute_uv=False)[0], rel=1e-12)


@pytest.mark.parametrize("spectrum", [fast_decay_spectrum,
                                      slow_decay_spectrum])
@pytest.mark.parametrize("multiplier", ["ahad", "gaussian"])
def test_ratio_oracle_agrees_with_full_svd(spectrum, multiplier):
    n, rho = 256, 20
    M = gen_synthetic(n, spectrum(n), seed=31)
    oracle = RatioOracle(M, rho)
    ratios = []

    def checked(L):
        ratio = oracle(L)
        dense = la.svdvals(M - materialize(L))[0] / oracle.tau
        assert ratio == pytest.approx(dense, rel=1e-12, abs=0)
        ratios.append(ratio)
        return ratio

    refine(CountingAccessor(M),
           RefineConfig(rho=rho, max_iters=3, multiplier=multiplier, seed=7),
           evaluator=checked)
    # iteration 0 ends at rank rho, so only its pre-truncation iterate is
    # scored; the later two score both
    assert len(ratios) == 5
    if spectrum is fast_decay_spectrum:
        # pre-truncation iterates past the first are exact to ~1e-11
        assert min(ratios) < 1e-9


def test_ratio_oracle_leaves_a_dense_approx_unchanged():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 5))
    B = rng.standard_normal((5, 30))
    oracle = RatioOracle(rng.standard_normal((40, 30)), 4)
    dense = A @ B
    kept = dense.copy()
    ratio = oracle(dense)
    assert np.array_equal(dense, kept)
    assert oracle(Factored2(A, B)) == ratio
    assert oracle(dense) == ratio


def test_ratio_oracle_exact_difference_is_zero():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 5))
    B = rng.standard_normal((5, 30))
    oracle = RatioOracle(A @ B, 4)
    assert oracle(Factored2(A, B)) == 0.0


@pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
def test_ratio_oracle_single_row_or_column(shape):
    M = np.arange(1.0, 10.0).reshape(shape)
    r = relative_error_ratio(M, np.zeros(shape), 1)
    assert r.degenerate
    assert r.value == pytest.approx(np.linalg.norm(M), rel=1e-15)


def test_ratio_oracle_rejects_bad_rank_and_shape():
    M = np.arange(12.0).reshape(3, 4)
    for rho in (0, 4):
        with pytest.raises(DimensionError, match="rho"):
            RatioOracle(M, rho)
    with pytest.raises(DimensionError, match="approx shape"):
        RatioOracle(M, 1)(np.zeros((4, 3)))


def test_ratio_oracle_repeatable():
    M = gen_synthetic(128, fast_decay_spectrum(128), seed=9)
    rng = np.random.default_rng(4)
    L = Factored2(rng.standard_normal((128, 20)),
                  rng.standard_normal((20, 128)))
    oracle = RatioOracle(M, 20)
    assert oracle(L) == oracle(L)
    assert RatioOracle(M, 20)(L) == oracle(L)


def test_eckart_young_optimality():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((24, 20))
    rho = 4
    best = np.linalg.norm(M - materialize(truncate_svd(M, rho)))
    for _ in range(100):
        N = rng.standard_normal((24, rho)) @ rng.standard_normal((rho, 20))
        assert np.linalg.norm(M - N) >= best - 1e-9


def test_singular_value_perturbation():
    rng = np.random.default_rng(19)
    for _ in range(20):
        M = rng.standard_normal((15, 12))
        E = rng.standard_normal((15, 12)) * rng.uniform(0.01, 2.0)
        bound = la.svd(E, compute_uv=False)[0]
        diff = np.abs(la.svd(M + E, compute_uv=False)
                      - la.svd(M, compute_uv=False))
        assert diff.max() <= bound + 1e-10


def test_pseudo_inverse_product_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        k, r, l = rng.integers(3, 12, size=3)
        r = min(r, k, l)
        A = rng.standard_normal((k, r))
        B = rng.standard_normal((r, l))
        for kind in ("spectral", "frobenius"):
            lhs = matrix_norm(la.pinv(A @ B), kind)
            rhs = matrix_norm(la.pinv(A), kind) * matrix_norm(la.pinv(B), kind)
            assert lhs <= rhs + 1e-10 * rhs


class TestCountingAccessor:
    def test_entry_and_counters(self):
        acc = CountingAccessor(np.arange(12.0).reshape(3, 4))
        assert acc.read_at([1], [2])[0] == 6.0
        assert acc.read_at([1], [2])[0] == 6.0
        assert acc.total_reads == 2
        assert acc.distinct_accessed == 1

    def test_broadcast_read_at_counts_every_value(self):
        acc = CountingAccessor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(acc.read_at(0, [0, 1, 2]), [0.0, 1.0, 2.0])
        assert acc.total_reads == 3
        assert acc.read_at([[0], [1]], [0, 1, 2]).shape == (2, 3)
        assert acc.total_reads == 9
        assert acc.distinct_accessed == 6

    def test_block_reads(self):
        acc = CountingAccessor(np.arange(20.0).reshape(4, 5))
        rows = acc.read_rows([1, 3])
        assert np.array_equal(rows, acc.target[[1, 3], :])
        assert acc.distinct_accessed == 10
        acc.read_cols([0])
        assert acc.distinct_accessed == 12
        sub = acc.read_submatrix([0, 2], [2, 4])
        assert sub.shape == (2, 2)
        vals = acc.read_at([0, 1], [0, 0])
        assert np.array_equal(vals, [0.0, 5.0])
        assert acc.distinct_accessed <= acc.total_reads
        assert acc.distinct_accessed <= 20

    @pytest.mark.parametrize("cols", [
        [5, 0, 63, 17], [[1, 2, 3], [60, 61, 62]], 7, -3, [-1, -64, 2],
        [9, 9, 9, 4], [], [[], []]], ids=[
        "1d", "2d", "scalar", "negative-scalar", "negative", "repeated",
        "empty", "empty-2d"])
    def test_read_cols_is_column_indexing(self, cols):
        # three row blocks and a partial one: the gather walks them all
        M = np.random.default_rng(77).standard_normal(
            (3 * (FINITE_CHECK_BLOCK // 64) + 5, 64))
        acc = CountingAccessor(M)
        cols = np.asarray(cols, dtype=np.intp)
        got = acc.read_cols(cols)
        want = M[:, cols]
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert acc.total_reads == cols.size * M.shape[0]

    def test_full_materialization_counts_everything(self):
        acc = CountingAccessor(np.ones((6, 7)))
        acc.read_full()
        assert acc.distinct_accessed == 42

    def test_first_unaccessed(self):
        acc = CountingAccessor(np.ones((2, 3)))
        assert acc.first_unaccessed() == (0, 0)
        acc.read_rows([0])
        assert acc.first_unaccessed() == (1, 0)
        acc.read_full()
        assert acc.first_unaccessed() is None
        by_cols = CountingAccessor(np.ones((2, 3)))
        by_cols.read_cols([0, 1, 2])
        assert by_cols.first_unaccessed() is None

    @pytest.mark.parametrize("seed", range(40))
    def test_ledger_matches_brute_force_mask(self, seed):
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        acc = CountingAccessor(rng.standard_normal((m, n)))
        mask = np.zeros((m, n), dtype=bool)
        reads = 0
        for _ in range(int(rng.integers(0, 8))):
            kind = rng.integers(5)
            rows = rng.integers(-m, m, size=int(rng.integers(0, m + 1)))
            cols = rng.integers(-n, n, size=int(rng.integers(0, n + 1)))
            if kind == 0:
                got = acc.read_rows(rows)
                want = acc.target[rows, :]
                mask[rows, :] = True
                reads += rows.size * n
            elif kind == 1:
                got = acc.read_cols(cols)
                want = acc.target[:, cols]
                mask[:, cols] = True
                reads += cols.size * m
            elif kind == 2:
                k = int(rng.integers(0, 2 * m * n))
                rows = rng.integers(-m, m, size=k)
                cols = rng.integers(-n, n, size=k)
                got = acc.read_at(rows, cols)
                want = acc.target[rows, cols]
                mask[rows, cols] = True
                reads += k
            elif kind == 3:
                got = acc.read_submatrix(rows, cols)
                want = acc.target[np.ix_(rows, cols)]
                mask[np.ix_(rows, cols)] = True
                reads += rows.size * cols.size
            else:
                got = acc.read_full()
                want = acc.target
                mask[:, :] = True
                reads += m * n
            assert np.array_equal(got, want)
            assert acc.total_reads == reads
            assert acc.distinct_accessed == int(mask.sum())
            assert np.array_equal(acc.accessed, mask)
            unread = np.argwhere(~mask)
            assert acc.first_unaccessed() == (
                tuple(int(x) for x in unread[0]) if unread.size else None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_last_scan_block(self, bad):
        M = np.ones((FINITE_CHECK_BLOCK // 64 + 3, 64))
        M[-1, 17] = bad
        with pytest.raises(PreconditionError):
            as_dense(M)
        for read in (lambda acc: acc.read_full(),
                     lambda acc: acc.read_rows([-1]),
                     lambda acc: acc.read_cols([17])):
            with pytest.raises(PreconditionError, match=NOT_FINITE):
                read(CountingAccessor(M))

    # (method, arguments of a read that misses entry (2, 3), arguments of
    # one that delivers it); rows 0 and 4 and columns 0 and 5 are read
    # before, so the delivering row and column reads mix marked and
    # unmarked indices
    NON_FINITE_READS = [
        ("read_rows", ([1, -1],), ([4, 2, 0],)),
        ("read_cols", ([4, 1],), ([0, -3],)),
        ("read_full", None, ()),
        ("read_at", ([2, 0, 2], [2, 3, -1]), ([[0], [2]], [3])),
        ("read_submatrix", ([0, 1, 2], [0, 1, 2]), ([1, 2], [5, 3])),
    ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method, miss, hit", NON_FINITE_READS,
                             ids=[r[0] for r in NON_FINITE_READS])
    def test_first_delivery_of_non_finite_entry_raises(self, method, miss,
                                                       hit, bad):
        M = np.arange(30.0).reshape(5, 6)
        M[2, 3] = bad
        acc = CountingAccessor(M)
        read = getattr(acc, method)
        acc.read_rows([0, 4])
        acc.read_cols([0, 5])
        if miss is not None:
            assert np.isfinite(read(*miss)).all()
        before = (acc.total_reads, acc.distinct_accessed, acc.accessed)
        for _ in range(2):  # a raise marks nothing as checked
            with pytest.raises(PreconditionError, match=NOT_FINITE):
                read(*hit)
            assert acc.total_reads == before[0]
            assert acc.distinct_accessed == before[1]
            assert np.array_equal(acc.accessed, before[2])
        if miss is not None:
            assert np.isfinite(read(*miss)).all()
        assert np.isfinite(acc.read_submatrix([1, 3], [2, 4])).all()

    def test_construction_scans_nothing(self):
        acc = CountingAccessor(np.full((2048, 2048), np.nan))
        assert acc.total_reads == 0
        with pytest.raises(PreconditionError, match=NOT_FINITE):
            acc.read_rows([7])
        with pytest.raises(PreconditionError, match=NOT_FINITE):
            acc.read_at([0], [0])
        assert acc.total_reads == acc.distinct_accessed == 0

    @pytest.mark.parametrize("block", [1, 3, 64, FINITE_CHECK_BLOCK])
    @pytest.mark.parametrize("seed", range(10))
    def test_no_read_delivers_a_non_finite_entry(self, seed, block,
                                                 monkeypatch):
        # small scan blocks split the reads into several blocks and runs
        monkeypatch.setattr(core, "FINITE_CHECK_BLOCK", block)
        rng = np.random.default_rng(seed)
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        M = rng.standard_normal((m, n))
        bad = rng.random((m, n)) < 0.05
        M[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
        acc = CountingAccessor(M)
        mask = np.zeros((m, n), dtype=bool)
        for _ in range(12):
            kind = rng.integers(5)
            rows = rng.integers(-m, m, size=int(rng.integers(0, m + 1)))
            cols = rng.integers(-n, n, size=int(rng.integers(0, n + 1)))
            if kind == 0:
                read, args, hit = acc.read_rows, (rows,), (rows, slice(None))
            elif kind == 1:
                read, args, hit = acc.read_cols, (cols,), (slice(None), cols)
            elif kind == 2:
                k = int(rng.integers(0, m * n))
                rows = rng.integers(-m, m, size=k)
                cols = rng.integers(-n, n, size=k)
                read, args, hit = acc.read_at, (rows, cols), (rows, cols)
            elif kind == 3:
                read, args = acc.read_submatrix, (rows, cols)
                hit = np.ix_(rows, cols)
            else:
                read, args, hit = acc.read_full, (), slice(None)
            want = M[hit]
            reads = acc.total_reads
            if np.isfinite(want).all():
                assert np.array_equal(read(*args), want)
                mask[hit] = True
                reads += want.size
            else:
                with pytest.raises(PreconditionError, match=NOT_FINITE):
                    read(*args)
            assert acc.total_reads == reads
            assert np.array_equal(acc.accessed, mask)

    def test_ledger_keeps_no_dense_mask(self):
        M = np.ones((2048, 2048))
        tracemalloc.start()
        try:
            acc = CountingAccessor(M)
            rows = acc.read_rows(np.arange(0, 2048, 128))
            cols = acc.read_cols(np.arange(5, 2048, 128))
            assert acc.distinct_accessed == 2 * 16 * 2048 - 16 * 16
            assert acc.first_unaccessed() == (1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows.nbytes - cols.nbytes < 1 << 20
