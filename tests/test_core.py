import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

from sublra import (CountingAccessor, DimensionError, Factored2, Factored3,
                    PreconditionError, RatioOracle, RefineConfig, TopSVD,
                    as_dense, lra_sum, materialize, matrix_norm, refine,
                    relative_error_ratio, truncate_svd)
from sublra.core import FINITE_CHECK_BLOCK
from sublra.matgen import (fast_decay_spectrum, gen_synthetic,
                           slow_decay_spectrum)


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
    rng = np.random.default_rng(3)
    L3 = Factored3(rng.standard_normal((9, 4)), rng.standard_normal((4, 5)),
                   rng.standard_normal((5, 7)))
    assert np.array_equal(materialize(L3), (L3.X @ L3.T) @ L3.Y)


def test_factored_dimension_checks():
    with pytest.raises(DimensionError):
        Factored2(np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        Factored3(np.zeros((3, 2)), np.zeros((2, 5)), np.zeros((4, 6)))


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
            CountingAccessor(M)

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
