import numpy as np
import pytest
import scipy.linalg as la

from sublra import (CountingAccessor, DimensionError, ErrorEstimate,
                    Factored2, PreconditionError, entry_lower_bound,
                    frobenius_confidence_band, gaussian_error_estimate,
                    gen_delta, make_multiplier, matrix_norm, residual_probe,
                    sketch_norm_bounds)
from sublra.errest import _operator_norm
from sublra.sketch import apply_left, apply_right


@pytest.mark.parametrize("estimate", [
    lambda E: entry_lower_bound(E, 10, seed=1),
    lambda E: gaussian_error_estimate(E, 10, 10, seed=1),
], ids=["entry", "gaussian"])
def test_estimators_read_only_through_an_accessor(estimate):
    with pytest.raises(TypeError, match="CountingAccessor"):
        estimate(np.ones((40, 30)))


def test_error_estimate_rejects_bad_bounds():
    with pytest.raises(PreconditionError, match="nonnegative"):
        ErrorEstimate(lower_bound=-1.0)
    with pytest.raises(PreconditionError, match="exceeds"):
        ErrorEstimate(lower_bound=2.0, upper_bound=1.0)


def test_entry_bound_zero_matrix():
    est = entry_lower_bound(CountingAccessor(np.zeros((8, 8))), 10, seed=1)
    assert est.lower_bound == 0.0
    assert est.sample_size == 10


def test_entry_bound_is_exact_access_count():
    acc = CountingAccessor(np.ones((12, 9)))
    entry_lower_bound(acc, 25, seed=2)
    assert acc.distinct_accessed == 25
    assert acc.total_reads == 25
    with pytest.raises(PreconditionError):
        entry_lower_bound(acc, 12 * 9 + 1, seed=2)


def test_entry_bound_delta_sampled_and_unsampled():
    m, n, seed = 6, 5, 3
    probe = CountingAccessor(np.zeros((m, n)))
    entry_lower_bound(probe, 1, seed=seed)
    si, sj = np.argwhere(probe.accessed)[0]
    # the same seed samples the same single entry: hit it, then miss it
    hit = entry_lower_bound(
        CountingAccessor(gen_delta(m, n, si + 1, sj + 1)), 1, seed=seed)
    assert hit.lower_bound == 1.0
    other = (si + 1) % m
    miss = entry_lower_bound(
        CountingAccessor(gen_delta(m, n, other + 1, sj + 1)), 1, seed=seed)
    assert miss.lower_bound == 0.0


def test_entry_bound_gaussian_range():
    # max of 100 samples of |N(0, sigma^2)| lands in [sigma, 5 sigma] whp
    sigma = 2.5
    rng = np.random.default_rng(5)
    hits = 0
    trials = 400
    for t in range(trials):
        E = rng.standard_normal((20, 20)) * sigma
        est = entry_lower_bound(CountingAccessor(E), 100, seed=t)
        hits += sigma <= est.lower_bound <= 5 * sigma
    assert hits >= 0.99 * trials


def test_entry_bound_below_true_norms():
    rng = np.random.default_rng(7)
    for t in range(10):
        E = rng.standard_normal((15, 11))
        est = entry_lower_bound(CountingAccessor(E), 40, seed=t)
        assert est.lower_bound <= la.svdvals(E)[0] + 1e-12
        assert est.lower_bound <= np.linalg.norm(E) + 1e-12


class TestSketchNormBounds:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.E = rng.standard_normal((64, 64))
        self.F = make_multiplier("ahad", 16, 64, depth=2, seed=1)
        self.H = make_multiplier("ahad", 8, 64, depth=2, seed=2, side="right")
        self.FE = apply_left(self.F, CountingAccessor(self.E))
        self.EH = apply_right(CountingAccessor(self.E), self.H)

    def test_lower_bounds_valid_both_norms(self):
        for kind in ("spectral", "frobenius"):
            true = (la.svdvals(self.E)[0] if kind == "spectral"
                    else np.linalg.norm(self.E))
            est = sketch_norm_bounds(F=self.F, H=self.H, FE=self.FE,
                                     EH=self.EH, kind=kind)
            assert est.lower_bound <= true + 1e-12
            assert est.upper_bound is None

    def test_identity_sketch_is_exact_spectral(self):
        full = make_multiplier("ahad", 64, 64, depth=0, seed=3)
        FE = apply_left(full, CountingAccessor(self.E))
        est = sketch_norm_bounds(F=full, FE=FE, kind="spectral")
        assert est.lower_bound == pytest.approx(la.svdvals(self.E)[0],
                                                rel=1e-12)

    def test_zero_error_matrix(self):
        est = sketch_norm_bounds(F=self.F, FE=np.zeros((16, 64)))
        assert est.lower_bound == 0.0

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_abridged_operator_norms_are_known(self, side, depth):
        op = make_multiplier("ahad", 16, 64, depth=depth, seed=depth,
                             side=side)
        for kind in ("spectral", "frobenius"):
            assert _operator_norm(op, kind) == pytest.approx(
                matrix_norm(op.to_dense(), kind), rel=1e-12, abs=0)

    def test_gaussian_operator_norm_is_computed(self):
        op = make_multiplier("gaussian", 8, 64, seed=4)
        assert _operator_norm(op, "spectral") == matrix_norm(op.to_dense())

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_frobenius_bound_scales_with_the_input(self, scale):
        # sums of squares of the scaled sketches overflow or underflow
        def bound(E):
            acc = CountingAccessor(E)
            return sketch_norm_bounds(F=self.F, H=self.H,
                                      FE=apply_left(self.F, acc),
                                      EH=apply_right(acc, self.H),
                                      kind="frobenius").lower_bound

        assert bound(self.E * scale) == pytest.approx(
            scale * bound(self.E), rel=1e-14, abs=0)

    def test_missing_operator_rejected(self):
        with pytest.raises(DimensionError):
            sketch_norm_bounds(FE=self.FE)
        with pytest.raises(PreconditionError):
            sketch_norm_bounds(F=self.F)


class TestGaussianEstimate:
    def test_constant_matrix_exact(self):
        c = -3.5
        acc = CountingAccessor(np.full((40, 30), c))
        est = gaussian_error_estimate(acc, 10, 10, seed=1)
        assert est.upper_bound == pytest.approx(abs(c) * np.sqrt(40 * 30),
                                                rel=1e-12)
        assert est.lower_bound == pytest.approx(abs(c))
        assert acc.distinct_accessed == 100

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_estimate_scales_with_the_input(self, scale):
        # the sample's mean square overflows at 1e160 and its variance
        # underflows at 1e-170
        E = np.random.default_rng(3).standard_normal((128, 128))
        want = gaussian_error_estimate(CountingAccessor(E), 10, 10, seed=2)
        got = gaussian_error_estimate(CountingAccessor(E * scale), 10, 10,
                                      seed=2)
        assert got.upper_bound == pytest.approx(scale * want.upper_bound,
                                                rel=1e-14, abs=0)
        assert got.lower_bound == pytest.approx(scale * want.lower_bound,
                                                rel=1e-14, abs=0)

    @pytest.mark.parametrize("value", [1.0, 0.3, 7.1])
    def test_full_sample_of_a_spike(self, value):
        # sampling every entry makes the estimate equal the max in exact
        # arithmetic; rounding must not put it below the lower bound
        E = np.zeros((10, 10))
        E[4, 6] = value
        est = gaussian_error_estimate(CountingAccessor(E), 10, 10, seed=0)
        assert est.lower_bound == value
        assert est.upper_bound == pytest.approx(value, rel=1e-15)
        assert est.upper_bound >= est.lower_bound

    def test_sample_size_precondition(self):
        acc = CountingAccessor(np.ones((50, 50)))
        with pytest.raises(PreconditionError):
            gaussian_error_estimate(acc, 9, 9, seed=1)
        with pytest.raises(PreconditionError):
            gaussian_error_estimate(CountingAccessor(np.ones((5, 30))),
                                    10, 10, seed=1)

    @pytest.mark.parametrize("q, s", [(-1, -200), (0, 200), (200, 0)])
    def test_nonpositive_sizes_rejected_before_reading(self, q, s):
        acc = CountingAccessor(np.ones((300, 300)))
        with pytest.raises(PreconditionError, match="q and s"):
            gaussian_error_estimate(acc, q, s, seed=1)
        assert acc.total_reads == 0

    def test_delta_matrix_fools_the_estimator(self):
        # iid assumption violated: a spike outside the sample is invisible
        m = n = 64
        probe = CountingAccessor(np.zeros((m, n)))
        gaussian_error_estimate(probe, 10, 10, seed=4)
        unread = probe.first_unaccessed()
        E = gen_delta(m, n, unread[0] + 1, unread[1] + 1)
        est = gaussian_error_estimate(CountingAccessor(E), 10, 10, seed=4)
        assert est.upper_bound == 0.0
        assert np.linalg.norm(E) == 1.0

    def test_iid_accuracy_small(self):
        rng = np.random.default_rng(11)
        hits = 0
        trials = 40
        for t in range(trials):
            E = rng.standard_normal((200, 200))
            est = gaussian_error_estimate(CountingAccessor(E), 10, 10, seed=t)
            truth = np.linalg.norm(E)
            hits += abs(est.upper_bound - truth) <= 0.15 * truth
        assert hits >= 0.9 * trials

    def test_confidence_band_matches_chi_square_tables(self):
        lo, hi = frobenius_confidence_band(100, 0.95)
        # chi-square 100-df quantiles: 74.222 (2.5%) and 129.561 (97.5%)
        assert lo == pytest.approx(np.sqrt(100 / 129.561), abs=1e-4)
        assert hi == pytest.approx(np.sqrt(100 / 74.222), abs=1e-4)


class TestResidualProbe:
    def make_pair(self, seed=13):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((24, 4))
        B = rng.standard_normal((4, 16))
        prev = Factored2(A, B)
        cur = Factored2(np.hstack([A, rng.standard_normal((24, 2))]),
                        np.vstack([B, rng.standard_normal((2, 16))]))
        return prev, cur

    def test_equal_inputs_give_zero(self):
        prev, _ = self.make_pair()
        assert residual_probe(prev, prev, 8, seed=1) == 0.0

    def test_gaussian_probe_range(self):
        hits = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            D_A = rng.standard_normal((24, 5))
            D_B = rng.standard_normal((5, 16))
            prev = Factored2.zero(24, 16)
            cur = Factored2(D_A, D_B)
            spectral = la.svdvals(D_A @ D_B)[0]
            val = residual_probe(prev, cur, 8, seed=t)
            hits += 0.05 * spectral <= val <= spectral
        assert hits >= 0.95 * trials

    def test_invariant_under_refactoring(self):
        prev, cur = self.make_pair()
        # same products, different factorizations
        U, s, Vt = la.svd(cur.A @ cur.B, full_matrices=False)
        cur2 = Factored2(U * s[None, :], Vt)
        v1 = residual_probe(prev, cur, 8, seed=3)
        v2 = residual_probe(prev, cur2, 8, seed=3)
        assert abs(v1 - v2) < 1e-10

    def test_validation(self):
        prev, cur = self.make_pair()
        with pytest.raises(PreconditionError):
            residual_probe(prev, cur, 0)
        with pytest.raises(DimensionError, match="shapes disagree"):
            residual_probe(prev, Factored2(cur.A[:-1], cur.B), 8)
