import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sublra import (CountingAccessor, DimensionError, Factored2,
                    PreconditionError, apply_dense, apply_left, apply_right,
                    apply_to_factored, make_multiplier, materialize,
                    topsvd_of_lra)


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_abridged_structure(n, depth):
    op = make_multiplier("ahad", 40, n, depth=depth, seed=7)
    W = op.to_dense()
    nnz_per_row = (W != 0).sum(axis=1)
    assert np.all(nnz_per_row == 2 ** depth)
    mags = np.abs(W[W != 0])
    assert np.allclose(mags, 2.0 ** (-depth / 2.0), rtol=0, atol=0)
    gram = W @ W.T
    assert np.abs(gram - np.eye(40)).max() <= 1e-12


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_abridged_determinism(n, depth):
    a = make_multiplier("ahad", 16, n, depth=depth, seed=3).to_dense()
    b = make_multiplier("ahad", 16, n, depth=depth, seed=3).to_dense()
    c = make_multiplier("ahad", 16, n, depth=depth, seed=4).to_dense()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_depth_zero_is_signed_row_sample():
    op = make_multiplier("ahad", 32, 32, depth=0, seed=1)
    W = op.to_dense()
    assert np.all((W != 0).sum(axis=1) == 1)
    assert np.all((W != 0).sum(axis=0) == 1)
    assert np.allclose(np.abs(W[W != 0]), 1.0)


# make_multiplier("ahad", 3, 16, depth=d, seed=5, pool=pool): the exact
# positions and value signs (values are 2^{-d/2} times them), pinned so that
# any change to the row draw, the +-1 diagonal or the Hadamard sign ordering
# shows up as a failure, not only as a different but valid operator.
GOLDEN_OPERATORS = [
    (0, None, [[12], [9], [0]], [[-1], [-1], [1]]),
    (0, (9, 4), [[2], [7], [9]], [[-1], [1], [-1]]),
    (1, None, [[4, 12], [1, 9], [0, 8]], [[-1, 1], [1, 1], [1, -1]]),
    (1, (9, 2), [[7, 15], [3, 11], [3, 11]], [[1, -1], [1, 1], [1, -1]]),
    (2, None, [[0, 4, 8, 12], [1, 5, 9, 13], [0, 4, 8, 12]],
     [[1, 1, 1, -1], [1, -1, 1, 1], [1, -1, -1, -1]]),
    (2, (9, 1), [[3, 7, 11, 15]] * 3,
     [[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1]]),
    (3, None, [[0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15],
               [0, 2, 4, 6, 8, 10, 12, 14]],
     [[1, -1, 1, 1, 1, 1, -1, 1], [1, 1, -1, 1, 1, 1, 1, 1],
      [1, -1, -1, -1, -1, -1, -1, 1]]),
    (3, (9, 1), [[0, 2, 4, 6, 8, 10, 12, 14]] * 3,
     [[1, 1, -1, 1, 1, -1, 1, 1], [1, -1, -1, -1, 1, 1, 1, -1],
      [1, -1, -1, -1, -1, -1, -1, 1]]),
]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("depth, pool, positions, signs", GOLDEN_OPERATORS)
def test_abridged_golden_draws(side, depth, pool, positions, signs):
    op = make_multiplier("ahad", 3, 16, depth=depth, seed=5, side=side,
                         pool=pool)
    assert op.positions.tolist() == positions
    assert np.array_equal(op.values,
                          2.0 ** (-depth / 2.0) * np.array(signs, float))


# make_multiplier("ahad", 8, dim, depth=d, seed=5, pool=pool) at depths whose
# Sylvester matrix is too large to pin entry by entry: sha256 of the int64
# positions followed by the float64 values.
GOLDEN_DEEP_DIGESTS = [
    (10, 4096, None,
     "fc281bf9a4f0b6b0dc64a36291bfced23bf1a82765053566aaeab0591dbb4e02"),
    (10, 4096, (9, 2),
     "ecb1959e9e44089b9eb049fe1b092bdecf9632922264d0b8649fcc184df5c111"),
    (12, 8192, None,
     "3bd691b88b3df9874ad81b6c4249b1e867ab7ea5d62f3d2b180ab820f3a75fd2"),
    (12, 8192, (9, 1),
     "5de20099ac6f0b3240d2303e0709ec8ce2b57591a07808e60b29852c1c51d388"),
]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("depth, dim, pool, digest", GOLDEN_DEEP_DIGESTS)
def test_abridged_golden_draws_deep(side, depth, dim, pool, digest):
    op = make_multiplier("ahad", 8, dim, depth=depth, seed=5, side=side,
                         pool=pool)
    assert op.positions.dtype == np.int64 and op.values.dtype == np.float64
    got = hashlib.sha256(op.positions.tobytes() + op.values.tobytes())
    assert got.hexdigest() == digest


def test_deep_construction_builds_only_sampled_rows():
    # the operator holds 32 * 2^12 entries (1 MB of values); a 2^12-by-2^12
    # sign table alone would be 128 MB
    tracemalloc.start()
    try:
        make_multiplier("ahad", 32, 4096, depth=12, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_gaussian_determinism():
    a = make_multiplier("gaussian", 40, 1024, seed=10)
    b = make_multiplier("gaussian", 40, 1024, seed=10)
    c = make_multiplier("gaussian", 40, 1024, seed=11)
    assert np.array_equal(a.to_dense(), b.to_dense())
    assert not np.array_equal(a.to_dense(), c.to_dense())


def test_construction_preconditions():
    with pytest.raises(PreconditionError):
        make_multiplier("ahad", 2, 4, depth=3, seed=0)  # 2^3 > 4
    with pytest.raises(PreconditionError):
        make_multiplier("ahad", 300, 256, depth=0, seed=0)
    with pytest.raises(ValueError):
        make_multiplier("fourier", 8, 64, seed=0)
    with pytest.raises(ValueError, match="side"):
        make_multiplier("ahad", 8, 64, seed=0, side="up")


@pytest.mark.parametrize("kind", ["ahad", "gaussian"])
@pytest.mark.parametrize("size", [0, -3])
def test_nonpositive_sketch_size_rejected(kind, size):
    with pytest.raises(PreconditionError,
                       match="sketch_size must be positive"):
        make_multiplier(kind, size, 64, depth=3, seed=0)


def test_apply_left_row_sampling_at_depth_zero():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((64, 10))
    acc = CountingAccessor(M)
    F = make_multiplier("ahad", 5, 64, depth=0, seed=9)
    out = apply_left(F, acc)
    # each output row is +- one row of M
    for r in range(5):
        pos = int(F.positions[r, 0])
        assert np.allclose(np.abs(out[r]), np.abs(M[pos]))
    assert acc.distinct_accessed == 5 * 10
    assert acc.total_reads == 5 * 10


def test_apply_left_access_bound():
    rng = np.random.default_rng(3)
    acc = CountingAccessor(rng.standard_normal((1024, 1024)))
    F = make_multiplier("ahad", 16, 1024, depth=3, seed=5)
    apply_left(F, acc)
    assert acc.distinct_accessed <= 128 * 1024


def test_apply_left_matches_dense_oracle():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((64, 64))
    for kind in ("ahad", "gaussian"):
        F = make_multiplier(kind, 12, 64, depth=3, seed=8)
        got = apply_left(F, CountingAccessor(M))
        want = F.to_dense() @ M
        assert np.linalg.norm(got - want) <= 1e-12 * max(
            1.0, np.linalg.norm(want))


def test_apply_right_mirrors_apply_left():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((48, 64))
    H = make_multiplier("ahad", 6, 64, depth=0, seed=12, side="right")
    acc = CountingAccessor(M)
    out = apply_right(acc, H)
    for c in range(6):
        pos = int(H.positions[c, 0])
        assert np.allclose(np.abs(out[:, c]), np.abs(M[:, pos]))
    assert acc.distinct_accessed == 48 * 6

    H3 = make_multiplier("ahad", 6, 64, depth=3, seed=12, side="right")
    acc3 = CountingAccessor(M)
    got = apply_right(acc3, H3)
    assert acc3.distinct_accessed <= 48 * 6 * 8
    want = M @ H3.to_dense()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_apply_dimension_checks():
    M = CountingAccessor(np.ones((16, 8)))
    F = make_multiplier("ahad", 4, 32, depth=1, seed=0)
    with pytest.raises(DimensionError):
        apply_left(F, M)
    H = make_multiplier("ahad", 4, 32, depth=1, seed=0, side="right")
    with pytest.raises(DimensionError):
        apply_right(M, H)
    with pytest.raises(DimensionError):
        apply_left(H, M)
    with pytest.raises(TypeError, match="CountingAccessor"):
        apply_left(make_multiplier("ahad", 4, 16, depth=1, seed=0),
                   np.ones((16, 8)))


def test_apply_to_factored_matches_materialized_and_reads_nothing():
    rng = np.random.default_rng(6)
    L = Factored2(rng.standard_normal((64, 5)), rng.standard_normal((5, 48)))
    F = make_multiplier("ahad", 8, 64, depth=2, seed=3)
    H = make_multiplier("ahad", 8, 48, depth=2, seed=4, side="right")
    acc = CountingAccessor(materialize(L))
    want_left = apply_left(F, acc)
    reads = acc.total_reads
    got_left = apply_to_factored(F, L)
    got_right = apply_to_factored(H, L)
    assert acc.total_reads == reads  # factored applies never touch the accessor
    assert np.linalg.norm(got_left - want_left) <= 1e-12 * np.linalg.norm(want_left)
    want_right = apply_right(CountingAccessor(materialize(L)), H)
    assert np.linalg.norm(got_right - want_right) <= 1e-12 * np.linalg.norm(want_right)

    zero = Factored2.zero(64, 48)
    assert np.all(apply_to_factored(F, zero) == 0.0)
    assert np.all(apply_to_factored(H, zero) == 0.0)

    # a TopSVD is sketched from its factors, never forming sigma V^T
    top = topsvd_of_lra(L, 3)
    for op in (F, H):
        got = apply_to_factored(op, top)
        want = apply_to_factored(op, top.to_factored2())
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert acc.total_reads == reads
    with pytest.raises(TypeError, match="Factored2"):
        apply_to_factored(F, materialize(L))


def test_apply_dense_orientations():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((32, 3))
    F = make_multiplier("gaussian", 5, 32, seed=1)
    assert np.allclose(apply_dense(F, X), F.to_dense() @ X)
    H = make_multiplier("gaussian", 5, 32, seed=2, side="right")
    Y = rng.standard_normal((3, 32))
    assert np.allclose(apply_dense(H, Y), Y @ H.to_dense())


def test_pool_restricts_classes_and_keeps_unpooled_draw():
    n, depth, size = 256, 3, 12
    b = n >> depth
    ops = [make_multiplier("ahad", size, n, depth=depth, seed=s,
                           pool=(5, 4)) for s in range(6)]
    classes = np.unique(np.concatenate([op.positions[:, 0] for op in ops]))
    assert classes.size <= 4
    support = np.unique(np.concatenate([op.positions.ravel() for op in ops]))
    assert support.size <= 4 * 2 ** depth
    # pools of one seed are nested; taking every row of a pool shows it all
    wider = make_multiplier("ahad", 9 * 2 ** depth, n, depth=depth, seed=0,
                            pool=(5, 9))
    wider_classes = np.unique(wider.positions[:, 0])
    assert wider_classes.size == 9
    assert set(classes) <= set(wider_classes)
    # a pool that covers every class is no pool at all
    plain = make_multiplier("ahad", size, n, depth=depth, seed=3)
    covering = make_multiplier("ahad", size, n, depth=depth, seed=3,
                               pool=(5, b))
    assert np.array_equal(covering.to_dense(), plain.to_dense())
    g = make_multiplier("gaussian", size, n, seed=3, pool=(5, 4))
    assert np.array_equal(
        g.to_dense(), make_multiplier("gaussian", size, n, seed=3).to_dense())
    with pytest.raises(PreconditionError):
        make_multiplier("ahad", 4 * 2 ** depth + 1, n, depth=depth, seed=0,
                        pool=(5, 4))


@st.composite
def abridged_arguments(draw):
    """Any admissible (side, sketch_size, dim, depth, seed, pool) of an
    abridged operator: dim = 2^depth b for b classes, and a pool of at most
    b classes that holds the sketch's rows."""
    depth = draw(st.integers(0, 4))
    block = 2 ** depth
    classes = draw(st.integers(1, 8))
    pool_size = draw(st.none() | st.integers(1, classes))
    most = classes if pool_size is None else pool_size
    size = draw(st.integers(1, most * block))
    seeds = st.integers(0, 2 ** 64 - 1)
    pool = None if pool_size is None else (draw(seeds), pool_size)
    return (draw(st.sampled_from(["left", "right"])), size, classes * block,
            depth, draw(seeds), pool)


@given(abridged_arguments())
def test_abridged_operator_invariants(arguments):
    side, size, dim, depth, seed, pool = arguments
    op = make_multiplier("ahad", size, dim, depth=depth, seed=seed,
                         side=side, pool=pool)
    W = op.to_dense() if side == "left" else op.to_dense().T
    assert np.abs(W @ W.T - np.eye(size)).max() <= 1e-12
    assert np.all(np.count_nonzero(W, axis=1) == 2 ** depth)
    assert np.all(np.abs(W[W != 0]) == 2.0 ** (-depth / 2.0))
    if pool is not None:
        assert np.unique(op.positions).size <= pool[1] * 2 ** depth
    again = make_multiplier("ahad", size, dim, depth=depth, seed=seed,
                            side=side, pool=pool)
    assert again.positions.tobytes() == op.positions.tobytes()
    assert again.values.tobytes() == op.values.tobytes()


@st.composite
def cut_abridged_arguments(draw):
    """Admissible abridged arguments at a dim that 2^depth does not divide:
    (side, sketch_size, dim, padded, depth, seed, pool), padded = 2^depth b
    for b classes and 2^depth <= dim < padded."""
    depth = draw(st.integers(1, 4))
    block = 2 ** depth
    classes = draw(st.integers(2, 8))
    dim = (classes - 1) * block + draw(st.integers(1, block - 1))
    pool_size = draw(st.none() | st.integers(1, classes))
    most = dim if pool_size is None else min(dim, pool_size * block)
    size = draw(st.integers(1, most))
    seeds = st.integers(0, 2 ** 64 - 1)
    pool = None if pool_size is None else (draw(seeds), pool_size)
    return (draw(st.sampled_from(["left", "right"])), size, dim,
            classes * block, depth, draw(seeds), pool)


@given(cut_abridged_arguments())
def test_cut_operator_is_the_padded_operators_first_columns(arguments):
    side, size, dim, padded, depth, seed, pool = arguments
    op, full = (make_multiplier("ahad", size, d, depth=depth, seed=seed,
                                side=side, pool=pool) for d in (dim, padded))
    assert op.shape == ((size, dim) if side == "left" else (dim, size))
    W = op.wide.toarray()
    assert np.array_equal(W, full.wide.toarray()[:, :dim])
    assert np.linalg.norm(W, 2) <= 1.0 + 1e-12
    # a cut row loses only support columns in [dim, padded): never its first
    kept = np.count_nonzero(W, axis=1)
    assert kept.min() >= 1 and kept.max() <= 2 ** depth
    if dim >= 2 ** depth * (2 ** depth - 1):
        assert kept.min() >= 2 ** depth - 1
    if pool is not None:
        assert np.unique(op.wide.indices).size <= pool[1] * 2 ** depth
    again = make_multiplier("ahad", size, dim, depth=depth, seed=seed,
                            side=side, pool=pool)
    assert np.array_equal(again.wide.toarray(), W)


def test_cut_rows_have_no_fixed_width():
    # dim 9 at depth 3 pads to 16 columns: class 0 keeps 5 of its 8 support
    # columns and class 1 keeps 4, and these 9 rows hold both classes
    op = make_multiplier("ahad", 9, 9, depth=3, seed=0)
    assert sorted(set(np.diff(op.wide.indptr).tolist())) == [4, 5]
    for name in ("positions", "values"):
        with pytest.raises(ValueError, match="cut operator"):
            getattr(op, name)
    # a divisible dim is never cut, and keeps 2^d entries a row
    assert make_multiplier("ahad", 9, 16, depth=3, seed=0).positions.shape \
        == (9, 8)


def reference_oriented(op, X, positions=None):
    """The gather loop that applied operators before they were stored as
    one matrix, kept as the bitwise reference for the products: row i of
    W @ X adds values[i, t] * X[positions[i, t]] for t = 0, 1, ..., 2^d - 1.
    ``positions`` may index a gathered block in place of ``op.positions``."""
    left = op.side == "left"
    if op.kind == "gaussian":
        return op.to_dense() @ X if left else X @ op.to_dense()
    if positions is None:
        positions = op.positions
    Y = X if left else X.T
    out = np.zeros((op.sketch_size, Y.shape[1]))
    for t in range(positions.shape[1]):
        out += op.values[:, t:t + 1] * Y[positions[:, t], :]
    return out if left else out.T


def reference_read(op, M):
    """apply_left or apply_right by the gather loop on a dense M."""
    if op.kind == "gaussian":
        return reference_oriented(op, M)
    unique = np.unique(op.positions)
    block = M[unique, :] if op.side == "left" else M[:, unique]
    return reference_oriented(op, block, np.searchsorted(unique, op.positions))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("depth", range(6))
def test_products_match_the_gather_loop_bitwise(depth, pooled, side):
    n, size = 128, 10
    rng = np.random.default_rng(depth)
    # fewer classes than the n / 2^d there are, enough rows for the sketch
    pool = (4, -(-size >> depth) + 1) if pooled else None
    op = make_multiplier("ahad", size, n, depth=depth, seed=11, side=side,
                         pool=pool)
    # the support order is the order in which a row's terms are added
    assert np.all(np.diff(op.positions, axis=1) > 0)
    M = rng.standard_normal((n, 96) if side == "left" else (96, n))
    assert np.array_equal(apply_left(op, CountingAccessor(M))
                          if side == "left"
                          else apply_right(CountingAccessor(M), op),
                          reference_read(op, M))
    # a strided, non-contiguous operand
    big = rng.standard_normal((2 * n, 15) if side == "left" else (15, 2 * n))
    X = big[::2, ::3] if side == "left" else big[::3, ::2]
    assert not X.flags.c_contiguous and not X.flags.f_contiguous
    assert np.array_equal(apply_dense(op, X), reference_oriented(op, X))
    L = Factored2(rng.standard_normal((n, 4)), rng.standard_normal((4, n)))
    want = (reference_oriented(op, L.A) @ L.B if side == "left"
            else L.A @ reference_oriented(op, L.B))
    assert np.array_equal(apply_to_factored(op, L), want)


@pytest.mark.parametrize("side", ["left", "right"])
def test_gaussian_products_match_the_dense_product_bitwise(side):
    n = 64
    rng = np.random.default_rng(1)
    op = make_multiplier("gaussian", 6, n, seed=3, side=side)
    M = rng.standard_normal((n, 40) if side == "left" else (40, n))
    got = (apply_left(op, CountingAccessor(M)) if side == "left"
           else apply_right(CountingAccessor(M), op))
    assert np.array_equal(got, reference_read(op, M))
    X = M[::2, :] if side == "right" else M[:, ::2]
    assert np.array_equal(apply_dense(op, X), reference_oriented(op, X))
    L = Factored2(rng.standard_normal((n, 3)), rng.standard_normal((3, n)))
    want = (reference_oriented(op, L.A) @ L.B if side == "left"
            else L.A @ reference_oriented(op, L.B))
    assert np.array_equal(apply_to_factored(op, L), want)
