import numpy as np
import pytest
import scipy.linalg as la

from sublra import (PreconditionError, SpectrumSpec, fast_decay_spectrum,
                    gen_delta, gen_synthetic, slow_decay_spectrum)
from sublra.matgen import load_input, spectrum_by_name
from sublra.mmio import save_matrix


def test_fast_decay_values():
    v = fast_decay_spectrum(1024).values
    assert np.all(v[:20] == 1.0)
    assert v[20] == 0.5
    assert v[24] == 0.5 ** 5
    assert v[99] == 0.5 ** 80
    assert np.all(v[100:] == 0.0)


def test_slow_decay_values():
    u = slow_decay_spectrum(1024).values
    assert np.all(u[:20] == 1.0)
    assert u[20] == pytest.approx(1.0 / 4.0)
    assert u[21] == pytest.approx(1.0 / 9.0)
    assert u[1023] == pytest.approx(1.0 / (1.0 + 1024 - 20) ** 2)


def test_spectrum_validation():
    with pytest.raises(PreconditionError):
        SpectrumSpec(np.array([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        SpectrumSpec(np.array([1.0, -0.5]))
    # the CLI's --kind allows only fast and slow, and so does the library
    for kind in ("medium", "fastDecay", "slowDecay"):
        with pytest.raises(ValueError, match="unknown spectrum kind"):
            spectrum_by_name(kind, 128)


def test_gen_synthetic_singular_values_match_spec():
    spec = fast_decay_spectrum(128)
    M = gen_synthetic(128, spec, seed=1)
    s = la.svd(M, compute_uv=False)
    assert np.abs(s - spec.values).max() <= 1e-10


def test_gen_synthetic_all_ones_is_orthogonal():
    M = gen_synthetic(128, SpectrumSpec(np.ones(128)), seed=2)
    assert np.linalg.norm(M.T @ M - np.eye(128)) <= 1e-9


def test_gen_synthetic_determinism_and_seed_sensitivity():
    spec = slow_decay_spectrum(128)
    M1 = gen_synthetic(128, spec, seed=5)
    M2 = gen_synthetic(128, spec, seed=5)
    M3 = gen_synthetic(128, spec, seed=6)
    assert np.array_equal(M1, M2)
    assert np.linalg.norm(M1 - M3) > 0


def test_gen_synthetic_rejects_bad_sizes():
    with pytest.raises(PreconditionError, match="pad"):
        gen_synthetic(1000, SpectrumSpec(np.ones(1000)), seed=0)
    with pytest.raises(PreconditionError):
        gen_synthetic(64, SpectrumSpec(np.ones(64)), seed=0)


def test_gen_delta_examples():
    assert np.array_equal(gen_delta(2, 2, 1, 1), [[1.0, 0.0], [0.0, 0.0]])
    D = gen_delta(5, 7, 3, 6)
    assert la.svd(D, compute_uv=False)[0] == pytest.approx(1.0)
    assert np.all(gen_delta(3, 3, 2, 2) - gen_delta(3, 3, 2, 2) == 0.0)
    with pytest.raises(PreconditionError):
        gen_delta(2, 2, 3, 1)
    with pytest.raises(PreconditionError):
        gen_delta(2, 2, 1, 0)


def test_load_input_with_padding(tmp_path):
    rng = np.random.default_rng(8)
    M = rng.standard_normal((100, 100))
    path = tmp_path / "m.mtx"
    save_matrix(M, path)
    P = load_input(path, pad=128)
    assert P.shape == (128, 128)
    assert np.array_equal(P[:100, :100], M)
    assert np.array_equal(load_input(path), M)
