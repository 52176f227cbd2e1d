import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

import sublra
from sublra import (DimensionError, PreconditionError, SpectrumSpec,
                    fast_decay_spectrum, gen_delta, gen_synthetic,
                    slow_decay_spectrum)
from sublra.matgen import spectrum_by_name


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
    with pytest.raises(DimensionError, match="nonempty"):
        SpectrumSpec([])
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
    # any n is admissible; only a spectrum of another length is not
    with pytest.raises(DimensionError, match="spectrum length 256"):
        gen_synthetic(128, fast_decay_spectrum(256), 0)
    with pytest.raises(DimensionError, match="spectrum length 1000"):
        gen_synthetic(999, SpectrumSpec(np.ones(1000)), 0)


def test_gen_delta_examples():
    assert np.array_equal(gen_delta(2, 2, 1, 1), [[1.0, 0.0], [0.0, 0.0]])
    D = gen_delta(5, 7, 3, 6)
    assert la.svd(D, compute_uv=False)[0] == pytest.approx(1.0)
    assert np.all(gen_delta(3, 3, 2, 2) - gen_delta(3, 3, 2, 2) == 0.0)
    with pytest.raises(PreconditionError):
        gen_delta(2, 2, 3, 1)
    with pytest.raises(PreconditionError):
        gen_delta(2, 2, 1, 0)


def _cli_bytes_at_blas_threads(args, tmp_path):
    """What ``sublra <args> --out FILE`` writes at 1 and at 2 OpenBLAS
    threads."""
    src = str(Path(sublra.__file__).parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.out"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "sublra.cli", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        written.append(out.read_bytes())
    return written


@pytest.mark.parametrize("kind", ["fast", "slow"])
def test_gen_bytes_do_not_depend_on_blas_threads(kind, tmp_path):
    one, two = _cli_bytes_at_blas_threads(
        ["gen", "--kind", kind, "--n", "1024", "--gen-seed", "1"], tmp_path)
    assert one == two


def test_bench_csv_does_not_depend_on_blas_threads(tmp_path):
    # the inputs, refine's iterates and the oracle's ratios all keep their
    # bits, so a bench row replays on a machine with another core count
    one, two = _cli_bytes_at_blas_threads(
        ["bench", "--n", "1024", "--trials", "1", "--multiplier", "both",
         "--seed", "0"], tmp_path)
    assert one.count(b"\n") == 5
    assert one == two


@st.composite
def spectra_with_trailing_zeros(draw):
    """A size n, and a spectrum of n values of which a random suffix is
    zero: all of them, all but one, or any other number."""
    n = draw(st.sampled_from([100, 128, 256]))
    r = draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n)))
    top = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # the nonzero values span at most three decades, far above rounding,
    # so the numerical rank is unambiguous
    values = np.zeros(n)
    values[:r] = top * np.sort(rng.uniform(1e-3, 1.0, r))[::-1]
    return n, r, values


@settings(max_examples=25)
@given(case=spectra_with_trailing_zeros(), seed=st.integers(0, 2 ** 63 - 1))
def test_gen_synthetic_matches_any_spectrum(case, seed):
    n, r, values = case
    M = gen_synthetic(n, SpectrumSpec(values), seed)
    s = la.svd(M, compute_uv=False)
    scale = max(values[0], 1.0)
    assert np.abs(s - values).max() <= 1e-12 * scale
    assert np.count_nonzero(s > 1e-10 * scale) == r
