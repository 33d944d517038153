"""Transform-matrix construction: uniform, nonuniform, slices, phase blocks."""

import copy
import pickle

import numpy as np
import pytest

import meshdft as md
from meshdft.vandermonde import build_nonuniform, column_blocks
from helpers import plan_block
from reference import build_phase_slice


def test_build_uniform_smallest_cases():
    assert np.array_equal(md.build_uniform(1).to_complex(), [[1.0]])
    v2 = md.build_uniform(2).to_complex()
    assert np.allclose(v2, [[1, 1], [1, -1]], atol=1e-15)
    v4 = md.build_uniform(4).to_complex()
    assert np.allclose(v4[1], [1, -1j, -1, 1j], atol=1e-15)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_build_uniform_is_unitary_scaled(n):
    v = md.build_uniform(n).to_complex()
    product = v @ v.conj().T / n
    assert np.max(np.abs(product - np.eye(n))) < 1e-12


def test_build_uniform_rejects_bad_n():
    with pytest.raises(md.ArgumentError):
        md.build_uniform(0)
    with pytest.raises(md.ArgumentError):
        md.build_uniform(3.0)


def test_sample_points_validation():
    u = md.SamplePoints.uniform(4)
    assert u.is_uniform and len(u) == 4
    assert np.allclose(u.points, np.exp(2j * np.pi * np.arange(4) / 4))
    e = md.SamplePoints.explicit([2.0, 4.0])
    assert not e.is_uniform
    with pytest.raises(md.ArgumentError):
        md.SamplePoints.explicit([1.0, 0.0])
    with pytest.raises(md.ArgumentError):
        md.SamplePoints.explicit([])
    with pytest.raises(md.ArgumentError):
        md.SamplePoints.explicit([np.inf])
    with pytest.raises(md.ArgumentError):
        md.SamplePoints.uniform(0)
    with pytest.raises(AttributeError):
        u.points = None


def test_uniform_flag_cannot_be_set_from_outside():
    z = np.exp(1j * np.random.default_rng(8).uniform(0, 2 * np.pi, 8))
    with pytest.raises(TypeError):
        md.SamplePoints(z, is_uniform=True)
    with pytest.raises(TypeError):
        md.SamplePoints(z, True)
    forged = md.SamplePoints(z)
    assert not forged.is_uniform
    with pytest.raises(AttributeError):
        forged.is_uniform = True
    # the caller's points are what the plan builds on, not the uniform DFT
    plan = md.create_kdft_plan(md.ComputationShape(2, 1, 1), (forged,))
    assert not plan.all_uniform()
    built = np.hstack([plan_block(b).to_complex() for b in plan.col_blocks[(0, 0)]])
    assert np.array_equal(built, build_nonuniform(z, 8).to_complex()[:4])
    # explicit roots of unity stay explicit
    roots = md.SamplePoints.explicit(md.SamplePoints.uniform(8).points)
    assert not roots.is_uniform
    assert not md.create_kdft_plan(md.ComputationShape(2, 1, 1), (roots,)).all_uniform()


def test_build_nonuniform_matches_uniform_on_roots_of_unity():
    n = 4
    v_explicit = build_nonuniform(md.SamplePoints.uniform(n), n)
    v_uniform = md.build_uniform(n)
    assert np.max(np.abs(v_explicit.to_complex() - v_uniform.to_complex())) < 1e-12


def test_build_nonuniform_inverse_powers():
    v = build_nonuniform([2.0, 4.0], 2).to_complex()
    assert np.allclose(v, [[1.0, 0.5], [1.0, 0.25]])
    # duplicates are allowed at construction; invertibility is the caller's concern
    dup = build_nonuniform([2.0, 2.0], 2).to_complex()
    assert np.allclose(dup, [[1.0, 0.5], [1.0, 0.5]])


def test_build_nonuniform_matches_brute_force_sum():
    rng = np.random.default_rng(7)
    n = 8
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = build_nonuniform(md.SamplePoints.explicit(z), n).to_complex()
    direct = np.array([sum(x[m] * z[k] ** (-m) for m in range(n)) for k in range(n)])
    assert np.max(np.abs(v @ x - direct)) < 1e-12


def test_build_nonuniform_overflow_is_an_error():
    with pytest.raises(md.ArgumentError):
        build_nonuniform([1e-200, 1.0], 3)


def test_matrix_for_dispatch():
    """Plan blocks come from the uniform table or from the points' powers."""
    (u,) = column_blocks(md.SamplePoints.uniform(8), 1, 0)
    assert np.array_equal(u.to_complex(), md.build_uniform(8).to_complex())
    (nu,) = column_blocks(md.SamplePoints.explicit([2.0, 4.0]), 1, 0)
    assert np.allclose(nu.to_complex(), [[1.0, 0.5], [1.0, 0.25]])


def test_phase_slice_single_core_is_all_ones():
    p = build_phase_slice(4, 1, 0).to_complex()
    assert p.shape == (4, 1)
    assert np.allclose(p, 1.0)


def test_phase_slice_two_core_values():
    p = build_phase_slice(4, 2, 0).to_complex()
    assert np.allclose(p, [[1, 1], [1, -1j]], atol=1e-15)
    # second core's rows continue at global frequency 2
    q = build_phase_slice(4, 2, 1).to_complex()
    assert np.allclose(q, [[1, -1], [1, 1j]], atol=1e-15)


def test_phase_slices_recombine_subsequence_ffts():
    """Stitch per-subsequence transforms back into the full one, N=8 P=4."""
    rng = np.random.default_rng(13)
    n, parts = 8, 4
    m = n // parts
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sub_fft = [np.fft.fft(x[b::parts]) for b in range(parts)]
    full = np.empty(n, dtype=np.complex128)
    for p in range(parts):
        phase = build_phase_slice(n, parts, p).to_complex()
        for r in range(m):
            full[p * m + r] = sum(phase[r, b] * sub_fft[b][r % m] for b in range(parts))
    assert np.max(np.abs(full - np.fft.fft(x))) < 1e-12


def test_phase_slice_errors():
    with pytest.raises(md.DimensionError):
        build_phase_slice(4, 3, 0)
    with pytest.raises(md.ArgumentError):
        build_phase_slice(4, 2, 2)


@pytest.mark.parametrize("n", range(1, 65))
def test_build_uniform_matches_the_dense_formula(n):
    # reference: cos/sin evaluated at every one of the N^2 angles
    k = np.arange(n, dtype=np.int64)
    angles = 2.0 * np.pi * np.mod(np.outer(k, k), n) / n
    v = md.build_uniform(n)
    assert v.re.tobytes() == np.cos(angles).tobytes()
    assert v.im.tobytes() == (-np.sin(angles)).tobytes()


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s)),
], ids=["copy", "deepcopy", "pickle"])
def test_sample_points_copy_and_pickle_keep_the_uniform_flag(clone):
    uniform = clone(md.SamplePoints.uniform(8))
    assert uniform.is_uniform
    assert np.array_equal(uniform.points, md.SamplePoints.uniform(8).points)
    # explicit points rebuild as explicit, even on the unit roots
    roots = md.SamplePoints.explicit(md.SamplePoints.uniform(8).points)
    rebuilt = clone(roots)
    assert not rebuilt.is_uniform
    assert np.array_equal(rebuilt.points, roots.points)
    assert not rebuilt.points.flags.writeable
    with pytest.raises(AttributeError):
        rebuilt.is_uniform = True
