"""Transform-matrix construction: uniform, nonuniform, slices, phase blocks."""

import copy
import pickle

import numpy as np
import pytest

import meshdft as md
from meshdft.vandermonde import _unit_roots
from helpers import plan_block
from reference import build_nonuniform, build_phase_slice


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
    blocks = [plan_block(plan, 0, 0, j) for j in range(2)]
    built = np.hstack([re + 1j * im for (re,), (im,) in blocks])
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
    shape = md.ComputationShape(1, 1, 1)
    (u_re,), (u_im,) = plan_block(md.create_kdft_plan(shape, (md.SamplePoints.uniform(8),)), 0, 0, 0)
    assert np.array_equal(u_re + 1j * u_im, md.build_uniform(8).to_complex())
    points = md.SamplePoints.explicit([2.0, 4.0])
    (nu_re,), (nu_im,) = plan_block(md.create_kdft_plan(shape, (points,)), 0, 0, 0)
    assert np.allclose(nu_re + 1j * nu_im, [[1.0, 0.5], [1.0, 0.25]])


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


# longdouble carries more bits than float64 on this platform
EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


def _exact_roots(angles_over_2pi):
    """cos and -sin of 2*pi times the given fractions, in longdouble."""
    angles = 8 * np.arctan(np.longdouble(1)) * angles_over_2pi
    return np.cos(angles), -np.sin(angles)


@pytest.mark.parametrize("n", range(1, 65))
def test_build_uniform_matches_the_dense_formula(n):
    # every entry is the table entry of its exponent reduced mod n, and within
    # 2**-53 of cos/sin evaluated at every one of the N^2 angles
    k = np.arange(n, dtype=np.int64)
    exponents = np.mod(np.outer(k, k), n)
    v = md.build_uniform(n)
    cos, neg_sin = _unit_roots(n)
    assert v.re.tobytes() == cos[exponents].tobytes()
    assert v.im.tobytes() == neg_sin[exponents].tobytes()
    if EXTENDED:
        c, s = _exact_roots(np.outer(k, k).astype(np.longdouble) / n)
        assert np.max(np.abs(v.re - c)) <= 2.0 ** -53
        assert np.max(np.abs(v.im - s)) <= 2.0 ** -53


@pytest.mark.parametrize("n", [1, 2, 8, 64, 4096, 65536])
def test_unit_root_table_is_accurate_and_symmetric(n):
    cos, neg_sin = _unit_roots(n)
    # the uniform points z_k = exp(2j*pi*k/n) are the table's entries
    points = md.SamplePoints.uniform(n).points
    e = np.arange(n)
    if EXTENDED:
        c, s = _exact_roots(e.astype(np.longdouble) / n)
        assert np.max(np.abs(cos - c)) <= 2.0 ** -53
        assert np.max(np.abs(neg_sin - s)) <= 2.0 ** -53
        assert np.max(np.abs(points.real - c)) <= 2.0 ** -53
        assert np.max(np.abs(points.imag + s)) <= 2.0 ** -53
    assert np.array_equal(points.real, cos) and np.array_equal(points.imag, -neg_sin)
    mirror = (n - e) % n
    assert np.array_equal(cos, cos[mirror])
    assert np.array_equal(neg_sin, -neg_sin[mirror])
    # quarter turns are exact
    for quarter, (c, s) in enumerate([(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0)]):
        if quarter * n % 4 == 0:
            e = quarter * n // 4
            assert (cos[e], neg_sin[e]) == (c, s)
    assert not cos.flags.writeable and not neg_sin.flags.writeable


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
