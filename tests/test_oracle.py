"""The reference transform (FFT or direct sum) and the error metric."""

import numpy as np
import pytest

import meshdft as md
from meshdft.reports import ORACLE_ELEMENT_LIMIT
from helpers import rand_tensor, zeros


# -- the per-rank direct-sum loops that the rank-generic direct_dft replaced ----


def _power_row(z_k, n):
    # the oracle's power row: extended-precision iterated division, rounded once
    row = np.ones(n, dtype=np.clongdouble)
    row[1:] = np.cumprod(np.full(n - 1, 1 / np.clongdouble(z_k)))
    return row.astype(np.complex128)


def _direct_dft_1d(x, samples):
    (n,) = x.shape
    z = samples[0].points
    xc = x.to_complex()
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        out[k] = np.sum(xc * _power_row(z[k], n))
    return out


def _direct_dft_2d(x, samples):
    n1, n2 = x.shape
    z1, z2 = samples[0].points, samples[1].points
    xc = x.to_complex()
    out = np.empty((n1, n2), dtype=np.complex128)
    for k1 in range(n1):
        row1 = _power_row(z1[k1], n1)
        for k2 in range(n2):
            row2 = _power_row(z2[k2], n2)
            out[k1, k2] = np.sum(xc * row1[:, None] * row2[None, :])
    return out


def _direct_dft_3d(x, samples):
    n1, n2, n3 = x.shape
    z1, z2, z3 = (s.points for s in samples)
    xc = x.to_complex()
    out = np.empty((n1, n2, n3), dtype=np.complex128)
    for k1 in range(n1):
        row1 = _power_row(z1[k1], n1)
        for k2 in range(n2):
            row2 = _power_row(z2[k2], n2)
            partial = xc * row1[:, None, None] * row2[None, :, None]
            for k3 in range(n3):
                row3 = _power_row(z3[k3], n3)
                out[k1, k2, k3] = np.sum(partial * row3[None, None, :])
    return out


_PER_RANK = {1: _direct_dft_1d, 2: _direct_dft_2d, 3: _direct_dft_3d}


def _random_points(extents, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        md.SamplePoints.explicit(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        for n in extents
    )


def _explicit_roots(n):
    """The uniform roots of unity as explicit points, which take the direct sum."""
    return md.SamplePoints.explicit(md.SamplePoints.uniform(n).points)


@pytest.mark.parametrize("extents", [(1,), (16,), (5, 3), (4, 2, 3)])
@pytest.mark.parametrize("sampling", ["uniform", "nonuniform"])
def test_generic_oracle_equals_the_per_rank_loops(extents, sampling):
    x = rand_tensor(extents, seed=sum(extents))
    if sampling == "uniform":
        samples = tuple(_explicit_roots(n) for n in extents)
    else:
        samples = _random_points(extents, seed=len(extents))
    ref = _PER_RANK[len(extents)](x, samples)
    out = md.direct_dft(x, samples)
    assert np.array_equal(out.values.re, ref.real)
    assert np.array_equal(out.values.im, ref.imag)
    assert out.max_abs == float(np.max(np.abs(ref)))
    if len(extents) == 1:
        bare = md.direct_dft(x, samples[0])
        assert np.array_equal(bare.values.to_complex(), ref)


@pytest.mark.parametrize("extents", [(5, 3), (4, 2, 3)])
def test_mixed_sampling_takes_the_direct_sum(extents):
    """One uniform dimension among explicit ones still takes the direct sum."""
    x = rand_tensor(extents, seed=7)
    for d, n in enumerate(extents):
        samples = list(_random_points(extents, seed=d))
        samples[d] = md.SamplePoints.uniform(n)
        ref = _PER_RANK[len(extents)](x, samples)
        out = md.direct_dft(x, tuple(samples))
        assert np.array_equal(out.values.to_complex(), ref)
        assert out.max_abs == float(np.max(np.abs(ref)))


@pytest.mark.parametrize("extents", [(1,), (16,), (5, 3), (4, 2, 3), (8, 8, 8)])
@pytest.mark.parametrize("spelling", ["none", "per_dim_none", "uniform"])
def test_uniform_oracle_is_numpy_fftn(extents, spelling):
    x = rand_tensor(extents, seed=sum(extents) + 1)
    samples = {
        "none": None,
        "per_dim_none": (None,) * len(extents),
        "uniform": tuple(md.SamplePoints.uniform(n) for n in extents),
    }[spelling]
    ref = np.fft.fftn(x.to_complex())
    out = md.direct_dft(x, samples)
    assert np.array_equal(out.values.re, ref.real)
    assert np.array_equal(out.values.im, ref.imag)
    assert out.max_abs == float(np.max(np.abs(ref)))


@pytest.mark.parametrize("extents", [(4096,), (64, 64), (16, 16, 16)])
def test_direct_sum_agrees_with_fft_route_at_the_cap(extents):
    assert int(np.prod(extents)) == ORACLE_ELEMENT_LIMIT
    x = rand_tensor(extents, seed=len(extents))
    fft = md.direct_dft(x).values
    direct = md.direct_dft(x, tuple(_explicit_roots(n) for n in extents)).values
    assert md.relative_l2_error(direct, fft) < 1e-12


def test_sample_set_count_must_match_the_rank():
    z = md.SamplePoints.uniform(4)
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4,), seed=11), (z, z))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4, 4), seed=12), (z,))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4, 4), seed=13), (z, z, z))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4, 4, 4), seed=14), (z, z))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4, 4, 4), seed=15), z)


def test_delta_transforms_to_ones():
    x = md.ComplexTensor(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    out = md.direct_dft(x)
    assert np.max(np.abs(out.values.to_complex() - 1.0)) < 1e-14
    assert out.max_abs == pytest.approx(1.0)


def test_constant_transforms_to_scaled_delta():
    x = md.ComplexTensor(np.ones(4), np.zeros(4))
    out = md.direct_dft(x).values.to_complex()
    assert np.max(np.abs(out - [4.0, 0.0, 0.0, 0.0])) < 1e-13


def test_uniform_oracle_matches_numpy_fft():
    x = rand_tensor((16,), seed=1)
    out = md.direct_dft(x, _explicit_roots(16)).values.to_complex()
    assert np.max(np.abs(out - np.fft.fft(x.to_complex()))) < 1e-12


def test_nonuniform_oracle_matches_reversed_order_sum():
    """Independent evaluation: direct pow() per term, summed back to front."""
    rng = np.random.default_rng(2)
    n = 12
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    x = rand_tensor((n,), seed=3)
    xc = x.to_complex()
    out = md.direct_dft(x, md.SamplePoints.explicit(z)).values.to_complex()
    ref = np.array(
        [sum(xc[m] * z[k] ** (-m) for m in reversed(range(n))) for k in range(n)]
    )
    assert np.max(np.abs(out - ref)) < 1e-12


def test_2d_oracle_matches_fft2():
    x = rand_tensor((8, 4), seed=4)
    out = md.direct_dft(x, (_explicit_roots(8), _explicit_roots(4))).values.to_complex()
    assert np.max(np.abs(out - np.fft.fft2(x.to_complex()))) < 1e-12


def test_3d_oracle_matches_fftn():
    x = rand_tensor((4, 4, 4), seed=5)
    out = md.direct_dft(x, (_explicit_roots(4),) * 3).values.to_complex()
    assert np.max(np.abs(out - np.fft.fftn(x.to_complex()))) < 1e-12


def test_3d_oracle_is_separable():
    """Applying the 1-D oracle axis by axis gives the same answer."""
    x = rand_tensor((4, 2, 2), seed=6)
    xc = x.to_complex()
    step = np.apply_along_axis(
        lambda row: md.direct_dft(md.ComplexTensor(row.real, row.imag)).values.to_complex(),
        0,
        xc,
    )
    for axis in (1, 2):
        step = np.apply_along_axis(
            lambda row: md.direct_dft(md.ComplexTensor(row.real, row.imag)).values.to_complex(),
            axis,
            step,
        )
    out = md.direct_dft(x).values.to_complex()
    assert np.max(np.abs(out - step)) < 1e-12


def test_oracle_rank_and_point_checks():
    with pytest.raises(md.DimensionError):
        md.direct_dft(np.zeros(4))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4,), seed=9), md.SamplePoints.uniform(3))
    with pytest.raises(md.ArgumentError):
        md.direct_dft(rand_tensor((4, 2), seed=10), (None, md.SamplePoints.uniform(3)))


def test_relative_l2_error_algebra():
    a = md.ComplexTensor(np.array([3.0, 4.0]), np.zeros(2))
    zero = zeros((2,))
    assert md.relative_l2_error(a, a) == 0.0
    assert md.relative_l2_error(a.scaled(2.0), a) == pytest.approx(1.0)
    assert md.relative_l2_error(a, zero) == pytest.approx(5.0)  # ||a|| when ref is 0
    b = rand_tensor((8,), seed=10)
    eps = 1e-6
    perturbed = md.ComplexTensor(b.re + eps, b.im)
    expected = eps * np.sqrt(8) / np.linalg.norm(b.to_complex())
    assert md.relative_l2_error(perturbed, b) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(md.DimensionError):
        md.relative_l2_error(a, b)
