"""The decimation engine: local FFT, gather, phase combination, full pipeline."""

from functools import lru_cache
import math

import numpy as np
import pytest

import meshdft as md
from meshdft import fft
from meshdft import mesh as mesh_module
from meshdft.fft import local_fft_flops
from helpers import (
    BF16, F32, F64, counting_split3, from_complex, rand_tensor, run_fft, run_kdft, err_vs
)
from reference import twiddled_local_fft


def cvec(values):
    values = np.asarray(values, dtype=np.complex128)
    return md.ComplexTensor(values.real, values.imag)


def test_local_fft_smallest_sizes():
    one = cvec([3.0 + 1.0j])
    assert np.array_equal(md.local_fft(one).to_complex(), [3.0 + 1.0j])
    a, b = 1.5 - 0.5j, 0.25 + 2.0j
    two = md.local_fft(cvec([a, b])).to_complex()
    assert np.allclose(two, [a + b, a - b], atol=1e-15)


@pytest.mark.parametrize("m", [4, 8, 32])
def test_local_fft_matches_numpy(m):
    x = rand_tensor((m,), seed=m)
    out = md.local_fft(x).to_complex()
    assert np.max(np.abs(out - np.fft.fft(x.to_complex()))) < 1e-12


def test_local_fft_along_any_axis():
    x = rand_tensor((4, 8, 2), seed=70)
    out = md.local_fft(x, axis=1).to_complex()
    assert np.max(np.abs(out - np.fft.fft(x.to_complex(), axis=1))) < 1e-12


def test_local_fft_f32_mode():
    x = rand_tensor((64,), seed=71)
    out = md.local_fft(x, mode=F32)
    assert out.dtype == np.float32
    ref = np.fft.fft(x.to_complex())
    assert np.linalg.norm(out.to_complex() - ref) / np.linalg.norm(ref) < 1e-5


def test_local_fft_rejects_non_power_of_two():
    with pytest.raises(md.DimensionError):
        md.local_fft(rand_tensor((6,), seed=72))


def test_local_fft_flops_formula():
    assert local_fft_flops(8) == 5 * 8 * 3
    assert local_fft_flops(8, rest=2) == 240
    assert local_fft_flops(1) == 0
    with pytest.raises(md.ArgumentError):
        local_fft_flops(12)


def test_gather_positions_both_regimes():
    assert md.gather_positions(1, 4) == (0,)
    assert md.gather_positions(2, 4) == (0, 1)  # blocks at least as long as the line
    assert md.gather_positions(4, 8) == (0, 1, 2, 3)
    # short blocks: line position c holds offset (c mod P/M)*M + c div (P/M)
    assert md.gather_positions(4, 2) == (0, 2, 1, 3)
    assert md.gather_positions(8, 1) == (0, 1, 2, 3, 4, 5, 6, 7)


def _gather(mesh, blocks):
    """The engine's gather along axis 0 of one line of every core, as per-core tensors."""
    parts, m = mesh.num_cores, blocks[0].shape[0]
    planes = (np.stack([b.re for b in blocks]), np.stack([b.im for b in blocks]))
    re, im = mesh.all_to_all_groups(fft._gather_groups([range(parts)], parts, m), planes)
    return [md.ComplexTensor._own(r, i) for r, i in zip(re, im)]


def test_gather_single_core_keeps_order():
    mesh = md.MeshSim(1)
    x = cvec(np.arange(4, dtype=np.float64))
    out = _gather(mesh, [x])
    assert np.array_equal(out[0].re, [0, 1, 2, 3])
    assert mesh.ledger.all_to_all_count == 1


def test_gather_two_cores():
    mesh = md.MeshSim(2)
    blocks = [cvec([0.0, 1.0, 2.0, 3.0]), cvec([4.0, 5.0, 6.0, 7.0])]
    out = _gather(mesh, blocks)
    # member 0 takes the even subsequence in local order l, member 1 the odd
    assert np.array_equal(out[0].re, [0, 2, 4, 6])
    assert np.array_equal(out[1].re, [1, 3, 5, 7])
    assert mesh.ledger.all_to_all_count == 1


def test_gather_four_cores_long_blocks():
    mesh = md.MeshSim(4)
    x = np.arange(16, dtype=np.float64)
    blocks = [cvec(x[4 * i : 4 * i + 4]) for i in range(4)]
    out = _gather(mesh, blocks)
    for beta in range(4):
        assert np.array_equal(out[beta].re, x[beta::4])


def test_gather_short_blocks_regime():
    # N=8 over 8 cores: single-element blocks, every line position ends up
    # holding exactly its own decimation offset
    mesh = md.MeshSim(8)
    x = np.arange(8, dtype=np.float64)
    out = _gather(mesh, [cvec([v]) for v in x])
    for beta in range(8):
        assert np.array_equal(out[beta].re, [beta])
    # N=8 over 4 cores: M=2 < P, positions hold offsets (0, 2, 1, 3)
    mesh = md.MeshSim(4)
    blocks = [cvec(x[2 * i : 2 * i + 2]) for i in range(4)]
    out = _gather(mesh, blocks)
    for pos, beta in enumerate(md.gather_positions(4, 2)):
        assert np.array_equal(out[pos].re, x[beta::4])


def test_phase_ring_recombines_subsequence_ffts():
    rng = np.random.default_rng(80)
    n, parts = 8, 4
    m = n // parts
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mesh = md.MeshSim(parts)
    plan = md.create_fft_plan(mesh.shape, (n,))
    out = md.fft_forward(mesh, plan, md.decompose(cvec(x), mesh.shape)[0])
    ref = np.fft.fft(x)
    for p in range(parts):
        assert np.max(np.abs(out[p].to_complex() - ref[p * m : (p + 1) * m])) < 1e-12
    assert mesh.ledger.permute_count == parts - 1


def test_plan_validation():
    shape = md.ComputationShape(2, 1, 1)
    plan = md.create_fft_plan(shape, (8,))
    assert plan.ring_tables[0][1].tolist() == [0, 1]
    with pytest.raises(md.PlanError) as err:
        md.create_fft_plan(shape, (6,))
    assert "must be a power of two" in str(err.value)
    with pytest.raises(md.PlanError):
        md.create_fft_plan(md.ComputationShape(3, 1, 1), (9,))
    with pytest.raises(md.PlanError):
        md.create_fft_plan(md.ComputationShape(1, 2, 1), (8,))


def test_forward_delta_and_tone():
    from meshdft.tensorio import gen_delta, gen_tone

    out, _, _ = run_fft(gen_delta((8,)), (2,))
    assert np.max(np.abs(out.to_complex() - 1.0)) < 1e-13
    # in-order output: a pure tone at frequency 3 peaks exactly at index 3
    for parts in (1, 2, 4, 8):
        out, _, _ = run_fft(gen_tone((8,), [3]), (parts,))
        spectrum = out.to_complex()
        assert np.argmax(np.abs(spectrum)) == 3
        assert abs(spectrum[3] - 8.0) < 1e-12


@pytest.mark.parametrize("parts", [1, 2, 4, 8])
def test_forward_matches_numpy_1d(parts):
    x = rand_tensor((16,), seed=parts)
    out, _, _ = run_fft(x, (parts,))
    ref = np.fft.fft(x.to_complex())
    assert np.linalg.norm(out.to_complex() - ref) / np.linalg.norm(ref) < 1e-12


def test_forward_short_block_regime_matches_numpy():
    x = rand_tensor((8,), seed=90)  # M=1 on 8 cores, M=2 on 4
    for parts in (4, 8):
        out, _, _ = run_fft(x, (parts,))
        ref = np.fft.fft(x.to_complex())
        assert np.linalg.norm(out.to_complex() - ref) / np.linalg.norm(ref) < 1e-12


def test_forward_matches_numpy_2d_and_3d():
    x2 = rand_tensor((8, 8), seed=91)
    out2, _, _ = run_fft(x2, (2, 2))
    ref2 = from_complex(np.fft.fft2(x2.to_complex()))
    assert err_vs(out2, ref2) < 1e-12
    x3 = rand_tensor((8, 8, 8), seed=92)
    out3, _, _ = run_fft(x3, (2, 2, 2))
    ref3 = from_complex(np.fft.fftn(x3.to_complex()))
    assert err_vs(out3, ref3) < 1e-12


def test_forward_ledger_matches_closed_form():
    from meshdft.reports import expected_ledger

    x = rand_tensor((8, 8, 8), seed=93)
    _, _, mesh = run_fft(x, (2, 2, 2))
    shape = md.ComputationShape(2, 2, 2)
    assert mesh.ledger.as_dict() == expected_ledger("fft", (8, 8, 8), shape, md.PrecisionMode.F64_REFERENCE)
    per = mesh.ledger.per_tag()
    for tag in ("dim1", "dim2", "dim3"):
        assert per[tag]["permute_count"] == 1
        assert per[tag]["all_to_all_count"] == 1


def test_forward_single_core_dim_still_records_gather():
    x = rand_tensor((8, 4), seed=94)
    _, _, mesh = run_fft(x, (1, 2))
    per = mesh.ledger.per_tag()
    assert per["dim1"]["all_to_all_count"] == 1
    assert per["dim1"]["permute_count"] == 0
    assert per["dim2"]["all_to_all_count"] == 1
    assert per["dim2"]["permute_count"] == 1


def test_forward_worker_count_is_invisible():
    x = rand_tensor((16, 8), seed=95)
    out1, blocks1, mesh1 = run_fft(x, (4, 2))
    out4, blocks4, mesh4 = run_fft(x, (4, 2), workers=4)
    assert np.array_equal(out1.to_complex(), out4.to_complex())
    for a, b in zip(blocks1, blocks4):
        assert np.array_equal(a.to_complex(), b.to_complex())
    assert mesh1.ledger.as_dict() == mesh4.ledger.as_dict()


def test_forward_f32_mode():
    x = rand_tensor((64,), seed=96)
    out, _, _ = run_fft(x, (4,), mode=F32)
    ref = np.fft.fft(x.to_complex())
    assert np.linalg.norm(out.to_complex() - ref) / np.linalg.norm(ref) < 1e-5


def test_forward_argument_errors():
    shape = md.ComputationShape(2, 1, 1)
    plan = md.create_fft_plan(shape, (8,))
    blocks, _ = md.decompose(rand_tensor((8,), seed=97), shape)
    with pytest.raises(md.ArgumentError):
        md.fft_forward(md.MeshSim(md.ComputationShape(4, 1, 1)), plan, blocks)
    with pytest.raises(md.DimensionError, match="expected 2 blocks, got 1"):
        md.fft_forward(md.MeshSim(shape), plan, blocks[:1])
    # blocks decomposed for another grid
    other, _ = md.decompose(rand_tensor((8,), seed=97), md.ComputationShape(1, 1, 1))
    with pytest.raises(md.DimensionError, match=r"expected \(4,\) on \(2, 1, 1\)"):
        md.fft_forward(md.MeshSim(shape), plan, other)


@pytest.mark.parametrize("dims", [(1, 1, 1), (4, 1, 1)])
def test_f32_overflow_raises(dims):
    # 3e38 fits float32, but the butterflies' sums pass its 3.4e38 maximum
    n = 64
    x = md.ComplexTensor(np.full(n, 3e38), np.zeros(n))
    shape = md.ComputationShape(*dims)
    plan = md.create_fft_plan(shape, (n,), F32)
    blocks, _ = md.decompose(x, shape)
    with pytest.raises(md.ArgumentError):
        md.fft_forward(md.MeshSim(shape), plan, blocks)


def test_phase_sum_overflow_raises():
    # each local FFT is finite; only the phase terms' sum at frequency 0 overflows
    shape = md.ComputationShape(2, 1, 1)
    plan = md.create_fft_plan(shape, (4,), F32)
    blocks, _ = md.decompose(cvec([2e38, 2e38, 0.0, 0.0]), shape)
    with pytest.raises(md.ArgumentError):
        md.fft_forward(md.MeshSim(shape), plan, blocks)


@lru_cache(maxsize=None)
def _direct_dft_longdouble(m, cols):
    """Seeded complex (m, cols) columns and their direct DFT along axis 0, in longdouble."""
    rng = np.random.default_rng(m)
    x = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
    angles = 8 * np.arctan(np.longdouble(1)) * np.arange(m, dtype=np.longdouble) / m
    cos, neg_sin = np.cos(angles), -np.sin(angles)
    x_re, x_im = (p.astype(np.longdouble) for p in (x.real, x.imag))
    out_re, out_im = (np.empty((m, cols), np.longdouble) for _ in "ri")
    n = np.arange(m)
    for lo in range(0, m, 256):
        k = np.arange(lo, min(m, lo + 256))
        exponents = np.outer(k, n) % m
        c, s = cos[exponents], neg_sin[exponents]
        out_re[k] = c @ x_re - s @ x_im
        out_im[k] = c @ x_im + s @ x_re
    return x, out_re, out_im


@pytest.mark.parametrize("mode", [F64, F32, BF16], ids=lambda m: m.value)
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64, 128, 2048, 4096])
def test_local_fft_accuracy_against_extended_direct_dft(mode, axis, m):
    # the error stays under one unit roundoff per radix-2 level, a bound the
    # radix-2 butterflies met too (at most 0.67 of it for both)
    rest = [3, 2] if m <= 128 else [2, 1]
    x, ref_re, ref_im = _direct_dft_longdouble(m, math.prod(rest))
    xt = np.moveaxis(x.reshape([m] + rest), 0, axis)
    out = md.local_fft(md.ComplexTensor(xt.real, xt.imag), axis=axis, mode=mode)
    assert out.dtype == mode.real_dtype and out.shape == xt.shape
    got_re, got_im = (np.moveaxis(p, axis, 0).reshape(ref_re.shape) for p in (out.re, out.im))
    err = np.sqrt(np.sum((got_re - ref_re) ** 2 + (got_im - ref_im) ** 2))
    norm = np.sqrt(np.sum(ref_re ** 2 + ref_im ** 2))
    unit = 2.0 ** -53 if mode is F64 else 2.0 ** -24
    assert err <= unit * max(1, math.log2(m)) * norm


@pytest.mark.parametrize("mode", [F64, F32, BF16], ids=lambda m: m.value)
@pytest.mark.parametrize("m", [1, 2, 8, 64, 512])
def test_twiddled_local_fft_is_local_fft_times_twiddle(mode, m):
    # the last stage takes the twiddles w_N**(b*r) of its position's offset b
    # into its table entries: within the local FFT's own bound of the plain
    # transform times the exact twiddle (both are within it of the exact
    # value), and at b = 0 the plain transform's bits
    x = rand_tensor((m, 3), seed=m + 1)
    plain = md.local_fft(x, 0, mode)
    exact = tuple(p.astype(np.longdouble) for p in (plain.re, plain.im))
    unit = 2.0 ** -53 if mode is F64 else 2.0 ** -24
    for parts in (4, 16, 64):
        offsets = md.gather_positions(parts, m)
        for pos in sorted({0, 1, parts // 2 + 1, parts - 1}):
            got = twiddled_local_fft(x, 0, parts, pos, mode)
            assert got.dtype == mode.real_dtype and got.shape == x.shape
            if offsets[pos] == 0:
                assert got.re.tobytes() == plain.re.tobytes()
                assert got.im.tobytes() == plain.im.tobytes()
            angle = (8 * np.arctan(np.longdouble(1)) * offsets[pos] / (m * parts)
                     * np.arange(m, dtype=np.longdouble))[:, None]
            cos, sin = np.cos(angle), np.sin(angle)
            want_re = exact[0] * cos + exact[1] * sin
            want_im = exact[1] * cos - exact[0] * sin
            err = np.sqrt(np.sum((got.re - want_re) ** 2 + (got.im - want_im) ** 2))
            norm = np.sqrt(np.sum(want_re ** 2 + want_im ** 2))
            assert err <= 2 * unit * max(1, math.log2(m)) * norm


def _local_fft_copy_per_stage(tensor, axis, mode):
    """Out-of-place radix-2 butterflies on a bit-reversed copy: an independent reference."""
    m = tensor.shape[axis]
    dtype = mode.real_dtype
    if m == 1:
        return tensor.astype(dtype)
    bits = m.bit_length() - 1
    perm = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(m)]
    moved_shape = np.moveaxis(tensor.re, axis, 0).shape
    re = np.take(np.moveaxis(tensor.re, axis, 0), perm, axis=0).reshape(m, -1).astype(dtype)
    im = np.take(np.moveaxis(tensor.im, axis, 0), perm, axis=0).reshape(m, -1).astype(dtype)
    size = 2
    while size <= m:
        half = size // 2
        ang = 2.0 * np.pi * np.arange(half, dtype=np.float64) / size
        w_re = np.cos(ang).astype(dtype)[None, :, None]
        w_im = (-np.sin(ang)).astype(dtype)[None, :, None]
        re3 = re.reshape(m // size, size, -1)
        im3 = im.reshape(m // size, size, -1)
        a_re, a_im = re3[:, :half].copy(), im3[:, :half].copy()
        b_re, b_im = re3[:, half:], im3[:, half:]
        t_re = w_re * b_re - w_im * b_im
        t_im = w_re * b_im + w_im * b_re
        re3[:, :half], im3[:, :half] = a_re + t_re, a_im + t_im
        re3[:, half:], im3[:, half:] = a_re - t_re, a_im - t_im
        size *= 2
    return md.ComplexTensor(
        np.moveaxis(re.reshape(moved_shape), 0, axis),
        np.moveaxis(im.reshape(moved_shape), 0, axis),
    )


@pytest.mark.parametrize("mode", [md.PrecisionMode.F64_REFERENCE, F32], ids=["f64", "f32"])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
def test_local_fft_matches_copy_per_stage_loop(mode, axis, m):
    # the matmul step and radix-2 butterflies round differently, but each stays
    # within u·max(1, log2 m) of the exact DFT, so they differ by at most twice that
    extents = [3, 2, 5]
    extents[axis] = m
    x = rand_tensor(tuple(extents), seed=m + 10 * axis)
    got = md.local_fft(x, axis=axis, mode=mode)
    ref = _local_fft_copy_per_stage(x, axis, mode)
    assert got.dtype == ref.dtype == mode.real_dtype
    assert got.shape == ref.shape == x.shape
    diff = np.sqrt(np.sum((got.re - ref.re) ** 2 + (got.im - ref.im) ** 2, dtype=np.float64))
    norm = np.sqrt(np.sum(ref.re.astype(np.float64) ** 2 + ref.im.astype(np.float64) ** 2))
    unit = 2.0 ** -53 if mode is md.PrecisionMode.F64_REFERENCE else 2.0 ** -24
    assert diff <= 2 * unit * max(1, math.log2(m)) * norm
    if m == 1:
        assert np.array_equal(got.re, ref.re) and np.array_equal(got.im, ref.im)


@pytest.mark.parametrize("mode", [F64, F32, BF16], ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", [
    ((64,), (4,)), ((4096,), (64,)), ((8, 8, 8), (2, 2, 2)), ((16, 4, 8), (8, 1, 2)),
])
def test_forward_bits_do_not_depend_on_slabs(monkeypatch, extents, grid, mode):
    # criterion 8: the local FFT and the kdft ring keep each core on matmul's
    # batch axis, so one slab of every core, slabs on two threads, or one or
    # two cores per slab give the same products (on 8x1x2 the fft gather's
    # groups view the cores otherwise than the lines do)
    x = rand_tensor(extents, seed=len(extents) + grid[0])
    tolerance = {F64: 1e-10, F32: 1e-5, BF16: 1e-4}[mode]
    core_bytes = 2 * mode.real_dtype.itemsize * math.prod(extents) // math.prod(grid)
    # a kdft plan holds n^2 elements per dimension: 4096 points run fft alone
    for run in (run_fft, run_kdft) if max(extents) <= 64 else (run_fft,):
        runs = [run(x, grid, mode=mode, workers=workers) for workers in (1, 2)]
        for slab_bytes, workers in ((1, 1), (2 * core_bytes, 2)):
            with monkeypatch.context() as patch:
                patch.setattr(mesh_module, "SLAB_BYTES", slab_bytes)
                runs.append(run(x, grid, mode=mode, workers=workers))
        (out, blocks, mesh), others = runs[0], runs[1:]
        for other_out, other_blocks, other_mesh in others:
            assert out.re.tobytes() == other_out.re.tobytes()
            assert out.im.tobytes() == other_out.im.tobytes()
            assert mesh.ledger.per_tag() == other_mesh.ledger.per_tag()
        assert err_vs(out, from_complex(np.fft.fftn(x.to_complex()))) < tolerance


def test_moved_and_computed_planes_are_read_only():
    x = rand_tensor((8, 4), seed=98)
    shape = md.ComputationShape(2, 1, 1)
    blocks, _ = md.decompose(x, shape)
    exchanged = _gather(md.MeshSim(2), blocks)
    transformed = md.local_fft(blocks[0], axis=1)
    plan = md.create_fft_plan(shape, x.shape)
    forward = md.fft_forward(md.MeshSim(shape), plan, blocks)
    for t in [blocks, *blocks, transformed, *exchanged, forward, *forward]:
        for plane in (t.re, t.im):
            assert not plane.flags.writeable
            with pytest.raises(ValueError):
                plane[(0,) * plane.ndim] = 1.0


def test_bf16_forward_splits_each_payload_plane_once_per_ring(monkeypatch):
    shape = md.ComputationShape(4, 2, 1)
    blocks, _ = md.decompose(rand_tensor((32, 16), seed=62), shape)
    fft._stage_matrices.cache_clear()
    splits = counting_split3(monkeypatch)
    plan = md.create_fft_plan(shape, (32, 16), BF16)
    md.fft_forward(md.MeshSim(shape), plan, blocks)
    # the plan splits, per dimension, the n-point tables that the 8-point
    # FFT's matrices, with each line position's twiddles, are gathered from,
    # and the ring's table of P real 2x2 blocks, once. The 8 cores' (8, 8)
    # payloads fit one slab, and per dimension the forward call splits the
    # FFT's two data planes once, stacked as the lines' (outer, n, inner)
    # view, then (q, r, columns), and the ring's operand once, its rows re
    # and im, (..., 2, 8*8)
    dims = ((32, 4, (1, 4, 2)), (16, 2, (4, 2, 1)))
    planned = [split for n, parts, _ in dims for split in [(n,)] * 2 + [(parts, 2, 2)]]
    run = [split for _, _, view in dims for split in [view + (1, 8, 8)] * 2 + [view + (2, 64)]]
    assert splits == planned + run


@pytest.mark.parametrize("mode", [F64, F32, BF16], ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", [
    ((16, 16, 8), (2, 2, 1)), ((64,), (16, 1, 1)), ((64,), (64, 1, 1)),
])
def test_forward_call_builds_no_table(monkeypatch, extents, grid, mode):
    # a plan holds every table its forward call reads, shared by dimensions
    # of equal extent and core count: once it is built, the table builders
    # raise, and so does preparing a table (at most 4-D, where a forward
    # call's payload planes are 5- or 6-D), and the bits stay the same
    shape = md.ComputationShape(*grid)
    plan = md.create_fft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=63), shape)
    want = md.fft_forward(md.MeshSim(shape), plan, blocks)
    if len(extents) > 1:
        assert plan.stages[0] is plan.stages[1] and plan.ring_tables[0] is plan.ring_tables[1]

    def no_table(*args):
        raise AssertionError("a forward call built a table")

    prepare = md.PrecisionMode.prepare

    def payload_only(self, plane):
        if np.ndim(plane) <= 4:
            no_table()
        return prepare(self, plane)

    monkeypatch.setattr(fft, "_stage_matrices", no_table)
    monkeypatch.setattr(fft, "_unit_roots", no_table)
    monkeypatch.setattr(md.vandermonde, "_unit_roots", no_table)
    monkeypatch.setattr(md.PrecisionMode, "prepare", payload_only)
    got = md.fft_forward(md.MeshSim(shape), plan, blocks)
    assert got.re.tobytes() == want.re.tobytes() and got.im.tobytes() == want.im.tobytes()


def test_ledger_after_a_failed_run():
    # collectives are recorded as issued and a stage's flops when it
    # completes: the first local FFT overflows f32 after the first all_to_all
    shape = md.ComputationShape(4, 1, 1)
    x = md.ComplexTensor(np.full(64, 3e38), np.full(64, -3e38))
    plan = md.create_fft_plan(shape, x.shape, F32)
    blocks, _ = md.decompose(x, shape)
    mesh = md.MeshSim(shape)
    with pytest.raises(md.ArgumentError, match="non-finite"):
        md.fft_forward(mesh, plan, blocks)
    nbytes = 64 * 2 * 4
    assert mesh.ledger.as_dict() == {
        "permute_count": 0, "all_to_all_count": 1, "bytes_moved": nbytes,
        "einsum_flops": 0, "local_fft_flops": 0,
    }
    assert mesh.ledger.per_tag() == {"dim1": mesh.ledger.as_dict()}
