"""The direct (quadratic) engine: plans, forward, inverse, shift-by-one."""

import dataclasses

import numpy as np
import pytest

import meshdft as md
from meshdft.ctensor import Prepared, _split3, bf16_array
from meshdft.vandermonde import build_nonuniform, column_blocks
from helpers import (
    BF16, F64, F32, counting_split3, plan_block, rand_tensor, run_kdft, err_vs
)


def test_plan_validation():
    shape = md.ComputationShape(2, 1, 1)
    plan = md.create_kdft_plan(shape, (8,))
    assert plan.extents == (8,)
    assert plan.rank == 1
    assert plan.all_uniform()
    # each (dim, position) entry splits the row slice into P square blocks
    blocks = plan.col_blocks[(0, 0)]
    assert len(blocks) == 2
    assert all(b.shape == (4, 4) for b in blocks)
    with pytest.raises(md.PlanError):
        md.create_kdft_plan(md.ComputationShape(4, 1, 1), (6,))
    with pytest.raises(md.PlanError):
        md.create_kdft_plan(md.ComputationShape(3, 1, 1), (8,))
    with pytest.raises(md.PlanError):
        md.create_kdft_plan(md.ComputationShape(1, 2, 1), (8,))
    with pytest.raises(md.ArgumentError):
        md.create_kdft_plan((2, 1, 1), (8,))


def test_forward_delta_gives_ones():
    x = md.ComplexTensor(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    out, _, _ = run_kdft(x, (1,))
    assert np.max(np.abs(out.to_complex() - 1.0)) < 1e-14


def test_forward_constant_2x2():
    x = md.ComplexTensor(np.ones((2, 2)), np.zeros((2, 2)))
    out, _, _ = run_kdft(x, (1, 1))
    assert np.allclose(out.to_complex(), [[4.0, 0.0], [0.0, 0.0]], atol=1e-13)


def test_forward_tone_lands_on_its_frequency():
    from meshdft.tensorio import gen_tone

    x = gen_tone((8,), [3])
    out, _, _ = run_kdft(x, (2,))
    spectrum = out.to_complex()
    assert np.argmax(np.abs(spectrum)) == 3
    assert abs(spectrum[3] - 8.0) < 1e-12


@pytest.mark.parametrize("parts", [1, 2, 4, 8])
def test_forward_matches_oracle_1d(parts):
    x = rand_tensor((8,), seed=parts)
    out, _, _ = run_kdft(x, (parts,))
    assert err_vs(out, md.direct_dft(x).values) < 1e-12


def test_forward_matches_oracle_2d_and_3d():
    x2 = rand_tensor((8, 4), seed=31)
    out2, _, _ = run_kdft(x2, (2, 2))
    assert err_vs(out2, md.direct_dft(x2).values) < 1e-12
    x3 = rand_tensor((8, 8, 8), seed=32)
    out3, _, _ = run_kdft(x3, (2, 2, 2))
    assert err_vs(out3, md.direct_dft(x3).values) < 1e-12


def test_forward_nonuniform_matches_oracle():
    rng = np.random.default_rng(33)
    n = 16
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    samples = md.SamplePoints.explicit(z)
    x = rand_tensor((n,), seed=34)
    out, _, _ = run_kdft(x, (4,), samples=(samples,))
    assert err_vs(out, md.direct_dft(x, samples).values) < 1e-12


def test_forward_f32_mode_tolerance():
    x = rand_tensor((64,), seed=35)
    out, _, _ = run_kdft(x, (4,), mode=F32)
    assert err_vs(out, md.direct_dft(x).values) < 1e-5


def test_forward_ledger_matches_closed_form():
    from meshdft.reports import expected_ledger

    x = rand_tensor((8,), seed=36)
    _, _, mesh = run_kdft(x, (4,))
    shape = md.ComputationShape(4, 1, 1)
    assert mesh.ledger.as_dict() == expected_ledger("kdft", (8,), shape, F64)
    assert mesh.ledger.permute_count == 3
    assert mesh.ledger.all_to_all_count == 0
    # 3 permutes, 4 cores each moving a 2-element f64 block of 32 bytes
    assert mesh.ledger.bytes_moved == 3 * 4 * 32


def test_forward_per_dimension_tags():
    x = rand_tensor((8, 8, 8), seed=37)
    _, _, mesh = run_kdft(x, (2, 2, 2))
    per = mesh.ledger.per_tag()
    for tag in ("dim1", "dim2", "dim3"):
        assert per[tag]["permute_count"] == 1
        assert per[tag]["einsum_flops"] == mesh.ledger.einsum_flops // 3


def test_forward_worker_count_is_invisible():
    x = rand_tensor((16, 16), seed=38)
    out1, blocks1, mesh1 = run_kdft(x, (2, 2))
    out4, blocks4, mesh4 = run_kdft(x, (2, 2), workers=4)
    assert np.array_equal(out1.to_complex(), out4.to_complex())
    for a, b in zip(blocks1, blocks4):
        assert np.array_equal(a.to_complex(), b.to_complex())
    assert mesh1.ledger.as_dict() == mesh4.ledger.as_dict()


def test_forward_block_distribution_is_contiguous_rows():
    """Output block p holds frequencies [p*N/P, (p+1)*N/P)."""
    x = rand_tensor((8,), seed=39)
    _, blocks, _ = run_kdft(x, (4,))
    full = md.direct_dft(x).values.to_complex()
    for p, block in enumerate(blocks):
        assert np.max(np.abs(block.to_complex() - full[2 * p : 2 * p + 2])) < 1e-12


def test_forward_argument_errors():
    shape = md.ComputationShape(2, 1, 1)
    plan = md.create_kdft_plan(shape, (8,))
    mesh = md.MeshSim(shape)
    blocks, _ = md.decompose(rand_tensor((8,), seed=40), shape)
    with pytest.raises(md.ArgumentError):
        md.kdft_forward(md.MeshSim(md.ComputationShape(4, 1, 1)), plan, blocks)
    with pytest.raises(md.DimensionError):
        md.kdft_forward(mesh, plan, blocks[:1])
    with pytest.raises(md.DimensionError):
        md.kdft_forward(mesh, plan, [blocks[0], rand_tensor((3,), seed=41)])


# -- inverse -----------------------------------------------------------------


def test_inverse_two_point_algebra():
    # forward of [a, b] is [a+b, a-b]; inverse halves and recombines
    a, b = 0.7, -0.2
    x = md.ComplexTensor(np.array([a, b]), np.zeros(2))
    shape = md.ComputationShape(1, 1, 1)
    plan = md.create_kdft_plan(shape, (2,))
    fwd = md.kdft_forward(md.MeshSim(shape), plan, [x])
    assert np.allclose(fwd[0].re, [a + b, a - b], atol=1e-15)
    back = md.kdft_inverse_uniform(md.MeshSim(shape), plan, fwd)
    assert np.allclose(back[0].re, [a, b], atol=1e-15)


def test_inverse_round_trip_distributed():
    x = rand_tensor((16, 16), seed=50)
    shape = md.ComputationShape(2, 2, 1)
    plan = md.create_kdft_plan(shape, (16, 16))
    blocks, assignment = md.decompose(x, shape)
    fwd = md.kdft_forward(md.MeshSim(shape), plan, blocks)
    back = md.kdft_inverse_uniform(md.MeshSim(shape), plan, fwd)
    restored = md.gather_to_host(back, assignment)
    assert err_vs(restored, x) < 1e-12


@pytest.mark.parametrize("mode", [F64, F32, md.PrecisionMode.BF16_SPLIT3],
                         ids=["f64", "f32", "bf16split3"])
def test_inverse_matches_forward_with_conjugated_blocks(mode):
    # bit for bit what contracting with explicitly conjugated blocks gives
    x = rand_tensor((12, 8), seed=53)
    shape = md.ComputationShape(3, 2, 1)
    plan = md.create_kdft_plan(shape, (12, 8), mode)
    blocks, _ = md.decompose(x, shape)
    conjugated = dataclasses.replace(plan, col_blocks={
        (d, pos): tuple(
            Prepared(c.conj(), mode)
            for c in column_blocks(plan.samples[d], shape.dims[d], pos, mode.real_dtype)
        )
        for d, pos in plan.col_blocks
    })
    ref = md.kdft_forward(md.MeshSim(shape), conjugated, blocks)
    got = md.kdft_inverse_uniform(md.MeshSim(shape), plan, blocks)
    for g, r in zip(got, ref, strict=True):
        r = r.scaled(1.0 / 96)
        assert np.array_equal(g.re, r.re) and np.array_equal(g.im, r.im)


def test_inverse_rejects_nonuniform_plans():
    rng = np.random.default_rng(51)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    shape = md.ComputationShape(1, 1, 1)
    plan = md.create_kdft_plan(shape, (md.SamplePoints.explicit(z),))
    blocks, _ = md.decompose(rand_tensor((8,), seed=52), shape)
    with pytest.raises(md.UnsupportedOperationError):
        md.kdft_inverse_uniform(md.MeshSim(shape), plan, blocks)


# -- one_shuffle -------------------------------------------------------------


def test_one_shuffle_matches_dense_product():
    mesh = md.MeshSim(3)
    v = md.build_uniform(6)
    slices = md.slice_rows(v, 3)
    x = rand_tensor((6,), seed=60)
    x_blocks, _ = md.decompose(x, md.ComputationShape(3, 1, 1))
    out = md.one_shuffle(mesh, slices, x_blocks)
    dense = v.to_complex() @ x.to_complex()
    for p in range(3):
        assert np.max(np.abs(out[p].to_complex() - dense[2 * p : 2 * p + 2])) < 1e-13
    assert mesh.ledger.permute_count == 2


def test_one_shuffle_accepts_raw_tensors():
    mesh = md.MeshSim(3)
    rng = np.random.default_rng(61)
    v = md.ComplexTensor(rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (6, 6)))
    slices = md.slice_rows(v, 3)
    x = rand_tensor((6,), seed=62)
    x_blocks, _ = md.decompose(x, md.ComputationShape(3, 1, 1))
    out = md.one_shuffle(mesh, slices, x_blocks)
    dense = v.to_complex() @ np.concatenate([b.to_complex() for b in x_blocks])
    # results are in rank order: out[i] is core i's partial sums
    for i in range(3):
        assert np.max(np.abs(out[i].to_complex() - dense[2 * i : 2 * i + 2])) < 1e-13


def test_one_shuffle_validation():
    mesh = md.MeshSim(2)
    v = md.build_uniform(4)
    slices = md.slice_rows(v, 2)
    x_blocks, _ = md.decompose(rand_tensor((4,), seed=63), md.ComputationShape(2, 1, 1))
    with pytest.raises(md.DimensionError):
        md.one_shuffle(mesh, slices[:1], x_blocks)
    with pytest.raises(md.DimensionError):
        md.one_shuffle(mesh, md.slice_rows(md.build_uniform(6), 2), x_blocks)
    with pytest.raises(md.DimensionError):
        md.one_shuffle(mesh, [v.re[:2], v.re[2:]], x_blocks)


def test_one_shuffle_rejects_non_tensor_blocks():
    slices = md.slice_rows(md.build_uniform(4), 2)
    with pytest.raises(md.DimensionError):
        md.one_shuffle(md.MeshSim(2), slices, [np.arange(2.0), np.arange(2.0)])


def test_f32_partial_sum_overflow_raises():
    # 16 terms of 3e37 per block sum past float32's 3.4e38 inside the engine
    n = 64
    x = md.ComplexTensor(np.full(n, 3e37), np.zeros(n))
    shape = md.ComputationShape(4, 1, 1)
    plan = md.create_kdft_plan(shape, (n,), F32)
    blocks, _ = md.decompose(x, shape)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(md.ArgumentError):
            md.kdft_forward(md.MeshSim(shape), plan, blocks)


# -- plan blocks ---------------------------------------------------------------


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_blocks_slice(plan, matrix, parts):
    w = matrix.shape[0] // parts
    for pos in range(parts):
        blocks = plan.col_blocks[(0, pos)]
        assert len(blocks) == parts
        for j, block in enumerate(blocks):
            block = plan_block(block)
            rows, cols = slice(pos * w, (pos + 1) * w), slice(j * w, (j + 1) * w)
            assert _same_bits(block.re, matrix.re[rows, cols])
            assert _same_bits(block.im, matrix.im[rows, cols])


@pytest.mark.parametrize("n,parts", [(1, 1), (6, 1), (7, 7), (12, 3), (1024, 8)])
def test_plan_blocks_are_slices_of_the_uniform_matrix(n, parts):
    plan = md.create_kdft_plan(md.ComputationShape(parts, 1, 1), (n,))
    _assert_blocks_slice(plan, md.build_uniform(n), parts)


@pytest.mark.parametrize("n,parts", [(1, 1), (6, 1), (7, 7), (12, 3), (1024, 8)])
def test_plan_blocks_are_slices_of_the_nonuniform_matrix(n, parts):
    rng = np.random.default_rng(n + parts)
    samples = md.SamplePoints.explicit(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
    plan = md.create_kdft_plan(md.ComputationShape(parts, 1, 1), (samples,))
    _assert_blocks_slice(plan, build_nonuniform(samples, n), parts)


@pytest.mark.parametrize("nonuniform", [False, True])
def test_f32_plan_blocks_are_f64_blocks_cast(nonuniform):
    shape = md.ComputationShape(3, 2, 1)
    rng = np.random.default_rng(70)
    if nonuniform:
        samples = [md.SamplePoints.explicit(np.exp(1j * rng.uniform(0, 6.0, n)))
                   for n in (12, 8)]
    else:
        samples = [12, 8]
    p64 = md.create_kdft_plan(shape, samples, F64)
    for mode in (F32, md.PrecisionMode.BF16_SPLIT3):
        p32 = md.create_kdft_plan(shape, samples, mode)
        assert p32.col_blocks.keys() == p64.col_blocks.keys()
        for key, blocks in p64.col_blocks.items():
            for b64, b32 in zip(blocks, p32.col_blocks[key], strict=True):
                b64 = plan_block(b64)
                # a bf16split3 block holds only the split terms of the cast planes
                for got, plane in ((b32.re, b64.re), (b32.im, b64.im)):
                    cast = plane.astype(np.float32)
                    want = (cast,) if mode is F32 else _split3(cast)
                    assert len(got) == len(want)
                    assert all(_same_bits(g, w) for g, w in zip(got, want))


# -- bf16split3 operands are split once ------------------------------------------


def test_bf16_forward_splits_no_plan_block_and_each_payload_once_per_dim(monkeypatch):
    rng = np.random.default_rng(60)
    samples = [md.SamplePoints.explicit(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
               for n in (16, 8)]
    shape = md.ComputationShape(4, 2, 1)
    blocks, _ = md.decompose(rand_tensor((16, 8), seed=61), shape)
    splits = counting_split3(monkeypatch)
    plan = md.create_kdft_plan(shape, samples, BF16)
    # the plan splits both planes of each of its 4*4 + 2*2 column blocks once
    assert splits == [(4, 4)] * (2 * (4 * 4 + 2 * 2))
    splits.clear()
    md.kdft_forward(md.MeshSim(shape), plan, blocks)
    # one (4, 2*4) re|im operand per core and dimension; no (4, 4) plan block
    assert splits == [(4, 8)] * (shape.num_cores * 2)


def test_bf16_one_shuffle_trace_reads_the_raw_payload():
    # x_first is the held payload's own first element, not its leading split term
    mesh = md.MeshSim(2)
    slices = md.slice_rows(md.build_uniform(4), 2)
    blocks = [md.ComplexTensor([0.1, 1.0], [0.3, 0.0]),
              md.ComplexTensor([0.2, 1.0], [0.0, 0.0])]
    trace = []
    md.one_shuffle(mesh, slices, blocks, BF16, trace=trace)
    a = complex(float(np.float32(0.1)), float(np.float32(0.3)))
    b = complex(float(np.float32(0.2)), 0.0)
    assert [[e["x_first"] for e in step["einsums"]] for step in trace] == [[a, b], [b, a]]
    assert bf16_array(np.float32(0.1))[0] != np.float32(0.1)
