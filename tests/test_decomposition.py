"""Core grids, block decomposition, the strided index maps and per-core row slices."""

import itertools

import numpy as np
import pytest

import meshdft as md
from meshdft import fft
from meshdft import mesh as mesh_module
from helpers import plan_block, rand_tensor
from reference import build_nonuniform


def test_shape_basics():
    s = md.ComputationShape(2, 3, 4)
    assert s.dims == (2, 3, 4)
    assert s.num_cores == 24
    for core in range(24):
        assert np.ravel_multi_index(s.coords(core), s.dims) == core
    assert np.ravel_multi_index((1, 2, 3), s.dims) == 23
    with pytest.raises(md.ArgumentError):
        md.ComputationShape(0, 1, 1)
    with pytest.raises(md.ArgumentError):
        s.coords(24)


def test_shape_parse():
    assert md.ComputationShape.parse("2x2x2").dims == (2, 2, 2)
    assert md.ComputationShape.parse("4").dims == (4, 1, 1)
    assert md.ComputationShape.parse("2x8").dims == (2, 8, 1)
    with pytest.raises(md.ArgumentError):
        md.ComputationShape.parse("2y2")
    with pytest.raises(md.ArgumentError):
        md.ComputationShape.parse("1x1x1x1")


def test_shape_lines_group_cores_along_one_dim():
    s = md.ComputationShape(2, 2, 2)
    assert s.lines(2) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert s.lines(1) == [[0, 2], [1, 3], [4, 6], [5, 7]]
    assert s.lines(0) == [[0, 4], [1, 5], [2, 6], [3, 7]]
    # every core appears exactly once per dimension
    for d in range(3):
        flat = [c for line in s.lines(d) for c in line]
        assert sorted(flat) == list(range(8))
    with pytest.raises(md.ArgumentError):
        s.lines(3)


def _lines_by_coordinates(shape, dim):
    fixed = [d for d in range(3) if d != dim]
    out = []
    for a in range(shape.dims[fixed[0]]):
        for b in range(shape.dims[fixed[1]]):
            line = []
            for pos in range(shape.dims[dim]):
                coords = [0, 0, 0]
                coords[dim], coords[fixed[0]], coords[fixed[1]] = pos, a, b
                line.append(np.ravel_multi_index(coords, shape.dims))
            out.append(line)
    return out


@pytest.mark.parametrize("dims", [(1, 1, 1), (4, 1, 1), (1, 3, 1), (2, 3, 4), (4, 2, 2), (3, 1, 5)])
def test_shape_lines_match_coordinate_loop(dims):
    shape = md.ComputationShape(*dims)
    for d in range(3):
        lines = shape.lines(d)
        assert lines == _lines_by_coordinates(shape, d)
        assert all(type(c) is int for line in lines for c in line)


def test_global_to_local_examples():
    """The decimation rule n = P*l + beta, as the fft engine's gather applies it."""
    x = np.arange(8, dtype=np.float64)
    groups = fft._gather_groups([range(2)], 2, 4)
    re, _ = md.MeshSim(2).all_to_all_groups(groups, (x.reshape(2, 4), np.zeros((2, 4))))
    assert re[0, 0] == 0  # index 0: position 0, offset 0
    assert re[1, 2] == 5  # index 5 = 2*2 + 1: position 1, offset 2


@pytest.mark.parametrize("parts", [2, 4, 8])
def test_strided_maps_are_mutually_inverse(parts):
    n = 64
    x = np.arange(n, dtype=np.float64)
    m = n // parts
    groups = fft._gather_groups([range(parts)], parts, m)
    re, _ = md.MeshSim(parts).all_to_all_groups(groups, (x.reshape(parts, m),) * 2)
    # member beta's offset l holds global index P*l + beta, and every index
    # lands exactly once
    images = []
    for beta in range(parts):
        assert np.array_equal(re[beta], parts * np.arange(m) + beta)
        images.extend(re[beta])
    assert sorted(images) == list(range(n))


def test_decompose_single_core_holds_everything():
    x = rand_tensor((4, 6), seed=1)
    blocks, assignment = md.decompose(x, md.ComputationShape(1, 1, 1))
    assert len(blocks) == 1
    assert np.array_equal(blocks[0].to_complex(), x.to_complex())
    assert assignment.block_shape == (4, 6)


def test_decompose_vector_in_halves():
    x = md.ComplexTensor(np.arange(4, dtype=np.float64), np.zeros(4))
    blocks, _ = md.decompose(x, md.ComputationShape(2, 1, 1))
    assert np.array_equal(blocks[0].re, [0, 1])
    assert np.array_equal(blocks[1].re, [2, 3])


def test_decompose_gather_round_trip_3d():
    x = rand_tensor((8, 4, 2), seed=2)
    shape = md.ComputationShape(2, 2, 2)
    blocks, assignment = md.decompose(x, shape)
    assert len(blocks) == 8
    assert all(b.shape == (4, 2, 1) for b in blocks)
    back = md.gather_to_host(blocks, assignment)
    assert np.array_equal(back.to_complex(), x.to_complex())


def test_decompose_block_contents_follow_coordinates():
    x = rand_tensor((4, 4), seed=3)
    shape = md.ComputationShape(2, 2, 1)
    blocks, _ = md.decompose(x, shape)
    core = np.ravel_multi_index((1, 0, 0), shape.dims)
    assert np.array_equal(blocks[core].re, x.re[2:4, 0:2])


def test_decompose_errors():
    x = rand_tensor((6,), seed=4)
    with pytest.raises(md.PlanError):
        md.decompose(x, md.ComputationShape(4, 1, 1))
    with pytest.raises(md.PlanError):
        md.decompose(x, md.ComputationShape(2, 2, 1))  # rank-1 data, p2 > 1
    with pytest.raises(md.ArgumentError):
        md.decompose(np.zeros(4), md.ComputationShape(1, 1, 1))


def test_gather_rejects_bad_blocks():
    x = rand_tensor((4,), seed=5)
    blocks, assignment = md.decompose(x, md.ComputationShape(2, 1, 1))
    with pytest.raises(md.AssemblyError, match="expected 2 blocks, got 1"):
        md.gather_to_host(blocks[:1], assignment)
    with pytest.raises(md.AssemblyError, match=r"block 1 has shape \(3,\), expected \(2,\)"):
        md.gather_to_host([blocks[0], rand_tensor((3,), seed=6)], assignment)
    with pytest.raises(md.AssemblyError, match="block 1 missing or not a ComplexTensor"):
        md.gather_to_host([blocks[0], None], assignment)
    with pytest.raises(md.AssemblyError, match="blocks disagree on dtype"):
        md.gather_to_host([blocks[0], blocks[1].astype(np.float32)], assignment)
    # blocks of another grid
    other, _ = md.decompose(rand_tensor((4, 2), seed=5), md.ComputationShape(2, 1, 1))
    with pytest.raises(md.AssemblyError, match="expected"):
        md.gather_to_host(other, assignment)


def _cut(x, shape, core):
    """Core ``core``'s block of ``x``, cut out by its grid coordinates."""
    block = tuple(n // p for n, p in zip(x.shape, shape.dims))
    cut = tuple(slice(c * b, (c + 1) * b) for c, b in zip(shape.coords(core), block))
    return md.ComplexTensor(x.re[cut], x.im[cut])


def test_blocks_are_read_only_views_of_the_input():
    x = rand_tensor((8, 4, 2), seed=7)
    shape = md.ComputationShape(2, 2, 2)
    blocks, _ = md.decompose(x, shape)
    assert (len(blocks), blocks.grid, blocks.shape, blocks.dtype) == (8, (2, 2, 2), (4, 2, 1),
                                                                      np.float64)
    for plane, source in ((blocks.re, x.re), (blocks.im, x.im)):
        assert plane.shape == (2, 2, 2, 4, 2, 1)
        assert np.shares_memory(plane, source)
        with pytest.raises(ValueError):
            plane[(0,) * plane.ndim] = 1.0
    for core, block in enumerate(blocks):
        assert np.shares_memory(block.re, blocks.re) and np.shares_memory(block.im, blocks.im)
        assert np.array_equal(block.re, _cut(x, shape, core).re)
    assert np.array_equal(blocks[-1].im, blocks[7].im)
    assert [b.re.tolist() for b in blocks[2:4]] == [blocks[2].re.tolist(), blocks[3].re.tolist()]
    with pytest.raises(IndexError):
        blocks[8]


@pytest.mark.parametrize("engine", ["kdft", "fft"])
def test_engines_give_the_same_bits_from_a_list_as_from_blocks(monkeypatch, engine):
    x = rand_tensor((8, 4, 8), seed=8)
    shape = md.ComputationShape(2, 1, 2)
    blocks, assignment = md.decompose(x, shape)
    listed = [_cut(x, shape, c) for c in range(shape.num_cores)]
    forward = md.kdft_forward if engine == "kdft" else md.fft_forward
    create = md.create_kdft_plan if engine == "kdft" else md.create_fft_plan
    for mode, workers, slab_bytes in itertools.product(
            md.PrecisionMode, (1, 2), (mesh_module.SLAB_BYTES, 1)):
        plan = create(shape, x.shape, mode)
        monkeypatch.setattr(mesh_module, "SLAB_BYTES", slab_bytes)
        runs = []
        for given in (listed, blocks):
            mesh = md.MeshSim(shape)
            out = forward(mesh, plan, given, workers=workers)
            runs.append((out.re.tobytes(), out.im.tobytes(), mesh.ledger.per_tag()))
            assert np.array_equal(md.gather_to_host(out, assignment).re,
                                  md.gather_to_host(list(out), assignment).re)
        assert runs[0] == runs[1]


@pytest.mark.parametrize("engine", ["kdft", "fft", "inverse"])
def test_engines_take_a_list_of_mixed_dtypes(engine):
    x = rand_tensor((8, 4), seed=9)
    shape = md.ComputationShape(2, 2, 1)
    mixed = [_cut(x, shape, c) for c in range(shape.num_cores)]
    mixed[1] = mixed[1].astype(np.float32)
    # widening a block to f64 is exact, so it gives the same bits
    widened = [b.astype(np.float64) for b in mixed]
    create = md.create_fft_plan if engine == "fft" else md.create_kdft_plan
    run = {"kdft": md.kdft_forward, "fft": md.fft_forward,
           "inverse": md.kdft_inverse_uniform}[engine]
    for mode in md.PrecisionMode:
        plan = create(shape, x.shape, mode)
        outs = [run(md.MeshSim(shape), plan, given) for given in (mixed, widened)]
        assert outs[0].dtype == mode.real_dtype
        assert outs[0].re.tobytes() == outs[1].re.tobytes()
        assert outs[0].im.tobytes() == outs[1].im.tobytes()


def test_blocks_have_no_public_constructor():
    # a per-core list is the input built outside the package; it is checked
    blocks, _ = md.decompose(rand_tensor((8,), seed=10), md.ComputationShape(2, 1, 1))
    with pytest.raises(TypeError):
        md.decomposition.Blocks(np.array(blocks.re), np.array(blocks.im))


def _row_slice(plan, d, pos):
    """Core position ``pos``'s row slice along ``d``, its column blocks rejoined."""
    blocks = [plan_block(plan, d, pos, j) for j in range(plan.shape.dims[d])]
    return np.concatenate([re + 1j * im for (re,), (im,) in blocks], axis=1)


def test_slices_for_shape_single_core():
    plan = md.create_kdft_plan(md.ComputationShape(1, 1, 1), (8,))
    assert [re[0].shape for re, _ in plan.ring_blocks] == [(1, 1, 8, 8)]
    assert np.array_equal(_row_slice(plan, 0, 0), md.build_uniform(8).to_complex())


def test_slices_for_shape_shares_rows_along_other_dims():
    v1, v2 = md.build_uniform(8), md.build_uniform(4)
    shape = md.ComputationShape(2, 2, 1)
    plan = md.create_kdft_plan(shape, (8, 4))
    # one slice per (dimension, grid position): cores with the same position
    # along a dimension share its slice
    assert [re[0].shape for re, _ in plan.ring_blocks] == [(2, 2, 4, 4), (2, 2, 2, 2)]
    for core in range(shape.num_cores):
        c1, c2, _ = shape.coords(core)
        rows1, rows2 = slice(c1 * 4, (c1 + 1) * 4), slice(c2 * 2, (c2 + 1) * 2)
        assert np.array_equal(_row_slice(plan, 0, c1), v1.to_complex()[rows1])
        assert np.array_equal(_row_slice(plan, 1, c2), v2.to_complex()[rows2])


def test_slices_for_shape_union_reconstructs_nonuniform_matrix():
    rng = np.random.default_rng(9)
    samples = md.SamplePoints.explicit(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
    v = build_nonuniform(samples, 8)
    plan = md.create_kdft_plan(md.ComputationShape(4, 1, 1), (samples,))
    rebuilt = np.concatenate([_row_slice(plan, 0, i) for i in range(4)], axis=0)
    assert np.array_equal(rebuilt, v.to_complex())


def test_slices_for_shape_errors():
    with pytest.raises(md.PlanError):
        md.create_kdft_plan(md.ComputationShape(3, 1, 1), (8,))
    with pytest.raises(md.PlanError):
        md.create_kdft_plan(md.ComputationShape(1, 2, 1), (8,))
    with pytest.raises(md.ArgumentError):
        md.create_kdft_plan((1, 1, 1), (8,))
