"""The Ring request against the per-core ring loops it replaced.

The references below are the engines' earlier per-core generators: every core
yields one single-step permute per ring step and runs its own step kernel
(``scale_along_axis`` on a column of its ``build_phase_slice`` block, or one
``contract``) between them. The coordinator-run Ring must give the same bits,
the same ledger and the same per-tag ledger.
"""

import sys

import numpy as np
import pytest

import meshdft as md
from meshdft import fft
from meshdft.ctensor import contract, scale_along_axis
from meshdft.decomposition import ComputationShape
from meshdft.fft import local_fft_flops
from meshdft.mesh import AllToAll, Ring
from meshdft.vandermonde import build_phase_slice, column_blocks
from helpers import BF16, F32, F64, rand_tensor

MODES = [F64, F32, BF16]

# (extents, grid): P=1, m<P (16 on 8), 1-D rings, 2-D and a 3-D 2x2x2 grid
CASES = [
    ((16,), (1, 1, 1)),
    ((16,), (8, 1, 1)),
    ((64,), (4, 1, 1)),
    ((16, 8), (4, 2, 1)),
    ((8, 8, 8), (2, 2, 2)),
    ((16, 4, 8), (8, 1, 2)),
]


def keep_held(step, held, acc, table):
    return held


def permute(groups, x, tag):
    """One shift: a one-step Ring whose kernel keeps the payload it receives."""
    return Ring(groups, x, keep_held, 1, tag)


def _phase_steps_reference(core, x, axis, parts, pos, beta_map, phase, groups, mode, tag):
    def col(b):
        return md.ComplexTensor(phase.re[:, b], phase.im[:, b])

    held = beta_map[pos]
    acc = scale_along_axis(x, axis, col(held), mode)
    core.add_flops("einsum", 4 * x.size, tag)
    acc_re, acc_im = np.array(acc.re), np.array(acc.im)
    for s in range(1, parts):
        x = yield permute(groups, x, tag)
        held = beta_map[(pos + s) % parts]
        term = scale_along_axis(x, axis, col(held), mode)
        np.add(acc_re, term.re, out=acc_re)
        np.add(acc_im, term.im, out=acc_im)
        core.add_flops("einsum", 4 * x.size, tag)
    return md.ComplexTensor(acc_re, acc_im)


def fft_forward_reference(mesh, plan, blocks, workers):
    mode = plan.precision
    phase = {
        (d, pos): build_phase_slice(plan.extents[d], plan.shape.dims[d], pos)
        for d in range(plan.rank) for pos in range(plan.shape.dims[d])
    }

    def program(core, x):
        x = x.astype(mode.real_dtype)
        for d in range(plan.rank):
            parts = plan.shape.dims[d]
            m = plan.extents[d] // parts
            pos = core.coords[d]
            tag = f"dim{d + 1}"
            lines = plan.shape.lines(d)
            x = yield AllToAll(fft._gather_groups(lines, parts, m), x, split_axis=d, tag=tag)
            x = md.local_fft(x, axis=d, mode=mode)
            core.add_flops("local_fft", local_fft_flops(m, x.size // m), tag)
            x = yield from _phase_steps_reference(
                core, x, d, parts, pos, plan.beta_maps[d], phase[(d, pos)],
                lines, mode, tag,
            )
        return x

    return mesh.run_spmd(program, blocks, workers=workers)


def _shift_steps_reference(core, cols, x, axis, parts, pos, groups, mode, tag):
    def tally(matrix):
        core.add_flops("einsum", 4 * matrix.shape[0] * matrix.shape[1] * (x.size // x.shape[axis]), tag)

    j = pos
    acc = contract(cols[j], x, axis=axis, mode=mode)
    tally(cols[j])
    for _ in range(parts - 1):
        x = yield permute(groups, x, tag)
        j = (j + 1) % parts
        acc = acc.add(contract(cols[j], x, axis=axis, mode=mode))
        tally(cols[j])
    return acc


def kdft_reference(mesh, plan, blocks, workers, conjugate):
    """The engine's ring, or with ``conjugate`` its inverse: conjugated column blocks, 1/N."""
    mode = plan.precision
    # the plan's blocks as tensors, so that every step prepares (under
    # bf16split3, splits) both of its operands again
    cols = {
        (d, pos): [
            b.conj() if conjugate else b
            for b in column_blocks(plan.samples[d], plan.shape.dims[d], pos, mode.real_dtype)
        ]
        for d, pos in plan.col_blocks
    }

    def program(core, x):
        x = x.astype(mode.real_dtype)
        for d in range(plan.rank):
            pos = core.coords[d]
            x = yield from _shift_steps_reference(
                core, cols[(d, pos)], x, d, plan.shape.dims[d], pos,
                plan.shape.lines(d), mode, f"dim{d + 1}",
            )
        if conjugate:
            x = x.scaled(1.0 / plan.total_elements)
        return x

    return mesh.run_spmd(program, blocks, workers=workers)


def assert_same_run(out, mesh, ref, ref_mesh):
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert a.dtype == b.dtype
        assert np.array_equal(a.re, b.re)
        assert np.array_equal(a.im, b.im)
    assert mesh.ledger.as_dict() == ref_mesh.ledger.as_dict()
    assert mesh.ledger.per_tag() == ref_mesh.ledger.per_tag()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", CASES)
def test_fft_ring_matches_per_core_loop(extents, grid, mode, workers):
    shape = md.ComputationShape(*grid)
    plan = md.create_fft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=sum(extents)), shape)
    mesh, ref_mesh = md.MeshSim(shape), md.MeshSim(shape)
    out = md.fft_forward(mesh, plan, blocks, workers=workers)
    ref = fft_forward_reference(ref_mesh, plan, blocks, workers)
    assert_same_run(out, mesh, ref, ref_mesh)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", CASES)
def test_kdft_ring_matches_per_core_loop(extents, grid, mode, workers, inverse):
    shape = md.ComputationShape(*grid)
    plan = md.create_kdft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=sum(extents) + 1), shape)
    mesh, ref_mesh = md.MeshSim(shape), md.MeshSim(shape)
    engine = md.kdft_inverse_uniform if inverse else md.kdft_forward
    out = engine(mesh, plan, blocks, workers=workers)
    ref = kdft_reference(ref_mesh, plan, blocks, workers, conjugate=inverse)
    assert_same_run(out, mesh, ref, ref_mesh)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_standalone_rings_match_per_core_loops(mode):
    # m >= P, then m < P: core i holds subsequence i either way
    for n, parts in [(16, 4), (16, 8)]:
        groups = (range(parts),)
        blocks = [rand_tensor((n // parts, 3), seed=70 + i) for i in range(parts)]

        mesh, ref_mesh = md.MeshSim(parts), md.MeshSim(parts)
        out = md.phase_adjust(mesh, blocks, mode)
        phases = [build_phase_slice(n, parts, p) for p in range(parts)]

        def phase_program(core, x):
            return (yield from _phase_steps_reference(
                core, x.astype(mode.real_dtype), 0, parts, core.rank, tuple(range(parts)),
                phases[core.rank], groups, mode, "phase",
            ))

        ref = ref_mesh.run_spmd(phase_program, blocks)
        assert_same_run(out, mesh, ref, ref_mesh)

        mesh, ref_mesh = md.MeshSim(parts), md.MeshSim(parts)
        slices = md.slice_rows(md.build_uniform(n), parts)
        out = md.one_shuffle(mesh, slices, blocks, mode)
        r = n // parts

        def shuffle_program(core, x):
            rows = slices[core.rank]
            cols = [md.ComplexTensor(rows.re[:, j * r:(j + 1) * r], rows.im[:, j * r:(j + 1) * r])
                    for j in range(parts)]
            return (yield from _shift_steps_reference(
                core, cols, x.astype(mode.real_dtype), 0, parts, core.rank, groups, mode,
                "one_shuffle",
            ))

        ref = ref_mesh.run_spmd(shuffle_program, blocks)
        assert_same_run(out, mesh, ref, ref_mesh)


@pytest.mark.parametrize("n,parts", [(64, 1), (64, 8), (64, 64), (4096, 64), (65536, 16)])
def test_unit_root_table_equals_build_phase_slice(n, parts):
    beta_map = fft.gather_positions(parts, n // parts)
    factors = fft._unit_root_factors(n, parts, beta_map, 0, 1, F64)
    slices = [build_phase_slice(n, parts, p) for p in range(parts)]
    for step in range(parts):
        table = factors(step)
        for pos in range(parts):
            b = beta_map[(pos + step) % parts]
            (f_re,), (f_im,) = table[pos]
            assert np.array_equal(f_re, slices[pos].re[:, b])
            assert np.array_equal(f_im, slices[pos].im[:, b])


@pytest.mark.parametrize("extents,grid", [((4096,), (64, 1, 1)), ((16, 16, 16), (4, 4, 4))])
def test_fft_forward_builds_each_line_set_once(monkeypatch, extents, grid):
    calls = []
    lines = ComputationShape.lines

    def counted(self, dim):
        calls.append(dim)
        return lines(self, dim)

    monkeypatch.setattr(ComputationShape, "lines", counted)
    shape = md.ComputationShape(*grid)
    plan = md.create_fft_plan(shape, extents)
    blocks, _ = md.decompose(rand_tensor(extents, seed=5), shape)
    md.fft_forward(md.MeshSim(shape), plan, blocks)
    assert sorted(calls) == list(range(len(extents)))


def test_cores_that_disagree_on_a_ring_raise():
    mesh = md.MeshSim(2)
    groups = ((0, 1),)
    x = [rand_tensor((2,), seed=i) for i in range(2)]
    variants = {
        "steps": lambda core: Ring(groups, x[core.rank], keep_held, 1 + core.rank),
        "tag": lambda core: Ring(groups, x[core.rank], keep_held, 1, f"t{core.rank}"),
        "groups": lambda core: Ring(
            groups if core.rank else ((0,), (1,)), x[core.rank], keep_held, 1),
        "table": lambda core: Ring(
            groups, x[core.rank], keep_held, 1, "", (lambda step: step) if core.rank else None),
    }
    for request in variants.values():
        with pytest.raises(md.ProtocolError):
            mesh.run_spmd(lambda core, _: (yield request(core)))
    # a Ring and an AllToAll are different collectives
    with pytest.raises(md.ProtocolError):
        mesh.run_spmd(lambda core, _: (
            yield AllToAll(((0, 1),), x[core.rank]) if core.rank
            else Ring(groups, x[0], keep_held, 1)))


def test_ring_runs_every_step_kernel_with_its_table():
    # member i receives from member i+1; the table is computed once per step
    mesh = md.MeshSim(3)
    groups = ((0, 1, 2),)
    tables = []

    def table(step):
        tables.append(step)
        return 10 * step

    def kernel(step, held, acc, t):
        return (acc or []) + [(step, float(held.re[0]), t)]

    def program(core, x):
        return (yield Ring(groups, x, kernel, 2, "r", table))

    out = mesh.run_spmd(program, [md.ComplexTensor([float(i)], [0.0]) for i in range(3)],
                        workers=2)
    assert out[0] == [(0, 0.0, 0), (1, 1.0, 10), (2, 2.0, 20)]
    assert out[2] == [(0, 2.0, 0), (1, 0.0, 10), (2, 1.0, 20)]
    assert tables == [0, 1, 2]
    assert mesh.ledger.per_tag()["r"]["permute_count"] == 2
    assert mesh.ledger.bytes_moved == 2 * 3 * 16


def test_ring_accumulators_survive_thread_switching():
    # more workers than host cores and a tiny switch interval: a lost update
    # to any core's accumulator changes its sum
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mesh = md.MeshSim(16)
        groups = (range(16),)

        def kernel(step, held, acc, table):
            return (acc or 0) + int(held.re[0]) * (step + 1)

        inputs = [md.ComplexTensor([float(c)], [0.0]) for c in range(16)]
        out = mesh.run_spmd(lambda core, x: (yield Ring(groups, x, kernel, 15)),
                            inputs, workers=8)
    finally:
        sys.setswitchinterval(old)
    assert out == [sum((c + s) % 16 * (s + 1) for s in range(16)) for c in range(16)]
    assert mesh.ledger.permute_count == 15
