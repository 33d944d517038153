"""The mesh ring against the per-core ring loops it replaced.

The references below run the engines' earlier per-core schedule: one
single-step permute per ring step, and between them every core's own step
kernel (``scale_along_axis`` on a column of its ``build_phase_slice`` block,
or one ``contract``). The ring with its step table must give the same bits,
the same ledger and the same per-tag ledger.
"""

import os
import sys

import numpy as np
import pytest

import meshdft as md
from meshdft import fft
from meshdft.ctensor import contract, scale_along_axis
from meshdft.decomposition import ComputationShape
from meshdft.fft import local_fft_flops
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


def keep_held(core, step, held, acc, table):
    return held


def _phase_steps_reference(mesh, each, xs, axis, parts, positions, beta_map, phases, groups,
                           mode, tag):
    def term(c, x, s):
        b = beta_map[(positions[c] + s) % parts]
        col = md.ComplexTensor(phases[c].re[:, b], phases[c].im[:, b])
        return scale_along_axis(x, axis, col, mode)

    def first(c, x):
        acc = term(c, x, 0)
        return np.array(acc.re), np.array(acc.im)

    accs = each(first, xs)
    mesh.ledger.add_flops("einsum", sum(4 * x.size for x in xs), tag)
    for s in range(1, parts):
        xs = mesh.ring(each, groups, xs, keep_held, 1, tag)

        def add(c, x):
            t = term(c, x, s)
            np.add(accs[c][0], t.re, out=accs[c][0])
            np.add(accs[c][1], t.im, out=accs[c][1])

        each(add, xs)
        mesh.ledger.add_flops("einsum", sum(4 * x.size for x in xs), tag)
    return [md.ComplexTensor(*acc) for acc in accs]


def fft_forward_reference(mesh, plan, blocks, workers):
    mode = plan.precision
    phase = {
        (d, pos): build_phase_slice(plan.extents[d], plan.shape.dims[d], pos)
        for d in range(plan.rank) for pos in range(plan.shape.dims[d])
    }
    coords = [plan.shape.coords(c) for c in range(mesh.num_cores)]
    with mesh.cores(workers) as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), blocks)
        for d in range(plan.rank):
            parts = plan.shape.dims[d]
            m = plan.extents[d] // parts
            positions = [pos[d] for pos in coords]
            tag = f"dim{d + 1}"
            lines = plan.shape.lines(d)
            xs = mesh.all_to_all_groups(
                fft._gather_groups(lines, parts, m), xs, split_axis=d, tag=tag
            )
            xs = each(lambda c, x: md.local_fft(x, axis=d, mode=mode), xs)
            flops = sum(local_fft_flops(m, x.size // m) for x in xs)
            mesh.ledger.add_flops("local_fft", flops, tag)
            xs = _phase_steps_reference(
                mesh, each, xs, d, parts, positions, plan.beta_maps[d],
                [phase[(d, pos)] for pos in positions], lines, mode, tag,
            )
    return xs


def _shift_steps_reference(mesh, each, cols, xs, axis, parts, positions, groups, mode, tag):
    def tally(xs, s):
        matrices = [cols[c][(positions[c] + s) % parts] for c in range(len(xs))]
        mesh.ledger.add_flops("einsum", sum(
            4 * v.shape[0] * v.shape[1] * (x.size // x.shape[axis])
            for v, x in zip(matrices, xs)
        ), tag)

    accs = each(lambda c, x: contract(cols[c][positions[c]], x, axis=axis, mode=mode), xs)
    tally(xs, 0)
    for s in range(1, parts):
        xs = mesh.ring(each, groups, xs, keep_held, 1, tag)
        accs = each(lambda c, x: accs[c].add(
            contract(cols[c][(positions[c] + s) % parts], x, axis=axis, mode=mode)), xs)
        tally(xs, s)
    return accs


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
    coords = [plan.shape.coords(c) for c in range(mesh.num_cores)]
    with mesh.cores(workers) as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), blocks)
        for d in range(plan.rank):
            positions = [pos[d] for pos in coords]
            xs = _shift_steps_reference(
                mesh, each, [cols[(d, pos)] for pos in positions], xs, d,
                plan.shape.dims[d], positions, plan.shape.lines(d), mode, f"dim{d + 1}",
            )
        if conjugate:
            xs = each(lambda c, x: x.scaled(1.0 / plan.total_elements), xs)
    return xs


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


def test_ring_runs_every_step_kernel_with_its_table():
    # member i receives from member i+1; the table is computed once per step
    mesh = md.MeshSim(3)
    groups = ((0, 1, 2),)
    tables = []

    def table(step):
        tables.append(step)
        return 10 * step

    def kernel(core, step, held, acc, t):
        return (acc or []) + [(step, float(held.re[0]), t)]

    with mesh.cores(workers=2) as each:
        xs = [md.ComplexTensor([float(i)], [0.0]) for i in range(3)]
        out = mesh.ring(each, groups, xs, kernel, 2, "r", table)
    assert out[0] == [(0, 0.0, 0), (1, 1.0, 10), (2, 2.0, 20)]
    assert out[2] == [(0, 2.0, 0), (1, 0.0, 10), (2, 1.0, 20)]
    assert tables == [0, 1, 2]
    assert mesh.ledger.per_tag()["r"]["permute_count"] == 2
    assert mesh.ledger.bytes_moved == 2 * 3 * 16


def test_ring_accumulators_survive_thread_switching(monkeypatch):
    # more workers than host cores and a tiny switch interval: a lost update
    # to any core's accumulator changes its sum
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mesh = md.MeshSim(16)
        groups = (range(16),)

        def kernel(core, step, held, acc, table):
            return (acc or 0) + int(held.re[0]) * (step + 1)

        inputs = [md.ComplexTensor([float(c)], [0.0]) for c in range(16)]
        with mesh.cores(workers=8) as each:
            out = mesh.ring(each, groups, inputs, kernel, 15)
    finally:
        sys.setswitchinterval(old)
    assert out == [sum((c + s) % 16 * (s + 1) for s in range(16)) for c in range(16)]
    assert mesh.ledger.permute_count == 15
