"""The engines' rings against plain per-core loops.

The references below run each engine on lists of per-core tensors, with one
Python loop over the cores of every grid line at every ring step, and keep
their own :class:`CommLedger`; they call neither ``MeshSim.ring`` nor
``each``. Each step's kernel is the earlier per-core one:
``scale_along_axis`` on a column of the core's ``build_phase_slice`` block,
or one ``contract`` that prepares both operands again. The engines must give
the same bits, the same ledger and the same per-tag ledger.
"""

import math
import os
import sys

import numpy as np
import pytest

import meshdft as md
from meshdft import fft
from meshdft import mesh as mesh_module
from meshdft.decomposition import ComputationShape
from meshdft.fft import local_fft_flops
from meshdft.mesh import CommLedger
from meshdft.vandermonde import column_blocks
from helpers import BF16, F32, F64, rand_tensor
from reference import build_phase_slice, contract, scale_along_axis

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


def _gather_reference(ledger, xs, lines, axis, parts, m, tag):
    """The decimating all_to_all: within every stride-th core of a line, member
    i receives slices i, i+k, ... of every member's block, joined in order."""
    stride = parts // math.gcd(parts, m)
    out = list(xs)
    for line in lines:
        for r in range(stride):
            group = line[r::stride]
            for i, c in enumerate(group):
                idx = (slice(None),) * axis + (slice(i, None, len(group)),)
                out[c] = md.ComplexTensor(
                    np.concatenate([xs[s].re[idx] for s in group], axis=axis),
                    np.concatenate([xs[s].im[idx] for s in group], axis=axis),
                )
    ledger.record_all_to_all(sum(x.nbytes for x in xs), tag=tag)
    return out


def fft_forward_reference(plan, blocks):
    """``fft_forward`` as per-core loops; returns (blocks, ledger)."""
    mode, ledger = plan.precision, CommLedger()
    xs = [b.astype(mode.real_dtype) for b in blocks]
    for d in range(plan.rank):
        n, parts = plan.extents[d], plan.shape.dims[d]
        m, lines, tag = n // parts, plan.shape.lines(d), f"dim{d + 1}"
        xs = _gather_reference(ledger, xs, lines, d, parts, m, tag)
        xs = [md.local_fft(x, axis=d, mode=mode) for x in xs]
        ledger.add_flops("local_fft", sum(local_fft_flops(m, x.size // m) for x in xs), tag)
        phase = [build_phase_slice(n, parts, pos) for pos in range(parts)]
        sums = [None] * len(xs)
        for step in range(parts):
            if step:
                ledger.record_permute(sum(x.nbytes for x in xs), tag=tag)
            for line in lines:
                for pos, core in enumerate(line):
                    # this position holds the payload that started step positions on
                    b = plan.beta_maps[d][(pos + step) % parts]
                    col = md.ComplexTensor(phase[pos].re[:, b], phase[pos].im[:, b])
                    term = scale_along_axis(xs[line[(pos + step) % parts]], d, col, mode)
                    sums[core] = term if sums[core] is None else sums[core] + term
        ledger.add_flops("einsum", sum(4 * x.size * parts for x in xs), tag)
        xs = sums
    return xs, ledger


def kdft_reference(plan, blocks, conjugate):
    """``kdft_forward`` as per-core loops, or with ``conjugate`` its inverse:
    conjugated column blocks, then 1/N. Returns (blocks, ledger)."""
    mode, ledger = plan.precision, CommLedger()
    # the plan's blocks as tensors, so that every contraction prepares (under
    # bf16split3, splits) both of its operands again
    cols = {
        (d, pos): [
            b.conj() if conjugate else b
            for b in column_blocks(plan.samples[d], plan.shape.dims[d], pos, mode.real_dtype)
        ]
        for d in range(plan.rank) for pos in range(plan.shape.dims[d])
    }
    xs = [b.astype(mode.real_dtype) for b in blocks]
    for d in range(plan.rank):
        parts, tag = plan.shape.dims[d], f"dim{d + 1}"
        sums = [None] * len(xs)
        for step in range(parts):
            if step:
                ledger.record_permute(sum(x.nbytes for x in xs), tag=tag)
            for line in plan.shape.lines(d):
                for pos, core in enumerate(line):
                    j = (pos + step) % parts
                    term = contract(cols[(d, pos)][j], xs[line[j]], axis=d, mode=mode)
                    sums[core] = term if sums[core] is None else sums[core] + term
        ledger.add_flops("einsum", sum(4 * x.shape[d] * x.size * parts for x in xs), tag)
        xs = sums
    if conjugate:
        xs = [x.scaled(1.0 / plan.total_elements) for x in xs]
    return xs, ledger


def assert_same_run(out, mesh, ref, ref_ledger):
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert a.dtype == b.dtype
        assert np.array_equal(a.re, b.re)
        assert np.array_equal(a.im, b.im)
    assert mesh.ledger.as_dict() == ref_ledger.as_dict()
    assert mesh.ledger.per_tag() == ref_ledger.per_tag()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", CASES)
def test_fft_ring_matches_per_core_loop(extents, grid, mode, workers):
    shape = md.ComputationShape(*grid)
    plan = md.create_fft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=sum(extents)), shape)
    mesh = md.MeshSim(shape)
    out = md.fft_forward(mesh, plan, blocks, workers=workers)
    assert_same_run(out, mesh, *fft_forward_reference(plan, blocks))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", CASES)
def test_kdft_ring_matches_per_core_loop(extents, grid, mode, workers, inverse):
    shape = md.ComputationShape(*grid)
    plan = md.create_kdft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=sum(extents) + 1), shape)
    mesh = md.MeshSim(shape)
    engine = md.kdft_inverse_uniform if inverse else md.kdft_forward
    out = engine(mesh, plan, blocks, workers=workers)
    assert_same_run(out, mesh, *kdft_reference(plan, blocks, conjugate=inverse))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("extents,grid", [((16,), (8, 1, 1)), ((8, 8, 8), (2, 2, 2))])
def test_rings_match_per_core_loops_with_one_core_per_slab(monkeypatch, extents, grid, workers):
    # slabs of one core each, so that a ring step writes across slabs
    monkeypatch.setattr(mesh_module, "SLAB_BYTES", 1)
    shape = md.ComputationShape(*grid)
    blocks, _ = md.decompose(rand_tensor(extents, seed=7), shape)
    for mode in MODES:
        plan = md.create_fft_plan(shape, extents, mode)
        mesh = md.MeshSim(shape)
        out = md.fft_forward(mesh, plan, blocks, workers=workers)
        assert_same_run(out, mesh, *fft_forward_reference(plan, blocks))
        plan = md.create_kdft_plan(shape, extents, mode)
        mesh = md.MeshSim(shape)
        out = md.kdft_forward(mesh, plan, blocks, workers=workers)
        assert_same_run(out, mesh, *kdft_reference(plan, blocks, conjugate=False))


def test_phase_ring_makes_one_product_per_step(monkeypatch):
    # 4096 points on 64 cores fit one slab: one product per ring step, not
    # one per core and step
    calls = []
    product = fft._complex_product

    def counted(*args, **kwargs):
        calls.append(1)
        return product(*args, **kwargs)

    monkeypatch.setattr(fft, "_complex_product", counted)
    shape = md.ComputationShape(64, 1, 1)
    plan = md.create_fft_plan(shape, (4096,), F32)
    blocks, _ = md.decompose(rand_tensor((4096,), seed=9), shape)
    md.fft_forward(md.MeshSim(shape), plan, blocks, workers=1)
    assert len(calls) == 64


def test_shift_ring_makes_one_product_per_matrix_plane_and_step(monkeypatch):
    # 1024 points on 64 cores fit one slab: two batched products (m_re and
    # m_im) per ring step, not two per core and step; 1024 points rather
    # than 4096 keep the plan at 8 MiB in f32
    calls = []
    product = md.PrecisionMode.product

    def counted(self, *args, **kwargs):
        calls.append(1)
        return product(self, *args, **kwargs)

    shape = md.ComputationShape(64, 1, 1)
    plan = md.create_kdft_plan(shape, (1024,), F32)
    blocks, _ = md.decompose(rand_tensor((1024,), seed=9), shape)
    monkeypatch.setattr(md.PrecisionMode, "product", counted)
    md.kdft_forward(md.MeshSim(shape), plan, blocks, workers=1)
    assert len(calls) == 2 * 64


@pytest.mark.parametrize("n,parts", [(64, 1), (64, 8), (64, 64), (4096, 64), (65536, 16)])
def test_unit_root_table_equals_build_phase_slice(n, parts):
    # at step s the payload that started at position i sits at (i - s) mod P
    beta_map = fft.gather_positions(parts, n // parts)
    factors = fft._unit_root_factors(n, parts, beta_map, 0, 1, F64)
    slices = [build_phase_slice(n, parts, p) for p in range(parts)]
    for step in range(parts):
        (f_re,), (f_im,) = factors(step)
        for i in range(parts):
            pos, b = (i - step) % parts, beta_map[i]
            assert np.array_equal(f_re[0, i, 0], slices[pos].re[:, b])
            assert np.array_equal(f_im[0, i, 0], slices[pos].im[:, b])


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
    # member i receives from member i+1; the table is computed once per step,
    # and one core per slab spreads the kernels over both threads
    mesh = md.MeshSim(3)
    groups = ((0, 1, 2),)
    tables, seen = [], [[] for _ in range(3)]

    def table(step):
        tables.append(step)
        return 10 * step

    def kernel(step, box, held, moves, t):
        for src, (_, dst, _) in moves:
            for value, core in zip(held[src], range(3)[dst]):
                seen[core].append((step, float(value), t))

    x, one_core = np.arange(3.0), mesh_module.SLAB_BYTES
    with mesh.cores(workers=2) as each:
        held = each(lambda box: x[box[1]], (1, 3, 1), one_core)
        mesh.ring(each, groups, held, one_core, kernel, 2, "r", table)
    assert seen[0] == [(0, 0.0, 0), (1, 1.0, 10), (2, 2.0, 20)]
    assert seen[2] == [(0, 2.0, 0), (1, 0.0, 10), (2, 1.0, 20)]
    assert tables == [0, 1, 2]
    assert mesh.ledger.per_tag()["r"]["permute_count"] == 2
    assert mesh.ledger.bytes_moved == 2 * 3 * one_core


def test_ring_accumulators_survive_thread_switching(monkeypatch):
    # more workers than host cores and a tiny switch interval: a lost update
    # to any core's sum changes it
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    one_core = mesh_module.SLAB_BYTES
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mesh = md.MeshSim(16)
        groups = (range(16),)
        x, sums = np.arange(16), np.zeros(16, dtype=np.int64)

        def kernel(step, box, held, moves, table):
            for src, (_, dst, _) in moves:
                sums[dst] += held[src] * (step + 1)

        with mesh.cores(workers=8) as each:
            held = each(lambda box: x[box[1]], (1, 16, 1), one_core)
            mesh.ring(each, groups, held, one_core, kernel, 15)
    finally:
        sys.setswitchinterval(old)
    assert sums.tolist() == [sum((c + s) % 16 * (s + 1) for s in range(16)) for c in range(16)]
    assert mesh.ledger.permute_count == 15
