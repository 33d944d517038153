"""The engines' rings against plain per-core loops.

The references below run each engine on lists of per-core tensors, with one
Python loop over the cores of every grid line at every ring step, and keep
their own :class:`CommLedger`; they call neither ``MeshSim.ring`` nor
``each``. Each step's kernel is a per-core one: for fft, one real product of
the payload's rows re and im with its coefficient c as the 2x2 block
[[c_re, -c_im], [c_im, c_re]], c being row 0 of a column of the holder's
``build_phase_slice`` block (each core's local FFT having applied the rest
of the column, its twiddles); for kdft, one ``contract`` that prepares both
operands again. The engines must give the same bits, the same ledger and the
same per-tag ledger. Where every line has at most 4 cores the coefficients
are 1, -1, i and -i, and fft also gives the bits of ``complex_product``, the
four elementwise products its ring made before.
"""

import itertools
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
from helpers import BF16, F32, F64, rand_tensor
from reference import (
    build_phase_slice, column_blocks, complex_product, contract, twiddled_local_fft,
)

MODES = [F64, F32, BF16]


def _add(a, b):
    """The sum of two tensors, plane by plane, as a ring adds a term into its sums."""
    return md.ComplexTensor(a.re + b.re, a.im + b.im)

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


def _block_step(c_re, c_im, x, axis, mode):
    """One core's ring term: the real 2x2 block of c times the payload's rows re and im."""
    block = mode.prepare(np.array([[c_re, -c_im], [c_im, c_re]]))
    moved = [np.moveaxis(p, axis, 0) for p in (x.re, x.im)]
    rows = mode.prepare(np.stack(moved).reshape(2, -1))
    y = mode.product(block, rows, np.matmul).reshape((2,) + moved[0].shape)
    return md.ComplexTensor._own_checked(*(np.moveaxis(p, 0, axis) for p in y))


def _complex_step(c_re, c_im, x, axis, mode):
    """One core's ring term as four elementwise products of c and the payload."""
    c = (mode.prepare(np.asarray(p)) for p in (c_re, c_im))
    return md.ComplexTensor._own_checked(*complex_product(
        *c, *(mode.prepare(p) for p in (x.re, x.im)), mode))


def fft_forward_reference(plan, blocks, step_term=_block_step):
    """``fft_forward`` as per-core loops, in four steps per dimension: the gather,
    each core's local FFT with its twiddles, then the P-point DFT across each
    line as a ring of constant coefficient columns, each core's term made by
    ``step_term``. Returns (blocks, ledger)."""
    mode, ledger = plan.precision, CommLedger()
    xs = [b.astype(mode.real_dtype) for b in blocks]
    for d in range(plan.rank):
        n, parts = plan.extents[d], plan.shape.dims[d]
        m, lines, tag = n // parts, plan.shape.lines(d), f"dim{d + 1}"
        beta_map = md.gather_positions(parts, m)
        xs = _gather_reference(ledger, xs, lines, d, parts, m, tag)
        for line in lines:
            for pos, core in enumerate(line):
                xs[core] = twiddled_local_fft(xs[core], d, parts, pos, mode)
        ledger.add_flops("local_fft", sum(local_fft_flops(m, x.size // m) for x in xs), tag)
        # row 0 of a phase slice, w_N**(b*p*m), is what the twiddle leaves
        phase = [build_phase_slice(n, parts, pos) for pos in range(parts)]
        sums = [None] * len(xs)
        for step in range(parts):
            if step:
                ledger.record_permute(sum(x.nbytes for x in xs), tag=tag)
            for line in lines:
                for pos, core in enumerate(line):
                    # this position holds the payload that started step positions on
                    b, x = beta_map[(pos + step) % parts], xs[line[(pos + step) % parts]]
                    term = step_term(phase[pos].re[0, b], phase[pos].im[0, b], x, d, mode)
                    sums[core] = term if sums[core] is None else _add(sums[core], term)
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
            for b in column_blocks(plan.extents[d], plan.shape.dims[d], pos, mode.real_dtype)
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
                    sums[core] = term if sums[core] is None else _add(sums[core], term)
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


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("extents,grid", [c for c in CASES if max(c[1]) <= 4])
def test_fft_ring_keeps_the_elementwise_bits_on_lines_of_at_most_4_cores(extents, grid, mode):
    # a 2x2 block of 1, -1, i or -i has one nonzero product per row, so its
    # two-term dot rounds as the elementwise products did
    shape = md.ComputationShape(*grid)
    plan = md.create_fft_plan(shape, extents, mode)
    blocks, _ = md.decompose(rand_tensor(extents, seed=sum(extents)), shape)
    mesh = md.MeshSim(shape)
    out = md.fft_forward(mesh, plan, blocks)
    assert_same_run(out, mesh, *fft_forward_reference(plan, blocks, _complex_step))


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
@pytest.mark.parametrize("extents,grid", [
    ((16,), (8, 1, 1)), ((8, 8, 8), (2, 2, 2)), ((16, 4, 8), (8, 1, 2)),
])
def test_rings_match_per_core_loops_with_one_core_per_slab(monkeypatch, extents, grid, workers):
    # slabs of one, two and four cores, so that a ring step writes across
    # slabs and a slab of the fft gather's view (on 8x1x2 for m < P, other
    # than the lines' view) finds its cores' line positions
    shape = md.ComputationShape(*grid)
    blocks, _ = md.decompose(rand_tensor(extents, seed=7), shape)
    for mode, cores in itertools.product(MODES, (1, 2, 4)):
        core_bytes = 2 * mode.real_dtype.itemsize * blocks[0].size
        monkeypatch.setattr(mesh_module, "SLAB_BYTES", cores * core_bytes)
        plan = md.create_fft_plan(shape, extents, mode)
        mesh = md.MeshSim(shape)
        out = md.fft_forward(mesh, plan, blocks, workers=workers)
        assert_same_run(out, mesh, *fft_forward_reference(plan, blocks))
        plan = md.create_kdft_plan(shape, extents, mode)
        mesh = md.MeshSim(shape)
        out = md.kdft_forward(mesh, plan, blocks, workers=workers)
        assert_same_run(out, mesh, *kdft_reference(plan, blocks, conjugate=False))


@pytest.mark.parametrize("engine,n,planes,block", [("kdft", 1024, 2, (16, 16)), ("fft", 4096, 1, (2, 2))],
                         ids=["kdft", "fft"])
def test_shift_ring_makes_one_product_per_matrix_plane_and_step(monkeypatch, engine, n, planes, block):
    # n points on 64 cores fit one slab: one batched product per matrix plane
    # and ring step, not one per core and step. kdft's 1024 points keep its
    # plan at 8 MiB in f32, and its blocks are two planes (re, im); fft's 1x1
    # blocks are one plane of real 2x2 blocks, and its local FFT's stages are
    # products of 8x8 matrices
    calls = []
    product = md.PrecisionMode.product

    def counted(self, a, b, how, out=None):
        calls.append((how, a[0].shape[-2:]))
        return product(self, a, b, how, out)

    shape = md.ComputationShape(64, 1, 1)
    create, forward = {"kdft": (md.create_kdft_plan, md.kdft_forward),
                       "fft": (md.create_fft_plan, md.fft_forward)}[engine]
    plan = create(shape, (n,), F32)
    blocks, _ = md.decompose(rand_tensor((n,), seed=9), shape)
    monkeypatch.setattr(md.PrecisionMode, "product", counted)
    forward(md.MeshSim(shape), plan, blocks, workers=1)
    assert calls.count((np.matmul, block)) == planes * 64
    assert all(call in ((np.matmul, block), (np.matmul, (8, 8))) for call in calls)


@pytest.mark.parametrize("n,parts", [
    (64, 1), (64, 8), (64, 64), (4096, 64), (65536, 16), (1024, 256),
])
def test_unit_root_table_equals_build_phase_slice(n, parts):
    # at step s the payload that started at position i sits at (i - s) mod P,
    # whose row r takes w_N**(b*(p*m + r)): the twiddle w_N**(b*r) is in the
    # local FFT, and the ring's coefficient c is row 0 of the phase slice,
    # applied as the real block [[c_re, -c_im], [c_im, c_re]]
    beta_map = fft.gather_positions(parts, n // parts)
    coefficients = fft._ring_coefficients(*fft._ring_table(n, parts, F64))
    slices = [build_phase_slice(n, parts, p) for p in range(parts)]
    for step in range(parts):
        ((got,),) = coefficients(step)
        assert got.shape == (parts, 2, 2) and got.dtype == np.float64
        c = [slices[(i - step) % parts] for i in range(parts)]
        c_re, c_im = ([getattr(s, plane)[0, b] for s, b in zip(c, beta_map)] for plane in ("re", "im"))
        want = np.array([[[r, -i], [i, r]] for r, i in zip(c_re, c_im)])
        assert got.tobytes() == want.tobytes()


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
