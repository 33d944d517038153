"""Memory bounds on plan builds, the kdft inverse, one contraction, and the fft path.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every temporary plane a call makes.
"""

import tracemalloc

import numpy as np

import meshdft as md
from meshdft import fft, vandermonde
from helpers import BF16, F32, rand_tensor
from reference import contract


def _traced_bytes(fn):
    """(result, traced peak during ``fn``, traced bytes still held after it),
    both above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before, held - before


def _block_bytes(plan):
    """Bytes of every term of every prepared column block of a kdft plan."""
    return sum(term.nbytes for re, im in plan.ring_blocks for term in re + im)


def _peak_bytes(fn):
    """(result, traced peak during ``fn`` above what was allocated before it)."""
    result, peak, _ = _traced_bytes(fn)
    return result, peak


def test_plan_build_peaks_near_its_column_blocks():
    n, parts = 1024, 8
    shape = md.ComputationShape(parts, 1, 1)
    plan, peak = _peak_bytes(lambda: md.create_kdft_plan(shape, (n,)))
    block_bytes = _block_bytes(plan)
    assert block_bytes == 16 * n * n
    assert peak <= 1.25 * block_bytes


def test_bf16_plan_holds_only_the_split_terms():
    # three f32 terms per plane replace the f32 planes, which do not stay alive
    n, parts = 1024, 8
    shape = md.ComputationShape(parts, 1, 1)
    f32_plan = md.create_kdft_plan(shape, (n,), F32)
    plan, peak, held = _traced_bytes(lambda: md.create_kdft_plan(shape, (n,), BF16))
    f32_bytes, block_bytes = _block_bytes(f32_plan), _block_bytes(plan)
    assert f32_bytes == 8 * n * n
    assert block_bytes == 3 * f32_bytes
    assert held <= 1.02 * block_bytes
    assert peak <= 1.1 * block_bytes


def test_contract_allocates_little_beyond_its_inputs():
    matrix = rand_tensor((128, 128), seed=80)
    x = rand_tensor((128,), seed=81)
    _, peak = _peak_bytes(lambda: contract(matrix, x))
    assert peak <= 0.25 * matrix.nbytes


def test_kdft_inverse_peaks_like_the_forward():
    # the inverse flips signs in the recombination instead of conjugating
    # every column block on every call
    n, parts = 1024, 8
    shape = md.ComputationShape(parts, 1, 1)
    plan = md.create_kdft_plan(shape, (n,))
    blocks, _ = md.decompose(rand_tensor((n,), seed=82), shape)
    _, forward = _peak_bytes(lambda: md.kdft_forward(md.MeshSim(shape), plan, blocks))
    _, inverse = _peak_bytes(
        lambda: md.kdft_inverse_uniform(md.MeshSim(shape), plan, blocks)
    )
    assert inverse <= 2 * forward


def test_local_fft_peaks_near_its_output():
    x = rand_tensor((64, 64, 64), seed=83)
    _, peak = _peak_bytes(lambda: md.local_fft(x, axis=1))
    assert peak <= 2.5 * x.nbytes


def test_fft_forward_peak():
    # the phase sum reuses its first term's planes; copying them peaks at 4.1x
    x = rand_tensor((64, 64, 64), seed=84)
    shape = md.ComputationShape(2, 2, 2)
    plan = md.create_fft_plan(shape, x.shape)
    blocks, _ = md.decompose(x, shape)
    _, peak = _peak_bytes(lambda: md.fft_forward(md.MeshSim(shape), plan, blocks))
    assert peak <= 3.3 * x.nbytes


def test_bf16_fft_forward_peak():
    # each core's payload travels its rings as three f32 terms per plane,
    # 1.5x the f64 input's bytes over all cores, and its raw f32 planes are
    # freed once split; splitting the held payload at every step instead
    # peaked at 1.37x
    x = rand_tensor((64, 64, 64), seed=84)
    shape = md.ComputationShape(2, 2, 2)
    plan = md.create_fft_plan(shape, x.shape, BF16)
    blocks, _ = md.decompose(x, shape)
    _, peak = _peak_bytes(lambda: md.fft_forward(md.MeshSim(shape), plan, blocks))
    assert peak <= 2.25 * x.nbytes


def test_fft_plan_is_linear_in_n():
    # the plan holds the length-N unit-root table (16*N bytes in f64), the
    # local FFT's stages, the last with every line position's twiddles (8*N
    # entries per plane: 128*N bytes), and the ring's P-entry tables. The
    # build's temporaries are the last stage's exponents, in the smallest
    # dtype that holds N - 1 (2 bytes an entry here: 16*N), the gather's intp
    # copy of them (64*N), and the small index arrays they are made from,
    # under 64 KiB. A plan of per-core phase blocks would hold 16*N*P bytes
    # (256 MiB at P = 256), so its peak would not be the same at P = 256 and
    # 2048
    n = 65536
    peaks = []
    for parts in (256, 2048):
        shape = md.ComputationShape(parts, 1, 1)
        fft._stage_matrices.cache_clear()
        vandermonde._unit_roots.cache_clear()
        plan, peak = _peak_bytes(lambda: md.create_fft_plan(shape, (n,)))
        stages = [sum(t.nbytes for plane in stage for t in plane) for stage in plan.stages[0]]
        table, beta = plan.ring_tables[0]
        assert stages[-1] == 128 * n
        tables = 16 * n + sum(stages) + sum(t.nbytes for t in table) + beta.nbytes
        assert peak <= tables + 80 * n + (1 << 16)
        peaks.append(peak)
        # before plans held their tables, the first forward call built them,
        # and it peaked with the plan build at 224.4*N (P = 256) and 227.2*N
        # (P = 2048)
        blocks, _ = md.decompose(rand_tensor((n,), seed=86), shape)
        fft._stage_matrices.cache_clear()
        vandermonde._unit_roots.cache_clear()
        _, first = _peak_bytes(
            lambda: md.fft_forward(md.MeshSim(shape), md.create_fft_plan(shape, (n,)), blocks))
        assert first <= 228 * n
    assert max(peaks) <= 1.01 * min(peaks)


def test_all_to_all_hands_a_kernel_views_of_the_stacked_planes():
    # the exchanged slabs are strided views: a kernel that only reads them
    # (its sum buffers 64 KiB) allocates no received planes, where a copy
    # kernel's stacked planes take two
    cores, block = 8, (32, 16, 16)
    planes = tuple(np.random.default_rng(85).standard_normal((cores,) + block) for _ in "ri")
    groups = ((0, 1, 2, 3), (4, 5, 6, 7))
    mesh = md.MeshSim(cores)
    sums, peak = _peak_bytes(lambda: mesh.all_to_all_groups(
        groups, planes, 0, "t", None, lambda box, payload: float(payload[0].sum())))
    assert len(sums) == cores // 2  # two 128 KiB cores per slab
    assert peak < planes[0].nbytes / 4
