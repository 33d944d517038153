"""Memory bounds on plan builds, the kdft inverse, one contraction, and the fft path.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every temporary plane a call makes.
"""

import tracemalloc

import numpy as np

import meshdft as md
from meshdft.ctensor import contract
from helpers import BF16, F32, rand_tensor


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
    return sum(
        term.nbytes for blocks in plan.col_blocks.values() for b in blocks for term in b.re + b.im
    )


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
    # phase factors come from the length-N unit-root table at run time; a plan
    # of per-core phase blocks would hold 16*N*P bytes (256 MiB here)
    n, parts = 65536, 256
    shape = md.ComputationShape(parts, 1, 1)
    _, peak = _peak_bytes(lambda: md.create_fft_plan(shape, (n,)))
    assert peak <= 16 * n
