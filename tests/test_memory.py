"""Memory bounds on the kdft plan build and on one contraction.

numpy reports its array allocations to tracemalloc, so the traced peak
covers every temporary plane a call makes.
"""

import tracemalloc

import numpy as np

import meshdft as md
from helpers import rand_tensor


def _peak_bytes(fn):
    """(result, traced peak during ``fn`` above what was allocated before it)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before


def test_plan_build_peaks_near_its_column_blocks():
    n, parts = 1024, 8
    shape = md.ComputationShape(parts, 1, 1)
    plan, peak = _peak_bytes(lambda: md.create_kdft_plan(shape, (n,)))
    block_bytes = sum(b.nbytes for blocks in plan.col_blocks.values() for b in blocks)
    assert block_bytes == 16 * n * n
    assert peak <= 1.25 * block_bytes


def test_contract_allocates_little_beyond_its_inputs():
    matrix = rand_tensor((128, 128), seed=80)
    x = rand_tensor((128,), seed=81)
    _, peak = _peak_bytes(lambda: md.contract(matrix, x))
    assert peak <= 0.25 * matrix.nbytes
