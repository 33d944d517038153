"""Direct (quadratic) parallel transform built from row-sliced matrices.

Each core owns a contiguous row slice of the transform matrix for every
dimension. One dimension at a time, cores run the shift-by-one schedule:
contract the column block matching the payload currently held, pass the
payload one step around the ring, repeat until every column block has been
applied. P cores need exactly P-1 permutes per dimension and never hold
more than one remote block at a time. A dimension's whole schedule is one
mesh ring (:func:`meshdft.mesh._shift_ring`, which fft's P-point DFT across
cores shares), whose kernel makes one batched matrix product per slab of
cores, step and matrix plane: every core of the slab applies a same-shaped
block.
"""

from dataclasses import dataclass
import math

import numpy as np

from .ctensor import PrecisionMode, _check_finite
from .decomposition import Blocks, ComputationShape
from .errors import UnsupportedOperationError
from .mesh import _check_blocks, _check_plan, _forward
from .vandermonde import SamplePoints, _nonuniform_rows, _unit_roots


@dataclass(frozen=True)
class KdftPlan:
    """Every dimension's column blocks of every position's row slice, in ring-step order.

    ``ring_blocks[d]`` holds the :meth:`PrecisionMode.prepare` terms of the re and
    im planes as stacked ``(P, P, w, w)`` arrays (P cores along d, w = N/P):
    entry ``[s, i]`` is column block i of the row slice of position
    (i - s) mod P, the block that the core holding position i's payload
    applies at ring step s. The terms are cast to the precision's real dtype,
    and under bf16split3 are the split terms only, so no ring step casts or
    splits a plan block.
    """

    shape: ComputationShape
    extents: tuple
    samples: tuple
    precision: PrecisionMode
    ring_blocks: tuple
    stage_names = ("shift ring", "shift ring")

    @property
    def rank(self):
        return len(self.extents)

    def _ring_stage(self, mesh, each, xs, d, lines, view, tag):
        """Dimension d's ring operand, each slab's :func:`_operand`, and its step blocks,
        entry s of ``ring_blocks[d]``'s stacks (:func:`meshdft.mesh._forward`)."""
        mode, terms = self.precision, self.ring_blocks[d]
        core_bytes = 2 * mode.real_dtype.itemsize * math.prod(xs[0].shape[1:])
        held = each(lambda box: _operand(box, xs, d, view, mode), view, core_bytes)
        return held, lambda s: [[t[s] for t in plane] for plane in terms]

    @property
    def total_elements(self):
        return int(np.prod(self.extents))

    def all_uniform(self):
        return all(s.is_uniform for s in self.samples)


def _as_samples(spec):
    if isinstance(spec, SamplePoints):
        return spec
    if isinstance(spec, int):
        return SamplePoints.uniform(spec)
    return SamplePoints.explicit(spec)


def _ring_blocks(samples, parts, mode):
    """One dimension's prepared (re terms, im terms) in ring-step order (:class:`KdftPlan`).

    Uniform blocks are gathered from the unit-root table, tiled twice and
    prepared once: :meth:`PrecisionMode.prepare` works entry by entry, so a
    gathered prepared entry is the prepared gathered one. Row k's entry in
    column j*w + b has exponent (k*b mod n) + (k*j*w mod n), below 2n, held
    in the smallest unsigned dtype; the build's int64 temporaries are one
    position's w x w block. Explicit points build one position's row slice
    of complex powers at a time and prepare each block of it.
    """
    n = len(samples)
    w, k = n // parts, np.arange(n, dtype=np.int64)
    if samples.is_uniform:
        tables = [t for table in _unit_roots(n) for t in mode.prepare(np.tile(table, 2))]
        stacks = [np.empty((parts, parts, w, w), t.dtype) for t in tables]
        exponents = np.empty((w, w), np.min_scalar_type(2 * n - 1))
        for pos in range(parts):
            rows = k[pos * w:(pos + 1) * w, None]
            within = np.mod(rows * k[:w], n).astype(exponents.dtype)
            for j in range(parts):
                np.add(within, np.mod(rows * (j * w), n).astype(exponents.dtype), out=exponents)
                for stack, table in zip(stacks, tables):
                    np.take(table, exponents, out=stack[(j - pos) % parts, j], mode="clip")
    else:
        stacks = []
        for pos in range(parts):
            v = _nonuniform_rows(samples.points[pos * w:(pos + 1) * w], n)
            for j in range(parts):
                block = v[:, j * w:(j + 1) * w]
                terms = mode.prepare(block.real) + mode.prepare(block.imag)
                stacks = stacks or [np.empty((parts, parts, w, w), t.dtype) for t in terms]
                for stack, term in zip(stacks, terms):
                    stack[(j - pos) % parts, j] = term
            del v  # before the next row slice is built
    return tuple(stacks[:len(stacks) // 2]), tuple(stacks[len(stacks) // 2:])


def create_kdft_plan(shape, samples_per_dim, precision=PrecisionMode.F64_REFERENCE):
    """Build per-core matrix slices for a 1-, 2-, or 3-D transform."""
    samples = tuple(_as_samples(s) for s in samples_per_dim)
    extents = tuple(len(s) for s in samples)
    _check_plan(shape, precision, extents)
    ring_blocks = tuple(_ring_blocks(s, p, precision) for s, p in zip(samples, shape.dims))
    return KdftPlan(shape, extents, samples, precision, ring_blocks)


def _operand(box, xs, axis, view, mode):
    """A slab's ring operand (:func:`meshdft.mesh._shift_ring`): its cores' payloads,
    prepared once, moved so that ``axis`` leads and with re|im side by side."""
    block = xs[0].shape[1:]
    moved = [np.moveaxis(p.reshape(view + block)[box], 3 + axis, 3) for p in xs]
    x = np.empty(moved[0].shape[:4] + (2,) + moved[0].shape[4:], mode.real_dtype)
    np.stack(moved, axis=4, out=x)
    return mode.prepare(x.reshape(x.shape[:4] + (-1,)))


def kdft_forward(mesh, plan, blocks, workers=1, trace=None):
    """Run the forward transform on :class:`Blocks` (or a per-core list); returns the
    frequency blocks as :class:`Blocks`.

    Output block p covers contiguous frequency rows [p*N/P, (p+1)*N/P) along
    each distributed dimension.

    A ``trace`` list gets one record per ring step, dimension by dimension:
    ``{"einsums": [{"core", "v_col", "x_first"}, ...], "pairs": ...}``.
    ``einsums`` holds every core in core order: the column block it
    contracts (the ring position its payload started at) and the first
    element of that payload. ``pairs`` holds the (source, target) cores of
    the permute after the step, over every grid line of the dimension, or
    None at the last step.
    """
    return _forward(mesh, plan, blocks, workers, trace)


def kdft_inverse_uniform(mesh, plan, blocks, workers=1):
    """Inverse transform (uniform sampling only): ``conj(forward(conj(x))) / N``.

    Every precision mode rounds symmetrically, so the bits are those of
    contracting with conjugated column blocks, and no conjugated copy of the
    plan is made. Each conjugation negates the im plane once.
    """
    blocks = _check_blocks(mesh, plan, blocks)
    if not plan.all_uniform():
        raise UnsupportedOperationError(
            "inverse requires uniform sampling on every dimension"
        )
    out = kdft_forward(mesh, plan, Blocks._own(blocks.re, -blocks.im), workers=workers)
    factor = out.dtype.type(1.0 / plan.total_elements)
    planes = (out.re * factor, -out.im * factor)
    _check_finite(*planes)
    return Blocks._own(*planes)
