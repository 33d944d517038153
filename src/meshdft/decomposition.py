"""Core grids and block decomposition of global tensors.

A computation shape (P1, P2, P3) arranges cores in a (possibly degenerate)
3-D grid. Tensors are split into equal contiguous blocks, one per core.
"""

from dataclasses import dataclass

import numpy as np

from .ctensor import ComplexTensor
from .errors import ArgumentError, AssemblyError, PlanError


@dataclass(frozen=True)
class ComputationShape:
    """Core counts along each tensor dimension; flat ids are row-major."""

    p1: int = 1
    p2: int = 1
    p3: int = 1

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p3):
            if not isinstance(p, int) or p < 1:
                raise ArgumentError(f"core counts must be positive ints, got {p!r}")

    @property
    def dims(self):
        return (self.p1, self.p2, self.p3)

    @property
    def num_cores(self):
        return self.p1 * self.p2 * self.p3

    def coords(self, flat):
        if not 0 <= flat < self.num_cores:
            raise ArgumentError(f"core id {flat} out of range")
        c3 = flat % self.p3
        c2 = (flat // self.p3) % self.p2
        c1 = flat // (self.p2 * self.p3)
        return (c1, c2, c3)

    def lines(self, dim):
        """Groups of flat core ids that vary only along ``dim``, ordered by position."""
        if dim not in (0, 1, 2):
            raise ArgumentError(f"dim must be 0, 1, or 2, got {dim!r}")
        ids = np.arange(self.num_cores).reshape(self.dims)
        return np.moveaxis(ids, dim, -1).reshape(-1, self.dims[dim]).tolist()

    @classmethod
    def parse(cls, text):
        try:
            parts = [int(p) for p in str(text).lower().split("x")]
        except ValueError:
            raise ArgumentError(f"cannot parse shape {text!r}") from None
        if not 1 <= len(parts) <= 3:
            raise ArgumentError(f"shape must have 1..3 factors, got {text!r}")
        parts += [1] * (3 - len(parts))
        return cls(*parts)


@dataclass(frozen=True)
class BlockAssignment:
    """How a global tensor is split into per-core contiguous blocks.

    The one check that a core grid can hold a tensor's extents, for
    :func:`decompose` and for both engines' plans: it raises ``PlanError``
    unless the rank is 1..3, each distributed extent divides evenly among
    its cores, and the grid has one core along every dimension beyond the
    rank.
    """

    global_shape: tuple
    shape: ComputationShape

    def __post_init__(self):
        rank = len(self.global_shape)
        if not 1 <= rank <= 3:
            raise PlanError(f"need 1..3 dimensions, got {rank}")
        if not all(isinstance(n, int) and n >= 1 for n in self.global_shape):
            raise ArgumentError(f"global extents must be positive ints: {self.global_shape}")
        for d in range(rank, 3):
            if self.shape.dims[d] != 1:
                raise PlanError(
                    f"rank-{rank} transform cannot use {self.shape.dims[d]} cores on dim {d}"
                )
        for d, n in enumerate(self.global_shape):
            if n % self.shape.dims[d] != 0:
                raise PlanError(
                    f"extent {n} on dim {d} not divisible by {self.shape.dims[d]} cores"
                )

    @property
    def rank(self):
        return len(self.global_shape)

    @property
    def block_shape(self):
        return tuple(
            n // p for n, p in zip(self.global_shape, self.shape.dims[: self.rank])
        )

    def block_slices(self, core_id):
        coords = self.shape.coords(core_id)
        out = []
        for d in range(self.rank):
            b = self.block_shape[d]
            start = coords[d] * b
            out.append(slice(start, start + b))
        return tuple(out)


def decompose(tensor, shape):
    """Split a global tensor into one contiguous block per core.

    Returns (blocks, assignment) with blocks indexed by flat core id.
    """
    if not isinstance(tensor, ComplexTensor):
        raise ArgumentError("decompose expects a ComplexTensor")
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("decompose expects a ComputationShape")
    assignment = BlockAssignment(tuple(int(n) for n in tensor.shape), shape)
    blocks = []
    for core in range(shape.num_cores):
        sl = assignment.block_slices(core)
        # views of the input's frozen planes
        blocks.append(ComplexTensor._own(tensor.re[sl], tensor.im[sl]))
    return blocks, assignment


def gather_to_host(blocks, assignment):
    """Inverse of :func:`decompose`: stitch per-core blocks into a global tensor."""
    if not isinstance(assignment, BlockAssignment):
        raise ArgumentError("gather_to_host expects a BlockAssignment")
    num = assignment.shape.num_cores
    if len(blocks) != num:
        raise AssemblyError(f"expected {num} blocks, got {len(blocks)}")
    expected = assignment.block_shape
    dtype = None
    for core, block in enumerate(blocks):
        if not isinstance(block, ComplexTensor):
            raise AssemblyError(f"block {core} missing or not a ComplexTensor")
        if block.shape != expected:
            raise AssemblyError(
                f"block {core} has shape {block.shape}, expected {expected}"
            )
        if dtype is None:
            dtype = block.dtype
        elif block.dtype != dtype:
            raise AssemblyError("blocks disagree on dtype")
    # the blocks tile the global shape, so every element is filled
    re = np.empty(assignment.global_shape, dtype=dtype)
    im = np.empty(assignment.global_shape, dtype=dtype)
    for core, block in enumerate(blocks):
        sl = assignment.block_slices(core)
        re[sl] = block.re
        im[sl] = block.im
    return ComplexTensor._own(re, im)
