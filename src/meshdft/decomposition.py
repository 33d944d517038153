"""Core grids and block decomposition of global tensors.

A computation shape (P1, P2, P3) arranges cores in a (possibly degenerate)
3-D grid. Tensors are split into equal contiguous blocks, one per core. A
distributed tensor is :class:`Blocks`: the blocks as two stacked planes,
the grid's axes leading, from :func:`decompose` through either engine to
:func:`gather_to_host`, with no per-core object on the way; ``blocks[i]``
makes core i's block, a view, when it is asked for.
"""

from collections.abc import Sequence
from dataclasses import dataclass
import math

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


class Blocks(Sequence):
    """A distributed tensor: one block per core, held as two stacked planes.

    ``re`` and ``im`` are read-only arrays of one float dtype shaped
    ``grid + block``: the core counts (P1, P2, P3) of the computation shape
    lead, so core (c1, c2, c3)'s block is ``re[c1, c2, c3]``. They may be
    strided, such as :func:`decompose`'s view of its input through the grid.
    ``blocks[i]`` is core i's block as a :class:`ComplexTensor` view of the
    planes, flat core ids row-major; a slice is a list of such blocks.

    Blocks are output, made by :func:`decompose` and the engines through
    :meth:`_own`; there is no public constructor. Input built outside the
    package is a per-core list of ``ComplexTensor`` blocks, which the engines
    and :func:`gather_to_host` check and stack.
    """

    __slots__ = ("re", "im")

    @classmethod
    def _own(cls, re, im):
        """Wrap finite, same-shape same-dtype planes without a copy or a scan, freezing
        them in place, as ``ComplexTensor._own`` does."""
        re.setflags(write=False)
        im.setflags(write=False)
        self = object.__new__(cls)
        self.re, self.im = re, im
        return self

    @property
    def grid(self):
        return self.re.shape[:3]

    @property
    def shape(self):
        """Each core's block shape."""
        return self.re.shape[3:]

    @property
    def dtype(self):
        return self.re.dtype

    def __len__(self):
        return math.prod(self.grid)

    def __getitem__(self, index):
        cores = range(len(self))
        if isinstance(index, slice):
            return [self[i] for i in cores[index]]
        at = np.unravel_index(cores[index], self.grid)
        return ComplexTensor._own(self.re[at], self.im[at])

    def __repr__(self):
        return f"Blocks(grid={self.grid}, shape={self.shape}, dtype={self.dtype})"


def _stack(blocks, dims):
    """A checked per-core list of same-shape blocks as :class:`Blocks` on grid ``dims``.

    Blocks of mixed dtypes are stacked in the widest, a cast that is exact.
    """
    shape = dims + blocks[0].shape
    return Blocks._own(*(np.stack([getattr(b, part) for b in blocks]).reshape(shape)
                         for part in ("re", "im")))


def _grid_view(plane, dims):
    """A global plane viewed as ``dims + block``, each core's block at its grid
    coordinates; a view, never a copy."""
    rank = plane.ndim
    block = tuple(n // p for n, p in zip(plane.shape, dims))
    split = plane.reshape(tuple(x for pair in zip(dims, block) for x in pair))
    order = tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2))
    # the last reshape only inserts the grid's unit axes beyond the rank
    return split.transpose(order).reshape(tuple(dims) + block)


def decompose(tensor, shape):
    """Split a global tensor into one contiguous block per core.

    Returns (blocks, assignment): :class:`Blocks` whose planes are views of
    the tensor's frozen planes through the grid, so nothing is copied; an
    engine's entry makes the one copy, slab by slab.
    """
    if not isinstance(tensor, ComplexTensor):
        raise ArgumentError("decompose expects a ComplexTensor")
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("decompose expects a ComputationShape")
    assignment = BlockAssignment(tuple(int(n) for n in tensor.shape), shape)
    planes = (_grid_view(tensor.re, shape.dims), _grid_view(tensor.im, shape.dims))
    return Blocks._own(*planes), assignment


def gather_to_host(blocks, assignment):
    """Inverse of :func:`decompose`: stitch :class:`Blocks`, or a per-core list of
    blocks, into a global tensor.

    On a grid with cores along dim 0 alone the blocks in core order are the
    tensor's rows, so one reshape makes each plane, a view where the planes'
    layout allows; otherwise each core's block is copied into place, one
    copy per core and plane.
    """
    if not isinstance(assignment, BlockAssignment):
        raise ArgumentError("gather_to_host expects a BlockAssignment")
    dims, block = assignment.shape.dims, assignment.block_shape
    if isinstance(blocks, Blocks):
        if (blocks.grid, blocks.shape) != (dims, block):
            raise AssemblyError(f"blocks of shape {blocks.shape} on a {blocks.grid} grid, "
                                f"expected {block} on {dims}")
    else:
        num = assignment.shape.num_cores
        if len(blocks) != num:
            raise AssemblyError(f"expected {num} blocks, got {len(blocks)}")
        for core, b in enumerate(blocks):
            if not isinstance(b, ComplexTensor):
                raise AssemblyError(f"block {core} missing or not a ComplexTensor")
            if b.shape != block:
                raise AssemblyError(f"block {core} has shape {b.shape}, expected {block}")
            if b.dtype != blocks[0].dtype:
                raise AssemblyError("blocks disagree on dtype")
        blocks = _stack(blocks, dims)
    if dims[1] == dims[2] == 1:
        return ComplexTensor._own(*(p.reshape(assignment.global_shape)
                                    for p in (blocks.re, blocks.im)))
    planes = []
    for plane in (blocks.re, blocks.im):
        out = np.empty(assignment.global_shape, dtype=blocks.dtype)
        grid = _grid_view(out, dims)
        # the blocks tile the global shape, so every element is filled
        for at in np.ndindex(dims):
            np.copyto(grid[at], plane[at])
        planes.append(out)
    return ComplexTensor._own(*planes)
