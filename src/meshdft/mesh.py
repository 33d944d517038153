"""Deterministic simulator for a grid of cores exchanging tensors collectively.

The engines are bulk-synchronous: the same compute on every core, then one
collective. So a tensor distributed over the cores is held as stacked planes:
one array per plane, shape ``(P, *block)``, the flat core id leading, the
engines' one layout from entry (:func:`_entry`, one copy of the input
:class:`Blocks`' planes) to exit (:func:`_exit`, the same planes as
:class:`Blocks`, no copy). The
collectives take core groups that are the lines of a view of that axis as
``(outer, n, inner)`` (:meth:`MeshSim._check_groups`), member i of a group at
index i along n: equal groups of evenly spaced cores, covering the mesh.

Both engines' forward calls are one loop, :func:`_forward`, over their plans'
per-dimension stages: a stage makes its ring's operand and gives its step
blocks, and one :func:`_shift_ring` applies them. The call opens one
context, ``with mesh.cores(workers) as each:``.
``each(fn, view, core_bytes)`` makes one kernel call per slab of cores, a box
of the view of at most :data:`SLAB_BYTES` (or one core), so the tiling
depends on the payload bytes alone; worker threads take contiguous runs of
slabs. Neither collective moves data of its own; the ledger still counts
the payload bytes. :meth:`MeshSim.all_to_all_groups` hands its kernel, once
per slab of receiving cores, strided views of the exchanged planes, so the
kernel's first copy (the fft's local FFT layout copy) is the exchange, on
the worker pool. A :meth:`MeshSim.ring` step is a cyclic shift of the member
axis: each slab keeps its payloads for the whole ring, and its kernel writes
to the cores holding them at that step, at most two runs of members. Every
element takes the same arithmetic in any slab, so results and ledgers are
bit-identical for any worker count. Inside the context BLAS runs
single-threaded: the simulated cores are the source of parallelism, and a
second BLAS pool would compete with them for the host. numpy's overflow
warnings are off in it, on every thread, since each stage scans its results.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import ctypes
from functools import lru_cache
import glob
import itertools
import math
import os

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite
from .decomposition import BlockAssignment, Blocks, ComputationShape, _stack
from .errors import ArgumentError, CommunicationError, DimensionError

# The most bytes of payload one kernel call takes on: a slab of cores stays in
# cache through the several passes of a local FFT or a phase product.
SLAB_BYTES = 1 << 18

LEDGER_FIELDS = (
    "permute_count",
    "all_to_all_count",
    "bytes_moved",
    "einsum_flops",
    "local_fft_flops",
)


class CommLedger:
    """Counts collective invocations, bytes moved, and arithmetic work.

    A collective is recorded when it is issued (each permute of a ring as its
    step starts) and a stage's flops when the stage completes, so a run that
    fails leaves the collectives issued before the failure and the flops of
    the stages that completed.
    """

    def __init__(self):
        self.permute_count = 0
        self.all_to_all_count = 0
        self.bytes_moved = 0
        self.einsum_flops = 0
        self.local_fft_flops = 0
        self._per_tag = {}

    def _tag_bucket(self, tag):
        if tag not in self._per_tag:
            self._per_tag[tag] = {name: 0 for name in LEDGER_FIELDS}
        return self._per_tag[tag]

    def _record(self, count_field, nbytes, tag):
        setattr(self, count_field, getattr(self, count_field) + 1)
        self.bytes_moved += int(nbytes)
        bucket = self._tag_bucket(tag)
        bucket[count_field] += 1
        bucket["bytes_moved"] += int(nbytes)

    def record_permute(self, nbytes, tag=""):
        self._record("permute_count", nbytes, tag)

    def record_all_to_all(self, nbytes, tag=""):
        self._record("all_to_all_count", nbytes, tag)

    def add_flops(self, kind, count, tag=""):
        if kind == "einsum":
            self.einsum_flops += int(count)
        elif kind == "local_fft":
            self.local_fft_flops += int(count)
        else:
            raise ArgumentError(f"unknown flop kind {kind!r}")
        self._tag_bucket(tag)[f"{kind}_flops"] += int(count)

    def as_dict(self):
        return {name: getattr(self, name) for name in LEDGER_FIELDS}

    def per_tag(self):
        return {tag: dict(bucket) for tag, bucket in sorted(self._per_tag.items())}


def _check_plan(shape, precision, extents):
    """The checks both engines' plans make on their grid, precision and extents."""
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("shape must be a ComputationShape")
    if not isinstance(precision, PrecisionMode):
        raise ArgumentError("precision must be a PrecisionMode")
    BlockAssignment(extents, shape)


def _check_blocks(mesh, plan, blocks):
    """An engine's input as :class:`Blocks` on its plan's grid; a per-core list is stacked."""
    if not isinstance(mesh, MeshSim) or mesh.shape != plan.shape:
        raise ArgumentError("mesh and plan must share the same computation shape")
    dims, block = plan.shape.dims, BlockAssignment(plan.extents, plan.shape).block_shape
    if isinstance(blocks, Blocks):
        if (blocks.grid, blocks.shape) != (dims, block):
            raise DimensionError(f"blocks of shape {blocks.shape} on a {blocks.grid} grid, "
                                 f"expected {block} on {dims}")
        return blocks
    num_cores = plan.shape.num_cores
    if len(blocks) != num_cores:
        raise DimensionError(f"expected {num_cores} blocks, got {len(blocks)}")
    for i, b in enumerate(blocks):
        if not isinstance(b, ComplexTensor):
            raise DimensionError(f"block {i} must be a ComplexTensor")
        if b.shape != block:
            raise DimensionError(f"block {i} must have shape {block}")
    return _stack(blocks, dims)


@contextmanager
def _stage(name, dim, mode):
    """Name an engine stage, its dimension and precision in the errors it raises.

    A stage's arithmetic raises ``ArgumentError`` from the finite scan of its
    results, as when f32 sums overflow. ``dim`` is None for the entry cast.
    """
    where = "" if dim is None else f" of dim {dim + 1}"
    try:
        yield
    except ArgumentError as exc:
        raise ArgumentError(f"{name}{where} in {mode.value}: {exc}") from None


def _entry(each, blocks, mode):
    """:class:`Blocks` as stacked ``(P, *block)`` planes in the mode's dtype, copied
    slab by slab of the grid.

    Only a cast that narrows the dtype can overflow, so only such a cast
    scans its result: the blocks are finite.
    """
    dtype, grid, block = mode.real_dtype, blocks.grid, blocks.shape
    out = tuple(np.empty((len(blocks),) + block, dtype) for _ in "ri")
    targets = [o.reshape(grid + block) for o in out]
    narrows = blocks.dtype.itemsize > dtype.itemsize

    def cast(box):
        for target, plane in zip(targets, (blocks.re, blocks.im)):
            np.copyto(target[box], plane[box])
        if narrows:
            _check_finite(*(t[box] for t in targets))

    with _stage("entry cast", None, mode):
        each(cast, grid, 2 * dtype.itemsize * math.prod(block))
    return out


def _trace_records(xs, lines, parts):
    """One dimension's ring steps as trace records (:func:`meshdft.kdft.kdft_forward`)."""
    firsts = [complex(float(re.flat[0]), float(im.flat[0])) for re, im in zip(*xs)]
    # member i of a group receives from member i+1
    pairs = tuple(p for g in lines for p in zip(g[1:] + g[:1], g))
    cores = sorted((c, i, g) for g in lines for i, c in enumerate(g))
    return [{"einsums": [{"core": c, "v_col": (i + s) % parts,
                          "x_first": firsts[g[(i + s) % parts]]} for c, i, g in cores],
             "pairs": pairs if s < parts - 1 else None} for s in range(parts)]


def _forward(mesh, plan, blocks, workers, trace=None):
    """Both engines' one loop: the entry, each dimension's stage, the exit.

    A stage is ``plan._ring_stage(mesh, each, xs, d, lines, view, tag)``: the
    ring's operand, made from the stacked planes ``xs``, and its step blocks
    ``blocks(s)``, which one :func:`_shift_ring` applies. ``plan.stage_names``
    names the two in their errors (:func:`_stage`). A ``trace`` list gets
    each ring's steps (:func:`_trace_records`).
    """
    blocks = _check_blocks(mesh, plan, blocks)
    mode, block = plan.precision, blocks.shape
    with mesh.cores(workers) as each:
        xs = _entry(each, blocks, mode)
        for d in range(plan.rank):
            lines, tag = plan.shape.lines(d), f"dim{d + 1}"
            view = mesh._check_groups(lines)
            with _stage(plan.stage_names[0], d, mode):
                held, source = plan._ring_stage(mesh, each, xs, d, lines, view, tag)
            # the trace reads the dimension's input, which is freed before the ring runs
            records = None if trace is None else _trace_records(xs, lines, view[1])
            del xs
            with _stage(plan.stage_names[1], d, mode):
                xs = _shift_ring(mesh, each, lines, held, source, block, d, mode, tag)
            del held
            if records is not None:
                trace.extend(records)
    return _exit(xs, plan.shape.dims)


def _exit(planes, grid):
    """Stacked ``(P, *block)`` planes as :class:`Blocks` on ``grid``, without a copy."""
    return Blocks._own(*(p.reshape(grid + p.shape[1:]) for p in planes))


def _empty_stack(num, block, axis, dtype):
    """Stacked ``(num, *block)`` planes, each core's ``axis`` outermost in its memory:
    the layout a local FFT or a contraction along ``axis`` leaves."""
    moved = (block[axis],) + block[:axis] + block[axis + 1:]
    return np.moveaxis(np.empty((num,) + moved, dtype), 1, 1 + axis)


@lru_cache(maxsize=256)
def _slabs(view, core_bytes, slab_bytes):
    """Boxes (three slices) tiling an (outer, n, inner) core view in core order, each
    of at most ``slab_bytes`` of ``core_bytes``-byte cores, or one core."""
    cores, sizes = max(1, slab_bytes // max(1, core_bytes)), []
    for extent in view[::-1]:
        sizes.insert(0, max(1, min(extent, cores)))
        cores = cores // extent if sizes[0] == extent else 1
    starts = itertools.product(*(range(0, e, k) for e, k in zip(view, sizes)))
    return tuple(tuple(slice(a, min(a + k, e)) for a, k, e in zip(s, sizes, view)) for s in starts)


@lru_cache(maxsize=256)
def _group_view(num_cores, groups):
    """:meth:`MeshSim._check_groups`' check of the groups, made once per mesh size and
    groups: (view, None), or (None, why the groups are rejected)."""
    groups = tuple(tuple(int(c) for c in g) for g in groups)
    if not groups:
        return None, "no core groups"
    seen = set()
    for g in groups:
        if not g:
            return None, "empty core group"
        for c in g:
            if not 0 <= c < num_cores:
                return None, f"core {c} outside mesh"
            if c in seen:
                return None, f"core {c} appears twice in the groups"
            seen.add(c)
    n = len(groups[0])
    inner = groups[0][1] - groups[0][0] if n > 1 else 1
    if inner >= 1 and num_cores % (n * inner) == 0:
        view = (num_cores // (n * inner), n, inner)
        lines = np.arange(num_cores).reshape(view).transpose(0, 2, 1)
        if sorted(groups) == sorted(map(tuple, lines.reshape(-1, n).tolist())):
            return view, None
    return None, "core groups must be the lines of a view of the mesh"


def _moves(box, step, n):
    """Where the payloads of a box's members sit at ring ``step``: pairs (slice of
    the box's members, box of the cores holding them), member i's at (i - step) mod n."""
    o, i, j = box
    s = step % n
    runs = ((i.start, min(i.stop, s), n - s), (max(i.start, s), i.stop, -s))
    return [(slice(lo - i.start, hi - i.start), (o, slice(lo + d, hi + d), j))
            for lo, hi, d in runs if lo < hi]


def _ignore_overflow():
    # an overflow raises from the finite scan of the result it spoils, so
    # numpy's warnings would only repeat it; errstate is per thread, so each
    # pool thread sets its own once, as it starts
    np.seterr(over="ignore", invalid="ignore")


_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _single_threaded_blas():
    """Run BLAS on one thread inside the block; restore its count on exit."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


class MeshSim:
    """A simulated core grid with one shared communication ledger."""

    def __init__(self, shape):
        if isinstance(shape, int):
            shape = ComputationShape(shape, 1, 1)
        if not isinstance(shape, ComputationShape):
            raise ArgumentError("MeshSim expects a ComputationShape or an int")
        self.shape = shape
        self.num_cores = shape.num_cores
        self.ledger = CommLedger()

    @contextmanager
    def cores(self, workers=1):
        """Per-core compute for one engine call: yields ``each``.

        ``each(fn, view, core_bytes, *per_slab)`` returns ``[fn(box, *args)]``
        for every slab (:func:`_slabs`) of an ``(outer, n, inner)`` core view
        in core order, ``args`` the slab's entries of the ``per_slab`` lists,
        over at most ``min(workers, P, os.cpu_count())`` threads, each taking a
        contiguous run of slabs. BLAS runs single-threaded, and numpy's
        overflow and invalid warnings are off on the calling thread and the
        pool's, until the block ends, for any ``workers``.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ArgumentError(f"workers must be a positive int, got {workers!r}")
        workers = min(workers, self.num_cores, os.cpu_count() or 1)
        with (_single_threaded_blas(), np.errstate(over="ignore", invalid="ignore"),
              ThreadPoolExecutor(workers, initializer=_ignore_overflow) as pool):

            def each(fn, view, core_bytes, *per_slab):
                slabs = _slabs(view, core_bytes, SLAB_BYTES)
                if any(len(values) != len(slabs) for values in per_slab):
                    raise ArgumentError(f"expected {len(slabs)} values, one per slab")
                args = list(zip(slabs, *per_slab))
                threads = min(workers, len(args))
                if threads == 1:
                    return [fn(*a) for a in args]
                cuts = [i * len(args) // threads for i in range(threads + 1)]
                futures = [
                    pool.submit(lambda run: [fn(*a) for a in run], args[a:b])
                    for a, b in zip(cuts, cuts[1:])
                ]
                return [y for f in futures for y in f.result()]

            yield each

    def _check_groups(self, groups, planes=None):
        """The view ``(outer, n, inner)`` in which ``groups`` are the lines along n.

        The one check that both collectives make of their core groups: at
        least one, each non-empty, on the mesh and disjoint, and together the
        lines of a view: member i of a group is core ``(o*n + i)*inner + j``.
        ``planes``, if given, are stacked planes: arrays of one shape and
        dtype, the P cores leading.
        """
        if planes is not None:
            if not len(planes):
                raise CommunicationError("no payload planes")
            if (not all(isinstance(p, np.ndarray) and p.ndim for p in planes)
                    or len({(p.shape, p.dtype) for p in planes}) > 1):
                raise CommunicationError("payloads must be stacked planes of one shape and dtype")
            if len(planes[0]) != self.num_cores:
                raise CommunicationError(
                    f"expected {self.num_cores} payloads, got {len(planes[0])}")
        view, error = _group_view(self.num_cores, tuple(map(tuple, groups)))
        if error:
            raise CommunicationError(error)
        return view

    def ring(self, each, groups, held, core_bytes, kernel, steps, tag="", table=None):
        """``steps`` shifts within each group, each followed by a kernel on every slab.

        The groups must be the lines of a view (:meth:`_check_groups`): equal
        groups of evenly spaced cores that together cover the mesh. Member i
        receives at every step what member i+1 held, the last member the
        first's (cycle notation): at step s it holds the payload member
        (i + s) mod n started with. No payload moves: ``held`` is
        ``each(fn, view, core_bytes)``'s list over the groups' view, such as
        each slab's payloads prepared once, and step s calls
        ``kernel(s, box, held[k], moves, t)`` on slab k, whose ``box`` is the
        same at every step; ``moves`` pairs slices of the box's members with
        the boxes of the cores holding their payloads at step s
        (:func:`_moves`); ``t`` is ``table(s)``, made once per step (the
        step's blocks, for :func:`_shift_ring`), or None.
        Records ``steps`` permutes of ``core_bytes`` per core.
        """
        view = self._check_groups(groups)
        for step in range(steps + 1):
            if step:
                self.ledger.record_permute(core_bytes * self.num_cores, tag=tag)
            t = None if table is None else table(step)
            each(lambda box, h: kernel(step, box, h, _moves(box, step, view[1]), t),
                 view, core_bytes, held)

    def all_to_all_groups(self, groups, planes, split_axis=0, tag="", each=None, kernel=None):
        """One all_to_all invocation spanning several disjoint groups.

        ``planes`` are stacked planes, one payload per core by flat core id.
        Member i of an n-member group receives slices i, i+n, i+2n, ... along
        ``split_axis`` of every member's payload, joined in group order; when
        the extent is n this is the transpose of single slices. The groups
        must be the lines of a view (:meth:`_check_groups`), as for
        :meth:`ring`. It counts as a single ledger entry, recorded when issued.

        ``each(fn, view, core_bytes)`` (the calling thread's loop if None)
        calls ``kernel(box, payload)`` once per slab of receiving cores of
        the groups' view and returns the results. ``payload`` holds the
        slab's received planes as strided views of the sources, shaped as
        ``box``, then the block with the split axis as two axes
        (n, extent/n), the chunks from member s at index s, so the kernel's
        first read is the exchange. Without a kernel it returns a contiguous
        copy of the received planes, stacked.
        """
        view = self._check_groups(groups, planes)
        n, block = view[1], planes[0].shape[1:]
        if not -len(block) <= split_axis < len(block):
            raise CommunicationError(f"split axis {split_axis} out of range for rank {len(block)}")
        axis = split_axis % len(block)
        if block[axis] % n != 0:
            raise CommunicationError(
                f"extent {block[axis]} along axis {axis} does not split into {n} equal chunks")
        split = block[:axis] + (block[axis] // n, n) + block[axis + 1:]
        # member i's chunk from member s: out[o, i, j, ..., s, k] = in[o, s, j][..., k*n + i]
        order = (0, 4 + axis, 2, *range(3, 3 + axis), 1, 3 + axis, *range(5 + axis, 3 + len(split)))
        core_bytes = sum(p[0].nbytes for p in planes)
        self.ledger.record_all_to_all(core_bytes * self.num_cores, tag=tag)
        sources = [p.reshape(view + split).transpose(order) for p in planes]
        if kernel is None:
            return tuple(np.array(s, order="C").reshape(planes[0].shape) for s in sources)

        def exchange(box):
            return kernel(box, tuple(s[box] for s in sources))

        if each is None:
            with np.errstate(over="ignore", invalid="ignore"):
                return [exchange(box) for box in _slabs(view, core_bytes, SLAB_BYTES)]
        return each(exchange, view, core_bytes)


def _shift_ring(mesh, each, lines, held, blocks, block, axis, mode, tag):
    """Both engines' shift-by-one schedule of one dimension, as one :meth:`MeshSim.ring`.

    ``lines`` are the rings (grid lines, cores in position order). ``held`` is
    each slab's payloads, ``each`` over the lines' view, prepared once, with
    ``axis`` leading. At step s position i holds the payload that started at
    i + s, to which the holder applies entry i of step s's blocks:
    ``blocks(s)`` is a tuple of matrix planes, each the prepared terms of a
    ``(P, r, r)`` stack. A slab makes one product per matrix plane and adds
    the result into the holders' sums.

    - kdft's complex w x w column blocks are two planes (re, im), and the
      operand holds re|im side by side, ``(..., w, 2*rest)``: ``m_re @ x``
      gives ``rr|ri`` and ``m_im @ x`` gives ``ir|ii``, combined as rr - ii
      and ri + ir.
    - fft's 1x1 coefficients c are one plane of real 2x2 blocks
      [[c_re, -c_im], [c_im, c_re]], and the operand's two rows are re and
      im, ``(..., 2, k*rest)``: the product gives both rows of the sums, held
      side by side, so step 0 writes the sums and each later step adds once.

    A non-finite partial sum stays non-finite, so one scan of each sum at
    the last step catches any overflow. Returns the sums, stacked planes of
    ``block``.
    """
    num, core_bytes = mesh.num_cores, 2 * mode.real_dtype.itemsize * math.prod(block)
    view = mesh._check_groups(lines)
    # a core's block with ``axis`` leading, as the operand holds it
    parts, moved = view[1], block[axis:axis + 1] + block[:axis] + block[axis + 1:]
    first = blocks(0)
    real, rows = len(first) == 1, held[0][0].shape[-2]
    if real:
        both = np.empty((num, 2) + moved, mode.real_dtype)
        out = tuple(np.moveaxis(both[:, c], 1, 1 + axis) for c in range(2))
        # the holders' sums as the product gives them: rows re and im
        sums = (both.reshape(view + (2, -1)),)
    else:
        out = tuple(_empty_stack(num, block, axis, mode.real_dtype) for _ in "ri")
        # the holders' sums, viewed with ``axis`` leading as in the operand
        sums = tuple(np.moveaxis(o.reshape(view + block), 3 + axis, 3) for o in out)

    def kernel(step, box, x, moves, terms):
        planes = [tuple(t[box[1], None] for t in plane) for plane in terms]
        if real:
            # at step 0 every member holds its own payload: the product is its sums
            results = (mode.product(*planes, x, np.matmul, None if step else sums[0][box]),)
        else:
            r_x, i_x = (mode.product(plane, x, np.matmul) for plane in planes)
            half = r_x.shape[-1] // 2
            # rr - ii and ri + ir, in the planes of rr and ri
            np.subtract(r_x[..., :half], i_x[..., half:], out=r_x[..., :half])
            np.add(r_x[..., half:], i_x[..., :half], out=r_x[..., half:])
            results = (r_x[..., p:p + half].reshape(r_x.shape[:3] + moved) for p in (0, half))
        for s, t in zip(sums, results):
            for src, dst in moves:
                if step:
                    np.add(s[dst], t[:, src], out=s[dst])
                elif not real:
                    np.copyto(s[dst], t[:, src])
        if step == parts - 1:
            for _, dst in moves:
                _check_finite(*(s[dst] for s in sums))

    mesh.ring(each, lines, held, core_bytes, kernel, parts - 1, tag,
              lambda s: blocks(s) if s else first)
    # a complex w x w block per payload, output row and step: a real block takes two rows
    w = rows // 2 if real else rows
    mesh.ledger.add_flops("einsum", 4 * w * out[0].size * parts, tag)
    return out
