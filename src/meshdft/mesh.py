"""Deterministic simulator for a grid of cores exchanging tensors collectively.

The engines are bulk-synchronous: the same compute on every core, then one
collective. So a tensor distributed over the cores is held as stacked planes:
one array per plane, shape ``(P, *block)``, the flat core id leading. The
collectives take core groups that are the lines of a view of that axis as
``(outer, n, inner)`` (:meth:`MeshSim._check_groups`), member i of a group at
index i along n: equal groups of evenly spaced cores, covering the mesh.

An engine call opens one context, ``with mesh.cores(workers) as each:``.
``each(fn, view, core_bytes)`` makes one kernel call per slab of cores, a box
of the view of at most :data:`SLAB_BYTES` (or one core); worker threads take
contiguous runs of slabs. :meth:`MeshSim.all_to_all_groups` is one
reshaping copy per slab of each plane. A :meth:`MeshSim.ring` step is a cyclic
shift of the member axis that moves no data: each slab keeps its payloads for
the whole ring, and its kernel writes to the cores holding them at that step,
at most two runs of members; the ledger still counts the payload bytes. Every
element takes the same arithmetic in any slab, so results and ledgers are
bit-identical for any worker count. Inside the context BLAS runs
single-threaded: the simulated cores are the source of parallelism, and a
second BLAS pool would compete with them for the host.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import ctypes
from functools import lru_cache
import glob
import itertools
import json
import os

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite
from .decomposition import BlockAssignment, ComputationShape
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

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"


def _check_plan(shape, precision, extents):
    """The checks both engines' plans make on their grid, precision and extents."""
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("shape must be a ComputationShape")
    if not isinstance(precision, PrecisionMode):
        raise ArgumentError("precision must be a PrecisionMode")
    BlockAssignment(extents, shape)


def _check_blocks(mesh, plan, blocks):
    """Reject a mesh or per-core block list that does not fit an engine's plan."""
    if not isinstance(mesh, MeshSim) or mesh.shape != plan.shape:
        raise ArgumentError("mesh and plan must share the same computation shape")
    num_cores = plan.shape.num_cores
    if len(blocks) != num_cores:
        raise DimensionError(f"expected {num_cores} blocks, got {len(blocks)}")
    expected = BlockAssignment(plan.extents, plan.shape).block_shape
    for i, b in enumerate(blocks):
        if not isinstance(b, ComplexTensor):
            raise DimensionError(f"block {i} must be a ComplexTensor")
        if b.shape != expected:
            raise DimensionError(f"block {i} must have shape {expected}")


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
    """The blocks' planes in the mode's dtype: their own, or stacked planes cast from them."""
    dtype = mode.real_dtype
    if all(b.dtype == dtype for b in blocks):
        return [b.re for b in blocks], [b.im for b in blocks]
    out = tuple(np.empty((len(blocks),) + blocks[0].shape, dtype) for _ in "ri")

    def cast(box):
        for o, part in zip(out, ("re", "im")):
            np.stack([getattr(b, part) for b in blocks[box[1]]], out=o[box[1]])
        _check_finite(out[0][box[1]], out[1][box[1]])

    with _stage("entry cast", None, mode):
        each(cast, (1, len(blocks), 1), 2 * dtype.itemsize * blocks[0].size)
    return out


def _empty_stack(num, block, axis, dtype):
    """Stacked ``(num, *block)`` planes, each core's ``axis`` outermost in its memory:
    the layout a local FFT or a contraction along ``axis`` leaves."""
    moved = (block[axis],) + block[:axis] + block[axis + 1:]
    return np.moveaxis(np.empty((num,) + moved, dtype), 1, 1 + axis)


@lru_cache(maxsize=256)
def _slabs(view, core_bytes, slab_bytes, threads):
    """Boxes (three slices) tiling an (outer, n, inner) core view in core order, each
    of at most ``slab_bytes`` of ``core_bytes``-byte cores and a ``threads``-th of
    the cores, or one core."""
    share = -(-view[0] * view[1] * view[2] // threads)
    cores, sizes = max(1, min(slab_bytes // max(1, core_bytes), share)), []
    for extent in view[::-1]:
        sizes.insert(0, max(1, min(extent, cores)))
        cores = cores // extent if sizes[0] == extent else 1
    starts = itertools.product(*(range(0, e, k) for e, k in zip(view, sizes)))
    return tuple(tuple(slice(a, min(a + k, e)) for a, k, e in zip(s, sizes, view)) for s in starts)


def _moves(box, step, n):
    """Where the payloads of a box's members sit at ring ``step``: pairs (slice of
    the box's members, box of the cores holding them), member i's at (i - step) mod n."""
    o, i, j = box
    s = step % n
    runs = ((i.start, min(i.stop, s), n - s), (max(i.start, s), i.stop, -s))
    return [(slice(lo - i.start, hi - i.start), (o, slice(lo + d, hi + d), j))
            for lo, hi, d in runs if lo < hi]


def _run_slabs(fn, args):
    # an overflow raises from the finite scan of the result it spoils, so
    # numpy's warnings would only repeat it; errstate is per thread, so each
    # thread sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        return [fn(*a) for a in args]


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
        for every slab (:func:`_slabs`, at most a thread's share of the cores)
        of an ``(outer, n, inner)`` core view in core order, ``args`` the slab's
        entries of the ``per_slab`` lists, over at most
        ``min(workers, P, os.cpu_count())`` threads. BLAS runs single-threaded
        until the block ends, for any ``workers``.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ArgumentError(f"workers must be a positive int, got {workers!r}")
        workers = min(workers, self.num_cores, os.cpu_count() or 1)
        with _single_threaded_blas(), ThreadPoolExecutor(workers) as pool:

            def each(fn, view, core_bytes, *per_slab):
                slabs = _slabs(view, core_bytes, SLAB_BYTES, workers)
                if any(len(values) != len(slabs) for values in per_slab):
                    raise ArgumentError(f"expected {len(slabs)} values, one per slab")
                args = list(zip(slabs, *per_slab))
                threads = min(workers, len(args))
                if threads == 1:
                    return _run_slabs(fn, args)
                cuts = [i * len(args) // threads for i in range(threads + 1)]
                futures = [
                    pool.submit(_run_slabs, fn, args[a:b]) for a, b in zip(cuts, cuts[1:])
                ]
                return [y for f in futures for y in f.result()]

            yield each

    def _check_groups(self, groups, planes=()):
        """The view ``(outer, n, inner)`` in which ``groups`` are the lines along n.

        The one check that both collectives make of their core groups: at
        least one, each non-empty, on the mesh and disjoint, and together the
        lines of a view: member i of a group is core ``(o*n + i)*inner + j``.
        ``planes`` must hold one array per core, all of one shape and dtype.
        """
        for plane in planes:
            if len(plane) != self.num_cores:
                raise CommunicationError(f"expected {self.num_cores} payloads, got {len(plane)}")
        kinds = {(a.shape, a.dtype) if isinstance(a, np.ndarray) else None
                 for plane in planes for a in plane}
        if len(kinds) > 1 or None in kinds:
            raise CommunicationError("payloads must be arrays of one shape and dtype")
        groups = tuple(tuple(int(c) for c in g) for g in groups)
        if not groups:
            raise CommunicationError("no core groups")
        seen = set()
        for g in groups:
            if not g:
                raise CommunicationError("empty core group")
            for c in g:
                if not 0 <= c < self.num_cores:
                    raise CommunicationError(f"core {c} outside mesh")
                if c in seen:
                    raise CommunicationError(f"core {c} appears twice in the groups")
                seen.add(c)
        n = len(groups[0])
        inner = groups[0][1] - groups[0][0] if n > 1 else 1
        if inner >= 1 and self.num_cores % (n * inner) == 0:
            view = (self.num_cores // (n * inner), n, inner)
            lines = np.arange(self.num_cores).reshape(view).transpose(0, 2, 1)
            if sorted(groups) == sorted(map(tuple, lines.reshape(-1, n).tolist())):
                return view
        raise CommunicationError("core groups must be the lines of a view of the mesh")

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
        (:func:`_moves`); ``t`` is ``table(s)``, made once per step, or None.
        Records ``steps`` permutes of ``core_bytes`` per core.
        """
        view = self._check_groups(groups)
        for step in range(steps + 1):
            if step:
                self.ledger.record_permute(core_bytes * self.num_cores, tag=tag)
            t = None if table is None else table(step)
            each(lambda box, h: kernel(step, box, h, _moves(box, step, view[1]), t),
                 view, core_bytes, held)

    def all_to_all_groups(self, groups, planes, split_axis=0, tag=""):
        """One all_to_all invocation spanning several disjoint groups.

        ``planes`` hold one payload per core, by flat core id: stacked planes,
        or a list of each core's array. Member i of an n-member group receives
        slices i, i+n, i+2n, ... along ``split_axis`` of every member's
        payload, joined in group order; when the extent is n this is the
        transpose of single slices. The groups must be the lines of a view
        (:meth:`_check_groups`), as for :meth:`ring`. Returns stacked planes,
        made by one reshape-and-transpose copy per slab of source cores (the
        whole plane when it fits a slab), and counts as a single ledger entry.
        """
        view = self._check_groups(groups, planes)
        n = view[1]
        block = planes[0][0].shape
        if not -len(block) <= split_axis < len(block):
            raise CommunicationError(f"split axis {split_axis} out of range for rank {len(block)}")
        axis = split_axis % len(block)
        if block[axis] % n != 0:
            raise CommunicationError(
                f"extent {block[axis]} along axis {axis} does not split into {n} equal chunks")
        pre, q, post = block[:axis], block[axis] // n, block[axis + 1:]
        split = pre + (q, n) + post
        # member i's chunk from member s: out[o, i, j, ..., s, k] = in[o, s, j][..., k*n + i]
        order = (0, 4 + axis, 2, *range(3, 3 + axis), 1, 3 + axis, *range(5 + axis, 3 + len(split)))
        core_bytes = sum(p[0].nbytes for p in planes)
        outs = []
        for plane in planes:
            out = np.empty((self.num_cores,) + block, plane[0].dtype)
            by_source = out.reshape(view + pre + (n, q) + post)
            # one copy per slab of source cores, a core's own for a list of arrays
            listed = not isinstance(plane, np.ndarray)
            sources = plane if listed else plane.reshape(view + split)
            for o, s, j in _slabs(view, SLAB_BYTES if listed else core_bytes, SLAB_BYTES, 1):
                c = (o.start * n + s.start) * view[2] + j.start
                src = sources[c].reshape((1,) * 3 + split) if listed else sources[o, s, j]
                by_source[(o, slice(None), j) + (slice(None),) * axis + (s,)] = src.transpose(order)
            outs.append(out)
        self.ledger.record_all_to_all(core_bytes * self.num_cores, tag=tag)
        return tuple(outs)
