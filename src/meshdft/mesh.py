"""Deterministic simulator for a grid of cores exchanging tensors collectively.

The engines are bulk-synchronous: per-core compute on every core, then one
collective over the mesh. An engine call opens one context,
``with mesh.cores(workers) as each:``, runs the per-core compute as
``each(fn, values)`` and calls the collectives directly:
:meth:`MeshSim.all_to_all_groups`, and :meth:`MeshSim.ring`, which records a
run of permutes (such as one dimension's whole shift-by-one ring) and runs
every step's kernel for all cores. Worker threads take contiguous slabs of
cores, so results and ledgers are bit-identical for any worker count. Inside
the context BLAS runs single-threaded: the simulated cores are the source of
parallelism, and a second BLAS pool would compete with them for the host.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import ctypes
from functools import lru_cache
import glob
import json
import os

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode
from .decomposition import BlockAssignment, ComputationShape
from .errors import ArgumentError, CommunicationError, DimensionError

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
    results, as when f32 sums overflow.
    """
    try:
        yield
    except ArgumentError as exc:
        raise ArgumentError(f"{name} of dim {dim + 1} in {mode.value}: {exc}") from None


def _run_slab(fn, values, cores):
    # an overflow raises from the finite scan of the result it spoils, so
    # numpy's warnings would only repeat it; errstate is per thread, so each
    # slab sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        return [fn(c, values[c]) for c in cores]


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

        ``each(fn, values)`` returns ``[fn(c, values[c])]`` for every core c,
        computed in one contiguous slab of cores per thread over at most
        ``min(workers, P, os.cpu_count())`` threads. BLAS runs single-threaded
        until the block ends, for any ``workers``.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ArgumentError(f"workers must be a positive int, got {workers!r}")
        workers = min(workers, self.num_cores, os.cpu_count() or 1)
        cores = range(self.num_cores)
        cuts = [i * self.num_cores // workers for i in range(workers + 1)]
        with _single_threaded_blas(), ThreadPoolExecutor(workers) as pool:

            def each(fn, values):
                if len(values) != self.num_cores:
                    raise ArgumentError(
                        f"expected {self.num_cores} values, got {len(values)}"
                    )
                if workers == 1:
                    return _run_slab(fn, values, cores)
                futures = [
                    pool.submit(_run_slab, fn, values, cores[a:b])
                    for a, b in zip(cuts, cuts[1:])
                ]
                return [y for f in futures for y in f.result()]

            yield each

    def _check_groups(self, groups, values):
        """``groups`` as tuples of core ids: at least one, each non-empty, on the mesh and disjoint.

        The one check that both collectives make of their core groups and of
        their payloads, one ComplexTensor per core.
        """
        if len(values) != self.num_cores:
            raise CommunicationError(
                f"expected {self.num_cores} payloads, got {len(values)}"
            )
        if not all(isinstance(v, ComplexTensor) for v in values):
            raise CommunicationError("every payload must be a ComplexTensor")
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
        return groups

    def ring(self, each, groups, values, kernel, steps, tag="", table=None, prepare=None):
        """``steps`` shifts within each group, each followed by a kernel on every core.

        At every step member i of a group receives the payload member i+1
        held, the last member the first's (cycle notation); a core in no group
        keeps its payload. Records ``steps`` permutes of the values' bytes and
        returns every core's last ``acc = kernel(core, step, held, acc, t)``
        for step 0..steps, from ``acc = None`` and ``held = values[core]`` (or
        ``prepare(values[core])``, made at step 0 and moved with the payload);
        ``t`` is ``table(step)``, made once per step for all cores, or None.
        Kernels run through ``each``. A single permute is ``steps=1`` with a
        kernel that returns ``held``.
        """
        groups = self._check_groups(groups, values)
        members = [c for g in groups for c in g]
        held = list(values)
        if len({(held[c].shape, held[c].dtype) for c in members}) != 1:
            raise CommunicationError("payload shapes/dtypes differ across the groups")
        nbytes = sum(held[c].nbytes for c in members)
        # member i receives from member i+1; a core in no group from itself
        source_of = list(range(self.num_cores))
        for g in groups:
            for c, s in zip(g, g[1:] + g[:1]):
                source_of[c] = s
        # each core's accumulator is replaced in place, so the one it
        # replaces is freed as soon as that core's kernel returns
        accs = [None] * self.num_cores

        def step_core(c, acc):
            if not step and prepare is not None:
                held[c] = prepare(held[c])
            accs[c] = kernel(c, step, held[c], acc, t)

        for step in range(steps + 1):
            if step:
                self.ledger.record_permute(nbytes, tag=tag)
                held = [held[s] for s in source_of]
            t = None if table is None else table(step)
            each(step_core, accs)
        return accs

    def all_to_all_groups(self, groups, values, split_axis=0, tag=""):
        """One all_to_all invocation spanning several disjoint groups.

        ``values`` holds one payload per core, by flat core id. Member i of an
        n-member group receives slices i, i+n, i+2n, ... along ``split_axis``
        of every member's payload, joined in group order; when the extent is
        n this is the transpose of single slices. Cores outside every group
        keep their payload. Counts as a single ledger entry.
        """
        groups = self._check_groups(groups, values)
        responses = list(values)
        nbytes = 0
        for g in groups:
            shapes = {(values[c].shape, values[c].dtype) for c in g}
            if len(shapes) != 1:
                raise CommunicationError("payload shapes/dtypes differ in group")
            first = values[g[0]]
            if not -first.rank <= split_axis < first.rank:
                raise CommunicationError(
                    f"split axis {split_axis} out of range for rank {first.rank}"
                )
            axis = split_axis % first.rank
            n = len(g)
            extent = first.shape[axis]
            if extent % n != 0:
                raise CommunicationError(
                    f"extent {extent} along axis {axis} does not split into "
                    f"{n} equal chunks"
                )
            for i, c in enumerate(g):
                idx = (slice(None),) * axis + (slice(i, None, n),)
                responses[c] = ComplexTensor._own(
                    np.concatenate([values[s].re[idx] for s in g], axis=axis),
                    np.concatenate([values[s].im[idx] for s in g], axis=axis),
                )
            nbytes += n * first.nbytes
        self.ledger.record_all_to_all(nbytes, tag=tag)
        return responses
