"""Deterministic simulator for a grid of cores exchanging tensors collectively.

Core programs are generators: they yield a collective request (AllToAll or
Ring) and receive the result back at the yield point. The coordinator
advances every core one step, checks that all cores agreed on the same
collective, performs the exchange, and resumes them. A Ring is a run of
permutes, such as one dimension's whole shift-by-one ring: the coordinator
records its P-1 permutes and runs every step's kernel for all cores itself,
so a core is resumed once per dimension, not once per step. Worker threads
run the per-core compute (between collectives, and the ring kernels in slabs
of cores), so results and ledgers are bit-identical for any worker count.
While a program runs, BLAS runs single-threaded: the simulated cores are the
source of parallelism, and a second BLAS pool would compete with them (and
with anything else on the host) for the same cores.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import ctypes
from dataclasses import dataclass
from functools import lru_cache
import glob
from inspect import isgenerator
import json
import os
from typing import Callable, Optional

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode
from .decomposition import BlockAssignment, ComputationShape
from .errors import ArgumentError, CommunicationError, DimensionError, ProtocolError

LEDGER_FIELDS = (
    "permute_count",
    "all_to_all_count",
    "bytes_moved",
    "einsum_flops",
    "local_fft_flops",
)


class CommLedger:
    """Counts collective invocations, bytes moved, and arithmetic work."""

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


@dataclass(frozen=True)
class AllToAll:
    """SPMD request: within each group, member i gets every member's slices i, i+n, ..."""

    groups: tuple
    value: ComplexTensor
    split_axis: int = 0
    tag: str = ""

    def meta(self):
        return ("all_to_all", self.groups, self.split_axis, self.tag)


@dataclass(frozen=True)
class Ring:
    """SPMD request: ``steps`` shifts within each group, each followed by a compute step.

    ``groups`` are disjoint ordered groups of cores: at every step member i
    receives the payload member i+1 held, the last member the first's (cycle
    notation, so any permutation can be written), and a core in no group
    keeps its payload. The coordinator records ``steps`` permutes tagged
    ``tag`` and folds this core's ``kernel`` over the payloads it holds in
    turn, ``acc = kernel(step, held, acc, table)`` for step 0..steps,
    starting from ``acc = None`` with ``held = value``; the last ``acc``
    comes back at the yield point. ``table``, if given, is called once per
    step and its result goes to every core's kernel, so every core must
    pass the same one. With ``prepare``, ``held`` is ``prepare(value)``
    instead, made once on the core that starts with ``value`` and moved
    with it until the ring ends; the permutes still count the bytes of
    ``value``. A single permute is ``steps=1`` with a kernel that returns
    ``held``.
    """

    groups: tuple
    value: ComplexTensor
    kernel: Callable
    steps: int
    tag: str = ""
    table: Optional[Callable] = None
    prepare: Optional[Callable] = None

    def meta(self):
        prepares = self.prepare is not None
        return ("ring", self.groups, self.steps, self.table, prepares, self.tag)


class Core:
    """Per-core handle passed to SPMD programs."""

    __slots__ = ("rank", "coords", "shape", "_flops")

    def __init__(self, rank, shape):
        self.rank = rank
        self.coords = shape.coords(rank)
        self.shape = shape
        self._flops = []

    @property
    def num_cores(self):
        return self.shape.num_cores

    def add_flops(self, kind, count, tag=""):
        self._flops.append((kind, int(count), tag))


class _Entry:
    __slots__ = ("gen", "request", "result", "done")

    def __init__(self):
        self.gen = None
        self.request = None
        self.result = None
        self.done = False


def _check_payload(value, context):
    if not isinstance(value, ComplexTensor):
        raise CommunicationError(f"{context}: payload must be a ComplexTensor")


def _check_plan(shape, precision, extents):
    """The checks both engines' plans make on their grid, precision and extents."""
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("shape must be a ComputationShape")
    if not isinstance(precision, PrecisionMode):
        raise ArgumentError("precision must be a PrecisionMode")
    BlockAssignment(extents, shape)


def _check_tensors(blocks, num_cores):
    """Reject anything but one ComplexTensor block per core."""
    if len(blocks) != num_cores:
        raise DimensionError(f"expected {num_cores} blocks, got {len(blocks)}")
    for i, b in enumerate(blocks):
        if not isinstance(b, ComplexTensor):
            raise DimensionError(f"block {i} must be a ComplexTensor")


def _check_blocks(mesh, plan, blocks):
    """Reject a mesh or per-core block list that does not fit an engine's plan."""
    if not isinstance(mesh, MeshSim) or mesh.shape != plan.shape:
        raise ArgumentError("mesh and plan must share the same computation shape")
    _check_tensors(blocks, plan.shape.num_cores)
    expected = BlockAssignment(plan.extents, plan.shape).block_shape
    for i, b in enumerate(blocks):
        if b.shape != expected:
            raise DimensionError(f"block {i} must have shape {expected}")


def _run_slab(fn, args_list):
    for args in args_list:
        fn(*args)


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

    # -- SPMD execution ----------------------------------------------------

    def run_spmd(self, program, inputs=None, workers=1):
        """Run ``program(core, value)`` on every core to completion.

        ``program`` may return a value directly or be a generator that yields
        AllToAll/Ring requests. Returns the per-core results in rank
        order. Disagreement between cores about the next collective raises
        ProtocolError; the ledger on this mesh accumulates all traffic. At
        most one worker thread runs per core. BLAS runs single-threaded until
        the run ends, for any ``workers``.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ArgumentError(f"workers must be a positive int, got {workers!r}")
        workers = min(workers, self.num_cores)
        if inputs is None:
            inputs = [None] * self.num_cores
        if len(inputs) != self.num_cores:
            raise ArgumentError(
                f"expected {self.num_cores} inputs, got {len(inputs)}"
            )
        cores = [Core(rank, self.shape) for rank in range(self.num_cores)]
        entries = [_Entry() for _ in range(self.num_cores)]

        def start(rank):
            res = program(cores[rank], inputs[rank])
            e = entries[rank]
            if isgenerator(res):
                e.gen = res
                _advance(rank, None)
            else:
                e.result, e.done = res, True

        def _advance(rank, send_value):
            e = entries[rank]
            try:
                e.request = e.gen.send(send_value)
            except StopIteration as stop:
                e.result, e.done = stop.value, True
                e.request = None
                return
            if not isinstance(e.request, (AllToAll, Ring)):
                raise ProtocolError(
                    f"core {rank} yielded {type(e.request).__name__}, "
                    "expected AllToAll or Ring"
                )

        with _single_threaded_blas(), ThreadPoolExecutor(workers) as pool:

            def run_all(fn, args_list):
                """``fn(*args)`` for every args, in one contiguous slab per worker."""
                if workers == 1:
                    return _run_slab(fn, args_list)
                cuts = [i * len(args_list) // workers for i in range(workers + 1)]
                futures = [
                    pool.submit(_run_slab, fn, args_list[a:b])
                    for a, b in zip(cuts, cuts[1:])
                ]
                for f in futures:
                    f.result()

            self._run_rounds(start, _advance, entries, run_all)

        for core in cores:
            for kind, count, tag in core._flops:
                self.ledger.add_flops(kind, count, tag=tag)
        return [e.result for e in entries]

    def _run_rounds(self, start, advance, entries, run_all):
        run_all(start, [(rank,) for rank in range(len(entries))])
        while not all(e.done for e in entries):
            if any(e.done for e in entries):
                raise ProtocolError(
                    "some cores finished while others still wait on a collective"
                )
            # engines share one groups/table object across cores, so
            # comparing with the first request mostly compares by identity
            metas = [e.request.meta() for e in entries]
            if any(meta != metas[0] for meta in metas):
                distinct = [meta for i, meta in enumerate(metas) if meta not in metas[:i]]
                raise ProtocolError(
                    f"cores disagree on the next collective: {sorted(distinct, key=repr)}"
                )
            # every core is pending here; no reference to the requests or the
            # responses outlives the round, so the cores free them as they go
            responses = self._exchange([e.request for e in entries], run_all)
            run_all(advance, list(enumerate(responses)))
            responses = None

    def _exchange(self, requests, run_all):
        for r in requests:
            _check_payload(r.value, "spmd collective")
        first = requests[0]
        if isinstance(first, Ring):
            return self._ring(requests, run_all)
        return self.all_to_all_groups(
            first.groups, [r.value for r in requests], first.split_axis, tag=first.tag
        )

    def _check_groups(self, groups):
        """``groups`` as tuples of core ids, each non-empty, on the mesh and disjoint.

        The one check of the core groups that ``AllToAll`` and ``Ring`` take.
        """
        groups = tuple(tuple(int(c) for c in g) for g in groups)
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

    def _ring(self, requests, run_all):
        """Run a Ring: every step's permute and every core's kernel.

        The payloads only move, so their shapes are checked once and every
        step records the same bytes. Each step's kernels run over the worker
        pool in slabs of cores, step 0's after each core's ``prepare``; the
        prepared payloads are dropped when the ring returns.
        """
        first = requests[0]
        groups = self._check_groups(first.groups)
        members = [c for g in groups for c in g]
        held = [r.value for r in requests]
        if len({(held[c].shape, held[c].dtype) for c in members}) != 1:
            raise CommunicationError("payload shapes/dtypes differ across the groups")
        nbytes = sum(held[c].nbytes for c in members)
        # member i receives from member i+1; a core in no group from itself
        source_of = list(range(self.num_cores))
        for g in groups:
            for c, s in zip(g, g[1:] + g[:1]):
                source_of[c] = s
        accs = [None] * self.num_cores

        def step_core(step, c, table):
            if not step and first.prepare is not None:
                held[c] = requests[c].prepare(held[c])
            accs[c] = requests[c].kernel(step, held[c], accs[c], table)

        for step in range(first.steps + 1):
            if step:
                self.ledger.record_permute(nbytes, tag=first.tag)
                held = [held[s] for s in source_of]
            table = None if first.table is None else first.table(step)
            run_all(step_core, [(step, c, table) for c in range(self.num_cores)])
        return accs

    def all_to_all_groups(self, groups, values, split_axis=0, tag=""):
        """One all_to_all invocation spanning several disjoint groups.

        ``values`` holds one payload per core, by flat core id. Member i of an
        n-member group receives slices i, i+n, i+2n, ... along ``split_axis``
        of every member's payload, joined in group order; when the extent is
        n this is the transpose of single slices. Cores outside every group
        keep their payload. Counts as a single ledger entry.
        """
        if len(values) != self.num_cores:
            raise CommunicationError(
                f"expected {self.num_cores} payloads, got {len(values)}"
            )
        groups = self._check_groups(groups)
        responses = list(values)
        nbytes = 0
        for g in groups:
            for c in g:
                _check_payload(values[c], "all_to_all")
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
