"""Deterministic simulator for a grid of cores exchanging tensors collectively.

Core programs are generators: they yield a collective request (Permute or
AllToAll) and receive the incoming payload back at the yield point. The
coordinator advances every core one step, checks that all cores agreed on
the same collective, performs the exchange, and resumes them. Worker threads
only run the per-core compute between collectives, so results and ledgers
are bit-identical for any worker count. While a program runs, BLAS runs
single-threaded: the simulated cores are the source of parallelism, and a
second BLAS pool would compete with them (and with anything else on the host)
for the same cores.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import ctypes
from dataclasses import dataclass, field
from functools import lru_cache
import glob
from inspect import isgenerator
import json
import os

import numpy as np

from .ctensor import ComplexTensor
from .decomposition import ComputationShape
from .errors import ArgumentError, CommunicationError, ProtocolError

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

    def record_permute(self, nbytes, tag=""):
        self.permute_count += 1
        self.bytes_moved += int(nbytes)
        bucket = self._tag_bucket(tag)
        bucket["permute_count"] += 1
        bucket["bytes_moved"] += int(nbytes)

    def record_all_to_all(self, nbytes, tag=""):
        self.all_to_all_count += 1
        self.bytes_moved += int(nbytes)
        bucket = self._tag_bucket(tag)
        bucket["all_to_all_count"] += 1
        bucket["bytes_moved"] += int(nbytes)

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
class SourceTargetPairs:
    """A set of (source, target) core pairs forming a partial permutation."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(s), int(t)) for s, t in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        if len(set(sources)) != len(sources):
            raise CommunicationError("duplicate source core in pairs")
        if len(set(targets)) != len(targets):
            raise CommunicationError("duplicate target core in pairs")
        if set(sources) != set(targets):
            raise CommunicationError("sources and targets must cover the same cores")

    @property
    def participants(self):
        return sorted(s for s, _ in self.pairs)

    def source_of(self):
        return {t: s for s, t in self.pairs}


def ring_pairs(group):
    """Shift-by-one ring on an ordered group: member i receives from member i+1."""
    group = [int(c) for c in group]
    if len(set(group)) != len(group) or not group:
        raise CommunicationError(f"group must be non-empty distinct cores, got {group}")
    n = len(group)
    return SourceTargetPairs(tuple((group[(i + 1) % n], group[i]) for i in range(n)))


def line_ring_pairs(shape, dim):
    """One permute op whose pairs serve every grid line along ``dim`` at once."""
    pairs = []
    for line in shape.lines(dim):
        pairs.extend(ring_pairs(line).pairs)
    return SourceTargetPairs(tuple(pairs))


@dataclass(frozen=True)
class Permute:
    """SPMD request: exchange payloads according to source-target pairs."""

    pairs: SourceTargetPairs
    value: ComplexTensor
    tag: str = ""

    def meta(self):
        return ("permute", self.pairs.pairs, self.tag)


@dataclass(frozen=True)
class AllToAll:
    """SPMD request: within each group, transpose equal chunks of the payload."""

    groups: tuple
    value: ComplexTensor
    split_axis: int = 0
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(c) for c in g) for g in self.groups)
        )

    def meta(self):
        return ("all_to_all", self.groups, self.split_axis, self.tag)


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


def _concat(blocks, axis):
    re = np.concatenate([b.re for b in blocks], axis=axis)
    im = np.concatenate([b.im for b in blocks], axis=axis)
    return ComplexTensor._own(re, im)


def _split_chunks(value, axis, n):
    if not -value.rank <= axis < value.rank:
        raise CommunicationError(f"split axis {axis} out of range for rank {value.rank}")
    axis %= value.rank
    extent = value.shape[axis]
    if extent % n != 0:
        raise CommunicationError(
            f"extent {extent} along axis {axis} does not split into {n} equal chunks"
        )
    step = extent // n
    out = []
    for i in range(n):
        idx = [slice(None)] * value.rank
        idx[axis] = slice(i * step, (i + 1) * step)
        idx = tuple(idx)
        out.append(ComplexTensor._own(value.re[idx], value.im[idx]))
    return out


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

    # -- direct collectives ------------------------------------------------

    def _check_group(self, group):
        group = [int(c) for c in group]
        if not group or len(set(group)) != len(group):
            raise CommunicationError(f"group must be non-empty distinct cores: {group}")
        for c in group:
            if not 0 <= c < self.num_cores:
                raise CommunicationError(f"core {c} outside mesh of {self.num_cores}")
        return group

    def collective_permute(self, group, pairs, payloads, tag=""):
        """Permute payloads among ``group`` (list aligned with ``group``)."""
        group = self._check_group(group)
        if not isinstance(pairs, SourceTargetPairs):
            pairs = SourceTargetPairs(tuple(pairs))
        if len(payloads) != len(group):
            raise CommunicationError("one payload per group member required")
        for v in payloads:
            _check_payload(v, "collective_permute")
        shapes = {(v.shape, v.dtype) for v in payloads}
        if len(shapes) != 1:
            raise CommunicationError("payload shapes/dtypes differ across the group")
        members = set(group)
        for s, _ in pairs.pairs:
            if s not in members:
                raise CommunicationError(f"pair core {s} not in group {group}")
        by_core = dict(zip(group, payloads))
        source_of = pairs.source_of()
        out = [
            by_core[source_of[c]] if c in source_of else by_core[c] for c in group
        ]
        self.ledger.record_permute(len(group) * payloads[0].nbytes, tag=tag)
        return out

    def all_to_all(self, group, payloads, split_axis=0, tag=""):
        """Chunk-transpose payloads within one group (list aligned with ``group``)."""
        group = self._check_group(group)
        if len(payloads) != len(group):
            raise CommunicationError("one payload per group member required")
        for v in payloads:
            _check_payload(v, "all_to_all")
        shapes = {(v.shape, v.dtype) for v in payloads}
        if len(shapes) != 1:
            raise CommunicationError("payload shapes/dtypes differ across the group")
        n = len(group)
        chunks = [_split_chunks(v, split_axis, n) for v in payloads]
        out = [
            _concat([chunks[j][i] for j in range(n)], split_axis % payloads[0].rank)
            for i in range(n)
        ]
        self.ledger.record_all_to_all(n * payloads[0].nbytes, tag=tag)
        return out

    # -- SPMD execution ----------------------------------------------------

    def run_spmd(self, program, inputs=None, workers=1):
        """Run ``program(core, value)`` on every core to completion.

        ``program`` may return a value directly or be a generator that yields
        Permute/AllToAll requests. Returns the per-core results in rank order.
        Disagreement between cores about the next collective raises
        ProtocolError; the ledger on this mesh accumulates all traffic. BLAS
        runs single-threaded until the run ends, for any ``workers``.
        """
        if not isinstance(workers, int) or workers < 1:
            raise ArgumentError(f"workers must be a positive int, got {workers!r}")
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
            if not isinstance(e.request, (Permute, AllToAll)):
                raise ProtocolError(
                    f"core {rank} yielded {type(e.request).__name__}, "
                    "expected Permute or AllToAll"
                )

        with _single_threaded_blas():
            if workers == 1:
                self._run_rounds(start, _advance, entries, None)
            else:
                with ThreadPoolExecutor(workers) as executor:
                    self._run_rounds(start, _advance, entries, executor)

        for core in cores:
            for kind, count, tag in core._flops:
                self.ledger.add_flops(kind, count, tag=tag)
        return [e.result for e in entries]

    def _run_rounds(self, start, advance, entries, executor):
        def run_all(fn, args_list):
            if executor is None:
                for args in args_list:
                    fn(*args)
            else:
                futures = [executor.submit(fn, *args) for args in args_list]
                for f in futures:
                    f.result()

        run_all(start, [(rank,) for rank in range(len(entries))])
        while True:
            pending = [rank for rank, e in enumerate(entries) if not e.done]
            if not pending:
                return
            if any(e.done for e in entries):
                raise ProtocolError(
                    "some cores finished while others still wait on a collective"
                )
            metas = {entries[rank].request.meta() for rank in pending}
            if len(metas) != 1:
                raise ProtocolError(
                    f"cores disagree on the next collective: {sorted(metas)}"
                )
            responses = self._exchange(entries)
            run_all(advance, [(rank, responses[rank]) for rank in pending])

    def _exchange(self, entries):
        requests = [e.request for e in entries]
        first = requests[0]
        values = [r.value for r in requests]
        for v in values:
            _check_payload(v, "spmd collective")
        if isinstance(first, Permute):
            source_of = first.pairs.source_of()
            for c in source_of:
                if not 0 <= c < self.num_cores:
                    raise CommunicationError(f"pair core {c} outside mesh")
            participants = first.pairs.participants
            shapes = {(values[c].shape, values[c].dtype) for c in participants}
            if len(shapes) != 1:
                raise CommunicationError("payload shapes/dtypes differ across pairs")
            nbytes = sum(values[c].nbytes for c in participants)
            self.ledger.record_permute(nbytes, tag=first.tag)
            return [
                values[source_of[c]] if c in source_of else values[c]
                for c in range(self.num_cores)
            ]
        if isinstance(first, AllToAll):
            return self.all_to_all_groups(
                first.groups, values, first.split_axis, tag=first.tag
            )
        raise ProtocolError(f"unknown collective request {type(first).__name__}")

    def all_to_all_groups(self, groups, values, split_axis=0, tag=""):
        """One all_to_all invocation spanning several disjoint groups.

        ``values`` is indexed by flat core id; cores outside every group keep
        their payload. Counts as a single ledger entry.
        """
        groups = tuple(tuple(int(c) for c in g) for g in groups)
        seen = set()
        for g in groups:
            if not g:
                raise CommunicationError("empty all_to_all group")
            for c in g:
                if not 0 <= c < self.num_cores:
                    raise CommunicationError(f"core {c} outside mesh")
                if c in seen:
                    raise CommunicationError(f"core {c} appears in two groups")
                seen.add(c)
        for c in seen:
            _check_payload(values[c], "all_to_all")
        responses = list(values)
        nbytes = 0
        for g in groups:
            shapes = {(values[c].shape, values[c].dtype) for c in g}
            if len(shapes) != 1:
                raise CommunicationError("payload shapes/dtypes differ in group")
            n = len(g)
            chunks = [_split_chunks(values[c], split_axis, n) for c in g]
            axis = split_axis % values[g[0]].rank
            for i, c in enumerate(g):
                responses[c] = _concat([chunks[j][i] for j in range(n)], axis)
            nbytes += n * values[g[0]].nbytes
        self.ledger.record_all_to_all(nbytes, tag=tag)
        return responses
