"""Layer spans recorded from outside the package.

The tracer replaces module and class attributes that the engines look up at
call time (``meshdft.fft.local_fft``, ``MeshSim.run_spmd``, ...) with thin
wrappers, so nothing under ``src/`` changes. Each call becomes one span:
name, start, end, parent span, op id and thread. Spans stay in memory until
:func:`write_spans` exports them as JSON lines and Chrome trace-event JSON.

Self time is attributed on the wall clock: at every instant the elapsed time
is split evenly among the open spans that have no open child. A span opened
on a worker thread with an empty stack takes as parent the innermost open
span of the tracing thread (the ``run_spmd`` that is waiting on it), so the
self time of ``run_spmd`` is its interval minus the union of its children
across threads. The self times of all spans under a root sum to the root's
wall time.
"""

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (owner path, attribute, span name). Owners are resolved lazily; a target
# that no longer exists is skipped, so its metric reads 0.
SPAN_TARGETS = (
    ("meshdft", "create_kdft_plan", "kdft.plan"),
    ("meshdft.cli", "create_kdft_plan", "kdft.plan"),
    ("meshdft", "create_fft_plan", "fft.plan"),
    ("meshdft.cli", "create_fft_plan", "fft.plan"),
    ("meshdft", "kdft_forward", "kdft.forward"),
    ("meshdft.cli", "kdft_forward", "kdft.forward"),
    ("meshdft", "fft_forward", "fft.forward"),
    ("meshdft.cli", "fft_forward", "fft.forward"),
    ("meshdft", "decompose", "decomposition.decompose"),
    ("meshdft.cli", "decompose", "decomposition.decompose"),
    ("meshdft", "gather_to_host", "decomposition.gather"),
    ("meshdft.cli", "gather_to_host", "decomposition.gather"),
    ("meshdft.kdft", "matrix_for", "vandermonde.matrix"),
    ("meshdft.fft", "build_phase_slice", "vandermonde.phase"),
    ("meshdft.kdft", "contract", "ctensor.contract"),
    ("meshdft.fft", "local_fft", "fft.local_fft"),
    ("meshdft.fft", "reorder", "ctensor.reorder"),
    ("meshdft.fft", "scale_along_axis", "ctensor.scale"),
    ("meshdft.mesh.MeshSim", "run_spmd", "mesh.run_spmd"),
    ("meshdft.mesh.MeshSim", "all_to_all_groups", "mesh.all_to_all"),
    ("meshdft.cli", "main", "cli.main"),
    ("meshdft.cli", "run_transform", "cli.run_transform"),
    ("meshdft.cli", "make_input", "tensorio.make_input"),
    ("meshdft.cli", "direct_dft", "oracle.direct_dft"),
    ("meshdft.cli", "direct_dft_2d", "oracle.direct_dft"),
    ("meshdft.cli", "direct_dft_3d", "oracle.direct_dft"),
    ("meshdft.cli", "transform_report", "reports.transform_report"),
    ("meshdft.cli", "write_scaling_csv", "reports.write"),
    ("meshdft.cli", "write_scaling_json", "reports.write"),
)

# Calls that are counted but get no span: too frequent to time cheaply.
COUNT_TARGETS = (
    ("meshdft.ctensor.ComplexTensor", "__init__", "ctensor.tensors_built"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))
LAYERS = (
    "cli", "reports", "oracle", "tensorio", "decomposition", "mesh",
    "kdft", "fft", "vandermonde", "ctensor",
)
ROOT_LAYER = "bench"


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self):
        self.spans = []  # (id, name, parent, op, thread, start_ns, end_ns)
        self.root_counts = {}  # op -> {count name: calls inside that root}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = None
        self._patches = []
        # itertools.count advances atomically under the GIL; a read draws one
        # value, so reads are tallied and subtracted.
        self._counters = {name: itertools.count() for _, _, name in COUNT_TARGETS}
        self._draws = dict.fromkeys(self._counters, 0)
        self.op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home_stack
        return home[-1] if home else None

    def _wrap_span(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, name, parent, tracer.op, threading.get_ident(), start, end)
                )

        traced.__wrapped__ = fn
        return traced

    def _read_counts(self):
        out = {}
        for name, counter in self._counters.items():
            out[name] = next(counter) - self._draws[name]
            self._draws[name] += 1
        return out

    def _wrap_count(self, fn, name):
        counter = self._counters[name]

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _install(self):
        self._home_stack = self._stack()
        for targets, wrap in ((SPAN_TARGETS, self._wrap_span),
                              (COUNT_TARGETS, self._wrap_count)):
            for owner_path, attr, name in targets:
                owner = _resolve(owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrap(original, name))

    def _uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def traced(self, name, op):
        """Wrap every target that exists and record one root span around the block.

        The root span is the benchmark's own layer; ``op`` labels it and every
        span under it. The wrappers are removed again when the block ends.
        """
        self._install()
        self.op = op
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        before = self._read_counts()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            after = self._read_counts()
            stack.pop()
            self.op = None
            self._uninstall()
            self.root_counts[op] = {k: after[k] - v for k, v in before.items()}
            self.spans.append((sid, name, None, op, threading.get_ident(), start, end))


def attribute(spans):
    """Wall-clock self and inclusive time (ns) of every span, keyed by id.

    Elapsed time between consecutive span boundaries is split evenly among
    the open spans with no open child, so concurrent leaves on different
    threads share the wall clock instead of each claiming all of it.
    """
    parent = {s[0]: s[2] for s in spans}
    events = []
    for sid, _, _, _, _, start, end in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()  # at equal times, closes (0) precede opens (1)
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    self_ns = defaultdict(float)
    prev = None
    for t, kind, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_ns[leaf] += share
        prev = t
        p = parent[sid]
        if kind == 1:
            is_open.add(sid)
            leaves.add(sid)
            if p in is_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    inclusive = defaultdict(float, self_ns)
    for sid, _, p, _, _, start, _ in sorted(spans, key=lambda s: -s[5]):
        if p is not None:
            inclusive[p] += inclusive[sid]
    return self_ns, inclusive


def layer_of(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else ROOT_LAYER


def write_spans(spans, jsonl_path, chrome_path):
    """Export spans as JSON lines and as Chrome trace-event JSON (Perfetto)."""
    threads = {}
    ordered = sorted(spans, key=lambda s: s[5])
    t0 = ordered[0][5] if ordered else 0
    with open(jsonl_path, "w") as fh:
        for sid, name, parent, op, tid, start, end in ordered:
            fh.write(json.dumps({
                "id": sid, "name": name, "parent": parent, "op": op,
                "thread": threads.setdefault(tid, len(threads)),
                "start_ns": start - t0, "end_ns": end - t0,
            }) + "\n")
    events = [
        {
            "name": name, "cat": layer_of(name), "ph": "X", "pid": 1,
            "tid": threads[tid], "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": sid, "parent": parent, "op": op},
        }
        for sid, name, parent, op, tid, start, end in ordered
    ]
    with open(chrome_path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
