"""Direct (quadratic) parallel transform built from row-sliced matrices.

Each core owns a contiguous row slice of the transform matrix for every
dimension. One dimension at a time, cores run the shift-by-one schedule:
contract the column block matching the payload currently held, pass the
payload one step around the ring, repeat until every column block has been
applied. P cores need exactly P-1 permutes per dimension and never hold
more than one remote block at a time.
"""

from dataclasses import dataclass

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, contract
from .decomposition import ComputationShape
from .errors import (
    ArgumentError,
    DimensionError,
    PlanError,
    UnsupportedOperationError,
)
from .mesh import MeshSim, Permute, line_ring_pairs, ring_pairs
from .vandermonde import SamplePoints, column_blocks


@dataclass(frozen=True)
class KdftPlan:
    """Precomputed row slices (split into column blocks) for every dim and position.

    Blocks are stored in the precision's real dtype, so contractions use them
    without a cast.
    """

    shape: ComputationShape
    extents: tuple
    samples: tuple
    precision: PrecisionMode
    col_blocks: dict

    @property
    def rank(self):
        return len(self.extents)

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


def create_kdft_plan(shape, samples_per_dim, precision=PrecisionMode.F64_REFERENCE):
    """Build per-core matrix slices for a 1-, 2-, or 3-D transform."""
    if not isinstance(shape, ComputationShape):
        raise ArgumentError("shape must be a ComputationShape")
    if not isinstance(precision, PrecisionMode):
        raise ArgumentError("precision must be a PrecisionMode")
    samples = tuple(_as_samples(s) for s in samples_per_dim)
    rank = len(samples)
    if not 1 <= rank <= 3:
        raise PlanError(f"need 1..3 dimensions, got {rank}")
    extents = tuple(len(s) for s in samples)
    for d in range(rank, 3):
        if shape.dims[d] != 1:
            raise PlanError(
                f"rank-{rank} transform cannot use {shape.dims[d]} cores on dim {d}"
            )
    col_blocks = {}
    for d in range(rank):
        n, p = extents[d], shape.dims[d]
        if n % p != 0:
            raise PlanError(f"extent {n} on dim {d} not divisible by {p} cores")
        for pos in range(p):
            col_blocks[(d, pos)] = column_blocks(
                samples[d], p, pos, precision.real_dtype
            )
    return KdftPlan(
        shape=shape,
        extents=extents,
        samples=samples,
        precision=precision,
        col_blocks=col_blocks,
    )


def _fingerprint(x):
    return complex(float(x.re.flat[0]), float(x.im.flat[0]))


def _tally_contract(core, matrix, x, axis, tag):
    rest = x.size // x.shape[axis]
    core.add_flops("einsum", 4 * matrix.shape[0] * matrix.shape[1] * rest, tag)


def _shift_steps(core, cols, x, axis, parts, pos, pairs, mode, tag, trace_log=None,
                 conjugate=False):
    """The shift-by-one schedule for one dimension on one core (generator).

    ``cols[j]`` is this core's column block matching payloads that started
    at ring position j; with ``conjugate`` its conjugate is applied. The
    payload goes around the ring parts-1 times.
    """
    slice_idx = pos
    if trace_log is not None:
        trace_log.append(("einsum", core.rank, slice_idx, _fingerprint(x)))
    acc = contract(cols[slice_idx], x, axis=axis, mode=mode, conjugate=conjugate)
    _tally_contract(core, cols[slice_idx], x, axis, tag)
    for _ in range(parts - 1):
        if trace_log is not None:
            trace_log.append(("permute", core.rank, pairs.pairs))
        x = yield Permute(pairs, x, tag=tag)
        slice_idx = (slice_idx + 1) % parts
        if trace_log is not None:
            trace_log.append(("einsum", core.rank, slice_idx, _fingerprint(x)))
        acc = acc.add(
            contract(cols[slice_idx], x, axis=axis, mode=mode, conjugate=conjugate)
        )
        _tally_contract(core, cols[slice_idx], x, axis, tag)
    return acc


def _transform_program(plan, conjugate, trace_logs=None):
    mode = plan.precision
    dtype = mode.real_dtype
    inv_scale = 1.0 / plan.total_elements

    def program(core, x):
        x = x.astype(dtype)
        for d in range(plan.rank):
            parts = plan.shape.dims[d]
            pos = core.coords[d]
            cols = plan.col_blocks[(d, pos)]
            pairs = line_ring_pairs(plan.shape, d)
            log = trace_logs[core.rank] if trace_logs is not None else None
            x = yield from _shift_steps(
                core, cols, x, d, parts, pos, pairs, mode, f"dim{d + 1}", log,
                conjugate,
            )
        if conjugate:
            x = x.scaled(inv_scale)
        return x

    return program


def _check_blocks(plan, blocks):
    if len(blocks) != plan.shape.num_cores:
        raise DimensionError(
            f"expected {plan.shape.num_cores} blocks, got {len(blocks)}"
        )
    expected = tuple(
        n // p for n, p in zip(plan.extents, plan.shape.dims[: plan.rank])
    )
    for i, b in enumerate(blocks):
        if not isinstance(b, ComplexTensor) or b.shape != expected:
            raise DimensionError(f"block {i} must have shape {expected}")


def kdft_forward(mesh, plan, blocks, workers=1, trace=None):
    """Run the forward transform; returns per-core frequency blocks.

    Output block p covers contiguous frequency rows [p*N/P, (p+1)*N/P) along
    each distributed dimension.
    """
    if not isinstance(mesh, MeshSim) or mesh.shape != plan.shape:
        raise ArgumentError("mesh and plan must share the same computation shape")
    _check_blocks(plan, blocks)
    trace_logs = [[] for _ in range(mesh.num_cores)] if trace is not None else None
    program = _transform_program(plan, conjugate=False, trace_logs=trace_logs)
    out = mesh.run_spmd(program, blocks, workers=workers)
    if trace is not None:
        trace.extend(_assemble_trace(trace_logs))
    return out


def kdft_inverse_uniform(mesh, plan, blocks, workers=1):
    """Inverse transform (uniform sampling only): conjugated slices + 1/N scaling."""
    if not isinstance(mesh, MeshSim) or mesh.shape != plan.shape:
        raise ArgumentError("mesh and plan must share the same computation shape")
    if not plan.all_uniform():
        raise UnsupportedOperationError(
            "inverse requires uniform sampling on every dimension"
        )
    _check_blocks(plan, blocks)
    program = _transform_program(plan, conjugate=True)
    return mesh.run_spmd(program, blocks, workers=workers)


def _assemble_trace(trace_logs):
    """Merge per-core logs into a per-step record of operands and permutes."""
    steps = []
    num_steps = sum(1 for ev in trace_logs[0] if ev[0] == "einsum")
    per_core = []
    for log in trace_logs:
        per_core.append([ev for ev in log if ev[0] == "einsum"])
    pair_events = [ev for ev in trace_logs[0] if ev[0] == "permute"]
    for s in range(num_steps):
        record = {
            "einsums": [
                {"core": log[s][1], "v_col": log[s][2], "x_first": log[s][3]}
                for log in per_core
            ],
            "pairs": pair_events[s][2] if s < len(pair_events) else None,
        }
        steps.append(record)
    return steps


def one_shuffle(mesh, v_slices, x_blocks, group=None, axis=0,
                mode=PrecisionMode.F64_REFERENCE, trace=None):
    """Standalone shift-by-one contraction over one core group.

    ``v_slices[i]`` and ``x_blocks[i]`` belong to core ``group[i]``; the
    slice of each core is split into len(group) column blocks internally.
    Returns per-core partial-sum results aligned with ``group``.
    """
    if group is None:
        group = list(range(mesh.num_cores))
    group = [int(c) for c in group]
    if sorted(group) != list(range(mesh.num_cores)):
        raise ArgumentError("group must enumerate every core of the mesh exactly once")
    parts = len(group)
    if len(v_slices) != parts or len(x_blocks) != parts:
        raise DimensionError("need one slice and one block per group member")
    pos_of = {core: i for i, core in enumerate(group)}
    cols_by_core = {}
    for i, (sl, x) in enumerate(zip(v_slices, x_blocks)):
        rows = sl.rows if hasattr(sl, "rows") else sl
        if rows.rank != 2:
            raise DimensionError("each slice must be a rank-2 ComplexTensor")
        r, n = rows.shape
        if n != r * parts:
            raise DimensionError(
                f"slice {rows.shape} does not split into {parts} square column blocks"
            )
        if not -x.rank <= axis < x.rank or x.shape[axis % x.rank] != r:
            raise DimensionError(
                f"block extent along axis {axis} must be {r}, got {x.shape}"
            )
        cols_by_core[group[i]] = tuple(
            ComplexTensor(rows.re[:, j * r : (j + 1) * r], rows.im[:, j * r : (j + 1) * r])
            for j in range(parts)
        )
    pairs = ring_pairs(group)
    trace_logs = [[] for _ in range(parts)] if trace is not None else None
    blocks_by_core = dict(zip(group, x_blocks))

    def program(core, _):
        pos = pos_of[core.rank]
        x = blocks_by_core[core.rank].astype(mode.real_dtype)
        log = trace_logs[core.rank] if trace_logs is not None else None
        result = yield from _shift_steps(
            core, cols_by_core[core.rank], x, axis, parts, pos, pairs, mode,
            "one_shuffle", log
        )
        return result

    results = mesh.run_spmd(program, [None] * parts)
    if trace is not None:
        trace.extend(_assemble_trace(trace_logs))
    return [results[core] for core in group]
