"""Direct (quadratic) parallel transform built from row-sliced matrices.

Each core owns a contiguous row slice of the transform matrix for every
dimension. One dimension at a time, cores run the shift-by-one schedule:
contract the column block matching the payload currently held, pass the
payload one step around the ring, repeat until every column block has been
applied. P cores need exactly P-1 permutes per dimension and never hold
more than one remote block at a time. A dimension's whole schedule is one
mesh ring, whose kernel makes one contraction per core and step.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .ctensor import ComplexTensor, Operand, PrecisionMode, Prepared, contract
from .decomposition import ComputationShape
from .errors import DimensionError, UnsupportedOperationError
from .mesh import _check_blocks, _check_plan, _check_tensors
from .vandermonde import SamplePoints, column_blocks


@dataclass(frozen=True)
class KdftPlan:
    """Precomputed row slices (split into column blocks) for every dim and position.

    Blocks are stored prepared for the precision (:class:`Prepared`): cast to
    its real dtype, and under bf16split3 as their split terms only, so no
    contraction casts or splits a plan block.
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
    samples = tuple(_as_samples(s) for s in samples_per_dim)
    extents = tuple(len(s) for s in samples)
    _check_plan(shape, precision, extents)
    col_blocks = {}
    for d in range(len(samples)):
        p = shape.dims[d]
        for pos in range(p):
            col_blocks[(d, pos)] = tuple(
                Prepared(block, precision)
                for block in column_blocks(samples[d], p, pos, precision.real_dtype)
            )
    return KdftPlan(
        shape=shape,
        extents=extents,
        samples=samples,
        precision=precision,
        col_blocks=col_blocks,
    )


def _shift_ring(mesh, each, cols, xs, axis, positions, groups, mode, tag, trace_logs=None):
    """The shift-by-one schedule for one dimension on every core, as one mesh ring.

    Core c sits at ring position ``positions[c]`` of one of the rings
    ``groups`` (grid lines, their cores in position order), and ``cols[c][j]``
    is its :class:`Prepared` column block matching payloads that started at
    ring position j. At ring step s core c holds the payload that started at
    its position + s, so the payload goes around the ring parts-1 times,
    prepared once as an :class:`Operand`. ``trace_logs[c]`` gets each step's
    column block and the first element of the payload core c holds.
    """
    parts = len(cols[0])

    def kernel(core, step, held, acc, _):
        j = (positions[core] + step) % parts
        if trace_logs is not None:
            first = complex(float(held.tensor.re.flat[0]), float(held.tensor.im.flat[0]))
            trace_logs[core].append({"core": core, "v_col": j, "x_first": first})
        term = contract(cols[core][j], held, axis=axis, mode=mode)
        return term if acc is None else acc.add(term)

    # a square block per payload and step
    flops = sum(4 * x.shape[axis] * x.size * parts for x in xs)
    prepare = partial(Operand, axis=axis, mode=mode)
    xs = mesh.ring(each, groups, xs, kernel, parts - 1, tag, prepare=prepare)
    mesh.ledger.add_flops("einsum", flops, tag)
    return xs


def kdft_forward(mesh, plan, blocks, workers=1):
    """Run the forward transform; returns per-core frequency blocks.

    Output block p covers contiguous frequency rows [p*N/P, (p+1)*N/P) along
    each distributed dimension.
    """
    _check_blocks(mesh, plan, blocks)
    mode = plan.precision
    coords = [plan.shape.coords(c) for c in range(mesh.num_cores)]
    with mesh.cores(workers) as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), blocks)
        for d in range(plan.rank):
            positions = [pos[d] for pos in coords]
            cols = [plan.col_blocks[(d, pos)] for pos in positions]
            xs = _shift_ring(
                mesh, each, cols, xs, d, positions, plan.shape.lines(d), mode, f"dim{d + 1}"
            )
    return xs


def kdft_inverse_uniform(mesh, plan, blocks, workers=1):
    """Inverse transform (uniform sampling only): ``conj(forward(conj(x))) / N``.

    Every precision mode rounds symmetrically, so the bits are those of
    contracting with conjugated column blocks, and no conjugated copy of the
    plan is made.
    """
    _check_blocks(mesh, plan, blocks)
    if not plan.all_uniform():
        raise UnsupportedOperationError(
            "inverse requires uniform sampling on every dimension"
        )
    out = kdft_forward(mesh, plan, [b.conj() for b in blocks], workers=workers)
    return [y.conj().scaled(1.0 / plan.total_elements) for y in out]


def one_shuffle(mesh, v_slices, x_blocks, mode=PrecisionMode.F64_REFERENCE, trace=None):
    """Standalone shift-by-one contraction along axis 0 on every core of the mesh.

    ``v_slices[i]`` (a rank-2 row block, as from ``slice_rows``) and
    ``x_blocks[i]`` belong to core i; each slice is split into P column
    blocks internally. Returns the per-core partial-sum results in rank order.
    """
    parts = mesh.num_cores
    if len(v_slices) != parts:
        raise DimensionError(f"expected {parts} slices, got {len(v_slices)}")
    _check_tensors(x_blocks, parts)
    cols = []
    for rows, x in zip(v_slices, x_blocks):
        if not isinstance(rows, ComplexTensor) or rows.rank != 2:
            raise DimensionError("each slice must be a rank-2 ComplexTensor")
        r, n = rows.shape
        if n != r * parts:
            raise DimensionError(
                f"slice {rows.shape} does not split into {parts} square column blocks"
            )
        if x.shape[0] != r:
            raise DimensionError(f"block extent along axis 0 must be {r}, got {x.shape}")
        cols.append(tuple(
            Prepared(ComplexTensor(
                rows.re[:, j * r : (j + 1) * r], rows.im[:, j * r : (j + 1) * r]
            ), mode)
            for j in range(parts)
        ))
    group = tuple(range(parts))
    trace_logs = [[] for _ in range(parts)] if trace is not None else None
    with mesh.cores() as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), x_blocks)
        results = _shift_ring(
            mesh, each, cols, xs, 0, group, (group,), mode, "one_shuffle", trace_logs
        )
    if trace is not None:
        # one record per step: every core's operand, then the permute after
        # it as (source, target) pairs, member i receiving from member i+1
        pairs = tuple(zip(group[1:] + group[:1], group))
        trace.extend(
            {"einsums": [log[s] for log in trace_logs],
             "pairs": pairs if s < parts - 1 else None}
            for s in range(parts)
        )
    return results
