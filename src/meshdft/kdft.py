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

import numpy as np

from .ctensor import ComplexTensor, Operand, PrecisionMode, Prepared, _check_finite, contract
from .decomposition import ComputationShape
from .errors import UnsupportedOperationError
from .mesh import _check_blocks, _check_plan, _empty_stack, _entry, _stage
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
    return KdftPlan(shape, extents, samples, precision, col_blocks)


def _shift_ring(mesh, each, xs, lines, cols, axis, mode, tag, core_bytes, trace=None):
    """The shift-by-one schedule for one dimension on every core, as one mesh ring.

    Core c sits at position i of one of the rings ``lines`` (grid lines, their
    cores in position order); ``cols[i][j]`` is the :class:`Prepared` column
    block of position i for payloads that started at position j. Each slab
    prepares its payloads once, as :class:`Operand`s. At step s position i
    holds the payload that started at i + s and contracts it into its sum.
    A non-finite partial sum stays non-finite, so one scan of each sum at the
    last step catches any overflow. Returns the sums as stacked planes.
    ``trace`` gets one record per step (:func:`kdft_forward`).
    """
    num, block = mesh.num_cores, xs[0][0].shape
    view = mesh._check_groups(lines)
    ids, parts = np.arange(num).reshape(view), view[1]
    held = each(lambda box: {c: Operand(ComplexTensor._own(xs[0][c], xs[1][c]), axis, mode)
                             for c in ids[box].ravel().tolist()}, view, core_bytes)
    sums = tuple(_empty_stack(num, block, axis, mode.real_dtype) for _ in "ri")
    logs = [[] for _ in range(num)]

    def kernel(step, box, ops, moves, _):
        for src, dst in moves:
            for cs, cd in zip(ids[box][:, src].ravel().tolist(), ids[dst].ravel().tolist()):
                j, op = cs // view[2] % parts, ops[cs]
                if trace is not None:
                    first = complex(float(op.tensor.re.flat[0]), float(op.tensor.im.flat[0]))
                    logs[cd].append({"core": cd, "v_col": j, "x_first": first})
                term = contract(cols[cd // view[2] % parts][j], op, axis=axis, mode=mode)
                for s, t in zip(sums, (term.re, term.im)):
                    if step:
                        np.add(s[cd], t, out=s[cd])
                    else:
                        np.copyto(s[cd], t)
                if step == parts - 1:
                    _check_finite(sums[0][cd], sums[1][cd])

    mesh.ring(each, lines, held, core_bytes, kernel, parts - 1, tag)
    # a square block per payload and step
    mesh.ledger.add_flops("einsum", 4 * block[axis] * sums[0].size * parts, tag)
    if trace is not None:
        # member i of a group receives from member i+1
        pairs = tuple(p for g in lines for p in zip(g[1:] + g[:1], g))
        trace.extend(
            {"einsums": [log[s] for log in logs], "pairs": pairs if s < parts - 1 else None}
            for s in range(parts)
        )
    return sums


def kdft_forward(mesh, plan, blocks, workers=1, trace=None):
    """Run the forward transform; returns per-core frequency blocks.

    Output block p covers contiguous frequency rows [p*N/P, (p+1)*N/P) along
    each distributed dimension.

    A ``trace`` list gets one record per ring step, dimension by dimension:
    ``{"einsums": [{"core", "v_col", "x_first"}, ...], "pairs": ...}``.
    ``einsums`` holds every core in core order: the column block it
    contracts (the ring position its payload started at) and the first
    element of that payload. ``pairs`` holds the (source, target) cores of
    the permute after the step, over every grid line of the dimension, or
    None at the last step.
    """
    _check_blocks(mesh, plan, blocks)
    mode = plan.precision
    core_bytes = 2 * mode.real_dtype.itemsize * blocks[0].size
    with mesh.cores(workers) as each:
        xs = _entry(each, blocks, mode)
        for d in range(plan.rank):
            cols = [plan.col_blocks[(d, pos)] for pos in range(plan.shape.dims[d])]
            with _stage("shift ring", d, mode):
                xs = _shift_ring(mesh, each, xs, plan.shape.lines(d), cols, d, mode,
                                 f"dim{d + 1}", core_bytes, trace)
    return [ComplexTensor._own(re, im) for re, im in zip(*xs)]


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
