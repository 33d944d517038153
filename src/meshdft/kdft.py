"""Direct (quadratic) parallel transform built from row-sliced matrices.

Each core owns a contiguous row slice of the transform matrix for every
dimension. One dimension at a time, cores run the shift-by-one schedule:
contract the column block matching the payload currently held, pass the
payload one step around the ring, repeat until every column block has been
applied. P cores need exactly P-1 permutes per dimension and never hold
more than one remote block at a time. A dimension's whole schedule is one
mesh ring, whose kernel makes one batched matrix product per slab of cores
and step: every core of the slab applies a same-shaped block.
"""

from dataclasses import dataclass

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite
from .decomposition import ComputationShape
from .errors import UnsupportedOperationError
from .mesh import _check_blocks, _check_plan, _empty_stack, _entry, _stage
from .vandermonde import SamplePoints, column_blocks


@dataclass(frozen=True)
class KdftPlan:
    """Every dimension's column blocks of every position's row slice, in ring-step order.

    ``ring_blocks[d]`` holds the :meth:`PrecisionMode.prepare` terms of the re and
    im planes as stacked ``(P, P, w, w)`` arrays (P cores along d, w = N/P):
    entry ``[s, i]`` is column block i of the row slice of position
    (i - s) mod P, the block that the core holding position i's payload
    applies at ring step s. The terms are cast to the precision's real dtype,
    and under bf16split3 are the split terms only, so no ring step casts or
    splits a plan block.
    """

    shape: ComputationShape
    extents: tuple
    samples: tuple
    precision: PrecisionMode
    ring_blocks: tuple

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


def _ring_blocks(samples, parts, mode):
    """One dimension's prepared (re terms, im terms) in ring-step order (:class:`KdftPlan`).

    Each block is prepared as it is built and written into the stacks, so
    the build holds little beyond the plan: one block, or for explicit
    points one row slice of complex powers.
    """
    stacks = []
    for pos in range(parts):
        blocks = column_blocks(samples, parts, pos, mode.real_dtype)
        for j in range(parts):
            block = next(blocks)
            terms = mode.prepare(block.re) + mode.prepare(block.im)
            stacks = stacks or [np.empty((parts, parts) + t.shape, t.dtype) for t in terms]
            for stack, term in zip(stacks, terms):
                stack[(j - pos) % parts, j] = term
            del block, terms  # before the next block is built
    return tuple(stacks[:len(stacks) // 2]), tuple(stacks[len(stacks) // 2:])


def create_kdft_plan(shape, samples_per_dim, precision=PrecisionMode.F64_REFERENCE):
    """Build per-core matrix slices for a 1-, 2-, or 3-D transform."""
    samples = tuple(_as_samples(s) for s in samples_per_dim)
    extents = tuple(len(s) for s in samples)
    _check_plan(shape, precision, extents)
    ring_blocks = tuple(_ring_blocks(s, p, precision) for s, p in zip(samples, shape.dims))
    return KdftPlan(shape, extents, samples, precision, ring_blocks)


def _shift_ring(mesh, each, xs, lines, ring_blocks, axis, mode, tag, core_bytes):
    """The shift-by-one schedule for one dimension on every core, as one mesh ring.

    Core c sits at position i of one of the rings ``lines`` (grid lines, their
    cores in position order); ``ring_blocks`` are the dimension's plan blocks
    (:class:`KdftPlan`). Each slab prepares its payloads once, moved so that
    ``axis`` leads and with re|im side by side, ``(..., k, 2*rest)``. At step
    s position i holds the payload that started at i + s: the slab applies
    step s's blocks of its payloads' start positions in one batched product
    per matrix plane (``m_re @ x`` gives ``rr|ri``, ``m_im @ x`` gives
    ``ir|ii``) and adds the results into the holders' sums. A non-finite
    partial sum stays non-finite, so one scan of each sum at the last step
    catches any overflow. Returns the sums as stacked planes.
    """
    num, block = mesh.num_cores, xs[0][0].shape
    view = mesh._check_groups(lines)
    ids, parts, rest = np.arange(num).reshape(view), view[1], block[:axis] + block[axis + 1:]
    out = tuple(_empty_stack(num, block, axis, mode.real_dtype) for _ in "ri")
    sums = tuple(o.reshape(view + block) for o in out)

    def operand(box):
        cores = ids[box]
        x = np.empty((cores.size, block[axis], 2) + rest, mode.real_dtype)
        for i, c in enumerate(cores.ravel().tolist()):
            np.stack([np.moveaxis(p[c], axis, 0) for p in xs], axis=1, out=x[i])
        return mode.prepare(x.reshape(cores.shape + (block[axis], -1)))

    def kernel(step, box, x, moves, _):
        r_x, i_x = (mode.product(tuple(t[step, box[1], None] for t in terms), x, np.matmul)
                    for terms in ring_blocks)
        half = r_x.shape[-1] // 2
        # rr - ii and ri + ir, in the planes of rr and ri
        np.subtract(r_x[..., :half], i_x[..., half:], out=r_x[..., :half])
        np.add(r_x[..., half:], i_x[..., :half], out=r_x[..., half:])
        terms = (np.moveaxis(r_x[..., p:p + half].reshape(r_x.shape[:4] + rest), 3, 3 + axis)
                 for p in (0, half))
        for s, t in zip(sums, terms):
            for src, dst in moves:
                if step:
                    np.add(s[dst], t[:, src], out=s[dst])
                else:
                    np.copyto(s[dst], t[:, src])
        if step == parts - 1:
            for _, dst in moves:
                _check_finite(*(s[dst] for s in sums))

    mesh.ring(each, lines, each(operand, view, core_bytes), core_bytes, kernel, parts - 1, tag)
    # a square block per payload and step
    mesh.ledger.add_flops("einsum", 4 * block[axis] * out[0].size * parts, tag)
    return out


def _trace_records(xs, lines, parts):
    """One dimension's ring steps as trace records (:func:`kdft_forward`)."""
    firsts = [complex(float(re.flat[0]), float(im.flat[0])) for re, im in zip(*xs)]
    # member i of a group receives from member i+1
    pairs = tuple(p for g in lines for p in zip(g[1:] + g[:1], g))
    cores = sorted((c, i, g) for g in lines for i, c in enumerate(g))
    return [{"einsums": [{"core": c, "v_col": (i + s) % parts,
                          "x_first": firsts[g[(i + s) % parts]]} for c, i, g in cores],
             "pairs": pairs if s < parts - 1 else None} for s in range(parts)]


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
            lines, parts = plan.shape.lines(d), plan.shape.dims[d]
            with _stage("shift ring", d, mode):
                ys = _shift_ring(mesh, each, xs, lines, plan.ring_blocks[d], d, mode,
                                 f"dim{d + 1}", core_bytes)
            if trace is not None:
                trace.extend(_trace_records(xs, lines, parts))
            xs = ys
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
