"""Log-linear parallel transform: decimate, local FFT, phase combination.

Writing the frequency index as k and the sample index as n = P*l + b, the
transform factors into P independent M-point FFTs (M = N/P) over the
decimated subsequences, recombined with per-frequency phase factors:

    X_k = sum_b exp(-2j*pi*b*k/N) * F_b[k mod M]

Per distributed dimension the engine does exactly one all_to_all (moving
contiguous blocks into decimated subsequences), one local in-order FFT of
matrix products, run as the all_to_all's kernel so that its one layout copy
of the received planes is the exchange, and a shift-by-one phase
combination costing P-1 permutes,
run as one mesh ring; each ring step reads the phase factors of every core at
once from the length-N unit-root table, so no plan holds per-core phase blocks.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite, _complex_product
from .decomposition import ComputationShape
from .errors import ArgumentError, DimensionError, PlanError
from .mesh import _check_blocks, _check_plan, _empty_stack, _entry, _stage
from .vandermonde import _unit_roots


def _is_pow2(n):
    return isinstance(n, int) and n >= 1 and (n & (n - 1)) == 0


@lru_cache(maxsize=64)
def _stage_matrices(m, mode):
    """The prepared re and im terms of one decimation-in-time stage of extent m.

    The stage takes the q-point transforms Y_j of the r subsequences x[j::r]
    to X[k1 + q*k2] = sum_j w**(j*(k1 + q*k2)) * Y_j[k1], w = exp(-2j*pi/m),
    as q matrices of r x r (r = 8, or m <= 8): entry (k2, j) of matrix k1 is
    that power's table entry, twiddle included. The terms are read-only.
    """
    r = min(m, 8)
    k1, k2, j = np.ogrid[: m // r, :r, :r]
    terms = tuple(mode.prepare(table[j * (k1 + m // r * k2) % m]) for table in _unit_roots(m))
    for term in terms[0] + terms[1]:
        term.flags.writeable = False
    return terms


def local_fft(tensor, axis=0, mode=PrecisionMode.F64_REFERENCE, batch=0):
    """In-order mixed-radix decimation-in-time FFT along one axis, as matrix products.

    With m = r*q, the q-point transforms of the r decimated subsequences, made
    the same way on the (q, r*rest) view, are combined by one batched matmul of
    :func:`_stage_matrices`: four real products in the mode's product form
    (bfloat16 split terms under bf16split3); m <= 8 is one m x m product.
    ``tensor`` is a :class:`ComplexTensor`, or an (re, im) pair of planes of any
    rank, for which a pair comes back, whose leading ``batch`` axes (a slab's
    cores) stay on matmul's batch axis, so their bits do not depend on how many
    share a call. Each one's ``axis`` is outermost in memory. ``axis`` may be a
    run of adjacent axes, transformed as one axis of their C order, as
    :meth:`MeshSim.all_to_all_groups` hands over a split axis; the result has
    that one axis in their place.
    """
    if isinstance(tensor, ComplexTensor):
        return ComplexTensor._own(*local_fft((tensor.re, tensor.im), axis, mode))
    if not (isinstance(tensor, tuple) and len(tensor) == 2):
        raise ArgumentError("local_fft expects a ComplexTensor or an (re, im) pair")
    rank = tensor[0].ndim
    axes = (axis,) if np.ndim(axis) == 0 else tuple(axis)
    if not axes or not all(-rank <= a < rank for a in axes):
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    axis = axes[0] % rank
    if tuple(a % rank for a in axes) != tuple(range(axis, axis + len(axes))):
        raise DimensionError(f"axes {axes} are not adjacent and in order")
    if not 0 <= batch <= axis:
        raise DimensionError(f"batch axes {batch} must precede axis {axis}")
    m = math.prod(tensor[0].shape[a] for a in axes)
    if not _is_pow2(m):
        raise DimensionError(f"extent {m} along axis {axis} is not a power of two")
    dtype, product = mode.real_dtype, mode.product
    moved = [np.moveaxis(p, axes, range(batch, batch + len(axes))) for p in tensor]
    shape = moved[0].shape[:batch] + (m,) + moved[0].shape[batch + len(axes):]
    b = math.prod(shape[:batch])
    # the caller's planes are read where they already have this layout, and
    # otherwise moved and cast in one copy, which the first stage then reuses
    owned = m == 1 or not all(p.dtype == dtype and p.flags.c_contiguous for p in moved)
    y = tuple((np.array(p, dtype, order="C") if owned else p).reshape(b, m, -1) for p in moved)
    del moved
    # 2, 4 or 8 points first, then 8 times more at each stage
    for extent in (m >> s for s in range(3 * ((m.bit_length() - 2) // 3), -1, -3)):
        w_re, w_im = _stage_matrices(extent, mode)
        q, r = w_re[0].shape[:2]
        out = tuple(np.empty(y[0].shape, dtype) for _ in "ri")
        # matrix k1's row k2 lands at frequency k1 + q*k2 of the extent
        dest = tuple(o.reshape(b, r, q, -1).transpose(0, 2, 1, 3) for o in out)
        y_re = mode.prepare(y[0].reshape(b, q, r, -1))
        product(w_re, y_re, np.matmul, dest[0])
        product(w_im, y_re, np.matmul, dest[1])
        # spent re terms: the first takes the im products unless it is the caller's plane
        scratch, y_im = y_re[0] if owned or len(y_re) > 1 else None, y[1].reshape(b, q, r, -1)
        del y, y_re
        y_im = mode.prepare(y_im)
        np.subtract(dest[0], product(w_im, y_im, np.matmul, scratch), out=dest[0])
        np.add(dest[1], product(w_re, y_im, np.matmul, scratch), out=dest[1])
        y, owned = out, True
        del y_im, scratch
    _check_finite(*y)
    return tuple(np.moveaxis(p.reshape(shape), batch, axis) for p in y)


def local_fft_flops(m, rest=1):
    """Real-op count of an m-point complex FFT applied to ``rest`` columns."""
    if not _is_pow2(m):
        raise ArgumentError(f"length must be a power of two, got {m!r}")
    return 5 * m * int(math.log2(m)) * int(rest)


def _stride(parts, m):
    # max(1, P // m) for the powers of two the engine takes; 1 on one core
    return parts // math.gcd(parts, m)


def gather_positions(parts, block_extent):
    """Which decimation offset each line position holds after the gather."""
    m, stride = block_extent, _stride(parts, block_extent)
    return tuple((pos % stride) * m + pos // stride for pos in range(parts))


def _gather_groups(lines, parts, m):
    """all_to_all groups implementing the block-to-subsequence exchange.

    Each group is every ``stride``-th core of a line. After the strided
    all_to_all, the core at line position pos holds, in order, the elements
    whose global index is ``gather_positions(P, m)[pos]`` mod P.
    """
    stride = _stride(parts, m)
    return tuple(tuple(line[r::stride]) for line in lines for r in range(stride))


@dataclass(frozen=True)
class FftPlan:
    """Decimation layout for each dimension; phase factors come from a unit-root table."""

    shape: ComputationShape
    extents: tuple
    precision: PrecisionMode
    beta_maps: dict

    @property
    def rank(self):
        return len(self.extents)


def create_fft_plan(shape, extents, precision=PrecisionMode.F64_REFERENCE):
    """Plan a power-of-two transform over the core grid."""
    extents = tuple(int(n) for n in extents)
    _check_plan(shape, precision, extents)
    beta_maps = {}
    for d in range(len(extents)):
        n, p = extents[d], shape.dims[d]
        if not _is_pow2(n):
            raise PlanError(f"extent {n} on dim {d} must be a power of two")
        if not _is_pow2(p):
            raise PlanError(f"core count {p} on dim {d} must be a power of two")
        beta_maps[d] = gather_positions(p, n // p)
    return FftPlan(shape, extents, precision, beta_maps)


def _unit_root_factors(n, parts, beta_map, axis, rank, mode):
    """Each step's phase factors for one dimension: one read of the unit-root table.

    At ring step s the payload that started at position i, the FFT of the
    subsequence of offset b = beta_map[i], sits at position p = (i - s) mod
    parts, whose row r (frequency k = p*m + r) takes exp(-2j*pi*b*k/n), the
    table's entry b*k mod n. A step's factors are prepared for the mode once
    for every payload, as the terms of (re, im), each indexed ``[0, i, 0]``
    and then the block's axes, as the ring views stacked planes.
    """
    # the table cast once; exponents mod n (a power of two) by a mask
    table = tuple(t.astype(mode.real_dtype, copy=False) for t in _unit_roots(n))
    bshape = tuple(-1 if a == axis else 1 for a in range(rank))
    k = np.arange(n, dtype=np.int64).reshape((1, parts, 1) + bshape)
    beta = np.asarray(beta_map, dtype=np.int64).reshape((1, parts, 1) + (1,) * rank)
    # b*k mod n at step 0; position p - s holds frequency k - s*m = k + (P-s)*m (mod n)
    beta_k = beta * k & (n - 1)

    def factors(step):
        exponents = beta_k + beta * ((parts - step) * (n // parts))
        exponents &= n - 1
        return tuple(mode.prepare(t.take(exponents)) for t in table)

    return factors


def _local_fft_kernel(view, axis, mode):
    """The gather's kernel: a slab's local FFTs along ``axis``, prepared for the mode
    at once (under bf16split3 only the split terms outlive a slab).

    Its one copy of the received planes is the exchange. The results are
    shaped as the slab of the lines' ``view`` that holds the same cores, as
    the phase ring takes them: for the powers of two an fft takes, every
    slab of any view of the core axis is an aligned run of cores
    (:func:`meshdft.mesh._slabs`), the same run in either view.
    """
    _, n, inner = view

    def kernel(box, payload):
        cores = math.prod(s.stop - s.start for s in box)
        lines_box = (max(1, cores // (n * inner)), min(n, max(1, cores // inner)), min(inner, cores))
        y = local_fft(payload, (3 + axis, 4 + axis), mode, 3)
        return tuple(mode.prepare(p.reshape(lines_box + p.shape[3:])) for p in y)

    return kernel


def _phase_ring(mesh, each, held, lines, view, axis, factors, mode, tag, core_bytes):
    """The shift-by-one phase combination on every core, as one mesh ring.

    ``held`` has each slab's subsequence FFTs, prepared for the mode. At each
    step a slab multiplies its payloads by the phase factors of the positions
    holding them, in one product, added into those positions' sums in ring
    order. A non-finite partial sum stays non-finite, so one scan of each sum
    at the last step catches any overflow. Returns the sums as stacked planes.
    """
    block = held[0][0][0].shape[3:]
    out = tuple(_empty_stack(mesh.num_cores, block, axis, mode.real_dtype) for _ in "ri")
    sums = tuple(o.reshape(view + block) for o in out)
    last = view[1] - 1

    def kernel(step, box, x, moves, table):
        f_re, f_im = (tuple(t[:, box[1]] for t in terms) for terms in table)
        if step == 0:
            _complex_product(*x, f_re, f_im, mode, out=tuple(s[box] for s in sums))
        else:
            term = _complex_product(*x, f_re, f_im, mode)
            for src, dst in moves:
                for s, t in zip(sums, term):
                    np.add(s[dst], t[:, src], out=s[dst])
        if step == last:
            for _, dst in moves:
                _check_finite(*(s[dst] for s in sums))

    mesh.ring(each, lines, held, core_bytes, kernel, last, tag, factors)
    mesh.ledger.add_flops("einsum", 4 * out[0].size * view[1], tag)
    return out


def fft_forward(mesh, plan, blocks, workers=1):
    """Run the decimation-based transform; returns per-core frequency blocks.

    Output distribution matches the direct engine: block p covers contiguous
    frequency rows [p*N/P, (p+1)*N/P) along each distributed dimension.
    """
    _check_blocks(mesh, plan, blocks)
    mode, num = plan.precision, mesh.num_cores
    core_bytes = 2 * mode.real_dtype.itemsize * blocks[0].size
    with mesh.cores(workers) as each:
        xs = _entry(each, blocks, mode)
        for d in range(plan.rank):
            n, parts = plan.extents[d], plan.shape.dims[d]
            m, lines, tag = n // parts, plan.shape.lines(d), f"dim{d + 1}"
            view = mesh._check_groups(lines)
            with _stage("local FFT", d, mode):
                xs = mesh.all_to_all_groups(_gather_groups(lines, parts, m), xs, d, tag, each,
                                            _local_fft_kernel(view, d, mode))
            mesh.ledger.add_flops("local_fft", local_fft_flops(m, num * blocks[0].size // m), tag)
            factors = _unit_root_factors(n, parts, plan.beta_maps[d], d, plan.rank, mode)
            with _stage("phase ring", d, mode):
                xs = _phase_ring(mesh, each, xs, lines, view, d, factors, mode, tag, core_bytes)
    return [ComplexTensor._own(re, im) for re, im in zip(*xs)]
