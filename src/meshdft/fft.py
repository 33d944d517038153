"""Log-linear parallel transform: decimate, local FFT, P-point DFT across the cores.

Writing the sample index as n = P*l + b and the frequency index as
k = p*M + r (M = N/P), the transform is Bailey's four-step FFT: P
independent M-point FFTs F_b of the decimated subsequences, a twiddle, and
a P-point DFT across the cores,

    X_{p*M + r} = sum_b w_P**(b*p) * (w_N**(b*r) * F_b[r]),   w_N = exp(-2j*pi/N)

Per distributed dimension the engine does exactly one all_to_all (moving
contiguous blocks into decimated subsequences) and one local in-order FFT of
matrix products, run as the all_to_all's kernel so that its one layout copy
of the received planes is the exchange; its last stage's matrices carry the
twiddles as exact table entries. The P-point DFT is the shift-by-one ring
that kdft runs (:func:`meshdft.mesh._shift_ring`), P-1 permutes, with 1x1
blocks c = w_N**(b*p*M) applied to a payload's rows re and im as real 2x2
blocks [[c_re, -c_im], [c_im, c_re]]: one matrix product per slab and step.
The plan holds each dimension's stage matrices and the P-th roots' prepared
blocks, so a forward call builds no table; each step gathers its P blocks
from the roots' blocks, and no plan holds per-core phase blocks.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite
from .decomposition import ComputationShape
from . import mesh as mesh_module
from .errors import ArgumentError, DimensionError, PlanError
from .mesh import _check_plan, _forward
from .vandermonde import _unit_roots


def _is_pow2(n):
    return isinstance(n, int) and n >= 1 and (n & (n - 1)) == 0


@lru_cache(maxsize=64)
def _stage_matrices(m, mode, parts=1):
    """The prepared re and im terms of each decimation-in-time stage of an m-point
    local FFT, in the order it applies them: 2, 4 or 8 points first, then 8 times
    more at each stage, the stages of m/8 (or none) and then one of extent m; none
    for m = 1.

    The stage of extent m takes the q-point transforms Y_j of the r subsequences
    x[j::r] to X[k1 + q*k2] = sum_j w**(j*(k1 + q*k2)) * Y_j[k1], w = exp(-2j*pi/m),
    as q matrices of r x r (r = 8, or m <= 8): entry (k2, j) of matrix k1 is
    that power's table entry, twiddle included. For ``parts`` > 1 it is the
    last stage of an fft dimension of n = m*parts points, one set per line
    position, whose subsequence offset b (:func:`gather_positions`) brings
    the four-step twiddle w_n**(b*k) of row k: entry (k2, j) times it is
    w_n**((parts*j + b)*k), one entry of the length-n table, so folding it
    in adds no rounding. The exponents are one array in the smallest dtype
    that holds n - 1, reduced mod n with ``& (n - 1)``: n is a power of two,
    so a product that wraps in that dtype is still right mod n. They index
    the prepared length-n tables. The terms are read-only, (parts, q, r, r).
    """
    if m == 1:
        return ()
    n, r, dtype = m * parts, min(m, 8), np.min_scalar_type(m * parts - 1)
    k1, k2, j = np.ogrid[: m // r, :r, :r]
    b = np.asarray(gather_positions(parts, m)).reshape(-1, 1, 1, 1)
    # both factors are below n
    exponents = np.multiply((parts * j + b).astype(dtype), (k1 + m // r * k2).astype(dtype))
    exponents &= n - 1
    terms = tuple(tuple(np.take(t, exponents, mode="clip") for t in mode.prepare(table))
                  for table in _unit_roots(n))
    for term in terms[0] + terms[1]:
        term.flags.writeable = False
    return _stage_matrices(m // r, mode) + (terms,)


def local_fft(tensor, axis=0, mode=PrecisionMode.F64_REFERENCE):
    """In-order mixed-radix decimation-in-time FFT along one axis, as matrix products.

    With m = r*q, the q-point transforms of the r decimated subsequences, made
    the same way on the (q, r*rest) view, are combined by one batched matmul of
    :func:`_stage_matrices`: four real products in the mode's product form
    (bfloat16 split terms under bf16split3); m <= 8 is one m x m product.
    ``tensor`` is a :class:`ComplexTensor`; the result is one in the mode's dtype,
    ``axis`` outermost in its memory.
    """
    if not isinstance(tensor, ComplexTensor):
        raise ArgumentError("local_fft expects a ComplexTensor")
    if not -tensor.rank <= axis < tensor.rank:
        raise DimensionError(f"axis {axis} out of range for rank {tensor.rank}")
    m = tensor.shape[axis]
    if not _is_pow2(m):
        raise DimensionError(f"extent {m} along axis {axis} is not a power of two")
    moved = [np.moveaxis(p, axis, 0) for p in (tensor.re, tensor.im)]
    y = _local_fft(moved, (1, m), mode, _stage_matrices(m, mode))
    return ComplexTensor._own(*(np.moveaxis(p.reshape(moved[0].shape), 0, axis) for p in y))


def _local_fft(moved, lead, mode, stages, out=None):
    """:func:`local_fft` of the (re, im) planes ``moved``, the batch axes leading and
    then the transform's; they are read as ``lead`` = (batch axes..., m) and the rest.
    The batch axes (a slab's cores) stay on matmul's batch axis, so their bits do
    not depend on how many share a call.

    ``stages`` are :func:`_stage_matrices`' terms, whose last may be replaced by
    terms that broadcast over ``lead``'s batch axes, and ``out`` is a pair of
    planes shaped ``lead`` + (rest,) that takes the last stage's products.
    Returns the result planes, shaped so, or ``out``.
    """
    dtype, product, m = mode.real_dtype, mode.product, lead[-1]
    out = out or (None, None)
    # the caller's planes are read where they already have this layout, and
    # otherwise moved and cast in one copy, which the first stage then reuses
    owned = m == 1 or not all(p.dtype == dtype and p.flags.c_contiguous for p in moved)
    y = tuple((np.array(p, dtype, order="C") if owned else p).reshape(lead + (-1,)) for p in moved)
    del moved
    for w_re, w_im in stages:
        q, r = w_re[0].shape[-3:-1]
        outs = tuple(np.empty(y[0].shape, dtype) if q * r < m or o is None else o for o in out)
        # matrix k1's row k2 lands at frequency k1 + q*k2 of the extent
        dest = tuple(o.reshape(lead[:-1] + (r, q, -1)).swapaxes(-3, -2) for o in outs)
        y_re = mode.prepare(y[0].reshape(lead[:-1] + (q, r, -1)))
        product(w_re, y_re, np.matmul, dest[0])
        product(w_im, y_re, np.matmul, dest[1])
        # spent re terms: the first takes the im products unless it is the caller's plane
        scratch = y_re[0] if owned or len(y_re) > 1 else None
        y_im = y[1].reshape(lead[:-1] + (q, r, -1))
        del y, y_re
        y_im = mode.prepare(y_im)
        np.subtract(dest[0], product(w_im, y_im, np.matmul, scratch), out=dest[0])
        np.add(dest[1], product(w_re, y_im, np.matmul, scratch), out=dest[1])
        y, owned = outs, True
        del y_im, scratch
    if out[0] is not None and y[0] is not out[0]:  # m = 1: no stage
        y = tuple(np.copyto(o, p) or o for o, p in zip(out, y))
    _check_finite(*y)
    return y


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
    """Every table a forward call reads, per dimension: ``stages[d]``, the local FFT's
    :func:`_stage_matrices`, the last with each line position's twiddles, and
    ``ring_tables[d]`` (:func:`_ring_table`). Dimensions of equal extent and core
    count share them; the stages are the cache's read-only arrays.
    """

    shape: ComputationShape
    extents: tuple
    precision: PrecisionMode
    stages: tuple
    ring_tables: tuple
    stage_names = ("local FFT", "phase ring")

    @property
    def rank(self):
        return len(self.extents)

    def _ring_stage(self, mesh, each, xs, d, lines, view, tag):
        """Dimension d's ring operand, from the all_to_all whose kernel runs the slabs'
        twiddled local FFTs, and its step blocks (:func:`meshdft.mesh._forward`)."""
        n, parts, mode = self.extents[d], self.shape.dims[d], self.precision
        m = n // parts
        held = mesh.all_to_all_groups(_gather_groups(lines, parts, m), xs, d, tag, each,
                                      _local_fft_kernel(view, d, n, self.stages[d], mode))
        mesh.ledger.add_flops("local_fft", local_fft_flops(m, xs[0].size // m), tag)
        return held, _ring_coefficients(*self.ring_tables[d])


def create_fft_plan(shape, extents, precision=PrecisionMode.F64_REFERENCE):
    """Plan a power-of-two transform over the core grid."""
    extents = tuple(int(n) for n in extents)
    _check_plan(shape, precision, extents)
    dims = tuple(zip(extents, shape.dims))
    for d, (n, p) in enumerate(dims):
        if not _is_pow2(n):
            raise PlanError(f"extent {n} on dim {d} must be a power of two")
        if not _is_pow2(p):
            raise PlanError(f"core count {p} on dim {d} must be a power of two")
    built = {(n, p): (_stage_matrices(n // p, precision, p), _ring_table(n, p, precision))
             for n, p in dict.fromkeys(dims)}
    stages, ring_tables = zip(*map(built.get, dims))
    return FftPlan(shape, extents, precision, stages, ring_tables)


def _local_fft_kernel(view, axis, n, stages, mode):
    """The gather's kernel: a slab's twiddled local FFTs along ``axis``, as the ring's operand.

    Its one copy of the received planes is the exchange. Each core's last
    stage (of ``stages``, :class:`FftPlan`) applies the twiddles of its line
    position and writes the ring's operand: ``axis`` leading, its two rows re
    and im, ``(..., 2, m*rest)``, prepared for the mode at once (under
    bf16split3 only the split terms outlive a slab). It is shaped as the slab
    of the lines' ``view`` that holds the same cores, as the ring takes them:
    for the powers of two an fft takes, every slab of any view of the core
    axis is an aligned run of cores (:func:`meshdft.mesh._slabs`), the same
    run in either view, so its line positions are one run too.
    """
    outer, parts, inner = view
    m, dtype = n // parts, mode.real_dtype
    stride = _stride(parts, m)
    # the view of the gather's groups (:meth:`MeshSim._check_groups`), single cores if m = 1
    gather = (outer, parts // stride, stride * inner) if m > 1 else (outer * parts * inner, 1, 1)

    def kernel(box, payload):
        cores = math.prod(s.stop - s.start for s in box)
        lines_box = (max(1, cores // (parts * inner)), min(parts, max(1, cores // inner)),
                     min(inner, cores))
        pos = np.ravel_multi_index(tuple(s.start for s in box), gather) // inner % parts
        last = tuple(tuple(tuple(t[pos:pos + lines_box[1], None] for t in plane) for plane in s)
                     for s in stages[-1:])
        x = np.empty(lines_box + (2, m, payload[0].size // (cores * m)), dtype)
        moved = [np.moveaxis(p, (3 + axis, 4 + axis), (3, 4)) for p in payload]
        _local_fft(moved, lines_box + (m,), mode, stages[:-1] + last,
                   (x[..., 0, :, :], x[..., 1, :, :]))
        return mode.prepare(x.reshape(lines_box + (2, -1)))

    return kernel


def _ring_table(n, parts, mode):
    """One dimension's ring table (:func:`_ring_coefficients`): the P-th roots' real 2x2
    blocks, prepared for the mode, ``(P, 2, 2)`` terms, and the offset each line
    position holds (:func:`gather_positions`) as an array."""
    # every m-th entry: the length-parts table
    c_re, c_im = (t[::n // parts] for t in _unit_roots(n))
    table = mode.prepare(np.stack([c_re, -c_im, c_im, c_re], axis=-1).reshape(parts, 2, 2))
    return table, np.asarray(gather_positions(parts, n // parts), dtype=np.int64)


def _ring_coefficients(table, beta):
    """Each ring step's blocks for one dimension: a P-point DFT across the line.

    At step s the payload that started at position i, the twiddled FFT of the
    subsequence of offset b = beta[i], sits at position p = (i - s) mod
    parts, whose row r (frequency k = p*m + r) takes w_n**(b*k); the twiddle
    w_n**(b*r) is in its local FFT, and the rest, c = w_n**(b*p*m), is the
    table's entry m*(b*p mod parts). The ring applies c to the payload's rows
    re and im as the real 2x2 block [[c_re, -c_im], [c_im, c_re]]. ``table``
    holds the P-th roots' blocks (:func:`_ring_table`); a step's blocks,
    indexed by i, are one matrix plane of ``(P, 2, 2)`` terms. They are
    gathered for a run of steps at once, as many as fit in a slab's bytes
    (:data:`meshdft.mesh.SLAB_BYTES`): the whole ring on a few cores, and at
    most a slab's worth on many, where a whole-ring table would not fit.
    """
    parts = len(beta)
    start = np.arange(parts)
    run = max(1, mesh_module.SLAB_BYTES // sum(t.nbytes for t in table))
    held = {}

    def coefficients(step):
        first = step - step % run
        if first not in held:
            held.clear()
            steps = np.arange(first, min(first + run, parts))[:, None]
            exponents = beta * ((start - steps) % parts) % parts
            held[first] = tuple(np.take(t, exponents, axis=0) for t in table)
        return (tuple(t[step - first] for t in held[first]),)

    return coefficients


def fft_forward(mesh, plan, blocks, workers=1):
    """Run the decimation-based transform on :class:`Blocks` (or a per-core list);
    returns the frequency blocks as :class:`Blocks`.

    Output distribution matches the direct engine: block p covers contiguous
    frequency rows [p*N/P, (p+1)*N/P) along each distributed dimension.
    """
    return _forward(mesh, plan, blocks, workers)
