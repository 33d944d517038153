"""Log-linear parallel transform: decimate, local FFT, phase combination.

Writing the frequency index as k and the sample index as n = P*l + b, the
transform factors into P independent M-point FFTs (M = N/P) over the
decimated subsequences, recombined with per-frequency phase factors:

    X_k = sum_b exp(-2j*pi*b*k/N) * F_b[k mod M]

Per distributed dimension the engine does exactly one all_to_all (moving
contiguous blocks into decimated subsequences), one local in-order radix-2
FFT, and a shift-by-one phase combination costing P-1 permutes, run as one
mesh ring; each ring step reads the phase factors of every core at once from
the length-N unit-root table, so no plan holds per-core phase blocks.
"""

from dataclasses import dataclass
import math

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, _check_finite, _complex_product
from .decomposition import ComputationShape
from .errors import ArgumentError, DimensionError, PlanError
from .mesh import _check_blocks, _check_plan, _empty_stack, _entry, _stage
from .vandermonde import _unit_roots


def _is_pow2(n):
    return isinstance(n, int) and n >= 1 and (n & (n - 1)) == 0


def bit_reversal_permutation(n):
    """Source indices for the standard radix-2 input reorder."""
    if not _is_pow2(n):
        raise ArgumentError(f"length must be a power of two, got {n!r}")
    return np.arange(n).reshape((2,) * (n.bit_length() - 1)).transpose().ravel()


def local_fft(tensor, axis=0, mode=PrecisionMode.F64_REFERENCE):
    """In-order radix-2 decimation-in-time FFT along one axis.

    Input is bit-reverse reordered first, so output index k directly holds
    frequency k. Runs in float64 for the reference mode and float32
    otherwise (the split emulation applies to contractions, not butterflies).
    ``tensor`` is a :class:`ComplexTensor`, or an (re, im) pair of planes of
    any rank, such as a slab of stacked cores, for which a pair comes back.
    """
    if isinstance(tensor, ComplexTensor):
        return ComplexTensor._own(*local_fft((tensor.re, tensor.im), axis, mode))
    if not (isinstance(tensor, tuple) and len(tensor) == 2):
        raise ArgumentError("local_fft expects a ComplexTensor or an (re, im) pair")
    rank = tensor[0].ndim
    if not -rank <= axis < rank:
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    axis %= rank
    m = tensor[0].shape[axis]
    if not _is_pow2(m):
        raise DimensionError(f"extent {m} along axis {axis} is not a power of two")
    dtype = mode.real_dtype
    perm = bit_reversal_permutation(m)
    moved_shape = np.moveaxis(tensor[0], axis, 0).shape
    # bit-reverse straight into the contiguous (m, rest) layout that the
    # butterflies update in place
    re, im = (
        np.take(np.moveaxis(p, axis, 0), perm, axis=0)
        .reshape(m, -1)
        .astype(dtype, copy=False)
        for p in tensor
    )
    cos, neg_sin = _unit_roots(m)
    # every stage's half-plane holds m/2 rows: three scratch buffers serve all
    t_re_buf, t_im_buf, s_buf = (np.empty(re.size // 2, dtype=dtype) for _ in range(3))
    size = 2
    while size <= m:
        half = size // 2
        # exp(-2j*pi*t/size) for t < size/2 is entry t*(m/size) of the table
        w_re, w_im = (
            table[: m // 2 : m // size].astype(dtype)[None, :, None]
            for table in (cos, neg_sin)
        )
        re3 = re.reshape(m // size, size, -1)
        im3 = im.reshape(m // size, size, -1)
        a_re, b_re = re3[:, :half], re3[:, half:]
        a_im, b_im = im3[:, :half], im3[:, half:]
        t_re, t_im, s = (buf.reshape(a_re.shape) for buf in (t_re_buf, t_im_buf, s_buf))
        # t = w * b, then hi = a - t into b and lo = a + t into a: the same
        # operations in the same order as the out-of-place form
        np.multiply(w_re, b_re, out=t_re)
        np.multiply(w_im, b_im, out=s)
        np.subtract(t_re, s, out=t_re)
        np.multiply(w_re, b_im, out=t_im)
        np.multiply(w_im, b_re, out=s)
        np.add(t_im, s, out=t_im)
        np.subtract(a_re, t_re, out=b_re)
        np.subtract(a_im, t_im, out=b_im)
        np.add(a_re, t_re, out=a_re)
        np.add(a_im, t_im, out=a_im)
        size *= 2
    _check_finite(re, im)
    return tuple(np.moveaxis(p.reshape(moved_shape), 0, axis) for p in (re, im))


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
    return FftPlan(
        shape=shape,
        extents=extents,
        precision=precision,
        beta_maps=beta_maps,
    )


def _unit_root_factors(n, parts, beta_map, axis, rank, mode):
    """Each step's phase factors for one dimension: one read of the unit-root table.

    At ring step s the payload that started at position i, the FFT of the
    subsequence of offset b = beta_map[i], sits at position p = (i - s) mod
    parts, whose row r (frequency k = p*m + r) takes exp(-2j*pi*b*k/n), the
    table's entry b*k mod n. A step's factors are prepared for the mode once
    for every payload, as the terms of (re, im), each indexed ``[0, i, 0]``
    and then the block's axes, as the ring views stacked planes.
    """
    # one gather of (cos, -sin) pairs reads the table once
    table = np.empty(n, np.complex128)
    table.real, table.imag = _unit_roots(n)
    bshape = tuple(-1 if a == axis else 1 for a in range(rank))
    k = np.arange(n, dtype=np.int64).reshape((1, parts, 1) + bshape)
    beta = np.asarray(beta_map, dtype=np.int64).reshape((1, parts, 1) + (1,) * rank)
    # b*k mod n at step 0; position p - s holds frequency k - s*m = k + (P-s)*m (mod n)
    beta_k = beta * k % n

    def factors(step):
        exponents = beta_k + beta * ((parts - step) * (n // parts))
        np.mod(exponents, n, out=exponents)
        roots = np.take(table, exponents)
        return mode.prepare(roots.real), mode.prepare(roots.imag)

    return factors


def _local_ffts(each, xs, view, axis, mode, core_bytes):
    """Every core's local FFT along ``axis``, one call per slab of the view, prepared
    for the mode at once: under bf16split3 only the split terms outlive a slab."""
    planes = tuple(x.reshape(view + x.shape[1:]) for x in xs)

    def fft_slab(box):
        return tuple(map(mode.prepare, local_fft(tuple(p[box] for p in planes), 3 + axis, mode)))

    return each(fft_slab, view, core_bytes)


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
            xs = mesh.all_to_all_groups(
                _gather_groups(lines, parts, m), xs, split_axis=d, tag=tag
            )
            view = mesh._check_groups(lines)
            with _stage("local FFT", d, mode):
                xs = _local_ffts(each, xs, view, d, mode, core_bytes)
            mesh.ledger.add_flops("local_fft", local_fft_flops(m, num * blocks[0].size // m), tag)
            factors = _unit_root_factors(n, parts, plan.beta_maps[d], d, plan.rank, mode)
            with _stage("phase ring", d, mode):
                xs = _phase_ring(mesh, each, xs, lines, view, d, factors, mode, tag, core_bytes)
    return [ComplexTensor._own(re, im) for re, im in zip(*xs)]
