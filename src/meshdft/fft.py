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
from functools import partial
import math

import numpy as np

from .ctensor import ComplexTensor, PrecisionMode, Prepared, _complex_product
from .decomposition import ComputationShape
from .errors import ArgumentError, DimensionError, PlanError
from .mesh import _check_blocks, _check_plan, _check_tensors
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
    """
    if not isinstance(tensor, ComplexTensor):
        raise ArgumentError("local_fft expects a ComplexTensor")
    if not -tensor.rank <= axis < tensor.rank:
        raise DimensionError(f"axis {axis} out of range for rank {tensor.rank}")
    axis %= tensor.rank
    m = tensor.shape[axis]
    if not _is_pow2(m):
        raise DimensionError(f"extent {m} along axis {axis} is not a power of two")
    dtype = mode.real_dtype
    if m == 1:
        return tensor.astype(dtype)
    perm = bit_reversal_permutation(m)
    moved_shape = np.moveaxis(tensor.re, axis, 0).shape
    # bit-reverse straight into the contiguous (m, rest) layout that the
    # butterflies update in place
    re, im = (
        np.take(np.moveaxis(p, axis, 0), perm, axis=0)
        .reshape(m, -1)
        .astype(dtype, copy=False)
        for p in (tensor.re, tensor.im)
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
    out_re = np.moveaxis(re.reshape(moved_shape), 0, axis)
    out_im = np.moveaxis(im.reshape(moved_shape), 0, axis)
    return ComplexTensor._own_checked(out_re, out_im)


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

    At ring step s, position p holds the subsequence of offset
    b = beta_map[(p + s) % parts], whose row r (frequency k = p*m + r) takes
    exp(-2j*pi*b*k/n): entry [r, b] of ``build_phase_slice(n, parts, p)``,
    bit for bit. A step's factors are prepared for the mode once for all
    positions (:func:`scale_along_axis` prepares them per core), and each
    position's (f_re, f_im) are its rows of every term.
    """
    cos, neg_sin = _unit_roots(n)
    k = np.arange(n, dtype=np.int64).reshape((parts,) + _bshape(axis, rank))
    beta = np.asarray(beta_map, dtype=np.int64).reshape((parts,) + (1,) * rank)

    def factors(step):
        exponents = k * np.roll(beta, -step, axis=0)
        np.mod(exponents, n, out=exponents)
        re, im = (mode.prepare(table[exponents]) for table in (cos, neg_sin))
        return list(zip(zip(*re), zip(*im)))

    return factors


def _bshape(axis, rank):
    return tuple(-1 if a == axis else 1 for a in range(rank))


def _phase_ring(mesh, each, xs, axis, parts, positions, groups, factors, mode, tag):
    """The shift-by-one phase combination on every core, as one mesh ring.

    Core c sits at ring position ``positions[c]``. Each step multiplies the
    held subsequence FFT by this position's phase factors, with
    :func:`scale_along_axis`'s arithmetic, and sums the terms in ring order.
    Each payload's planes are prepared for the mode once, when the ring
    starts, and travel with it. The first term's planes are fresh, so the
    others are summed into them; a non-finite partial sum stays non-finite,
    so one scan at the last step catches any overflow.
    """

    def kernel(core, step, held, acc, table):
        f_re, f_im = table[positions[core]]
        term = _complex_product(held.re, held.im, f_re, f_im, mode)
        if acc is not None:
            np.add(acc[0], term[0], out=acc[0])
            np.add(acc[1], term[1], out=acc[1])
            term = acc
        return ComplexTensor._own_checked(*term) if step == parts - 1 else term

    flops = sum(4 * x.size * parts for x in xs)
    prepare = partial(Prepared, mode=mode)
    xs = mesh.ring(each, groups, xs, kernel, parts - 1, tag, factors, prepare)
    mesh.ledger.add_flops("einsum", flops, tag)
    return xs


def fft_forward(mesh, plan, blocks, workers=1):
    """Run the decimation-based transform; returns per-core frequency blocks.

    Output distribution matches the direct engine: block p covers contiguous
    frequency rows [p*N/P, (p+1)*N/P) along each distributed dimension.
    """
    _check_blocks(mesh, plan, blocks)
    mode = plan.precision
    coords = [plan.shape.coords(c) for c in range(mesh.num_cores)]
    with mesh.cores(workers) as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), blocks)
        for d in range(plan.rank):
            n, parts = plan.extents[d], plan.shape.dims[d]
            m, lines, tag = n // parts, plan.shape.lines(d), f"dim{d + 1}"
            xs = mesh.all_to_all_groups(
                _gather_groups(lines, parts, m), xs, split_axis=d, tag=tag
            )
            xs = each(lambda c, x: local_fft(x, axis=d, mode=mode), xs)
            flops = sum(local_fft_flops(m, x.size // m) for x in xs)
            mesh.ledger.add_flops("local_fft", flops, tag)
            factors = _unit_root_factors(n, parts, plan.beta_maps[d], d, plan.rank, mode)
            positions = [pos[d] for pos in coords]
            xs = _phase_ring(mesh, each, xs, d, parts, positions, lines, factors, mode, tag)
    return xs


def strided_gather(mesh, blocks):
    """Standalone block-to-subsequence exchange along axis 0 of every core's block.

    ``blocks[i]`` is core i's contiguous input block, in rank order;
    afterwards core i holds the decimated subsequence
    ``gather_positions(P, M)[i]`` with local slots in transform order. The
    all_to_all's strided slices do the decimation, so no block is permuted
    first. Counts one all_to_all on the mesh ledger.
    """
    parts = mesh.num_cores
    _check_tensors(blocks, parts)
    m = blocks[0].shape[0]
    if parts > 1 and not (_is_pow2(parts) and _is_pow2(m)):
        raise DimensionError("core count and block extent must be powers of two")
    groups = _gather_groups([range(parts)], parts, m)
    return mesh.all_to_all_groups(groups, blocks, tag="gather")


def phase_adjust(mesh, blocks, mode=PrecisionMode.F64_REFERENCE):
    """Standalone phase combination along axis 0: core i holds subsequence i's local FFT.

    With M-point blocks on P cores, core p ends with output rows
    [p*M, (p+1)*M) of the N = M*P-point transform, its phase factors read
    from the unit-root table as :func:`fft_forward` reads them. Returns the
    per-core combined blocks in rank order; costs P-1 permutes.
    """
    parts = mesh.num_cores
    _check_tensors(blocks, parts)
    m, rank = blocks[0].shape[0], blocks[0].rank
    factors = _unit_root_factors(m * parts, parts, tuple(range(parts)), 0, rank, mode)
    with mesh.cores() as each:
        xs = each(lambda c, x: x.astype(mode.real_dtype), blocks)
        return _phase_ring(
            mesh, each, xs, 0, parts, range(parts), (range(parts),), factors, mode, "phase"
        )
