"""Slow, obvious forms of package code, kept only to test the package against.

- ``round_bits_to_bf16`` and ``bf16_array_reference``: bfloat16 rounding
  through the 16-bit pattern, the formula ``meshdft.bf16_array`` replaced.
- ``Bf16Value`` and ``bf16_split``: one float and its three-term split,
  a value at a time.
- ``build_phase_slice``: core p's block of the fft engine's phase factors
  w_N**(b*k) for its frequencies k = p*m + r and every subsequence offset b.
  The engine runs each as Bailey's four steps: a twiddle w_N**(b*r), folded
  into the last stage of the local FFT (``twiddled_local_fft`` runs it on one
  core), then a coefficient w_N**(b*p*m), row 0 of the block, as a 1x1 block
  of the ring that makes the P-point DFT across the cores.
- ``complex_product`` and ``scale_along_axis``: the elementwise complex
  product, with a scalar the fft ring's step kernel on one core before the
  ring took real 2x2 blocks, and the per-core product with a factor column,
  the step kernel of the fft's earlier phase ring.
- ``build_nonuniform``: the whole n x n transform matrix of explicit points,
  of which the kdft plan builds only each core's row slice.
- ``column_blocks`` and ``ring_blocks``: a uniform kdft plan built block by
  block, each block's exponents reduced mod n, looked up in the table and
  prepared on its own; the plan gathers its blocks from a prepared table.
- ``contract``: a complex matrix applied along one axis of a tensor, both
  prepared again on every call; one core's step kernel, which the kdft
  engine's ring replaced with one batched product per slab of cores.
"""

from dataclasses import dataclass

import numpy as np

import meshdft as md
from meshdft.ctensor import ComplexTensor, PrecisionMode, bf16_array
from meshdft.errors import ArgumentError, DimensionError
from meshdft.fft import _local_fft, _stage_matrices
from meshdft.vandermonde import SamplePoints, _nonuniform_rows, _unit_roots

_BF16_MAX_BITS = np.uint32(0x7F7F)  # largest finite magnitude, 3.3895314e38
_BF16_INF_PATTERN = np.uint32(0x7F80)


def round_bits_to_bf16(bits32):
    # Round-to-nearest-even on the top 16 bits: add 0x7FFF plus the parity of
    # the kept LSB, then truncate. Finite inputs cannot wrap uint32.
    lsb = (bits32 >> np.uint32(16)) & np.uint32(1)
    return ((bits32 + np.uint32(0x7FFF) + lsb) >> np.uint32(16)).astype(np.uint16)


def bf16_array_reference(values):
    """``meshdft.bf16_array`` (saturating) computed through the 16-bit patterns."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    bits32 = values.view(np.uint32)
    top = round_bits_to_bf16(bits32)
    overflowed = ((top & np.uint16(0x7FFF)) >= _BF16_INF_PATTERN) & np.isfinite(values)
    if overflowed.any():
        sign = top & np.uint16(0x8000)
        top = np.where(overflowed, sign | np.uint16(_BF16_MAX_BITS), top)
    out = (top.astype(np.uint32) << np.uint32(16)).view(np.float32)
    return out.reshape(values.shape)


@dataclass(frozen=True)
class Bf16Value:
    """A single bfloat16 value carried as its 16-bit pattern."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= 0xFFFF:
            raise ArgumentError(f"bits out of range: {self.bits:#x}")

    @classmethod
    def from_float32(cls, value):
        value = np.float32(value)
        bits32 = np.frombuffer(value.tobytes(), dtype=np.uint32)[0]
        if not np.isfinite(value):
            # inf/nan already have all-ones exponents; pass the top half through
            return cls(int(bits32 >> np.uint32(16)))
        return cls(int(round_bits_to_bf16(bits32)))

    def to_float32(self):
        bits32 = np.uint32(self.bits) << np.uint32(16)
        return np.frombuffer(bits32.tobytes(), dtype=np.float32)[0]

    def __float__(self):
        return float(self.to_float32())


def bf16_split(value, terms=3):
    """Split a finite float32 into ``terms`` bfloat16 values summing back to it.

    Each term is the saturating round of the running residual; residual
    subtraction is exact in float32 (the operands are always within a factor
    of two of each other), so the terms telescope.
    """
    if not isinstance(terms, int) or terms < 1:
        raise ArgumentError(f"terms must be a positive int, got {terms!r}")
    value = np.float32(value)
    if not np.isfinite(value):
        raise ArgumentError("cannot split a non-finite value")
    out = []
    residual = value
    for _ in range(terms):
        rounded = bf16_array(np.float32(residual).reshape(1))[0]
        out.append(Bf16Value.from_float32(rounded))
        residual = np.float32(residual - rounded)
    return out


def build_phase_slice(n, parts, part_index):
    """Per-core phase block [r][b] = exp(-2j*pi*b*(p*n/parts + r)/n), from the unit-root table.

    Row r corresponds to global frequency k = part_index*(n//parts) + r;
    column b is the phase factor attached to decimation offset b.
    """
    if not isinstance(n, int) or n < 1:
        raise ArgumentError(f"n must be a positive int, got {n!r}")
    if not isinstance(parts, int) or not 1 <= parts <= n or n % parts != 0:
        raise DimensionError(f"parts {parts} must divide n {n}")
    if not 0 <= part_index < parts:
        raise ArgumentError(f"part_index {part_index} out of range for {parts} parts")
    rows_per = n // parts
    k = part_index * rows_per + np.arange(rows_per, dtype=np.int64)
    b = np.arange(parts, dtype=np.int64)
    exponents = np.mod(np.outer(k, b), n)
    cos, neg_sin = _unit_roots(n)
    return ComplexTensor(cos[exponents], neg_sin[exponents])


def twiddled_local_fft(tensor, axis, parts, pos, mode=PrecisionMode.F64_REFERENCE):
    """The local FFT of the core at line position ``pos`` of an fft dimension on
    ``parts`` cores, its subsequence's twiddles folded into the last stage."""
    m = tensor.shape[axis]
    stages = _stage_matrices(m, mode, parts)
    last = tuple(tuple(tuple(t[pos:pos + 1] for t in plane) for plane in s) for s in stages[-1:])
    moved = [np.moveaxis(p, axis, 0) for p in (tensor.re, tensor.im)]
    y = _local_fft(moved, (1, m), mode, stages[:-1] + last)
    return ComplexTensor._own(*(np.moveaxis(p.reshape(moved[0].shape), 0, axis) for p in y))


def complex_product(a_re, a_im, b_re, b_im, mode):
    """Elementwise (broadcasting) complex product a*b of planes prepared for ``mode``.

    Returns fresh (re, im) planes; each difference and sum is taken in its
    first product's plane. Each real product takes its ``a`` plane first,
    which fixes the order of bf16split3's partial products: the engines' ring
    applies its blocks as ``a``.
    """
    product, mul = mode.product, np.multiply
    out_re = product(a_re, b_re, mul)
    np.subtract(out_re, product(a_im, b_im, mul), out=out_re)
    out_im = product(a_re, b_im, mul)
    np.add(out_im, product(a_im, b_re, mul), out=out_im)
    return out_re, out_im


def scale_along_axis(tensor, axis, factors, mode=PrecisionMode.F64_REFERENCE):
    """Multiply elementwise by a rank-1 complex factor vector along ``axis``."""
    if not isinstance(tensor, ComplexTensor) or not isinstance(factors, ComplexTensor):
        raise ArgumentError("scale_along_axis expects ComplexTensor operands")
    if factors.rank != 1:
        raise DimensionError(f"factors must be rank 1, got rank {factors.rank}")
    if not -tensor.rank <= axis < tensor.rank:
        raise DimensionError(f"axis {axis} out of range for rank {tensor.rank}")
    axis %= tensor.rank
    if factors.shape[0] != tensor.shape[axis]:
        raise DimensionError(
            f"factor length {factors.shape[0]} != extent {tensor.shape[axis]}"
        )
    bshape = [1] * tensor.rank
    bshape[axis] = factors.shape[0]
    # each plane takes part in two of the four products: prepare it once
    f_re = mode.prepare(factors.re.reshape(bshape))
    f_im = mode.prepare(factors.im.reshape(bshape))
    x_re = mode.prepare(tensor.re)
    x_im = mode.prepare(tensor.im)
    return ComplexTensor._own_checked(*complex_product(x_re, x_im, f_re, f_im, mode))


def column_blocks(n, parts, pos, dtype=np.float64):
    """Core ``pos``'s row slice of the n x n DFT matrix, yielded as ``parts`` column blocks.

    Block j holds rows [pos*w, (pos+1)*w) and columns [j*w, (j+1)*w),
    w = n/parts, cast to ``dtype``: bit for bit :func:`meshdft.build_uniform`
    ``(n)``, looked up in the length-n table one block at a time.
    """
    w = n // parts
    cos, neg_sin = (table.astype(dtype, copy=False) for table in _unit_roots(n))
    k = np.arange(n, dtype=np.int64)
    rows = slice(pos * w, (pos + 1) * w)
    for j in range(parts):
        exponents = np.mod(np.outer(k[rows], k[j * w:(j + 1) * w]), n)
        yield ComplexTensor._own(cos[exponents], neg_sin[exponents])


def ring_blocks(n, parts, mode, conjugate=False):
    """A uniform kdft plan's ``ring_blocks`` entry for n points on ``parts`` cores,
    from :func:`column_blocks`, conjugated if ``conjugate``, each block prepared
    for ``mode`` on its own."""
    stacks = []
    for pos in range(parts):
        for j, block in enumerate(column_blocks(n, parts, pos, mode.real_dtype)):
            block = block.conj() if conjugate else block
            terms = mode.prepare(block.re) + mode.prepare(block.im)
            stacks = stacks or [np.empty((parts, parts) + t.shape, t.dtype) for t in terms]
            for stack, term in zip(stacks, terms):
                stack[(j - pos) % parts, j] = term
    return tuple(stacks[:len(stacks) // 2]), tuple(stacks[len(stacks) // 2:])


def contract(matrix, tensor, axis=0, mode=PrecisionMode.F64_REFERENCE):
    """Apply a complex matrix along one axis of a tensor.

    The tensor's planes, moved so that ``axis`` leads, sit side by side as
    re|im in one ``(k, 2*rest)`` plane, so each matrix plane takes part in
    one product, summed over the split terms in :func:`matmul_mixed`'s order:
    ``m_re @ x`` gives ``rr|ri`` and ``m_im @ x`` gives ``ir|ii``. The bits
    need not equal :func:`matmul_mixed` on each plane alone: BLAS may block a
    ``(k, 2*rest)`` product differently from a ``(k, rest)`` one, and a
    one-column operand (``rest`` = 1) runs as a matrix product where one
    plane alone runs as a matrix-vector product.
    """
    if not isinstance(matrix, ComplexTensor) or not isinstance(tensor, ComplexTensor):
        raise ArgumentError("contract expects ComplexTensor operands")
    if matrix.rank != 2:
        raise DimensionError(f"matrix must be rank 2, got rank {matrix.rank}")
    if not -tensor.rank <= axis < tensor.rank:
        raise DimensionError(f"axis {axis} out of range for rank {tensor.rank}")
    axis %= tensor.rank
    k = tensor.shape[axis]
    if matrix.shape[1] != k:
        raise DimensionError(
            f"matrix columns {matrix.shape[1]} != tensor extent {k} along axis {axis}"
        )
    rest_shape = np.moveaxis(tensor.re, axis, 0).shape[1:]
    x = np.empty((k, 2) + rest_shape, mode.real_dtype)
    x[:, 0] = np.moveaxis(tensor.re, axis, 0)
    x[:, 1] = np.moveaxis(tensor.im, axis, 0)
    x = mode.prepare(x.reshape(k, -1))
    r_x = mode.product(mode.prepare(matrix.re), x, np.matmul)
    i_x = mode.product(mode.prepare(matrix.im), x, np.matmul)
    half = r_x.shape[1] // 2
    out_shape = (matrix.shape[0],) + rest_shape
    out_re = np.moveaxis((r_x[:, :half] - i_x[:, half:]).reshape(out_shape), 0, axis)
    out_im = np.moveaxis((r_x[:, half:] + i_x[:, :half]).reshape(out_shape), 0, axis)
    return ComplexTensor._own_checked(out_re, out_im)


def build_nonuniform(samples, cols):
    """Transform matrix for arbitrary nonzero points: V[k][m] = z_k**(-m).

    Columns are produced by iterated division, so column m is exactly
    column m-1 divided by the point once more.
    """
    if not isinstance(samples, SamplePoints):
        samples = SamplePoints.explicit(samples)
    if not isinstance(cols, int) or cols < 1:
        raise ArgumentError(f"cols must be a positive int, got {cols!r}")
    v = _nonuniform_rows(samples.points, cols)
    return ComplexTensor(v.real, v.imag)
