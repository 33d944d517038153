"""Complex tensors as split real/imaginary planes, plus the mixed-precision kernels.

Everything downstream (transform engines, collectives, oracles) moves data
around as pairs of real arrays. Complex arithmetic is spelled out as real
products so the same code path can run in float64, float32, or the
three-term bfloat16 emulation; matrix products run through BLAS.
"""

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import ArgumentError, DimensionError

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# bfloat16 is the top half of an IEEE float32: 1 sign, 8 exponent, 7 mantissa bits.
_BF16_MAX_BITS = np.uint32(0x7F7F)  # largest finite magnitude, 3.3895314e38
_BF16_INF_PATTERN = np.uint32(0x7F80)


class PrecisionMode(Enum):
    """Arithmetic mode for contractions and elementwise complex products."""

    F64_REFERENCE = "f64"
    F32 = "f32"
    BF16_SPLIT3 = "bf16split3"

    @property
    def real_dtype(self):
        return np.dtype(
            np.float64 if self is PrecisionMode.F64_REFERENCE else np.float32
        )

    @classmethod
    def parse(cls, name):
        aliases = {
            "f64": cls.F64_REFERENCE,
            "f64_reference": cls.F64_REFERENCE,
            "f32": cls.F32,
            "bf16": cls.BF16_SPLIT3,
            "bf16split3": cls.BF16_SPLIT3,
        }
        try:
            return aliases[str(name).lower()]
        except KeyError:
            raise ArgumentError(
                f"unknown precision mode {name!r}; expected one of f64, f32, bf16split3"
            ) from None


class ComplexTensor:
    """Immutable rank-1..3 complex tensor stored as two same-dtype real planes."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re = np.asarray(re)
        im = np.asarray(im)
        if re.shape != im.shape:
            raise DimensionError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
        if not 1 <= re.ndim <= 3:
            raise DimensionError(f"rank must be 1..3, got {re.ndim}")
        if re.dtype != im.dtype:
            raise ArgumentError(f"re/im dtype mismatch: {re.dtype} vs {im.dtype}")
        if re.dtype not in _REAL_DTYPES:
            raise ArgumentError(f"planes must be float32 or float64, got {re.dtype}")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ArgumentError("non-finite values in tensor planes")
        re = np.array(re, copy=True)
        im = np.array(im, copy=True)
        re.setflags(write=False)
        im.setflags(write=False)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def _own(cls, re, im):
        """Wrap finite, same-shape same-dtype planes without a copy or a scan.

        For data movement inside the package: fresh planes nothing else
        references, or views and rearrangements of planes that are already
        frozen and finite. They are frozen in place and skip the
        constructor's copy and finite scan. Anything from outside goes
        through ``ComplexTensor(re, im)``.
        """
        re.setflags(write=False)
        im.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @classmethod
    def _own_checked(cls, re, im):
        """Like :meth:`_own`, for fresh arithmetic results: scan, but no copy.

        Arithmetic on finite planes can still overflow (f32, and even f64),
        so the finite scan stays and raises ``ArgumentError`` as the
        constructor does.
        """
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ArgumentError("non-finite values in tensor planes")
        return cls._own(re, im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexTensor is immutable")

    @classmethod
    def from_complex(cls, values, dtype=np.float64):
        values = np.asarray(values)
        return cls(values.real.astype(dtype), values.imag.astype(dtype))

    @classmethod
    def zeros(cls, shape, dtype=np.float64):
        return cls(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))

    @property
    def shape(self):
        return self.re.shape

    @property
    def rank(self):
        return self.re.ndim

    @property
    def size(self):
        return self.re.size

    @property
    def dtype(self):
        return self.re.dtype

    @property
    def nbytes(self):
        return self.re.nbytes + self.im.nbytes

    def to_complex(self):
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)

    def astype(self, dtype):
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        return ComplexTensor(self.re.astype(dtype), self.im.astype(dtype))

    def conj(self):
        return ComplexTensor._own(self.re, -self.im)

    def add(self, other):
        if not isinstance(other, ComplexTensor):
            raise ArgumentError("can only add another ComplexTensor")
        if other.shape != self.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")
        if other.dtype != self.dtype:
            raise ArgumentError(f"dtype mismatch: {self.dtype} vs {other.dtype}")
        return ComplexTensor._own_checked(self.re + other.re, self.im + other.im)

    __add__ = add

    def scaled(self, factor):
        factor = self.dtype.type(factor)
        return ComplexTensor._own_checked(self.re * factor, self.im * factor)

    def __repr__(self):
        return f"ComplexTensor(shape={self.shape}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# bfloat16 emulation
# ---------------------------------------------------------------------------


def _round_bits_to_bf16(bits32):
    # Round-to-nearest-even on the top 16 bits: add 0x7FFF plus the parity of
    # the kept LSB, then truncate. Finite inputs cannot wrap uint32.
    lsb = (bits32 >> np.uint32(16)) & np.uint32(1)
    return ((bits32 + np.uint32(0x7FFF) + lsb) >> np.uint32(16)).astype(np.uint16)


def bf16_array(values, saturate=False):
    """Round a float32 array to bfloat16-representable float32 values.

    With ``saturate=True`` finite inputs that would round to infinity clamp
    to the largest finite bfloat16 instead.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    bits32 = values.view(np.uint32)
    top = _round_bits_to_bf16(bits32)
    if saturate:
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
        return cls(int(_round_bits_to_bf16(bits32)))

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
        rounded = bf16_array(np.float32(residual).reshape(1), saturate=True)[0]
        out.append(Bf16Value.from_float32(rounded))
        residual = np.float32(residual - rounded)
    return out


def _split3(values):
    """Array form of the three-term split. Returns three float32 arrays."""
    t1 = bf16_array(values, saturate=True)
    r1 = (values - t1).astype(np.float32)
    t2 = bf16_array(r1, saturate=True)
    r2 = (r1 - t2).astype(np.float32)
    t3 = bf16_array(r2, saturate=True)
    return t1, t2, t3


# Partial products (i, j) with i + j <= 3, most significant first. Products are
# exact in float32 (7-bit mantissas); only the accumulation rounds.
_SPLIT_PRODUCT_ORDER = ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1))


def _split_products(a_terms, b_terms, product):
    """Sum of the split-3 partial products of two operands split by :func:`_split3`.

    ``product`` is ``np.matmul`` for matrix products or ``np.multiply`` for
    elementwise (broadcasting) ones; the partial products are accumulated in
    :data:`_SPLIT_PRODUCT_ORDER`.
    """
    acc = None
    for i, j in _SPLIT_PRODUCT_ORDER:
        part = product(a_terms[i], b_terms[j])
        if acc is None:
            acc = part
        else:
            acc += part
    return acc


# ---------------------------------------------------------------------------
# Real and complex contraction kernels
# ---------------------------------------------------------------------------


def matmul_mixed(a, b, mode=PrecisionMode.F64_REFERENCE):
    """Real matrix product under the given precision mode.

    Every product runs through BLAS (``a @ b``); bf16split3 keeps its six
    partial products and their order of accumulation, and only the sum inside
    each product moves to BLAS. The bits are reproducible for a given
    numpy/BLAS build and CPU, independent of ``workers`` and of the BLAS
    thread count.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"expected 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if not isinstance(mode, PrecisionMode):
        raise ArgumentError(f"mode must be a PrecisionMode, got {mode!r}")
    a = a.astype(mode.real_dtype, copy=False)
    b = b.astype(mode.real_dtype, copy=False)
    if mode is PrecisionMode.BF16_SPLIT3:
        return _split_products(_split3(a), _split3(b), np.matmul)
    return a @ b


def contract(matrix, tensor, axis=0, mode=PrecisionMode.F64_REFERENCE,
             conjugate=False):
    """Apply a complex matrix (its conjugate if ``conjugate``) along one axis.

    The tensor's real and imaginary planes sit side by side in one
    ``(k, 2*rest)`` operand, so each matrix plane takes part in one real
    product with :func:`matmul_mixed`'s arithmetic for the precision mode:
    ``m_re @ x`` gives ``rr|ri`` and ``m_im @ x`` gives ``ir|ii``. Under
    bf16split3 each of the three operands is split once. The conjugate flips
    the signs of the recombination instead of negating the matrix: every mode
    rounds symmetrically, so the bits match a product with ``-matrix.im``.
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
    # planes already in the mode's dtype are used as they are, not copied
    dtype = mode.real_dtype
    m_re = matrix.re.astype(dtype, copy=False)
    m_im = matrix.im.astype(dtype, copy=False)
    rest_shape = np.moveaxis(tensor.re, axis, 0).shape[1:]
    # each plane is moved, cast and stacked as re|im in one copy
    x = np.empty((k, 2) + rest_shape, dtype)
    x[:, 0] = np.moveaxis(tensor.re, axis, 0)
    x[:, 1] = np.moveaxis(tensor.im, axis, 0)
    x = x.reshape(k, -1)
    half = x.shape[1] // 2

    if mode is PrecisionMode.BF16_SPLIT3:
        m_re, m_im, x = map(_split3, (m_re, m_im, x))
        product = partial(_split_products, product=np.matmul)
    else:
        product = np.matmul
    r_x = product(m_re, x)
    i_x = product(m_im, x)
    rr, ri = r_x[:, :half], r_x[:, half:]
    ir, ii = i_x[:, :half], i_x[:, half:]
    if conjugate:
        out_re = rr + ii
        out_im = ri - ir
    else:
        out_re = rr - ii
        out_im = ri + ir

    out_shape = (matrix.shape[0],) + rest_shape
    out_re = np.moveaxis(out_re.reshape(out_shape), 0, axis)
    out_im = np.moveaxis(out_im.reshape(out_shape), 0, axis)
    return ComplexTensor._own_checked(out_re, out_im)


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
    dtype = mode.real_dtype
    bshape = [1] * tensor.rank
    bshape[axis] = factors.shape[0]
    f_re = factors.re.astype(dtype, copy=False).reshape(bshape)
    f_im = factors.im.astype(dtype, copy=False).reshape(bshape)
    x_re = tensor.re.astype(dtype, copy=False)
    x_im = tensor.im.astype(dtype, copy=False)
    if mode is PrecisionMode.BF16_SPLIT3:
        # each plane takes part in two of the four products: split it once
        x_re, x_im, f_re, f_im = map(_split3, (x_re, x_im, f_re, f_im))
    return ComplexTensor._own_checked(*_complex_product(x_re, x_im, f_re, f_im, mode))


def _complex_product(x_re, x_im, f_re, f_im, mode):
    """Elementwise (broadcasting) complex product of planes in the mode's dtype.

    Under bf16split3 every operand is already split by :func:`_split3`.
    Returns the fresh (re, im) planes; each difference and sum is taken in
    its first product's plane.
    """
    if mode is PrecisionMode.BF16_SPLIT3:
        product = partial(_split_products, product=np.multiply)
    else:
        product = np.multiply
    out_re = product(x_re, f_re)
    np.subtract(out_re, product(x_im, f_im), out=out_re)
    out_im = product(x_re, f_im)
    np.add(out_im, product(x_im, f_re), out=out_im)
    return out_re, out_im

