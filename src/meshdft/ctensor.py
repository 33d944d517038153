"""Complex tensors as split real/imaginary planes, plus the mixed-precision kernels.

Everything downstream (transform engines, collectives, oracles) moves data
around as pairs of real arrays. Complex arithmetic is spelled out as real
products so the same code path can run in float64, float32, or the
three-term bfloat16 emulation; matrix products run through BLAS.
"""

from enum import Enum

import numpy as np

from .errors import ArgumentError, DimensionError

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# bfloat16 is the top half of an IEEE float32: 1 sign, 8 exponent, 7 mantissa bits.
_BF16_MAX_BITS = np.uint32(0x7F7F0000)  # largest finite magnitude, 3.3895314e38


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

    def prepare(self, plane):
        """A real plane in this mode's product form: a tuple of terms.

        The plane is cast to the mode's dtype (no copy if it has it already)
        and is the one term; under bf16split3 the terms are its three
        :func:`_split3` terms. An operand used many times is prepared once.
        """
        plane = plane.astype(self.real_dtype, copy=False)
        if self is PrecisionMode.BF16_SPLIT3:
            return _split3(plane)
        return (plane,)

    def product(self, a, b, op, out=None):
        """``op(a, b)`` of prepared operands; ``op`` is ``np.matmul`` or ``np.multiply``.

        Under bf16split3 it sums the six partial products of the split terms
        in :data:`_SPLIT_PRODUCT_ORDER`. Returns a fresh array, or ``out``.
        """
        acc = op(a[0], b[0], out=out)
        if len(a) > 1:
            for i, j in _SPLIT_PRODUCT_ORDER[1:]:
                acc += op(a[i], b[j])
        return acc

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


def _check_finite(*planes):
    """Raise ``ArgumentError`` unless every value of every plane is finite."""
    if not all(np.isfinite(p).all() for p in planes):
        raise ArgumentError("non-finite values in tensor planes")


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
        _check_finite(re, im)
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
        _check_finite(re, im)
        return cls._own(re, im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexTensor is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the checking constructor
        return ComplexTensor, (self.re, self.im)

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
        if dtype not in _REAL_DTYPES:
            raise ArgumentError(f"planes must be float32 or float64, got {dtype}")
        # the cast planes are fresh, so they are wrapped without another
        # copy; a narrowing cast can overflow, so the finite scan stays
        return ComplexTensor._own_checked(self.re.astype(dtype), self.im.astype(dtype))

    def conj(self):
        return ComplexTensor._own(self.re, -self.im)

    def scaled(self, factor):
        factor = self.dtype.type(factor)
        return ComplexTensor._own_checked(self.re * factor, self.im * factor)

    def __repr__(self):
        return f"ComplexTensor(shape={self.shape}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# bfloat16 emulation
# ---------------------------------------------------------------------------


def bf16_array(values):
    """Round a float32 array to bfloat16-representable float32 values, saturating.

    Round-to-nearest-even on the top 16 bits: add 0x7FFF plus the kept LSB,
    then clear the low half. Finite inputs cannot wrap uint32; inf and NaN
    patterns keep their top half. Finite inputs that would round to infinity
    clamp to the largest finite bfloat16 instead. The result keeps the input's
    memory layout, so products of split terms add like to like.
    """
    values = np.atleast_1d(np.asarray(values, dtype=np.float32))
    bits = values.view(np.uint32)
    out = bits >> np.uint32(16)
    out &= np.uint32(1)
    out += np.uint32(0x7FFF)
    out += bits
    out &= np.uint32(0xFFFF0000)
    overflowed = np.isinf(out.view(np.float32))
    if overflowed.any():
        overflowed &= np.isfinite(values)
        out[overflowed] = (out[overflowed] & np.uint32(0x80000000)) | _BF16_MAX_BITS
    return out.view(np.float32)


def _split3(values):
    """Split a float32 array into three bfloat16 terms that sum back to it.

    Each term is the (saturating) round of the running residual; residual
    subtraction is exact in float32 (the operands are always within a factor
    of two of each other), so the terms telescope. Returns three float32
    arrays.
    """
    t1 = bf16_array(values)
    residual = np.subtract(values, t1).astype(np.float32, copy=False)
    t2 = bf16_array(residual)
    t3 = bf16_array(np.subtract(residual, t2, out=residual))
    return t1, t2, t3


# Partial products (i, j) with i + j <= 3, most significant first. Products are
# exact in float32 (7-bit mantissas); only the accumulation rounds.
_SPLIT_PRODUCT_ORDER = ((0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1))


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
    return mode.product(mode.prepare(a), mode.prepare(b), np.matmul)

