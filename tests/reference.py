"""Slow, obvious forms of package code, kept only to test the package against.

- ``round_bits_to_bf16`` and ``bf16_array_reference``: bfloat16 rounding
  through the 16-bit pattern, the formula ``meshdft.bf16_array`` replaced.
- ``Bf16Value`` and ``bf16_split``: one float and its three-term split,
  a value at a time.
- ``build_phase_slice`` and ``scale_along_axis``: a core's block of the fft
  engine's phase factors and the per-core product with one of its columns,
  the step kernel the engine's phase ring replaced.
"""

from dataclasses import dataclass

import numpy as np

import meshdft as md
from meshdft.ctensor import ComplexTensor, PrecisionMode, _complex_product, bf16_array
from meshdft.errors import ArgumentError, DimensionError

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
    """Per-core phase block [r][b] = exp(-2j*pi*b*(p*n/parts + r)/n).

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
    angles = 2.0 * np.pi * exponents / n
    return ComplexTensor(np.cos(angles), -np.sin(angles))


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
    return ComplexTensor._own_checked(*_complex_product(x_re, x_im, f_re, f_im, mode))
