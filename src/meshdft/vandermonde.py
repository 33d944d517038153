"""Transform-matrix construction: uniform DFT matrices and nonuniform variants.

Row k of a transform matrix holds inverse powers of the k-th sample point
z_k, so ``V @ x`` evaluates X_k = sum_n x_n * z_k**(-n). On the unit circle
with uniformly spaced points this is exactly the DFT matrix.
"""

from functools import lru_cache

import numpy as np

from .ctensor import ComplexTensor
from .errors import ArgumentError


class SamplePoints:
    """Evaluation points z_k; only :meth:`uniform` sets ``is_uniform``,
    which engines and the oracle trust without reading the points."""

    __slots__ = ("points", "is_uniform")

    def __init__(self, points):
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 1 or points.size == 0:
            raise ArgumentError("points must be a non-empty 1-D sequence")
        if not np.isfinite(points).all():
            raise ArgumentError("sample points must be finite")
        if np.any(points == 0):
            raise ArgumentError("sample points must be nonzero")
        points = np.array(points, copy=True)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "is_uniform", False)

    def __setattr__(self, name, value):
        raise AttributeError("SamplePoints is immutable")

    def __reduce__(self):
        # copies and pickles rebuild through the checking constructors, so
        # only uniform points come back uniform
        if self.is_uniform:
            return SamplePoints.uniform, (len(self),)
        return SamplePoints, (self.points,)

    def __len__(self):
        return self.points.size

    @classmethod
    def uniform(cls, n):
        if not isinstance(n, int) or n < 1:
            raise ArgumentError(f"n must be a positive int, got {n!r}")
        samples = cls(np.exp(2j * np.pi * np.arange(n) / n))
        object.__setattr__(samples, "is_uniform", True)
        return samples

    @classmethod
    def explicit(cls, values):
        return cls(values)


@lru_cache(maxsize=64)
def _unit_roots(n):
    """cos and -sin of the angle table 2*pi*e/n for exponents e in [0, n), read-only.

    Every uniform matrix entry, phase factor and local FFT twiddle is one of
    these n values, looked up by its exponent reduced mod n, so n trig calls
    serve all n*n entries, and every caller shares one table per n.
    """
    angles = 2.0 * np.pi * np.arange(n, dtype=np.int64) / n
    cos, neg_sin = np.cos(angles), -np.sin(angles)
    cos.flags.writeable = neg_sin.flags.writeable = False
    return cos, neg_sin


def build_uniform(n):
    """DFT matrix V[k][m] = exp(-2j*pi*k*m/n) with exponents reduced mod n."""
    if not isinstance(n, int) or n < 1:
        raise ArgumentError(f"n must be a positive int, got {n!r}")
    k = np.arange(n, dtype=np.int64)
    # reduce k*m mod n first so symmetric entries are bit-identical
    exponents = np.mod(np.outer(k, k), n)
    cos, neg_sin = _unit_roots(n)
    return ComplexTensor(cos[exponents], neg_sin[exponents])


def _nonuniform_rows(z, cols):
    """complex128 rows z_k**(-m), m < cols, by iterated division; row k needs only z_k."""
    v = np.empty((z.size, cols), dtype=np.complex128)
    v[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / z
        for m in range(1, cols):
            v[:, m] = v[:, m - 1] * inv
    if not np.isfinite(v).all():
        raise ArgumentError("matrix overflowed; sample points too small for this size")
    return v


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


def column_blocks(samples, parts, pos, dtype=np.float64):
    """Core ``pos``'s row slice of the n x n transform matrix, as ``parts`` column blocks.

    ``parts`` must divide n = len(samples) and 0 <= pos < parts. Block j
    holds rows [pos*w, (pos+1)*w) and columns [j*w, (j+1)*w) of
    :func:`build_uniform` ``(n)`` for uniform samples, else of
    :func:`build_nonuniform` ``(samples, n)``, with w = n/parts, bit for bit,
    cast to ``dtype``. Only this core's rows are ever built: uniform entries are
    looked up in the length-n table one block at a time, nonuniform rows
    come from this core's points alone.
    """
    n = len(samples)
    w = n // parts
    rows = slice(pos * w, (pos + 1) * w)
    if samples.is_uniform:
        cos, neg_sin = _unit_roots(n)
        cos = cos.astype(dtype, copy=False)
        neg_sin = neg_sin.astype(dtype, copy=False)
        k = np.arange(n, dtype=np.int64)
        blocks = []
        for j in range(parts):
            exponents = np.mod(np.outer(k[rows], k[j * w : (j + 1) * w]), n)
            blocks.append(ComplexTensor._own(cos[exponents], neg_sin[exponents]))
        return tuple(blocks)
    v = _nonuniform_rows(samples.points[rows], n)
    return tuple(
        ComplexTensor._own(
            v.real[:, j * w : (j + 1) * w].astype(dtype),
            v.imag[:, j * w : (j + 1) * w].astype(dtype),
        )
        for j in range(parts)
    )
