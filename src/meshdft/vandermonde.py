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
        cos, neg_sin = _unit_roots(n)
        samples = cls(cos - 1j * neg_sin)
        object.__setattr__(samples, "is_uniform", True)
        return samples

    @classmethod
    def explicit(cls, values):
        return cls(values)


@lru_cache(maxsize=64)
def _unit_roots(n):
    """cos and -sin of the angle table 2*pi*e/n for exponents e in [0, n), read-only.

    Every uniform matrix entry, phase factor and local FFT coefficient is one
    of these, by its exponent mod n. Exact integer folds of u = 8e (units of
    2*pi/8n) onto the first octant, evaluated in extended precision, keep the
    symmetries and quarter turns exact and every entry within 2**-53 of the
    exact value (where longdouble has more bits than float64).
    """
    u, folds = 8 * np.arange(n, dtype=np.int64), []
    for half in (4 * n, 2 * n, n):
        folds.append(u > half)
        u = np.where(folds[-1], 2 * half - u, u)
    lower, left, swap = folds  # sin < 0, cos < 0, cos and sin swapped
    step = int(np.gcd(8, 2 * n))  # every folded u is a multiple: evaluate those once
    angles = np.arange(0, n + 1, step, dtype=np.longdouble) * np.arctan(np.longdouble(1)) / n
    c, s = (f(angles).astype(np.float64)[u // step] for f in (np.cos, np.sin))
    cos = np.where(left, -1.0, 1.0) * np.where(swap, s, c)
    neg_sin = np.where(lower, 1.0, -1.0) * np.where(swap, c, s)
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
