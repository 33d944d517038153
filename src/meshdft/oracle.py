"""Brute-force reference transform and error metrics.

This module is the measuring stick for everything else: it evaluates
X_k = sum_n x_n * z_k**(-n) one output at a time in float64, for any rank,
building the power sequence per output point rather than any transform
matrix, and it deliberately imports nothing from the engine modules.
"""

from dataclasses import dataclass

import numpy as np

from .ctensor import ComplexTensor
from .errors import ArgumentError, DimensionError
from .vandermonde import SamplePoints


@dataclass(frozen=True)
class OracleResult:
    values: ComplexTensor
    max_abs: float


def _as_points(samples, n):
    if samples is None:
        samples = SamplePoints.uniform(n)
    if not isinstance(samples, SamplePoints):
        samples = SamplePoints.explicit(samples)
    return samples.points


def _power_row(z_k, n):
    # [1, z^-1, ..., z^-(n-1)] by repeated division (cumprod keeps the
    # sequential semantics; no matrix is ever materialized)
    row = np.empty(n, dtype=np.complex128)
    row[0] = 1.0
    if n > 1:
        row[1:] = np.cumprod(np.full(n - 1, 1.0 / z_k, dtype=np.complex128))
    return row


def direct_dft(x, samples=None):
    """O(N^2) reference transform of a rank-1..3 tensor of N elements.

    ``samples`` holds one entry per dimension (None for uniform points); a
    rank-1 tensor also takes its one SamplePoints bare. Each output point is
    a full sum over the inputs, each input scaled by one power row per
    dimension in dimension order.
    """
    if not isinstance(x, ComplexTensor):
        raise DimensionError("direct_dft expects a ComplexTensor")
    if samples is None:
        samples = (None,) * x.rank
    elif isinstance(samples, SamplePoints):
        samples = (samples,)
    if len(samples) != x.rank:
        raise ArgumentError(
            f"need one sample set per dimension ({x.rank}), got {len(samples)}"
        )
    points = [_as_points(s, n) for s, n in zip(samples, x.shape)]
    for d, (z, n) in enumerate(zip(points, x.shape)):
        if z.size != n:
            raise ArgumentError(f"dim {d}: need {n} sample points, got {z.size}")
    # each dimension's power rows broadcast along that dimension only
    row_shapes = [
        tuple(n if a == d else 1 for a in range(x.rank)) for d, n in enumerate(x.shape)
    ]
    out = np.empty(x.shape, dtype=np.complex128)

    def fill(partial, index):
        d = len(index)
        for k, z_k in enumerate(points[d]):
            term = partial * _power_row(z_k, x.shape[d]).reshape(row_shapes[d])
            if d + 1 == x.rank:
                out[index + (k,)] = np.sum(term)
            else:
                fill(term, index + (k,))

    fill(x.to_complex(), ())
    values = ComplexTensor(out.real, out.imag)
    return OracleResult(values=values, max_abs=float(np.max(np.abs(out))))


def relative_l2_error(result, reference):
    """||a - b||_2 / ||b||_2 over flattened tensors; plain ||a||_2 if b is zero."""
    if not isinstance(result, ComplexTensor) or not isinstance(reference, ComplexTensor):
        raise ArgumentError("relative_l2_error expects ComplexTensor operands")
    if result.shape != reference.shape:
        raise DimensionError(
            f"shape mismatch: {result.shape} vs {reference.shape}"
        )
    a = result.to_complex().ravel()
    b = reference.to_complex().ravel()
    denom = float(np.linalg.norm(b))
    diff = float(np.linalg.norm(a - b))
    if denom == 0.0:
        return diff
    return diff / denom
