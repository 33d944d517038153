"""Reference transform and error metrics; imports nothing from the engines.

All-uniform sampling is checked against ``numpy.fft.fftn`` in complex128:
O(N log N), with error growing like log N rather than a direct sum's N.
Explicit points take the direct sum X_k = sum_n x_n * z_k**(-n) in float64,
one power row per output point and no matrix. Each row is accumulated in
extended precision and rounded once, so its error does not repeat the
engine's own iterated-division rounding. The CLI skips the reference
above ``reports.ORACLE_ELEMENT_LIMIT`` elements, for both: the direct sum is
O(N^2), and lifting it for uniform runs alone would change their reports.
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


def _as_samples(samples, n):
    if samples is None:
        return SamplePoints.uniform(n)
    if not isinstance(samples, SamplePoints):
        return SamplePoints.explicit(samples)
    return samples


def _power_row(z_k, n):
    # [1, z^-1, ..., z^-(n-1)] by repeated division in np.clongdouble,
    # rounded once to complex128 (no matrix is ever materialized)
    row = np.ones(n, dtype=np.clongdouble)
    row[1:] = np.cumprod(np.full(n - 1, 1 / np.clongdouble(z_k)))
    return row.astype(np.complex128)


def _fill(out, partial, points, index):
    # direct sum for the outputs under ``index``: scale by each power row of
    # dimension d = len(index), broadcast along that dimension only, recurse
    d = len(index)
    row_shape = (-1,) + (1,) * (out.ndim - d - 1)
    for k, z_k in enumerate(points[d]):
        term = partial * _power_row(z_k, out.shape[d]).reshape(row_shape)
        if d + 1 == out.ndim:
            out[index + (k,)] = np.sum(term)
        else:
            _fill(out, term, points, index + (k,))


def direct_dft(x, samples=None):
    """Reference transform of a rank-1..3 tensor of N elements.

    ``samples`` holds one entry per dimension (None for uniform points); a
    rank-1 tensor also takes its one SamplePoints bare. If every dimension is
    uniform the result is ``numpy.fft.fftn``, O(N log N). Otherwise it is the
    O(N^2) direct sum: each output point is a full sum over the inputs, each
    input scaled by one power row per dimension in dimension order. Explicit
    points equal to the roots of unity still take the direct sum.
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
    samples = [_as_samples(s, n) for s, n in zip(samples, x.shape)]
    for d, (s, n) in enumerate(zip(samples, x.shape)):
        if len(s) != n:
            raise ArgumentError(f"dim {d}: need {n} sample points, got {len(s)}")
    if all(s.is_uniform for s in samples):
        out = np.fft.fftn(x.to_complex())
    else:
        out = np.empty(x.shape, dtype=np.complex128)
        _fill(out, x.to_complex(), [s.points for s in samples], ())
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
