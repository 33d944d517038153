"""Parallel DFT engines over a simulated multi-core mesh.

Two interchangeable engines compute the same distributed transform: a
direct matrix engine (arbitrary sample points, quadratic work) and a
decimation-based engine (power-of-two sizes, log-linear work). Both run
as SPMD programs on :class:`MeshSim`, whose ledger counts every collective
and every arithmetic operation deterministically.
"""

from .ctensor import ComplexTensor, PrecisionMode, matmul_mixed
from .decomposition import ComputationShape, decompose, gather_to_host
from .errors import (
    ArgumentError,
    AssemblyError,
    CommunicationError,
    DimensionError,
    MeshDftError,
    PlanError,
    ProtocolError,
    UnsupportedOperationError,
)
from .fft import (
    create_fft_plan,
    fft_forward,
    gather_positions,
    local_fft,
    phase_adjust,
    strided_gather,
)
from .kdft import create_kdft_plan, kdft_forward, kdft_inverse_uniform, one_shuffle
from .mesh import MeshSim
from .oracle import direct_dft, relative_l2_error
from .vandermonde import SamplePoints, build_uniform, slice_rows

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "AssemblyError",
    "CommunicationError",
    "ComplexTensor",
    "ComputationShape",
    "DimensionError",
    "MeshDftError",
    "MeshSim",
    "PlanError",
    "PrecisionMode",
    "ProtocolError",
    "SamplePoints",
    "UnsupportedOperationError",
    "build_uniform",
    "create_fft_plan",
    "create_kdft_plan",
    "decompose",
    "direct_dft",
    "fft_forward",
    "gather_positions",
    "gather_to_host",
    "kdft_forward",
    "kdft_inverse_uniform",
    "local_fft",
    "matmul_mixed",
    "one_shuffle",
    "phase_adjust",
    "relative_l2_error",
    "slice_rows",
    "strided_gather",
]
