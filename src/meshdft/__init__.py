"""Parallel DFT engines over a simulated multi-core mesh.

Two interchangeable engines compute the same distributed transform: a
direct matrix engine (arbitrary sample points, quadratic work) and a
decimation-based engine (power-of-two sizes, log-linear work). Both run
as SPMD programs on :class:`MeshSim`, whose ledger counts every collective
and every arithmetic operation deterministically.
"""

from .ctensor import (
    ComplexTensor,
    PrecisionMode,
    bf16_array,
    contract,
    matmul_mixed,
    scale_along_axis,
)
from .decomposition import (
    BlockAssignment,
    ComputationShape,
    decompose,
    gather_to_host,
)
from .errors import (
    ArgumentError,
    AssemblyError,
    CommunicationError,
    DecompositionError,
    DimensionError,
    MeshDftError,
    PlanError,
    ProtocolError,
    UnsupportedOperationError,
)
from .fft import (
    FftPlan,
    bit_reversal_permutation,
    create_fft_plan,
    fft_forward,
    gather_positions,
    local_fft,
    local_fft_flops,
    phase_adjust,
    strided_gather,
)
from .kdft import (
    KdftPlan,
    create_kdft_plan,
    kdft_forward,
    kdft_inverse_uniform,
    one_shuffle,
)
from .mesh import (
    AllToAll,
    CommLedger,
    Core,
    MeshSim,
    Ring,
    SourceTargetPairs,
    line_ring_pairs,
    ring_pairs,
)
from .oracle import direct_dft, relative_l2_error
from .vandermonde import (
    SamplePoints,
    build_nonuniform,
    build_phase_slice,
    build_uniform,
    slice_rows,
)

__version__ = "0.1.0"

__all__ = [
    "AllToAll",
    "ArgumentError",
    "AssemblyError",
    "BlockAssignment",
    "CommLedger",
    "CommunicationError",
    "ComplexTensor",
    "ComputationShape",
    "Core",
    "DecompositionError",
    "DimensionError",
    "FftPlan",
    "KdftPlan",
    "MeshDftError",
    "MeshSim",
    "PlanError",
    "PrecisionMode",
    "ProtocolError",
    "Ring",
    "SamplePoints",
    "SourceTargetPairs",
    "UnsupportedOperationError",
    "bf16_array",
    "bit_reversal_permutation",
    "build_nonuniform",
    "build_phase_slice",
    "build_uniform",
    "contract",
    "create_fft_plan",
    "create_kdft_plan",
    "decompose",
    "direct_dft",
    "fft_forward",
    "gather_positions",
    "gather_to_host",
    "kdft_forward",
    "kdft_inverse_uniform",
    "line_ring_pairs",
    "local_fft",
    "local_fft_flops",
    "matmul_mixed",
    "one_shuffle",
    "phase_adjust",
    "relative_l2_error",
    "ring_pairs",
    "scale_along_axis",
    "slice_rows",
    "strided_gather",
]
