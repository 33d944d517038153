"""Exception hierarchy shared by all modules."""


class MeshDftError(Exception):
    """Base class for every error raised by this package."""


class ArgumentError(MeshDftError, ValueError):
    """An argument value is malformed or out of range."""


class DimensionError(MeshDftError, ValueError):
    """Shapes, ranks, or axis indices do not line up."""


class PlanError(MeshDftError):
    """A core grid cannot hold a tensor, or a plan cannot be built for it."""


class UnsupportedOperationError(MeshDftError):
    """The operation is well-formed but not available in this configuration."""


class CommunicationError(MeshDftError):
    """A collective was invoked with inconsistent arguments."""


class ProtocolError(MeshDftError):
    """A run's measured ledger differs from its closed form (CLI exit 3)."""


class AssemblyError(MeshDftError):
    """Per-core blocks cannot be stitched back into a global tensor."""
