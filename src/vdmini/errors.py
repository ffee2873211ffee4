"""Typed errors shared across the toolkit."""


class VdminiError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(VdminiError):
    """Operand shapes do not conform to an op's shape rule."""


class NonScalarRootError(VdminiError):
    """backward() called on a non-scalar root."""


class TapeError(VdminiError):
    """backward() called with a root its tape did not record, or on a tape
    an earlier backward() consumed."""


class NonFiniteError(VdminiError):
    """A value that must be finite was NaN or Inf."""


class GraphError(VdminiError):
    """A graph document does not describe a graph this toolkit builds."""


class UnknownBlockError(VdminiError):
    """A block id does not exist in the graph."""


class PlanError(VdminiError):
    """A pruning plan cannot be constructed or applied."""


class CheckpointError(VdminiError):
    """Checkpoint file is malformed, truncated, or corrupt."""


class DatasetError(VdminiError):
    """Dataset file is malformed, truncated, or corrupt."""


class MetricError(VdminiError):
    """A metric could not be computed (e.g. degenerate covariance)."""


class ConfigError(VdminiError):
    """Run configuration is missing or malformed."""


class MissingArtifactError(VdminiError):
    """A pipeline stage requires an artifact that does not exist."""
