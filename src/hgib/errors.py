"""Exception hierarchy shared across the package."""


class HgibError(Exception):
    """Base class for all package errors."""


class ShapeError(HgibError):
    """Operand dimensions are inconsistent."""


class NonFiniteError(HgibError):
    """An operation produced NaN or Inf."""


class DataError(HgibError):
    """Malformed or inconsistent input data."""


class StructureError(HgibError):
    """Invalid hypergraph structure (e.g. an uncovered vertex)."""


class MetricError(HgibError):
    """A metric is undefined for the given inputs."""
