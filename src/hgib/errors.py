"""Exception hierarchy shared across the package, and the type check of
config fields."""

import math
import numbers
from dataclasses import fields


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


def check_field_types(cfg) -> None:
    """Raise ValueError naming the first field of the dataclass `cfg` whose
    value does not fit its annotation, read as a string: an `int` field (or
    each item of a `tuple[int, ...]` one) takes an int, a `float` field a
    finite real number, and a bool is neither."""
    for f in fields(cfg):
        kind = {"int": numbers.Integral, "float": numbers.Real, "tuple[int, ...]": numbers.Integral}.get(f.type)
        value = getattr(cfg, f.name)
        items = value if f.type.startswith("tuple") else [value]
        if kind and not all(isinstance(v, kind) and not isinstance(v, bool) for v in items):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
