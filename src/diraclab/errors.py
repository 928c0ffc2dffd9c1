"""Exception types shared across the package."""


class DiraclabError(Exception):
    """Base class for all package errors."""


class DomainError(DiraclabError):
    """Evaluation outside the open interval of definition."""


class GeometryError(DiraclabError):
    """Invalid surface or warp data."""


class AssemblyError(DiraclabError):
    """Operator assembly failed (bad warp data, inconsistent mode, ...)."""


class ConvergenceError(DiraclabError):
    """A backward error above n * eps or a LAPACK failure; a mode walk that
    finds no pruning floor is flagged UNCERTIFIED, never raised."""


class CatalogError(DiraclabError):
    """Unknown scenario, section name, or malformed scenario file."""


class SchemaError(DiraclabError):
    """Malformed report: not JSON, a NaN or Infinity token, another
    schema_version, or a missing key (raised by bounds.load_report)."""
