"""Exception types shared across the package."""


class DiraclabError(Exception):
    """Base class for all package errors."""


class DomainError(DiraclabError):
    """Evaluation outside the open interval of definition."""


class GeometryError(DiraclabError):
    """Invalid surface or warp data."""


class InfiniteAreaError(DiraclabError):
    """The warp integral diverges; area-based bounds are not applicable."""


class AssemblyError(DiraclabError):
    """Operator assembly failed (bad warp data, inconsistent mode, ...)."""


class ConvergenceError(DiraclabError):
    """A backward error above n * eps, a LAPACK failure, or a probe whose
    MAX_MODE_CUTOFF modes all have their floor at or below its threshold."""


class CatalogError(DiraclabError):
    """Unknown scenario, section name, or malformed scenario file."""


class SchemaError(DiraclabError):
    """Report or scenario document with an unsupported schema version."""
