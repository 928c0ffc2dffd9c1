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
    """An eigenpair's normwise backward error is above n * eps."""


class CatalogError(DiraclabError):
    """Unknown scenario, section name, or malformed scenario file."""


class SchemaError(DiraclabError):
    """Report or scenario document with an unsupported schema version."""
