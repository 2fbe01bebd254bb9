"""Error types shared across the package."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation exceeds its size guard (full-space solver)."""


class NoCrossingError(RuntimeError):
    """Raised when a crossing search finds no sign change, or stops before its tolerance."""
