"""Exception types shared across the package."""

__all__ = ["ConfigError", "ResourceLimitError", "NumericalError"]


class ConfigError(ValueError):
    """Invalid experiment configuration or command-line input."""


class ResourceLimitError(RuntimeError):
    """A command would exceed the byte or walk-step budget, or one path the chunk budget."""


class NumericalError(RuntimeError):
    """A quadrature or tabulation step failed to converge."""
