"""Exception types shared across the package."""

__all__ = ["ConfigError", "ResourceLimitError", "NumericalError"]


class ConfigError(ValueError):
    """Invalid experiment configuration or command-line input."""


class ResourceLimitError(RuntimeError):
    """A campaign would exceed the configured memory budget."""


class NumericalError(RuntimeError):
    """A quadrature or tabulation step failed to converge."""
