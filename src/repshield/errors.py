"""Exception types shared across the package."""


class InputFormatError(ValueError):
    """A file or structured input violates its declared format."""
