"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a precondition of the operation it was passed to."""
