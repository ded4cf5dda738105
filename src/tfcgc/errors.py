"""Errors shared by several modules."""


class ShapeError(ValueError):
    """Inputs do not have the expected dimensions."""
