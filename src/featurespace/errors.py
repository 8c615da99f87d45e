"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FeatureSpaceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FeatureSpaceError):
    """Invalid input: malformed documents, broken invariants, bad configs."""


class KernelError(FeatureSpaceError):
    """A transform kernel failed at runtime on concrete data.

    A kernel raises it with its kind's facts alone, and the failing row, if
    any, as ``row_index``. The pipeline names the step, and the row when
    there is one, in the text (``step N (kind): row R: ``) and sets
    ``step_number``.
    """

    def __init__(self, message: str, row_index: int | None = None,
                 step_number: int | None = None):
        super().__init__(message)
        self.row_index = row_index
        self.step_number = step_number


class MappingError(ValidationError):
    """A contribution vector cannot be mapped across the given pipeline."""
