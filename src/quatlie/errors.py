"""Exception types and the check report shared across the package."""

from dataclasses import dataclass, field


class MalformedInputError(ValueError):
    """Input data does not have the promised shape (e.g. non-MJ blocks)."""


class DegenerateInputError(ValueError):
    """A basis argument is linearly dependent where independence is required."""


class NotClosedError(ValueError):
    """A bracket left the span it was supposed to stay in."""


class TruncationOverflowError(RuntimeError):
    """A raising operator tried to leave the truncated word space."""


class StructuralFailureError(RuntimeError):
    """A verified-by-construction identity failed; indicates a bug."""


@dataclass
class CheckReport:
    """Outcome of one named check: how many instances ran, which failed.

    ``detail`` holds measured facts beside the verdict, such as the
    dimensions of the zero-weight split.
    """

    name: str
    instances_checked: int
    failures: list
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures
