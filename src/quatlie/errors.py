"""Exception types and the check report shared across the package."""


class MalformedInputError(ValueError):
    """Input data does not have the promised shape (e.g. non-MJ blocks)."""


class DegenerateInputError(ValueError):
    """A basis argument is linearly dependent where independence is required."""


class TruncationOverflowError(RuntimeError):
    """A raising operator tried to leave the truncated word space."""


class StructuralFailureError(RuntimeError):
    """A verified-by-construction identity failed; indicates a bug."""


class CheckReport:
    """Outcome of one named check: how many instances ran, which failed.

    ``detail`` holds measured facts beside the verdict, such as the
    dimensions of the zero-weight split.  Reports are equal when their
    type and fields are.
    """

    __slots__ = ("name", "instances_checked", "failures", "detail")

    def __init__(self, name: str, instances_checked: int, failures: list, detail=None):
        self.name = name
        self.instances_checked = instances_checked
        self.failures = failures
        self.detail = {} if detail is None else detail

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"CheckReport({fields})"

    @property
    def ok(self) -> bool:
        return not self.failures
