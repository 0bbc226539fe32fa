"""Exception types shared across the package, and its one memory budget."""

MEMORY_BYTES = 1 << 32


class CovertimeError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(CovertimeError, ValueError):
    """Malformed edge-list input; carries the offending line number. Its
    ``args`` are the constructor's, so it survives a pickle round trip."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(line_number, message)
        self.line_number = line_number

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.args[1]}"


class VertexRangeError(CovertimeError, ValueError):
    """A vertex id is outside the graph or component it was used with."""


class ContractViolation(CovertimeError, ValueError):
    """An operation was called outside its documented domain."""


class DegenerateModelError(CovertimeError, RuntimeError):
    """A random-graph model cannot produce a sample in this parameter regime."""


class StepLimitExceeded(CovertimeError, RuntimeError):
    """A simulated walk ran past its safety step cap (indicates a bug)."""


def require(nbytes: float, what: str) -> None:
    """Charge nbytes, the measured peak of what an input asks for, before it
    is allocated: ContractViolation naming both above ``MEMORY_BYTES``."""
    if nbytes > MEMORY_BYTES:
        raise ContractViolation(
            f"{what} needs {nbytes:.0f} bytes, over the budget of {MEMORY_BYTES}")
