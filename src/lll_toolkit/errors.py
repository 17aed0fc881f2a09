"""Exception types shared across the toolkit."""
from __future__ import annotations


class ModelError(ValueError):
    """A system component violates a structural invariant."""


class EngineError(RuntimeError):
    """A resample log is inconsistent with the system it claims to describe."""


class TapeExhausted(RuntimeError):
    """An explicit tape ran out of bits mid-draw.

    Carries whatever partial run state the caller handed over, so
    enumeration drivers can account for the unfinished branch exactly.
    """

    def __init__(self, message="explicit tape exhausted", *, partial_log=None,
                 partial_assignment=None, in_flight_event=None):
        super().__init__(message)
        self.partial_log = partial_log
        self.partial_assignment = partial_assignment
        self.in_flight_event = in_flight_event


class BudgetRefused(RuntimeError):
    """A requested computation exceeds its configured guard.

    Refusal is preferred over silent approximation; where a call takes a
    guard, callers may retry with a larger one.
    """


class ContractViolation(RuntimeError):
    """An oracle's observed values contradict a caller-asserted precondition."""


class ExtractionTimeout(RuntimeError):
    """Branch extraction exceeded its round budget without committing a value."""


class FamilyError(RuntimeError):
    """An event family enumerator failed or returned inconsistent data."""


class VerificationError(RuntimeError):
    """An internal end-to-end verification failed; the result is not returned."""
