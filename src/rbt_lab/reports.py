"""Certification reports and the exceptions shared across modules.

Every quantitative check produces a CertReport with exact integer value and
bound.  JSON serialization renders integers as strings so consumers limited
to 53-bit floats never truncate silently.
"""

from __future__ import annotations

from typing import Any

from .graph import Record


class PreconditionError(ValueError):
    """A check was invoked on input that violates its stated preconditions."""


class RainbowFoundError(PreconditionError):
    """A rainbow triangle exists in a system that was asserted to be free of them.

    Carries the witness so callers can report it instead of a bare message.
    """

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class CertReport(Record):
    """Outcome of one bound check: claim id, exact value vs bound, witness data."""

    __slots__ = ("claim", "value", "bound", "witness")

    def __init__(self, claim: str, value: int, bound: int,
                 witness: dict[str, Any] | None = None):
        self._fill(claim, value, bound, witness)

    @property
    def slack(self) -> int:
        return self.bound - self.value

    @property
    def tight(self) -> bool:
        return self.slack == 0

    @property
    def passed(self) -> bool:
        return self.slack >= 0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "value": str(self.value),
            "bound": str(self.bound),
            "slack": str(self.slack),
            "tight": self.tight,
            "witness": self.witness,
        }

