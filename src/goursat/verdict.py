"""The one result type of the check operations."""

from dataclasses import dataclass
from typing import Any, Optional

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: ``ok`` is True (pass), False (fail, with a
    witness that replays the violation) or None (not applicable, with the
    reason in ``note``)."""

    ok: Optional[bool]
    witness: Any = None
    note: str = ""

    def __bool__(self):
        return self.ok is True

    @property
    def status(self):
        return NOT_APPLICABLE if self.ok is None else PASS if self.ok else FAIL

    @property
    def failed(self):
        return self.ok is False
