"""Wall-clock and problem-size budgets.

Long-running operations take an optional Budget and refuse oversized requests
up front rather than silently truncating.  The global time allowance can be
set with the POLYTAB_BUDGET_SECS environment variable.  Only seconds=None (an
unset or empty variable) means no limit; any other number of seconds counts
from construction, so 0 or a negative value refuses at the first check().
"""

from __future__ import annotations

import os
import time

ENV_BUDGET_SECS = "POLYTAB_BUDGET_SECS"

MAX_HEIGHT = 10 ** 12


class BudgetExceededError(RuntimeError):
    """A request was refused or aborted because it exceeds the resource budget."""


class Budget:
    def __init__(self, seconds: float | None = None):
        self.deadline = (None if seconds is None
                         else time.monotonic() + seconds)

    @classmethod
    def from_env(cls) -> "Budget":
        raw = os.environ.get(ENV_BUDGET_SECS)
        return cls(seconds=float(raw) if raw else None)

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError(
                f"wall-clock budget ({ENV_BUDGET_SECS}) exhausted")

    def require_height(self, H: int) -> None:
        if H > MAX_HEIGHT:
            raise BudgetExceededError(
                f"height bound {H} exceeds the maximum {MAX_HEIGHT}; "
                "refusing rather than truncating")
