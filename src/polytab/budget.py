"""Wall-clock and problem-size budgets, held in scope.

No function takes a budget.  `with Budget(seconds):` makes one current for
the block, as `decimal.localcontext` does a context, and every long loop
calls `check()`, which polls the innermost budget in scope.  Blocks nest and
the innermost wins; leaving a block, by an exception too, restores the outer
one, and a Budget may be entered again.  Outside every block the current
budget is an unlimited Budget(), so a poll never refuses.  A generator polls
the budget current when it resumes, so it is consumed inside its block.

Budget.from_env() reads POLYTAB_BUDGET_SECS: unset or empty means no limit,
and any number of seconds counts from construction, so 0 or a negative value
refuses at the first check(), and inf means no limit.  NaN seconds are a
ValueError, as is anything else that is not a number, so the CLI exits 2
rather than run unlimited.  The CLI runs each command in one
`with Budget.from_env():` block.  Oversized requests are refused up front
(`require_height`) rather than truncated.  The package starts no threads,
so the scope is one module-level list.
"""

from __future__ import annotations

import os
import time
from math import isnan

ENV_BUDGET_SECS = "POLYTAB_BUDGET_SECS"

MAX_HEIGHT = 10 ** 12
# bits in one packed cyclotomic series (`generators._subset_counts`): 32 MiB
# per int, of which the product keeps a few alive at once
MAX_SERIES_BITS = 2 ** 28


class BudgetExceededError(RuntimeError):
    """A request was refused or aborted because it exceeds the resource budget."""


class Budget:
    def __init__(self, seconds: float | None = None):
        if seconds is not None and isnan(seconds):
            raise ValueError(f"budget of {seconds} seconds is not a number")
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

    def __enter__(self) -> "Budget":
        _scope.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _scope.pop()


_scope = [Budget()]     # the budgets in scope, innermost last


def check() -> None:
    """Poll the innermost budget in scope (its `check` method, so a
    subclass's is the one called)."""
    _scope[-1].check()


def require_height(H: int) -> None:
    if H > MAX_HEIGHT:
        raise BudgetExceededError(
            f"height bound {H} exceeds the maximum {MAX_HEIGHT}; "
            "refusing rather than truncating")
