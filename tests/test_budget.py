import pytest

from polytab.budget import ENV_BUDGET_SECS, Budget, BudgetExceededError


@pytest.mark.parametrize("seconds", [0, -5])
def test_zero_or_negative_seconds_refuse_at_first_check(seconds):
    with pytest.raises(BudgetExceededError):
        Budget(seconds=seconds).check()


def test_env_budget(monkeypatch):
    monkeypatch.setenv(ENV_BUDGET_SECS, "0")
    with pytest.raises(BudgetExceededError):
        Budget.from_env().check()
    for unlimited in ("", None):
        if unlimited is None:
            monkeypatch.delenv(ENV_BUDGET_SECS)
        else:
            monkeypatch.setenv(ENV_BUDGET_SECS, unlimited)
        budget = Budget.from_env()
        assert budget.deadline is None
        budget.check()
