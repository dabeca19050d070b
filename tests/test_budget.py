import pytest

from polytab import budget
from polytab.budget import ENV_BUDGET_SECS, Budget, BudgetExceededError
from polytab.cliques import enumerate_cliques
from polytab.generators import cyclo_series
from polytab.smooth import PrimeSet, smooth_numbers_up_to


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


def test_nan_budget_is_refused(monkeypatch):
    """NaN seconds would give a deadline no clock reaches, so they are a
    ValueError; inf is no limit."""
    with pytest.raises(ValueError, match="not a number"):
        Budget(float("nan"))
    monkeypatch.setenv(ENV_BUDGET_SECS, "nan")
    with pytest.raises(ValueError, match="not a number"):
        Budget.from_env()
    monkeypatch.setenv(ENV_BUDGET_SECS, "inf")
    Budget.from_env().check()


class _Counting(Budget):
    """A budget that counts its polls and then checks its clock."""

    def __init__(self, seconds=None):
        super().__init__(seconds)
        self.calls = 0

    def check(self):
        self.calls += 1
        super().check()


def test_nested_block_refuses_by_the_inner_budget_then_restores_the_outer():
    outer = _Counting()
    with outer:
        with Budget(seconds=0):
            with pytest.raises(BudgetExceededError):
                budget.check()
        budget.check()
    assert outer.calls == 1
    # the other way round: an unlimited inner block inside a spent one
    with Budget(seconds=0):
        with Budget():
            budget.check()
        with pytest.raises(BudgetExceededError):
            budget.check()


def test_a_block_left_by_a_refusal_restores_the_outer_budget():
    outer = _Counting()
    with outer:
        with pytest.raises(BudgetExceededError):
            with _Counting(seconds=0):
                budget.check()
        budget.check()
    assert outer.calls == 1


def test_the_same_budget_enters_again():
    b = _Counting()
    with b:
        with b:
            budget.check()
        budget.check()
    budget.check()              # outside every block: not b
    with b:
        budget.check()
    assert b.calls == 3


def test_outside_every_block_a_poll_never_refuses(monkeypatch):
    """Library calls no longer read the environment: only a block does."""
    P = PrimeSet([2, 3])
    want = cyclo_series(P, 20)
    monkeypatch.setenv(ENV_BUDGET_SECS, "0")
    budget.check()
    assert cyclo_series(P, 20) == want
    with pytest.raises(BudgetExceededError), Budget.from_env():
        cyclo_series(P, 20)


def test_a_poll_calls_the_check_method_of_the_current_budget(monkeypatch):
    """A subclass's check is the one polled, and so is Budget.check when it
    is replaced on the class, as a tracer that counts polls does."""
    b = _Counting()
    with b:
        budget.check()
    assert b.calls == 1
    polled = []
    check = Budget.check
    monkeypatch.setattr(Budget, "check",
                        lambda self: polled.append(self) or check(self))
    budget.check()
    with Budget(seconds=60) as b:
        budget.check()
    assert len(polled) == 2 and polled[1] is b


def test_a_stream_polls_the_budget_current_when_it_resumes(graph2):
    stream = enumerate_cliques(graph2.value)
    assert next(stream) == ()   # the empty clique, before any head
    with pytest.raises(BudgetExceededError), Budget(seconds=0):
        next(stream)
    stream = enumerate_cliques(graph2.value)
    with Budget(seconds=0):
        assert next(stream) == ()
    assert sum(1 for _ in stream) == 1509


def test_smooth_enumeration_polls_inside_a_long_pass():
    """A pass that lists more than 2^16 numbers polls the budget inside it,
    not only once per prime: the last of the ten passes over the primes
    below 30 up to 1e8 lists 88,415 numbers."""
    P = PrimeSet([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    counting = _Counting()
    with counting:
        assert len(smooth_numbers_up_to(P, 10 ** 8)) == 88415
    assert counting.calls > len(P.primes)
    with pytest.raises(BudgetExceededError), Budget(seconds=0):
        smooth_numbers_up_to(P, 10 ** 8)
