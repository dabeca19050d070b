import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from polytab.abc_search import (   # noqa: E402
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    search_abc,
)
from polytab.cliques import build_graph, tabulate  # noqa: E402
from polytab.smooth import PrimeSet  # noqa: E402
from polytab.vertices import build_vertex_set  # noqa: E402


# Hypothesis adds to its example pool the literals of every local module
# imported so far, so a derandomized property test would draw examples that
# depend on which modules the tests before it imported and on every literal
# in src/ and tests/.  With the pool empty, each draws the same examples in
# every run; explicit @example cases keep the boundary values the tests need.
# The hook is private, so a Hypothesis without it leaves NO_LOCAL_CONSTANTS
# None and fails test_hypothesis_draws_no_local_constants, not the suite.
try:
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    providers._get_local_constants          # AttributeError if it moved
    NO_LOCAL_CONSTANTS = Constants()
    providers._get_local_constants = lambda: NO_LOCAL_CONSTANTS
except (ImportError, AttributeError):
    NO_LOCAL_CONSTANTS = None


class Timed:
    """A computed artifact together with how long it took to build."""

    def __init__(self, value, seconds):
        self.value = value
        self.seconds = seconds


def _timed(fn):
    t0 = time.monotonic()
    value = fn()
    return Timed(value, time.monotonic() - t0)


# --- searches ---------------------------------------------------------------


@pytest.fixture(scope="session")
def search_iii_2357():
    return _timed(lambda: search_abc(PrimeSet([2, 3, 5, 7]), VARIANT_III, 10 ** 9))


@pytest.fixture(scope="session")
def search_i2i_235():
    return _timed(lambda: search_abc(PrimeSet([2, 3, 5]), VARIANT_I2I, 10 ** 9))


@pytest.fixture(scope="session")
def search_32i_23():
    return _timed(lambda: search_abc(PrimeSet([2, 3]), VARIANT_32I, 10 ** 11))


@pytest.fixture(scope="session")
def search_32i_235():
    """3-2-inf over {2,3,5} at 1e9: no completeness source covers it."""
    return _timed(lambda: search_abc(PrimeSet([2, 3, 5]), VARIANT_32I, 10 ** 9))


@pytest.fixture(scope="session")
def search_i2i_2357():
    """inf-2-inf over {2,3,5,7} at 1e9: no completeness source covers it."""
    return _timed(lambda: search_abc(PrimeSet([2, 3, 5, 7]), VARIANT_I2I,
                                     10 ** 9))


# --- vertex sets and graphs -------------------------------------------------


@pytest.fixture(scope="session")
def vs2():
    return _timed(lambda: build_vertex_set(PrimeSet([2]), 4))


@pytest.fixture(scope="session")
def graph2(vs2):
    return _timed(lambda: build_graph(vs2.value))


@pytest.fixture(scope="session")
def table2(graph2):
    return _timed(lambda: tabulate(graph2.value))


@pytest.fixture(scope="session")
def vs235(search_i2i_235):
    points = {VARIANT_I2I: search_i2i_235.value}
    return _timed(lambda: build_vertex_set(
        PrimeSet([2, 3, 5]), 2, points_by_variant=points))


@pytest.fixture(scope="session")
def graph235(vs235):
    return _timed(lambda: build_graph(vs235.value))


@pytest.fixture(scope="session")
def table235(graph235):
    return _timed(lambda: tabulate(graph235.value))


@pytest.fixture(scope="session")
def vs23(search_32i_23):
    points = {VARIANT_32I: search_32i_23.value}
    return _timed(lambda: build_vertex_set(
        PrimeSet([2, 3]), 3, points_by_variant=points))


@pytest.fixture(scope="session")
def graph23(vs23):
    return _timed(lambda: build_graph(vs23.value))


@pytest.fixture(scope="session")
def table23(graph23):
    return _timed(lambda: tabulate(graph23.value))


@pytest.fixture(scope="session")
def vs2357(search_iii_2357):
    points = {VARIANT_III: search_iii_2357.value}
    return _timed(lambda: build_vertex_set(
        PrimeSet([2, 3, 5, 7]), 1, points_by_variant=points))


@pytest.fixture(scope="session")
def graph2357(vs2357):
    return _timed(lambda: build_graph(vs2357.value))


@pytest.fixture(scope="session")
def table2357(graph2357):
    return _timed(lambda: tabulate(graph2357.value))


@pytest.fixture(scope="session")
def search_iii_235711():
    """inf-inf-inf over {2,3,5,7,11} at de Weger's cutoff: certified complete."""
    return _timed(lambda: search_abc(PrimeSet([2, 3, 5, 7, 11]), VARIANT_III,
                                     18255))


@pytest.fixture(scope="session")
def graph235711(search_iii_235711):
    points = {VARIANT_III: search_iii_235711.value}
    return _timed(lambda: build_graph(build_vertex_set(
        PrimeSet([2, 3, 5, 7, 11]), 1, points_by_variant=points)))


# --- acceptance reporting ---------------------------------------------------


ACCEPTANCE_RESULTS = []


def record_criterion(number, ok, detail):
    ACCEPTANCE_RESULTS.append((number, bool(ok), detail))
    assert ok, f"criterion {number}: {detail}"


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    ordered = sorted(ACCEPTANCE_RESULTS,
                     key=lambda r: (len(str(r[0])), str(r[0])))
    for number, ok, detail in ordered:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:>3}: {status}  {detail}")
