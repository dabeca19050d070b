"""The two conditional tables: {2,3,5} to degree 3, with the 3-2-inf points
at 1e9, and {2,3,5,7} to degree 2, with the inf-2-inf points at 1e9.

Both vertex sets are search-bounded, so no reference covers these tables.
The sha256 pins and the U(2,1,1,1) values are this program's own output,
not reference data.  The cross-checks tie each table to a table of lower
degree that the acceptance suite checks, and to the capped kernel
(`_few_cliques`), which counts the small cells apart from the pivot
recursion.

These are the largest graphs and tables the package builds (about 1.06 M
and 1.08 M edges, 1.26e9 and 5.06e9 cliques) and take about a minute, so
the module carries the `conditional` marker, which the default options in
pyproject.toml deselect.  Run it with `pytest -m conditional`.
"""

import hashlib

import pytest

from polytab.abc_search import VARIANT_32I, VARIANT_I2I, VARIANT_III
from polytab.cliques import build_graph, count_u_nu, tabulate
from polytab.smooth import PrimeSet
from polytab.vertices import build_vertex_set

pytestmark = pytest.mark.conditional


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def graph235_3(search_i2i_235, search_32i_235):
    vs = build_vertex_set(PrimeSet([2, 3, 5]), 3, points_by_variant={
        VARIANT_I2I: search_i2i_235.value, VARIANT_32I: search_32i_235.value})
    assert vs.counts() == {1: 99, 2: 1927, 3: 17662}
    return build_graph(vs)


@pytest.fixture(scope="module")
def table235_3(graph235_3):
    return tabulate(graph235_3)


@pytest.fixture(scope="module")
def graph2357_2(search_iii_2357, search_i2i_2357):
    vs = build_vertex_set(PrimeSet([2, 3, 5, 7]), 2, points_by_variant={
        VARIANT_III: search_iii_2357.value,
        VARIANT_I2I: search_i2i_2357.value})
    assert vs.counts() == {1: 375, 2: 14599}
    return build_graph(vs)


@pytest.fixture(scope="module")
def table2357_2(graph2357_2):
    return tabulate(graph2357_2)


def test_table_235_degree3_pinned(graph235_3, table235_3):
    assert graph235_3.edge_count() == 1057540
    assert len(table235_3.counts) == 474
    assert table235_3.total() == 1258833084
    assert _sha256(table235_3.to_csv()) == \
        "559dfc461d4a1775b4c8f690af08b370dcf59a4cbe899ac8e39c0540473555dd"


def test_table_235_degree3_without_cubics_is_the_degree2_table(table235_3,
                                                               table235):
    low = {e[:2]: c for e, c in table235_3.counts.items() if e[2] == 0}
    assert len(low) == 75
    assert low == table235.value.counts


def test_table_235_degree3_capped_cells(graph235_3, table235_3):
    small = {e: c for e, c in table235_3.counts.items() if sum(e) <= 4}
    assert len(small) == 35
    assert tabulate(graph235_3, max_size=4).counts == small


def test_u_nu_235_degree3(graph235_3):
    assert count_u_nu(graph235_3, (2, 1, 1, 1)) == 2947


def test_table_2357_degree2_pinned(graph2357_2, table2357_2):
    assert graph2357_2.edge_count() == 1083948
    assert len(table2357_2.counts) == 141
    assert table2357_2.total() == 5058381118
    assert _sha256(table2357_2.to_csv()) == \
        "9589979de0860721529faf9827322a72b5ff4bc38f5646982c4f8e3eafac5087"


def test_table_2357_degree2_without_quadratics_is_the_degree1_row(
        table2357_2, table2357):
    low = {e[:1]: c for e, c in table2357_2.counts.items() if e[1] == 0}
    assert len(low) == 10
    assert low == table2357.value.counts


def test_table_2357_degree2_capped_cells(graph2357_2, table2357_2):
    small = {e: c for e, c in table2357_2.counts.items() if sum(e) <= 4}
    assert len(small) == 15
    assert tabulate(graph2357_2, max_size=4).counts == small


def test_u_nu_2357_degree2(graph2357_2):
    assert count_u_nu(graph2357_2, (2, 1, 1, 1)) == 24499
