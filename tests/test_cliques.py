import gc
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from polytab import cliques
from polytab.budget import Budget, BudgetExceededError
from polytab.cliques import (
    Packet,
    _s3_moves,
    _triple_to_matrix,
    build_graph,
    count_u_nu,
    enumerate_cliques,
    parse_kappa,
    partition_label,
    pgl2_packets,
    tabulate,
)
from polytab.poly import (
    S3_ELEMENTS,
    NormalizedPoly,
    from_roots,
    normalize,
    poly_mul,
    projective_point,
    s3_orbit,
    s3_transform,
)
from polytab.smooth import PrimeSet, smooth_numbers_up_to
from polytab.vertices import Vertex, VertexSet

from oracles import (
    IDENT,
    INF,
    S3_MATS,
    abc_brute_force,
    build_graph_pairwise,
    cliques_by_partition_naive,
    enumerate_cliques_unguided,
    graph_from_lesser,
    mat_mul,
    mobius_on_point,
    neighbor_counts,
    open_graph,
    pgl2_packets_fraction,
    reduction_bound,
    resultant_bound,
    resultant_closed_form,
    resultant_sylvester,
    split_graph_counts_naive,
    split_roots,
    triple_to_matrix,
)

P2 = PrimeSet([2])


def test_reduction_bound_table():
    rows = {2: (0, 2, 8, 20), 3: (1, 7, 31, 103), 5: (3, 23, 143, 743),
            7: (5, 47, 383, 2735), 11: (9, 119, 1439, 15959)}
    for p, want in rows.items():
        assert tuple(reduction_bound(p, f) for f in (1, 2, 3, 4)) == want
    # general f: the union over subfields grows by the new-degree points
    assert reduction_bound(2, 5) == reduction_bound(2, 4) + (2 ** 5 - 2)


def test_partition_labels():
    assert partition_label((0, 0)) == "-"
    assert partition_label((1, 0)) == "1"
    assert partition_label((3, 2, 1)) == "3 2^2 1^3"
    assert parse_kappa("2^15,1", 2) == (1, 15)
    assert parse_kappa("3 3 2 1^4", 3) == (4, 1, 2)
    with pytest.raises(ValueError):
        parse_kappa("5", 4)
    assert parse_kappa("2^0 1", 2) == (1, 0)
    with pytest.raises(ValueError, match="negative"):
        parse_kappa("1^-1 2", 2)


def test_negative_caps_and_parts_rejected(graph2):
    g = graph2.value
    for kwargs in ({"max_size": -1}, {"kappa": (-1, 1)},
                   {"kappa": (1, 0, 0, -2)}):
        with pytest.raises(ValueError, match="negative"):
            tabulate(g, **kwargs)
    with pytest.raises(ValueError, match="negative"):
        list(enumerate_cliques(g, max_size=-1))
    with pytest.raises(ValueError, match="negative"):
        list(enumerate_cliques(g, limit=-1))
    with pytest.raises(ValueError, match="negative"):
        count_u_nu(g, (-1, 1, 1, 1))
    assert tabulate(g, max_size=0).counts == {(0, 0, 0, 0): 1}


def test_littletab(table2):
    grid = [[table2.value.count((a, b, 0, 0)) for a in (0, 1)] for b in range(4)]
    assert grid == [[1, 3], [15, 21], [9, 9], [3, 3]]


def test_graph2_isolated_linears(graph2):
    g = graph2.value
    lin = [i for i, d in enumerate(g.degrees) if d == 1]
    mask = sum(1 << i for i in lin)
    for i in lin:
        assert not g.adj[i] & mask


def test_neighbor_counts_published_row(graph2):
    g = graph2.value
    idx = next(i for i, v in enumerate(g.vertices)
               if v.poly.coeffs == (-1, -2, 1))   # t^2 - 2t - 1
    counts = neighbor_counts(g, idx)
    assert (counts.get(1, 0), counts.get(2, 0), counts.get(4, 0)) == (2, 2, 13)


def test_handshake(graph2):
    g = graph2.value
    total = sum(sum(neighbor_counts(g, i).values()) for i in range(len(g.vertices)))
    assert total == 2 * g.edge_count()


def test_single_vertex_no_edges():
    vs = VertexSet(P2)
    vs.add_degree(1, [Vertex(NormalizedPoly((-2, 1)))], "test")
    g = build_graph(vs)
    assert g.edge_count() == 0
    t = tabulate(g)
    assert t.counts == {(0,): 1, (1,): 1}


def _restrict(lesser, gone):
    """Lesser masks of the subgraph without the vertex indices in gone."""
    out = []
    for i, m in enumerate(lesser):
        if i not in gone:
            for p in sorted(gone, reverse=True):
                m = m & ((1 << p) - 1) | m >> (p + 1) << p
            out.append(m)
    return out


def _without(vs, drop):
    out = VertexSet(vs.P)
    for d, vsl in vs.by_degree.items():
        out.by_degree[d] = [v for v in vsl if v not in drop]
    return out


def _assert_one_adjacency(g):
    """g.adj is the lesser masks together with their transpose: symmetric,
    with an empty diagonal, lesser its lower triangle, and edge_count() the
    lesser popcount sum."""
    lesser = g.lesser
    upper = [0] * len(lesser)
    for v, m in enumerate(lesser):
        assert m >> v == 0
        while m:
            b = m & -m
            m ^= b
            upper[b.bit_length() - 1] |= 1 << v
    assert g.adj == [lo | up for lo, up in zip(lesser, upper)]
    assert g.edge_count() == sum(m.bit_count() for m in lesser)


def test_build_graph_matches_pairwise_oracle(vs2, vs23, vs235, vs2357,
                                             graph2, graph23, graph235,
                                             graph2357):
    """The orbit-reduced graph equals the pairwise one on the four reference
    sets (S3-stable, all orbits closed) and on each with 1-5 seeded random
    vertices dropped, which leaves their orbit-mates open; its full masks
    are symmetric with lesser as their lower triangle."""
    rng = random.Random(12)
    for vs, g in ((vs2, graph2), (vs23, graph23), (vs235, graph235),
                  (vs2357, graph2357)):
        vs, g = vs.value, g.value
        want = build_graph_pairwise(vs)
        lesser = want.lesser
        assert g.vertices == want.vertices and g.lesser == lesser
        _assert_one_adjacency(g)
        n = len(g.vertices)
        for k in (rng.randint(1, 5), 5):
            gone = set(rng.sample(range(n), k))
            keep = [i for i in range(n) if i not in gone]
            g2 = build_graph(_without(vs, {g.vertices[i] for i in gone}))
            assert g2.vertices == [g.vertices[i] for i in keep]
            assert g2.lesser == _restrict(lesser, gone)
            _assert_one_adjacency(g2)


def test_build_graph_open_vertices_and_other_primes(vs2, vs2357):
    """A hand-built set mixing closed orbits, partial orbits, a repeated
    vertex and vertices whose images drop degree (s(0) = 0 or s(1) = 0,
    one of them onto a listed linear vertex); and build_graph with primes
    other than the set's own."""
    lin = [(-3, 1), (2, 1), (-1, 3), (-2, 3), (-3, 2), (1, 2),  # orbit of 3
           (1, 1), (-2, 1), (-1, 2), (-1, 2),    # orbit of -1, 2t - 1 twice
           (0, 1),                           # t: 1/t drops to a constant
           (-5, 1), (4, 1)]                  # part of the orbit of 5
    quad = [(1, -1, 1),                      # fixed by the whole group
            (1, 0, 1), (2, -2, 1), (1, -2, 2),   # the orbit of t^2 + 1
            (0, -2, 1),                      # 1/t image 1 - 2t is listed
            (-3, 2, 1),                      # (t - 1)(t + 3): s(1) = 0
            (7, 3, 1)]
    vs = VertexSet(PrimeSet([2, 3]))
    vs.by_degree = {1: [Vertex(NormalizedPoly(c)) for c in lin],
                    2: [Vertex(NormalizedPoly(c)) for c in quad]}
    g = build_graph(vs)
    assert g.lesser == build_graph_pairwise(vs).lesser
    assert g.edge_count() > 10
    for vs, P in ((vs2, PrimeSet([2, 3, 5, 7])), (vs2357, PrimeSet([2, 3])),
                  (vs2357, PrimeSet([2, 3, 5, 7, 11]))):
        vs = VertexSet(P, vs.value.by_degree, vs.value.certificates,
                       vs.value.split_degree2)
        assert build_graph(vs).lesser == build_graph_pairwise(vs).lesser


def test_resultant_invariant_under_s3(vs23, vs235):
    """The lemma behind build_graph: |Res(sigma f, sigma g)| = |Res(f, g)|
    for sampled vertex pairs under all six elements."""
    rng = random.Random(23)
    for vs in (vs23.value, vs235.value):
        polys = [v.poly for v in vs.all_vertices()]
        for _ in range(150):
            f, h = rng.sample(polys, 2)
            want = abs(resultant_sylvester(f.coeffs, h.coeffs))
            assert want
            for g in S3_ELEMENTS:
                assert abs(resultant_sylvester(
                    s3_transform(f, g).coeffs,
                    s3_transform(h, g).coeffs)) == want


def _record_rows(monkeypatch):
    """The packed rows build_graph reads, as (lanes, head, degree, first
    lane, lane width, row) tuples."""
    rows = []
    row = cliques._Lanes.row

    def recording(self, r, d, k):
        rows.append((self, r, d, k) + row(self, r, d, k))
        return rows[-1][-2:]

    monkeypatch.setattr(cliques._Lanes, "row", recording)
    return rows


def _row_bounds(lanes, r, d, k):
    """The two bounds of a row (the Rows paragraph of build_graph), from the
    coefficients: the largest |Res| of its head against the degree-d
    vertices from the k-th on, by Hadamard, and the largest monomial value
    over all the degree-d vertices."""
    norm = [sum(x * x for x in c) for c in lanes.coeffs]
    members = lanes.classes[d][1]
    m = len(lanes.coeffs[r]) - 1
    return (isqrt(norm[r] ** d * max(norm[j] for j in members[k:]) ** m),
            isqrt(max(norm[j] for j in members) ** m))


def _least_width(b):
    """The least multiple W of 64 with b < 2^(W-1), counted up."""
    width = 64
    while b >= 1 << width - 1:
        width += 64
    return width


def _lane_values(width, row, n):
    """The n W-bit lanes of a row, less the bias."""
    nbytes = width // 8
    buf = row.to_bytes(nbytes * n, "little")
    return [int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
            - (1 << width - 1) for i in range(n)]


def test_build_graph_one_resultant_per_pair_orbit(vs23, graph23, monkeypatch):
    """On the {2,3} set at most a fifth of the pairs get a resultant lane,
    so a fallback to the pairwise loop fails here."""
    rows = _record_rows(monkeypatch)
    g = build_graph(vs23.value)
    n = len(g.vertices)
    assert g.lesser == graph23.value.lesser
    lanes = sum(len(lanes.classes[d][1]) - k for lanes, _, d, k, *_ in rows)
    assert 0 < lanes <= n * (n - 1) // 2 // 5


def _record_smooth_lists(monkeypatch, force=False):
    """The list of what build_graph's smooth_numbers_up_to calls return;
    with force, the numbers are listed whatever their count (the lane path
    then runs on any set)."""
    listed = []

    def listing(P, H, limit=None):
        listed.append(smooth_numbers_up_to(P, H, None if force else limit))
        return listed[-1]

    monkeypatch.setattr(cliques, "smooth_numbers_up_to", listing)
    return listed


def test_build_graph_resultants_within_bound(vs23, vs235, monkeypatch):
    """Every row build_graph reads on {2,3} degree <= 3 and {2,3,5} degree
    <= 2 is read at the least lane width above its own two bounds, each of
    its lanes holds the bias plus its pair's resultant, and every such
    resultant is within its row's bound and so within the one its smooth set
    is listed to: the smooth lookup path is the one taken, with 64- and
    128-bit rows on {2,3} and 64-bit rows only on {2,3,5}."""
    rows = _record_rows(monkeypatch)
    listed = _record_smooth_lists(monkeypatch)
    for vs, bits, widths in ((vs23.value, 80, {64, 128}),
                             (vs235.value, 51, {64})):
        rows.clear()
        listed.clear()
        build_graph(vs)
        coeffs = [v.poly.coeffs for v in vs.all_vertices()]
        bound = resultant_bound(coeffs)
        assert bound.bit_length() == bits
        assert listed[0] == smooth_numbers_up_to(vs.P, bound)
        assert {w for *_, w, _ in rows} == widths
        seen = 0
        for lanes, r, d, k, width, row in rows:
            b_row, b_pack = _row_bounds(lanes, r, d, k)
            assert width == _least_width(max(b_row, b_pack))
            members = lanes.classes[d][1][k:]
            for j, res in zip(members,
                              _lane_values(width, row, len(members))):
                assert res == resultant_closed_form(coeffs[r], coeffs[j])
                assert abs(res) <= b_row
                seen = max(seen, abs(res))
        assert 0 < seen <= bound


def _strip_set():
    """A {2,3} set with coefficients near 2^300, whose bound needs more
    smooth numbers than it has pairs; a repeated vertex gives zero
    resultants."""
    big = 2 ** 300
    lin = [(-big - k, 1) for k in (0, 7, 16, 243, 256, 259, 259)]
    quad = [(big, 1, 1), (big + 24, 1, 1), (big, 5, 1)]
    vs = VertexSet(PrimeSet([2, 3]))
    vs.by_degree = {1: [Vertex(NormalizedPoly(c)) for c in lin],
                    2: [Vertex(NormalizedPoly(c)) for c in quad]}
    return vs


def test_build_graph_strip_path_over_the_cap(monkeypatch):
    """A set whose bound needs more smooth numbers than it has pairs (huge
    coefficients) tests each resultant by stripping, and still equals the
    pairwise graph; a repeated vertex gives zero resultants."""
    vs = _strip_set()
    listed = _record_smooth_lists(monkeypatch)
    g = build_graph(vs)
    assert listed == [None]
    assert g.lesser == build_graph_pairwise(vs).lesser
    assert g.edge_count() >= 10


def test_build_graph_strip_path_reads_lanes(monkeypatch):
    """The strip set is read off the packed rows too: build_graph computes
    no scalar resultant, on any set."""
    vs = _strip_set()

    def refuse(*args):
        raise AssertionError("a scalar resultant was computed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cliques, "resultant_fast", refuse)
        mp.setattr("polytab.poly.resultant_coeffs", refuse)
        rows = _record_rows(mp)
        g = build_graph(vs)
        assert rows
        for lanes, r, d, k, width, row in rows:
            assert lanes.smooth is None and not lanes.hits
            assert width == _least_width(max(_row_bounds(lanes, r, d, k)))
    assert g.lesser == build_graph_pairwise(vs).lesser
    assert g.edge_count() >= 10


def _sized(coeffs, bits, k=1):
    """t^k + c for the least c >= 0 that gives coeffs and it together a
    resultant bound of the given bit length."""
    lo, hi = 0, 1 << bits
    while lo < hi:
        c = (lo + hi) // 2
        top = (c,) + (0,) * (k - 1) + (1,)
        if resultant_bound(coeffs + [top]).bit_length() < bits:
            lo = c + 1
        else:
            hi = c
    top = (lo,) + (0,) * (k - 1) + (1,)
    assert resultant_bound(coeffs + [top]).bit_length() == bits
    return top


def _vertex_set(coeffs, P):
    vs = VertexSet(P)
    for c in coeffs:
        vs.by_degree.setdefault(len(c) - 1, []).append(
            Vertex(NormalizedPoly(c)))
    return vs


def _lanes_graph(vs, force):
    """build_graph(vs) as _record_smooth_lists(force) has it, and whether
    the smooth numbers were listed."""
    with pytest.MonkeyPatch.context() as mp:
        listed = _record_smooth_lists(mp, force)
        g = build_graph(vs)
    return g, listed[0] is not None


# degrees 1-4: three whole S3 orbits, vertices whose images drop degree or
# are missing (open), and a repeated vertex
_MIXED = (sorted({s.coeffs for s in s3_orbit(NormalizedPoly((-3, 1)))})
          + sorted({s.coeffs for s in s3_orbit(NormalizedPoly((1, 0, 1)))})
          + sorted({s.coeffs for s in s3_orbit(NormalizedPoly((1, 3, 0, 1)))})
          + [(0, 1), (-5, 1), (-5, 1), (1, -1, 1), (0, -2, 1), (-1, 0, 0, 2),
             (1, 1, 1, 1, 1), (-1, 0, 0, 0, 1), (3, -2, 0, 1, 1)])


@pytest.mark.parametrize("bits,width", [(62, 64), (63, 64), (64, 128),
                                        (65, 128), (126, 128), (127, 128),
                                        (128, 192), (129, 192)])
def test_packed_masks_at_the_lane_widths(bits, width, monkeypatch):
    """A mixed set whose bound sits just below and just above 63, 64, 127
    and 128 bits, set by one sized vertex, gives the pairwise graph; some of
    its resultants come within a few bits of the bound.  Each row is read at
    the least width above its own two bounds: the widest at the least width
    W of 64-bit words with the bound below 2^(W-1), and every row that
    neither reads the sized vertex's class nor is headed by it at 64 bits.
    The rows that do hold the bias plus their resultants."""
    rows = _record_rows(monkeypatch)
    P = PrimeSet([2, 3])
    coeffs = list(_MIXED)
    top = _sized(coeffs, bits, k=1 + bits % 2)
    assert max(abs(resultant_closed_form(top, c))
               for c in coeffs) >> bits - 5
    coeffs.append(top)
    vs = _vertex_set(coeffs, P)
    g, lanes = _lanes_graph(vs, force=True)
    assert lanes and rows
    sized = rows[0][0].coeffs.index(top)
    for x, r, d, k, w, row in rows:
        assert w == _least_width(max(_row_bounds(x, r, d, k)))
        if r == sized or d == len(top) - 1:
            assert w <= width
            members = x.classes[d][1][k:]
            assert _lane_values(w, row, len(members)) == [
                resultant_closed_form(x.coeffs[r], x.coeffs[j])
                for j in members]
        else:
            assert w == 64
    assert max(w for *_, w, _ in rows) == width
    assert g.lesser == build_graph_pairwise(vs).lesser
    assert g.edge_count() > 20


def test_spread_packs_equal_built_packs():
    """The packs spread from a degree pair's narrowest width, 64 bits or
    wider, to the next two widths equal the packs built from the
    coefficients at those widths, on a mixed set with one quadratic whose
    lanes are close to the 64-bit digit bound and one cubic that puts its
    class's packs at 128 to 320 bits."""
    coeffs = list(_MIXED) + [_sized(list(_MIXED), 63, k=2),
                             (2 ** 70 + 1, 0, 0, 1)]
    lanes = cliques._Lanes(coeffs, [len(c) - 1 for c in coeffs],
                           list(range(len(coeffs))), PrimeSet([2, 3]), 0)
    bases = []
    for m, d in product(range(1, 5), repeat=2):
        n = len(lanes.classes[d][1])
        base = _least_width(isqrt(lanes.top[d][0] ** m))
        built = lanes._build(m, d, base)
        for width in (base + 64, base + 128):
            assert cliques._spread(built, base, width, n) == \
                lanes._build(m, d, width)
        bases.append(base)
    assert bases.count(64) >= 10 and {128, 192, 256, 320} <= set(bases)


def test_lanes_list_the_smooth_numbers_up_to_the_bound():
    """_Lanes lists the smooth numbers up to the Hadamard bound of the
    oracle, also when the bound comes from two different degrees: one
    linear vertex of large norm makes M_1^4 M_4 the largest product."""
    coeffs = list(_MIXED) + [_sized(list(_MIXED), 100)]
    norms = {}
    for c in coeffs:
        norms[len(c) - 1] = max(norms.get(len(c) - 1, 0),
                                sum(x * x for x in c))
    bound = resultant_bound(coeffs)
    assert bound > isqrt(max(m ** (2 * d) for d, m in norms.items()))
    P = PrimeSet([2, 3])
    lanes = cliques._Lanes(coeffs, [len(c) - 1 for c in coeffs],
                           list(range(len(coeffs))), P, 10 ** 6)
    assert lanes.smooth == smooth_numbers_up_to(P, bound)


@st.composite
def _mixed_sets(draw):
    """Coefficient tuples of degrees 1-4: open vertices, whole S3 orbits,
    repeats, and at times one vertex t^k + c that puts the bound at a lane
    boundary (or far past the smooth list)."""
    small = st.integers(-3, 3)

    def poly():
        deg = draw(st.integers(1, 4))
        body = draw(st.lists(small, min_size=deg, max_size=deg))
        return normalize(body + [draw(st.integers(1, 3))])[0]

    coeffs = [poly().coeffs for _ in range(draw(st.integers(1, 10)))]
    for _ in range(draw(st.integers(0, 3))):
        s = poly()
        if s.coeffs[0] and sum(s.coeffs):   # every image keeps the degree
            coeffs += sorted({x.coeffs for x in s3_orbit(s)})
    for _ in range(draw(st.integers(0, 2))):
        coeffs.append(draw(st.sampled_from(coeffs)))
    bits = draw(st.sampled_from((None, 62, 63, 64, 65, 126, 127, 128, 129,
                                 300)))
    if bits:
        coeffs.append(_sized(coeffs, bits, k=draw(st.integers(1, 4))))
    return coeffs, bits


@settings(max_examples=60, deadline=None)
@given(_mixed_sets(), st.sampled_from(([2], [2, 3], [2, 3, 5, 7])),
       st.booleans())
@example((list(_MIXED) + [_sized(list(_MIXED), 300)], 300), [2, 3], True)
def test_packed_masks_equal_pairwise(mixed, primes, force):
    """The lane masks equal the pairwise graph on sets of mixed degree with
    open orbits and repeated vertices (a zero resultant is no edge); with
    the {2,3}-smooth numbers up to 2^300 (about 28,000) too many to list,
    the set takes the strip path.  The lane path is forced only where the
    smooth numbers are few enough to list in a test: not over {2,3,5,7}
    with a sized vertex (1.3 million of them up to 2^129)."""
    coeffs, bits = mixed
    P = PrimeSet(primes)
    vs = _vertex_set(coeffs, P)
    heavy = bits == 300 or (bits and len(primes) > 2)
    g, lanes = _lanes_graph(vs, force=force and not heavy)
    assert g.lesser == build_graph_pairwise(vs).lesser
    _assert_one_adjacency(g)
    if bits == 300 and len(primes) > 1:
        assert not lanes
    elif force and not heavy:
        assert lanes


def test_tabulate_invariant_under_reorder(graph2, table2):
    rng = random.Random(40)
    vs = VertexSet(P2)
    shuffled = graph2.value.vertices[:]
    rng.shuffle(shuffled)
    # a VertexSet always re-sorts; force an exotic order via degree buckets
    by_deg = {}
    for v in shuffled:
        by_deg.setdefault(v.degree, []).append(v)
    for d, vsl in by_deg.items():
        vs.by_degree[d] = vsl          # unsorted on purpose
    g2 = build_graph(vs)
    t2 = tabulate(g2)
    assert t2.counts == table2.value.counts


def test_counting_equals_enumeration(graph2):
    t = tabulate(graph2.value)
    seen = {}
    stream = list(enumerate_cliques(graph2.value))
    assert stream[0] == () and len(set(stream)) == len(stream)
    for clique in stream:
        key = [0] * 4
        for idx in clique:
            key[graph2.value.degrees[idx] - 1] += 1
        seen[tuple(key)] = seen.get(tuple(key), 0) + 1
    assert seen == t.counts


def test_kappa_filter_counts(graph2, table2):
    for kappa in [(1, 1), (0, 2), (1, 3), (0, 0, 0, 2)]:
        t = tabulate(graph2.value, kappa=kappa)
        want = table2.value.count(tuple(kappa) + (0,) * (4 - len(kappa)))
        assert t.total() == want


def test_tabulate_kappa_longer_than_the_degrees(graph2):
    """A kappa longer than the largest vertex degree: zero parts past it
    name the same cell as the short kappa, and a nonzero one an empty cell,
    as enumerate_cliques finds."""
    g = graph2.value
    assert max(g.degrees) == 4
    for kappa in ((1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 0, 0, 0),
                  (0, 0, 0, 0, 1), (1, 0, 0, 0, 2)):
        found = list(enumerate_cliques(g, kappa=kappa))
        assert tabulate(g, kappa=kappa).counts == {kappa: len(found)}
        if any(kappa[4:]):
            assert not found
        else:
            short = kappa[:4]
            assert len(found) == tabulate(g, kappa=short).count(short)
    assert tabulate(g, kappa=(1, 0, 0, 0, 0)).count((1, 0, 0, 0, 0)) == 3


def _random_graph(rng):
    n = rng.randint(0, 14)
    density = rng.uniform(0.1, 0.9)
    degrees = [rng.randint(1, 4) for _ in range(n)]
    lesser = [sum(1 << j for j in range(i) if rng.random() < density)
              for i in range(n)]
    return graph_from_lesser(degrees, lesser, P2), density


def test_tabulate_against_oracle():
    """Full table, size caps 1-4 and every nonzero kappa cell agree with the
    subset-enumeration oracle on seeded random graphs."""
    densities, kappas = [], 0
    for seed in range(150):
        g, density = _random_graph(random.Random(seed))
        densities.append(density)
        lesser = g.lesser
        full = cliques_by_partition_naive(g.degrees, lesser)
        assert tabulate(g).counts == full
        for m in (1, 2, 3, 4):
            assert tabulate(g, max_size=m).counts == \
                cliques_by_partition_naive(g.degrees, lesser, max_size=m)
        for e, cnt in full.items():
            assert tabulate(g, kappa=e).counts == {e: cnt}
            kappas += 1
        # a partition larger than the graph is present with count 0
        too_big = (len(g.degrees) + 1,)
        f = len(next(iter(full)))
        assert tabulate(g, kappa=too_big).counts == {too_big + (0,) * (f - 1): 0}
    assert min(densities) < 0.2 and max(densities) > 0.8 and kappas > 1000


def _structured_graph(rng, kind):
    """A graph whose greedy colouring per degree is optimal, so the radix
    bound is tight: each degree class a disjoint union of cliques (with
    random or all edges between classes), or a complete multipartite graph
    with mixed degrees in its parts.  Vertices are shuffled."""
    if kind == "cliques":
        blocks = [(d, rng.randint(1, 4)) for d in (1, 2, 3)
                  for _ in range(rng.randint(1, 2))]
        verts = [(d, b) for b, (d, m) in enumerate(blocks) for _ in range(m)]
        # complete between classes: the largest clique meets every class
        cross = rng.choice((1.0, rng.uniform(0.3, 0.9)))

        def adjacent(x, y):
            if x[0] == y[0]:
                return x[1] == y[1]
            return rng.random() < cross
    else:
        parts = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        verts = [(rng.randint(1, 3), b) for b, m in enumerate(parts)
                 for _ in range(m)]

        def adjacent(x, y):
            return x[1] != y[1]
    rng.shuffle(verts)
    del verts[13:]            # small enough for the subset oracle
    degrees = [d for d, _ in verts]
    lesser = [sum(1 << j for j in range(i) if adjacent(verts[i], verts[j]))
              for i in range(len(verts))]
    return graph_from_lesser(degrees, lesser, P2)


def test_tabulate_structured_graphs_against_oracle():
    """Graphs where the colour bound on the radix is attained, every cap from
    0 to past the vertex count (so caps below the colour bound, between it
    and the neighborhood sizes, and above both), and every kappa cell,
    against the subset oracle; the graph itself is left as it was."""
    for seed in range(30):
        rng = random.Random(1000 + seed)
        g = _structured_graph(rng, ("cliques", "multipartite")[seed % 2])
        degrees, adj, lesser = list(g.degrees), list(g.adj), g.lesser
        full = cliques_by_partition_naive(degrees, lesser)
        assert tabulate(g).counts == full
        for m in range(len(degrees) + 2):
            assert tabulate(g, max_size=m).counts == \
                cliques_by_partition_naive(degrees, lesser, max_size=m)
        for e, cnt in full.items():
            assert tabulate(g, kappa=e).counts == {e: cnt}
        e = tuple(x + (d == 0) for d, x in enumerate(max(full)))
        assert tabulate(g, kappa=e).counts == {e: full.get(e, 0)}
        assert g.degrees == degrees and g.adj == adj


def test_tabulate_width_on_complete_graph():
    """Every subset of a complete graph is a clique, so each cell is a product
    of binomials.  2^72 cliques, with cells above 2^64, come out exactly."""
    sizes = {1: 64, 2: 5, 3: 3}
    degrees = [d for d, m in sizes.items() for _ in range(m)]
    random.Random(0).shuffle(degrees)
    n = len(degrees)
    g = graph_from_lesser(degrees, [(1 << i) - 1 for i in range(n)], P2)
    want = {(a, b, c): comb(64, a) * comb(5, b) * comb(3, c)
            for a in range(65) for b in range(6) for c in range(4)}
    t = tabulate(g)
    assert t.counts == want
    assert t.total() == 2 ** n and max(want.values()) > 2 ** 64
    capped = tabulate(g, max_size=40)
    assert capped.counts == {e: c for e, c in want.items() if sum(e) <= 40}


# the six permutations of the three marked points, in one fixed order
_S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def _s3_act(kind, p, x):
    """The permutation p on a point x of an orbit of the given kind."""
    if kind == "free":        # S3 on itself: stabilisers trivial
        return tuple(p[i] for i in x)
    if kind == "letters":     # on the three points: stabilisers of order 2
        return p[x]
    if kind == "sign":        # on {1, -1} by the sign: stabiliser A3
        inversions = sum(p[i] > p[j] for i, j in ((0, 1), (0, 2), (1, 2)))
        return -x if inversions % 2 else x
    return x                  # a fixed point: stabiliser S3


_S3_POINTS = {"free": _S3_PERMS, "letters": [0, 1, 2], "sign": [1, -1],
              "fixed": [0]}


def _s3_graph(rng):
    """A graph that S3 acts on by degree-preserving automorphisms, with its
    images recorded as build_graph records them.  The closed orbits are of
    every kind, with random invariant edges inside and between them; then
    one to three open vertices with arbitrary edges, the first a twin of a
    closed vertex (same neighbors, not adjacent to it), as build_graph leaves
    the earlier copy of a repeated vertex open.  Vertices are shuffled."""
    verts = []                # (orbit, kind, point)
    orbit = 0
    while True:
        kind = rng.choice(("free", "free", "letters", "letters", "sign",
                           "fixed"))
        if len(verts) + len(_S3_POINTS[kind]) > 11:
            break
        verts += [(orbit, kind, x) for x in _S3_POINTS[kind]]
        orbit += 1
    n_closed = len(verts)
    at = {v: i for i, v in enumerate(verts)}
    images = [tuple(at[(o, k, _s3_act(k, p, x))] for p in _S3_PERMS)
              for o, k, x in verts]
    deg_of = [rng.randint(1, 3) for _ in range(orbit)]
    degrees = [deg_of[o] for o, _, _ in verts]
    density = rng.uniform(0.2, 0.9)
    adj = set()
    decided = set()
    for a, b in combinations(range(n_closed), 2):
        if (a, b) not in decided:
            edge = rng.random() < density
            for j in range(6):
                pair = tuple(sorted((images[a][j], images[b][j])))
                decided.add(pair)
                if edge:
                    adj.add(pair)
    twin = rng.randrange(n_closed)
    for i in range(n_closed, n_closed + rng.randint(1, 3)):
        images.append((i,))
        if i == n_closed:
            degrees.append(degrees[twin])
            adj |= {(a + b - twin, i) for a, b in adj if twin in (a, b)}
        else:
            degrees.append(rng.randint(1, 3))
            adj |= {(j, i) for j in range(i) if rng.random() < density}
    n = len(degrees)
    new = list(range(n))
    rng.shuffle(new)
    lesser = [0] * n
    for a, b in adj:
        a, b = sorted((new[a], new[b]))
        lesser[b] |= 1 << a
    shuffled = [None] * n
    perm_deg = [0] * n
    for i in range(n):
        shuffled[new[i]] = tuple(new[j] for j in images[i])
        perm_deg[new[i]] = degrees[i]
    return graph_from_lesser(perm_deg, lesser, P2, images=shuffled)


def _orbit_head_count(g, cap):
    """The heads tabulate counts under a cap: one per open vertex and one per
    class, under all six maps, of the cliques W with |W| <= cap inside each
    closed orbit, found from every subset of the orbit."""
    heads = 0
    for v, im in enumerate(g.images):
        if cap < 1 or (len(im) > 1 and v != min(im)):
            continue
        orbit = sorted(set(im))
        classes = set()
        for k in range(1, min(cap, len(orbit)) + 1):
            for W in combinations(orbit, k):
                if all(g.adj[b] >> a & 1 for a, b in combinations(W, 2)):
                    classes.add(frozenset(
                        frozenset(g.images[w][j] for w in W)
                        for j in range(len(im))))
        heads += len(classes)
    return heads


def test_tabulate_orbit_heads_against_oracle():
    """On S3-invariant graphs with orbits of every kind, edges inside
    orbits and open vertices: the full table, every cap from 0 to past the
    vertex count and every kappa cell agree with the subset oracle, and
    with the same graph with every vertex open."""
    kinds, inner = set(), 0
    for seed in range(40):
        g = _s3_graph(random.Random(2000 + seed))
        plain = open_graph(g)
        kinds.update(len(set(im)) for im in g.images if len(im) == 6)
        inner += sum(g.adj[v] >> u & 1 for v, im in enumerate(g.images)
                     for u in im if u < v)
        lesser = g.lesser
        full = cliques_by_partition_naive(g.degrees, lesser)
        assert tabulate(g).counts == full
        for m in range(len(g.degrees) + 2):
            want = cliques_by_partition_naive(g.degrees, lesser, max_size=m)
            assert tabulate(g, max_size=m).counts == want
            assert tabulate(plain, max_size=m).counts == want
        for e, cnt in full.items():
            assert tabulate(g, kappa=e).counts == {e: cnt}
    assert kinds == {1, 2, 3, 6} and inner > 100


def _enumerations_agree(g, **kwargs):
    got = list(enumerate_cliques(g, **kwargs))
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(enumerate_cliques_unguided(g, **kwargs))


def test_enumerate_cliques_orbit_heads_against_oracle():
    """On the same S3-invariant graphs, as built and with every vertex open:
    every cap from 0 to past the vertex count and every kappa cell, alone
    and under a cap one short of it, yield the cliques of the unguided walk,
    each once, the empty one first when asked for."""
    for seed in range(40):
        g = _s3_graph(random.Random(2000 + seed))
        cells = cliques_by_partition_naive(g.degrees, g.lesser)
        for h in (g, open_graph(g)):
            for m in range(len(g.degrees) + 2):
                _enumerations_agree(h, max_size=m)
            for e in cells:
                _enumerations_agree(h, kappa=e)
                _enumerations_agree(h, kappa=e, max_size=max(sum(e) - 1, 0))
        assert list(enumerate_cliques(g, max_size=0)) == [()]
        assert next(enumerate_cliques(g)) == ()


class _CountingBudget(Budget):
    calls = 0

    def check(self):
        self.calls += 1


def test_tabulate_checks_budget_once_per_head(graph23, graph235):
    """One budget check per counted head: per open vertex, and per class of
    cliques inside a closed orbit (so a canonical form under part of the
    group, which still counts right, shows here)."""
    for seed in range(20):
        g = _s3_graph(random.Random(3000 + seed))
        for cap in (0, 1, 2, 3, None):
            want = _orbit_head_count(g, len(g.degrees) if cap is None else cap)
            with _CountingBudget() as budget:
                tabulate(g, max_size=cap)
            assert budget.calls == want
            with _CountingBudget() as budget:
                list(enumerate_cliques(g, max_size=cap))
            assert budget.calls == want
    for g, heads in ((graph23.value, 438), (graph235.value, 564)):
        with _CountingBudget() as budget:
            tabulate(g)
        assert budget.calls == heads == _orbit_head_count(g, len(g.degrees))
        plain = open_graph(g)
        with _CountingBudget() as budget:
            tabulate(plain, max_size=2)
        assert budget.calls == len(g.degrees)


def test_images_none_matches_recorded_images(graph2, graph23, graph235,
                                             graph2357, table2, table23,
                                             table235, table2357):
    """On the four reference graphs the plain kernel (no symmetry) gives the
    same full table, max_size rows 2-6, kappa cells and U count as the orbit
    heads."""
    rng = random.Random(5)
    for g, table in ((graph2, table2), (graph23, table23),
                     (graph235, table235), (graph2357, table2357)):
        g, table = g.value, table.value
        plain = open_graph(g)
        assert tabulate(plain).counts == table.counts
        for m in range(2, 7):
            assert tabulate(plain, max_size=m).counts \
                == tabulate(g, max_size=m).counts
        for e in rng.sample(sorted(table.counts), 2):
            assert tabulate(plain, kappa=e).counts \
                == tabulate(g, kappa=e).counts == {e: table.counts[e]}
        assert count_u_nu(plain, (2, 1, 1, 1)) == count_u_nu(g, (2, 1, 1, 1))


def test_build_graph_images_are_automorphisms(graph2, graph23, graph235,
                                              graph2357):
    """The build_graph lemma as tabulate uses it: on the closed vertices
    each of the six recorded maps keeps the vertex degree and maps the
    closed neighbors of v onto those of its image."""
    for g in (graph2.value, graph23.value, graph235.value, graph2357.value):
        n = len(g.degrees)
        closed = [v for v in range(n) if len(g.images[v]) == 6]
        assert len(closed) > n // 2
        mask = sum(1 << v for v in closed)
        nbrs = {}             # closed neighbors
        for v in closed:
            bits = reversed(bin(g.adj[v] & mask)[2:])
            nbrs[v] = [u for u, bit in enumerate(bits) if bit == "1"]
        for j in range(6):
            sigma = {v: g.images[v][j] for v in closed}
            assert sorted(sigma.values()) == closed
            for v in closed:
                assert g.degrees[sigma[v]] == g.degrees[v]
                image = sum(1 << sigma[u] for u in nbrs[v])
                assert image == g.adj[sigma[v]] & mask


def test_build_graph_images_follow_s3_elements(graph23, graph235):
    """A closed vertex's recorded images are its polynomial's images under
    the elements of S3_ELEMENTS, in that order."""
    names = list(S3_ELEMENTS)
    for g in (graph23.value, graph235.value):
        closed = [i for i, im in enumerate(g.images) if len(im) == 6]
        assert len(closed) > len(g.images) // 2
        for i in closed:
            v = g.vertices[i].poly
            for j, name in enumerate(names):
                assert g.vertices[g.images[i][j]].poly == s3_transform(v, name)


def test_compat_graph_pickle_keeps_images(graph23):
    g = graph23.value
    back = pickle.loads(pickle.dumps(g))
    assert back.images == g.images and back.adj == g.adj
    assert back.degrees == g.degrees and back.vertices == g.vertices
    assert back.P == g.P
    assert tabulate(back, max_size=3).counts == tabulate(g, max_size=3).counts


def test_degree1_table_235711(search_iii_235711, graph235711):
    """The certified degree-1 row over {2,3,5,7,11} (de Weger's cutoff
    18255): points, edges and triangles against brute force, the top cell
    against the packet mass identity, and the plain kernel at max_size 5."""
    P = [2, 3, 5, 7, 11]
    points, cert = search_iii_235711.value
    g = graph235711.value
    assert cert.complete and len(points) == 1137
    assert max(pt.height for pt in points) < cert.height_bound
    us = abc_brute_force(P, "iii", cert.height_bound)
    assert us == {pt.u for pt in points}
    assert split_graph_counts_naive(us, P) == (60120, 763600)
    table = tabulate(g)
    row = [table.count((a,)) for a in range(12)]
    assert row == [1, 1137, 60120, 763600, 3947160, 10503024, 16305996,
                   15832260, 9900495, 3942675, 927498, 101010]
    assert table.total() == sum(row) == 62284976
    assert g.edge_count() == 60120
    uvals = [Fraction(-v.poly.coeffs[0], v.poly.coeffs[1]) for v in g.vertices]
    top = list(enumerate_cliques(g, kappa=(11,)))
    packets, mass = pgl2_packets(top, roots=[[uvals[i] for i in c]
                                             for c in top])
    assert len(packets) == 63 and mass == Fraction(185, 4)
    assert row[11] == len(top) == mass * 14 * 13 * 12
    plain = open_graph(g)
    assert tabulate(plain, max_size=5).counts \
        == tabulate(g, max_size=5).counts == {
            e: c for e, c in table.counts.items() if sum(e) <= 5}


def test_serial_tabulate_and_unu_honour_budget(graph235):
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        tabulate(graph235.value)
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        count_u_nu(graph235.value, (2, 1, 1, 1))


def test_enumeration_limit_refusal(graph2):
    with pytest.raises(BudgetExceededError):
        list(enumerate_cliques(graph2.value, limit=5))
    # a stream of exactly limit cliques is not refused
    assert len(list(enumerate_cliques(graph2.value, limit=1510))) == 1510
    with pytest.raises(BudgetExceededError):
        list(enumerate_cliques(graph2.value, limit=1509))


def test_enumerate_cliques_polls_budget_per_head(graph2357):
    g = graph2357.value
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        list(enumerate_cliques(g, kappa=(9,)))
    with _CountingBudget() as budget:
        assert sum(1 for _ in enumerate_cliques(g, kappa=(9,))) == 7425
    assert budget.calls == _orbit_head_count(g, 9) < len(g.vertices)


def test_build_graph_honours_budget(vs2357):
    vs = vs2357.value
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        build_graph(vs)
    build_graph(vs)           # derives and caches the resultant forms
    with _CountingBudget() as budget:
        build_graph(vs)
    orbits = {s3_orbit(v.poly) for v in vs.all_vertices()}
    # one check per representative, after one per prime of P while the
    # smooth numbers up to the resultant bound are listed (fewer than 2^16
    # of them here, so no check inside a pass); a form derived afresh would
    # add one per minor
    heads = budget.calls - len(vs.P)
    assert 1 <= heads <= len(orbits) < len(vs.all_vertices())


def test_enumerate_cliques_pruned_matches_unguided(graph2357, graph23):
    g = graph2357.value
    want = sorted(enumerate_cliques_unguided(g, kappa=(9,)))
    assert len(want) == 7425
    assert sorted(enumerate_cliques(g, kappa=(9,))) == want
    g = graph23.value
    for kappa in ((2, 1, 1), (1, 0, 2), (0, 2, 1), (3, 1), (4, 1, 1)):
        assert sorted(enumerate_cliques(g, kappa=kappa)) \
            == sorted(enumerate_cliques_unguided(g, kappa=kappa))
    assert list(enumerate_cliques(g, kappa=(1, 1, 1), max_size=2)) == []
    with pytest.raises(ValueError, match="negative"):
        list(enumerate_cliques(g, kappa=(2, -1, 1)))


def test_tabulate_workers_honour_budget(graph2):
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        tabulate(graph2.value, workers=2)


def test_tabulate_worker_determinism(graph2):
    t1 = tabulate(graph2.value, workers=1)
    t4 = tabulate(graph2.value, workers=4)
    t16 = tabulate(graph2.value, workers=16)
    assert t1.counts == t4.counts == t16.counts


def test_count_u_nu_examples(graph2):
    assert count_u_nu(graph2.value, (2, 1, 1, 1)) == 15
    # 1^(k+3): k! times the count of split k-sets; over {2} only k <= 1 exist
    assert count_u_nu(graph2.value, (1, 1, 1, 1)) == 3
    assert count_u_nu(graph2.value, (1, 1, 1, 1, 1)) == 0
    assert count_u_nu(graph2.value, (1, 1, 1)) == 1
    with pytest.raises(ValueError):
        count_u_nu(graph2.value, (2, 1, 1))


def test_count_u_nu_ordered_blocks(graph2):
    # two degree-2 slots count ordered pairs of distinct compatible quadratics
    n22 = count_u_nu(graph2.value, (2, 2, 1, 1, 1))
    t = tabulate(graph2.value)
    want = 2 * t.count((0, 2, 0, 0)) + 2 * t.count((2, 1, 0, 0)) \
        + 6 * t.count((4, 0, 0, 0))
    assert n22 == want


def test_ordered_partition_count_against_dealing_items():
    """Against dealing labelled items to the blocks one assignment at a
    time: every degree multiset of at most six items into one to four
    blocks, the block sums a random composition of the degree sum, or
    off by one."""
    rng = random.Random(16)
    nonzero = 0
    for expts in product(range(3), repeat=3):
        items = [d + 1 for d, e in enumerate(expts) for _ in range(e)]
        for _ in range(3):
            k = rng.randint(1, 4)
            cuts = sorted(rng.randint(0, sum(items)) for _ in range(k - 1))
            blocks = [b - a for a, b in zip([0] + cuts, cuts + [sum(items)])]
            blocks[-1] += rng.choice((0, 0, 0, 1))
            want = sum(
                all(sum(d for d, b in zip(items, deal) if b == i) == need
                    for i, need in enumerate(blocks))
                for deal in product(range(k), repeat=len(items)))
            assert cliques._ordered_partition_count(expts, tuple(blocks)) \
                == want
            nonzero += want > 0
    assert nonzero > 20


def test_packets_linear_P2(graph2):
    polys = [v.poly for v in graph2.value.vertices if v.degree == 1]
    packets, mass = pgl2_packets(polys, roots=split_roots(polys))
    assert len(packets) == 1
    assert packets[0].stabilizer_order == 8
    assert packets[0].stabilizer_label == "D4"
    assert mass == Fraction(3, 24)


def test_mass_identity_1squared(graph2357):
    g = graph2357.value
    uvals = [Fraction(-v.poly.coeffs[0], v.poly.coeffs[1]) for v in g.vertices]
    cl2 = list(enumerate_cliques(g, kappa=(2,)))
    assert len(cl2) == 9900
    roots = [[uvals[i] for i in c] for c in cl2]
    polys = [from_roots(rr) for rr in roots]
    packets, mass = pgl2_packets(polys, roots=roots)
    assert mass == Fraction(len(polys), 5 * 4 * 3)
    assert sum(5 * 4 * 3 // p.stabilizer_order for p in packets) == len(polys)


def _split_cliques(g, a):
    """Polynomials and root lists of the kappa = (a,) cliques of g."""
    roots = [[Fraction(-g.vertices[i].poly.coeffs[0],
                       g.vertices[i].poly.coeffs[1]) for i in c]
             for c in enumerate_cliques(g, kappa=(a,))]
    return [from_roots(rr) for rr in roots], roots


def _packet_rows(packets):
    return [(p.members, p.stabilizer_order, p.stabilizer_label)
            for p in packets]


def _closed_orbit(roots):
    """Root lists of every image of roots + {0, 1, inf} under the maps
    sending its ordered triples to (0, 1, inf), in oracle arithmetic: one
    packet, closed under those maps."""
    key = {Fraction(r) for r in roots} | {Fraction(0), Fraction(1), INF}
    out = set()
    for p, q, r in permutations(key, 3):
        mat = triple_to_matrix(p, q, r)
        out.add(frozenset(mobius_on_point(mat, x) for x in key) - {0, 1, INF})
    return [sorted(s) for s in sorted(out, key=sorted)]


def _anharmonic(x):
    """x and its images under the six maps permuting 0, 1, inf."""
    x = Fraction(x)
    return [x, 1 - x, 1 / x, 1 / (1 - x), (x - 1) / x, x / (x - 1)]


def test_packets_match_fraction_oracle(graph2, graph23, graph235):
    cells = [_split_cliques(g, a)
             for g, sizes in ((graph2.value, (1,)), (graph23.value, (1, 2, 3)),
                              (graph235.value, (2, 3, 5)))
             for a in sizes]
    # single packets with a stabilizer S3, at small and large heights, and
    # with a trivial one
    for roots in (_anharmonic(3), _anharmonic(Fraction(-2 ** 64 - 1, 3)),
                  [Fraction(-7, 5), 2 ** 70]):
        roots = _closed_orbit(roots)
        cells.append(([from_roots(rr) for rr in roots], roots))
    # the same point as an int in some root lists and a Fraction in others:
    # one point, so one id
    roots = [[int(x) if k % 2 and x.denominator == 1 else x for x in rr]
             for k, rr in enumerate(_closed_orbit([Fraction(-7, 5), 2, 9]))]
    assert {x for rr in roots for x in rr if type(x) is int} \
        & {x for rr in roots for x in rr if type(x) is Fraction}
    cells.append(([from_roots(rr) for rr in roots], roots))
    labels = set()
    for polys, roots in cells:
        assert polys
        a = len(roots[0])
        packets, mass = pgl2_packets(polys, roots=roots)
        want, want_mass = pgl2_packets_fraction(polys, roots)
        assert _packet_rows(packets) == _packet_rows(want)
        assert mass == want_mass == Fraction(len(polys),
                                             (a + 3) * (a + 2) * (a + 1))
        labels.update(p.stabilizer_label for p in packets)
    assert {"C1", "C2", "V", "S3", "D4", "D6"} <= labels


def test_packets_peak_memory(graph2357):
    """The tracemalloc peak of pgl2_packets on the 7425 split nonics over
    {2,3,5,7} (the input of test_c13_packets), above its inputs: about
    1.7 MB with keys of interned point ids, 6.7 MB with frozensets of
    point pairs as keys."""
    polys, roots = _split_cliques(graph2357.value, 9)
    assert len(polys) == 7425
    gc.collect()
    tracemalloc.start()
    try:
        packets, mass = pgl2_packets(polys, roots=roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(packets) == 13 and mass == Fraction(45, 8)
    assert peak < 3.5 * 10 ** 6


def test_triple_map_matches_mobius_oracle():
    rng = random.Random(3)

    def point():
        if rng.random() < 0.15:
            return INF
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    def pair(x):
        return (1, 0) if x == INF else (x.numerator, x.denominator)

    def unpair(x):
        return INF if x == (1, 0) else Fraction(*x)

    for _ in range(2000):
        p, q, r, x = (point() for _ in range(4))
        if len({p, q, r}) < 3:
            continue
        mat = _triple_to_matrix(pair(p), pair(q), pair(r))
        want = triple_to_matrix(p, q, r)
        assert mat_mul(mat, IDENT) == mat_mul(want, IDENT)
        a, b, c, d = mat
        x0, x1 = pair(x)
        got = projective_point(a * x0 + b * x1, c * x0 + d * x1)
        assert unpair(got) == mobius_on_point(want, x)


def test_s3_images_match_mobius_oracle():
    # x, 1 - x, 1/x, x/(x - 1), 1/(1 - x), (x - 1)/x: S3_ELEMENTS order; a
    # point's image outside the set gets len(ids), an id no point has
    mats = [S3_MATS[g] for g in S3_ELEMENTS]
    rng = random.Random(11)

    def pair(x):
        return (1, 0) if x == INF else (x.numerator, x.denominator)

    for _ in range(300):
        top = 2 ** rng.choice((4, 20, 64, 130))
        pts = [Fraction(0), Fraction(1), INF]
        size = rng.randint(3, 12)
        while len(pts) < size:
            x = Fraction(rng.randint(-top, top), rng.randint(1, top))
            if x not in pts:
                pts.append(x)
        if rng.random() < 0.5:      # some sets closed under S3
            pts = list(dict.fromkeys(
                pts[:3] + [y for x in pts[3:] for y in _anharmonic(x)]))
        ids = {pair(x): i for i, x in enumerate(pts)}
        got = _s3_moves(ids)
        want = [[ids.get(pair(mobius_on_point(m, x)), len(ids)) for x in pts]
                for m in mats]
        assert got == want


def test_packets_reject_malformed_input(graph2):
    polys = [v.poly for v in graph2.value.vertices if v.degree == 1]
    roots = [[Fraction(-s.coeffs[0], s.coeffs[1])] for s in polys]
    with pytest.raises(ValueError, match="no polynomials"):
        pgl2_packets([], roots=[])
    with pytest.raises(ValueError, match="duplicate"):
        pgl2_packets(polys + polys[:1], roots=roots + roots[:1])
    with pytest.raises(ValueError, match="root lists for"):
        pgl2_packets(polys, roots=roots[:-1])
    with pytest.raises(ValueError, match="same number of roots"):
        pgl2_packets(polys, roots=roots[:-1] + [[Fraction(3), Fraction(4)]])
    with pytest.raises(ValueError, match="marked points"):
        pgl2_packets(polys, roots=roots[:-1] + [[Fraction(1)]])
    # a repeated root
    double = from_roots([Fraction(2), Fraction(2), Fraction(3)])
    with pytest.raises(ValueError, match="separable"):
        pgl2_packets([double], roots=[[2, 2, 3]])


def test_packets_input_that_leaves_the_set_raises(graph2, graph23):
    # a closed kappa set with one clique removed: the images of the others
    # reach the missing one, by a triple map or by an S3 move; the check must
    # survive python -O
    for g, a, drops in ((graph2.value, 1, range(3)),
                        (graph23.value, 3, range(0, 40, 7))):
        polys, roots = _split_cliques(g, a)
        for k in drops:
            with pytest.raises(AssertionError, match="leaves the input set"):
                pgl2_packets(polys[:k] + polys[k + 1:],
                             roots=roots[:k] + roots[k + 1:])


def test_packets_refuse_an_exhausted_budget(graph2):
    polys = [v.poly for v in graph2.value.vertices if v.degree == 1]
    roots = split_roots(polys)
    with pytest.raises(BudgetExceededError), Budget(seconds=0):
        pgl2_packets(polys, roots=roots)


def test_packets_mass_check_is_not_an_assert(graph2, monkeypatch):
    # the mass identity follows from closure and orbit-stabilizer, so only a
    # miscounted stabilizer can break it; the check must survive python -O
    class Miscounted(Packet):
        def __init__(self, members, stabilizer_order, stabilizer_label):
            super().__init__(members, 2 * stabilizer_order, stabilizer_label)

    monkeypatch.setattr(cliques, "Packet", Miscounted)
    polys = [v.poly for v in graph2.value.vertices if v.degree == 1]
    with pytest.raises(AssertionError, match="packet mass"):
        pgl2_packets(polys, roots=split_roots(polys))
