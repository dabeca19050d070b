import hashlib
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polytab import vertices
from polytab.abc_search import (
    AbcPoint,
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    _square_class,
    cubic_classes,
    delta_classes,
    reference_cubic,
    reference_cubic_partition,
    roots_of_F,
    search_abc,
)
from polytab.budget import Budget, BudgetExceededError
from polytab.cliques import PartitionTable, pgl2_packets
from polytab.generators import builtin_covers, cyclo_series, verify_named
from polytab.poly import (
    NormalizedPoly,
    _one_minus,
    _primitive,
    check_membership,
    is_irreducible,
    normalize,
    s3_orbit,
    special_values,
)
from polytab.records import Frozen
from polytab.smooth import PrimeSet, is_smooth
from polytab.vertices import (
    TABLE5_REPRESENTATIVES,
    IngestReport,
    Vertex,
    VertexSet,
    build_degree1,
    build_degree2,
    build_degree3,
    build_vertex_set,
    ingest_units,
    parse_candidate_file,
    read_vertex_set,
    write_vertex_set,
)
from polytab.vertices import _smn_coeffs

from oracles import (
    INF,
    build_degree2_fraction,
    cross_validate,
    f_resolvent_fraction,
    poly_height,
    recovered_w_triple,
    smn_coeffs_fraction,
    split_roots,
    squarefree_class,
    squarefree_part,
)

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])
P2357 = PrimeSet([2, 3, 5, 7])


def test_smn_coeffs_match_fraction_oracle():
    """The homogeneous integer s^{m,n}, made primitive, is the normalized
    Fraction cubic, with m or n at infinity too."""
    rng = random.Random(31)
    seen = {"m = inf": 0, "n = inf": 0, "non-unit denominators": 0}
    cases = 0
    while cases < 2500:
        j = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
        m, n = (INF if rng.random() < 0.1
                else Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                for _ in "mn")
        if j in (0, 1) or m == n:
            continue
        cases += 1
        m_pt, n_pt = ((1, 0) if x == INF else (x.numerator, x.denominator)
                      for x in (m, n))
        got = _smn_coeffs(j.numerator, j.denominator, m_pt, n_pt)
        assert NormalizedPoly(_primitive(got)) == \
            normalize(smn_coeffs_fraction(j, m, n))[0]
        seen["m = inf"] += m == INF
        seen["n = inf"] += n == INF
        seen["non-unit denominators"] += min(j.denominator, m_pt[1] or 2,
                                             n_pt[1] or 2) > 1
    assert min(seen.values()) >= 200, seen


def test_build_degree1_orbit():
    points, _ = search_abc(P2, VARIANT_III, 100)
    verts = build_degree1(points, P2)
    assert {v.poly.coeffs for v in verts} == {(1, 1), (-1, 2), (-2, 1)}
    assert build_degree1([], P2) == []


def test_build_degree1_count_2357(search_iii_2357, vs2357):
    points, cert = search_iii_2357.value
    assert len(points) == 375 and cert.complete
    assert len(vs2357.value.degree_slice(1)) == 375


def test_degree2_15_for_P2(vs2):
    assert len(vs2.value.degree_slice(2)) == 15


def test_degree2_235_totals(vs235):
    vs = vs235.value
    assert len(vs.degree_slice(2)) == 1927
    assert len(vs.split_degree2) == 1020


@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5)])
def test_degree2_matches_fraction_oracle(primes, search_i2i_235):
    """The integer-pair build gives the Fraction build's vertices (with
    their classes), split polynomials and stats over inf-2-inf at 1e9."""
    P = PrimeSet(primes)
    points = (search_i2i_235.value[0] if primes == (2, 3, 5)
              else search_abc(P, VARIANT_I2I, 10 ** 9)[0])
    verts, split, stats = build_degree2(P, points)
    want_verts, want_split, want_stats = build_degree2_fraction(P, points)
    assert [(v.poly, v.class_datum, v.provenance) for v in verts] == \
        [(v.poly, v.class_datum, v.provenance) for v in want_verts]
    assert split == want_split and want_stats["discarded"] == 0
    assert stats == {"triples": want_stats["triples"]}
    assert stats["triples"] >= len(verts) > 0


@pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), (2, 3, 5, 7)])
def test_degree2_members_by_lemma(primes, monkeypatch, search_i2i_235,
                                  search_i2i_2357):
    """build_degree2 tests no quadratic for membership, as its lemma proves
    every triple's quadratic a member; each vertex and split polynomial it
    returns passes check_membership all the same."""
    P = PrimeSet(primes)
    searched = {(2, 3, 5): search_i2i_235, (2, 3, 5, 7): search_i2i_2357}
    points = (searched[primes].value[0] if primes in searched
              else search_abc(P, VARIANT_I2I, 10 ** 9)[0])
    calls = []
    with monkeypatch.context() as m:
        m.setattr(vertices, "check_membership",
                  lambda *args: calls.append(args))
        verts, split, stats = build_degree2(P, points)
    assert not calls and stats["triples"] >= len(verts) > 0
    for s in [v.poly for v in verts] + split:
        assert check_membership(s, P).ok, s


def test_degree2_unsupported_without_2():
    vs = build_vertex_set(PrimeSet([3, 5]), 2)
    assert vs.certificates[2] == "unsupported: 2 not in prime set"
    assert vs.counts() == {1: 0, 2: 0}


def test_degree2_height_3125_orbits(vs235):
    vs = vs235.value
    allp = [v.poly for v in vs.degree_slice(2)] + list(vs.split_degree2)
    want = {(-2187, -810, 3125), (-27, -1050, 3125), (-3, -50, 3125)}
    have = {s.coeffs for s in allp}
    assert want <= have
    seen = set()
    orbit_heights = []
    for s in allp:
        if s.coeffs in seen:
            continue
        orbit = s3_orbit(s)
        seen |= {t.coeffs for t in orbit}
        orbit_heights.append(max(poly_height(t) for t in orbit))
    orbit_heights.sort(reverse=True)
    assert orbit_heights[:3] == [3125, 3125, 3125]
    assert orbit_heights[3] < 3125


def test_degree2_w_triple_invariants(vs235):
    rng = random.Random(30)
    verts = vs235.value.degree_slice(2)
    for v in rng.sample(verts, 60):
        w0, w1, winf = recovered_w_triple(v.poly)
        lhs = (w1 - w0 - winf) ** 2 - 4 * w0 * winf
        assert lhs == -4 * w0 * w1 * winf
        # all three class invariants agree with the stored delta
        for w in (w0, w1, winf):
            if w != 1:
                assert squarefree_class(w * (1 - w)) == v.class_datum


def test_degree2_delta_matches_disc(vs235):
    # the stored class equals the square class of minus the discriminant
    for v in vs235.value.degree_slice(2):
        assert squarefree_class(Fraction(-v.poly.discriminant())) == v.class_datum


def test_degree3_class_decomposition(vs23):
    verts = vs23.value.degree_slice(3)
    assert len(verts) == 1498
    from collections import Counter

    per_class = Counter(v.class_datum for v in verts)
    assert sorted(per_class.values()) == sorted(
        [396, 6, 6, 180, 96, 102, 264, 100, 348])


def test_degree3_orbit_000_minus24(vs23):
    got = {v.poly.coeffs for v in vs23.value.degree_slice(3)}
    orbit = {
        (2, -6, 6, 1), (-3, 9, -9, 1),       # the two grid survivors
        (-3, 0, 0, 2), (1, 6, -6, 2),        # 2t^3-3, 2t^3-6t^2+6t+1
        (-2, 0, 0, 3), (-1, 9, -9, 3),       # 3t^3-2, 3t^3-9t^2+9t-1
    }
    assert orbit <= got


def test_degree3_candidates_23(search_32i_23):
    """One candidate per unordered root pair: the {2,3} build at 1e11 tests
    2,045 candidates, rejects 1,336 and keeps 1,498 vertices in classes of
    the same sizes."""
    points, _ = search_32i_23.value
    classes = cubic_classes(points, P23)
    assert sorted(len(m) for m in classes.values()) == \
        [1, 1, 3, 4, 6, 9, 9, 10, 11]
    stats = {}
    verts = build_degree3(P23, classes, stats)
    assert stats == {"candidates": 2045, "rejected": 1336}
    assert len(verts) == 1498
    assert {v.class_datum for v in verts} == {f"cubic:{rep}" for rep in classes}


ROOTS = st.one_of(st.just((1, 0)),
                  st.tuples(st.integers(-10 ** 6, 10 ** 6),
                            st.integers(-10 ** 6, 10 ** 6)))


@settings(max_examples=400, deadline=None)
@given(a=st.integers(-10 ** 9, 10 ** 9), b=st.integers(1, 10 ** 9),
       m=ROOTS, n=ROOTS)
@example(a=-24, b=1, m=(1, 0), n=(1, 6))
@example(a=4, b=3, m=(3, 8), n=(1, 0))
def test_smn_swap_is_one_minus(a, b, m, n):
    """Swap lemma: s^{n,m}(t) = s^{m,n}(1 - t), exactly on the integer
    coefficients, with m or n at infinity too."""
    assert _one_minus(_smn_coeffs(a, b, m, n)) == _smn_coeffs(a, b, n, m)


def test_resolvent_roots_of_a_j_are_disjoint(search_32i_23):
    """No-repeat lemma on {2,3}: for each j of a class, the roots of F(j, k)
    for k = 0 and every k in the class are pairwise disjoint lists."""
    points, _ = search_32i_23.value
    for members in cubic_classes(points, P23).values():
        js = [pt.u for pt in members]
        for j in js:
            roots = [r for k in [0] + js for r in roots_of_F(j, k)]
            assert len(set(roots)) == len(roots), j


def test_resolvent_parts_resultant():
    """F = k G^2 - j H^3, and Res_y(G, H) = 16 j (j - 1)^3 (sympy, a
    test-only check): a root shared by two k is a root of G and H."""
    sympy = pytest.importorskip("sympy")
    j, k, y = sympy.symbols("j k y")
    G = j ** 2 * y ** 3 - 2 * j * y ** 3 + 3 * j * y ** 2 - 3 * j * y + 1
    H = j * y ** 2 - 2 * y + 1
    F = sum(c * y ** i for i, c in enumerate(f_resolvent_fraction(j, k)))
    assert sympy.expand(F - (k * G ** 2 - j * H ** 3)) == 0
    assert sympy.factor(sympy.resultant(G, H, y)) == \
        sympy.factor(16 * j * (j - 1) ** 3)


def test_square_classes_from_exponents(search_i2i_235, search_i2i_2357,
                                       search_32i_23, search_32i_235):
    """The P-exponent square class equals trial division on the A B of
    every inf-2-inf point and on the reference-cubic discriminant of every
    3-2-inf point, over the bench and conditional point sets."""
    for P, search in ((P235, search_i2i_235), (P2357, search_i2i_2357)):
        for pt in search.value[0]:
            assert _square_class(pt.A * pt.B, P) == \
                squarefree_part(pt.A * pt.B)
    for P, search in ((P23, search_32i_23), (P235, search_32i_235)):
        for pt in search.value[0]:
            disc = reference_cubic(pt.u).discriminant()
            assert _square_class(disc, P) == squarefree_part(disc)


def test_square_class_refuses_non_members(search_i2i_235, search_32i_235):
    """A rough part that is not a square is a ValueError, whether the number
    or the prime set is wrong."""
    with pytest.raises(ValueError):
        _square_class(7, P23)
    assert _square_class(7 * 36, PrimeSet([2, 3, 7])) == 7
    i2i = next(pt for pt in search_i2i_235.value[0] if pt.class_datum % 5 == 0)
    with pytest.raises(ValueError):
        delta_classes([i2i], P23)
    cubic = next(pt for pt in search_32i_235.value[0] if pt.class_datum == "3"
                 and _square_class(reference_cubic(pt.u).discriminant(),
                                   P235) % 5 == 0)
    with pytest.raises(ValueError):
        cubic_classes([cubic], P23)


def test_cubic_classes_leave_out_reducible_cubics(search_32i_23):
    points, _ = search_32i_23.value
    irr = [pt for pt in points if reference_cubic_partition(pt.u) == (3,)]
    assert (len(points), len(irr)) == (81, 54)
    assert cubic_classes(points, P23) == cubic_classes(irr, P23)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_conditional_vertex_set_235_degree3(tmp_path, search_i2i_235,
                                            search_32i_235):
    """{2,3,5} to degree 3, with the 3-2-inf points at 1e9: a conditional
    set, since no source certifies that search."""
    points, cert = search_32i_235.value
    assert len(points) == 393 and not cert.complete
    assert Counter(pt.class_datum for pt in points) == \
        {"3": 268, "21": 111, "111": 14}
    vs = build_vertex_set(P235, 3, points_by_variant={
        VARIANT_I2I: search_i2i_235.value, VARIANT_32I: (points, cert)})
    assert vs.counts() == {1: 99, 2: 1927, 3: 17662}
    assert len(vs.split_degree2) == 1020
    assert vs.certificates[3] == "search-bounded"
    write_vertex_set(tmp_path / "v.json", vs)
    assert _sha256(tmp_path / "v.json") == \
        "547ba3b749abcbfbebf6e7c8c46e0ec14edcac4c73c51d46c011eef7857c73f6"


def test_conditional_vertex_set_2357_degree2(tmp_path, search_iii_2357,
                                             search_i2i_2357):
    """{2,3,5,7} to degree 2, with the inf-2-inf points at 1e9: a
    conditional set, since no source certifies that search."""
    points, cert = search_i2i_2357.value
    assert len(points) == 775 and not cert.complete
    vs = build_vertex_set(P2357, 2, points_by_variant={
        VARIANT_III: search_iii_2357.value, VARIANT_I2I: (points, cert)})
    assert vs.counts() == {1: 375, 2: 14599}
    assert len(vs.split_degree2) == 9900
    assert vs.certificates[2] == "search-bounded"
    write_vertex_set(tmp_path / "v.json", vs)
    assert _sha256(tmp_path / "v.json") == \
        "685bdcfce73e2ea5278581973a7a02dd33f7a1c764fec744b8e1d8535f8e86c1"


def test_degree3_ignores_point_labels(tmp_path, search_32i_23, vs23):
    """Labels on 3-2-inf points are never trusted: with a wrong one on every
    point, the {2,3} degree <= 3 vertex file is byte for byte the same."""
    points, cert = search_32i_23.value
    wrong = [AbcPoint(pt.variant, pt.A, pt.B, pt.C, pt.u, "cubic:1/1")
             for pt in points]
    vs = build_vertex_set(P23, 3, points_by_variant={VARIANT_32I: (wrong, cert)})
    write_vertex_set(tmp_path / "want.json", vs23.value)
    write_vertex_set(tmp_path / "got.json", vs)
    assert (tmp_path / "got.json").read_bytes() == \
        (tmp_path / "want.json").read_bytes()


def test_repeated_points_are_refused(search_32i_23):
    """A point listed twice is a ValueError for every variant, not a second
    root list in the degree-3 build (there, a zero polynomial)."""
    points, cert = search_32i_23.value
    cases = [(VARIANT_32I, 3, (points + points[:1], cert))]
    for variant, degree in ((VARIANT_III, 1), (VARIANT_I2I, 2)):
        pts, c = search_abc(P23, variant, 10 ** 3)
        cases.append((variant, degree, (pts + pts[-1:], c)))
    for variant, degree, given in cases:
        with pytest.raises(ValueError, match="listed twice"):
            build_vertex_set(P23, degree, points_by_variant={variant: given})


def test_orbit_closure_failure_raises(monkeypatch):
    """build_degree3 and ingest_units share one orbit closure; an orbit that
    leaves the members raises AssertionError, which python -O keeps."""
    classes = {"-24/1": [pt for pt in search_abc(P23, VARIANT_32I, 100)[0]
                         if pt.u == -24]}
    assert build_degree3(P23, classes) and ingest_units([(1, 1)], P2)[0]
    # t^2 + 4 has s(1) = 5: no member over {2} or {2, 3}
    monkeypatch.setattr(vertices, "s3_orbit",
                        lambda s: frozenset({s, NormalizedPoly((4, 0, 1))}))
    with pytest.raises(AssertionError, match="orbit closure"):
        build_degree3(P23, classes)
    with pytest.raises(AssertionError, match="orbit closure"):
        ingest_units([(1, 1)], P2)


def test_vertex_invariants_sampled(vs23):
    rng = random.Random(31)
    verts = vs23.value.degree_slice(3)
    for v in rng.sample(verts, 40):
        assert is_irreducible(v.poly)
        assert check_membership(v.poly, P23).ok
        orbit = s3_orbit(v.poly)
        assert len(orbit) in (1, 2, 3, 6)
        assert {t.coeffs for t in orbit} <= {w.poly.coeffs for w in verts}


def test_degree3_orbit_sizes_present(vs23):
    # the self-paired class has size-2 orbits; generic classes size 6
    from collections import Counter

    sizes = Counter()
    seen = set()
    for v in vs23.value.degree_slice(3):
        if v.poly.coeffs in seen:
            continue
        orbit = s3_orbit(v.poly)
        seen |= {t.coeffs for t in orbit}
        sizes[len(orbit)] += 1
    assert set(sizes) == {2, 6}
    assert sizes[2] == 2            # 2(2) in one class row
    assert 6 * sizes[6] + 2 * sizes[2] == 1498


def test_ingest_table5(vs2):
    assert vs2.value.counts() == {1: 3, 2: 15, 3: 0, 4: 108}


def test_ingest_rejects():
    ingested, report = ingest_units([(2, 0, 1)], P2)   # t^2 + 2: s(1) = 3
    assert not ingested and report.rejected[0][1] == "membership"
    ingested, report = ingest_units([(1, 0, -6, 0, 1)], P2)  # splits
    assert not ingested and report.rejected[0][1] == "reducible"
    # s(1) = 1000013 is no unit, so membership rejects it before factoring
    ingested, report = ingest_units([(1, 1000003, 3, 5, 1)], P2)
    assert not ingested and report.rejected[0][1] == "membership"
    ingested, report = ingest_units([(0,), (0, 0, 0), (5,)], P2)
    assert not ingested and [r for _, r in report.rejected] == \
        ["zero", "zero", "constant"]


def test_value_types_pickle(vs2, graph2, table2):
    """Every value type survives a pickle round trip and is rebuilt from its
    fields by keyword.  The frozen ones refuse assignment, hash as their
    equals do and equal no tuple; the mutable ones are unhashable, and each
    default-built one gets its own dicts and lists."""
    points, cert = search_abc(P2, VARIANT_III, 10)
    s = NormalizedPoly((2, -2, 1))
    s.discriminant()
    back = pickle.loads(pickle.dumps(s))
    assert back == s and back.discriminant() == -4
    linear = [v.poly for v in graph2.value.vertices if v.degree == 1]
    frozen = [
        (NormalizedPoly((2, -2, 1)), ("coeffs",)),
        (P2, ("primes",)),
        (points[0], ("variant", "A", "B", "C", "u", "class_datum")),
        (cert, ("primes", "variant", "height_bound", "complete", "citation")),
        (check_membership(NormalizedPoly((2, 0, 1)), P2), ("ok", "failures")),
        (vs2.value.degree_slice(4)[0], ("poly", "class_datum", "provenance")),
        (cyclo_series(P2, 10), ("P", "kmax", "coeffs")),
        (builtin_covers()["power:2"], ("name", "numer", "denom", "scalar")),
        (verify_named("big23"), ("name", "poly", "membership_ok", "disc",
                                 "disc_matches", "partition",
                                 "partition_matches")),
    ]
    mutable = [
        (vs2.value, ("P", "by_degree", "certificates", "split_degree2")),
        (ingest_units([(2, 0, 1)], P2)[1], ("accepted", "rejected")),
        (graph2.value, ("vertices", "degrees", "adj", "P", "images")),
        (table2.value, ("f", "counts")),
        (pgl2_packets(linear, roots=split_roots(linear))[0][0],
         ("members", "stabilizer_order", "stabilizer_label")),
    ]
    for group, is_frozen in ((frozen, True), (mutable, False)):
        for obj, fields in group:
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and back is not obj, obj
            assert type(obj)(**{f: getattr(obj, f) for f in fields}) == obj
            if not is_frozen:
                with pytest.raises(TypeError):
                    hash(obj)
                continue
            assert hash(back) == hash(obj), obj
            assert obj != tuple(getattr(obj, f) for f in fields), obj
            for f in fields:
                with pytest.raises(AttributeError):
                    setattr(obj, f, None)
                with pytest.raises(AttributeError):
                    delattr(obj, f)
    for build, fresh in ((lambda: VertexSet(P2),
                          ("by_degree", "certificates", "split_degree2")),
                         (lambda: PartitionTable(3), ("counts",)),
                         (IngestReport, ("rejected",))):
        a, b = build(), build()
        assert a == b
        for f in fresh:
            assert getattr(a, f) is not getattr(b, f), f


def test_frozen_records_hold_one_key():
    """A frozen record stores its fields once, in `_key`: the field tuple,
    or the field itself for one field.  `_key` is as read-only as the field
    views, and the hash of a one-field record is the hash of its field."""
    s = NormalizedPoly((1, 0, 1))
    points, cert = search_abc(P2, VARIANT_III, 10)
    records = [s, P2, points[0], cert, check_membership(s, P2), Vertex(s),
               cyclo_series(P2, 3), builtin_covers()["power:2"],
               verify_named("big23")]
    assert {type(r) for r in records} == set(Frozen.__subclasses__())
    for r in records:
        cls = type(r)
        assert cls.__slots__ == (("_disc",) if cls is NormalizedPoly else ())
        fields = tuple(getattr(r, f) for f in cls._fields)
        assert r._key == (fields[0] if len(fields) == 1 else fields), r
        for f in cls._fields + ("_key",):
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
    assert hash(s) == hash((1, 0, 1)) and hash(P2) == hash(P2.primes)


def test_ingest_idempotent_on_orbits(vs2):
    # feeding a whole orbit back in changes nothing
    verts = vs2.value.degree_slice(4)
    polys = [v.poly for v in verts[:6]]
    ingested, _ = ingest_units(polys, P2)
    got = {v.poly.coeffs for v in ingested[4]}
    assert got <= {v.poly.coeffs for v in verts}


def test_cross_validate(vs2):
    built = VertexSet(P2)
    points, _ = search_abc(P2, VARIANT_I2I, 10 ** 6)
    verts, split, _ = build_degree2(P2, points)
    built.add_degree(2, verts, "complete")
    ingested, _ = ingest_units(list(TABLE5_REPRESENTATIVES[2]), P2)
    other = VertexSet(P2)
    other.add_degree(2, ingested[2], "published")
    only_a, only_b = cross_validate(built, other, 2)
    assert only_a == [] and only_b == []

    # deliberately dropped vertex shows up as a diff of size 1
    crippled = VertexSet(P2)
    crippled.add_degree(2, verts[1:], "dropped")
    only_a, only_b = cross_validate(built, crippled, 2)
    assert len(only_a) == 1 and only_b == []


def test_degree1_cross_table5(vs2):
    ingested, _ = ingest_units(list(TABLE5_REPRESENTATIVES[1]), P2)
    assert {v.poly.coeffs for v in ingested[1]} == \
        {v.poly.coeffs for v in vs2.value.degree_slice(1)}


def test_vertex_set_roundtrip(tmp_path, vs2):
    path = tmp_path / "v2.json"
    write_vertex_set(path, vs2.value)
    back = read_vertex_set(path)
    assert back.counts() == vs2.value.counts()
    for d in back.by_degree:
        assert [v.poly.coeffs for v in back.degree_slice(d)] == \
            [v.poly.coeffs for v in vs2.value.degree_slice(d)]


def test_vertex_set_roundtrip_split_degree2(tmp_path, vs235):
    assert len(vs235.value.split_degree2) == 1020
    path = tmp_path / "v235.json"
    write_vertex_set(path, vs235.value)
    assert read_vertex_set(path).split_degree2 == vs235.value.split_degree2
    assert VertexSet(P2).split_degree2 == []


def test_vertex_build_polls_budget_after_searches(search_32i_23):
    """With every point set given, no search polls the budget; the cubic
    classes and the degree-3 build must."""
    points = {VARIANT_III: search_abc(P23, VARIANT_III, 10 ** 3),
              VARIANT_I2I: search_abc(P23, VARIANT_I2I, 10 ** 3),
              VARIANT_32I: search_32i_23.value}
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        build_vertex_set(P23, 3, points_by_variant=points)
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        ingest_units(TABLE5_REPRESENTATIVES[4], P2)


def _degree600_line():
    """t^600 + 1 plus random terms +-2 t^i: a candidate whose discriminant
    PRS alone takes half a minute."""
    rng = random.Random(600)
    return [1] + [rng.choice((-2, 0, 2)) for _ in range(599)] + [1]


def test_ingest_polls_the_budget_inside_the_discriminant():
    """The membership test of one degree-600 candidate polls the budget once
    per pseudo-remainder, so a 0.5 s budget stops it within seconds."""
    start = time.monotonic()
    with pytest.raises(BudgetExceededError), Budget(seconds=0.5):
        ingest_units([_degree600_line()], P2)
    assert time.monotonic() - start < 5


def test_degree2_polls_the_budget(search_i2i_235):
    """build_degree2 polls its budget once per w0, so a spent budget stops
    it."""
    with pytest.raises(BudgetExceededError), Budget(seconds=0):
        build_degree2(P235, search_i2i_235.value[0])


class _ChecksLeft(Budget):
    """A budget that refuses once it has been checked `left` times."""

    def __init__(self, left):
        super().__init__()
        self.left = left

    def check(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("no checks left")


def test_ingest_budget_stops_irreducibility_scan():
    # t^4 + 123200 passes membership over {2,...,13} and is irreducible; a
    # bounded coefficient scan needs minutes to show it.  Ingestion admits it
    # well within the budget, and the budget reaches inside the check.
    P = PrimeSet([2, 3, 5, 7, 11, 13])
    start = time.monotonic()
    with Budget(seconds=5):
        got, report = ingest_units([(123200, 0, 0, 0, 1)], P)
    assert time.monotonic() - start < 5
    assert report.accepted == 1 and not report.rejected
    assert NormalizedPoly((123200, 0, 0, 0, 1)) in {
        v.poly for v in got[4]}
    with pytest.raises(BudgetExceededError), _ChecksLeft(1):
        # one check per candidate, then the next one is inside factor_small
        ingest_units([(123200, 0, 0, 0, 1)], P)


def test_parse_candidate_file(tmp_path):
    path = tmp_path / "cands.txt"
    path.write_text("1, 1\n# comment\n1 0 1\n\n-1 -2 1  # trailing\n")
    assert parse_candidate_file(path) == [(1, 1), (1, 0, 1), (-1, -2, 1)]


def test_brute_force_box_P2(vs2):
    """Exhaustive |coeff| <= 64 box reproduces the built degree <= 2 slices."""
    from math import gcd

    def content_one(coeffs):
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        return g == 1

    members1 = set()
    members2 = set()
    for lead in range(1, 65):
        for c0 in range(-64, 65):
            if c0 and content_one((c0, lead)) and is_smooth(c0, P2) \
                    and is_smooth(lead, P2) and is_smooth(c0 + lead, P2):
                members1.add((c0, lead))
            for c1 in range(-64, 65):
                if c0 == 0 or not is_smooth(c0, P2) or not is_smooth(lead, P2):
                    continue
                s1 = c0 + c1 + lead
                if s1 == 0 or not is_smooth(s1, P2):
                    continue
                if not content_one((c0, c1, lead)):
                    continue
                s = NormalizedPoly((c0, c1, lead))
                if s.discriminant() != 0 and is_smooth(s.discriminant(), P2) \
                        and is_irreducible(s):
                    members2.add(s.coeffs)
    built1 = {v.poly.coeffs for v in vs2.value.degree_slice(1)}
    built2 = {v.poly.coeffs for v in vs2.value.degree_slice(2)}
    assert members1 == built1
    in_box2 = {c for c in built2 if max(abs(x) for x in c) <= 64}
    assert members2 == in_box2
    assert members2 == built2  # every degree-2 vertex over {2} fits the box
