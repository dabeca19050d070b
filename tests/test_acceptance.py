"""Acceptance suite: one test per criterion, each recording a PASS/FAIL line.

Frozen expected values come from the published reference tables; every
tolerance is exact-match and every runtime budget is asserted against the
wall-clock of the relevant computation.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import record_criterion

from polytab.abc_search import (
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    cubic_classes,
    reference_cubic_partition,
    search_abc,
)
from polytab.cliques import (
    build_graph,
    count_u_nu,
    enumerate_cliques,
    pgl2_packets,
    tabulate,
)
from polytab.generators import (
    builtin_covers,
    cyclo_series,
    fractal_family,
    verify_named,
)
from polytab.poly import (
    NormalizedPoly,
    S3_ELEMENTS,
    check_membership,
    derivative_coeffs,
    discriminant,
    from_roots,
    is_irreducible,
    normalize,
    poly_mul,
    rational_roots,
    resultant_coeffs,
    s3_orbit,
    s3_transform,
)
from polytab.smooth import PrimeSet, is_smooth

from oracles import (
    candidate_grid,
    first_good_prime,
    poly_height,
    reduction_bound,
    s3_compose,
)

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])
P2357 = PrimeSet([2, 3, 5, 7])


# --- criterion 1: the three searches ----------------------------------------


def test_c01_searches(search_iii_2357, search_i2i_235, search_32i_23):
    points, cert = search_iii_2357.value
    ok = len(points) == 375 and cert.complete
    ok &= max(pt.height for pt in points) == 4375
    ok &= search_iii_2357.seconds <= 300

    points2, cert2 = search_i2i_235.value
    ok &= len(points2) == 183 and cert2.complete
    ok &= search_i2i_235.seconds <= 120

    points3, cert3 = search_32i_23.value
    split = Counter(
        "".join(str(d) for d in reference_cubic_partition(pt.u)) for pt in points3)
    ok &= len(points3) == 81 and cert3.complete
    ok &= (split["3"], split["21"], split["111"]) == (54, 24, 3)
    ok &= search_32i_23.seconds <= 900
    record_criterion(
        1, ok,
        f"375@4375 in {search_iii_2357.seconds:.1f}s; 183 in "
        f"{search_i2i_235.seconds:.1f}s; 81 split 54/24/3 in "
        f"{search_32i_23.seconds:.1f}s")


# --- criterion 2: degree-1 tabulation row -----------------------------------


def test_c02_degree1_row(graph2357, table2357):
    want = [1, 375, 9900, 73000, 232260, 383712, 356916, 190620, 55935, 7425]
    got = [table2357.value.count((a,)) for a in range(10)]
    elapsed = graph2357.seconds + table2357.seconds
    ok = got == want and elapsed <= 600
    ok &= all(c == 0 for e, c in table2357.value.counts.items() if e[0] > 9)
    record_criterion(2, ok, f"row {got == want} in {elapsed:.1f}s")


# --- criterion 3: degree-2 totals and the height-3125 orbits -----------------


def test_c03_degree2(vs235):
    vs = vs235.value
    irreducible = len(vs.degree_slice(2))
    split = len(vs.split_degree2)
    ok = (irreducible, split) == (1927, 1020)
    have = {v.poly.coeffs for v in vs.degree_slice(2)} | \
        {s.coeffs for s in vs.split_degree2}
    reps = {(-2187, -810, 3125), (-27, -1050, 3125), (-3, -50, 3125)}
    ok &= reps <= have
    # those three orbits are exactly the maximal-height ones
    seen = set()
    heights = []
    for coeffs in have:
        if coeffs in seen:
            continue
        orbit = s3_orbit(NormalizedPoly(coeffs))
        seen |= {t.coeffs for t in orbit}
        heights.append(max(poly_height(t) for t in orbit))
    heights.sort(reverse=True)
    ok &= heights[:3] == [3125, 3125, 3125] and heights[3] < 3125
    record_criterion(3, ok, f"|[2]|=2947 split {irreducible}/{split}, "
                            f"three height-3125 orbits verbatim")


# --- criterion 4: the full degree <= 2 table over {2,3,5} --------------------


V235_TABLE = {
    0: (1, 99, 1020, 3100, 3570, 1386),
    1: (1927, 18225, 60240, 90640, 64470, 18018),
    2: (44967, 227751, 477540, 511200, 279930, 64176),
    3: (238255, 862029, 1347060, 1125940, 502530, 99960),
    4: (551944, 1567746, 1913760, 1269160, 463470, 83034),
    5: (745824, 1740246, 1683180, 867600, 246120, 40698),
    6: (692476, 1364910, 1050150, 409570, 81690, 12768),
    7: (480862, 812520, 493440, 146800, 20370, 3360),
    8: (259974, 376650, 170850, 38550, 3990, 756),
    9: (112016, 138096, 39660, 6020, 420, 84),
    10: (39404, 42216, 5520, 380, 0, 0),
    11: (11520, 11436, 360, 0, 0, 0),
    12: (2751, 2709, 0, 0, 0, 0),
    13: (495, 495, 0, 0, 0, 0),
    14: (57, 57, 0, 0, 0, 0),
    15: (3, 3, 0, 0, 0, 0),
}


def test_c04_table_235(vs235, graph235, table235):
    t = table235.value
    bad = []
    for b, row in V235_TABLE.items():
        for a, want in enumerate(row):
            if t.count((a, b)) != want:
                bad.append((b, a))
    outside = {e: c for e, c in t.counts.items()
               if c and (e[1] > 15 or e[0] > 5)}
    elapsed = vs235.seconds + graph235.seconds + table235.seconds
    ok = not bad and not outside and elapsed <= 7200
    record_criterion(
        4, ok, f"96 grid cells (75 nonzero) exact, {t.total()} cliques "
               f"in {elapsed:.1f}s (stretch <= 1200s: {elapsed <= 1200})")


# --- criterion 5: degree 3 over {2,3} ----------------------------------------


def test_c05_degree3(vs23):
    verts = vs23.value.degree_slice(3)
    per_class = Counter(v.class_datum for v in verts)
    ok = len(verts) == 1498
    ok &= sorted(per_class.values()) == sorted(
        [396, 6, 6, 180, 96, 102, 264, 100, 348])

    # worked example 1: the invariant triple (0, 0, -24) and its orbit of six
    got = {v.poly.coeffs for v in verts}
    grid1 = list(candidate_grid(Fraction(-24), Fraction(0), Fraction(0)))
    survivors = {s.coeffs for _, _, s in grid1
                 if s.degree == 3 and s.discriminant() != 0
                 and check_membership(s, P23).ok}
    ok &= survivors == {(2, -6, 6, 1), (-3, 9, -9, 1)}
    orbit = set()
    for c in survivors:
        orbit |= {t.coeffs for t in s3_orbit(NormalizedPoly(c))}
    want_orbit = {(2, -6, 6, 1), (-3, 9, -9, 1), (-3, 0, 0, 2),
                  (1, 6, -6, 2), (-2, 0, 0, 3), (-1, 9, -9, 3)}
    ok &= orbit == want_orbit and orbit <= got

    # worked example 2: the nine-candidate grid with exactly six accepted
    grid2 = list(candidate_grid(Fraction(4, 3), Fraction(1372, 3), Fraction(4)))
    accepted = {}
    for m, n, s in grid2:
        good = s.degree == 3 and s.discriminant() != 0 \
            and check_membership(s, P23).ok
        accepted[(m, n)] = (s.coeffs, good)
    ok &= len(grid2) == 9
    ok &= sum(1 for _, good in accepted.values() if good) == 6
    rejects = {accepted[k][0] for k in accepted if not accepted[k][1]}
    ok &= rejects == {(1, 75, -225, 125), (-8, 180, -300, 125),
                      (1, -120, 75, 125)}
    accepted_polys = {v for v, good in accepted.values() if good}
    ok &= accepted_polys <= got
    record_criterion(5, ok, "1498 vertices; class decomposition "
                            "(396,6,6,180,96,102,264,100,348); both worked "
                            "examples reproduced")


# --- criterion 6: the full degree <= 3 table over {2,3} ----------------------


V23_TABLE = {
    (0, 0): (1, 169, 981, 1723, 1390, 630, 150, 12),
    (0, 1): (21, 675, 2175, 2559, 1416, 486, 108, 12),
    (0, 2): (60, 840, 1710, 1200, 270, 0, 0, 0),
    (0, 3): (40, 340, 570, 340, 70, 0, 0, 0),
    (1, 0): (1498, 6364, 10854, 8788, 3958, 1116, 162, 0),
    (1, 1): (4584, 13632, 18024, 11280, 3600, 792, 96, 0),
    (1, 2): (4260, 9900, 10020, 4800, 720, 0, 0, 0),
    (1, 3): (1120, 2440, 2040, 1000, 160, 0, 0, 0),
    (2, 0): (21282, 37374, 34008, 16866, 4560, 798, 72, 0),
    (2, 1): (41184, 62208, 49872, 21000, 3900, 564, 48, 0),
    (2, 2): (24720, 33180, 23160, 8940, 900, 0, 0, 0),
    (2, 3): (3960, 6000, 3720, 1680, 240, 0, 0, 0),
    (3, 0): (81850, 95578, 54942, 17398, 2704, 216, 0, 0),
    (3, 1): (117288, 133632, 71712, 19800, 1992, 120, 0, 0),
    (3, 2): (49140, 54660, 27240, 7380, 540, 0, 0, 0),
    (3, 3): (4520, 6200, 2760, 1000, 160, 0, 0, 0),
    (4, 0): (156924, 144000, 55692, 11434, 1132, 48, 0, 0),
    (4, 1): (180822, 174564, 64074, 11004, 684, 24, 0, 0),
    (4, 2): (56910, 56940, 19050, 2760, 120, 0, 0, 0),
    (4, 3): (3030, 4020, 1230, 220, 40, 0, 0, 0),
    (5, 0): (173110, 137530, 38094, 4848, 282, 0, 0, 0),
    (5, 1): (167448, 144552, 39048, 3936, 144, 0, 0, 0),
    (5, 2): (42000, 37260, 8880, 420, 0, 0, 0, 0),
    (5, 3): (1240, 1600, 360, 0, 0, 0, 0, 0),
    (6, 0): (116552, 85214, 18186, 1392, 42, 0, 0, 0),
    (6, 1): (95388, 76440, 16572, 1044, 24, 0, 0, 0),
    (6, 2): (19800, 15360, 2820, 0, 0, 0, 0, 0),
    (6, 3): (560, 620, 60, 0, 0, 0, 0, 0),
    (7, 0): (49364, 33650, 5622, 246, 0, 0, 0, 0),
    (7, 1): (33576, 25440, 4392, 192, 0, 0, 0, 0),
    (7, 2): (5820, 4140, 600, 0, 0, 0, 0, 0),
    (7, 3): (160, 160, 0, 0, 0, 0, 0, 0),
    (8, 0): (12998, 7916, 954, 24, 0, 0, 0, 0),
    (8, 1): (6870, 4914, 534, 18, 0, 0, 0, 0),
    (8, 2): (960, 720, 60, 0, 0, 0, 0, 0),
    (8, 3): (20, 20, 0, 0, 0, 0, 0, 0),
    (9, 0): (1948, 952, 54, 0, 0, 0, 0, 0),
    (9, 1): (648, 456, 0, 0, 0, 0, 0, 0),
    (9, 2): (60, 60, 0, 0, 0, 0, 0, 0),
    (9, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (10, 0): (162, 54, 0, 0, 0, 0, 0, 0),
    (10, 1): (24, 24, 0, 0, 0, 0, 0, 0),
    (10, 2): (0, 0, 0, 0, 0, 0, 0, 0),
    (10, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (11, 0): (8, 2, 0, 0, 0, 0, 0, 0),
    (11, 1): (0, 0, 0, 0, 0, 0, 0, 0),
}


def test_c06_table_23(vs23, graph23, table23):
    t = table23.value
    bad = []
    for (c, a), row in V23_TABLE.items():
        for b, want in enumerate(row):
            if t.count((a, b, c)) != want:
                bad.append((c, a, b))
    outside = {e: cnt for e, cnt in t.counts.items()
               if cnt and (e[0] > 3 or e[1] > 7 or e[2] > 11)}
    elapsed = vs23.seconds + graph23.seconds + table23.seconds
    ok = not bad and not outside and elapsed <= 3600
    ok &= t.count((1, 0, 4)) == 180822 and t.count((0, 1, 11)) == 2
    record_criterion(6, ok, f"all cells exact incl. 180822 and terminal 2; "
                            f"{elapsed:.1f}s")


# --- criterion 7: conditional degree-4 path over {2} ------------------------


V2_TABLE = {
    0: {0: (1, 108, 177, 144, 42), 1: (15, 162, 93, 30, 0),
        2: (9, 30, 21, 6, 0), 3: (3, 6, 3, 0, 0)},
    1: {0: (3, 108, 129, 90, 24), 1: (21, 156, 63, 18, 0),
        2: (9, 18, 9, 0, 0), 3: (3, 6, 3, 0, 0)},
}


def test_c07_degree4_conditional(vs2, graph2, table2):
    ok = vs2.value.counts() == {1: 3, 2: 15, 3: 0, 4: 108}
    t = table2.value
    bad = []
    for a, rows in V2_TABLE.items():
        for b, row in rows.items():
            for d, want in enumerate(row):
                if t.count((a, b, 0, d)) != want:
                    bad.append((a, b, d))
    outside = {e: cnt for e, cnt in t.counts.items()
               if cnt and (e[0] > 1 or e[1] > 3 or e[2] > 0 or e[3] > 4)}
    elapsed = vs2.seconds + graph2.seconds + table2.seconds
    ok &= not bad and not outside and elapsed <= 60
    ok &= vs2.value.certificates[4].startswith("conditional")
    record_criterion(7, ok, f"3/15/108 vertices; both grids exact; "
                            f"{elapsed:.1f}s")


# --- criterion 8: the little table over {2} ----------------------------------


def test_c08_littletab(vs2):
    t0 = time.monotonic()
    vs = vs2.value
    from polytab.vertices import VertexSet

    small = VertexSet(P2)
    small.add_degree(1, vs.degree_slice(1), "complete")
    small.add_degree(2, vs.degree_slice(2), "complete")
    g = build_graph(small)
    t = tabulate(g)
    grid = [[t.count((a, b)) for a in (0, 1)] for b in range(4)]
    elapsed = time.monotonic() - t0
    ok = grid == [[1, 3], [15, 21], [9, 9], [3, 3]] and elapsed <= 1.0
    record_criterion(8, ok, f"[[1,3],[15,21],[9,9],[3,3]] in {elapsed:.2f}s")


# --- criterion 9: named polynomials and their tabulated multiplicities -------


def test_c09_named(table23, graph23, table235, graph235, table2, graph2):
    reps = {name: verify_named(name)
            for name in ("big23", "big235", "quartic-extremal")}
    ok = all(rep.ok for rep in reps.values())
    ok &= reps["big23"].disc == 2 ** 105 * 3 ** 533
    ok &= reps["big235"].disc == -(2 ** 1046 * 3 ** 80 * 5 ** 104)
    ok &= reps["quartic-extremal"].disc == -(2 ** 184)

    def clique_products(graph, kappa):
        out = []
        for clique in enumerate_cliques(graph, kappa=kappa):
            c = [1]
            for i in clique:
                c = poly_mul(c, graph.vertices[i].poly.coeffs)
            out.append(NormalizedPoly(c))
        return out

    prods = clique_products(graph23.value, (0, 1, 11))
    ok &= len(prods) == 2 and reps["big23"].poly in prods
    ok &= set(prods) == s3_orbit(reps["big23"].poly)   # the reversal mirror
    prods = clique_products(graph235.value, (1, 15))
    ok &= len(prods) == 3 and reps["big235"].poly in prods
    ok &= set(prods) == s3_orbit(reps["big235"].poly)
    prods = clique_products(graph2.value, (1, 3, 0, 2))
    ok &= len(prods) == 3 and reps["quartic-extremal"].poly in prods
    ok &= set(prods) == s3_orbit(reps["quartic-extremal"].poly)
    ok &= table2.value.count((1, 3, 0, 2)) == 3
    record_criterion(9, ok, "disc values exact (big235 negative as computed); "
                            "multiplicities 2/3/3 found by tabulation")


# --- criterion 10: generating function ---------------------------------------


def test_c10_series():
    t0 = time.monotonic()
    s2 = cyclo_series(P2, 10 ** 4)
    s235 = cyclo_series(P235, 1000)
    elapsed = time.monotonic() - t0
    ok = all(c == 1 for c in s2.coeffs)
    ok &= s235.coeffs[1000] == 3361607445659519
    ok &= elapsed <= 10
    record_criterion(10, ok, f"all-ones through 1e4; c_1000 exact; {elapsed:.2f}s")


# --- criterion 11: fractal family --------------------------------------------


def test_c11_fractal():
    t0 = time.monotonic()
    fam = fractal_family(4)
    ok = all(check_membership(s, P2).ok for s in fam.values())
    ok &= {s.degree for (i, _), s in fam.items() if i == 4} == {128}
    for w, want_deg in ((1, 2), (2, 10), (3, 42)):
        products = set()
        import itertools

        for js in itertools.product((-1, 0, 1), repeat=w):
            c = [1]
            for i, j in enumerate(js, start=1):
                c = poly_mul(c, fam[(i, j)].coeffs)
            s = NormalizedPoly(c)
            ok &= s.degree == want_deg and check_membership(s, P2).ok
            products.add(s.coeffs)
        ok &= len(products) == 3 ** w
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120
    record_criterion(11, ok, f"i<=4 members; 3^w products at degrees "
                             f"2/10/42; {elapsed:.1f}s")


# --- criterion 12: specialization counts --------------------------------------


def test_c12_unu(graph23, graph235, graph2):
    got = (count_u_nu(graph23.value, (2, 1, 1, 1)),
           count_u_nu(graph235.value, (2, 1, 1, 1)),
           count_u_nu(graph2.value, (2, 1, 1, 1)))
    ok = got == (229, 2947, 15)
    record_criterion(12, ok, f"U counts {got} == (229, 2947, 15)")


# --- criterion 13: packets ----------------------------------------------------


def test_c13_packets(graph2357):
    g = graph2357.value
    uvals = [Fraction(-v.poly.coeffs[0], v.poly.coeffs[1]) for v in g.vertices]
    cliques9 = list(enumerate_cliques(g, kappa=(9,)))
    roots = [[uvals[i] for i in c] for c in cliques9]
    polys = [from_roots(rr) for rr in roots]
    # the roots of every split nonic are known from its clique
    assert all(rational_roots(s.coeffs)
               == [(r.numerator, r.denominator) for r in sorted(rr)]
               for s, rr in zip(polys, roots))
    packets, mass = pgl2_packets(polys, roots=roots)
    labels = Counter(p.stabilizer_label for p in packets)
    ok = len(packets) == 13
    ok &= labels == Counter({"C2": 8, "C1": 1, "V": 1, "S3": 1, "D4": 1, "D6": 1})
    # the verified mass: 7425 / (12*11*10) = 45/8 = 5.625, which also equals
    # 1 + 8/2 + 1/4 + 1/6 + 1/8 + 1/12 (the published decimal 5.875 is a typo)
    ok &= mass == Fraction(45, 8)
    ok &= mass == Fraction(len(polys), 12 * 11 * 10)
    # the product (t-2)...(t-10) sits in a packet with stabilizer order 2
    target = from_roots([Fraction(k) for k in range(2, 11)])
    idx = polys.index(target)
    pk = next(p for p in packets if idx in p.members)
    ok &= pk.stabilizer_order == 2
    record_criterion(13, ok, f"13 packets {dict(labels)}; mass 45/8 = 5.625 "
                             f"(identity-checked)")


# --- criterion 14: property suites --------------------------------------------


def test_c14a_disc_resultant_identity():
    rng = random.Random(99)
    for _ in range(1000):
        def rand_np():
            while True:
                c = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] \
                    + [rng.randint(1, 6)]
                if any(c[:-1]) or True:
                    return normalize(c)[0]
        f, g = rand_np(), rand_np()
        c = poly_mul(f.coeffs, g.coeffs)
        k = len(c) - 1
        if k < 2:
            continue
        r = resultant_coeffs(c, derivative_coeffs(c))
        if k % 4 in (2, 3):
            r = -r
        assert r // c[-1] == discriminant(f) * discriminant(g) \
            * resultant_coeffs(f.coeffs, g.coeffs) ** 2
    record_criterion("14a", True, "disc/resultant product identity on 1000 pairs")


def test_c14b_s3_on_vertex_sets(vs2, vs23, vs235, vs2357):
    rng = random.Random(100)
    ok = True
    names = list(S3_ELEMENTS)
    for timed, P in ((vs2, P2), (vs23, P23), (vs235, P235), (vs2357, P2357)):
        vs = timed.value
        all_coeffs = {v.poly.coeffs for d in vs.by_degree
                      for v in vs.degree_slice(d)}
        sample = rng.sample(sorted(all_coeffs), min(25, len(all_coeffs)))
        for coeffs in sample:
            s = NormalizedPoly(coeffs)
            orbit = s3_orbit(s)
            ok &= {t.coeffs for t in orbit} <= all_coeffs
            ok &= len({check_membership(t, P).ok for t in orbit}) == 1
        for g in names:
            for h in names:
                s = NormalizedPoly(sample[0])
                ok &= s3_transform(s3_transform(s, h), g) == \
                    s3_transform(s, s3_compose(g, h))
    record_criterion("14b", ok, "S3 group law and membership invariance on "
                                "all four vertex sets")


def test_c14c_brute_force_box(vs2):
    from math import gcd

    members = set()
    for lead in range(1, 65):
        for c0 in range(-64, 65):
            for c1 in range(-64, 65):
                if c0 == 0 or not is_smooth(c0, P2) or not is_smooth(lead, P2):
                    continue
                s1 = c0 + c1 + lead
                if s1 == 0 or not is_smooth(s1, P2):
                    continue
                g = gcd(gcd(abs(c0), abs(c1)), lead)
                if g != 1:
                    continue
                s = NormalizedPoly((c0, c1, lead))
                d = s.discriminant()
                if d != 0 and is_smooth(d, P2) and is_irreducible(s):
                    members.add(s.coeffs)
    built = {v.poly.coeffs for v in vs2.value.degree_slice(2)}
    ok = members == built
    record_criterion("14c", ok, f"|c|<=64 box reproduces all {len(built)} "
                                f"degree-2 vertices over {{2}}")


def test_c14d_worker_determinism(graph2357, table2357):
    t4 = tabulate(graph2357.value, workers=4)
    t16 = tabulate(graph2357.value, workers=16)
    ok = t4.counts == table2357.value.counts == t16.counts
    record_criterion("14d", ok, "tabulation identical for 1/4/16 workers")


# --- reduction bound consistency (supporting invariant) -----------------------


def test_reduction_bound_on_tables(table23, table235, table2357):
    # every nonempty partition obeys the packing bound for the first good prime
    for table, P, f in ((table23.value, P23, 3), (table235.value, P235, 2),
                        (table2357.value, P2357, 1)):
        bound = reduction_bound(first_good_prime(P), f)
        for expts, cnt in table.counts.items():
            if cnt:
                assert sum((d + 1) * e for d, e in enumerate(expts)) <= bound
