"""The four reference pipelines of the benchmark.

Each pipeline is a closed loop with one caller: every stage waits for the one
before it.  Library functions are called through their module attribute
(``cliques.build_graph(...)``) so that a traced run sees the wrapped versions.
The seed only shuffles the point lists handed to ``build_vertex_set`` and the
order of the ingestion candidates; every checked output is the same for every
seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from collections import Counter
from fractions import Fraction

from polytab import abc_search, cliques, generators, poly, vertices
from polytab.abc_search import VARIANT_32I, VARIANT_I2I, VARIANT_III
from polytab.smooth import PrimeSet

WORKERS = 1


class Inputs:
    """What a pipeline gets besides the library: its seeded shuffler, and for
    p2-gen the ingestion candidates in seeded order."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(seed)
        self.candidates = None
        if workload == "p2-gen":
            cands = [c for d, cs in vertices.TABLE5_REPRESENTATIVES.items()
                     if d >= 4 for c in cs]
            self.rng.shuffle(cands)
            self.candidates = cands

    def shuffled(self, points):
        out = list(points)
        self.rng.shuffle(out)
        return out


def _table_stages(tr, inp, P, searches, max_degree, candidates=None):
    """search -> vertices -> graph -> tabulate, shared by all four workloads.

    searches maps variant -> height bound for the point sets the pipeline
    searches itself; build_vertex_set searches any other variant it needs.
    """
    with tr.stage("search"):
        points = {v: abc_search.search_abc(P, v, H, workers=WORKERS)
                  for v, H in searches.items()}
    with tr.stage("vertices"):
        given = {v: (inp.shuffled(pts), cert) for v, (pts, cert) in points.items()}
        vs = vertices.build_vertex_set(P, max_degree, points_by_variant=given,
                                       candidates=candidates)
    with tr.stage("graph"):
        g = cliques.build_graph(vs)
    with tr.stage("tabulate"):
        table = cliques.tabulate(g, workers=WORKERS)
    return points, vs, g, table


def _counts(vs):
    return {str(d): n for d, n in vs.counts().items()}


def p23_deg3(tr, inp, io_dir):
    P = PrimeSet([2, 3])
    points, vs, g, table = _table_stages(tr, inp, P, {VARIANT_32I: 10 ** 11}, 3)
    with tr.stage("unu"):
        u = cliques.count_u_nu(g, (2, 1, 1, 1), workers=WORKERS)
    io_bad = roundtrip(tr, io_dir, P, points, vs, table)
    pts = points[VARIANT_32I][0]
    split = Counter("3" if str(pt.class_datum).startswith("cubic:")
                    else pt.class_datum for pt in pts)
    observed = {
        "points": len(pts),
        "reference_cubic_split": [split["3"], split["21"], split["111"]],
        "vertices": _counts(vs),
        "edges": g.edge_count(),
        "cliques": table.total(),
        "cell (1,0,4)": table.count((1, 0, 4)),
        "cell (0,1,11)": table.count((0, 1, 11)),
        "U (2,1,1,1)": u,
        "io mismatches": io_bad,
    }
    return observed, {"points": points, "vertices": vs, "graph": g,
                      "table": table}


def p235_deg2(tr, inp, io_dir):
    P = PrimeSet([2, 3, 5])
    points, vs, g, table = _table_stages(tr, inp, P, {VARIANT_I2I: 10 ** 9}, 2)
    with tr.stage("unu"):
        u = cliques.count_u_nu(g, (2, 1, 1, 1), workers=WORKERS)
    io_bad = roundtrip(tr, io_dir, P, points, vs, table)
    observed = {
        "points": len(points[VARIANT_I2I][0]),
        "vertices": _counts(vs),
        "split degree 2": len(vs.split_degree2),
        "edges": g.edge_count(),
        "cliques": table.total(),
        "U (2,1,1,1)": u,
        "io mismatches": io_bad,
    }
    return observed, {"points": points, "vertices": vs, "graph": g,
                      "table": table}


def p2357_split(tr, inp, io_dir):
    P = PrimeSet([2, 3, 5, 7])
    points, vs, g, table = _table_stages(tr, inp, P, {VARIANT_III: 10 ** 9}, 1)
    with tr.stage("enumerate"):
        cliques9 = list(cliques.enumerate_cliques(g, kappa=(9,)))
    with tr.stage("packets"):
        uvals = [Fraction(-v.poly.coeffs[0], v.poly.coeffs[1]) for v in g.vertices]
        roots = [[uvals[i] for i in c] for c in cliques9]
        polys = [poly.from_roots(rr) for rr in roots]
        packets, mass = cliques.pgl2_packets(polys, roots=roots)
    io_bad = roundtrip(tr, io_dir, P, points, vs, table)
    pts = points[VARIANT_III][0]
    observed = {
        "points": len(pts),
        "max height": max(pt.height for pt in pts),
        "degree-1 row": [table.count((a,)) for a in range(10)]
        + [c for e, c in sorted(table.counts.items()) if e[0] > 9],
        "packets": len(packets),
        "packet mass": f"{mass.numerator}/{mass.denominator}",
        "io mismatches": io_bad,
    }
    labels = sorted(p.stabilizer_label for p in packets)
    return observed, {"points": points, "vertices": vs, "graph": g,
                      "table": table, "packet labels": labels}


def p2_gen(tr, inp, io_dir):
    P = PrimeSet([2])
    points, vs, g, table = _table_stages(
        tr, inp, P, {VARIANT_III: 10 ** 9, VARIANT_I2I: 10 ** 9}, 4,
        candidates=inp.candidates)
    with tr.stage("unu"):
        u = cliques.count_u_nu(g, (2, 1, 1, 1), workers=WORKERS)
    with tr.stage("fractal"):
        fam = generators.fractal_family(4)
        failing = sorted(f"s_{i},{j}" for (i, j), s in fam.items()
                         if not poly.check_membership(s, P).ok)
        deg_i4 = sorted({s.degree for (i, _), s in fam.items() if i == 4})
    with tr.stage("series"):
        series = generators.cyclo_series(PrimeSet([2, 3, 5]), 1000)
    with tr.stage("named"):
        reps = [generators.verify_named(name)
                for name in ("big23", "big235", "quartic-extremal")]
    io_bad = roundtrip(tr, io_dir, P, points, vs, table)
    observed = {
        "vertices": _counts(vs),
        "cell (1,3,0,2)": table.count((1, 3, 0, 2)),
        "U (2,1,1,1)": u,
        "fractal members failing membership": failing,
        "fractal degrees at i=4": deg_i4,
        "c_1000 over {2,3,5}": series.coeffs[1000],
        "named discriminants": {rep.name: rep.disc for rep in reps},
        "named reports failing": [rep.name for rep in reps if not rep.ok],
        "io mismatches": io_bad,
    }
    return observed, {"points": points, "vertices": vs, "graph": g,
                      "table": table, "fractal": fam, "series": series.coeffs}


PIPELINES = {
    "p23-deg3": p23_deg3,
    "p235-deg2": p235_deg2,
    "p2357-split": p2357_split,
    "p2-gen": p2_gen,
}


# ---------------------------------------------------------------------------
# io stage: the CLI's writers and readers, round-tripped


def roundtrip(tr, io_dir, P, points, vs, table) -> list:
    """Write and read back the points, vertex set and table; return what did
    not survive the trip."""
    os.makedirs(io_dir, exist_ok=True)
    bad = []
    paths = []
    with tr.stage("io"):
        for variant, (pts, cert) in sorted(points.items()):
            path = os.path.join(io_dir, f"points-{variant}.json")
            paths.append(path)
            abc_search.write_points(path, pts, cert)
            if abc_search.read_points(path) != (pts, cert):
                bad.append(f"points {variant}")

        path = os.path.join(io_dir, "vertices.json")
        paths.append(path)
        vertices.write_vertex_set(path, vs)
        back = vertices.read_vertex_set(path)
        if sorted(back.by_degree) != sorted(vs.by_degree):
            bad.append("vertex degrees")
        for d in sorted(vs.by_degree):
            if back.degree_slice(d) != vs.degree_slice(d):
                bad.append(f"vertices degree {d}")

        csv_path = os.path.join(io_dir, "table.csv")
        json_path = os.path.join(io_dir, "table.json")
        paths += [csv_path, json_path]
        with tr.span("io.write"):
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(table.to_csv())
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(table.to_json_payload(P), indent=1) + "\n")
        with tr.span("io.read"):
            from_csv = _read_table_csv(csv_path, table.f)
            with open(json_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            from_json = {tuple(rec["exponents"]): rec["count"]
                         for rec in payload["counts"]}
        if from_csv != table.counts:
            bad.append("table csv")
        if from_json != table.counts:
            bad.append("table json")
    tr.count("io.bytes", sum(os.path.getsize(p) for p in paths))
    return bad


def _read_table_csv(path, f):
    counts = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for label, count in rows:
            expts = (0,) * f if label == "-" else cliques.parse_kappa(label, f)
            counts[expts] = int(count)
    return counts


# ---------------------------------------------------------------------------
# fingerprint of the full outputs, to show they do not depend on the seed


def fingerprint(full: dict) -> str:
    """sha256 over every output in full, in a canonical text form."""
    return hashlib.sha256(
        json.dumps(_canonical(full), sort_keys=True).encode()).hexdigest()


def _canonical(x):
    if isinstance(x, dict):
        return {_key(k): _canonical(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canonical(v) for v in x]
    if isinstance(x, abc_search.AbcPoint):
        return [x.A, x.B, x.C, str(x.class_datum)]
    if isinstance(x, abc_search.SearchCertificate):
        return [list(x.primes), x.variant, x.height_bound, x.complete]
    if isinstance(x, vertices.VertexSet):
        return {str(d): [[list(v.poly.coeffs), str(v.class_datum)] for v in vs]
                for d, vs in x.by_degree.items()}
    if isinstance(x, cliques.CompatGraph):
        return [[list(v.poly.coeffs) for v in x.vertices], list(x.lesser)]
    if isinstance(x, cliques.PartitionTable):
        return sorted([list(e), c] for e, c in x.counts.items())
    if isinstance(x, poly.NormalizedPoly):
        return list(x.coeffs)
    return x


def _key(k):
    return k if isinstance(k, str) else repr(k)
