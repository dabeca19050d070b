"""Construction of the irreducible vertex sets, degree by degree.

Degree 1 comes straight from inf-inf-inf points.  Degree 2 runs the
w-triple parametrization: for each square-free class delta, triples
(w0, w1, winf) from the class (with the sentinel 1 allowed) satisfying

    (w1 - w0 - winf)^2 - 4 w0 winf = -4 w0 w1 winf

produce every degree <= 2 polynomial of that discriminant class.  Instead of
scanning all triples, winf is solved from (w0, w1): the quadratic relation
gives winf = w0 + w1 - 2 w0 w1 +- 2 sqrt(w0 w1 (1-w0)(1-w1)), and the square
root is exact inside a class.  On primitive pairs w0 = a/b, w1 = c/d this is

    winf = (a d + c b - 2 a c +- 2 R) / (b d),   R^2 = a (b-a) c (d-c),

so the build is integer-only: one isqrt per (w0, w1), one gcd per sign.
Degree 3 runs the two-root parametrization
s^{m,n} indexed by a j-invariant and roots m, n of the resolvents F(j, j0)
and F(j, j1).  Degree >= 4 is ingestion only: candidate characteristic
polynomials are re-verified, expanded to full orbits and deduplicated, so a
candidate file can never inject a wrong vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm

from .abc_search import (
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    _json_ints,
    _read_json,
    canonical_triple,
    cubic_classes,
    delta_classes,
    reference_cubic_partition,
    roots_of_F,
    search_abc,
)
from .budget import Budget
from .poly import (
    NormalizedPoly,
    _primitive,
    check_membership,
    is_irreducible,
    normalize,
    s3_orbit,
    special_values,
)
from .smooth import PrimeSet, decompose_power, is_smooth

VERTEX_SCHEMA = "polytab.vertices/1"

__all__ = [
    "Vertex", "VertexSet", "build_degree1", "build_degree2", "build_degree3",
    "roots_of_F", "ingest_units", "cross_validate", "build_vertex_set",
    "TABLE5_REPRESENTATIVES", "write_vertex_set", "read_vertex_set",
    "parse_candidate_file", "poly_height",
]


@dataclass(frozen=True)
class Vertex:
    poly: NormalizedPoly
    class_datum: object = None
    provenance: str = "built"

    @property
    def degree(self) -> int:
        return self.poly.degree

    def sort_key(self):
        return self.poly.sort_key()


@dataclass
class VertexSet:
    P: PrimeSet
    by_degree: dict = field(default_factory=dict)   # degree -> sorted [Vertex]
    certificates: dict = field(default_factory=dict)  # degree -> status str
    # degree-2 members with square discriminant: products of two linear
    # members, so not vertices, but counted by the per-class tables
    split_degree2: list = field(default_factory=list)  # sorted [NormalizedPoly]

    def add_degree(self, degree: int, vertices, certificate: str) -> None:
        vs = sorted(set(vertices), key=Vertex.sort_key)
        self.by_degree[degree] = vs
        self.certificates[degree] = certificate

    def degree_slice(self, degree: int):
        return self.by_degree.get(degree, [])

    def all_vertices(self):
        """Fixed total order: ascending degree, then coefficient order."""
        out = []
        for d in sorted(self.by_degree):
            out.extend(self.by_degree[d])
        return out

    def max_degree(self) -> int:
        return max(self.by_degree, default=0)

    def counts(self) -> dict:
        return {d: len(v) for d, v in sorted(self.by_degree.items())}


def poly_height(s: NormalizedPoly) -> int:
    """max(|s(0)|, |s(1)|, |s(inf)|): constant on S3 orbits."""
    v0, v1, vinf = special_values(s)
    return max(abs(v0), abs(v1), abs(vinf))


# ---------------------------------------------------------------------------
# degree 1


# the power k of each side of (A, B, C): a side is (smooth) * x^k
_VARIANT_POWERS = {VARIANT_III: (1, 1, 1), VARIANT_I2I: (1, 2, 1),
                   VARIANT_32I: (3, 2, 1)}


def _require_members(points, variant, P: PrimeSet):
    """ValueError unless every point is a variant point over P.

    The builders take points from files, so a point of the wrong variant or
    with a side of the wrong shape is refused, not skipped.
    """
    for pt in points:
        if pt.variant != variant:
            raise ValueError(f"expected {variant} points, got {pt.variant}")
        for side, k in zip(canonical_triple(pt.u), _VARIANT_POWERS[variant]):
            if not (is_smooth(side, P) if k == 1
                    else decompose_power(side, k, P)):
                raise ValueError(f"non-member {variant} point u = {pt.u} "
                                 f"over {P}")


def build_degree1(points, P: PrimeSet):
    """One normalized linear polynomial per inf-inf-inf point."""
    _require_members(points, VARIANT_III, P)
    vertices = {Vertex(NormalizedPoly((-pt.u.numerator, pt.u.denominator)))
                for pt in points}
    return sorted(vertices, key=Vertex.sort_key)


# ---------------------------------------------------------------------------
# degree 2


def build_degree2(P: PrimeSet, points):
    """All degree-2 members: (irreducible vertices, split polynomials, stats).

    Split polynomials are the products of two linear members (square
    discriminant); they are returned normalized but are not vertices.

    The class members and the sentinel 1 are primitive pairs, w = n/d with
    d > 0.  For w0 = a/b and w1 = c/d the root of the triple relation is
    R/(b d) with R^2 = a (b - a) c (d - c), so the class is closed only if
    that product is a square, and then

        winf = (a d + c b - 2 a c +- 2 R) / (b d),

    reduced by one gcd and looked up among the pairs.  The quadratic
    w0 + (w1 - w0 - winf) t + winf t^2 is cleared by lcm(b, d, den winf).
    """
    if 2 not in P:
        raise ValueError("degree-2 parametrization requires 2 in P")
    _require_members(points, VARIANT_I2I, P)
    classes = delta_classes(points)
    irreducible = {}
    split = {}
    stats = {"triples": 0, "discarded": 0}
    for delta, members in sorted(classes.items()):
        ws = [(1, 1)] + [(u.numerator, u.denominator)
                         for u in sorted(pt.u for pt in members)]
        wset = set(ws)
        for a, b in ws:
            ab = a * (b - a)
            for c, d in ws:
                sq = ab * c * (d - c)
                R = isqrt(sq) if sq >= 0 else -1
                if R * R != sq:
                    raise ValueError(
                        f"class {delta} is not closed under the triple "
                        f"relation over {P}: a point is not a member")
                base, bd = a * d + c * b - 2 * a * c, b * d
                for e in {base + 2 * R, base - 2 * R}:
                    g = gcd(e, bd)
                    e, f = e // g, bd // g
                    if not e or (e, f) not in wset:
                        continue
                    stats["triples"] += 1
                    L = lcm(b, d, f)
                    x, z = a * (L // b), e * (L // f)
                    s = NormalizedPoly(_primitive([x, c * (L // d) - x - z, z]))
                    if s.degree != 2 or s.discriminant() == 0:
                        stats["discarded"] += 1
                        continue
                    if not check_membership(s, P).ok:
                        raise ValueError(
                            f"triple ({a}/{b},{c}/{d},{e}/{f}) produced "
                            f"non-member {s} over {P}")
                    disc = s.discriminant()
                    r = isqrt(abs(disc))
                    if disc > 0 and r * r == disc:
                        split[s.coeffs] = s
                    else:
                        irreducible[s.coeffs] = Vertex(s, class_datum=delta)
    vertices = sorted(irreducible.values(), key=Vertex.sort_key)
    split_polys = sorted(split.values(), key=NormalizedPoly.sort_key)
    return vertices, split_polys, stats


# ---------------------------------------------------------------------------
# degree 3


def _smn_coeffs(a: int, b: int, m: tuple, n: tuple) -> list:
    """Integer coefficients of the cubic s^{m,n}, up to a scalar.

    j = a/b is the j-invariant, and m = (m1, m2), n = (n1, n2) are resolvent
    roots as points of P^1(Q).  With D = n1 m2 - m1 n2 the cubic is

        (a - b) b (D t - n1 m2)^3 - a b (D t + n1 (m1 - m2))^3
            + (a - b) a (m1 n1)^3.

    For finite m and n it is -b^2 D^3 times the monic s^{m,n}; at m = inf or
    n = inf it is the limit of that cubic, with no case of its own.  The t^3
    coefficient is -b^2 D^3, so the degree is 3 exactly when m != n.
    """
    (m1, m2), (n1, n2) = m, n
    D = n1 * m2 - m1 * n2
    p, q = -n1 * m2, n1 * (m1 - m2)
    u, v = (a - b) * b, a * b
    # u (D t + p)^3 - v (D t + q)^3 + (a - b) a (m1 n1)^3, term by term
    return [u * p ** 3 - v * q ** 3 + (a - b) * a * (m1 * n1) ** 3,
            3 * D * (u * p * p - v * q * q),
            3 * D * D * (u * p - v * q),
            (u - v) * D ** 3]


def build_degree3(P: PrimeSet, classes: dict, stats: dict | None = None):
    """Vertices of degree 3 from the class decomposition of 3-2-inf points.

    For every class, every j in the class and every pair (j0, j1) from the
    class together with 0, candidates s^{m,n} are built from resolvent root
    pairs, kept if separable with unit values, then the whole class is closed
    under the marked-point action (which also recovers the j = 0 members).
    """
    if 2 not in P or 3 not in P:
        raise ValueError("degree-3 parametrization requires 2 and 3 in P")
    for members in classes.values():
        _require_members(members, VARIANT_32I, P)
    if stats is None:
        stats = {}
    stats.setdefault("candidates", 0)
    stats.setdefault("rejected", 0)
    out = {}
    for rep, members in sorted(classes.items()):
        js = sorted(pt.u for pt in members)
        jext = [0] + js
        accepted = {}
        root_cache = {}

        def roots_cached(j, k):
            key = (j, k)
            if key not in root_cache:
                root_cache[key] = roots_of_F(j, k)
            return root_cache[key]

        for j in js:
            a, b = j.numerator, j.denominator
            for j0 in jext:
                ms = roots_cached(j, j0)
                if not ms:
                    continue
                for j1 in jext:
                    ns = roots_cached(j, j1)
                    for m in ms:
                        for n in ns:
                            if m == n:
                                continue
                            stats["candidates"] += 1
                            s = NormalizedPoly(_primitive(
                                _smn_coeffs(a, b, m, n)))
                            if s.degree != 3 or s.discriminant() == 0:
                                stats["rejected"] += 1
                                continue
                            if not check_membership(s, P).ok:
                                stats["rejected"] += 1
                                continue
                            accepted[s.coeffs] = s
        # accepted members have s(0) s(1) != 0, so each image keeps the
        # degree and the action is a group action: a member already in the
        # closure brings no new orbit
        closed = {}
        for s in accepted.values():
            if s.coeffs not in closed:
                for t in s3_orbit(s):
                    closed[t.coeffs] = t
        for s in closed.values():
            if not check_membership(s, P).ok:
                raise AssertionError(f"orbit closure broke membership: {s}")
            out[s.coeffs] = Vertex(s, class_datum=f"cubic:{rep}")
    return sorted(out.values(), key=Vertex.sort_key)


# ---------------------------------------------------------------------------
# ingestion of excellent-unit candidates (degree >= 4, plus cross-checks)


# Published orbit representatives of the known vertex sets over {2}
# (degrees 1, 2 and 4), coefficient lists constant term first.
TABLE5_REPRESENTATIVES = {
    1: ((1, 1),),
    2: ((1, 6, 1), (1, -6, 1), (-1, -2, 1), (1, 0, 1)),
    4: (
        (1, 0, 0, 0, 1), (1, 0, 6, 0, 1),
        (1, -4, -26, -4, 1), (1, 4, -26, 4, 1),
        (1, 28, 70, 28, 1), (1, -28, 70, -28, 1),
        (1, 4, -6, -4, 1), (1, 12, -2, -4, 1), (1, -12, -2, 4, 1),
        (-1, 4, -2, -4, 1), (-1, -4, -2, 4, 1),
        (1, -20, 102, -148, 1), (1, -12, 34, -20, 1),
        (1, 12, 6, 12, 1), (1, -12, 6, -12, 1), (-1, -4, 6, -4, 1),
        (1, -4, -2, -4, 1), (1, 4, -2, 4, 1),
        (1, 20, -26, 20, 1), (1, -20, -26, -20, 1),
        (-1, 0, -2, 0, 1), (1, -4, 10, -12, 1),
        (1, -4, 22, -4, 1), (1, 4, 22, 4, 1), (1, -4, 4, 0, 1),
    ),
}


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: list = field(default_factory=list)   # (coeffs, reason)


def ingest_units(candidates, P: PrimeSet, budget: Budget | None = None):
    """Verify candidate polynomials and expand them into full vertex orbits.

    Every candidate is re-checked for membership and then irreducibility, so
    bad rows in a candidate file are reported and skipped, never admitted.
    Membership goes first because it is cheap, while the irreducibility scan
    grows with the coefficients and would stall on a large non-member.  The
    budget is checked once per candidate and inside the irreducibility scan.
    Returns ({degree: [Vertex]}, IngestReport).
    """
    budget = budget or Budget.from_env()
    report = IngestReport()
    out = {}
    for cand in candidates:
        budget.check()
        if isinstance(cand, NormalizedPoly):
            s = cand
        elif not any(cand):
            report.rejected.append((tuple(cand), "zero"))
            continue
        else:
            s, _ = normalize(list(cand))
        if s.degree < 1:
            report.rejected.append((s.coeffs, "constant"))
            continue
        if not check_membership(s, P).ok:
            report.rejected.append((s.coeffs, "membership"))
            continue
        if not is_irreducible(s, budget):
            report.rejected.append((s.coeffs, "reducible"))
            continue
        report.accepted += 1
        if s.coeffs in out.get(s.degree, ()):
            continue    # its orbit is already in, as in build_degree3
        for t in s3_orbit(s):
            if not check_membership(t, P).ok:
                raise AssertionError(f"orbit of {s} broke membership at {t}")
            out.setdefault(t.degree, {})[t.coeffs] = Vertex(
                t, provenance="ingested")
    return (
        {d: sorted(vs.values(), key=Vertex.sort_key) for d, vs in sorted(out.items())},
        report,
    )


def parse_candidate_file(path):
    """One polynomial per line, integer coefficients constant term first."""
    cands = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            cands.append(tuple(int(x) for x in parts))
    return cands


def cross_validate(vsA: VertexSet, vsB: VertexSet, degree: int):
    """Symmetric difference of the degree slices of two vertex sets."""
    if vsA.P != vsB.P:
        raise ValueError("vertex sets live over different prime sets")
    a = {v.poly.coeffs for v in vsA.degree_slice(degree)}
    b = {v.poly.coeffs for v in vsB.degree_slice(degree)}
    return sorted(a - b), sorted(b - a)


# ---------------------------------------------------------------------------
# orchestration


DEFAULT_HEIGHTS = {
    VARIANT_III: 10 ** 9,
    VARIANT_I2I: 10 ** 9,
    VARIANT_32I: 10 ** 11,
}


def build_vertex_set(P: PrimeSet, max_degree: int,
                     points_by_variant: dict | None = None,
                     candidates=None,
                     budget: Budget | None = None) -> VertexSet:
    """Run the per-degree builders up to max_degree and assemble a VertexSet.

    points_by_variant may supply pre-searched point lists (as read back from
    point-set files); missing variants are searched at the default heights.
    Degrees >= 4 are filled from ingestion candidates when provided.
    """
    budget = budget or Budget.from_env()
    points_by_variant = dict(points_by_variant or {})

    def get_points(variant):
        if variant in points_by_variant:
            pts, cert = points_by_variant[variant]
            return pts, cert
        pts, cert = search_abc(P, variant, DEFAULT_HEIGHTS[variant],
                               budget=budget, classify=False)
        points_by_variant[variant] = (pts, cert)
        return pts, cert

    vs = VertexSet(P)
    if max_degree >= 1:
        pts, cert = get_points(VARIANT_III)
        vs.add_degree(1, build_degree1(pts, P),
                      "complete" if cert.complete else "search-bounded")
    if max_degree >= 2:
        if 2 in P:
            pts, cert = get_points(VARIANT_I2I)
            verts, split, _ = build_degree2(P, pts)
            vs.add_degree(2, verts,
                          "complete" if cert.complete else "search-bounded")
            vs.split_degree2 = split
        else:
            vs.add_degree(2, [], "unsupported: 2 not in prime set")
    if max_degree >= 3:
        if 2 in P and 3 in P:
            pts, cert = get_points(VARIANT_32I)
            _require_members(pts, VARIANT_32I, P)  # before the filter below
            irr = [pt for pt in pts if reference_cubic_partition(pt.u) == (3,)]
            verts = []
            # one class at a time, so the budget is checked between classes
            for rep, members in cubic_classes(irr, budget=budget).items():
                budget.check()
                verts += build_degree3(P, {rep: members})
            vs.add_degree(3, verts,
                          "complete" if cert.complete else "search-bounded")
        else:
            vs.add_degree(3, [], "unsupported: needs 2 and 3 in prime set")
    if max_degree >= 4:
        if candidates is None and P.primes == (2,):
            candidates = [c for d, cs in TABLE5_REPRESENTATIVES.items()
                          for c in cs if d >= 4]
        if candidates:
            ingested, _ = ingest_units(candidates, P, budget=budget)
            for d, verts in ingested.items():
                if 4 <= d <= max_degree:
                    vs.add_degree(d, verts, "conditional (ingested)")
    return vs


# ---------------------------------------------------------------------------
# vertex-set files


def write_vertex_set(path, vs: VertexSet) -> None:
    payload = {
        "schema": VERTEX_SCHEMA,
        "primes": list(vs.P.primes),
        "max_degree": vs.max_degree(),
        "degrees": {
            str(d): {
                "certificate": vs.certificates.get(d, ""),
                "vertices": [
                    {
                        "coeffs": [str(c) for c in v.poly.coeffs],
                        "class": None if v.class_datum is None else str(v.class_datum),
                        "provenance": v.provenance,
                    }
                    for v in verts
                ],
            }
            for d, verts in sorted(vs.by_degree.items())
        },
        "split_degree2": [[str(c) for c in s.coeffs] for s in vs.split_degree2],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_vertex_set(path) -> VertexSet:
    """The vertex set of a vertex-set file; ValueError if malformed."""
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("schema") != VERTEX_SCHEMA:
        raise ValueError(f"not a vertex-set file: {path}")
    try:
        vs = VertexSet(PrimeSet(_json_ints(payload["primes"])))
        for d_str, block in payload["degrees"].items():
            d = int(d_str)
            if d < 1:
                raise ValueError(f"vertex degree {d} is below 1")
            verts = []
            for rec in block["vertices"]:
                poly = NormalizedPoly(_json_ints(rec["coeffs"]))
                if poly.degree != d:
                    raise ValueError(f"{poly} listed under degree {d}")
                datum = rec.get("class")
                if datum is not None and datum.lstrip("-").isdigit():
                    datum = int(datum)
                verts.append(Vertex(poly, class_datum=datum,
                                    provenance=rec.get("provenance", "built")))
            vs.add_degree(d, verts, block.get("certificate", ""))
        vs.split_degree2 = [NormalizedPoly(_json_ints(coeffs))
                            for coeffs in payload.get("split_degree2", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed vertex-set file {path}: {exc!r}") from exc
    return vs
