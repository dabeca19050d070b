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
Degree 3 runs the two-root parametrization s^{m,n}, indexed by a j of a
cubic class and roots m, n of the resolvents F(j, k), k = 0 or k in the
class.  Degree >= 4 is ingestion only: candidate characteristic polynomials
are re-verified, expanded to full orbits and deduplicated, so a candidate
file can never inject a wrong vertex.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt, lcm

from .abc_search import (
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    _json_ints,
    _read_json,
    _shown,
    _write_json,
    canonical_triple,
    cubic_classes,
    delta_classes,
    roots_of_F,
    search_abc,
)
from . import budget
from .poly import (
    NormalizedPoly,
    _primitive,
    check_membership,
    is_irreducible,
    normalize,
    s3_orbit,
)
from .records import Frozen, Record, set_key
from .smooth import PrimeSet, decompose_power, is_smooth

VERTEX_SCHEMA = "polytab.vertices/1"

__all__ = [
    "Vertex", "VertexSet", "build_degree1", "build_degree2", "build_degree3",
    "roots_of_F", "ingest_units", "build_vertex_set",
    "TABLE5_REPRESENTATIVES", "write_vertex_set", "read_vertex_set",
    "parse_candidate_file",
]


class Vertex(Frozen):
    __slots__ = ()
    _fields = ("poly", "class_datum", "provenance")

    def __init__(self, poly, class_datum=None, provenance="built"):
        set_key(self, (poly, class_datum, provenance))

    @property
    def degree(self) -> int:
        return self.poly.degree

    def sort_key(self):
        return self.poly.sort_key()


class VertexSet(Record):
    def __init__(self, P, by_degree=None, certificates=None,
                 split_degree2=None):
        self.P = P
        # degree -> sorted [Vertex]
        self.by_degree = {} if by_degree is None else by_degree
        # degree -> status str
        self.certificates = {} if certificates is None else certificates
        # sorted [NormalizedPoly], the degree-2 members with square
        # discriminant: products of two linear members, so not vertices,
        # but counted by the per-class tables
        self.split_degree2 = [] if split_degree2 is None else split_degree2

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


def _orbit_closure(polys, P: PrimeSet) -> dict:
    """The union of the S3 orbits of the members polys, keyed by coeffs.

    Members have s(0) s(1) != 0, so the action is a group action and a
    member already in the closure brings no new orbit.  A non-member image
    raises AssertionError, which python -O keeps.
    """
    closed = {}
    for s in polys:
        if s.coeffs not in closed:
            for t in s3_orbit(s):
                closed[t.coeffs] = t
    for t in closed.values():
        if not check_membership(t, P).ok:
            raise AssertionError(f"orbit closure broke membership: {t}")
    return closed


# ---------------------------------------------------------------------------
# degree 1


# the power k of each side of (A, B, C): a side is (smooth) * x^k
_VARIANT_POWERS = {VARIANT_III: (1, 1, 1), VARIANT_I2I: (1, 2, 1),
                   VARIANT_32I: (3, 2, 1)}


def _require_members(points, variant, P: PrimeSet):
    """ValueError unless every point is a variant point over P, listed once.

    The builders take points from files, so a point of the wrong variant,
    with a side of the wrong shape, or listed twice is refused, not skipped.
    A 3-2-inf point listed twice would list roots of F twice in
    `build_degree3`.
    """
    seen = set()
    for pt in points:
        if pt.variant != variant:
            raise ValueError(f"expected {variant} points, got {pt.variant}")
        if pt.u in seen:
            raise ValueError(f"{variant} point u = {pt.u} is listed twice")
        seen.add(pt.u)
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
    discriminant, which `is_irreducible` reads); they are returned
    normalized but are not vertices.

    The class members and the sentinel 1 are primitive pairs, w = n/d with
    d > 0.  For w0 = a/b and w1 = c/d the root of the triple relation is
    R/(b d) with R^2 = a (b - a) c (d - c), and

        winf = (a d + c b - 2 a c +- 2 R) / (b d),

    reduced by one gcd and looked up among the pairs.  The quadratic
    w0 + (w1 - w0 - winf) t + winf t^2 is cleared by L = lcm(b, d, den winf).
    The budget is polled once per w0.

    Lemma: every triple gives a member, so none is tested.  The points have
    passed `_require_members`, so for each point u = a/b, a = -+A and
    b = +-C are P-smooth, and a (b - a) = A B = delta y^2, delta its class.
    Two points of one class give the square delta^2 y^2 y'^2, and the
    sentinel gives 0, so R = isqrt(...) is exact.  winf != 0 is checked, so
    the t^2 coefficient is nonzero and the degree is 2.  The values at 0, 1
    and inf are a L/b, c L/d and e L/f, each divided by the content: nonzero
    and P-smooth, because every w is a point coordinate or the sentinel 1.
    winf solves the triple relation, so the discriminant is
    -4 w0 w1 winf L^2 over the content squared: a nonzero integer whose
    primes divide 2 a c e L, all in P.
    """
    if 2 not in P:
        raise ValueError("degree-2 parametrization requires 2 in P")
    _require_members(points, VARIANT_I2I, P)
    classes = delta_classes(points, P)
    irreducible = {}
    split = {}
    stats = {"triples": 0}
    for delta, members in sorted(classes.items()):
        ws = [(1, 1)] + [(u.numerator, u.denominator)
                         for u in sorted(pt.u for pt in members)]
        wset = set(ws)
        for a, b in ws:
            budget.check()
            ab = a * (b - a)
            for c, d in ws:
                R = isqrt(ab * c * (d - c))
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
                    if is_irreducible(s):
                        irreducible[s.coeffs] = Vertex(s, class_datum=delta)
                    else:
                        split[s.coeffs] = s
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
    """Vertices of degree 3 from cubic classes {"a/b": [3-2-inf points]}.

    For each j in a class, the roots of F(j, k) for k = 0 and every k in
    the class form one list, and each unordered pair {m, n} of it gives one
    candidate s^{m,n}.  Members (check_membership also fails a zero
    discriminant) are closed under the marked-point action, which adds the
    j = 0 members and the swapped pairs, and labelled "cubic:<rep>".  stats
    counts candidates and rejected ones.  The budget is polled once per j.

    No root is listed twice, so m != n and s^{m,n} has degree 3.  The k of
    the list are distinct, as `_require_members` refuses a repeated point.
    With F = k G^2 - j H^3, a finite root of F(j, k1) and F(j, k2),
    k1 != k2, is a root of G and H, whose resultant 16 j (j - 1)^3 is
    nonzero; and inf is a root for one k only.
    Swap: _smn_coeffs(a, b, n, m) is _smn_coeffs(a, b, m, n) at t -> 1 - t
    (D goes to -D, and D + p, D + q are the swapped p, q), so s^{n,m} is a
    member exactly when s^{m,n} is, and the closure, which re-checks every
    image, adds it.
    """
    if 2 not in P or 3 not in P:
        raise ValueError("degree-3 parametrization requires 2 and 3 in P")
    for members in classes.values():
        _require_members(members, VARIANT_32I, P)
    stats = {} if stats is None else stats
    stats.setdefault("candidates", 0)
    stats.setdefault("rejected", 0)
    out = {}
    for rep, members in sorted(classes.items()):
        js = sorted(pt.u for pt in members)
        accepted = []
        for j in js:
            budget.check()
            a, b = j.numerator, j.denominator
            roots = [m for k in [0] + js for m in roots_of_F(j, k)]
            for m, n in combinations(roots, 2):
                stats["candidates"] += 1
                s = NormalizedPoly(_primitive(_smn_coeffs(a, b, m, n)))
                if check_membership(s, P).ok:
                    accepted.append(s)
                else:
                    stats["rejected"] += 1
        for t in _orbit_closure(accepted, P).values():
            out[t.coeffs] = Vertex(t, class_datum=f"cubic:{rep}")
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


class IngestReport(Record):
    def __init__(self, accepted=0, rejected=None):
        self.accepted = accepted
        # (coeffs, reason)
        self.rejected = [] if rejected is None else rejected


def ingest_units(candidates, P: PrimeSet):
    """Verify candidate polynomials and expand them into full vertex orbits.

    Every candidate is re-checked for membership and then irreducibility, so
    bad rows in a candidate file are reported and skipped, never admitted.
    Membership goes first because it is cheap and rejects most bad rows;
    irreducibility of degree 4 and up is decided by factor_small (modular
    factoring with recombination, sound for every size of coefficient).  The
    budget is checked once per candidate, inside the discriminant's PRS and
    inside factor_small's loops.
    Returns ({degree: [Vertex]}, IngestReport).
    """
    report = IngestReport()
    accepted = []
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
        if not is_irreducible(s):
            report.rejected.append((s.coeffs, "reducible"))
            continue
        report.accepted += 1
        accepted.append(s)
    out = {}
    for t in _orbit_closure(accepted, P).values():
        out.setdefault(t.degree, []).append(Vertex(t, provenance="ingested"))
    return {d: sorted(vs, key=Vertex.sort_key)
            for d, vs in sorted(out.items())}, report


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


# ---------------------------------------------------------------------------
# orchestration


DEFAULT_HEIGHTS = {
    VARIANT_III: 10 ** 9,
    VARIANT_I2I: 10 ** 9,
    VARIANT_32I: 10 ** 11,
}


def build_vertex_set(P: PrimeSet, max_degree: int,
                     points_by_variant: dict | None = None,
                     candidates=None) -> VertexSet:
    """Run the per-degree builders up to max_degree and assemble a VertexSet.

    points_by_variant may supply pre-searched point lists (as read back from
    point-set files); missing variants are searched at the default heights.
    Degree 3 decides the cubic classes from the points' j alone, whatever
    labels they carry.  Degrees >= 4 are filled from ingestion candidates
    when provided.
    """
    points_by_variant = dict(points_by_variant or {})

    def get_points(variant):
        """The points of variant and the certificate of their degree."""
        if variant not in points_by_variant:
            points_by_variant[variant] = search_abc(
                P, variant, DEFAULT_HEIGHTS[variant])
        pts, cert = points_by_variant[variant]
        return pts, "complete" if cert.complete else "search-bounded"

    vs = VertexSet(P)
    if max_degree >= 1:
        pts, status = get_points(VARIANT_III)
        vs.add_degree(1, build_degree1(pts, P), status)
    if max_degree >= 2:
        if 2 in P:
            pts, status = get_points(VARIANT_I2I)
            verts, vs.split_degree2, _ = build_degree2(P, pts)
            vs.add_degree(2, verts, status)
        else:
            vs.add_degree(2, [], "unsupported: 2 not in prime set")
    if max_degree >= 3:
        if 2 in P and 3 in P:
            pts, status = get_points(VARIANT_32I)
            _require_members(pts, VARIANT_32I, P)  # before cubic_classes
            vs.add_degree(3, build_degree3(P, cubic_classes(pts, P)), status)
        else:
            vs.add_degree(3, [], "unsupported: needs 2 and 3 in prime set")
    if max_degree >= 4:
        if candidates is None and P.primes == (2,):
            candidates = [c for d, cs in TABLE5_REPRESENTATIVES.items()
                          for c in cs if d >= 4]
        if candidates:
            ingested, _ = ingest_units(candidates, P)
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
    _write_json(path, payload)


def read_vertex_set(path) -> VertexSet:
    """The vertex set of a vertex-set file; ValueError if malformed."""
    payload = _read_json(path, VERTEX_SCHEMA)
    try:
        vs = VertexSet(PrimeSet(_json_ints(payload["primes"])))
        for d_str, block in payload["degrees"].items():
            d = int(d_str)
            if d < 1:
                raise ValueError(f"vertex degree {_shown(d_str)} is below 1")
            verts = []
            for rec in block["vertices"]:
                poly = NormalizedPoly(_json_ints(rec["coeffs"]))
                if poly.degree != d:
                    raise ValueError(f"a degree-{poly.degree} polynomial "
                                     f"listed under degree {d}")
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
