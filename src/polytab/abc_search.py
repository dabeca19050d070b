"""Height-bounded searches for the three ABC-triple variant sets.

A triple is a pairwise coprime (A, B, C) with A + B + C = 0 and ABC < 0,
encoded by the rational u = -A/C.  The three variants relax which slots must
be smooth outright versus smooth times a square or cube:

    inf-inf-inf : A, B, C all smooth
    inf-2-inf   : A, C smooth, B = b y^2 with b smooth
    3-2-inf     : C smooth, A = a x^3, B = b y^2 with a, b smooth

The searches enumerate the structured sides from smooth generators and test
the remaining side by stripping the prime set and checking the cofactor.

inf-2-inf and 3-2-inf skip most of those tests with a residue sieve.  Let q
be a prime outside P modulo which -1 and every p in P are squares.  Then a
square times a P-smooth number, of either sign, is a square or 0 mod q, so
only the pairs (a, c) with a + c or a - c a square or 0 mod q can hold a
point.  Byte-lane masks indexed by a mod q select those c for each a, and a
table is built only where it costs less than the tests it removes
(_pair_search).
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress
from math import isqrt

from . import budget
from .poly import NormalizedPoly, normalize, rational_roots
from .records import Frozen, set_key
from .smooth import PrimeSet, _is_prime, decompose_power, smooth_numbers_up_to

VARIANT_III = "inf-inf-inf"
VARIANT_I2I = "inf-2-inf"
VARIANT_32I = "3-2-inf"
VARIANTS = (VARIANT_III, VARIANT_I2I, VARIANT_32I)

POINTS_SCHEMA = "polytab.points/1"

# (prime superset, proven-complete height, source) per variant: a search is
# certifiably complete when its primes lie inside a superset and its height
# bound reaches the corresponding cutoff
COMPLETENESS_SOURCES = {
    VARIANT_III: (
        (frozenset({2, 3, 5, 7}), 4375, "de Weger, Algorithms for diophantine equations, Thm 5.4"),
        (frozenset({2, 3, 5, 7, 11}), 18255, "de Weger, Algorithms for diophantine equations, Thm 5.4"),
        (frozenset({2, 3, 5, 7, 11, 13}), 1771561, "de Weger, Algorithms for diophantine equations, Thm 5.4"),
    ),
    VARIANT_I2I: (
        (frozenset({2, 3, 5}), 64000, "Cremona, elliptic curve tables"),
    ),
    VARIANT_32I: (
        (frozenset({2, 3}), 67867385039, "Coghlan (j-invariants over {2,3}); Cremona"),
    ),
}


class AbcPoint(Frozen):
    """A variant point u = -A/C.  class_datum is the square class of u(1-u)
    for inf-2-inf, the reference-cubic partition "3", "21" or "111" for
    3-2-inf (a label the vertex stage never reads), None for inf-inf-inf."""

    __slots__ = ()
    _fields = ("variant", "A", "B", "C", "u", "class_datum")

    def __init__(self, variant, A, B, C, u, class_datum=None):
        set_key(self, (variant, A, B, C, u, class_datum))

    @property
    def height(self) -> int:
        return max(abs(self.A), abs(self.C))

    def sort_key(self):
        return (self.height, self.u)


class SearchCertificate(Frozen):
    __slots__ = ()
    _fields = ("primes", "variant", "height_bound", "complete", "citation")

    def __init__(self, primes, variant, height_bound, complete, citation=None):
        set_key(self, (primes, variant, height_bound, complete, citation))


def canonical_triple(u: Fraction):
    """The unique pairwise coprime (A, B, C), sum 0 and ABC < 0, with u = -A/C."""
    if u == 0 or u == 1:
        raise ValueError("u must avoid 0 and 1")
    n, d = u.numerator, u.denominator
    A, B, C = -n, n - d, d
    if A * B * C > 0:
        A, B, C = -A, -B, -C
    return A, B, C


def _square_class(n: int, P: PrimeSet) -> int:
    """The square-free d with n = d y^2, read off the P-exponents of n;
    ValueError unless n is P-smooth times a square."""
    got = decompose_power(n, 2, P)
    if got is None:
        raise ValueError(f"{n} is not P-smooth times a square over {P}")
    return got[0]


def reference_cubic(j: Fraction) -> NormalizedPoly:
    """Normalized integer model of the cubic 4(j-1)t^3 - 27j t - 27j."""
    p, q = j.numerator, j.denominator
    return normalize([-27 * p, -27 * p, 0, 4 * (p - q)])[0]


def reference_cubic_partition(j: Fraction) -> tuple:
    """Factorization partition of the reference cubic: (3,), (2,1) or (1,1,1)."""
    s = reference_cubic(j)
    nroots = len(rational_roots(s.coeffs))
    return {0: (3,), 1: (2, 1), 3: (1, 1, 1)}[nroots]


# ---------------------------------------------------------------------------
# the F-resolvent attached to a pair of j-invariants (used for class splitting
# and for the degree-3 parametrization)


def f_resolvent_coeffs(j: Fraction, k: Fraction) -> list:
    """Integer coefficients (constant first) of b^4 d F(j,k,y) for j = a/b
    and k = c/d in lowest terms, where F is the degree-6 resolvent

        F(j,k,y) = k (j^2 y^3 - 2 j y^3 + 3 j y^2 - 3 j y + 1)^2
                   - j (j y^2 - 2 y + 1)^3.

    Each coefficient of F has degree <= 4 in j and <= 1 in k.
    """
    a, b, c, d = j.numerator, j.denominator, k.numerator, k.denominator
    return [
        b ** 3 * (b * c - a * d),
        -6 * a * b ** 3 * (c - d),
        3 * a * b * b * (3 * a * c - a * d + 2 * b * c - 4 * b * d),
        -4 * a * b * b * (4 * a * c - 3 * a * d + b * c - 2 * b * d),
        -3 * a * a * b * (2 * a * c + a * d - 7 * b * c + 4 * b * d),
        6 * a * a * b * (a * c + a * d - 2 * b * c),
        a * a * (a * a * c - a * a * d - 4 * a * b * c + 4 * b * b * c),
    ]


def roots_of_F(j: Fraction, k: Fraction) -> list:
    """The distinct roots of F(j,k,y) in P^1(Q), as primitive pairs (n, d).

    The finite roots come first, ascending; inf = (1, 0) is a root when the
    y^6 coefficient vanishes.  Requires j outside {0, 1}.

    For k = 0 and j = a/b, b^4 F(j,0,y) = -a (a y^2 - 2b y + b)^3, whose
    y^6 coefficient -a^4 is nonzero: the roots are those of the quadratic.
    """
    if j in (0, 1):
        raise ValueError("j must avoid 0 and 1")
    if k == 0:
        return rational_roots([j.denominator, -2 * j.denominator, j.numerator])
    coeffs = f_resolvent_coeffs(j, k)
    roots = rational_roots(coeffs)
    if coeffs[-1] == 0:
        roots.append((1, 0))
    return roots


def has_rational_root_F(j: Fraction, k: Fraction) -> bool:
    return bool(roots_of_F(j, k))


# ---------------------------------------------------------------------------
# searches


def _emptiness_certificate(P, variant, H, complete, citation):
    return [], SearchCertificate(P.primes, variant, H, complete, citation)


def _certify(P, variant, H):
    for superset, cutoff, source in COMPLETENESS_SOURCES.get(variant, ()):
        if set(P.primes) <= superset and H >= cutoff:
            return True, source
    return False, None


def _by_support(xs, primes) -> dict:
    """Map each prime-support bitmask (bit i set when primes[i] divides x) to
    the x in xs with that support.  Two numbers are coprime exactly when their
    masks are disjoint, so pair loops over disjoint buckets need no gcd.  The
    budget is checked once per 1024 numbers."""
    out = {}
    for k, x in enumerate(xs):
        if not k & 1023:
            budget.check()
        mask = 0
        for i, p in enumerate(primes):
            if x % p == 0:
                mask |= 1 << i
        out.setdefault(mask, []).append(x)
    return out


def _search_iii(smooth, sset, primes, H: int):
    """Coprime smooth a, b with a + b in sset give the S3 orbit of -a/b.

    a + b is coprime to both, so it needs only the lookup.  Each unordered
    pair is visited once: masks ma < mb, plus (0, 0) for 1 + 1.
    """
    buckets = _by_support(smooth, primes)
    us = set()
    for ma, xs in buckets.items():
        partners = [ys for mb, ys in buckets.items() if ma & mb == 0 and ma <= mb]
        for a in xs:
            budget.check()
            for ys in partners:
                for b in ys:
                    c = a + b
                    if c in sset:
                        for A, C in ((a, b), (b, a), (a, -c), (-c, a), (b, -c), (-c, b)):
                            if max(abs(A), abs(C)) <= H:
                                us.add(Fraction(-A, C))
    return us


def _sieve_primes(primes, bound: int) -> list:
    """The (at most four) smallest odd primes q < bound outside P modulo which
    -1 and every p in P are squares, found by Euler's criterion.  -1 is a
    square mod an odd prime q exactly when q = 1 mod 4, and a q in P fails
    the test at p = q."""
    out = []
    for q in range(5, bound, 4):
        if all(pow(p, (q - 1) // 2, q) == 1 for p in primes) and _is_prime(q):
            out.append(q)
            if len(out) == 4:
                break
    return out


def _squares_mod(q: int) -> list:
    """The squares mod q, 0 included, ascending."""
    return sorted({x * x % q for x in range(q)})


def _residue_table(vs, q: int) -> list:
    """Lane masks with one byte per value: table[t] has byte i equal to 1
    when t + vs[i] is a square or 0 mod q, and to 0 otherwise."""
    square = bytearray(2 * q)
    for s in _squares_mod(q):
        square[s] = square[s + q] = 1
    # row i, square[v : v + q] for v = vs[i] mod q, holds the bytes of value i
    # for t = 0 .. q - 1; column t, every q-th byte from t, is table[t]
    rows = b"".join(square[v % q:v % q + q] for v in vs)
    return [int.from_bytes(rows[t::q], "little") for t in range(q)]


def _pair_search(acands, smooth, primes):
    """Shared loop for inf-2-inf and 3-2-inf: for coprime a in acands and c in
    smooth, test B = a + c and B = |a - c| for the square-times-smooth shape.
    acands maps prime supports to a values, as _by_support does.  B is coprime
    to a and c, so only the primes outside both supports are stripped from it
    before the isqrt test.

    Most pairs never reach that test.  Let q be an odd prime outside P modulo
    which -1 and every p in P are squares (_sieve_primes).  Then a square
    times a P-smooth number, or its negative, is a square or 0 mod q.  So
    a + v, for v = c or v = -c, can only pass when it is a square or 0 mod q.
    Each bucket of c values holds its lanes v = c and v = -c, one byte each,
    and a table per q gives the lanes that can pass for each a mod q
    (_residue_table).  Per a, the lanes set in every table of the bucket go
    to the exact test; a bucket with no tables sends all its lanes.

    Cost rule: the k-th q (from 0) halves the exact tests that the smaller q
    leave of the 2 n na in a bucket of n values of c paired with na values of
    a, so it removes n na / 2^k of them.  A bucket uses it while that is more
    than its cost counted in exact tests: 2 q + n + n q / 32 to build the
    table (per column, per value and per byte, as timed on CPython 3.11) and
    na lookups.  The budget is checked once per bucket while they are sized,
    once per table and once per a.
    """
    cbuckets = []
    for mc, cs in _by_support(smooth, primes).items():
        budget.check()
        na = sum(len(xs) for ma, xs in acands.items() if ma & mc == 0)
        cbuckets.append((mc, cs, len(cs), na))
    # no bucket can pay for a q with 2 q >= n na
    qs = _sieve_primes(primes, max(n * na for *_, n, na in cbuckets) // 2)
    blocks = []
    for mc, cs, n, na in cbuckets:
        lanes = cs + [-c for c in cs]
        tables = []
        for k, q in enumerate(qs):
            if 2 * q + n + n * q // 32 + na >= n * na >> k:
                break
            budget.check()
            tables.append((q, _residue_table(lanes, q)))
        blocks.append((mc, lanes, tables))
    us = set()
    for ma, xs in acands.items():
        partners = [([p for i, p in enumerate(primes)
                      if not (ma | mc) >> i & 1], *block)
                    for mc, *block in blocks if ma & mc == 0]
        for a in xs:
            budget.check()
            for free, lanes, tables in partners:
                if tables:
                    mask = -1
                    for q, table in tables:
                        mask &= table[a % q]
                    lanes = compress(lanes,
                                     mask.to_bytes(len(lanes), "little"))
                for c in lanes:
                    b = a + c
                    if b < 0:
                        b = -b
                    elif not b:
                        continue
                    for p in free:
                        while b % p == 0:
                            b //= p
                    r = isqrt(b)
                    if r * r == b:
                        us.add(Fraction(-a, c))
    return us


def _cube_candidates(smooth, primes, H: int) -> dict:
    """All positive a = s x^3 <= H with s smooth and x prime to P, bucketed
    by prime support as _by_support does: the support of a is that of s.
    The budget is checked once per bucket."""
    cubes = []
    x = 1
    while x * x * x <= H:
        if all(x % p for p in primes):
            cubes.append(x * x * x)
        x += 1
    out = {}
    for mask, ss in _by_support(smooth, primes).items():
        budget.check()
        out[mask] = [s * x3 for s in ss
                     for x3 in cubes[:bisect_right(cubes, H // s)]]
    return out


def search_abc(P: PrimeSet, variant: str, H: int, workers: int = 1):
    """All variant points of height <= H, sorted by (height, u), plus certificate.

    inf-inf-inf and inf-2-inf return empty immediately when 2 is outside P:
    the former is genuinely empty (three odd numbers cannot sum to zero), the
    latter is excluded from this package's contract because the degree-2
    parametrization downstream requires 2 in P.

    Each point carries its class_datum (see AbcPoint).  The cubic classes
    that split the irreducible 3-2-inf points are not decided here:
    vertices.build_vertex_set computes them, once, from the points.

    The searches are serial loops over coprime pairs, with the budget checked
    once per outer candidate; their set-up (the smooth numbers, their prime
    supports and the bucket sizes) checks it too.  workers is accepted and
    ignored.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if H < 1:
        raise ValueError("height bound must be >= 1")
    budget.require_height(H)

    if variant == VARIANT_III and 2 not in P:
        return _emptiness_certificate(
            P, variant, H, True, "empty: odd smooth numbers cannot sum to zero")
    if variant == VARIANT_I2I and 2 not in P:
        return _emptiness_certificate(
            P, variant, H, False, "unsupported: degree-2 parametrization needs 2 in P")

    smooth = smooth_numbers_up_to(P, 2 * H if variant == VARIANT_III else H)
    if variant == VARIANT_III:
        # a + b is at most 2 H: one list to 2 H, cut at H for a and b
        us = _search_iii(smooth[:bisect_right(smooth, H)], set(smooth),
                         P.primes, H)
    elif variant == VARIANT_I2I:
        us = _pair_search(_by_support(smooth, P.primes), smooth, P.primes)
    else:
        us = _pair_search(_cube_candidates(smooth, P.primes, H), smooth,
                          P.primes)

    points = []
    for u in us:
        A, B, C = canonical_triple(u)
        if variant == VARIANT_I2I:
            datum = _square_class(A * B, P)
        elif variant == VARIANT_32I:
            datum = "".join(str(d) for d in reference_cubic_partition(u))
        else:
            datum = None
        points.append(AbcPoint(variant, A, B, C, u, datum))
    points.sort(key=AbcPoint.sort_key)

    complete, citation = _certify(P, variant, H)
    return points, SearchCertificate(P.primes, variant, H, complete, citation)


# ---------------------------------------------------------------------------
# class decompositions


def delta_classes(points, P: PrimeSet) -> dict:
    """Partition inf-2-inf points over P by the square class of
    u(1-u) = A B / C^2, read off the P-exponents of A B."""
    out = {}
    for pt in points:
        if pt.variant != VARIANT_I2I:
            raise ValueError("delta_classes expects inf-2-inf points")
        out.setdefault(_square_class(pt.A * pt.B, P), []).append(pt)
    return out


def cubic_classes(points, P: PrimeSet) -> dict:
    """Group the 3-2-inf points over P with irreducible reference cubic.

    Each reference cubic is built once; a point whose cubic has a rational
    root is left out.  For j = -A/C the discriminant is 16 3^9 A^2 B C / g^4,
    g the cubic's content, so its square class is read off the P-exponents.
    j ~ k when F(j,k,y) has a root in Q union {inf}, that is when the two
    cubics define isomorphic fields, and isomorphic fields share that class.

    Lemma: ~ is an equivalence relation, so whether a point is related to a
    class is decided by any one member.  The points are taken in (height,
    u) order, and each is tested against the first member of every class
    of its square class so far: it joins the first class it is related to,
    or starts a new one.  That first member is the class's representative
    of minimal (height, u), which keys the map, and the members come in
    order.  The budget is checked once per point.
    """
    out, by_square = {}, {}
    for pt in sorted(points, key=AbcPoint.sort_key):
        budget.check()
        s = reference_cubic(pt.u)
        if rational_roots(s.coeffs):
            continue
        same = by_square.setdefault(_square_class(s.discriminant(), P), [])
        for members in same:
            if has_rational_root_F(pt.u, members[0].u):
                members.append(pt)
                break
        else:
            same.append([pt])
            out[f"{pt.u.numerator}/{pt.u.denominator}"] = same[-1]
    return out


# ---------------------------------------------------------------------------
# polytab files: one writer per format and one JSON reader


@contextmanager
def _output(path):
    """A text stream on path, closed on exit; "-" is stdout, left open."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _write_json(path, payload) -> None:
    """payload as indented JSON and a newline, streamed to path."""
    with _output(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _write_lines(path, lines) -> int:
    """Each line and a newline, streamed to path; the number of lines."""
    count = 0
    with _output(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            count += 1
    return count


def write_points(path, points, cert: SearchCertificate) -> None:
    payload = {
        "schema": POINTS_SCHEMA,
        "variant": cert.variant,
        "primes": list(cert.primes),
        "height_bound": str(cert.height_bound),
        "complete": cert.complete,
        "citation": cert.citation,
        "points": [
            {
                "A": str(pt.A),
                "B": str(pt.B),
                "C": str(pt.C),
                "u": f"{pt.u.numerator}/{pt.u.denominator}",
                "class": None if pt.class_datum is None else str(pt.class_datum),
            }
            for pt in points
        ],
    }
    _write_json(path, payload)


def _shown(x, width: int = 80) -> str:
    """repr(x) for an error message, cut to width characters."""
    text = repr(x)
    return text if len(text) <= width else text[:width - 3] + "..."


def _json_int(x) -> int:
    """An integer field of a JSON file: a JSON integer or a decimal string.

    Floats and booleans are refused, where int() would truncate them.
    """
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not an integer: {_shown(x)}")
    return int(x)


def _json_ints(xs) -> tuple:
    """A JSON list of integer fields, as a tuple of ints."""
    if not isinstance(xs, list):
        raise ValueError(f"not a list of integers: {_shown(xs)}")
    return tuple(_json_int(x) for x in xs)


def _read_json(path, schema: str) -> dict:
    """The JSON object of a file tagged with schema; ValueError if it is not
    JSON, nests too deeply for the parser or carries another tag."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path} nests too deeply") from exc
    if not isinstance(payload, dict) or payload.get("schema") != schema:
        raise ValueError(f"not a {schema} file: {path}")
    return payload


def read_points(path):
    """Points and certificate of a point-set file; ValueError if malformed."""
    payload = _read_json(path, POINTS_SCHEMA)
    try:
        variant = payload["variant"]
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {_shown(variant)}")
        complete = payload["complete"]
        if not isinstance(complete, bool):
            raise ValueError(f"'complete' is not a boolean: {_shown(complete)}")
        points = []
        for rec in payload["points"]:
            num, den = rec["u"].split("/")
            u = Fraction(int(num), int(den))
            datum = rec.get("class")
            if variant == VARIANT_I2I and datum is not None:
                datum = _json_int(datum)
            pt = AbcPoint(variant, _json_int(rec["A"]), _json_int(rec["B"]),
                          _json_int(rec["C"]), u, datum)
            if (pt.A, pt.B, pt.C) != canonical_triple(u):
                raise ValueError(f"triple ({pt.A}, {pt.B}, {pt.C}) is not "
                                 f"the triple of u = {u}")
            points.append(pt)
        cert = SearchCertificate(
            _json_ints(payload["primes"]), variant,
            _json_int(payload["height_bound"]), complete,
            payload.get("citation"))
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed point-set file {path}: {exc!r}") from exc
    return points, cert
