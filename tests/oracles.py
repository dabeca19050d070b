"""Independent oracles used by the test suite.

These deliberately avoid the algorithms used by the package: resultants via
the Sylvester determinant (fraction-free Gaussian elimination) or closed
forms for small degrees, smoothness via naive trial-division filters,
searches via brute-force double loops.
"""

from fractions import Fraction
from math import gcd, isqrt

from polytab.abc_search import VARIANT_I2I, delta_classes
from polytab.cliques import CompatGraph, Packet, _group_label
from polytab.poly import (
    S3_ELEMENTS,
    NormalizedPoly,
    _primitive,
    check_membership,
    factor_small,
    normalize,
    poly_mul,
    rational_roots,
    special_values,
)
from polytab.vertices import Vertex, _require_members, _smn_coeffs, roots_of_F

# the point at infinity of the Fraction oracles below; the package writes
# points of P^1(Q) as primitive integer pairs, with inf = (1, 0)
INF = "inf"


def sylvester_matrix(f, g):
    """Sylvester matrix of two integer polynomials (constant-first lists)."""
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows = []
    frow = list(reversed(f))  # highest degree first
    grow = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - n - 1 - i))
    return rows


def det_bareiss(matrix):
    """Exact integer determinant by Bareiss fraction-free elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant_sylvester(f, g):
    """Resultant as the Sylvester determinant (the sign-convention anchor)."""
    if len(f) - 1 == 0 and len(g) - 1 == 0:
        return 1
    return det_bareiss(sylvester_matrix(f, g))


def _res_22(f, g):
    a0, a1, a2 = f
    b0, b1, b2 = g
    return (a2 * b0 - a0 * b2) ** 2 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)


def _res_1k(f, g):
    # Res(f1 t + f0, g) = f1^deg(g) * g(-f0/f1), expanded to stay in Z
    f0, f1 = f
    dg = len(g) - 1
    acc = 0
    p = 1  # (-f0)^i
    for i in range(dg + 1):
        acc += g[i] * p * f1 ** (dg - i)
        p *= -f0
    return acc


def _res_33(f, g):
    # det of the Bezout matrix of two length-4 coefficient lists, built from
    # the Pluecker minors m_ij = a_i b_j - a_j b_i (see resultant_closed_form)
    a0, a1, a2, a3 = f
    b0, b1, b2, b3 = g
    m01 = a0 * b1 - a1 * b0
    m02 = a0 * b2 - a2 * b0
    m03 = a0 * b3 - a3 * b0
    m12 = a1 * b2 - a2 * b1
    m13 = a1 * b3 - a3 * b1
    m23 = a2 * b3 - a3 * b2
    mid = m03 + m12
    return (m01 * (mid * m23 - m13 * m13) - m02 * (m02 * m23 - m13 * m03)
            + m03 * (m02 * m13 - mid * m03))


def resultant_closed_form(f, g) -> int:
    """The resultant by hand-derived closed forms up to degree 3 x 3, for
    checking resultants in bulk (a few times faster than the PRS).

    f and g are trimmed integer coefficient lists (nonzero leading
    coefficient), constant term first; the result has the Sylvester sign.

    - deg f = 1: Res(f1 t + f0, g) = sum_i g_i (-f0)^i f1^(deg g - i).
    - 2 x 2: (a2 b0 - a0 b2)^2 - (a2 b1 - a1 b2)(a1 b0 - a0 b1).
    - 3 x 3, 3 x 2, 2 x 3: pad both to four coefficients a_i, b_i and take
      the Bezout matrix of the minors m_ij = a_i b_j - a_j b_i,
          B = [[m01, m02,       m03],
               [m02, m03 + m12, m13],
               [m03, m13,       m23]].
      For two cubics det B = Res(f, g) with the Sylvester sign, and for a
      quadratic f (a3 = 0) and a cubic g, det B = -b3 Res(f, g); both are
      polynomial identities in the a_i, b_i (checked symbolically).  The
      cubic-quadratic case follows: swapping f and g negates every m_ij
      and hence det B, while Res(g, f) = (-1)^(deg f deg g) Res(f, g)
      = Res(f, g) for degrees 3 and 2, so with b3 = 0, det B = a3 Res(f, g).
      The mixed pairs therefore divide det B exactly by the cubic's
      leading coefficient.

    Degree 1 in g is served by the first case and that same sign rule; every
    other pair goes to the Sylvester determinant.
    """
    df, dg = len(f) - 1, len(g) - 1
    if df == 1:
        return _res_1k(f, g)
    if dg == 1:
        s = -1 if (df * dg) % 2 else 1
        return s * _res_1k(g, f)
    if df == 2 and dg == 2:
        return _res_22(f, g)
    if df == 3:
        if dg == 3:
            return _res_33(f, g)
        if dg == 2:
            return _res_33(f, (*g, 0)) // f[3]
    elif df == 2 and dg == 3:
        return -_res_33((*f, 0), g) // g[3]
    return resultant_sylvester(f, g)


def smooth_filter_naive(primes, H):
    """All P-smooth numbers in [1, H] by trial division of every integer."""
    out = []
    for n in range(1, H + 1):
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            out.append(n)
    return out


def factor_over_division_loop(n, primes):
    """(sign, ((p, e), ...), rough) by dividing out one p at a time."""
    m = abs(n)
    exps = []
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            exps.append((p, e))
    return (1 if n > 0 else -1), tuple(exps), m


def is_smooth_naive(n, primes):
    if n == 0:
        return False
    m = abs(n)
    for p in primes:
        while m % p == 0:
            m //= p
    return m == 1


def abc_brute_force(primes, variant, H):
    """All variant u-values with height <= H by a double loop over (A, C).

    Candidate |A| and |C| lists come from per-integer trial division over
    [1, H]; only feasible for small H.  Cross-checks the structured search.
    """
    from math import isqrt

    def rough(n):
        m = abs(n)
        for p in primes:
            while m % p == 0:
                m //= p
        return m

    def is_cube(n):
        c = round(n ** (1 / 3))
        return any((c + d) ** 3 == n for d in (-1, 0, 1, 2))

    smooth_abs = [n for n in range(1, H + 1) if rough(n) == 1]
    if variant == "32i":
        a_abs = [n for n in range(1, H + 1) if is_cube(rough(n))]
    else:
        a_abs = smooth_abs

    def ok_B(n):
        if variant == "iii":
            return rough(n) == 1
        r = rough(n)
        s = isqrt(r)
        return s * s == r

    us = set()
    for absA in a_abs:
        for A in (absA, -absA):
            for absC in smooth_abs:
                if gcd(absA, absC) != 1:
                    continue
                for C in (absC, -absC):
                    B = -A - C
                    if B == 0 or not ok_B(B):
                        continue
                    u = Fraction(-A, C)
                    if u != 0 and u != 1:
                        us.add(u)
    return us


def abc_gcd_pair_search(primes, variant, H):
    """All variant u-values with height <= H by the plain pair loops: every
    (a, c) pair is visited and the non-coprime ones are rejected by gcd.

    This is the search as it ran before support buckets.  Smooth numbers
    come from a breadth-first closure under multiplication by P.
    """
    from math import isqrt

    smooth, frontier = {1}, [1]
    while frontier:
        frontier = {s * p for s in frontier for p in primes
                    if s * p <= 2 * H} - smooth
        smooth.update(frontier)
    sset = smooth
    smooth = sorted(s for s in smooth if s <= H)

    def square_times_smooth(b):
        for p in primes:
            while b % p == 0:
                b //= p
        return isqrt(b) ** 2 == b

    us = set()
    if variant == "iii":
        for i, a in enumerate(smooth):
            for b in smooth[i:]:
                if a + b in sset and gcd(a, b) == 1:
                    c = a + b
                    for A, C in ((a, b), (b, a), (a, -c), (-c, a), (b, -c), (-c, b)):
                        if max(abs(A), abs(C)) <= H:
                            us.add(Fraction(-A, C))
        return us
    acands = smooth
    if variant == "32i":
        cube_roots = range(1, round(H ** (1 / 3)) + 2)
        acands = sorted({s * x ** 3 for s in smooth for x in cube_roots
                         if s * x ** 3 <= H and all(x % p for p in primes)})
    for a in acands:
        for c in smooth:
            if gcd(a, c) != 1:
                continue
            if square_times_smooth(a + c):
                us.add(Fraction(-a, c))
            if a != c and square_times_smooth(abs(a - c)):
                us.add(Fraction(a, c))
    return us


def smooth_count_exponent_loops(H):
    """|{2,3,5,7}-smooth numbers <= H| by explicit nested exponent loops."""
    count = 0
    p2 = 1
    while p2 <= H:
        p23 = p2
        while p23 <= H:
            p235 = p23
            while p235 <= H:
                p2357 = p235
                while p2357 <= H:
                    count += 1
                    p2357 *= 7
                p235 *= 5
            p23 *= 3
        p2 *= 2
    return count


def rational_roots_naive(coeffs):
    """Rational roots with multiplicity, sorted: every p/q with p | c(0) and
    q | lead (divisors from a trial-division factorization) is evaluated in
    Fraction arithmetic and divided out by synthetic division for as long as
    it stays a root."""

    def divisors(n):
        n = abs(int(n))
        out = [1]
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e:
                out = [x * d ** k for x in out for k in range(e + 1)]
            d += 1
        if n > 1:
            out += [x * n for x in out]
        return out

    def value(c, x):
        return sum(ci * x ** i for i, ci in enumerate(c))

    def deflate(c, x):
        out = [Fraction(0)] * (len(c) - 1)
        acc = Fraction(0)
        for i in range(len(c) - 1, 0, -1):
            acc = acc * x + c[i]
            out[i - 1] = acc
        return out

    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    roots = []
    while c[0] == 0:
        roots.append(Fraction(0))
        c = c[1:]
    leads = divisors(c[-1])
    cands = {Fraction(s * p, q) for p in divisors(c[0]) for q in leads
             for s in (1, -1)}
    for x in cands:
        while len(c) > 1 and value(c, x) == 0:
            roots.append(x)
            c = deflate(c, x)
    return sorted(roots)


def cliques_by_partition_naive(degrees, lesser, max_size=None):
    """Clique counts by partition from every vertex subset of a small graph.

    Subsets are visited in increasing order: a subset is a clique when the
    subset without its top vertex is one and lies among the top vertex's
    lesser neighbors.  Keys are exponent vectors of length max(degrees),
    the empty clique included.
    """
    f = max(degrees, default=1)
    expts = [(0,) * f]            # per subset: its exponent vector, or None
    for mask in range(1, 1 << len(degrees)):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if expts[rest] is None or rest & ~lesser[top]:
            expts.append(None)
            continue
        e = list(expts[rest])
        e[degrees[top] - 1] += 1
        expts.append(tuple(e))
    counts = {}
    for e in expts:
        if e is not None and (max_size is None or sum(e) <= max_size):
            counts[e] = counts.get(e, 0) + 1
    return counts


def enumerate_cliques_unguided(g, kappa=None, max_size=None):
    """Cliques as ascending index tuples, by the walk that enters every
    candidate set: with kappa it skips only vertices of an exhausted degree
    class and yields the cliques of exactly that partition."""
    degrees, lesser = g.degrees, g.lesser
    remaining = None
    if kappa is not None:
        remaining = list(kappa) + [0] * (max(degrees, default=1) - len(kappa))
    if remaining is None or not any(remaining):
        yield ()
        if remaining is not None:
            return

    def rec(P, chosen):
        if max_size is not None and len(chosen) >= max_size:
            return
        Q = P
        while Q:
            b = Q & -Q
            Q ^= b
            v = b.bit_length() - 1
            d = degrees[v] - 1
            if remaining is not None and remaining[d] <= 0:
                continue
            chosen.append(v)
            if remaining is not None:
                remaining[d] -= 1
            done = remaining is not None and not any(remaining)
            if remaining is None or done:
                yield tuple(sorted(chosen))
            if not done:
                yield from rec(P & lesser[v], chosen)
            if remaining is not None:
                remaining[d] += 1
            chosen.pop()

    yield from rec((1 << len(degrees)) - 1, [])


def split_graph_counts_naive(us, primes):
    """(edges, triangles) of the degree-1 graph on the points u = a/c: the
    vertices c t - a and c' t - a' are adjacent when a c' - a' c is P-smooth,
    tested pair by pair by trial division; triangles from neighbor sets."""
    us = sorted(us)
    nbr = [set() for _ in us]
    for i, x in enumerate(us):
        for j in range(i):
            y = us[j]
            if is_smooth_naive(x.numerator * y.denominator
                               - y.numerator * x.denominator, primes):
                nbr[i].add(j)
    edges = sum(map(len, nbr))
    triangles = sum(len(nbr[i] & nbr[j]) for i in range(len(us))
                    for j in nbr[i])
    return edges, triangles


def mobius_on_point(mat, x):
    """Apply (a t + b)/(c t + d) to x in Q union {inf}, in Fractions."""
    a, b, c, d = mat
    if x == INF:
        return Fraction(a, c) if c else INF
    x = Fraction(x)
    num = a * x + b
    den = c * x + d
    if den == 0:
        return INF
    return num / den


def triple_to_matrix(p, q, r):
    """The map sending (p, q, r) to (0, 1, inf), as a primitive integer
    matrix, with a case for each position of inf."""
    if p == INF:
        a, b, c, d = 0, q - r, 1, -r
    elif q == INF:
        a, b, c, d = 1, -p, 1, -r
    elif r == INF:
        a, b, c, d = 1, -p, 0, q - p
    else:
        a, b = q - r, -p * (q - r)
        c, d = q - p, -r * (q - p)
    den = 1
    for x in (a, b, c, d):
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    mat = tuple(int(x * den) for x in (a, b, c, d))
    g = 0
    for x in mat:
        g = gcd(g, x)
    return tuple(x // g for x in mat)


IDENT = (1, 0, 0, 1)


def mat_mul(m1, m2):
    """The product of two integer matrices (a, b, c, d) as an element of
    PGL2(Q): scaled to be primitive, its first nonzero entry positive."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    m = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
         c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    g = 0
    for x in m:
        g = gcd(g, x)
    m = tuple(x // g for x in m)
    for x in m:
        if x:
            return m if x > 0 else tuple(-y for y in m)
    return m


def mat_order(m):
    """The order of m in PGL2(Q) by its powers; a finite order there is at
    most 6."""
    acc = mat_mul(m, IDENT)
    for k in range(1, 7):
        if acc == IDENT:
            return k
        acc = mat_mul(acc, m)
    raise AssertionError(f"{m} has no finite order")


def pgl2_packets_fraction(polys, roots):
    """Fractional-linear packets of split polynomials with points of P^1(Q)
    as Fractions and INF: the orbit of each root set plus (0, 1, inf) under
    the maps sending its ordered triples to (0, 1, inf).  Returns
    (packets, mass) as `cliques.pgl2_packets` does, with each stabilizer
    element's order taken from its matrix powers."""
    a = len(roots[0])
    index = {}
    for i, rr in enumerate(roots):
        index[frozenset(Fraction(r) for r in rr)
              | {Fraction(0), Fraction(1), INF}] = i
    assert len(index) == len(polys)
    packets = []
    seen = set()
    for key, i in index.items():
        if i in seen:
            continue
        pts = sorted(key, key=lambda x: (x == INF, x))
        orbit = set()
        stab = []
        for p in pts:
            for q in pts:
                for r in pts:
                    if len({p, q, r}) < 3:
                        continue
                    mat = triple_to_matrix(p, q, r)
                    image = frozenset(mobius_on_point(mat, x) for x in key)
                    orbit.add(index[image])
                    if image == key:
                        stab.append(mat_order(mat))
        seen |= orbit
        packets.append(Packet(sorted(orbit), len(stab), _group_label(stab)))
    mass = sum(Fraction(1, p.stabilizer_order) for p in packets)
    return packets, mass


def neighbor_counts(g, idx):
    """Full-neighborhood degree profile of one vertex, by pairwise tests on
    the lesser masks."""
    lesser = g.lesser
    out = {}
    for jdx in range(len(g.vertices)):
        if jdx == idx:
            continue
        lo, hi = min(idx, jdx), max(idx, jdx)
        if (lesser[hi] >> lo) & 1:
            d = g.degrees[jdx]
            out[d] = out.get(d, 0) + 1
    return out


def open_images(n):
    """CompatGraph images that leave each of n vertices open: no symmetry."""
    return [(v,) for v in range(n)]


def graph_from_lesser(degrees, lesser, P, vertices=None, images=None):
    """The CompatGraph whose edges are given by lesser-neighbor masks:
    lesser[i] holds the neighbors of i below i, and each edge is set in the
    full masks of both its ends; every vertex is open unless images are
    given."""
    adj = list(lesser)
    for i, m in enumerate(lesser):
        while m:
            b = m & -m
            m ^= b
            adj[b.bit_length() - 1] |= 1 << i
    return CompatGraph(vertices or [None] * len(degrees), list(degrees), adj,
                       P, images or open_images(len(degrees)))


def build_graph_pairwise(vs):
    """The compatibility graph by one resultant per unordered vertex pair,
    with no use of the marked-point symmetry.  The resultants are the
    closed forms above (checked against the Sylvester determinant on their
    own)."""
    P = vs.P
    verts = vs.all_vertices()
    coeffs = [v.poly.coeffs for v in verts]
    lesser = [0] * len(verts)
    for i, ci in enumerate(coeffs):
        for j in range(i):
            r = resultant_closed_form(ci, coeffs[j])
            if r == 0:
                continue
            r = abs(r)
            for p in P.primes:
                while r % p == 0:
                    r //= p
            if r == 1:
                lesser[i] |= 1 << j
    return graph_from_lesser([v.poly.degree for v in verts], lesser, P, verts)


# ---------------------------------------------------------------------------
# Test-only helpers.  Unlike the oracles above they are built on package
# internals; they live here because only the tests call them.


# Primes of bad reduction of each built-in cover: validate_cover needs them
# in the prime set to accept the cover.
BAD_REDUCTION = {
    "identity": (), "s3:(01)": (), "s3:(0inf)": (),
    "s3:(1inf)": (), "s3:(01inf)": (), "s3:(0inf1)": (),
    "power:2": (2,), "power:3": (3,), "power:5": (5,), "power:7": (7,),
    "trinomial:2": (2,), "trinomial:3": (2, 3), "trinomial:4": (2, 3),
    "trinomial:5": (2, 5),
    "quartic-fractal": (2,),
}


def recovered_w_triple(s):
    """(w0, w1, winf) = -disc/(4 u0 u1 uinf) * (u0, u1, uinf) for degree 2."""
    u0, u1, uinf = (Fraction(v) for v in special_values(s))
    disc = Fraction(s.discriminant())
    scale = -disc / (4 * u0 * u1 * uinf)
    return (scale * u0, scale * u1, scale * uinf)


def candidate_grid(j, j0, j1):
    """The (m, n) candidate polynomials for one invariant triple (j0, j1, j).

    Yields (m, n, candidate) with m != n as primitive pairs, candidates
    normalized; inseparable entries come through so callers can report them.
    """
    a, b = j.numerator, j.denominator
    for m in roots_of_F(j, j0):
        for n in roots_of_F(j, j1):
            if m != n:
                yield m, n, NormalizedPoly(_primitive(_smn_coeffs(a, b, m, n)))


def s3_compose(g, h):
    """Group law of the marked-point action: (g h) acts as g after h."""
    pg, ph = S3_ELEMENTS[g], S3_ELEMENTS[h]
    gh = tuple(pg[i] for i in ph)
    return next(name for name, p in S3_ELEMENTS.items() if p == gh)


def s3_inverse(g):
    p = S3_ELEMENTS[g]
    inv = tuple(p.index(i) for i in range(3))
    return next(name for name, q in S3_ELEMENTS.items() if q == inv)


# integer matrices (a, b, c, d) of the fractional-linear map (a t + b)/(c t + d)
# realizing each element on the marked points
S3_MATS = {
    "e": (1, 0, 0, 1),
    "(01)": (-1, 1, 0, 1),      # 1 - t
    "(0inf)": (0, 1, 1, 0),     # 1/t
    "(1inf)": (1, 0, 1, -1),    # t/(t-1)
    "(01inf)": (0, 1, -1, 1),   # 1/(1-t)
    "(0inf1)": (1, -1, 1, 0),   # (t-1)/t
}


def substitute_mobius(coeffs, mat):
    """(c t + d)^k * s((a t + b)/(c t + d)) as an integer coefficient list,
    k = len(coeffs) - 1, from the powers of (a t + b) and (c t + d) by
    schoolbook products."""
    a, b, c, d = mat
    k = len(coeffs) - 1
    pow_num = [[1]]
    pow_den = [[1]]
    for _ in range(k):
        pow_num.append(poly_mul(pow_num[-1], [b, a]))
        pow_den.append(poly_mul(pow_den[-1], [d, c]))
    out = [0] * (k + 1)
    for i, s_i in enumerate(coeffs):
        if s_i:
            for j, v in enumerate(poly_mul(pow_num[i], pow_den[k - i])):
                out[j] += s_i * v
    return out


def s3_transform_mobius(s, g):
    """The image of s under g as `poly.s3_transform` defines it: s
    substituted with the inverse matrix, then normalized."""
    return normalize(substitute_mobius(s.coeffs, S3_MATS[s3_inverse(g)]))[0]


def partition_of(s):
    """Degrees of the irreducible factors of s, sorted descending."""
    return tuple(sorted((f.degree for f in factor_small(s)), reverse=True))


def first_good_prime(P):
    """Smallest prime not in the prime set P, by trial division."""
    p = 2
    while p in P or any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


# ---------------------------------------------------------------------------
# The degree-3 hot path in Fractions, with INF for the point at infinity.


def _cube(lin):
    return poly_mul(poly_mul(lin, lin), lin)


def smn_coeffs_fraction(j, m, n):
    """Monic cubic s^{m,n} for a j-invariant and resolvent roots m, n in
    Q union {INF}: the generic two-root formula and its two limits."""
    if m == INF and n == INF:
        raise ValueError("m and n cannot both be infinite")
    if m == INF:
        return [j * (j - 2) * n ** 3, 3 * j * n * n, -3 * j * n, Fraction(1)]
    if n == INF:
        # j (t + m - 1)^3 - (j - 1)(t - 1)^3 - j (j - 1) m^3
        c = [j * x for x in _cube([m - 1, Fraction(1)])]
        d = [(j - 1) * x for x in _cube([Fraction(-1), Fraction(1)])]
        out = [a - b for a, b in zip(c, d)]
        out[0] -= j * (j - 1) * m ** 3
        return out
    t1 = [(j - 1) * x for x in _cube([-n, n - m])]
    t3 = [j * x for x in _cube([m * n - n, n - m])]
    out = [a - b for a, b in zip(t1, t3)]
    out[0] += (j - 1) * j * m ** 3 * n ** 3
    den = (m - n) ** 3
    return [x / den for x in out]


def f_resolvent_fraction(j, k):
    """Fraction coefficients (constant first) of the degree-6 resolvent

        F(j,k,y) = k (j^2 y^3 - 2 j y^3 + 3 j y^2 - 3 j y + 1)^2
                   - j (j y^2 - 2 y + 1)^3.
    """
    j2 = j * j
    return [
        k - j,
        -6 * j * (k - 1),
        3 * j * (3 * j * k - j + 2 * k - 4),
        -4 * j * (4 * j * k - 3 * j + k - 2),
        -3 * j2 * (2 * j * k + j - 7 * k + 4),
        6 * j2 * (j * k + j - 2 * k),
        j2 * (j2 * k - j2 - 4 * j * k + 4 * k),
    ]


def roots_of_F_fraction(j, k):
    """Roots of F(j,k,y) in Q union {INF} with multiplicity: INF counts
    6 - deg times."""
    j, k = Fraction(j), Fraction(k)
    coeffs = f_resolvent_fraction(j, k)
    roots = list(rational_roots(normalize(coeffs)[0].coeffs))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots.extend([INF] * (6 - (len(coeffs) - 1)))
    return roots


# ---------------------------------------------------------------------------
# The degree-2 build in Fractions.


def _sqrt_exact(q):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def build_degree2_fraction(P, points):
    """vertices.build_degree2 with the triple relation solved in Fractions:
    winf = w0 + w1 - 2 w0 w1 +- 2 sqrt(w0 w1 (1 - w0)(1 - w1)), and each
    quadratic put through normalize."""
    if 2 not in P:
        raise ValueError("degree-2 parametrization requires 2 in P")
    _require_members(points, VARIANT_I2I, P)
    one = Fraction(1)
    irreducible = {}
    split = {}
    stats = {"triples": 0, "discarded": 0}
    for delta, members in sorted(delta_classes(points).items()):
        ws = [one] + sorted(pt.u for pt in members)
        wset = set(ws)
        for w0 in ws:
            for w1 in ws:
                root = _sqrt_exact(w0 * w1 * (1 - w0) * (1 - w1))
                if root is None:
                    raise ValueError(
                        f"class {delta} is not closed under the triple "
                        f"relation over {P}: a point is not a member")
                base = w0 + w1 - 2 * w0 * w1
                for winf in {base + 2 * root, base - 2 * root}:
                    if winf == 0 or winf not in wset:
                        continue
                    stats["triples"] += 1
                    s, _ = normalize([w0, w1 - w0 - winf, winf])
                    if s.degree != 2 or s.discriminant() == 0:
                        stats["discarded"] += 1
                        continue
                    if not check_membership(s, P).ok:
                        raise ValueError(
                            f"triple ({w0},{w1},{winf}) produced non-member "
                            f"{s} over {P}")
                    d = s.discriminant()
                    r = isqrt(abs(d))
                    if d > 0 and r * r == d:
                        split[s.coeffs] = s
                    else:
                        irreducible[s.coeffs] = Vertex(s, class_datum=delta)
    vertices = sorted(irreducible.values(), key=Vertex.sort_key)
    split_polys = sorted(split.values(), key=NormalizedPoly.sort_key)
    return vertices, split_polys, stats
