"""Independent oracles used by the test suite.

These deliberately avoid the algorithms used by the package: resultants via
the Sylvester determinant (fraction-free Gaussian elimination) or closed
forms for small degrees, smoothness via naive trial-division filters,
searches via brute-force double loops.
"""

from fractions import Fraction
from itertools import count, product
from math import gcd, isqrt

from polytab.abc_search import (
    VARIANT_I2I,
    AbcPoint,
    _square_class,
    delta_classes,
    has_rational_root_F,
    reference_cubic,
)
from polytab.cliques import CompatGraph, Packet, _group_label
from polytab.poly import (
    S3_ELEMENTS,
    NormalizedPoly,
    _gcd_q,
    _poly_divmod_exact,
    _poly_gcd,
    _primitive,
    check_membership,
    derivative_coeffs,
    factor_small,
    normalize,
    poly_mul,
    rational_roots,
    resultant_coeffs,
    special_values,
)
from polytab.smooth import ZeroValueError, _is_prime
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


def resultant(a, b):
    """Res(a, b) of two NormalizedPolys by the package's PRS (moved from
    polytab.poly, where only the tests called it)."""
    return resultant_coeffs(a.coeffs, b.coeffs)


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


def resultant_bound(polys) -> int:
    """An integer at least |Res(f, g)| for every two f, g of the given
    trimmed coefficient lists, from the lists alone.

    Hadamard's inequality on the Sylvester matrix: for degrees m and n it has
    n rows holding the coefficients of f and m holding those of g, so
    |Res(f, g)| <= |f|^n |g|^m in the Euclidean norm.  With M_d the largest
    squared norm among the lists of degree d, the bound is the integer part
    of the square root of the largest M_m^n M_n^m over the degree pairs.
    """
    norms = {}
    for c in polys:
        d = len(c) - 1
        norms[d] = max(norms.get(d, 0), sum(x * x for x in c))
    return isqrt(max((norms[m] ** n * norms[n] ** m
                      for m in norms for n in norms), default=0))


def resultant_form_tuples(m, d):
    """resultant_form(m, d) with each monomial an exponent tuple over
    f_0 ... f_m, g_0 ... g_d: the same Laplace expansion along the columns
    of the Sylvester matrix, memoized on the set of rows used, but with a
    tuple rebuilt for every variable multiplied in."""
    n = m + d
    var = {}                  # (row, column) -> f_k as k, g_k as m + 1 + k
    for i in range(d):
        for k in range(m + 1):
            var[i, i + m - k] = k
    for i in range(m):
        for k in range(d + 1):
            var[d + i, i + d - k] = m + 1 + k
    memo = {(1 << n) - 1: {(0,) * (n + 2): 1}}

    def minor(used):
        got = memo.get(used)
        if got is None:
            c = bin(used).count("1")
            got = {}
            sign = 1
            for i in range(n):
                if used >> i & 1:
                    continue
                v = var.get((i, c))
                if v is not None:
                    for e, k in minor(used | 1 << i).items():
                        e = e[:v] + (e[v] + 1,) + e[v + 1:]
                        got[e] = got.get(e, 0) + sign * k
                sign = -sign
            memo[used] = got = {e: k for e, k in got.items() if k}
        return got

    form = {}
    for e, k in minor(0).items():
        form.setdefault(e[m + 1:], []).append((k, e[:m + 1]))
    return tuple((eb, tuple(terms)) for eb, terms in sorted(form.items()))


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


def brute_force_series(primes, kmax):
    """(c_0, ..., c_kmax) of prod(1 + x^phi(i)) over the smooth i > 1, by the
    subset-sum recurrence on a list.  phi(i) >= i / 2^|P|, so the smooth i up
    to kmax 2^|P| are all the indices with phi(i) <= kmax."""
    counts = [1] + [0] * kmax
    for i in smooth_filter_naive(primes, kmax << len(primes))[1:]:
        phi = i
        for p in primes:
            if i % p == 0:
                phi = phi // p * (p - 1)
        for k in range(kmax, phi - 1, -1):
            counts[k] += counts[k - phi]
    return counts


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


def squarefree_part(n: int) -> int:
    """The unique square-free d with n = d * y^2, sign carried by d, by trial
    division up to the square root of what is left."""
    if n == 0:
        raise ZeroValueError("0 has no square-free part")
    sign = 1 if n > 0 else -1
    m = abs(n)
    d = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return sign * d * m


def squarefree_class(q) -> int:
    """Square-free integer representative of a nonzero rational mod squares."""
    q = Fraction(q)
    if q == 0:
        raise ZeroValueError("0 has no square class")
    return squarefree_part(q.numerator * q.denominator)


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


def open_graph(g):
    """g with every vertex open: the same vertices and edges, no symmetry."""
    return CompatGraph(g.vertices, g.degrees, g.adj, g.P,
                       open_images(len(g.degrees)))


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


def poly_height(s):
    """max(|s(0)|, |s(1)|, |s(inf)|): constant on S3 orbits."""
    return max(abs(v) for v in special_values(s))


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


def _square_divides_mod(g, f, q):
    """Whether g^2 divides f in F_q[t], g monic: long division of f by g^2."""
    g2 = poly_mul(g, g)
    m = len(g2) - 1
    r = [x % q for x in f]
    for top in range(len(r) - 1, m - 1, -1):
        x = r[top]
        for i, c in enumerate(g2):
            r[top - m + i] = (r[top - m + i] - x * c) % q
    return not any(r)


def good_prime_naive(f):
    """The least odd prime q, by trial division, that does not divide lead(f)
    and modulo which no g^2 divides f, every monic g of positive degree up
    to deg(f) / 2 over F_q tried."""
    q = 3
    while True:
        if all(q % p for p in range(3, q, 2)) and f[-1] % q and not any(
                _square_divides_mod(list(c) + [1], f, q)
                for d in range(1, (len(f) - 1) // 2 + 1)
                for c in product(range(q), repeat=d)):
            return q
        q += 2


def _radical(c):
    """Primitive square-free part c / gcd(c, c') by the integer gcd alone:
    the same roots, each once."""
    g = _poly_gcd(c, derivative_coeffs(c))
    if len(g) > 1:
        c = _poly_divmod_exact(c, g)
    return _primitive(c)


def _good_prime(f):
    """The least odd prime q that does not divide lead(f) and modulo which
    the square-free f stays square-free, one F_q gcd of f and f' per prime
    tried; with _radical, the reference for `poly._squarefree`."""
    df = derivative_coeffs(f)
    return next(q for q in count(3, 2) if _is_prime(q) and f[-1] % q
                and len(_gcd_q(f, df, q)) == 1)


def partition_of(s):
    """Degrees of the irreducible factors of s, sorted descending."""
    return tuple(sorted((f.degree for f in factor_small(s)), reverse=True))


def first_good_prime(P):
    """Smallest prime not in the prime set P, by trial division."""
    p = 2
    while p in P or any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


def _moebius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def reduction_bound(p: int, f: int) -> int:
    """Packing bound N(p, f): projective points of degree <= f, minus 3."""
    if f < 1:
        raise ValueError("f must be >= 1")
    total = 1  # the point at infinity
    for d in range(1, f + 1):
        total += sum(_moebius(d // e) * p ** e for e in range(1, d + 1) if d % e == 0)
    return total - 3


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
    """The distinct roots of F(j,k,y) in Q union {INF}, from the Fraction
    resolvent: INF when its degree is below 6."""
    j, k = Fraction(j), Fraction(k)
    coeffs = f_resolvent_fraction(j, k)
    roots = [Fraction(*r) for r in rational_roots(normalize(coeffs)[0].coeffs)]
    if coeffs[-1] == 0:
        roots.append(INF)
    return roots


def cubic_classes_pairwise(points, P):
    """abc_search.cubic_classes by a union-find over every pair of points
    with irreducible reference cubic in the same discriminant square class:
    j ~ k when F(j,k,y) has a root in Q union {inf}, merged transitively.
    Keyed by the member of minimal (height, u), members sorted."""
    pts, dclass = [], []
    for pt in points:
        s = reference_cubic(pt.u)
        if not rational_roots(s.coeffs):
            pts.append(pt)
            dclass.append(_square_class(s.discriminant(), P))
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            if dclass[i] == dclass[k] and find(i) != find(k) \
                    and has_rational_root_F(pts[i].u, pts[k].u):
                parent[find(i)] = find(k)
    groups = {}
    for i, pt in enumerate(pts):
        groups.setdefault(find(i), []).append(pt)
    out = {}
    for members in groups.values():
        members.sort(key=AbcPoint.sort_key)
        rep = members[0].u
        out[f"{rep.numerator}/{rep.denominator}"] = members
    return out


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
    for delta, members in sorted(delta_classes(points, P).items()):
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


def cross_validate(vsA, vsB, degree):
    """Symmetric difference of the degree slices of two vertex sets, as
    sorted coefficient tuples: (only in vsA, only in vsB)."""
    if vsA.P != vsB.P:
        raise ValueError("vertex sets live over different prime sets")
    a = {v.poly.coeffs for v in vsA.degree_slice(degree)}
    b = {v.poly.coeffs for v in vsB.degree_slice(degree)}
    return sorted(a - b), sorted(b - a)
