"""Compatibility graph, clique tabulation, specialization counts, packets.

Two vertices are adjacent when their resultant is smooth; the edges are kept
as full neighbor bitmasks (Python ints).  Counting and enumerating share
one set-up (`_heads`): each clique is headed by its part in its last orbit
of the marked-point group S3, in a smallest-last (degeneracy) order of the
orbits (Matula and Beck), so that a head has few neighbors before it, and
one head stands for a whole S3-class: the six maps are automorphisms on the
closed vertices (lemmas in `build_graph` and `tabulate`).
`enumerate_cliques` walks the cliques below each head and yields them with
their images under the class, so each clique comes out once.

`tabulate` counts them by partition as one polynomial: a clique with e_d
members of degree d is the monomial prod x_d^e_d, and a head counts times
its class size.  It counts the cliques inside a candidate set T by the
pivot identity of the succinct clique tree (Jain and Seshadhri, Pivoter):
for p in T and u_1, u_2, ... the members of T outside N[p], in order,

    cnt(T) = (1 + x_p) cnt(T & N(p))
             + sum over i of x_{u_i} cnt(N(u_i) & T - {p, u_1, ..., u_i}).

A clique in T that avoids every u_i lies in N[p], with p or without it (the
first term); any other has a first u_i, and the rest of it lies among the
neighbors of u_i in T after u_i (p is not one).  So each distinct candidate
set costs one shift-and-add per branch, not one update per clique.  The memo
on T is scoped to one head and its renumbered candidate set.  Under a cap of
at most 4 members no head has more than three below it, and those are read
off the adjacency masks instead; a larger cap counts every clique and keeps
the cells within it.  The polynomial is one int (Kronecker packing): x^e
sits in the cell at sum e_d stride_d of a mixed radix, with radix and cell
width proved from greedy colourings (see `tabulate`).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import (accumulate, combinations, compress, islice, product,
                       repeat)
from math import comb, gcd, isqrt, lcm, prod
from operator import mul

from . import budget
from .budget import BudgetExceededError
from .poly import (
    MARKED,
    _one_minus,
    projective_point,
    rational_roots,
    # not called: bench/tracing.py PATCHES wraps cliques.resultant_fast
    resultant_fast,
    resultant_form,
    s3_images,
)
from .records import Record
from .smooth import PrimeSet, is_smooth, smooth_numbers_up_to
from .vertices import VertexSet

TABLE_SCHEMA = "polytab.table/1"


# ---------------------------------------------------------------------------
# graph


class CompatGraph(Record):
    def __init__(self, vertices, degrees, adj, P, images):
        self.vertices = vertices    # [Vertex], the fixed total order
        self.degrees = degrees      # per-vertex degree
        self.adj = adj              # per-vertex bitmask of all its neighbors
        self.P = P
        # per vertex: its images under the six marked-point maps, in
        # S3_ELEMENTS order, for a closed vertex, and (i,) for an open one
        self.images = images

    @property
    def lesser(self) -> list:
        """Per vertex, its neighbors with lower index (built on each read)."""
        return [m & ((1 << v) - 1) for v, m in enumerate(self.adj)]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def build_graph(vs: VertexSet) -> CompatGraph:
    """Adjacency by resultant smoothness over the set's primes P, one
    resultant per S3 orbit of vertex pairs, read off packed rows of
    resultants.

    Lemma: adjacency is invariant under the marked-point action, for any
    prime set P.  Each of the six elements acts by a matrix M in GL2(Z),
    det M = +-1, on the binary forms F(x, y) = y^m s(x/y), and for forms of
    degrees m and n, Res(F o M, G o M) = (det M)^(mn) Res(F, G).  F o M is
    primitive because M is invertible over Z, so normalizing it changes only
    its sign; if both images keep their degree, the polynomial resultant is
    the form resultant.  So |Res(sigma f, sigma g)| = |Res(f, g)| exactly.

    A vertex is closed when all six of its images are vertices of its degree
    (of a vertex listed twice, only the last copy can be); the closed
    vertices fall into orbits.  Every other vertex is open: a singleton
    orbit whose group is {e}.  Open orbits are numbered first.  Each orbit
    representative r is paired with every other vertex j whose orbit is
    numbered no lower than r's, and an edge {r, j} is copied to
    {sigma r, sigma j} for every sigma in r's group.  A pair {x, y} of
    closed vertices, x's orbit numbered no higher, is sigma {r, sigma^-1 y}
    for the sigma taking the representative r of x's orbit to x; a pair
    with an open vertex is met in that vertex's row.  On a set with no
    closed vertex this is the plain pairwise loop.  The budget is checked
    once per representative, inside each `resultant_form` derivation and
    while the smooth numbers are listed.
    The images are kept on the graph: on the closed vertices the six maps
    are automorphisms that keep the vertex degree, which `tabulate` uses to
    count one head per class of cliques.

    Lemma: no resultant of the loop exceeds B = isqrt(max M_m^d M_d^m) over
    the degree pairs (m, d) of the set, M_d the largest squared norm of its
    degree-d vertices.  By Hadamard's inequality on the Sylvester matrix,
    which has deg g rows of coefficients of f and deg f rows of those of g,
    |Res(f, g)| <= |f|_2^deg g |g|_2^deg f.  So a resultant is a nonzero
    P-smooth integer exactly when its absolute value is one of the P-smooth
    numbers <= B, which `_Lanes` lists once, from the norms it keeps, and
    looks up, unless there are more of them than lanes to read (huge
    coefficients).

    Rows (`_Lanes`).  For a representative r of degree m, Res(r, g) over the
    vertices g of degree d is a form of degree m in the d + 1 coefficients of
    g (`resultant_form`).  Each monomial's values over the degree-d vertices,
    in the pair order, are packed as one int of W-bit lanes, each lane offset
    by the bias 2^(W-1); r's row against the vertices from the k-th on is the
    sum of its coefficients c(r) times these packs cut at lane k, plus one
    bias per lane.  Each row has its own W: the least multiple of 64 above
    the two bounds below, with N(f) the squared norm of f, S_d(k) the largest
    N(g) over the degree-d vertices from the k-th on, and M_d = S_d(0).

    Lemma (the row bound): every lane of r's row has |Res(r, g)| <=
    isqrt(N(r)^d S_d(k)^m), by Hadamard's inequality as above, since the
    square of the integer |Res(r, g)| is at most N(r)^d N(g)^m.

    Lemma (the pack digits): a monomial of degree m in the coefficients of g
    is at most |g|_2^m in absolute value, as each coefficient is; so every
    lane of a degree-m pack over the degree-d vertices, the lanes a cut
    drops included, is at most isqrt(M_d^m).

    With both bounds below 2^(W-1), every lane of a pack and of the row lies
    in [1, 2^W), so no lane borrows from or carries into its neighbour: a cut
    drops exactly the lanes before it, the row is that integer identity, and
    its W-bit digits are 2^(W-1) + Res(r, g_i).  A degree pair's packs are
    built at the least width their digits allow and spread from there to
    each wider one a row asks for: a lane keeps its bytes and gains the
    difference of the biases.  An edge is a lane in 2^(W-1) +- the smooth
    numbers below 2^(W-1) (and so at most B); a zero resultant reads 2^(W-1)
    and is none.  The row is read as 64-bit words, and a wider lane is
    matched on its low word before the whole lane is.  When the smooth
    numbers are not listed, each lane is decoded instead, and its resultant
    is tested by stripping the primes of P: W grows with the bounds, so the
    lemmas hold for any coefficients.
    """
    P = vs.P
    verts = vs.all_vertices()
    coeffs = [v.poly.coeffs for v in verts]
    degrees = [v.poly.degree for v in verts]
    n = len(verts)
    index = {c: i for i, c in enumerate(coeffs)}    # a repeat: its last copy

    def find(c):
        """The vertex of the coefficient form c up to sign, or None; a vertex
        tuple has a positive last entry, so an image that drops its degree
        is never found."""
        return index.get(tuple(c) if c[-1] > 0 else tuple(-x for x in c))

    # the generators t -> 1 - t and t -> 1/t as index maps
    flip = [find(_one_minus(c)) for c in coeffs]
    inv = [find(c[::-1]) for c in coeffs]
    images = []
    for i in range(n):
        im = s3_images(i, flip.__getitem__, inv.__getitem__)
        # the earlier copies of a repeated vertex stay open
        closed = index[coeffs[i]] == i and None not in im
        images.append(im if closed else (i,))
    order = [i for i in range(n) if len(images[i]) == 1]
    heads = list(enumerate(order))      # (position in order, representative)
    placed = set(order)
    for i in range(n):
        if i not in placed:
            orbit = sorted(set(images[i]))      # i is its least member
            heads.append((len(order), i))
            placed.update(orbit)
            order.extend(orbit)
    rows = _Lanes(coeffs, degrees, order, P,
                  sum(n - 1 - at for at, _ in heads))
    adj = [0] * n
    for at, r in heads:
        budget.check()
        group = images[r]
        for j in rows.partners(r, at):
            for a, b in zip(group, images[j]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return CompatGraph(verts, degrees, adj, P, images)


def _width(b: int) -> int:
    """The least multiple W of 64 with b < 2^(W-1)."""
    return (b.bit_length() // 64 + 1) * 64


def _spread(packs, base, width, n):
    """Packs of n lanes of base bits laid out again at width > base bits:
    each lane keeps its 64-bit words and gains the difference of the biases,
    which the wider lane holds without a carry.  The words are moved whole,
    so their byte order does not matter."""
    a, b = base // 64, width // 64
    lift = int.from_bytes(((1 << width - 1) - (1 << base - 1)).to_bytes(
        8 * b, "little") * n, "little")
    out = []
    for pack in packs:
        narrow = array("Q", pack.to_bytes(8 * a * n, "little"))
        wide = array("Q", bytes(8 * b * n))
        for i in range(a):
            wide[i::b] = narrow[i::a]
        out.append(int.from_bytes(wide.tobytes(), "little") + lift)
    return out


class _Lanes:
    """The smooth partners of a representative, read off packed rows of
    resultants (the Rows paragraph of `build_graph`).  The smooth numbers
    up to the bound B are listed unless there are more than limit of them;
    smooth is then None."""

    def __init__(self, coeffs, degrees, order, P, limit):
        self.coeffs, self.P = coeffs, P
        self.norms = [sum(x * x for x in c) for c in coeffs]
        self.classes = {}     # degree -> (positions in order, vertices)
        for at, j in enumerate(order):
            pos, members = self.classes.setdefault(degrees[j], ([], []))
            pos.append(at)
            members.append(j)
        # degree -> S_d(k) for k = 0, 1, ...: the suffix maxima of the norms
        self.top = {d: list(accumulate(
                        [self.norms[j] for j in reversed(members)], max))[::-1]
                    for d, (_, members) in self.classes.items()}
        bound = isqrt(max((top[0] ** d * self.top[d][0] ** m
                           for m, top in self.top.items() for d in self.top),
                          default=0))
        self.smooth = smooth_numbers_up_to(P, max(bound, 1), limit=limit)
        self.packs = {}       # (m, d, W) -> the monomial packs, then the bias's
        self.hits = {}        # W -> (the smooth lanes, their low words or None)

    def _packs(self, m, d, width):
        """The packs of the degree-m monomials over the degree-d vertices at
        the given lane width, each lane offset by the bias, and last the bias
        alone: built at the least width their digits allow, and spread from
        there to a wider one."""
        packs = self.packs.get((m, d, width))
        if packs is None:
            base = _width(isqrt(self.top[d][0] ** m))
            packs = self.packs[m, d, width] = (
                self._build(m, d, width) if width == base else _spread(
                    self._packs(m, d, base), base, width,
                    len(self.classes[d][1])))
        return packs

    def _build(self, m, d, width):
        """The packs of `_packs`, computed from the coefficients; 64-bit
        lanes go through one array of words."""
        bias, nbytes = 1 << width - 1, width // 8
        members = self.classes[d][1]
        cols = list(zip(*[self.coeffs[j] for j in members]))
        packs = []
        for eb, _ in resultant_form(m, d):
            vals = None       # the monomial's values, as one lazy map
            for col, e in zip(cols, eb):
                if e:
                    x = col if e == 1 else map(pow, col, repeat(e))
                    vals = x if vals is None else map(mul, vals, x)
            lanes = map(bias.__add__, vals)
            if width == 64:
                words = array("Q", lanes)
                if sys.byteorder == "big":
                    words.byteswap()
                packs.append(int.from_bytes(words.tobytes(), "little"))
            else:
                packs.append(int.from_bytes(b"".join(map(
                    int.to_bytes, lanes, repeat(nbytes), repeat("little"))),
                    "little"))
        packs.append(int.from_bytes(bias.to_bytes(nbytes, "little")
                                    * len(members), "little"))
        return packs

    def _hits(self, width):
        """The lanes of smooth resultants at the given width, and for a width
        above 64 their low words."""
        hits = self.hits.get(width)
        if hits is None:
            bias = 1 << width - 1
            smooth = self.smooth[:bisect_left(self.smooth, bias)]
            lanes = {bias + s for s in smooth} | {bias - s for s in smooth}
            hits = self.hits[width] = (lanes, None if width == 64 else
                                       {h & 0xFFFF_FFFF_FFFF_FFFF
                                        for h in lanes})
        return hits

    def row(self, r, d, k):
        """(W, the row of r against the degree-d vertices from the k-th on in
        the order): lane i of the row, W bits wide, holds bias +
        Res(r, the (k + i)-th)."""
        f = self.coeffs[r]
        m = len(f) - 1
        top = self.top[d]
        width = _width(max(isqrt(self.norms[r] ** d * top[k] ** m),
                           isqrt(top[0] ** m)))
        packs = self._packs(m, d, width)
        cut = width * k
        row, total = 0, 0
        for (_, terms), pack in zip(resultant_form(m, d), packs):
            c = 0
            for x, ea in terms:
                c += x * prod(map(pow, f, ea))
            if c:
                row += c * (pack >> cut)
                total += c
        # the packs carry the bias once per unit of coefficient; keep one
        return width, row + (1 - total) * (packs[-1] >> cut)

    def partners(self, r, at):
        """The vertices after position at in the order whose resultant
        with r is smooth."""
        out = []
        for d, (pos, members) in self.classes.items():
            k = bisect_right(pos, at)
            members = members[k:]
            if not members:
                continue
            width, row = self.row(r, d, k)
            nbytes = width // 8
            buf = row.to_bytes(nbytes * len(members), "little")
            if self.smooth is None:     # decode each lane and strip it
                bias = 1 << width - 1
                out += [j for i, j in enumerate(members) if is_smooth(
                    int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
                    - bias, self.P)]
                continue
            hits, low = self._hits(width)
            words = array("Q", buf)
            if sys.byteorder == "big":
                words.byteswap()
            if low is None:
                out += compress(members, map(hits.__contains__, words))
                continue
            for i in compress(range(len(members)),
                              map(low.__contains__, words[::nbytes // 8])):
                lane = buf[i * nbytes:(i + 1) * nbytes]
                if int.from_bytes(lane, "little") in hits:
                    out.append(members[i])
        return out


# ---------------------------------------------------------------------------
# partition tables


def partition_label(expts: tuple) -> str:
    """Human form of an exponent vector, e.g. (1, 0, 2) -> '3^2 1'.

    The empty partition (the constant polynomial) prints as '-'.
    """
    parts = []
    for d in range(len(expts), 0, -1):
        e = expts[d - 1]
        if e == 1:
            parts.append(str(d))
        elif e > 1:
            parts.append(f"{d}^{e}")
    return " ".join(parts) if parts else "-"


def parse_kappa(text: str, f: int) -> tuple:
    """Parse '2^15,1' or '3 3 2 1^4' into an exponent vector of length f."""
    expts = [0] * f
    for chunk in text.replace(",", " ").split():
        if "^" in chunk:
            d, e = chunk.split("^")
        else:
            d, e = chunk, 1
        d, e = int(d), int(e)
        if not 1 <= d <= f:
            raise ValueError(f"partition part {d} outside 1..{f}")
        if e < 0:
            raise ValueError(f"negative multiplicity in {chunk!r}")
        expts[d - 1] += e
    return tuple(expts)


class PartitionTable(Record):
    def __init__(self, f, counts=None):
        self.f = f                  # largest vertex degree in the graph
        # exponent vector -> count
        self.counts = {} if counts is None else counts

    def count(self, expts) -> int:
        return self.counts.get(tuple(expts), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        """kappa,count lines by total degree; a label holds no comma or
        quote, so no field needs quoting."""
        lines = ["kappa,count"]
        for expts in sorted(self.counts,
                            key=lambda e: (sum((d + 1) * x for d, x in enumerate(e)), e)):
            lines.append(f"{partition_label(expts)},{self.counts[expts]}")
        return "\n".join(lines) + "\n"

    def to_json_payload(self, P: PrimeSet) -> dict:
        return {
            "schema": TABLE_SCHEMA,
            "primes": list(P.primes),
            "max_vertex_degree": self.f,
            "counts": [
                {"kappa": partition_label(expts),
                 "exponents": list(expts),
                 "count": cnt}
                for expts, cnt in sorted(self.counts.items())
            ],
        }


def _orbit_order(full, orbits, left):
    """The orbits (lists of members) in a smallest-last order of the
    quotient, front to back.

    The order is built back to front: each step takes an orbit whose first
    member has the fewest neighbors left outside the orbit (Matula and Beck,
    on orbits), so that an orbit's members have few neighbors in the orbits
    before it.  left holds the members of every orbit and any vertices that
    stay before all of them.  The group maps an orbit and a union of orbits
    onto themselves, so every member of an orbit has the first member's count.
    """
    reps = 0
    deg, members = {}, {}
    for O in orbits:
        r = O[0]
        inside = 0
        for u in O:
            inside |= 1 << u
        reps |= 1 << r
        members[r] = O
        deg[r] = (full[r] & left & ~inside).bit_count()
    buckets = [set() for _ in range(max(deg.values(), default=0) + 1)]
    for r, d in deg.items():
        buckets[d].add(r)
    order = []
    d = 0
    for _ in orbits:
        while not buckets[d]:
            d += 1
        O = members[buckets[d].pop()]
        for u in O:
            left ^= 1 << u
        for u in O:
            Q = full[u] & left & reps
            while Q:
                b = Q & -Q
                Q ^= b
                x = b.bit_length() - 1
                buckets[deg[x]].remove(x)
                deg[x] -= 1
                buckets[deg[x]].add(x)
        order.append(O)
        d = max(d - len(O), 0)    # a count drops by at most one per member
    order.reverse()
    return order


def _orbit_classes(orbit, full, images):
    """One clique W inside the orbit per class of such cliques under the
    group, as (W, js) pairs: js holds one index into each vertex's images
    per distinct image of W, so len(js) is the class size.

    The group is transitive on the orbit, so its single members form one
    class.  Larger cliques are grown in local bits, and W stands for its
    class when its mask is the least of its images.
    """
    v = orbit[0]
    out = [([v], list({u: j for j, u in enumerate(images[v])}.values()))]
    inside = 0
    for u in orbit:
        inside |= 1 << u
    if not any(full[u] & inside for u in orbit):
        return out
    pos = {u: a for a, u in enumerate(orbit)}
    adj = []                  # local neighbor masks inside the orbit
    for u in orbit:
        m = 0
        Q = full[u] & inside
        while Q:
            b = Q & -Q
            Q ^= b
            m |= 1 << pos[b.bit_length() - 1]
        adj.append(m)
    k = len(orbit)
    perms = [[pos[images[u][j]] for u in orbit] for j in range(6)]
    grow = [(1 << a, adj[a] >> a + 1 << a + 1) for a in range(k)]
    while grow:               # (clique, its common neighbors above its top)
        W, C = grow.pop()
        while C:
            b = C & -C
            C ^= b
            V = W | b
            grow.append((V, C & adj[b.bit_length() - 1]))
            imgs = {sum(1 << p[a] for a in range(k) if V >> a & 1): j
                    for j, p in enumerate(perms)}
            if V == min(imgs):
                out.append(([u for a, u in enumerate(orbit) if V >> a & 1],
                            list(imgs.values())))
    return out


def _few_cliques(before, S, shift, r, groups):
    """Packed counts of the cliques of at most r <= 3 members inside S, read
    off the before masks.  A clique is counted at its last member x, and its
    last but one y lies in B = before[x] & S.  The members of a set M are
    counted by one popcount per vertex degree (groups: (degree mask, shift)
    pairs): M = S for the single members, B for the pairs ending at x, and
    before[y] & B for the triangles ending at y and x.
    """
    total = 1
    for mask, s in groups if r else ():
        total += (S & mask).bit_count() << s
    Q = S if r > 1 else 0
    while Q:
        b = Q & -Q
        Q ^= b
        x = b.bit_length() - 1
        B = before[x] & S
        c = 0
        for mask, s in groups:
            c += (B & mask).bit_count() << s
        R = B if r > 2 else 0
        while R:
            b = R & -R
            R ^= b
            y = b.bit_length() - 1
            Z = before[y] & B
            for mask, s in groups:
                c += (Z & mask).bit_count() << shift[y] + s
        total += c << shift[x]
    return total


def _clique_poly(full, before, S, shift):
    """Packed counts of every clique inside S.

    S is renumbered into local bits 0..k-1, most neighbors in S first, so the
    lowest bit of a local set is its (static) pivot; the memo on the local
    set lives for this call only.
    """
    if not S:
        return 1
    members = []
    Q = S
    while Q:
        b = Q & -Q
        Q ^= b
        members.append(b.bit_length() - 1)
    members.sort(key=lambda x: -(full[x] & S).bit_count())
    k = len(members)
    pos = {x: a for a, x in enumerate(members)}
    loc = [0] * k             # local neighbor masks
    for a, x in enumerate(members):
        Q = before[x] & S     # each edge inside S once
        while Q:
            b = Q & -Q
            Q ^= b
            c = pos[b.bit_length() - 1]
            loc[a] |= 1 << c
            loc[c] |= 1 << a
    sh = [shift[x] for x in members]
    memo = {}

    def cnt(T):
        """Cliques in the nonempty local set T."""
        b = T & -T
        p = b.bit_length() - 1
        T ^= b
        N = T & loc[p]
        if N:
            c = memo.get(N)
            if c is None:
                c = memo[N] = cnt(N)
            total = c + (c << sh[p])
        else:
            total = 1 + (1 << sh[p])
        Q = T ^ N             # u_1, u_2, ...: the members outside N[p]
        while Q:
            b = Q & -Q
            Q ^= b
            T ^= b            # T is now T - {p, u_1, ..., u_i}
            u = b.bit_length() - 1
            U = T & loc[u]
            if U:
                c = memo.get(U)
                if c is None:
                    c = memo[U] = cnt(U)
                total += c << sh[u]
            else:
                total += 1 << sh[u]
        return total

    out = cnt((1 << k) - 1)
    memo.clear()              # cnt refers to itself: free it before the GC would
    return out


def _heads(g: CompatGraph, max_size: int | None, kappa: tuple | None):
    """The set-up that `tabulate` and `enumerate_cliques` share: (cap,
    target, full, before, degmask, colours, heads), as in the Heads paragraph
    of `tabulate`.

    cap is max_size (the vertex count when None), under kappa |kappa| or 0
    when that is more or kappa has a part of degree above the largest, and
    target is kappa padded with zeros to at least the largest degree, or
    None.  full[v] holds the kept neighbors of v (g.adj itself when every
    vertex is kept; read only for kept v) and before[v] those earlier in the
    order; degmask[d] and colours[d] hold the kept vertices of degree
    d + 1 and their greedy colour classes in that order.  heads holds
    (W, js, E & N(W)) per class representative W (`_orbit_classes`) that
    the cap and kappa allow.
    """
    degrees, images = g.degrees, g.images
    f = max(degrees, default=1)
    if max_size is not None and max_size < 0:
        raise ValueError(f"negative max_size {max_size}")
    if kappa is not None and min(kappa, default=0) < 0:
        raise ValueError(f"negative part count in kappa {kappa}")
    cap = len(degrees) if max_size is None else max_size
    target = None if kappa is None else tuple(kappa) + (0,) * (f - len(kappa))
    if target is not None:    # a cell of |kappa| members, empty over the cap
        # or with a part of degree above f
        cap = sum(target) if sum(target) <= cap and not any(target[f:]) else 0
    kept = [v for v, d in enumerate(degrees)
            if cap > 0 and (target is None or target[d - 1])]
    allowed = 0
    for v in kept:
        allowed |= 1 << v
    full = (g.adj if len(kept) == len(degrees)
            else [m & allowed for m in g.adj])
    closed, opened = [], []
    closed_mask = 0
    for v in kept:
        if len(images[v]) == 1:
            opened.append([v])
        else:
            closed_mask |= 1 << v
            if v == min(images[v]):
                closed.append(sorted(set(images[v])))
    order = (_orbit_order(full, closed, closed_mask)
             + _orbit_order(full, opened, allowed))
    before = [0] * len(degrees)   # neighbors earlier in the order
    heads = []                    # (W, js, E & N(W))
    colours = [[] for _ in range(f)]      # per degree: its colour classes
    degmask = [0] * f                     # per degree: its kept vertices
    seen = 0
    for O in order:
        E = seen
        for v in O:
            before[v] = full[v] & seen
            seen |= 1 << v
            cs = colours[degrees[v] - 1]
            degmask[degrees[v] - 1] |= 1 << v
            for i, C in enumerate(cs):
                if not before[v] & C:
                    cs[i] = C | 1 << v
                    break
            else:
                cs.append(1 << v)
        # an orbit holds one degree, and kappa at most target[d] of it
        most = cap if target is None else target[degrees[O[0]] - 1]
        for W, js in _orbit_classes(O, full, images):
            if len(W) <= most:
                S = E
                for w in W:
                    S &= full[w]
                heads.append((W, js, S))
    return cap, target, full, before, degmask, colours, heads


def tabulate(g: CompatGraph, max_size: int | None = None,
             kappa: tuple | None = None, workers: int = 1) -> PartitionTable:
    """Count cliques of the graph grouped by factorization partition.

    Heads.  The kept vertices fall into orbits: the orbits of the
    marked-point group on the closed vertices (`build_graph`), and each
    other vertex alone.  They are put in a smallest-last order of the
    quotient (`_orbit_order`), closed orbits first, and every clique K is
    counted once, at the last orbit O it meets, as W = K & O together with
    a clique of E & N(W), where E holds the vertices of the orbits before O
    and N(W) is the common neighborhood of W (`_heads`).  So the table is
    1 + sum over O and the cliques W inside O of x^W cnt(E & N(W)).  Under
    a cap of at most 4, cnt counts the cliques of at most cap - |W| <= 3
    members, read off the before masks (`_few_cliques`).  Under a larger
    cap it counts every clique by the pivot recursion of the module
    docstring (`_clique_poly`), and the unpacking keeps only the cells of
    at most cap members.

    Lemma: the term of W depends only on its class under the group, so it
    is counted once per class, times the class size (`_orbit_classes`).
    On the closed vertices the six maps are automorphisms of the graph that
    keep each vertex degree (`build_graph`), and a closed orbit has only
    closed orbits before it, so E is a union of orbits and each sigma maps
    E & N(W) onto E & N(sigma W): the two candidate sets span isomorphic
    subgraphs with the same degrees, and x^(sigma W) = x^W.  An open vertex
    has the trivial group, and with every orbit a single vertex this is the
    plain smallest-last kernel, one head per vertex.

    Radix.  The vertices of each degree d are coloured greedily in that
    order, with c_d colours.  The degree-d members of a clique form a clique
    of the degree-d subgraph, so e_d <= omega_d <= chi_d <= c_d: radix_d =
    1 + c_d.  Under a cap of at most 4 no counted clique has more than cap
    members, and radix_d = 1 + min(cap, c_d).  The most populous degree gets
    stride 1.

    Width.  The colour classes of all degrees together colour the graph
    properly (each is independent, and a class holds one degree), so a
    clique takes at most one vertex from each class C, and the term of a
    class of size m with candidate set S counts at most m times the product
    over C of (1 + |C & S|) cliques.  Under a cap of at most 4 they are also
    m times the subsets of S with at most cap - |W| members, and that count
    is used instead.  No cell exceeds the clique count, so none reaches 1 +
    the sum of these bounds over the heads, and as every term is
    nonnegative no carry ever crosses into the next cell.  The '1' cell is
    the empty product.

    max_size caps the number of irreducible factors.  kappa returns the one
    cell of that partition (present even when 0), counted on the degrees it
    uses with the size capped at |kappa|; a kappa longer than the largest
    degree names the same cell when its extra parts are 0, else an empty
    one.  A negative max_size or part count is a ValueError.  The budget is
    checked once per counted head (W).  workers is accepted and ignored:
    the serial memo beats a pool.
    """
    cap, target, full, before, degmask, colours, heads = _heads(g, max_size,
                                                                kappa)
    f = len(degmask)
    recurse = cap > 4         # else at most three members below a head
    radix = [1 + (len(cs) if recurse else min(cap, len(cs))) for cs in colours]
    stride = [0] * f
    step = 1
    for d in sorted(range(f), key=lambda d: -degmask[d].bit_count()):
        stride[d] = step
        step *= radix[d]
    classes = [C for cs in colours for C in cs]
    bound = 1
    for W, js, S in heads:
        if recurse:
            bound += len(js) * prod(1 + (S & C).bit_count() for C in classes)
        else:
            m = S.bit_count()
            bound += len(js) * sum(comb(m, j) for j in range(cap - len(W) + 1))
    nbytes = (bound.bit_length() + 7) // 8
    shift = [8 * nbytes * stride[d - 1] for d in g.degrees]
    groups = [(m, 8 * nbytes * stride[d]) for d, m in enumerate(degmask) if m]
    root = 1
    for W, js, S in heads:
        budget.check()
        c = (_clique_poly(full, before, S, shift) if recurse
             else _few_cliques(before, S, shift, cap - len(W), groups))
        root += len(js) * c << sum(shift[w] for w in W)
    raw = root.to_bytes(nbytes * step, "little")
    table = PartitionTable(f)
    for e in product(*map(range, radix)):
        at = sum(x * s for x, s in zip(e, stride))
        cell = int.from_bytes(raw[nbytes * at:nbytes * (at + 1)], "little")
        if cell and sum(e) <= cap:
            table.counts[e] = cell
    if target is not None:    # the cell is keyed by target[:f]
        cell = 0 if any(target[f:]) else table.counts.get(target[:f], 0)
        table.counts = {target: cell}
    return table


def enumerate_cliques(g: CompatGraph, kappa: tuple | None = None,
                      max_size: int | None = None,
                      limit: int | None = None):
    """Yield cliques as tuples of vertex indices (ascending), each once.

    The empty clique comes first when it is asked for; the others come head
    by head, in no fixed order.  Each head (W, js, S) of `_heads`, the set-up
    `tabulate` counts with, stands for the cliques W | C with C a clique of S
    and for their images under the maps js, and by the lemma of `tabulate`
    every clique is one of these in exactly one way.  The cliques C are
    walked by their last member in the order (the before masks).  With
    kappa, only cliques of exactly that partition are yielded: the walk
    takes no more members of a degree than the cell has, and enters no
    candidate set that holds fewer vertices of some degree than the clique
    still needs.  The budget is checked once per head, the one current when
    the stream resumes; a stream that would pass limit cliques is refused
    with BudgetExceededError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"negative limit {limit}")
    cap, target, _, before, degmask, _, heads = _heads(g, max_size, kappa)
    degrees, images, f = g.degrees, g.images, len(degmask)
    every = target is None        # yield every clique under the cap
    used = [] if every else [d for d in range(f) if target[d]]
    need = []                 # per degree: the members still allowed
    chosen = []

    def grow(P, room):
        """Yield chosen extended by each clique of P that the cell allows:
        every one without kappa, else those with room more members."""
        for d in used:
            if (P & degmask[d]).bit_count() < need[d]:
                return
        if every or not room:
            yield chosen
        Q = P if room else 0
        while Q:
            b = Q & -Q
            Q ^= b
            x = b.bit_length() - 1
            d = degrees[x] - 1
            if need[d]:
                need[d] -= 1
                chosen.append(x)
                yield from grow(P & before[x], room - 1)
                chosen.pop()
                need[d] += 1

    def walk():
        if every or not any(target):
            yield ()
        for W, js, S in heads:
            budget.check()
            need[:] = [cap] * f if every else target[:f]
            need[degrees[W[0]] - 1] -= len(W)     # an orbit keeps the degree
            chosen[:] = W
            for K in grow(S, cap - len(W)):
                # K under each map; only K itself for an open head, as zip
                # stops at its head's one image
                mapped = list(zip(*[images[v] for v in K]))
                for j in js:
                    yield tuple(sorted(mapped[j]))

    stream = walk()
    yield from islice(stream, limit)
    if limit is not None and next(stream, None) is not None:
        raise BudgetExceededError(f"clique stream exceeds limit {limit}")


# ---------------------------------------------------------------------------
# specialization-set counts


def _ordered_partition_count(kappa_expts: tuple, nu_blocks: tuple) -> int:
    """Ways to deal kappa_expts[d-1] distinct items of degree d into ordered
    blocks whose degree sums are nu_blocks.

    The first block takes take[d] of the items of each degree, in
    prod comb(e_d, take_d) ways, and the rest fill the other blocks.
    """
    if sum((d + 1) * e for d, e in enumerate(kappa_expts)) != sum(nu_blocks):
        return 0
    if not nu_blocks:
        return 1              # the sums agree, so no item is left
    return sum(prod(map(comb, kappa_expts, take))
               * _ordered_partition_count(
                   tuple(e - t for e, t in zip(kappa_expts, take)), nu_blocks[1:])
               for take in product(*(range(e + 1) for e in kappa_expts))
               if sum((d + 1) * t for d, t in enumerate(take)) == nu_blocks[0])


def count_u_nu(g: CompatGraph, nu: tuple, workers: int = 1) -> int:
    """Number of tuples of monic polynomials with prescribed degrees whose
    product times t(t-1) has unit discriminant.

    nu must end with three 1s (the marked points); those slots are passive.
    Computed as sum over cliques of ordered set-partition counts, i.e. from
    the partition table and a combinatorial factor per partition.
    """
    nu = tuple(nu)
    if len(nu) < 3 or nu[-3:] != (1, 1, 1):
        raise ValueError("nu must end with (1, 1, 1)")
    blocks = nu[:-3]
    if not blocks:
        return 1  # only the empty tuple
    table = tabulate(g, max_size=sum(blocks), workers=workers)
    total = 0
    for expts, cnt in table.counts.items():
        if sum((d + 1) * e for d, e in enumerate(expts)) == sum(blocks):
            ways = _ordered_partition_count(expts, blocks)
            if ways:
                total += ways * cnt
    return total


# ---------------------------------------------------------------------------
# fractional-linear packets of fully split polynomials


def _triple_to_matrix(p, q, r):
    """The primitive integer matrix (a, b, c, d) sending p, q, r to 0, 1, inf.

    Points are primitive pairs (n, d) of P^1(Q), inf = (1, 0).  With
    [x, y] = x0 y1 - x1 y0 the map is x -> ([q,r] [x,p] : [q,p] [x,r]): it
    vanishes at p, has a pole at r and is 1 at q, and needs no case for
    inf.  The forms [x,p] and [x,r] have coprime coefficients, so
    gcd([q,r], [q,p]) is the content of the matrix.
    """
    qr = q[0] * r[1] - q[1] * r[0]
    qp = q[0] * p[1] - q[1] * p[0]
    g = gcd(qr, qp)
    qr //= g
    qp //= g
    return qr * p[1], -qr * p[0], qp * r[1], -qp * r[0]


def _s3_moves(ids):
    """For each element of S3_ELEMENTS, in that order, the list sending each
    point id to the id of the point's image; ids maps primitive pairs to
    0, 1, 2, ... in insertion order, and an image with no id gets len(ids),
    an id no point has.

    The generators x -> 1 - x and x -> 1/x send (n, d) to (d - n, d) and to
    (d, n).  Both keep a pair primitive, so each image needs only a sign fix
    (inf = (1, 0)), no gcd.
    """
    def flip(x):
        n, d = x
        return (d - n, d) if d else (1, 0)

    def inv(x):
        n, d = x
        return (d, n) if n > 0 else (-d, -n) if n else (1, 0)

    none = len(ids)
    return [[ids.get(y, none) for y in images]
            for images in zip(*(s3_images(x, flip, inv) for x in ids))]


def _perm_order(move) -> int:
    """The order of the permutation move (a dict from each point to its
    image): the lcm of the cycle lengths."""
    order = 1
    for x in move:
        k, y = 1, move[x]
        while y != x:
            k, y = k + 1, move[y]
        order = lcm(order, k)
    return order


def _group_label(orders) -> str:
    """The name of a finite subgroup of PGL2(Q) from its element orders.

    Lemma: such a subgroup is cyclic, of order 1, 2, 3, 4 or 6, or dihedral,
    of order 4, 6, 8 or 12.  A cyclic group has an element of its own order,
    and a dihedral group of order 2n one of order n and none larger.  So
    either the largest element order is the order (cyclic), or the order is
    twice it (dihedral: V, S3, D4 or D6).
    """
    order = len(orders)
    maxord = max(orders)
    if maxord == order:
        return f"C{order}"
    if maxord == 2:
        return "V"
    if maxord == 3:
        return "S3"
    return f"D{maxord}"


_LEAVES = ("packet image leaves the input set; input is not closed under the "
           "marked-point maps")


class Packet(Record):
    def __init__(self, members, stabilizer_order, stabilizer_label):
        self.members = members      # positions in polys, ascending
        self.stabilizer_order = stabilizer_order
        self.stabilizer_label = stabilizer_label


def _split_pairs(s):
    """The roots of s as primitive pairs; s must split into distinct linear
    factors."""
    rr = rational_roots(s.coeffs)
    if len(rr) != s.degree:
        raise ValueError(f"{s} does not split into distinct linear factors")
    return rr


def pgl2_packets(polys, roots=None):
    """Group fully split polynomials into fractional-linear packets.

    Each polynomial's root set together with the marked points 0, 1, inf is
    carried around the projective line by the maps sending ordered triples of
    the set to (0, 1, inf); polynomials landing on each other join a packet.
    Points are primitive integer pairs (n, d), inf = (1, 0), as
    `rational_roots` returns them.  roots, when given, lists each
    polynomial's roots (ints or Fractions) in the same order as polys; they
    are converted to pairs one polynomial at a time.  Returns (packets, mass)
    where mass = sum of 1/|stabilizer| and must equal
    len(polys) / ((a+3)(a+2)(a+1)) with a the root count.

    Every distinct point gets a small int id, the marked points 0, 1 and 2,
    and a polynomial's key is the sorted tuple of its a root ids, the marked
    points left implicit.  The six S3 images of each point are computed
    once, as ids (`_s3_moves`), so a key's image under a map permuting
    0, 1, inf is the sorted tuple of its points' image ids; a point whose
    image has no id gives a key that no input has.

    Each unordered triple {p, q, r} of a key K gives one image I = T(K), T
    the map sending (p, q, r) to (0, 1, inf): the images of the a + 3
    points are read once, as ids, in the points' order.  The map of any
    other ordering is s o T for one of the six maps s permuting 0, 1, inf,
    so the other five images are the s(I), read off the id table.  The
    orbit is a union of these S3 classes: a class joins it when its I is
    first met, and an I already in the orbit adds nothing.  s o T fixes K
    exactly when s sends T's image ids to ids that sort to K, which needs I
    to be one of the six s^-1(K); only those triples are run through the
    six s to collect the stabilizer.  Only the first key of each packet is
    turned back into its a + 3 pairs, for the triple maps.

    A map of PGL2(Q) that fixes three points is the identity, so a
    stabilizer element has the order of the permutation it induces on the
    a + 3 point ids of the key, and the stabilizer is labelled from those.

    Malformed input raises ValueError: no polynomials, a polynomial that
    does not split into distinct linear factors (roots=None), a root list
    count that differs from len(polys), root counts that differ, a repeated
    root, a root at a marked point, or a repeated polynomial.  An image that is
    not an input (`_LEAVES`), an orbit and stabilizer whose sizes do not
    multiply to (a+3)(a+2)(a+1), and a failed mass identity raise
    AssertionError, by an explicit raise that python -O keeps.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("no polynomials to group into packets")
    if roots is None:
        a = polys[0].degree
        roots = map(_split_pairs, polys)
    else:
        if len(roots) != len(polys):
            raise ValueError(f"{len(roots)} root lists for {len(polys)} "
                             "polynomials")
        a = len(roots[0])
        roots = ([r.as_integer_ratio() for r in rr] for rr in roots)
    ids = {x: i for i, x in enumerate(MARKED)}     # point -> id
    index = {}                                      # key -> position in polys
    for i, rr in enumerate(roots):
        if len(rr) != a:
            raise ValueError("every polynomial must have the same number "
                             "of roots")
        key = tuple(sorted([ids.setdefault(x, len(ids)) for x in rr]))
        if len(set(key)) != a:
            raise ValueError("split polynomials here must be separable")
        if a and key[0] < len(MARKED):
            raise ValueError("roots must avoid the marked points")
        index[key] = i
    if len(index) != len(polys):
        raise ValueError("duplicate polynomials in packet input")

    pts = list(ids)                                 # id -> point
    moves = _s3_moves(ids)
    none = len(pts)

    def s3_keys(key):
        return [tuple(sorted([m[x] for x in key])) for m in moves]

    packets = []
    seen = bytearray(len(polys))
    denom = (a + 3) * (a + 2) * (a + 1)
    for key, i in index.items():
        if seen[i]:
            continue
        budget.check()
        full_ids = key + (0, 1, 2)
        full = [pts[x] for x in full_ids]
        s3_key = set(s3_keys(key))
        orbit = set()
        stab = []             # the orders of the stabilizer elements
        for p, q, r in combinations(full, 3):
            a0, b0, c0, d0 = _triple_to_matrix(p, q, r)
            mapped = [ids.get(projective_point(a0 * x0 + b0 * x1,
                                               c0 * x0 + d0 * x1), none)
                      for x0, x1 in full]
            # p, q, r go to the marked points, ids 0, 1, 2, which sort first
            image = tuple(sorted(mapped)[3:])
            j = index.get(image)
            if j is None:
                raise AssertionError(_LEAVES)
            if image in s3_key:
                for move in moves:
                    after = [move[y] for y in mapped]
                    if tuple(sorted(after)[3:]) == key:
                        stab.append(_perm_order(dict(zip(full_ids, after))))
            if j in orbit:
                continue
            for moved in s3_keys(image):
                m = index.get(moved)
                if m is None:
                    raise AssertionError(_LEAVES)
                orbit.add(m)
        size = len(orbit)
        if size * len(stab) != denom:
            raise AssertionError("orbit-stabilizer mismatch in packet")
        for m in orbit:
            seen[m] = 1
        packets.append(Packet(sorted(orbit), len(stab), _group_label(stab)))
    mass = sum(Fraction(1, p.stabilizer_order) for p in packets)
    if mass != Fraction(len(polys), denom):
        raise AssertionError("packet mass differs from len(polys) / "
                             f"{denom}")
    return packets, mass
