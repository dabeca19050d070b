"""Compatibility graph, clique tabulation, specialization counts, packets.

Two vertices are adjacent when their resultant is smooth.  Every clique has
a unique largest vertex in the fixed total order, so with lesser-neighbor
bitmasks (Python ints) each clique is reached once: `enumerate_cliques`
yields them one by one in that order.

`tabulate` counts them by partition as one polynomial: a clique with e_d
members of degree d is the monomial prod x_d^e_d.  It heads each clique by
its part in its last orbit of the marked-point group S3, in a smallest-last
(degeneracy) order of the orbits instead (Matula and Beck), so that a head
has few neighbors before it, and it counts one head per S3-class, times the
class size: the six maps are automorphisms on the closed vertices (lemmas
in `build_graph` and `tabulate`).  It counts the cliques inside a candidate
set T by the pivot identity of the succinct clique tree (Jain and
Seshadhri, Pivoter): for p in T and u_1, u_2, ... the members of T outside
N[p], in order,

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

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod

from .budget import Budget, BudgetExceededError
from .poly import (
    MARKED,
    projective_point,
    rational_roots,
    resultant_bound,
    resultant_fast,
    s3_transform,
)
from .smooth import PrimeSet, is_smooth, smooth_numbers_up_to
from .vertices import VertexSet

TABLE_SCHEMA = "polytab.table/1"


# ---------------------------------------------------------------------------
# graph


@dataclass
class CompatGraph:
    vertices: list            # [Vertex], the fixed total order
    degrees: list             # per-vertex degree
    lesser: list              # per-vertex bitmask of neighbors with lower index
    P: PrimeSet
    # per vertex: its images under the six marked-point maps, in one fixed
    # order of the group, for a closed vertex, and (i,) for an open one;
    # None: no known symmetry
    images: list | None = None

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.lesser)


def build_graph(vs: VertexSet, P: PrimeSet | None = None,
                budget: Budget | None = None) -> CompatGraph:
    """Adjacency by resultant smoothness over P, one resultant per S3 orbit
    of vertex pairs.

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
    once per representative.  The images are kept on the graph: on the
    closed vertices the six maps are automorphisms that keep the vertex
    degree, which `tabulate` uses to count one head per class of cliques.

    Lemma: no resultant of the loop exceeds B = resultant_bound(coeffs).
    By Hadamard's inequality on the Sylvester matrix, which has deg g rows
    of coefficients of f and deg f rows of those of g, |Res(f, g)| <=
    |f|_2^deg g |g|_2^deg f, and B is the largest such product over the
    degree pairs of the set.  So a resultant is a nonzero P-smooth integer
    exactly when its absolute value is one of the P-smooth numbers <= B,
    which are listed once and looked up.  A set whose B would need more of
    them than there are resultants to compute (huge coefficients) tests
    each resultant by stripping the primes of P instead.
    """
    P = P or vs.P
    budget = budget or Budget.from_env()
    verts = vs.all_vertices()
    coeffs = [v.poly.coeffs for v in verts]
    degrees = [v.poly.degree for v in verts]
    n = len(verts)
    index = {c: i for i, c in enumerate(coeffs)}    # a repeat: its last copy
    # the generators t -> 1 - t and t -> 1/t as index maps (None: no image
    # among the vertices); a vertex tuple has a nonzero last entry, so an
    # image that drops its degree is never found
    flip, inv = [], []
    for v, c in zip(verts, coeffs):
        flip.append(index.get(s3_transform(v.poly, "(01)").coeffs))
        c = c[::-1]
        inv.append(index.get(c if c[-1] > 0 else tuple(-x for x in c)))
    # images[i]: i under e, flip, inv, flip inv, inv flip, flip inv flip
    images = []
    for i in range(n):
        a, b = flip[i], inv[i]
        ab = None if b is None else flip[b]
        ba = None if a is None else inv[a]
        aba = None if ba is None else flip[ba]
        # the earlier copies of a repeated vertex stay open
        closed = index[coeffs[i]] == i and None not in (a, b, ab, ba, aba)
        images.append((i, a, b, ab, ba, aba) if closed else (i,))
    order = [i for i in range(n) if len(images[i]) == 1]
    heads = list(enumerate(order))      # (position in order, representative)
    placed = set(order)
    for i in range(n):
        if i not in placed:
            orbit = sorted(set(images[i]))      # i is its least member
            heads.append((len(order), i))
            placed.update(orbit)
            order.extend(orbit)
    smooth = smooth_numbers_up_to(P, max(resultant_bound(coeffs), 1),
                                  limit=sum(n - 1 - at for at, _ in heads))
    smooth = _Stripped(P) if smooth is None else set(smooth)
    lesser = [0] * n
    for at, r in heads:
        budget.check()
        cr, group = coeffs[r], images[r]
        for j in order[at + 1:]:
            if abs(resultant_fast(cr, coeffs[j])) in smooth:
                for a, b in zip(group, images[j]):
                    if a > b:
                        lesser[a] |= 1 << b
                    else:
                        lesser[b] |= 1 << a
    return CompatGraph(verts, degrees, lesser, P, images)


class _Stripped:
    """The P-smooth integers as a container, tested by stripping the primes
    of P: for vertex sets too large to list them."""

    def __init__(self, P: PrimeSet):
        self.P = P

    def __contains__(self, r):
        return is_smooth(r, self.P)


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


@dataclass
class PartitionTable:
    f: int                      # largest vertex degree in the graph
    counts: dict = field(default_factory=dict)  # exponent vector -> count

    def count(self, expts) -> int:
        return self.counts.get(tuple(expts), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kappa", "count"])
        for expts in sorted(self.counts,
                            key=lambda e: (sum((d + 1) * x for d, x in enumerate(e)), e)):
            w.writerow([partition_label(expts), self.counts[expts]])
        return buf.getvalue()

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
    group, as (W, class size) pairs.

    The group is transitive on the orbit, so its single members form one
    class.  Larger cliques are grown in local bits, and W stands for its
    class when its mask is the least of its images.
    """
    out = [(orbit[:1], len(orbit))]
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
            imgs = {sum(1 << p[a] for a in range(k) if V >> a & 1)
                    for p in perms}
            if V == min(imgs):
                out.append(([u for a, u in enumerate(orbit) if V >> a & 1],
                            len(imgs)))
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


def tabulate(g: CompatGraph, max_size: int | None = None,
             kappa: tuple | None = None, workers: int = 1,
             budget: Budget | None = None) -> PartitionTable:
    """Count cliques of the graph grouped by factorization partition.

    Heads.  The kept vertices fall into orbits: the orbits of the marked-point
    group on the closed vertices (`build_graph`), and each other vertex alone
    (every vertex alone when g.images is None).  They are put in a
    smallest-last order of the quotient (`_orbit_order`), closed orbits
    first, and every clique K is counted once, at the last orbit O it meets,
    as W = K & O together with a clique of E & N(W), where E holds the
    vertices of the orbits before O and N(W) is the common neighborhood of
    W.  So the table is 1 + sum over O and the cliques W inside O of
    x^W cnt(E & N(W)).  Under a cap of at most 4, cnt counts the cliques of
    at most cap - |W| <= 3 members, read off the before masks
    (`_few_cliques`).  Under a larger cap it counts every clique by the pivot
    recursion of the module docstring (`_clique_poly`), and the unpacking
    keeps only the cells of at most cap members.

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
    uses with the size capped at |kappa|; a negative max_size or part count
    is a ValueError.  The budget is checked once per counted head (W).
    workers is accepted and ignored: the serial memo beats a pool.
    """
    budget = budget or Budget.from_env()
    degrees, lesser, images = g.degrees, g.lesser, g.images
    f = max(degrees, default=1)
    if max_size is not None and max_size < 0:
        raise ValueError(f"negative max_size {max_size}")
    if kappa is not None and min(kappa, default=0) < 0:
        raise ValueError(f"negative part count in kappa {kappa}")
    cap = len(degrees) if max_size is None else max_size
    target = None if kappa is None else tuple(kappa) + (0,) * (f - len(kappa))
    if target is not None:
        cap = min(cap, sum(target))
    kept = [v for v, d in enumerate(degrees)
            if cap > 0 and (target is None or target[d - 1])]
    allowed = 0
    for v in kept:
        allowed |= 1 << v
    full = [0] * len(degrees)     # all neighbors among the kept vertices
    for v in reversed(kept):      # each full[u] gets its top bit first
        Q = lesser[v] & allowed
        full[v] |= Q
        while Q:
            b = Q & -Q
            Q ^= b
            full[b.bit_length() - 1] |= 1 << v
    closed, opened = [], []
    closed_mask = 0
    for v in kept:
        if images is None or len(images[v]) == 1:
            opened.append([v])
        else:
            closed_mask |= 1 << v
            if v == min(images[v]):
                closed.append(sorted(set(images[v])))
    order = (_orbit_order(full, closed, closed_mask)
             + _orbit_order(full, opened, allowed))
    before = [0] * len(degrees)   # neighbors earlier in the order
    heads = []                    # (W, class size, E & N(W))
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
        for W, mult in _orbit_classes(O, full, images):
            if len(W) <= cap:
                S = E
                for w in W:
                    S &= full[w]
                heads.append((W, mult, S))
    recurse = cap > 4         # else at most three members below a head
    radix = [1 + (len(cs) if recurse else min(cap, len(cs))) for cs in colours]
    stride = [0] * f
    step = 1
    for d in sorted(range(f), key=lambda d: -degmask[d].bit_count()):
        stride[d] = step
        step *= radix[d]
    classes = [C for cs in colours for C in cs]
    bound = 1
    for W, mult, S in heads:
        if recurse:
            bound += mult * prod(1 + (S & C).bit_count() for C in classes)
        else:
            m = S.bit_count()
            bound += mult * sum(comb(m, j) for j in range(cap - len(W) + 1))
    nbytes = (bound.bit_length() + 7) // 8
    shift = [8 * nbytes * stride[d - 1] for d in degrees]
    groups = [(m, 8 * nbytes * stride[d]) for d, m in enumerate(degmask) if m]
    root = 1
    for W, mult, S in heads:
        budget.check()
        c = (_clique_poly(full, before, S, shift) if recurse
             else _few_cliques(before, S, shift, cap - len(W), groups))
        root += mult * c << sum(shift[w] for w in W)
    raw = root.to_bytes(nbytes * step, "little")
    table = PartitionTable(f)
    for e in product(*map(range, radix)):
        at = sum(x * s for x, s in zip(e, stride))
        cell = int.from_bytes(raw[nbytes * at:nbytes * (at + 1)], "little")
        if cell and sum(e) <= cap:
            table.counts[e] = cell
    if target is not None:
        table.counts = {target: table.counts.get(target, 0)}
    return table


def enumerate_cliques(g: CompatGraph, kappa: tuple | None = None,
                      max_size: int | None = None,
                      budget: Budget | None = None,
                      limit: int | None = None):
    """Yield cliques as tuples of vertex indices (ascending).

    With kappa, only cliques of exactly that partition are yielded.  The walk
    enters no candidate set that holds fewer vertices of some degree than the
    clique still needs, and skips the members of a candidate set with too few
    vertices of the set below them.  Only subtrees without a kappa clique are
    cut, so the yield order is that of the full walk.  The budget is checked
    once per top-level vertex.
    """
    budget = budget or Budget.from_env()
    degrees, lesser = g.degrees, g.lesser
    if max_size is not None and max_size < 0:
        raise ValueError(f"negative max_size {max_size}")
    remaining = None
    left = 0                  # members still needed, under kappa
    if kappa is not None:
        remaining = list(kappa) + [0] * (max(degrees, default=1) - len(kappa))
        if min(remaining) < 0:
            raise ValueError(f"negative part count in kappa {kappa}")
        left = sum(remaining)
        degmask = [0] * len(remaining)
        for v, d in enumerate(degrees):
            degmask[d - 1] |= 1 << v
        needed = [(degmask[d], d) for d, e in enumerate(remaining) if e]
    if remaining is None or not left:
        yield ()
        if remaining is not None:
            return

    def rec(P, chosen, left):
        """Cliques extending chosen by members of P; left members to go."""
        Q = P
        for _ in range(left - 1):     # the next member has left - 1 below it
            Q &= Q - 1
        while Q:
            if not chosen:
                budget.check()
            b = Q & -Q
            Q ^= b
            v = b.bit_length() - 1
            if remaining is None:
                chosen.append(v)
                yield tuple(sorted(chosen))
                if max_size is None or len(chosen) < max_size:
                    yield from rec(P & lesser[v], chosen, 0)
                chosen.pop()
                continue
            d = degrees[v] - 1
            if remaining[d] <= 0:
                continue
            chosen.append(v)
            remaining[d] -= 1
            if left == 1:
                yield tuple(sorted(chosen))
            elif max_size is None or len(chosen) < max_size:
                child = P & lesser[v]
                for mask, e in needed:
                    if (child & mask).bit_count() < remaining[e]:
                        break
                else:
                    yield from rec(child, chosen, left - 1)
            remaining[d] += 1
            chosen.pop()

    walk = rec((1 << len(degrees)) - 1, [], left)
    for produced, clique in enumerate(walk, 1):
        yield clique
        if limit is not None and produced >= limit:
            raise BudgetExceededError(f"clique stream exceeds limit {limit}")


# ---------------------------------------------------------------------------
# specialization-set counts


def _ordered_partition_count(kappa_expts: tuple, nu_blocks: tuple) -> int:
    """Ordered set-partition count of a degree multiset into blocks.

    kappa_expts[d-1] items of degree d must fill ordered blocks whose degree
    sums are nu_blocks; items are distinct, so choices multiply binomially.
    """
    degs = [d + 1 for d, e in enumerate(kappa_expts) for _ in range(e)]
    if sum(degs) != sum(nu_blocks):
        return 0

    @lru_cache(maxsize=None)
    def solve(remaining: tuple, block: int) -> int:
        if block == len(nu_blocks):
            return 1 if not any(remaining) else 0
        total = 0
        target = nu_blocks[block]

        def assign(d, left, ways, rem):
            nonlocal total
            if left == 0:
                total += ways * solve(tuple(rem), block + 1)
                return
            if d > len(rem):
                return
            avail = rem[d - 1]
            maxtake = min(avail, left // d)
            for take in range(maxtake + 1):
                if take * d <= left:
                    rem2 = list(rem)
                    rem2[d - 1] -= take
                    assign(d + 1, left - take * d, ways * comb(avail, take), rem2)

        assign(1, target, 1, list(remaining))
        return total

    return solve(tuple(kappa_expts), 0)


def count_u_nu(g: CompatGraph, nu: tuple, workers: int = 1,
               budget: Budget | None = None) -> int:
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
    table = tabulate(g, max_size=sum(blocks), workers=workers, budget=budget)
    total = 0
    for expts, cnt in table.counts.items():
        if sum((d + 1) * e for d, e in enumerate(expts)) == sum(blocks):
            ways = _ordered_partition_count(expts, blocks)
            if ways:
                total += ways * cnt
    return total


# ---------------------------------------------------------------------------
# reduction bound


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


def _image(mat, pts):
    """The set of images of the points pts under mat, as primitive pairs."""
    a, b, c, d = mat
    return frozenset(projective_point(a * x0 + b * x1, c * x0 + d * x1)
                     for x0, x1 in pts)


def _mat_mul(m1, m2):
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


_IDENT = (1, 0, 0, 1)


def _mat_order(m, cap=16):
    acc = m
    for k in range(1, cap + 1):
        if acc == _IDENT:
            return k
        acc = _mat_mul(acc, m)
    return None


def _group_label(mats) -> str:
    order = len(mats)
    maxord = max(_mat_order(m) or 10 ** 9 for m in mats)
    if maxord == order:
        return f"C{order}"
    if order == 2 * maxord:
        if maxord == 2:
            return "V"
        if maxord == 3:
            return "S3"
        return f"D{maxord}"
    return f"order{order}"


@dataclass
class Packet:
    members: list               # polynomials (or clique ids) in the packet
    stabilizer_order: int
    stabilizer_label: str


def pgl2_packets(polys, roots=None, budget: Budget | None = None):
    """Group fully split polynomials into fractional-linear packets.

    Each polynomial's root set together with the marked points 0, 1, inf is
    carried around the projective line by the maps sending ordered triples of
    the set to (0, 1, inf); polynomials landing on each other join a packet.
    Points are primitive integer pairs (n, d), inf = (1, 0).  Returns
    (packets, mass) where mass = sum of 1/|stabilizer| and must equal
    len(polys) / ((a+3)(a+2)(a+1)) with a the root count.  roots, when
    given, lists each polynomial's roots (ints or Fractions) in the same
    order as polys.
    """
    budget = budget or Budget.from_env()
    polys = list(polys)
    if not polys:
        raise ValueError("no polynomials to group into packets")
    if roots is None:
        roots = []
        for s in polys:
            rr = rational_roots(s.coeffs)
            if len(rr) != s.degree:
                raise ValueError(f"{s} does not split into linear factors")
            roots.append(rr)
    if len(roots) != len(polys):
        raise ValueError(f"{len(roots)} root lists for {len(polys)} polynomials")
    a = len(roots[0])
    index = {}
    canon = {}                # one tuple per distinct point, shared by keys
    for i, rr in enumerate(roots):
        if len(rr) != a:
            raise ValueError("every polynomial must have the same number "
                             "of roots")
        pts = set()
        for r in rr:
            x = (r.numerator, r.denominator)
            pts.add(canon.setdefault(x, x))
        if len(pts) != a:
            raise ValueError("split polynomials here must be separable")
        key = frozenset(pts).union(MARKED)
        if len(key) != a + 3:
            raise ValueError("roots must avoid the marked points")
        index[key] = i
    if len(index) != len(polys):
        raise ValueError("duplicate polynomials in packet input")

    packets = []
    seen = set()
    denom = (a + 3) * (a + 2) * (a + 1)
    for key, i in index.items():
        if i in seen:
            continue
        budget.check()
        orbit = set()
        stab_mats = []
        for p in key:
            for q in key:
                if q == p:
                    continue
                for r in key:
                    if r == p or r == q:
                        continue
                    mat = _triple_to_matrix(p, q, r)
                    image = _image(mat, key)
                    j = index.get(image)
                    if j is None:
                        raise AssertionError(
                            "packet image leaves the input set; input is not "
                            "closed under the marked-point maps")
                    orbit.add(j)
                    if image == key:
                        stab_mats.append(_mat_mul(mat, _IDENT))
        size = len(orbit)
        if size * len(stab_mats) != denom:
            raise AssertionError("orbit-stabilizer mismatch in packet")
        for m in orbit:
            seen.add(m)
        packets.append(Packet(sorted(orbit), len(stab_mats),
                              _group_label(stab_mats)))
    mass = sum(Fraction(1, p.stabilizer_order) for p in packets)
    if mass != Fraction(len(polys), denom):
        raise AssertionError("packet mass differs from len(polys) / "
                             f"{denom}")
    return packets, mass
