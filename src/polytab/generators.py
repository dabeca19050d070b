"""Large-degree constructions: cyclotomic counts, three-point covers, pullbacks.

The generating-function route counts products of distinct cyclotomic
polynomials indexed by smooth integers; the pullback route composes rational
maps with critical values among the marked points, which multiplies degrees
while keeping bad reduction inside the prime set.  A pullback's discriminant
comes from the identity proved in `pullback` (the cover's pencil
discriminant, a resultant against s and disc(s)), never from a PRS of the
pulled-back degree.  Every polynomial emitted here is re-verified by the
membership predicate before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, BudgetExceededError
from .poly import (
    MARKED,
    NormalizedPoly,
    _poly_gcd,
    _primitive,
    _radical,
    _trim,
    check_membership,
    is_irreducible,
    normalize,
    poly_mul,
    resultant_coeffs,
    with_discriminant,
)
from .smooth import PrimeSet, is_smooth, is_unit_in, smooth_numbers_up_to


# ---------------------------------------------------------------------------
# cyclotomic generating function


@dataclass(frozen=True)
class SeriesCoefficients:
    P: PrimeSet
    kmax: int
    coeffs: tuple  # c_0 .. c_kmax


def _phi_of_smooth(i: int, P: PrimeSet) -> int:
    phi = i
    for p in P:
        if i % p == 0:
            phi = phi // p * (p - 1)
    return phi


def cyclo_series(P: PrimeSet, kmax: int, budget: Budget | None = None) -> SeriesCoefficients:
    """Counts of degree-k products of distinct cyclotomic polynomials with
    smooth index, as the truncated product of (1 + x^phi(i)).

    Indices run over the smooth integers > 1; phi(i) >= i * prod(1 - 1/p)
    bounds the enumeration.
    """
    if 2 not in P:
        raise ValueError("the cyclotomic count needs 2 in the prime set")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    budget = budget or Budget.from_env()
    scale_num = 1
    scale_den = 1
    for p in P:
        scale_num *= p
        scale_den *= p - 1
    bound = kmax * scale_num // scale_den + 1
    degrees = []
    for i in smooth_numbers_up_to(P, bound):
        if i == 1:
            continue
        phi = _phi_of_smooth(i, P)
        if phi <= kmax:
            degrees.append(phi)
    degrees.sort()
    coeffs = [0] * (kmax + 1)
    coeffs[0] = 1
    for d in degrees:
        budget.check()
        for k in range(kmax, d - 1, -1):
            if coeffs[k - d]:
                coeffs[k] += coeffs[k - d]
    return SeriesCoefficients(P, kmax, tuple(coeffs))


# ---------------------------------------------------------------------------
# recursive three-point covers


@dataclass(frozen=True)
class RationalCover:
    """F(t) = scalar * numer(t) / denom(t), a self-map of the projective line."""

    name: str
    numer: NormalizedPoly
    denom: NormalizedPoly
    scalar: Fraction

    @property
    def degree(self) -> int:
        return max(self.numer.degree, self.denom.degree)


class CoverValidationError(ValueError):
    pass


def validate_cover(cover: RationalCover, P: PrimeSet) -> None:
    """Cover sanity for the pullback construction.

    Exact checks: numerator/denominator coprime; the three marked points map
    into the marked points; the fibers over the marked points carry exactly
    degree + 2 distinct projective points (so no critical value escapes
    them); unit scalar and smooth fiber data over P.
    """
    f, g, u = cover.numer, cover.denom, cover.scalar
    m = cover.degree
    if len(_poly_gcd(f.coeffs, g.coeffs)) > 1:
        raise CoverValidationError("numerator and denominator share a factor")
    if not is_unit_in(u, P):
        raise CoverValidationError("scalar is not a unit over the prime set")
    A, B = _pencil(cover)
    # F = (A : B) as forms of degree m; coprime, so never (0 : 0)
    for x in MARKED:
        a, b = _form_at(A, m, x), _form_at(B, m, x)
        if a and b and a != b:
            raise CoverValidationError(f"marked point {x} escapes the marked set")
    # fiber polynomials over 0, 1 and infinity
    fiber0 = f.coeffs
    one_fiber = _pencil_at(A, B, 1)
    if not one_fiber:
        raise CoverValidationError("cover is constant 1")
    one_fiber = _primitive(one_fiber)
    fiberinf = g.coeffs
    points = 1  # the point at infinity always lies in exactly one fiber
    for fib in (fiber0, one_fiber, fiberinf):
        rad = _radical(fib)
        points += len(rad) - 1
        d = _disc_or_none(rad)
        if d is not None and not is_smooth(d, P):
            raise CoverValidationError("fiber has bad reduction outside the primes")
    if points != m + 2:
        raise CoverValidationError(
            f"critical values escape the marked points ({points} != {m + 2})")
    r0, r1, rinf = (_radical(x) for x in (fiber0, one_fiber, fiberinf))
    for a, b in ((r0, r1), (r0, rinf), (r1, rinf)):
        r = resultant_coeffs(a, b)
        if r == 0 or not is_smooth(r, P):
            raise CoverValidationError("fibers meet or separate non-smoothly")


def _disc_or_none(rad):
    s = NormalizedPoly(rad)
    if s.degree < 2:
        return None
    return s.discriminant()


def _pencil(cover: RationalCover):
    """Integer (A, B) with F = A/B: a * numer and b * denom for scalar a/b."""
    a, b = cover.scalar.numerator, cover.scalar.denominator
    return ([a * x for x in cover.numer.coeffs],
            [b * x for x in cover.denom.coeffs])


def _form_at(c, m: int, x: tuple) -> int:
    """The coefficient list c read as a form of degree m, at the pair x."""
    x0, x1 = x
    return sum(ci * x0 ** i * x1 ** (m - i) for i, ci in enumerate(c))


def _pencil_at(A, B, x):
    """Coefficients of A - x B, trimmed."""
    return _trim([(A[i] if i < len(A) else 0) - x * (B[i] if i < len(B) else 0)
                  for i in range(max(len(A), len(B)))])


def _pencil_discriminant(A, B, m: int) -> list:
    """D(x) = disc_m(A - x B) as an integer coefficient list ([] for zero).

    disc_m, the discriminant of a form of degree m, is an integer polynomial
    of degree 2m - 2 in the coefficients, so D has degree <= 2m - 2.  It is
    interpolated from 2m - 1 integers x at which A - x B keeps degree m (at
    most one x lowers it), where D(x) is the discriminant of A - x B.
    """
    xs, ys = [], []
    x = 0
    while len(xs) < 2 * m - 1:
        c = _pencil_at(A, B, x)
        if len(c) == m + 1:
            p, scale = normalize(c)
            xs.append(x)
            ys.append(int(scale) ** (2 * m - 2) * p.discriminant())
        x = -x if x > 0 else 1 - x   # 0, 1, -1, 2, -2, ...
    D = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, den = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = poly_mul(basis, [-xj, 1])
                den *= xi - xj
        for idx, c in enumerate(basis):
            D[idx] += Fraction(yi * c, den)
    return _trim([int(c) for c in D])


def _pencil_resultant(A, B, m: int) -> int:
    """|Res_{m,m}(A, B)|, A and B read as forms of degree m."""
    r = resultant_coeffs(A, B)
    if len(A) <= m:
        r *= B[-1] ** (m + 1 - len(A))
    elif len(B) <= m:
        r *= A[-1] ** (m + 1 - len(B))
    return abs(r)


def pullback(cover: RationalCover, s: NormalizedPoly, P: PrimeSet,
             budget: Budget | None = None) -> NormalizedPoly:
    """Normalized s(F(t)) * denom(t)^deg(s), which must pass the membership
    predicate over P; a failure means the cover is not a valid three-point
    cover for P.  The construction is `_pullback`.
    """
    out = _pullback(cover, s, budget or Budget.from_env())
    rep = check_membership(out, P)
    if not rep.ok:
        raise CoverValidationError(
            f"pullback of {s} failed membership: {rep.failures}")
    return out


def _pullback(cover: RationalCover, s: NormalizedPoly,
              budget: Budget) -> NormalizedPoly:
    """Normalized s(F(t)) * denom(t)^deg(s); degree multiplies exactly.

    The output carries its discriminant, computed from the cover and s by
    the identity below instead of a PRS of degree deg(s) * deg(F).  The
    budget is polled once per coefficient of s.

    Identity.  Write F = A/B with integer A = a * numer and B = b * denom
    (scalar = a/b), m = deg F = max(deg A, deg B), k = deg s, and
    H = sum_i s_i A^i B^(k-i) = lc(s) * prod_j P_j, where P_j = A - alpha_j B
    over the roots alpha_j of s.  H is c * h for the output h and an integer
    c, and deg H = m k is checked, so every P_j has degree exactly m.  Put
    D(x) = disc_m(A - x B) and R = Res_{m,m}(A, B).  Then

        disc(H) = lc(s)^(2m-2-deg D) * Res(s, D) * R^(k(k-1)) * disc(s)^m,

    and disc(h) = disc(H) / c^(2mk-2), since disc is homogeneous of degree
    2n - 2 in the coefficients of a degree-n polynomial.  Proof:
    - disc(c Q) = c^(2n-2) disc(Q), and the discriminant of a product is the
      product of the discriminants times every pairwise resultant squared,
      so disc(H) = lc(s)^(2mk-2) * prod_j disc(P_j)
      * prod_{i<j} Res(P_i, P_j)^2.
    - The Sylvester matrix of (A - alpha B, A - beta B) at formal degrees
      (m, m) is ([[1, -alpha], [1, -beta]] (x) I_m) times that of (A, B),
      so Res(P_i, P_j) = (alpha_i - alpha_j)^m R, and the product over i < j
      of their squares is R^(k(k-1)) * (disc(s) / lc(s)^(2k-2))^m.
    - disc(P_j) = D(alpha_j) because P_j has degree m, and
      prod_j D(alpha_j) = Res(s, D) / lc(s)^(deg D).
    Collecting the powers of lc(s) gives the formula.  k(k-1) is even, so
    only |R| enters.  For a three-point cover, A - x B is separable of
    degree m for every x other than 0 and 1, so D = kappa x^e0 (x - 1)^e1 and
    Res(s, D) = +-kappa^k s(0)^e0 s(1)^e1, while the power of lc(s) = s(inf)
    is the ramification over inf.  That is why the pullback keeps bad
    reduction inside P.
    """
    k, m = s.degree, cover.degree
    A, B = _pencil(cover)
    # H by Horner in s, from the top: H <- H A + s_i B^(k-i)
    H = [s.coeffs[k]]
    bpow = [1]
    for si in reversed(s.coeffs[:k]):
        budget.check()
        H = poly_mul(A, H)
        bpow = poly_mul(B, bpow)
        H += [0] * (len(bpow) - len(H))
        if si:
            for idx, x in enumerate(bpow):
                if x:
                    H[idx] += si * x
    coeffs = _primitive(_trim(H))
    out = NormalizedPoly(coeffs)
    if out.degree != m * k:
        raise CoverValidationError(f"pullback degree {out.degree} != {m * k}")
    if k:
        D = _pencil_discriminant(A, B, m)
        disc_H = 0
        if D:
            disc_H = (s.coeffs[-1] ** (2 * m - len(D) - 1)
                      * resultant_coeffs(s.coeffs, D)
                      * _pencil_resultant(A, B, m) ** (k * (k - 1))
                      * s.discriminant() ** m)
        c = H[-1] // coeffs[-1]
        disc, rem = divmod(disc_H, c ** (2 * m * k - 2))
        assert rem == 0, "pullback discriminant identity violated"
        with_discriminant(out, disc)
    return out


def builtin_covers() -> dict:
    """The stock covers: the marked-point group, power maps, trinomials, and
    the degree-4 map used by the fractal family."""
    covers = {}
    ident = NormalizedPoly((0, 1))
    one = NormalizedPoly((1,))
    tm1 = NormalizedPoly((-1, 1))
    covers["identity"] = RationalCover("identity", ident, one, Fraction(1))
    covers["s3:(01)"] = RationalCover("s3:(01)", tm1, one, Fraction(-1))   # 1-t
    covers["s3:(0inf)"] = RationalCover("s3:(0inf)", one, ident, Fraction(1))
    covers["s3:(1inf)"] = RationalCover("s3:(1inf)", ident, tm1, Fraction(1))
    covers["s3:(01inf)"] = RationalCover("s3:(01inf)", one, tm1, Fraction(-1))
    covers["s3:(0inf1)"] = RationalCover("s3:(0inf1)", tm1, ident, Fraction(1))
    for p in (2, 3, 5, 7):
        coeffs = (0,) * p + (1,)
        covers[f"power:{p}"] = RationalCover(
            f"power:{p}", NormalizedPoly(coeffs), one, Fraction(1))
    for m in (2, 3, 4, 5):
        covers[f"trinomial:{m}"] = RationalCover(
            f"trinomial:{m}", NormalizedPoly((0,) * m + (1,)),
            NormalizedPoly((1 - m, m)), Fraction(1))
    covers["quartic-fractal"] = RationalCover(
        "quartic-fractal",
        NormalizedPoly(poly_mul((-1, 0, 1), (-1, 0, 1))),  # (t^2-1)^2
        NormalizedPoly((0, 0, 1)),
        Fraction(-1, 4))
    return covers


# ---------------------------------------------------------------------------
# the fractal family over {2}


FRACTAL_SEEDS = {
    -1: NormalizedPoly((-1, 2, 1)),   # roots -1 +- sqrt(2)
    0: NormalizedPoly((1, 0, 1)),     # roots +- i
    1: NormalizedPoly((-1, -2, 1)),   # roots 1 +- sqrt(2)
}


def fractal_family(i_max: int, budget: Budget | None = None) -> dict:
    """The iterated-preimage polynomials s_{i,j} for i <= i_max, j in {-1,0,1}.

    s_{1,j} are the seeds above; s_{i+1,j} pulls s_{i,j} back through the
    degree-4 cover, so deg s_{i,j} = 2 * 4^(i-1).  Each pullback carries its
    discriminant from the cover's identity, so verification is a
    factorization over {2}; the cost at large i is the pullback construction
    itself, which polls the budget once per coefficient of s_{i,j}.  A run
    stops at i = 6: the s_{7,j} are of degree 8192, and building them takes
    tens of seconds.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    budget = budget or Budget.from_env()
    if i_max > 6:
        raise BudgetExceededError(
            "i > 6 is out of budget: constructing the degree-8192 pullbacks "
            "s_7,j takes tens of seconds")
    P2 = PrimeSet([2])
    cover = builtin_covers()["quartic-fractal"]
    out = {}
    for j, seed in FRACTAL_SEEDS.items():
        out[(1, j)] = seed
        rep = check_membership(seed, P2)
        assert rep.ok, (j, rep.failures)
    for i in range(1, i_max):
        for j in FRACTAL_SEEDS:
            budget.check()
            out[(i + 1, j)] = pullback(cover, out[(i, j)], P2, budget=budget)
    return out


# ---------------------------------------------------------------------------
# named extremal polynomials


def _product(factors):
    c = [1]
    for fc in factors:
        c = poly_mul(c, list(fc))
    return NormalizedPoly(c)


NAMED_REGISTRY = {
    "big23": {
        "primes": (2, 3),
        "factors": (
            (-2, 0, 0, 1), (1, -3, 3, 1), (-1, 6, -6, 2), (4, -3, 0, 1),
            (-1, 3, 0, 2), (-2, 6, -9, 4), (-2, 6, -3, 1), (2, -3, 0, 2),
            (-1, 0, -3, 2), (1, -3, 0, 1), (1, 0, -3, 1), (1, -1, 1),
        ),
        "disc": 2 ** 105 * 3 ** 533,
        "published_disc": "2^105 3^533",
        "partition": (3,) * 11 + (2,),
    },
    "big235": {
        "primes": (2, 3, 5),
        "factors": (
            (3, 6, 1), (1, 6, 3), (3, -6, 1), (1, -6, 3),
            (-5, -2, 1), (-1, 2, 5), (-5, 2, 1), (-1, -2, 5),
            (-1, -2, 1), (-1, 2, 1), (-1, -6, 1), (-1, 6, 1),
            (-3, -2, 3), (-3, 2, 3), (1, 0, 1), (1, 1),
        ),
        # published unsigned as 2^1046 3^80 5^104; the exact value is negative
        "disc": -(2 ** 1046) * 3 ** 80 * 5 ** 104,
        "published_disc": "2^1046 3^80 5^104 (sign: negative)",
        "partition": (2,) * 15 + (1,),
    },
    "quartic-extremal": {
        "primes": (2,),
        "factors": (
            (1, 1), (1, 0, 1), (-1, -2, 1), (-1, 2, 1),
            (1, 4, -6, -4, 1), (1, -4, -6, 4, 1),
        ),
        "disc": -(2 ** 184),
        "published_disc": "-2^184",
        "partition": (4, 4, 2, 2, 2, 1),
    },
    "clique-2311": {
        "primes": (2,),
        "factors": ((2, -2, 1), (-2, 0, 1), (2, -4, 1), (-2, 1)),
        "disc": -(2 ** 34),
        "published_disc": "(element of the degree-2 graph example)",
        "partition": (2, 2, 2, 1),
    },
}


@dataclass(frozen=True)
class NamedReport:
    name: str
    poly: NormalizedPoly
    membership_ok: bool
    disc: int
    disc_matches: bool
    partition: tuple
    partition_matches: bool

    @property
    def ok(self) -> bool:
        return self.membership_ok and self.disc_matches and self.partition_matches


def verify_named(name: str) -> NamedReport:
    """Rebuild a registry polynomial from its factors and check everything.

    The factors are pairwise compatible when the product passes the
    membership predicate (the discriminant contains every pairwise resultant
    squared).  Membership says nothing of how the product splits, so the
    partition matches only when the listed degrees are the entry's and every
    listed factor is irreducible.
    """
    if name not in NAMED_REGISTRY:
        raise KeyError(f"unknown name {name!r}; known: {sorted(NAMED_REGISTRY)}")
    entry = NAMED_REGISTRY[name]
    P = PrimeSet(entry["primes"])
    factors = [NormalizedPoly(fc) for fc in entry["factors"]]
    poly = _product(entry["factors"])
    rep = check_membership(poly, P)
    disc = poly.discriminant()
    partition = tuple(sorted((f.degree for f in factors), reverse=True))
    return NamedReport(
        name=name,
        poly=poly,
        membership_ok=rep.ok,
        disc=disc,
        disc_matches=disc == entry["disc"],
        partition=partition,
        partition_matches=(partition == entry["partition"]
                           and all(map(is_irreducible, factors))),
    )
