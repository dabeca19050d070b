"""Exact dense integer/rational polynomials.

Coefficient lists are always constant-term first.  The central class is
NormalizedPoly: a primitive integer polynomial with positive leading
coefficient.  There are two resultants, both exact and with the sign of the
Sylvester determinant, so that e.g. disc(t^2 - 2) = 8: `resultant_coeffs`,
the subresultant pseudo-remainder sequence, for one pair, and
`resultant_form`, the resultant of two degrees as a polynomial in the
coefficients, for evaluating one polynomial against many.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .budget import Budget
from .smooth import PrimeSet, ZeroValueError, _is_prime, is_smooth


class FactorSearchError(ValueError):
    """Raised when factor_small cannot handle the input (degree/coefficients)."""


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (constant-first)


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(c) -> int:
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            break
    return g


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_eval(c, x):
    v = 0
    for coeff in reversed(c):
        v = v * x + coeff
    return v


def _prem(a: list, b: list):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, exactly."""
    a = list(a)
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    for top in range(da, db - 1, -1):
        la = a[top]
        for i in range(top + 1):
            a[i] *= lb
        if la:
            shift = top - db
            for i in range(db + 1):
                a[shift + i] -= la * b[i]
        a.pop()
    return _trim(a)


def resultant_coeffs(f, g) -> int:
    """Resultant of two nonzero integer polynomials, Sylvester sign convention.

    Subresultant PRS (Collins); coefficient growth stays proportional to the
    result, which is what makes the degree-35 discriminants here tractable.
    """
    f = _trim(list(f))
    g = _trim(list(g))
    if not f or not g:
        raise ZeroValueError("resultant of the zero polynomial")
    df, dg = len(f) - 1, len(g) - 1
    if df == 0 and dg == 0:
        return 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    sign = 1
    if df < dg:
        f, g = g, f
        df, dg = dg, df
        if df * dg % 2:
            sign = -sign
    h = 1
    gg = 1
    while True:
        delta = df - dg
        if df % 2 and dg % 2:
            sign = -sign
        r = _prem(f, g)
        if not r:
            return 0
        f, df = g, dg
        denom = gg * h ** delta
        g = [x // denom for x in r]
        dg = len(g) - 1
        gg = f[-1]
        if delta:
            h = gg ** delta // h ** (delta - 1)
        if dg == 0:
            break
    return sign * (g[0] ** df // h ** (df - 1))


# an alias kept for bench/tracing.py, which wraps cliques.resultant_fast;
# nothing in the package calls it
resultant_fast = resultant_coeffs


def resultant_bound(polys) -> int:
    """An integer at least |Res(f, g)| for every two f, g of the given
    trimmed coefficient lists.

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


@cache
def resultant_form(m: int, d: int) -> tuple:
    """Res(f, g) for deg f = m >= 1 and deg g = d >= 1 as a form of degree m
    in the coefficients of g: a tuple of (eb, terms), one per monomial
    g_0^eb_0 ... g_d^eb_d, whose coefficient is the sum of k f^ea over the
    (k, ea) in terms (ea an exponent tuple over f_0 ... f_m, of degree d).

    The Sylvester determinant (d rows of f's coefficients over m rows of
    g's, leading coefficients first, so the sign is resultant_coeffs') is
    expanded column by column (Laplace), with a memo on the set of rows
    already used, over monomials in both coefficient lists.  Derived on
    first use: (4, 4) takes a few milliseconds.
    """
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
        """The minor on the rows outside used and the columns from
        popcount(used) on, as {exponents: coefficient}."""
        got = memo.get(used)
        if got is None:
            c = used.bit_count()
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
    memo.clear()              # minor refers to itself: free the memo now
    return tuple((eb, tuple(terms)) for eb, terms in sorted(form.items()))


# ---------------------------------------------------------------------------
# normalized polynomials


class NormalizedPoly:
    """Primitive integer polynomial with positive leading coefficient."""

    __slots__ = ("coeffs", "_disc")

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs or coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        if _content(coeffs) != 1:
            raise ValueError("content must be 1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, name, value):
        raise AttributeError("NormalizedPoly is immutable")

    def __reduce__(self):
        return (NormalizedPoly, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, NormalizedPoly) and self.coeffs == other.coeffs

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self):
        return f"NormalizedPoly({self.format()})"

    def format(self, var: str = "t") -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms) if terms else "0"

    def discriminant(self) -> int:
        if self._disc is None:
            object.__setattr__(self, "_disc", discriminant(self))
        return self._disc


def normalize(coeffs):
    """Unique (NormalizedPoly, scalar) with input = scalar * normalized.

    Accepts int/Fraction coefficient lists, constant term first.
    Idempotent on already-normalized input (scalar 1).
    """
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if not fracs:
        raise ZeroValueError("cannot normalize the zero polynomial")
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    cont = _content(ints)
    if ints[-1] < 0:
        cont = -cont
    return NormalizedPoly([c // cont for c in ints]), Fraction(cont, den)


def from_roots(roots) -> NormalizedPoly:
    """Normalized polynomial with the given rational roots (multiset).

    Roots are ints or Fractions.  The product of the linear forms d t - n,
    each primitive since gcd(n, d) = 1, is primitive by Gauss's lemma, and its
    leading coefficient is the product of the positive d: it is already
    normalized.
    """
    c = [1]
    for r in roots:
        n, d = r.numerator, r.denominator
        c = [-n * c[0], *(d * c[i - 1] - n * c[i] for i in range(1, len(c))),
             d * c[-1]]
    return NormalizedPoly(c)


def special_values(s: NormalizedPoly):
    """(s(0), s(1), s(inf)); s(inf) is the leading coefficient."""
    return s.coeffs[0], sum(s.coeffs), s.coeffs[-1]


def resultant(a: NormalizedPoly, b: NormalizedPoly) -> int:
    return resultant_coeffs(a.coeffs, b.coeffs)


def derivative_coeffs(c):
    return [i * c[i] for i in range(1, len(c))]


def discriminant(s: NormalizedPoly) -> int:
    """(-1)^(k(k-1)/2) Res(s, s') / s(inf); 0 exactly when s is inseparable.

    Degrees 2 and 3 use the closed forms b^2 - 4ac and
    b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 + 18abcd (a the leading coefficient).
    """
    k = s.degree
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return 1
    if k == 2:
        c, b, a = s.coeffs
        return b * b - 4 * a * c
    if k == 3:
        d, c, b, a = s.coeffs
        return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
    r = resultant_coeffs(s.coeffs, derivative_coeffs(s.coeffs))
    if k % 4 in (2, 3):
        r = -r
    return r // s.coeffs[-1]


def with_discriminant(s: NormalizedPoly, disc: int) -> NormalizedPoly:
    """s with its discriminant cache set to disc, which the caller has proved
    equal to discriminant(s); s.discriminant() then returns it without the
    PRS.  Returns s."""
    object.__setattr__(s, "_disc", disc)
    return s


# ---------------------------------------------------------------------------
# points of P^1(Q) and the S3 action permuting the marked points 0, 1, inf
#
# A point is a primitive integer pair (n, d) with d > 0, or inf = (1, 0).

MARKED = ((0, 1), (1, 1), (1, 0))   # 0, 1, inf


def projective_point(n: int, d: int) -> tuple:
    """The primitive pair of (n : d), which must not be (0, 0)."""
    g = gcd(n, d)
    if d < 0 or (d == 0 and n < 0):
        g = -g
    return n // g, d // g


# group element -> the permutation p sending MARKED[i] to MARKED[p[i]]
S3_ELEMENTS = {
    "e": (0, 1, 2),
    "(01)": (1, 0, 2),
    "(0inf)": (2, 1, 0),
    "(1inf)": (0, 2, 1),
    "(01inf)": (1, 2, 0),   # 0 -> 1 -> inf -> 0
    "(0inf1)": (2, 0, 1),   # 0 -> inf -> 1 -> 0
}

# each element acts on polynomials by substituting its inverse map, spelled
# as the generator substitutions to apply in turn: "r" for t -> 1/t and "f"
# for t -> 1 - t
_S3_WORDS = {
    "e": "",
    "(01)": "f",        # 1 - t
    "(0inf)": "r",      # 1/t
    "(1inf)": "rfr",    # t/(t - 1)
    "(01inf)": "fr",    # (t - 1)/t
    "(0inf1)": "rf",    # 1/(1 - t)
}


def _one_minus(c):
    """Coefficients of s(1 - t): the Taylor shift to s(t + 1) by repeated
    additions (Horner's scheme), then t -> -t."""
    c = list(c)
    k = len(c) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            c[j] += c[j + 1]
    return [-x if j & 1 else x for j, x in enumerate(c)]


def s3_transform(s: NormalizedPoly, g: str) -> NormalizedPoly:
    """Image of s under the group element g, re-normalized.

    g moves the marked points (and the roots of s) by its fractional-linear
    map, so s is substituted with the inverse map, spelled in the generators
    t -> 1/t and t -> 1 - t.  On the coefficients of the degree-k form
    y^k s(x/y), t -> 1/t is reversal and t -> 1 - t a Taylor shift, both
    invertible over Z, so the image is primitive like s: only its trailing
    zeros (the degree drops when s(0) = 0 or s(1) = 0) and its sign are
    left to fix.
    """
    c = list(s.coeffs)
    for step in _S3_WORDS[g]:
        c = c[::-1] if step == "r" else _one_minus(c)
    c = _trim(c)
    if c[-1] < 0:
        c = [-x for x in c]
    return NormalizedPoly(c)


def s3_orbit(s: NormalizedPoly) -> frozenset:
    return frozenset(s3_transform(s, g) for g in S3_ELEMENTS)


# ---------------------------------------------------------------------------
# membership predicate


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    failures: tuple           # the names of the values outside the monoid


def check_membership(s: NormalizedPoly, P: PrimeSet) -> MembershipReport:
    """Test s(0), s(1), s(inf), disc(s) for membership in the smooth monoid.

    Separability is part of the contract: disc = 0 is a failure.
    """
    v0, v1, vinf = special_values(s)
    values = (("s0", v0), ("s1", v1), ("sinf", vinf),
              ("disc", s.discriminant()))
    failures = tuple(name for name, v in values if not is_smooth(v, P))
    return MembershipReport(not failures, failures)


# ---------------------------------------------------------------------------
# small-degree factorization over Q


def _factorize(n: int) -> dict:
    """Prime factorization by trial division; refuses opaque hard cofactors."""
    n = abs(n)
    out = {}
    for p in (2, 3, 5, 7):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 11
    while d * d <= n and d < 10 ** 6:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if _is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            r = isqrt(n)
            if r * r == n and _is_prime(r):
                out[r] = out.get(r, 0) + 2
            else:
                raise FactorSearchError(f"cannot factor constant {n}")
    return out


def _divisors(n: int) -> list:
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots(coeffs) -> list:
    """All rational roots (with multiplicity, sorted) of an integer polynomial.

    Candidates are the simple roots of the square-free part modulo a small
    prime, Hensel-lifted and turned into fractions by rational
    reconstruction; each is confirmed and divided out of c by exact integer
    division by its linear factor, which also yields the multiplicities.
    Sound and complete for every input, and no coefficient is ever factored.
    """
    c = _trim(list(coeffs))
    if not c:
        raise ZeroValueError("zero polynomial")
    roots = []
    while c[0] == 0:
        roots.append(Fraction(0))
        c = c[1:]
    if len(c) <= 1:
        return roots
    c = _primitive(c)
    for n, d in _root_candidates(c):
        while len(c) > 1:
            q = _poly_divmod_exact(c, [-n, d])
            if q is None:
                break
            roots.append(Fraction(n, d))
            c = q
    roots.sort()
    return roots


# --- rational root candidates by Hensel lifting -----------------------------


def _primitive(c):
    """c divided by its content, with positive leading coefficient."""
    g = _content(c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _poly_gcd(a, b):
    """gcd of integer polynomials, primitive, by fraction-free remainders."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _radical(c):
    """Primitive square-free part c / gcd(c, c'): the same roots, each once."""
    g = _poly_gcd(c, derivative_coeffs(c))
    if len(g) > 1:
        c = _poly_divmod_exact(c, g)
    return _primitive(c)


def _rational_reconstruct(a: int, m: int, bound: int):
    """(n, d) with n/d = a mod m, |n|, d <= bound and d > 0, if it exists.

    Runs Euclid on (m, a) to the first remainder <= bound.  When m > 2 bound^2
    every pair (n, d) of that size with n = a d mod m is an integer multiple
    of the row found, so a lowest-terms pair, if one exists, is that row.
    """
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _root_candidates(c):
    """A list of (n, d) holding every rational root n/d of the primitive c.

    With c(0) != 0 and r the square-free part of c, a root n/d in lowest terms
    has n | r(0) and d | lead(r), so |n|, d <= B = max(|r(0)|, |lead r|), and
    d is a unit modulo every prime q not dividing lead(r).  Modulo such a q
    the root reduces to a root of r; no root mod q proves there is none.  If
    every root mod q is simple (r' != 0 there, which fails only for the
    finitely many q dividing disc(r), since r is square-free), each lifts by
    Newton's iteration to a unique root modulo q^(2^i) > 2 B^2, and n/d is
    the rational reconstruction of the lift of its own residue.  Non-roots
    may slip in; the caller's exact division rejects them.
    """
    r = _radical(c)
    dr = derivative_coeffs(r)
    bound = max(abs(r[0]), r[-1])
    limit = 2 * bound * bound
    q = 1
    while True:
        q += 1
        if r[-1] % q == 0 or not _is_prime(q):
            continue
        rq = [x % q for x in r]
        roots = [x for x in range(q) if poly_eval(rq, x) % q == 0]
        if all(poly_eval(dr, x) % q for x in roots):
            break
    cand = []
    for a in roots:
        m = q
        while m <= limit:
            m *= m
            a = (a - poly_eval(r, a) * pow(poly_eval(dr, a), -1, m)) % m
        x = _rational_reconstruct(a, m, bound)
        if x is not None:
            cand.append(x)
    return cand


def _root_bound(c) -> int:
    """Integer Cauchy bound: every complex root has magnitude below this."""
    return 1 + max(abs(x) for x in c[:-1]) // abs(c[-1]) + 1


def _poly_divmod_exact(c, d):
    """Quotient of c by d in Z[t] if d divides c there, else None.

    For a primitive d this is also divisibility over Q (Gauss's lemma), so
    the first quotient coefficient that is not an integer settles it.
    """
    r = list(c)
    dd = len(d) - 1
    lead = d[-1]
    q = [0] * (len(r) - dd)
    for top in range(len(r) - 1, dd - 1, -1):
        f, rem = divmod(r[top], lead)
        if rem:
            return None
        q[top - dd] = f
        if f:
            for i in range(dd):
                r[top - dd + i] -= f * d[i]
    if any(r[:dd]):
        return None
    return q


def _try_split_generic(c, k, budget: Budget):
    """Search an integer degree-k factor of c by bounded coefficient scan.

    The factor's leading and constant coefficients run over the divisors of
    those of c; its interior coefficients are lead times elementary symmetric
    functions of k roots of c, so each is bounded by lead * C(k,i) * R^i with
    R the Cauchy root bound.  Returns (factor, quotient) for the first factor
    found in that order, or None.  factor_small scans every k with
    2k <= deg(c).  The budget is checked once per value of every scanned
    coefficient, so one trial division at most passes between checks.
    """
    R = _root_bound(c)
    binom = [1]
    for i in range(k):
        binom.append(binom[-1] * (k - i) // (i + 1))

    def rec(lead, prefix):
        depth = len(prefix)
        if depth == k:
            q = _poly_divmod_exact(c, prefix + [lead])
            return (prefix + [lead], q) if q is not None else None
        bound = lead * binom[k - depth] * R ** (k - depth)
        for v in range(-bound, bound + 1):
            budget.check()
            got = rec(lead, prefix + [v])
            if got:
                return got
        return None

    for a_lead in _divisors(c[-1]):
        for f0 in _divisors(c[0]):
            for f0s in (f0, -f0):
                got = rec(a_lead, [f0s])
                if got:
                    return got
    return None


def factor_small(s: NormalizedPoly, budget: Budget | None = None) -> list:
    """Irreducible factorization over Q, factors normalized, with multiplicity.

    Rational roots come off first by exact division by their linear factors.
    What remains (degree <= 8) has no linear factor, so it is either
    irreducible or has a factor of degree k with 2 <= k <= deg/2, found by
    the bounded coefficient scan of _try_split_generic.  Sufficient for
    every vertex degree in this package; larger inputs are refused.
    """
    budget = budget or Budget.from_env()
    factors = []
    c = list(s.coeffs)
    for r in rational_roots(c):
        lin = [-r.numerator, r.denominator]
        factors.append(NormalizedPoly(lin))
        c = _poly_divmod_exact(c, lin)
        if c is None:
            raise ValueError("deflation by a non-root")
    deg = len(c) - 1
    if deg == 0:
        return sorted(factors, key=lambda f: f.sort_key())
    if deg > 8:
        raise FactorSearchError(f"degree {deg} after root extraction exceeds 8")
    stack = [c]
    while stack:
        c = stack.pop()
        split = None
        for k in range(2, (len(c) - 1) // 2 + 1):
            split = _try_split_generic(c, k, budget)
            if split is not None:
                break
        if split is None:
            factors.append(normalize(c)[0])
        else:
            stack.extend(split)
    return sorted(factors, key=lambda f: f.sort_key())


def is_irreducible(s: NormalizedPoly, budget: Budget | None = None) -> bool:
    if s.degree == 1:
        return True
    if s.degree == 2:
        d = s.discriminant()
        r = isqrt(abs(d))
        return d < 0 or r * r != d
    if s.degree == 3:
        return not rational_roots(s.coeffs)
    return len(factor_small(s, budget)) == 1
