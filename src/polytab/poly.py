"""Exact dense integer/rational polynomials.

Coefficient lists are always constant-term first.  The central class is
NormalizedPoly: a primitive integer polynomial with positive leading
coefficient.  There are two resultants, both exact and with the sign of the
Sylvester determinant, so that e.g. disc(t^2 - 2) = 8: `resultant_coeffs`,
the subresultant pseudo-remainder sequence, for one pair, and
`resultant_form`, the resultant of two degrees as a polynomial in the
coefficients, for evaluating one polynomial against many.  Rational roots
and factors over Q both work modulo one good prime per polynomial, found by
`_squarefree`: a small prime modulo which the polynomial is square-free
proves it square-free over Z, so the integer gcd with the derivative runs
only when no such prime turns up.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations, count, islice
from math import gcd, isqrt

from . import budget
from .records import Frozen, set_key
from .smooth import PrimeSet, ZeroValueError, _is_prime, is_smooth


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (constant-first)


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


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
    The budget is checked once per pseudo-remainder: at degree 400 the whole
    sequence takes seconds.
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
        budget.check()
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


_FORMS = {}     # (m, d) -> resultant_form(m, d): one derivation per process


def resultant_form(m: int, d: int) -> tuple:
    """Res(f, g) for deg f = m >= 1 and deg g = d >= 1 as a form of degree m
    in the coefficients of g: a tuple of (eb, terms), one per monomial
    g_0^eb_0 ... g_d^eb_d, whose coefficient is the sum of k f^ea over the
    (k, ea) in terms (ea an exponent tuple over f_0 ... f_m, of degree d).

    The Sylvester determinant (d rows of f's coefficients over m rows of
    g's, leading coefficients first, so the sign is resultant_coeffs') is
    expanded column by column (Laplace), with a memo on the set of rows
    already used, over monomials in both coefficient lists.  A monomial is
    one int with a field of b = max(m, d).bit_length() bits per variable,
    f_k at field k and g_k at field m + 1 + k, so multiplying by a variable
    is one add.  No field carries into the next: the determinant is of
    degree d in the f_k and m in the g_k, so no exponent in any minor
    exceeds max(m, d) < 2^b.  The fields are read back into tuples once, at
    the end.

    Derived on first use: (4, 4) takes a few milliseconds, but each degree
    costs 12 to 18 times the one before ((7, 7) takes seconds), so the
    budget is checked once per new minor, and a refused derivation leaves
    nothing cached.
    """
    form = _FORMS.get((m, d))
    if form is not None:
        return form
    n = m + d
    b = max(m, d).bit_length()
    var = {}      # (row, column) -> f_k as 1 << b k, g_k as 1 << b (m + 1 + k)
    for i in range(d):
        for k in range(m + 1):
            var[i, i + m - k] = 1 << b * k
    for i in range(m):
        for k in range(d + 1):
            var[d + i, i + d - k] = 1 << b * (m + 1 + k)
    memo = {(1 << n) - 1: {0: 1}}

    def minor(used):
        """The minor on the rows outside used and the columns from
        popcount(used) on, as {monomial: coefficient}."""
        got = memo.get(used)
        if got is None:
            budget.check()
            c = used.bit_count()
            got = {}
            sign = 1
            for i in range(n):
                if used >> i & 1:
                    continue
                v = var.get((i, c))
                if v is not None:
                    for e, k in minor(used | 1 << i).items():
                        e += v
                        got[e] = got.get(e, 0) + sign * k
                sign = -sign
            memo[used] = got = {e: k for e, k in got.items() if k}
        return got

    try:
        top = minor(0)
    finally:
        memo.clear()          # minor refers to itself: free the memo now
    field = (1 << b) - 1
    form = {}
    for e, k in top.items():
        e = tuple(e >> b * i & field for i in range(n + 2))
        form.setdefault(e[m + 1:], []).append((k, e[:m + 1]))
    form = _FORMS[m, d] = tuple((eb, tuple(terms))
                                for eb, terms in sorted(form.items()))
    return form


# ---------------------------------------------------------------------------
# normalized polynomials


class NormalizedPoly(Frozen):
    """Primitive integer polynomial with positive leading coefficient: a
    frozen record keyed by its coeffs, whose extra slot `_disc` caches the
    discriminant (set through the slot's setter alone)."""

    __slots__ = ("_disc",)
    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(int, coeffs))
        if not coeffs or coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        if gcd(*coeffs) != 1:
            raise ValueError("content must be 1")
        set_key(self, coeffs)
        _set_disc(self, None)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self):
        return f"NormalizedPoly({self.format()})"

    def format(self) -> str:
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
                body = f"{head}t" if i == 1 else f"{head}t^{i}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms) if terms else "0"

    def discriminant(self) -> int:
        if self._disc is None:
            _set_disc(self, discriminant(self))
        return self._disc


_set_disc = NormalizedPoly._disc.__set__


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
    cont = gcd(*ints)
    if ints[-1] < 0:
        cont = -cont
    return NormalizedPoly([c // cont for c in ints]), Fraction(cont, den)


def from_roots(roots) -> NormalizedPoly:
    """Normalized polynomial with the given rational roots (multiset).

    Roots are ints or Fractions.  The product of the linear forms d t - n,
    each primitive since gcd(n, d) = 1, is primitive by Gauss's lemma, and its
    leading coefficient is the product of the positive d: it is already
    normalized.

    The product is one big-int product at t = 2^k (Kronecker substitution).
    The sum of the absolute values of the coefficients is submultiplicative,
    so for the product it is at most B, the product of the |n| + d.  With
    k = bit_length(B) + 2 each coefficient lies in (-2^(k-1), 2^(k-1)), so
    the coefficients are the balanced k-bit digits of the product, read from
    the lowest.
    """
    pairs = [(r.numerator, r.denominator) for r in roots]
    bound = 1
    for n, d in pairs:
        bound *= abs(n) + d
    k = bound.bit_length() + 2
    value = 1
    for n, d in pairs:
        value *= (d << k) - n
    half, mask = 1 << (k - 1), (1 << k) - 1
    c = []
    for _ in pairs:
        digit = ((value + half) & mask) - half
        c.append(digit)
        value = (value - digit) >> k
    c.append(value)
    return NormalizedPoly(c)


def special_values(s: NormalizedPoly):
    """(s(0), s(1), s(inf)); s(inf) is the leading coefficient."""
    return s.coeffs[0], sum(s.coeffs), s.coeffs[-1]


def derivative_coeffs(c):
    return [i * c[i] for i in range(1, len(c))]


def discriminant(s: NormalizedPoly) -> int:
    """(-1)^(k(k-1)/2) Res(s, s') / s(inf); 0 exactly when s is inseparable.

    Degrees 2 to 4 use the closed forms (a the leading coefficient)
    b^2 - 4ac, b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 + 18abcd and the 16 terms
    of the quartic below; above, the PRS, which polls the budget.
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
    if k == 4:
        e, d, c, b, a = s.coeffs
        return (256 * a ** 3 * e ** 3 - 192 * a * a * b * d * e * e
                - 128 * a * a * c * c * e * e + 144 * a * a * c * d * d * e
                - 27 * a * a * d ** 4 + 144 * a * b * b * c * e * e
                - 6 * a * b * b * d * d * e - 80 * a * b * c * c * d * e
                + 18 * a * b * c * d ** 3 + 16 * a * c ** 4 * e
                - 4 * a * c ** 3 * d * d - 27 * b ** 4 * e * e
                + 18 * b ** 3 * c * d * e - 4 * b ** 3 * d ** 3
                - 4 * b * b * c ** 3 * e + b * b * c * c * d * d)
    r = resultant_coeffs(s.coeffs, derivative_coeffs(s.coeffs))
    if k % 4 in (2, 3):
        r = -r
    return r // s.coeffs[-1]


def with_discriminant(s: NormalizedPoly, disc: int) -> NormalizedPoly:
    """s with its discriminant cache set to disc, which the caller has proved
    equal to discriminant(s); s.discriminant() then returns it without the
    PRS.  Returns s."""
    _set_disc(s, disc)
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


# group element -> the permutation p sending MARKED[i] to MARKED[p[i]]; every
# list of S3 images in the package follows this order
S3_ELEMENTS = {
    "e": (0, 1, 2),
    "(01)": (1, 0, 2),      # t -> 1 - t
    "(0inf)": (2, 1, 0),    # t -> 1/t
    "(1inf)": (0, 2, 1),    # t -> t/(t - 1)
    "(01inf)": (1, 2, 0),   # t -> 1/(1 - t): 0 -> 1 -> inf -> 0
    "(0inf1)": (2, 0, 1),   # t -> (t - 1)/t: 0 -> inf -> 1 -> 0
}


def s3_images(x, flip, inv) -> tuple:
    """The images of x under the elements of S3_ELEMENTS, in that order.

    flip(y) and inv(y) are the images of an object y under the generators
    t -> 1 - t and t -> 1/t, both involutions.  The other elements are
    words in them: (1inf) is inv flip inv, (01inf) is inv after flip and
    (0inf1) flip after inv, so the six images take five generator steps.
    A generator may return None for an image that does not exist (a vertex
    outside the set); every word through it is then None.
    """
    def then(step, y):
        return None if y is None else step(y)

    fx, rx = flip(x), inv(x)
    frx = then(flip, rx)
    return x, fx, rx, then(inv, frx), then(inv, fx), frx


def _one_minus(c):
    """Coefficients of s(1 - t): the Taylor shift to s(t + 1) by repeated
    additions (Horner's scheme), then t -> -t."""
    c = list(c)
    k = len(c) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            c[j] += c[j + 1]
    return [-x if j & 1 else x for j, x in enumerate(c)]


def _s3_polys(s: NormalizedPoly) -> tuple:
    """The images of s in S3_ELEMENTS order, re-normalized.

    Each element moves the marked points (and the roots of s) by its
    fractional-linear map.  On the coefficients of the degree-k form
    y^k s(x/y), t -> 1/t is reversal and t -> 1 - t a Taylor shift, both
    invertible over Z, so an image is primitive like s: only its trailing
    zeros (the degree drops when s(0) = 0 or s(1) = 0) and its sign are
    left to fix.
    """
    out = []
    for c in s3_images(list(s.coeffs), _one_minus, lambda c: c[::-1]):
        c = _trim(c)
        out.append(NormalizedPoly(c if c[-1] > 0 else [-x for x in c]))
    return tuple(out)


def s3_transform(s: NormalizedPoly, g: str) -> NormalizedPoly:
    """Image of s under the group element g, re-normalized (`_s3_polys`)."""
    return dict(zip(S3_ELEMENTS, _s3_polys(s)))[g]


def s3_orbit(s: NormalizedPoly) -> frozenset:
    return frozenset(_s3_polys(s))


# ---------------------------------------------------------------------------
# membership predicate


class MembershipReport(Frozen):
    """ok, and failures: the names of the values outside the monoid."""

    __slots__ = ()
    _fields = ("ok", "failures")

    def __init__(self, ok, failures):
        set_key(self, (ok, failures))


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
# rational roots and factorization over Q


def rational_roots(coeffs) -> list:
    """The distinct rational roots of an integer polynomial, as primitive
    pairs (n, d) with d > 0 (zero is (0, 1)), ascending.

    Candidates are the simple roots of the square-free part modulo a small
    prime, Hensel-lifted and read off as linear factors in the symmetric
    range; each is confirmed by exact integer division, which also divides
    it out.  Sound and complete for every input, and no coefficient is ever
    factored.
    """
    c = _trim(list(coeffs))
    if not c:
        raise ZeroValueError("zero polynomial")
    roots = []
    if c[0] == 0:
        roots.append((0, 1))
        while c[0] == 0:
            c = c[1:]
    if len(c) > 1:
        c = _primitive(c)
        for lin in _root_candidates(c):
            q = _poly_divmod_exact(c, lin)
            if q is not None:
                roots.append((-lin[0], lin[1]))
                c = q
    roots.sort(key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
    return roots


# --- modulo a prime: rational root candidates, Zassenhaus's factoring ------


def _primitive(c):
    """c divided by its content, with positive leading coefficient."""
    g = gcd(*c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _poly_gcd(a, b):
    """gcd of integer polynomials, primitive, by fraction-free remainders;
    the budget is checked once per remainder."""
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        budget.check()
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _root_candidates(c):
    """Linear factors [-n, d] of the primitive c, among them every d t - n
    with n/d a rational root in lowest terms.

    With c(0) != 0 and (r, q) = _squarefree(c) (r is c itself whenever a
    small prime certifies c square-free), a root n/d in lowest terms has
    n | r(0) and d | lead(r), and d is a unit modulo the good prime q, which
    does not divide lead(r).  Modulo q the root reduces to a root of r; no
    root mod q proves there is none.  r is square-free modulo q, so every
    root mod q is simple (r' != 0 there) and lifts by Newton's iteration to
    a unique root a modulo q^(2^i) = m > 2 lead(r) |r(0)|.  Then
    lead(r) (t - a) is (lead(r)/d) (d t - n) modulo m, whose coefficients
    are below m/2 in size: read in the symmetric range, its primitive part
    is d t - n.  Non-roots may slip in; the caller's exact division rejects
    them.
    """
    r, q = _squarefree(c)
    dr = derivative_coeffs(r)
    limit = 2 * r[-1] * abs(r[0])
    rq = [x % q for x in r]
    roots = [x for x in range(q) if poly_eval(rq, x) % q == 0]
    cand = []
    for a in roots:
        m = q
        while m <= limit:
            m *= m
            a = (a - poly_eval(r, a) * pow(poly_eval(dr, a), -1, m)) % m
        n = -r[-1] * a % m
        cand.append(_primitive([n - m if 2 * n > m else n, r[-1]]))
    return cand


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


def _divmod_q(a, b, q):
    """(quotient, remainder) of a by b != 0 in F_q[t], reduced modulo q."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    quo = [0] * max(len(r) - db, 0)
    for top in range(len(r) - 1, db - 1, -1):
        x = quo[top - db] = r.pop() * inv % q
        for i in range(db):
            r[top - db + i] -= x * b[i]
    return quo, _trim([x % q for x in r])


def _powmod_q(a, e, f, q):
    """a^e modulo f in F_q[t], by squaring a^(e // 2)."""
    if not e:
        return [1]
    h = _powmod_q(a, e >> 1, f, q)
    return _divmod_q(poly_mul(poly_mul(h, h), a if e & 1 else [1]), f, q)[1]


def _gcd_q(a, b, q):
    """The monic gcd in F_q[t] of a, nonzero modulo q, and b."""
    b = _trim([x % q for x in b])
    while b:
        a, b = b, _divmod_q(a, b, q)[1]
    inv = pow(a[-1], -1, q)
    return [x * inv % q for x in a]


_CERTIFY_TRIES = 8      # primes tried on c itself before the integer gcd


def _squarefree(c):
    """(f, q): the primitive square-free part f = c / gcd(c, c') of the
    primitive c with positive lead, and its good prime q, the least odd
    prime that does not divide lead(f) and modulo which f stays square-free:
    gcd(f, f') = 1 in F_q[t].

    Lemma: let q not divide lead(c).  If g^2 divides c over Z with
    deg g >= 1, then q does not divide lead(g), and g mod q divides
    gcd(c, c') mod q.  So gcd(c, c') = 1 in F_q[t] proves c square-free,
    and then f = c.  The eligible odd primes are tried in increasing order,
    the first _CERTIFY_TRIES of them on c itself, so the first that
    certifies c is the least good prime of f = c.  Only if none does is the
    integer gcd run (a PRS, which polls the budget), and the search goes on
    over f without a bound: only the q dividing lead(f) disc(f) fail, so q
    is small and _is_prime exact on it.  The bound decides only when the
    PRS runs, never the result.
    """
    f = c
    for tries in (_CERTIFY_TRIES, None):
        df = derivative_coeffs(f)
        eligible = (q for q in count(3, 2) if _is_prime(q) and f[-1] % q)
        for q in islice(eligible, tries):
            if len(_gcd_q(f, df, q)) == 1:
                return f, q
        f = _primitive(_poly_divmod_exact(c, _poly_gcd(c, df)))


def _factor_mod(f, q):
    """The monic irreducible factors of the monic f, square-free modulo the
    odd prime q.  Distinct degrees: with the factors of degree below d
    divided out, gcd(f, t^(q^d) - t) is the product of those of degree d.
    Equal degrees (Cantor-Zassenhaus): for g such a product and a random a,
    a^((q^d - 1)/2) is 1 modulo each factor of g with probability about
    1/2, independently, so gcd(g, a^((q^d - 1)/2) - 1) often splits g.
    """
    rng = random.Random(q)
    out, h, d = [], [0, 1], 0           # h = t^(q^d) modulo f
    while len(f) > 2 * d + 2:
        budget.check()
        d += 1
        h = _powmod_q(h, q, f, q)
        g = _gcd_q(f, [x - (i == 1) for i, x in enumerate(h + [0, 0])], q)
        f, stack = _divmod_q(f, g, q)[0], [g]
        while stack:
            g = stack.pop()
            if len(g) == d + 1:
                out.append(g)
            elif len(g) > 1:
                budget.check()
                a = [rng.randrange(q) for _ in range(len(g) - 1)]
                b = _powmod_q(a, (q ** d - 1) // 2, g, q)
                s = _gcd_q(g, [x - (i == 0) for i, x in enumerate(b + [0])], q)
                stack += [s, _divmod_q(g, s, q)[0]] if len(s) < len(g) else [g]
    return out + [f] * (len(f) > 1)


def _hensel_lift(f, us, q, bound):
    """(Us, m): the monic irreducible factors us of f modulo q lifted to
    monic Us with f = lead(f) prod(Us) modulo m, the first power of q above
    bound.  Linear lifting: with c_i the inverse of lead(f) prod_{j != i} u_j
    in the field F_q[t]/(u_i) (by Fermat), e = (f - lead(f) prod(Us)) / m
    and d_i = e c_i mod u_i, lead(f) sum_i d_i prod_{j != i} u_j = e modulo
    prod(us), as both have degree below deg f: Us_i + m d_i hold mod m q.
    """
    cs = [_powmod_q(reduce(poly_mul, us[:i] + us[i + 1:], [f[-1]]),
                    q ** (len(u) - 1) - 2, u, q) for i, u in enumerate(us)]
    lifted, m = [list(u) for u in us], q
    while m <= bound:
        prod = reduce(poly_mul, lifted, [f[-1]])
        e = [(x - y) // m for x, y in zip(f, prod)]
        for big, u, c in zip(lifted, us, cs):
            for k, x in enumerate(_divmod_q(poly_mul(e, c), u, q)[1]):
                big[k] += m * x
        m *= q
    return lifted, m


def factor_small(s: NormalizedPoly) -> list:
    """Irreducible factorization over Q, with multiplicity: the normalized
    factors of s, sorted, whose product is s.

    Zassenhaus's route, sound for every degree and size of coefficient: with
    (f, q) = _squarefree(s), the square-free part f of s (s itself when a
    small prime certifies it) is factored modulo its good prime q, and the
    factors are lifted modulo m = q^k > 2 lead(f) 2^n |f|_2
    (n = deg f).  A factor g of f over Z has |g|_inf <= 2^n |f|_2
    (Mignotte) and lead(g) | lead(f), so lead(f) g / lead(g) is lead(f)
    times the product of the lifted factors of g in the symmetric range.
    Subsets of lifted factors are tried by size; the first whose candidate
    divides f is an irreducible factor (a proper factor would have come from
    a smaller subset).  Multiplicities come from exact division of s.  The
    budget is polled in the splitting loops and once per subset.
    """
    c = list(s.coeffs)
    if len(c) == 1:
        return []
    f, q = _squarefree(c)
    us = _factor_mod([x * pow(f[-1], -1, q) % q for x in f], q)
    if len(us) > 1:
        bound = (2 * f[-1] << len(f) - 1) * (isqrt(sum(x * x for x in f)) + 1)
        us, m = _hensel_lift(f, us, q, bound)
    factors, n = [], 1
    while 2 * n <= len(us):
        for subset in combinations(range(len(us)), n):
            budget.check()
            g = reduce(poly_mul, [us[i] for i in subset], [f[-1]])
            g = _primitive([(x + m // 2) % m - m // 2 for x in g])
            if (h := _poly_divmod_exact(f, g)) is not None:
                factors.append(g)
                f = h
                us = [u for i, u in enumerate(us) if i not in subset]
                break
        else:
            n += 1
    out = []
    for g in factors + [f]:
        while (quo := _poly_divmod_exact(c, g)) is not None:
            out.append(NormalizedPoly(g))
            c = quo
    return sorted(out, key=lambda f: f.sort_key())


def is_irreducible(s: NormalizedPoly) -> bool:
    """Whether s is irreducible over Q: the discriminant decides degree 2,
    the rational roots degree 3, and factor_small above."""
    if s.degree == 1:
        return True
    if s.degree == 2:
        d = s.discriminant()
        r = isqrt(abs(d))
        return d < 0 or r * r != d
    if s.degree == 3:
        return not rational_roots(s.coeffs)
    return len(factor_small(s)) == 1
