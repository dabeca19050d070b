"""P-smoothness primitives: factorizations over a fixed prime set.

Everything here is exact big-integer arithmetic.  A number is "smooth"
(an element of the signed monoid written P* elsewhere in this package)
when it factors completely over the prime set; the part of an integer
coprime to the prime set is kept as an opaque "rough" cofactor and is
never factored further, since no predicate downstream depends on its
prime structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import budget
from .records import Frozen, set_key


class ZeroValueError(ValueError):
    """Raised when 0 is passed where a nonzero integer/rational is required."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: exact below 3.3e24, a
    strong probable-prime test above, and fast for any size of n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeSet(Frozen):
    """A finite, strictly increasing set of primes.

    May be empty.  Hashable and usable as a dict key; iterating yields the
    primes in increasing order.
    """

    __slots__ = ()
    _fields = ("primes",)

    def __init__(self, primes):
        ps = tuple(sorted(set(int(p) for p in primes)))
        for p in ps:
            if not _is_prime(p):
                raise ValueError(f"not a prime: {p}")
        set_key(self, ps)

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __contains__(self, p):
        return p in self.primes


def is_smooth(n: int, P: PrimeSet) -> bool:
    """True iff n is in the signed smooth monoid (n != 0, no rough part).

    The power of 2 is the count of trailing zero bits.  Any other prime p
    comes off by its powers p, p^2, p^4, ... while they divide, then by a
    binary descent through the same powers, so an exponent e costs O(log e)
    big divisions instead of e.  No exponent is counted: this is the test of
    every special value, discriminant and graph resultant.
    """
    m = abs(n)
    for p in P.primes:
        if m < 2:
            break
        if p == 2:
            m >>= (m & -m).bit_length() - 1
        elif m % p == 0:
            powers = [p]
            while m % (sq := powers[-1] * powers[-1]) == 0:
                powers.append(sq)
            for q in reversed(powers):
                if m % q == 0:
                    m //= q
    return m == 1


def is_unit_in(q, P: PrimeSet) -> bool:
    """Membership of a nonzero rational in the unit group of Z^P.

    True iff numerator and denominator in lowest terms are both smooth.
    """
    q = Fraction(q)
    if q == 0:
        raise ZeroValueError("0 is not a unit")
    return is_smooth(q.numerator, P) and is_smooth(q.denominator, P)


def _icbrt(n: int) -> int:
    """Integer cube root of n >= 0 (floor), by Newton's step from above.

    Let s = floor(cbrt n) and L the bit length of n.  The start
    r = 2^ceil(L/3) exceeds cbrt n, as n < 2^L.  A step gives
    floor((2r + floor(n/r^2))/3) = floor((2r + n/r^2)/3) >= s, by AM-GM on
    r, r and n/r^2, so r >= s throughout.  While r > s, r^3 > n, so
    n/r^2 < r and the step lowers r strictly.  So the loop stops at r = s.
    """
    if n < 2:
        return n
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + n // (r * r)) // 3
        if nr >= r:
            return r
        r = nr


def decompose_power(n: int, k: int, P: PrimeSet):
    """Write n = a * x^k with a in P*, if possible.

    The sign rides on a, x > 0, and each prime of P divides a fewer than k
    times (for k = 2, a is the signed square-free smooth representative).
    Returns None when the rough cofactor of n is not a perfect k-th power.
    P comes off |n| by the descent of `is_smooth`, here with each exponent
    counted: the binary descent adds 2^i for each power p^(2^i) it divides
    out.
    """
    if n == 0:
        raise ZeroValueError("0 has no smooth power decomposition")
    if k not in (2, 3):
        raise ValueError("only k = 2 and k = 3 are supported")
    m = abs(n)
    a, x = (1 if n > 0 else -1), 1
    for p in P.primes:
        if m == 1:
            break
        if p == 2:
            e = (m & -m).bit_length() - 1
            m >>= e
        elif m % p == 0:
            powers = [p]
            while m % (sq := powers[-1] * powers[-1]) == 0:
                powers.append(sq)
            e = 0
            for i in range(len(powers) - 1, -1, -1):
                q, r = divmod(m, powers[i])
                if not r:
                    m = q
                    e += 1 << i
        else:
            continue
        a *= p ** (e % k)
        x *= p ** (e // k)
    r = isqrt(m) if k == 2 else _icbrt(m)
    if r ** k != m:
        return None
    return a, x * r


_POLL = 1 << 16     # numbers listed between budget checks


def smooth_numbers_up_to(P: PrimeSet, H: int,
                         limit: int | None = None) -> list | None:
    """All positive P-smooth numbers <= H, ascending.

    Exponent-vector enumeration (one extension pass per prime); no sieve,
    so H around 1e11 stays cheap for the small prime sets used here.  With
    a limit, None as soon as there are more than limit of them: each pass
    keeps the numbers of the one before, so the work stops there too.  The
    budget is checked once per pass and once per 2^16 numbers listed.
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    if limit is None:
        limit = float("inf")
    elif limit < 1:
        return None     # 1 is always one of them
    out = [1]
    for p in P:
        budget.check()
        nxt = []
        mark = min(limit, _POLL)   # the next length to stop at
        for s in out:
            v = s
            while v <= H:
                nxt.append(v)
                v *= p
            if len(nxt) > mark:
                if len(nxt) > limit:
                    return None
                budget.check()
                mark = min(limit, len(nxt) + _POLL)
        out = nxt
    out.sort()
    return out
