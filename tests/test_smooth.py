import random

import pytest
from hypothesis import given, settings, strategies as st

from polytab.smooth import (
    PrimeSet,
    ZeroValueError,
    _icbrt,
    _is_prime,
    decompose_power,
    is_smooth,
    is_unit_in,
    smooth_numbers_up_to,
)

from oracles import (
    factor_over_division_loop,
    first_good_prime,
    icbrt_bisect,
    is_smooth_naive,
    smooth_count_exponent_loops,
    smooth_filter_naive,
    squarefree_class,
    squarefree_part,
)

from fractions import Fraction

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])
P2357 = PrimeSet([2, 3, 5, 7])


def test_primeset_validation():
    with pytest.raises(ValueError):
        PrimeSet([4])
    with pytest.raises(ValueError):
        PrimeSet([2, 9])
    for p in (1, 0, -2):
        with pytest.raises(ValueError, match="not a prime"):
            PrimeSet([p])
    assert PrimeSet([5, 3, 2]).primes == (2, 3, 5)
    assert PrimeSet([]).primes == ()
    # a prime set read from a file may name a huge prime: no trial division
    assert PrimeSet([2 ** 64 - 59]).primes == (2 ** 64 - 59,)
    for composite in (561, 3215031751, (2 ** 31 - 1) * (2 ** 61 - 1)):
        with pytest.raises(ValueError):
            PrimeSet([composite])


def test_is_prime_past_twelve_bases():
    """399165290221 * 798330580441 is a strong pseudoprime to the twelve
    bases 2 ... 37; base 41 makes the test exact below 3.3e24."""
    sympy = pytest.importorskip("sympy")
    n = 318665857834031151167461
    assert not sympy.isprime(n)
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not a prime"):
        PrimeSet([n])


def test_first_good_prime():
    assert first_good_prime(P2) == 3
    assert first_good_prime(P23) == 5
    assert first_good_prime(P235) == 7
    assert first_good_prime(P2357) == 11
    assert first_good_prime(PrimeSet([])) == 2
    assert first_good_prime(PrimeSet([3, 5])) == 2


def test_icbrt_matches_bisection():
    """Newton's loop from 2^ceil(L/3) stops at floor(cbrt n) with no
    correction after it: every n < 2^20, and x^3 - 1, x^3 and x^3 + 1 for
    random x of up to 2000 bits."""
    assert list(map(_icbrt, range(1 << 20))) == \
        list(map(icbrt_bisect, range(1 << 20)))
    rng = random.Random(38)
    for _ in range(100):
        x = rng.getrandbits(rng.randint(1, 2000)) | 1
        for n, want in ((x ** 3 - 1, x - 1), (x ** 3, x), (x ** 3 + 1, x)):
            assert _icbrt(n) == icbrt_bisect(n) == want


def test_decompose_power_paper_triples():
    # (1, 4374, -4375) = (1, 2*3^7, -5^4*7)
    assert decompose_power(-4375, 2, P2357) == (-7, 25)
    assert decompose_power(-4375, 3, P2357) == (-35, 5)
    assert decompose_power(4374, 3, P2357) == (6, 9)
    assert decompose_power(1, 2, P2) == (1, 1)
    # (1, -25921, 25920) has B = 161^2 rough over {2,3,5}
    assert decompose_power(161 ** 2, 2, P235) == (1, 161)
    assert decompose_power(161 ** 2, 3, P235) is None


def test_decompose_power_zero():
    """0 has no decomposition and is outside the smooth monoid, over any
    prime set (the empty one included)."""
    for P in (PrimeSet([]), P2, P235, P2357):
        for k in (2, 3):
            with pytest.raises(ZeroValueError):
                decompose_power(0, k, P)
        assert not is_smooth(0, P)
    assert is_smooth(-1, PrimeSet([])) and not is_smooth(2, PrimeSet([]))


def _root(n, k):
    """The integer k-th root of n >= 1: Newton's iteration from above."""
    r = 1 << n.bit_length() // k + 1
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


@settings(max_examples=150, derandomize=True, deadline=None)
@given(primes=st.sets(st.sampled_from((2, 3, 5, 7, 11, 13, 10007)),
                     max_size=5),
       exps=st.lists(st.integers(0, 1500), min_size=7, max_size=7),
       cofactor=st.integers(1, 10 ** 6), power=st.booleans(),
       negative=st.booleans(), k=st.sampled_from((2, 3)))
def test_decompose_power_matches_division_loop(primes, exps, cofactor, power,
                                               negative, k):
    """decompose_power against the exponents of the one-division-at-a-time
    oracle: huge exponents of mixed primes, some of them outside P, and a
    random cofactor, or all of it to the k-th power."""
    n = cofactor ** k if power else cofactor
    for p, e in zip((2, 3, 5, 7, 11, 13, 10007), exps):
        n *= p ** (e * k if power else e)
    n = -n if negative else n
    P = PrimeSet(primes)
    sign, exponents, rough = factor_over_division_loop(n, P)
    want, r = None, _root(rough, k)
    if r ** k == rough:
        a, x = sign, r
        for p, e in exponents:
            a *= p ** (e % k)
            x *= p ** (e // k)
        want = (a, x)
    assert decompose_power(n, k, P) == want


def test_is_unit_in():
    assert is_unit_in(2 ** 105 * 3 ** 533, P23)
    assert is_unit_in(1, PrimeSet([]))
    assert not is_unit_in(Fraction(3, 2), P2)
    with pytest.raises(ZeroValueError):
        is_unit_in(0, P2)


def test_unit_group_closure():
    rng = random.Random(2)
    units = []
    for _ in range(40):
        num = 2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 5)
        den = 2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 5)
        sign = rng.choice([1, -1])
        units.append(Fraction(sign * num, den))
    for q in units:
        assert is_unit_in(q, P23)
        assert is_unit_in(1 / q, P23)
        for r in units:
            assert is_unit_in(q * r, P23)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(25920) == 5  # 2^6 3^4 5
    assert squarefree_part(-8) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(-1) == -1
    with pytest.raises(ZeroValueError):
        squarefree_part(0)


def test_squarefree_part_square_invariance():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(-5000, 5000)
        m = rng.randint(1, 60)
        if n == 0:
            continue
        assert squarefree_part(n * m * m) == squarefree_part(n)


def test_squarefree_class():
    assert squarefree_class(Fraction(-1) * (1 - Fraction(-1))) == -2
    assert squarefree_class(Fraction(9, 8)) == 2
    assert squarefree_class(Fraction(1, 4)) == 1


def test_decompose_power_examples():
    assert decompose_power(128787625, 3, P235) == (1, 505)
    assert decompose_power(-(25053 ** 2), 2, P23) == (-1, 25053)
    assert decompose_power(7, 2, P23) is None
    assert decompose_power(-25920, 2, P235) == (-5, 72)
    assert decompose_power(-8, 3, P2) == (-1, 2)
    assert decompose_power(24, 3, P23) == (3, 2)  # 24 = 3 * 2^3


def test_decompose_power_reconstructs():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(-10 ** 9, 10 ** 9)
        if n == 0:
            continue
        for k in (2, 3):
            got = decompose_power(n, k, P23)
            if got is not None:
                a, x = got
                assert a * x ** k == n
                assert is_smooth(a, P23)
                assert x > 0


def test_smooth_numbers_small():
    assert smooth_numbers_up_to(P2, 10) == [1, 2, 4, 8]
    assert smooth_numbers_up_to(PrimeSet([2, 3]), 12) == [1, 2, 3, 4, 6, 8, 9, 12]
    assert smooth_numbers_up_to(PrimeSet([]), 10) == [1]


def test_smooth_numbers_vs_naive_filter():
    for P in (P2, P23, P235, P2357):
        got = smooth_numbers_up_to(P, 10 ** 5)
        assert got == smooth_filter_naive(P.primes, 10 ** 5)


def test_smooth_numbers_limit():
    """With a limit the list comes back whole while it has at most limit
    numbers, and None once it has more; even P empty holds 1."""
    for P in (PrimeSet([]), P2, P23, P235, P2357):
        for H in (1, 7, 10 ** 4, 10 ** 12):
            full = smooth_numbers_up_to(P, H)
            for limit in (0, len(full) - 1, len(full), len(full) + 5):
                got = smooth_numbers_up_to(P, H, limit=limit)
                assert got == (full if len(full) <= limit else None)


def test_smooth_numbers_2357_1e9_pinned():
    # frozen via the independent nested-exponent-loop oracle
    assert smooth_count_exponent_loops(10 ** 9) == 5194
    assert len(smooth_numbers_up_to(P2357, 10 ** 9)) == 5194


def test_is_smooth_matches_naive():
    """is_smooth against the one-division-at-a-time oracles, on random and
    edge inputs: 0 and +-1, negatives, huge prime powers, a leftover 7 or
    2^61 - 1, a prime set without 2, and the empty prime set."""
    rng = random.Random(5)
    big = 2 ** 5000 * 3 ** 700 * 5 ** 3
    edge = [0, 1, -1, 2, -2, 7, -12, big, -big, 7 * big, -(2 ** 61 - 1) * big,
            3 ** 700 * 5 ** 3, 2 ** 61 - 1, 5 * (2 ** 61 - 1), 15 ** 40 * 7]
    sets = (P235, P23, P2, PrimeSet([3, 5]), PrimeSet([3, 7]), PrimeSet([]))
    for n in edge + [rng.randint(-10 ** 6, 10 ** 6) for _ in range(300)]:
        for P in sets:
            got = is_smooth(n, P)
            assert got == is_smooth_naive(n, P.primes)
            assert got == (n != 0
                           and factor_over_division_loop(n, P)[2] == 1)
