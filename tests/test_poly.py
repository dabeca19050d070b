import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import comb, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polytab.poly import (
    MARKED,
    NormalizedPoly,
    S3_ELEMENTS,
    check_membership,
    discriminant,
    factor_small,
    from_roots,
    is_irreducible,
    normalize,
    poly_mul,
    projective_point,
    rational_roots,
    resultant_coeffs,
    resultant_form,
    s3_orbit,
    s3_transform,
    special_values,
)
from polytab import poly
from polytab.budget import Budget, BudgetExceededError
from polytab.poly import _poly_divmod_exact
from polytab.smooth import PrimeSet, ZeroValueError
from polytab.vertices import TABLE5_REPRESENTATIVES

from oracles import (
    S3_MATS,
    _good_prime,
    _radical,
    good_prime_naive,
    partition_of,
    resultant,
    resultant_bound,
    resultant_closed_form,
    resultant_form_tuples,
    resultant_sylvester,
    s3_compose,
    s3_inverse,
    s3_transform_mobius,
)

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])


def NP(*coeffs):
    return NormalizedPoly(coeffs)


BIG23_FACTORS = [
    (-2, 0, 0, 1), (1, -3, 3, 1), (-1, 6, -6, 2), (4, -3, 0, 1),
    (-1, 3, 0, 2), (-2, 6, -9, 4), (-2, 6, -3, 1), (2, -3, 0, 2),
    (-1, 0, -3, 2), (1, -3, 0, 1), (1, 0, -3, 1), (1, -1, 1),
]

BIG235_FACTORS = [
    (3, 6, 1), (1, 6, 3), (3, -6, 1), (1, -6, 3),
    (-5, -2, 1), (-1, 2, 5), (-5, 2, 1), (-1, -2, 5),
    (-1, -2, 1), (-1, 2, 1), (-1, -6, 1), (-1, 6, 1),
    (-3, -2, 3), (-3, 2, 3), (1, 0, 1), (1, 1),
]


def product_poly(factor_coeffs):
    c = [1]
    for fc in factor_coeffs:
        c = poly_mul(c, list(fc))
    return NormalizedPoly(c)


def test_normalize_examples():
    p, scalar = normalize([4, -2])  # -2t + 4
    assert p.coeffs == (-2, 1) and scalar == -2

    p, scalar = normalize([Fraction(-2187, 3125), Fraction(-810, 3125), 1])
    assert p.coeffs == (-2187, -810, 3125) and scalar == Fraction(1, 3125)

    p, scalar = normalize([0, -6, 6])  # 6t^2 - 6t
    assert p.coeffs == (0, -1, 1) and scalar == 6

    with pytest.raises(ZeroValueError):
        normalize([0, 0])


def test_normalize_idempotent_and_scalar_invariant():
    rng = random.Random(10)
    for _ in range(200):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        if not any(c):
            continue
        p, _ = normalize(c)
        again, scalar = normalize(p.coeffs)
        assert again == p and scalar == 1
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        assert normalize([q * x for x in c])[0] == p


def test_special_values():
    assert special_values(NP(2, -2, 1)) == (2, 1, 1)
    assert special_values(NP(-2, 1)) == (-2, -1, 1)
    assert special_values(NP(1, 6, 1)) == (1, 8, 1)


def test_resultant_examples():
    assert resultant(NP(-2, 1), NP(-2, 0, 1)) == 2
    assert abs(resultant(NP(-2, 1), NP(1, 1))) == 3
    assert resultant(NP(-2, 1), NP(1)) == 1
    assert resultant_coeffs((5,), (7,)) == 1
    assert resultant_coeffs((3,), (0, 2, 1)) == 9


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(11)
    for _ in range(800):
        df = rng.randint(1, 6)
        dg = rng.randint(1, 6)
        f = [rng.randint(-8, 8) for _ in range(df)] + [rng.randint(1, 8)]
        g = [rng.randint(-8, 8) for _ in range(dg)] + [rng.randint(1, 8)]
        assert resultant_coeffs(f, g) == resultant_sylvester(f, g)
        assert resultant_closed_form(f, g) == resultant_sylvester(f, g)


_coeffs = st.integers(-10 ** 6, 10 ** 6)
_lead = st.integers(1, 10 ** 6) | st.integers(-10 ** 6, -1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.lists(_coeffs, max_size=4), _lead),
                min_size=2, max_size=4))
def test_resultant_bound_holds(polys):
    """resultant_bound is at least |Res(f, g)| for every two of the given
    polynomials of degree <= 4, constants included."""
    polys = [(*low, lead) for low, lead in polys]
    bound = resultant_bound(polys)
    for i, f in enumerate(polys):
        for g in polys[i + 1:]:
            assert abs(resultant_coeffs(f, g)) <= bound


def test_resultant_closed_forms():
    """The oracle's 3x3, 3x2 and 2x3 closed forms against the Sylvester
    determinant."""
    rng = random.Random(13)

    def coeff(big):
        if big:
            return rng.randint(-10 ** 20, 10 ** 20)
        return rng.randint(-9, 9)

    def rand_poly(d, big):
        lead = 0
        while lead == 0:
            lead = coeff(big)
        c = [coeff(big) for _ in range(d)] + [lead]
        if rng.random() < 0.2:
            c[0] = 0
        return c

    seen = {"zero_const": 0, "neg_lead": 0, "nonunit_lead": 0, "shared": 0,
            "big": 0}
    for df, dg in ((3, 3), (3, 2), (2, 3)):
        for k in range(600):
            big = k % 4 == 0
            f, g = rand_poly(df, big), rand_poly(dg, big)
            if k % 5 == 1:
                # a shared factor: both are products with one common linear
                # or quadratic polynomial
                h = rand_poly(rng.randint(1, 2), big)
                f = poly_mul(h, rand_poly(df - len(h) + 1, big))
                g = poly_mul(h, rand_poly(dg - len(h) + 1, big))
                seen["shared"] += 1
            r = resultant_closed_form(f, g)
            assert r == resultant_sylvester(f, g), (f, g)
            assert r == (-1) ** (df * dg) * resultant_closed_form(g, f), (f, g)
            if k % 5 == 1:
                assert r == 0
            seen["zero_const"] += f[0] == 0 or g[0] == 0
            seen["neg_lead"] += f[-1] < 0 or g[-1] < 0
            seen["nonunit_lead"] += abs(f[-1]) > 1 and abs(g[-1]) > 1
            seen["big"] += max(map(abs, f + g)) > 10 ** 19
    assert min(seen.values()) >= 50, seen


def _form_value(form, f, g):
    """The form of resultant_form at the coefficient lists f and g."""
    return sum(k * prod(map(pow, f, ea)) * prod(map(pow, g, eb))
               for eb, terms in form for k, ea in terms)


def test_resultant_form_matches_resultant_coeffs():
    """For 1 <= m, d <= 4 the derived form has the C(m + d, m) monomials of
    degree m in g, with coefficients of degree d in f, and evaluates to
    resultant_coeffs, zero and negative coefficients (leading ones too) and
    shared roots included."""
    rng = random.Random(29)

    def rand_poly(deg):
        c = [rng.choice((0, rng.randint(-30, 30))) for _ in range(deg)]
        return c + [rng.choice((-1, 1)) * rng.randint(1, 30)]

    seen = {"zero": 0, "negative": 0, "shared": 0}
    for m, d in product(range(1, 5), repeat=2):
        form = resultant_form(m, d)
        assert len(form) == comb(m + d, m)
        for eb, terms in form:
            assert len(eb) == d + 1 and sum(eb) == m
            assert terms and all(len(ea) == m + 1 and sum(ea) == d
                                 for _, ea in terms)
        for k in range(80):
            f, g = rand_poly(m), rand_poly(d)
            if k % 8 == 0:    # a shared root at a small integer
                x = rng.randint(-3, 3)
                f[0] -= sum(c * x ** i for i, c in enumerate(f))
                g[0] -= sum(c * x ** i for i, c in enumerate(g))
                seen["shared"] += 1
            want = resultant_coeffs(f, g)
            assert _form_value(form, f, g) == want, (m, d, f, g)
            if k % 8 == 0:
                assert want == 0
            seen["zero"] += 0 in f[:-1] or 0 in g[:-1]
            seen["negative"] += min(f + g) < 0
    assert min(seen.values()) >= 100, seen


def test_resultant_form_matches_tuple_derivation():
    """The packed-exponent derivation gives the same forms, term order
    included, as the tuple derivation of the oracles, for every
    (m, d) <= (5, 5)."""
    for m, d in product(range(1, 6), repeat=2):
        want = resultant_form_tuples(m, d)
        assert resultant_form(m, d) == want, (m, d)


def test_resultant_form_matches_sympy():
    """The derived forms against sympy's symbolic resultant, a test-only
    cross-check.  sympy is asked with the higher degree first, where its
    sign is the Sylvester one (some versions flip it the other way round
    when both degrees are odd), and Res(f, g) = (-1)^(md) Res(g, f)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for m, d in product(range(1, 5), repeat=2):
        a = sympy.symbols(f"a0:{m + 1}")
        b = sympy.symbols(f"b0:{d + 1}")
        f = sum(x * t ** i for i, x in enumerate(a))
        g = sum(x * t ** i for i, x in enumerate(b))
        want = (sympy.resultant(f, g, t) if m >= d
                else (-1) ** (m * d) * sympy.resultant(g, f, t))
        got = _form_value(resultant_form(m, d), a, b)
        assert sympy.Poly(got, *a, *b) == sympy.Poly(want, *a, *b), (m, d)


def test_resultant_form_derivation_polls_the_budget():
    """A fresh (7, 7) derivation takes seconds, and each degree costs 12 to
    18 times the one before, so it checks the budget: under 0.2 s it is
    refused, and a refused derivation leaves nothing cached."""
    assert (7, 7) not in poly._FORMS
    t0 = time.monotonic()
    with pytest.raises(BudgetExceededError), Budget(seconds=0.2):
        resultant_form(7, 7)
    assert time.monotonic() - t0 < 2
    assert (7, 7) not in poly._FORMS
    # one derivation per (m, d): a cached form ignores the budget
    form = resultant_form(2, 2)
    with Budget(seconds=0):
        assert resultant_form(2, 2) is form


def test_resultant_antisymmetry_and_multiplicativity():
    rng = random.Random(12)
    for _ in range(120):
        def rand_poly():
            d = rng.randint(1, 4)
            return [rng.randint(-6, 6) for _ in range(d)] + [rng.randint(1, 6)]
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        df, dg = len(f) - 1, len(g) - 1
        assert resultant_coeffs(f, g) == (-1) ** (df * dg) * resultant_coeffs(g, f)
        assert resultant_coeffs(poly_mul(f, h), g) == \
            resultant_coeffs(f, g) * resultant_coeffs(h, g)


def test_discriminant_basics():
    assert discriminant(NP(-2, 0, 1)) == 8
    assert discriminant(NP(-2, 1)) == 1
    assert discriminant(NP(0, 0, 1)) == 0  # t^2: inseparable
    assert discriminant(NP(1, -1, 1)) == -3


def test_discriminant_closed_forms_match_resultant():
    """The degree-2, -3 and -4 closed forms against (-1)^(k(k-1)/2)
    Res(s, s') / lead by the generic PRS, on random and degenerate input."""
    def by_resultant(c):
        k = len(c) - 1
        r = resultant_coeffs(list(c), [i * c[i] for i in range(1, k + 1)])
        return (-r if k % 4 in (2, 3) else r) // c[-1]

    rng = random.Random(11)
    cases = [(-2, 0, 1), (1, 2, 1), (0, 0, 1), (0, 1, 1), (0, 0, 0, 1),
             (0, -1, 0, 1), (1, 3, 3, 1), (0, 1, -2, 1), (2, 0, 0, 3),
             (-1, 0, 0, 1), (0, 0, 5, 7), (6, -11, 6, 1),
             (0, 0, 0, 0, 1), (1, 0, -2, 0, 1), (1, 4, -6, -4, 1),
             (-2, 0, 0, 0, 1), (4, -12, 13, -6, 1), (0, 3, -1, 0, 2)]
    for _ in range(450):
        k = rng.choice((2, 3, 4))
        bound = rng.choice((3, 10 ** 6, 10 ** 30))
        c = [rng.randint(-bound, bound) for _ in range(k)]
        cases.append((*c, rng.randint(1, bound)))
    seen = set()
    for c in cases:
        s = normalize(list(c))[0]
        assert s.degree == len(c) - 1
        assert discriminant(s) == by_resultant(s.coeffs)
        seen.add((s.degree, discriminant(s) == 0))
    assert seen == {(2, True), (2, False), (3, True), (3, False),
                    (4, True), (4, False)}


def test_discriminant_named_polynomials():
    big23 = product_poly(BIG23_FACTORS)
    assert big23.degree == 35
    assert discriminant(big23) == 2 ** 105 * 3 ** 533

    big235 = product_poly(BIG235_FACTORS)
    assert big235.degree == 31
    # published without the sign; the exact value is negative
    assert discriminant(big235) == -(2 ** 1046 * 3 ** 80 * 5 ** 104)

    quartic = product_poly([
        (1, 1), (1, 0, 1), (-1, -2, 1), (-1, 2, 1),
        (1, 4, -6, -4, 1), (1, -4, -6, 4, 1),
    ])
    assert discriminant(quartic) == -(2 ** 184)


def test_disc_product_formula():
    rng = random.Random(13)
    for _ in range(150):
        def rand_np():
            while True:
                c = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)]
                try:
                    return normalize(c)[0]
                except ZeroValueError:
                    continue
        f, g = rand_np(), rand_np()
        fg = NormalizedPoly(poly_mul(f.coeffs, g.coeffs)) if \
            normalize(poly_mul(f.coeffs, g.coeffs))[1] == 1 else None
        prod = normalize(poly_mul(f.coeffs, g.coeffs))[0]
        # disc(fg) = disc(f) disc(g) Res(f,g)^2 holds for the honest product;
        # normalization only rescales, so compare on the raw product
        from polytab.poly import derivative_coeffs
        c = poly_mul(f.coeffs, g.coeffs)
        k = len(c) - 1
        if k < 2:
            continue
        r = resultant_coeffs(c, derivative_coeffs(c))
        if k % 4 in (2, 3):
            r = -r
        disc_fg = r // c[-1]
        assert disc_fg == discriminant(f) * discriminant(g) * resultant(f, g) ** 2


def test_s3_transform_examples():
    assert s3_transform(NP(-2, 1), "(0inf)") == NP(-1, 2)
    assert s3_transform(NP(-2, 1), "(01)") == NP(1, 1)
    for g in S3_ELEMENTS:
        assert s3_transform(NP(1, -1, 1), g) == NP(1, -1, 1)
    assert s3_transform(NP(5, 3, 1), "e") == NP(5, 3, 1)
    # each matrix sends the i-th marked point to the p[i]-th
    for g, p in S3_ELEMENTS.items():
        a, b, c, d = S3_MATS[g]
        assert [projective_point(a * x + b * y, c * x + d * y)
                for x, y in MARKED] == [MARKED[i] for i in p]


def test_s3_orbits():
    assert s3_orbit(NP(-2, 1)) == frozenset({NP(-2, 1), NP(1, 1), NP(-1, 2)})
    assert len(s3_orbit(NP(1, -1, 1))) == 1
    # generic cubic vertex has orbit size six
    assert len(s3_orbit(NP(2, -6, 6, 1))) == 6


def test_s3_transform_matches_normalized_substitution():
    """The integer-only image equals normalize of the substituted form, also
    when s(0) = 0 or s(1) = 0 makes the image drop its degree."""
    rng = random.Random(8)
    drops = 0
    for _ in range(400):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        c.append(rng.randint(1, 9))
        if rng.random() < 0.3:
            c = poly_mul(c, [0, 1])             # s(0) = 0
        if rng.random() < 0.3:
            c = poly_mul(c, [-1, 1])            # s(1) = 0
        s = normalize(c)[0]
        for g in S3_ELEMENTS:
            got = s3_transform(s, g)
            assert got == s3_transform_mobius(s, g)
            drops += got.degree < s.degree
    assert drops > 100


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=9),
       st.integers(1, 10 ** 6), st.integers(0, 2), st.integers(0, 2))
def test_s3_transform_is_reversal_and_shift(body, lead, zeros0, zeros1):
    """Property: on every element, the reversal-and-shift action equals the
    matrix substitution of the oracle, also with roots of any multiplicity
    at 0 and 1 (images that drop degree)."""
    c = body + [lead]
    for _ in range(zeros0):
        c = poly_mul(c, [0, 1])
    for _ in range(zeros1):
        c = poly_mul(c, [-1, 1])
    s = normalize(c)[0]
    for g in S3_ELEMENTS:
        assert s3_transform(s, g) == s3_transform_mobius(s, g)


def test_s3_group_law():
    rng = random.Random(14)
    polys = [NP(-2, 1), NP(2, -2, 1), NP(2, -6, 6, 1), NP(-1, 3, 0, 2)]
    names = list(S3_ELEMENTS)
    for g in names:
        for h in names:
            gh = s3_compose(g, h)
            for s in polys:
                assert s3_transform(s3_transform(s, h), g) == s3_transform(s, gh)
    for g in names:
        assert s3_compose(g, s3_inverse(g)) == "e"


def test_factor_small_examples():
    expanded = poly_mul((-9, 25), (3, 125))  # (25t-9)(125t+3)
    fs = factor_small(NormalizedPoly(expanded))
    assert sorted(f.coeffs for f in fs) == [(-9, 25), (3, 125)]

    assert factor_small(NP(-2, 0, 1)) == [NP(-2, 0, 1)]

    s, _ = normalize([-27, -27])  # S(1,t) = -27(1+t)
    assert factor_small(s) == [NP(1, 1)]


def test_factor_small_of_a_constant_is_empty():
    """The constant 1 is the empty product.  Without factor_small's guard on
    constants its multiplicity loop would divide by [1] forever, and that
    loop does not poll the budget, so the call runs in a fresh process
    under a timeout."""
    env_src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "from polytab.poly import NormalizedPoly, "
         "factor_small; print(factor_small(NormalizedPoly((1,))))"],
        capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_factor_small_quartics():
    assert is_irreducible(NP(1, 0, 6, 0, 1))
    assert not is_irreducible(NP(1, 0, -6, 0, 1))  # (t^2+2t-1)(t^2-2t-1)
    fs = factor_small(NP(1, 0, -6, 0, 1))
    assert sorted(f.coeffs for f in fs) == [(-1, -2, 1), (-1, 2, 1)]


def test_factor_small_random_products():
    rng = random.Random(15)
    for _ in range(60):
        nfac = rng.randint(1, 3)
        facs = []
        for _ in range(nfac):
            d = rng.randint(1, 2)
            c = [rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 4)]
            if not any(c[:-1]):
                c[0] = 1
            facs.append(normalize(c)[0])
        prod = [1]
        for f in facs:
            prod = poly_mul(prod, f.coeffs)
        got = factor_small(normalize(prod)[0])
        expect = []
        for f in facs:
            expect.extend(factor_small(f))
        assert sorted(p.coeffs for p in got) == sorted(p.coeffs for p in expect)


def test_from_roots_matches_normalized_fraction_product():
    def fraction_product(roots):
        c = [Fraction(1)]
        for r in roots:
            c = poly_mul(c, [-Fraction(r), 1])
        return normalize(c)[0]

    rng = random.Random(7)
    for _ in range(200):
        roots = [rng.randint(-40, 40) if rng.random() < 0.3
                 else Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                 for _ in range(rng.randint(0, 9))]
        assert from_roots(roots) == fraction_product(roots)
    # heights up to 2^128, up to 14 roots and a few repeats, ints and 0
    for _ in range(200):
        top = 2 ** rng.choice((8, 32, 64, 128))
        roots = [rng.choice((0, rng.randint(-top, top))) if rng.random() < 0.3
                 else Fraction(rng.randint(-top, top), rng.randint(1, top))
                 for _ in range(rng.randint(0, 14))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 3)))
        assert from_roots(roots) == fraction_product(roots)
    # (d t - n)^m has coefficients C(m, i) d^i (-n)^(m-i), whose absolute
    # values sum to (|n| + d)^m, the bound from_roots sizes its digits by;
    # with |n| + d = 2^b - 1 that bound sits just below a power of two
    for r in (Fraction(2 ** 64 - 2), Fraction(1 - 2 ** 64),
              Fraction(-2 ** 127, 2 ** 127 - 1), Fraction(3, 4), -1, 1):
        n, d = r.numerator, r.denominator
        for m in (1, 2, 7, 14):
            want = tuple(comb(m, i) * d ** i * (-n) ** (m - i)
                         for i in range(m + 1))
            assert from_roots([r] * m).coeffs == want
    assert from_roots([]).coeffs == (1,)
    assert from_roots([0]).coeffs == (0, 1)
    assert from_roots([0, 0, 2]).coeffs == (0, 0, -2, 1)


def test_rational_roots():
    assert rational_roots((-2, 1)) == [(2, 1)]
    assert rational_roots((6, -5, 1)) == [(2, 1), (3, 1)]
    assert rational_roots((1, 0, 1)) == []
    # distinct roots, once each, ascending; zero is (0, 1)
    assert rational_roots(from_roots([Fraction(1, 2), Fraction(1, 2), -3]).coeffs) \
        == [(-3, 1), (1, 2)]
    assert rational_roots((0, 0, 4, -4, 1)) == [(0, 1), (2, 1)]
    # lead 30030 = 2*3*5*7*11*13: the Hensel prime must skip all six
    assert rational_roots(poly_mul((-1, 30030), (1, 0, 1))) == [(1, 30030)]
    # 1, 211 and 421 agree mod 2, 3, 5 and 7, so the square-free part has a
    # repeated root modulo each of those primes and they are skipped too
    assert rational_roots(from_roots([1, 211, 421]).coeffs) \
        == [(1, 1), (211, 1), (421, 1)]
    # multiplicity 6, beside an irreducible quadratic
    sextic = poly_mul(from_roots([Fraction(-5, 3)] * 6).coeffs, (1, 1, 1))
    assert rational_roots(sextic) == [(-5, 3)]
    # B about 1e200: lifted far beyond any single machine word
    big = Fraction(10 ** 200 + 7, 10 ** 199 + 3)
    assert rational_roots(poly_mul(from_roots([big, -1]).coeffs, (-2, 0, 1))) \
        == [(-1, 1), (big.numerator, big.denominator)]
    # t^2 + t + 1 is (t - 1)^2 mod 3 and has no root mod 5, the good prime
    assert rational_roots((1, 1, 1)) == []


def test_good_prime_matches_brute_force():
    """On random square-free polynomials c and on products of linear factors
    whose roots collide modulo 3 and 5, _squarefree(c) is (c, q), equal to
    the reference pair (_radical(c), _good_prime(_radical(c))), and q is the
    least odd prime that does not divide lead(c) and modulo which no square
    of a monic polynomial divides c; rational_roots and factor_small, which
    both lift from q, stay exact on the latter."""
    rng = random.Random(34)
    polys = []
    while len(polys) < 150:
        c = [rng.randint(-20, 20) for _ in range(rng.randint(2, 6))]
        if c[-1] and discriminant(s := normalize(c)[0]):
            polys.append(s)
    for roots in (range(-3, 4), range(7), [1, 211, 421]):
        s = from_roots(roots)
        polys.append(s)
        assert rational_roots(s.coeffs) == [(r, 1) for r in sorted(roots)]
        assert [f.coeffs for f in factor_small(s)] \
            == sorted((-r, 1) for r in roots)
    cs = [list(s.coeffs) for s in polys]
    got = [poly._squarefree(c) for c in cs]
    assert got == [(_radical(c), _good_prime(_radical(c))) for c in cs]
    assert [f for f, _ in got] == cs
    primes = [q for _, q in got]
    assert primes == [good_prime_naive(c) for c in cs]
    assert primes[-3:] == [7, 7, 11] and {3, 5} <= set(primes)


# (coefficients below the lead, lead, multiplicity) of one factor
_FACTORS = st.lists(st.tuples(st.lists(st.integers(-9, 9), min_size=1,
                                       max_size=3),
                              st.integers(1, 9), st.integers(1, 2)),
                    min_size=1, max_size=4)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_FACTORS)
@example([([1, 1], 1, 1), ([-1], 2, 2)])    # (t^2 + t + 1) (2t - 1)^2
def test_squarefree_matches_the_reference(factors):
    """_squarefree(c) is (_radical(c), _good_prime(_radical(c))) on products
    of random factors, some repeated.  No prime certifies a c that is not
    square-free, so there the integer gcd (the fallback) must have run, and
    a repeated factor always makes c so."""
    c = [1]
    for low, lead, k in factors:
        for _ in range(k):
            c = poly_mul(c, low + [lead])
    c = poly._primitive(c)
    want = _radical(c)
    with mock.patch.object(poly, "_poly_gcd", wraps=poly._poly_gcd) as gcd:
        got = poly._squarefree(c)
    assert got == (want, _good_prime(want))
    if len(want) < len(c):
        assert gcd.call_count == 1
    if any(k > 1 for _, _, k in factors):
        assert len(want) < len(c)


# irreducible over Q: negative-discriminant quadratics, Eisenstein at 2
IRREDUCIBLE_COFACTORS = [(1,), (1, 0, 1), (-2, 0, 1), (3, 1, 2),
                         (-2, 0, 0, 1), (2, -4, 0, 0, 0, 1)]
BIG_PRIMES = (10007, 65537, 100003)


def sympy_rational_roots(c):
    """sympy's distinct rational roots of c, as primitive pairs, ascending."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    roots = sympy.Poly(list(reversed(c)), t, domain="QQ").ground_roots()
    return [(int(r.p), int(r.q)) for r in sorted(roots)]


def test_rational_roots_against_oracle():
    rng = random.Random(7)

    def part():
        x = rng.random()
        if x < 0.15:
            return 2 ** 128 + rng.randint(-10 ** 6, 10 ** 6)
        n = rng.randint(1, 12)
        return n * rng.choice(BIG_PRIMES) if x < 0.5 else n

    seen = set()
    for _ in range(80):
        roots = []
        for _ in range(rng.randint(0, 4)):
            if roots and rng.random() < 0.3:
                roots.append(rng.choice(roots))
                seen.add("repeated")
            else:
                roots.append(Fraction(rng.choice((1, -1)) * part(), part()))
        c = list(rng.choice(IRREDUCIBLE_COFACTORS))
        for r in roots:
            c = poly_mul(c, [-r.numerator, r.denominator])
        zeros = rng.choice((0, 0, 0, 1, 2))
        scalar = rng.choice((1, 1, -1)) * rng.choice((1, 1, 6, 10))
        c = [0] * zeros + [scalar * x for x in c]
        if zeros:
            seen.add("zero")
        if abs(scalar) > 1:
            seen.add("content")
        if c[-1] < 0:
            seen.add("negative lead")
        if any(max(abs(r.numerator), r.denominator) > 2 ** 127 for r in roots):
            seen.add("near 2^128")
        big = max(abs(c[zeros]), abs(c[-1])) // abs(scalar) > 10 ** 10
        seen.add("above 1e10" if big else "below 1e10")
        want = sorted(set(roots + [Fraction(0)] * bool(zeros)))
        assert rational_roots(c) == [(r.numerator, r.denominator)
                                     for r in want] == sympy_rational_roots(c), c
    assert seen == {"repeated", "zero", "content", "negative lead",
                    "near 2^128", "above 1e10", "below 1e10"}


def test_poly_divmod_exact():
    assert _poly_divmod_exact(poly_mul([3, 1, 2], [-5, 7]), [-5, 7]) == [3, 1, 2]
    # t^2 + 1 is divisible neither by t + 1 (nonzero remainder) nor by 2t + 1
    # (the first quotient coefficient is 1/2)
    assert _poly_divmod_exact([1, 0, 1], [1, 1]) is None
    assert _poly_divmod_exact([1, 0, 1], [1, 2]) is None
    # t + 1 = (2t + 2) / 2 divides over Q only: the divisor is not primitive
    assert _poly_divmod_exact([1, 1], [2, 2]) is None


def sympy_factorization(s):
    """The sorted normalized factor coefficients of s, with multiplicity."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    _, facs = sympy.factor_list(sympy.Poly(list(reversed(s.coeffs)), t))
    want = []
    for f, mult in facs:
        coeffs = [int(x) for x in reversed(f.all_coeffs())]
        want += [normalize(coeffs)[0].coeffs] * mult
    return sorted(want)


def test_factor_small_matches_sympy():
    rng = random.Random(16)
    cases = [NP(*c) for reps in TABLE5_REPRESENTATIVES.values() for c in reps]
    cases.append(product_poly([(-2, 0, 0, 1), (1, 1, 0, 1)]))  # cubic x cubic
    # repeated non-linear factors
    cases.append(product_poly([(1, 0, 1), (1, 0, 1), (-2, 0, 0, 1)]))
    cases.append(product_poly([(1, 1, 1)] * 3 + [(-3, 0, 0, 0, 1)] * 2))
    cases.append(product_poly([(0, 1)] * 2 + [(2, -4, 1)] * 4))
    while len(cases) < 80:
        prod = [1]
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            prod = poly_mul(prod, [rng.randint(-5, 5) for _ in range(d)]
                            + [rng.randint(1, 3)])
        if any(prod) and len(prod) - 1 <= 5:
            cases.append(normalize(prod)[0])
    # products up to degree 12, some factors repeated
    while len(cases) < 160:
        prod = [1]
        for _ in range(rng.randint(2, 5)):
            d = rng.randint(1, 4)
            f = [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 4)]
            for _ in range(rng.choice((1, 1, 2))):
                prod = poly_mul(prod, f)
        if any(prod) and 6 <= len(prod) - 1 <= 12:
            cases.append(normalize(prod)[0])
    for s in cases:
        assert sorted(f.coeffs for f in factor_small(s)) \
            == sympy_factorization(s), s


def test_factor_small_answers_within_budget():
    # each defeats a bounded coefficient scan: t^4 + 123200 by the size of
    # its search, t^4 + 1000003 * 1000033 by a constant term that trial
    # division cannot factor, t^10 + 1 by its degree
    for s in (NP(123200, 0, 0, 0, 1), NP(1000003 * 1000033, 0, 0, 0, 1),
              NP(1, *[0] * 9, 1)):
        with Budget(seconds=5):
            got = sorted(f.coeffs for f in factor_small(s))
        assert got == sympy_factorization(s), s


def test_factor_small_polls_the_budget():
    # irreducible, yet it splits modulo every prime, so its factors modulo q
    # must be split and recombined, and both loops poll the budget
    s = NP(1, 0, -10, 0, 1)
    assert factor_small(s) == [s]
    with pytest.raises(BudgetExceededError), Budget(seconds=0):
        factor_small(s)


def test_check_membership():
    clique = product_poly([(2, -2, 1), (-2, 0, 1), (2, -4, 1), (-2, 1)])
    assert check_membership(clique, P2).ok

    rep = check_membership(NP(-3, 1), P2)
    assert not rep.ok and rep.failures == ("s0",)

    rep = check_membership(NP(0, 0, 1), P2)   # t^2: s(0) = disc = 0
    assert not rep.ok and rep.failures == ("s0", "disc")

    rep = check_membership(NP(2, 1, 1), P2)  # disc = -7
    assert not rep.ok and rep.failures == ("disc",)


def test_check_membership_s3_invariant():
    polys = [NP(2, -2, 1), NP(-2, 1), NP(2, -4, 1), NP(1, 3, 1), NP(2, -6, 6, 1)]
    for s in polys:
        reports = {check_membership(s3_transform(s, g), P23).ok for g in S3_ELEMENTS}
        assert len(reports) == 1


def test_partition_of():
    clique = product_poly([(2, -2, 1), (-2, 0, 1), (2, -4, 1), (-2, 1)])
    assert partition_of(clique) == (2, 2, 2, 1)
    # degree 35: eleven cubics and a quadratic
    assert partition_of(product_poly(BIG23_FACTORS)) == (3,) * 11 + (2,)
