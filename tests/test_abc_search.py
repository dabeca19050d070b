import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polytab import abc_search
from polytab.abc_search import (
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    _by_support,
    _cube_candidates,
    _pair_search,
    _sieve_primes,
    _squares_mod,
    canonical_triple,
    cubic_classes,
    delta_classes,
    f_resolvent_coeffs,
    has_rational_root_F,
    read_points,
    reference_cubic,
    reference_cubic_partition,
    roots_of_F,
    search_abc,
    write_points,
)
from polytab.budget import Budget, BudgetExceededError
from polytab.poly import rational_roots
from polytab.smooth import (
    PrimeSet,
    is_smooth,
    smooth_numbers_up_to,
)

from oracles import (
    INF,
    abc_brute_force,
    abc_gcd_pair_search,
    cubic_classes_pairwise,
    factor_over_division_loop,
    roots_of_F_fraction,
)

from math import gcd, isqrt

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])
P2357 = PrimeSet([2, 3, 5, 7])
SHORT = {VARIANT_III: "iii", VARIANT_I2I: "i2i", VARIANT_32I: "32i"}


def test_canonical_triple():
    assert canonical_triple(Fraction(-1)) == (1, -2, 1)
    A, B, C = canonical_triple(Fraction(1, 2))
    assert A + B + C == 0 and A * B * C < 0 and Fraction(-A, C) == Fraction(1, 2)
    with pytest.raises(ValueError):
        canonical_triple(Fraction(1))


def test_small_search_matches_brute_force():
    H = 1000
    for P in (P23, P235, P2, PrimeSet([2, 5, 7]), PrimeSet([3, 5]),
              PrimeSet([3, 7, 11]), P2357):
        for variant in (VARIANT_III, VARIANT_I2I, VARIANT_32I):
            points, cert = search_abc(P, variant, H)
            want = abc_brute_force(P.primes, SHORT[variant], H)
            if variant == VARIANT_I2I and 2 not in P:
                # outside the search contract, but the pair loop is still exact
                assert points == [] and not cert.complete
                smooth = smooth_numbers_up_to(P, H)
                assert _pair_search(_by_support(smooth, P.primes),
                                    smooth, P.primes) == want
                continue
            assert {pt.u for pt in points} == want, (P, variant)


def test_search_matches_gcd_pair_loop():
    """The support-bucketed loops against every-pair loops with a gcd test."""
    for P in (P23, P235, P2357):
        for variant in (VARIANT_III, VARIANT_I2I, VARIANT_32I):
            points, _ = search_abc(P, variant, 10 ** 6)
            want = abc_gcd_pair_search(P.primes, SHORT[variant], 10 ** 6)
            assert {pt.u for pt in points} == want, (P, variant)


def test_point_invariants():
    points, _ = search_abc(P235, VARIANT_I2I, 10 ** 5)
    for pt in points:
        assert pt.A + pt.B + pt.C == 0
        assert pt.A * pt.B * pt.C < 0
        assert gcd(pt.A, pt.B) == gcd(pt.B, pt.C) == gcd(pt.A, pt.C) == 1
        assert is_smooth(pt.A, P235) and is_smooth(pt.C, P235)
        b = factor_over_division_loop(pt.B, P235)[2]
        assert isqrt(b) ** 2 == b
        assert pt.u == Fraction(-pt.A, pt.C)


def test_iii_requires_2():
    points, cert = search_abc(PrimeSet([3, 5]), VARIANT_III, 10 ** 6)
    assert points == [] and cert.complete
    points, cert = search_abc(PrimeSet([3, 5]), VARIANT_I2I, 10 ** 6)
    assert points == [] and not cert.complete


def test_iii_s3_stability_and_orbit_sizes():
    points, _ = search_abc(P23, VARIANT_III, 10 ** 6)
    us = {pt.u for pt in points}
    orbits = set()
    for u in us:
        orbit = frozenset({u, 1 - u, 1 / u, 1 / (1 - u), (u - 1) / u, u / (u - 1)})
        assert orbit <= us
        orbits.add(orbit)
    assert all(len(o) in (3, 6) for o in orbits)
    assert frozenset({Fraction(-1), Fraction(1, 2), Fraction(2)}) in orbits


def test_variant_nesting():
    H = 10 ** 4
    iii = {pt.u for pt in search_abc(P23, VARIANT_III, H)[0]}
    i2i = {pt.u for pt in search_abc(P23, VARIANT_I2I, H)[0]}
    a32 = {pt.u for pt in search_abc(P23, VARIANT_32I, H)[0]}
    assert iii <= i2i <= a32


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        search_abc(P23, VARIANT_III, 10 ** 13)
    with pytest.raises(BudgetExceededError), Budget(seconds=1e-9):
        search_abc(P235, VARIANT_I2I, 10 ** 6)


class _RefuseAt(Budget):
    """A budget that refuses at its n-th check, whatever the clock says."""

    def __init__(self, n):
        super().__init__()
        self.n, self.checks = n, 0

    def check(self):
        self.checks += 1
        if self.checks >= self.n:
            raise BudgetExceededError(f"refused at check {self.n}")


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_stops_running_search(workers):
    # unbudgeted, this search checks its budget about 10^5 times, all but a
    # few dozen of them (the set-up's and one per residue table) in the
    # candidate loop; a refusal at the 1000th check must stop it there,
    # however fast it runs
    budget = _RefuseAt(1000)
    with pytest.raises(BudgetExceededError), budget:
        search_abc(P235, VARIANT_32I, 10 ** 12, workers=workers)
    assert budget.checks == 1000


def _brute_is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def _sieve_condition(q, primes):
    squares = {x * x % q for x in range(q)}
    return all(p % q in squares for p in (-1, *primes))


@pytest.mark.parametrize("primes", [(), (2,), (2, 3), (2, 3, 5), (3, 7, 11),
                                    (2, 3, 5, 7), (5, 13)])
def test_sieve_primes_match_brute_force(primes):
    """Each sieve prime is an odd prime outside P with -1 and every p in P
    among the squares mod q, and no smaller odd prime qualifies (mod 2 every
    residue is a square, so 2 would sieve nothing)."""
    qs = _sieve_primes(primes, 10 ** 4)
    assert len(qs) == 4 and qs == sorted(qs)
    for q in qs:
        assert _brute_is_prime(q) and q not in primes
        assert _sieve_condition(q, primes)
    skipped = [q for q in range(3, qs[-1]) if q not in qs and _brute_is_prime(q)
               and q not in primes and _sieve_condition(q, primes)]
    assert skipped == []


def test_sieve_primes_values_and_bound():
    assert _sieve_primes((2,), 10 ** 4) == [17, 41, 73, 89]
    assert _sieve_primes((2, 3), 10 ** 4) == [73, 97, 193, 241]
    assert _sieve_primes((2, 3, 5), 10 ** 4) == [241, 409, 601, 769]
    assert _sieve_primes((2, 3), 193) == [73, 97]


def test_many_primes_search_skips_unpayable_sieve_primes():
    """Sieve primes are looked for only below the size where a table can pay.
    Over the first 14 primes the fourth one is 9,257,329, and scanning up to
    it takes seconds; the search at H = 100 takes milliseconds."""
    P = PrimeSet([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    with Budget(seconds=2):
        points, _ = search_abc(P, VARIANT_I2I, 100)
    assert {pt.u for pt in points} == abc_brute_force(P.primes, "i2i", 100)


def test_budget_stops_search_set_up():
    """Over the 25 primes below 100 the smooth numbers, their prime supports
    and the sizing of the residue buckets (quadratic in the supports) take
    tens of seconds before the first candidate: each polls the budget."""
    P = PrimeSet([p for p in range(2, 100) if _brute_is_prime(p)])
    assert len(P) == 25
    start = time.monotonic()
    with pytest.raises(BudgetExceededError), Budget(seconds=0.5):
        search_abc(P, VARIANT_I2I, 10 ** 6)
    assert time.monotonic() - start < 5


@settings(max_examples=300, derandomize=True, deadline=None)
@given(primes=st.sampled_from([(2,), (2, 3), (2, 3, 5), (3, 7, 11), (5, 13)]),
       exps=st.lists(st.integers(0, 60), min_size=3, max_size=3),
       y=st.integers(0, 10 ** 12), q_divides_y=st.booleans(),
       negative=st.booleans())
@example(primes=(2, 3), exps=[0, 0, 0], y=1, q_divides_y=True, negative=False)
def test_sieve_keeps_every_square_times_smooth(primes, exps, y, q_divides_y,
                                               negative):
    """+-s y^2, for P-smooth s and any y, y divisible by q included, lies in
    the residue set the sieve keeps, for every sieve prime q of P."""
    s = 1
    for p, e in zip(primes, exps):
        s *= p ** e
    for q in _sieve_primes(primes, 10 ** 4):
        yq = y * q if q_divides_y else y
        B = -s * yq * yq if negative else s * yq * yq
        assert B % q in _squares_mod(q)


@pytest.mark.parametrize("P, variant, H", [
    (P2, VARIANT_32I, 10 ** 9),
    (P23, VARIANT_32I, 10 ** 10),
    (P235, VARIANT_32I, 10 ** 8),
    (P235, VARIANT_I2I, 10 ** 9),
], ids=["2-32i-1e9", "23-32i-1e10", "235-32i-1e8", "235-i2i-1e9"])
def test_sieved_search_matches_gcd_pair_loop(P, variant, H, monkeypatch):
    """At heights where residue tables are built, down to the fourth sieve
    prime, the sieved search finds what the every-pair gcd loop finds."""
    built = []
    table = abc_search._residue_table
    monkeypatch.setattr(abc_search, "_residue_table",
                        lambda vs, q: built.append(q) or table(vs, q))
    points, _ = search_abc(P, variant, H)
    want = abc_gcd_pair_search(P.primes, SHORT[variant], H)
    assert {pt.u for pt in points} == want
    assert built
    if P != P235:
        assert set(built) == set(_sieve_primes(P.primes, 10 ** 4))


def test_cube_candidates_by_support():
    """The bucketed cube candidates are every n <= H whose rough part is a
    cube, each filed under its prime support."""
    H = 10 ** 5
    for P in (P2, P23, P235, PrimeSet([3, 7])):
        buckets = _cube_candidates(smooth_numbers_up_to(P, H), P.primes, H)
        flat = [a for xs in buckets.values() for a in xs]
        assert buckets == _by_support(flat, P.primes)
        rough = [factor_over_division_loop(n, P)[2] for n in range(1, H + 1)]
        want = [n for n, r in enumerate(rough, 1)
                if round(r ** (1 / 3)) ** 3 == r]
        assert sorted(flat) == want


def test_delta_classes_single_point():
    points, _ = search_abc(P23, VARIANT_I2I, 10)
    by_u = {pt.u: pt for pt in points}
    minus1 = by_u[Fraction(-1)]
    classes = delta_classes([minus1], P23)
    assert set(classes) == {-2}
    assert delta_classes([], P23) == {}


def test_reference_cubic():
    s = reference_cubic(Fraction(-24))
    # 4(-25)t^3 + 648 t + 648, normalized
    assert s.coeffs == (-162, -162, 0, 25)
    assert reference_cubic_partition(Fraction(-24)) == (3,)
    assert reference_cubic_partition(Fraction(4, 3)) == (3,)


def test_roots_of_F_examples():
    assert roots_of_F(Fraction(-24), Fraction(0)) == [(-1, 4), (1, 6)]
    assert roots_of_F(Fraction(4, 3), Fraction(4)) == [(1, 2), (1, 1), (1, 0)]
    assert roots_of_F(Fraction(4, 3), Fraction(1372, 3)) == \
        [(3, 8), (9, 10), (3, 1)]


def test_roots_of_F_match_fraction_oracle():
    """The integer resolvent's distinct projective roots equal the Fraction
    oracle's roots, inf = (1, 0) once when the y^6 coefficient vanishes."""
    rng = random.Random(19)
    seen = {"k = 0": 0, "degree drop": 0, "finite root": 0}
    for case in range(600):
        j = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        if j in (0, 1, 2):
            continue
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        G = (j * j - 2 * j) * y ** 3 + 3 * j * y * y - 3 * j * y + 1
        if case % 5 == 0:
            k = Fraction(0)
        elif case % 5 == 1:
            k = j * j / (j - 2) ** 2           # the y^6 coefficient vanishes
        elif case % 5 == 2 or G == 0:
            k = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        else:
            k = j * (j * y * y - 2 * y + 1) ** 3 / G ** 2   # F(j, k, y) = 0
        want = roots_of_F_fraction(j, k)
        finite = sorted({r for r in want if r != INF})
        assert roots_of_F(j, k) == \
            [(r.numerator, r.denominator) for r in finite] \
            + [(1, 0)] * (INF in want)
        seen["k = 0"] += k == 0
        seen["degree drop"] += INF in want
        seen["finite root"] += bool(finite)
    assert min(seen.values()) >= 100, seen


@settings(max_examples=200, derandomize=True, deadline=None)
@given(num=st.integers(-10 ** 12, 10 ** 12), den=st.integers(1, 10 ** 12),
       split=st.booleans())
@example(num=1, den=2, split=True)
def test_roots_of_F_at_k_zero_match_the_resolvent(num, den, split):
    """roots_of_F(j, 0) solves the quadratic j y^2 - 2y + 1, of which
    F(j, 0, y) is -j times the cube: the same list as the generic path on
    the degree-6 resolvent, and never inf.  With split, j = 1 - s^2, so the
    quadratic has the two roots (1 +- s)/j."""
    s = Fraction(num, den)
    j = 1 - s * s if split else s
    assume(j not in (0, 1))
    coeffs = f_resolvent_coeffs(j, 0)
    assert coeffs[-1] != 0
    got = roots_of_F(j, 0)
    assert got == rational_roots(coeffs)
    if split:
        assert sorted(Fraction(*r) for r in got) == sorted([(1 - s) / j,
                                                            (1 + s) / j])


def test_roots_of_F_full_multiplicity_over_Qbar():
    # disc_y never vanishes for j,k outside {0,1}: six roots with multiplicity
    for j, k in [(Fraction(4, 3), Fraction(4)), (Fraction(-24), Fraction(7, 5)),
                 (Fraction(5), Fraction(5)), (Fraction(2, 7), Fraction(-3))]:
        coeffs = f_resolvent_coeffs(j, k)
        assert any(coeffs)
        roots = roots_of_F(j, k)
        assert len(roots) <= 6


def test_roots_of_F_on_the_23_classes(search_32i_23):
    """Over every j and k of the {2,3} cubic classes (k = 0 included, as the
    degree-3 build takes them), roots_of_F is the list of rational_roots of
    the integer resolvent, ascending primitive pairs, with (1, 0) appended
    when the y^6 coefficient vanishes; each pair is a root of the form."""
    points, _ = search_32i_23.value
    classes = cubic_classes([pt for pt in points if pt.class_datum == "3"],
                            P23)
    tested = 0
    for members in classes.values():
        js = sorted(pt.u for pt in members)
        for j in js:
            for k in [Fraction(0)] + js:
                coeffs = f_resolvent_coeffs(j, k)
                got = roots_of_F(j, k)
                assert got == rational_roots(coeffs) \
                    + [(1, 0)] * (coeffs[-1] == 0)
                finite = [Fraction(n, d) for n, d in got if d]
                assert finite == sorted(set(finite))
                for n, d in got:
                    assert gcd(n, d) == 1 and d >= 0
                    assert sum(c * n ** i * d ** (6 - i)
                               for i, c in enumerate(coeffs)) == 0
                tested += 1
    assert tested == sum(len(m) * (len(m) + 1) for m in classes.values()) > 54


def test_roundtrip_json(tmp_path):
    points, cert = search_abc(P23, VARIANT_I2I, 10 ** 4)
    path = tmp_path / "pts.json"
    write_points(path, points, cert)
    points2, cert2 = read_points(path)
    assert points2 == points
    assert cert2 == cert


def test_cubic_class_example_1372():
    points, _ = search_abc(P23, VARIANT_32I, 10 ** 7)
    classes = cubic_classes([pt for pt in points
                             if reference_cubic_partition(pt.u) == (3,)], P23)
    for rep, members in classes.items():
        us = {pt.u for pt in members}
        if Fraction(1372, 3) in us:
            assert {Fraction(4), Fraction(4, 3)} <= us
            break
    else:
        pytest.fail("class of 1372/3 not found")


def test_32i_points_carry_reference_partitions(search_32i_23):
    """The search labels each 3-2-inf point with its reference-cubic
    partition and nothing finer: the cubic classes are the vertex stage's."""
    points, _ = search_32i_23.value
    assert Counter(pt.class_datum for pt in points) == \
        {"3": 54, "21": 24, "111": 3}
    for pt in points:
        assert pt.class_datum == \
            "".join(map(str, reference_cubic_partition(pt.u)))


@pytest.mark.parametrize("fixture, P, tests", [("search_32i_23", P23, 54),
                                                ("search_32i_235", P235, 596)],
                         ids=["23", "235"])
def test_cubic_classes_match_the_pairwise_union_find(request, monkeypatch,
                                                     fixture, P, tests):
    """The classes by representative are those of the union-find over every
    same-square-class pair, keys and members in the same order, whatever the
    order of the points given.  Each point is tested only against class
    representatives: 54 resolvent tests over {2,3} at 1e11 and 596 over
    {2,3,5} at 1e9, where the pairs took 90 and 3,075."""
    points, _ = request.getfixturevalue(fixture).value
    against = []

    def recorded(j, k):
        against.append(k)
        return has_rational_root_F(j, k)

    monkeypatch.setattr(abc_search, "has_rational_root_F", recorded)
    classes = cubic_classes(points, P)
    assert list(classes.items()) == \
        list(cubic_classes_pairwise(points, P).items())
    assert len(against) == tests
    assert set(against) <= {Fraction(rep) for rep in classes}
    assert cubic_classes(points[::-1], P) == classes


def test_cubic_class_relation_symmetric_transitive():
    import random

    from polytab.abc_search import has_rational_root_F

    points, _ = search_abc(P23, VARIANT_32I, 10 ** 5)
    irr = [pt for pt in points if reference_cubic_partition(pt.u) == (3,)]
    js = [pt.u for pt in irr]
    rng = random.Random(20)
    pairs = [(rng.choice(js), rng.choice(js)) for _ in range(25)]
    for a, b in pairs:
        assert has_rational_root_F(a, b) == has_rational_root_F(b, a)
    # transitivity: within a class every pair is related
    classes = cubic_classes(irr, P23)
    for members in classes.values():
        us = [pt.u for pt in members]
        for a in us:
            for b in us:
                if a != b:
                    assert has_rational_root_F(a, b)
