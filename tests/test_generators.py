import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polytab.budget import Budget, BudgetExceededError
from polytab.generators import (
    CoverValidationError,
    FRACTAL_SEEDS,
    NAMED_REGISTRY,
    RationalCover,
    _pullback,
    builtin_covers,
    cyclo_series,
    fractal_family,
    pullback,
    validate_cover,
    verify_named,
)
from polytab import poly
from polytab.poly import (
    NormalizedPoly,
    check_membership,
    discriminant,
    normalize,
    poly_mul,
    s3_orbit,
)
from polytab.smooth import PrimeSet

from oracles import BAD_REDUCTION

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])


def brute_force_series(P, kmax):
    """Subset-sum count over phi values, via explicit subset DP on a list."""
    from polytab.smooth import smooth_numbers_up_to

    phis = []
    for i in smooth_numbers_up_to(P, kmax * 4):
        if i == 1:
            continue
        phi = i
        for p in P:
            if i % p == 0:
                phi = phi // p * (p - 1)
        if phi <= kmax:
            phis.append(phi)
    counts = [0] * (kmax + 1)
    counts[0] = 1
    for d in phis:
        for k in range(kmax, d - 1, -1):
            counts[k] += counts[k - d]
    return counts


def test_series_P2_all_ones():
    s = cyclo_series(P2, 200)
    assert all(c == 1 for c in s.coeffs)


def test_series_235_prefix_and_brute_force():
    s = cyclo_series(P235, 60)
    assert s.coeffs[:5] == (1, 1, 3, 3, 7)
    assert list(s.coeffs) == brute_force_series(P235, 60)


def test_series_prefix_stability():
    s1 = cyclo_series(P23, 40)
    s2 = cyclo_series(P23, 80)
    assert s2.coeffs[:41] == s1.coeffs


def test_series_monotone_with_odd_prime():
    s = cyclo_series(P23, 120)
    for a, b in zip(s.coeffs, s.coeffs[1:]):
        assert b >= a


def test_series_requires_2():
    with pytest.raises(ValueError):
        cyclo_series(PrimeSet([3, 5]), 10)


def test_builtin_covers_validate():
    for name, cover in builtin_covers().items():
        P = PrimeSet(set(BAD_REDUCTION[name]) | {2, 3, 5, 7})
        validate_cover(cover, P)


def test_cover_validation_rejects_junk():
    bad = RationalCover("bad", NormalizedPoly((-3, 1)), NormalizedPoly((1,)),
                        Fraction(1))   # t - 3: sends 0 to -3
    with pytest.raises(CoverValidationError):
        validate_cover(bad, P2)
    # t^2 - 2: marked points stay put is false (0 -> -2)
    bad2 = RationalCover("bad2", NormalizedPoly((-2, 0, 1)), NormalizedPoly((1,)),
                         Fraction(1))
    with pytest.raises(CoverValidationError):
        validate_cover(bad2, PrimeSet([2]))
    # t/(2t - 1) fixes 0 and 1 but sends inf to 1/2
    bad3 = RationalCover("bad3", NormalizedPoly((0, 1)), NormalizedPoly((-1, 2)),
                         Fraction(1))
    with pytest.raises(CoverValidationError, match="escapes"):
        validate_cover(bad3, P2)


def test_pullback_identity_and_s3():
    covers = builtin_covers()
    s = NormalizedPoly((-2, 1))
    assert pullback(covers["identity"], s, P2) == s
    assert pullback(covers["s3:(01)"], s, P2).coeffs == (1, 1)      # t + 1
    assert pullback(covers["s3:(0inf)"], s, P2).coeffs == (-1, 2)   # 2t - 1
    # full degree-1 orbit through all six marked-point covers
    orbit = {pullback(covers[f"s3:{g}"], s, P2).coeffs
             for g in ("(01)", "(0inf)", "(1inf)", "(01inf)", "(0inf1)")}
    orbit.add(s.coeffs)
    assert orbit == {(-2, 1), (1, 1), (-1, 2)}


def test_pullback_trinomial_degree2():
    covers = builtin_covers()
    out = pullback(covers["trinomial:2"], NormalizedPoly((1, 1)), P2)
    assert out.degree == 2
    assert check_membership(out, P2).ok


def test_pullback_degree_multiplies():
    covers = builtin_covers()
    s = NormalizedPoly((1, 0, 1))
    out = pullback(covers["quartic-fractal"], s, P2)
    assert out.degree == 8
    out2 = pullback(covers["power:3"], NormalizedPoly((-2, 1)), PrimeSet([2, 3]))
    assert out2.degree == 3 and out2.coeffs == (-2, 0, 0, 1)


def test_pullback_rejects_invalid_use():
    covers = builtin_covers()
    # power:3 has bad reduction at 3: pulling back over {2} must fail
    with pytest.raises(CoverValidationError):
        pullback(covers["power:3"], NormalizedPoly((-2, 1)), P2)


def _prs_disc(h):
    """The generic PRS discriminant, on a fresh copy of h with no cache."""
    return discriminant(NormalizedPoly(h.coeffs))


@pytest.mark.parametrize("name", sorted(builtin_covers()))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(low=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       lead=st.integers(1, 9))
def test_pullback_discriminant_matches_prs(name, low, lead):
    # every builtin cover, the deg numer < deg denom ones included; s of
    # degree 1-5 whose pullback keeps degree m k (a drop raises)
    cover = builtin_covers()[name]
    s = normalize(low + [lead])[0]
    try:
        h = _pullback(cover, s, Budget())
    except CoverValidationError:
        assume(False)
    assert h.degree == cover.degree * s.degree
    assert h._disc == _prs_disc(h)


_SHORT = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(numer=_SHORT, denom=_SHORT, a=st.integers(-6, 6).filter(bool),
       b=st.integers(1, 6), low=st.lists(st.integers(-9, 9), min_size=1,
                                         max_size=4), lead=st.integers(1, 9))
def test_pullback_discriminant_identity_any_map(numer, denom, a, b, low, lead):
    # the identity needs no three-point structure: any F = (a/b) f/g, with
    # leading coefficients that are not units and either degree on top
    f, g = normalize(numer)[0], normalize(denom)[0]
    assume(max(f.degree, g.degree) >= 1)
    cover = RationalCover("any", f, g, Fraction(a, b))
    s = normalize(low + [lead])[0]
    try:
        h = _pullback(cover, s, Budget())
    except CoverValidationError:
        assume(False)
    assert h._disc == _prs_disc(h)


def test_fractal_discriminants_match_prs():
    fam = fractal_family(4)
    for (i, j), s in fam.items():
        if i >= 2:
            assert s._disc == _prs_disc(s), (i, j)


def test_fractal_membership_runs_no_large_prs(monkeypatch):
    degrees = []
    generic = poly.discriminant

    def spy(s):
        degrees.append(s.degree)
        return generic(s)

    monkeypatch.setattr(poly, "discriminant", spy)
    fam = fractal_family(4)
    assert all(check_membership(s, P2).ok for s in fam.values())
    # the seeds and the quartic pencil members only
    assert degrees and max(degrees) <= 4


def test_fractal_family_5_verified():
    fam = fractal_family(5)
    assert len(fam) == 15
    assert {s.degree for (i, _), s in fam.items() if i == 5} == {512}
    assert all(check_membership(s, P2).ok for s in fam.values())


class _CountingBudget(Budget):
    calls = 0

    def check(self):
        self.calls += 1


def test_pullback_polls_budget_per_term():
    cover = builtin_covers()["quartic-fractal"]
    budget = _CountingBudget()
    pullback(cover, FRACTAL_SEEDS[0], P2, budget=budget)
    assert budget.calls == 2
    budget = _CountingBudget()
    fractal_family(3, budget=budget)
    # one check per pullback, plus one per coefficient below the top
    assert budget.calls == 6 + 3 * 2 + 3 * 8
    t0 = time.monotonic()
    with pytest.raises(BudgetExceededError):
        fractal_family(6, budget=Budget(seconds=0.1))
    assert time.monotonic() - t0 < 0.5


def test_fractal_seeds_and_degrees():
    fam = fractal_family(3)
    assert fam[(1, 1)].coeffs == (-1, -2, 1)   # roots 1 +- sqrt(2)
    assert fam[(1, 0)].coeffs == (1, 0, 1)
    assert {k: v.degree for k, v in fam.items()} == {
        (1, -1): 2, (1, 0): 2, (1, 1): 2,
        (2, -1): 8, (2, 0): 8, (2, 1): 8,
        (3, -1): 32, (3, 0): 32, (3, 1): 32,
    }
    for s in fam.values():
        assert check_membership(s, P2).ok


def test_fractal_products_3w():
    fam = fractal_family(3)
    products = set()
    for j1 in (-1, 0, 1):
        for j2 in (-1, 0, 1):
            for j3 in (-1, 0, 1):
                c = poly_mul(poly_mul(fam[(1, j1)].coeffs, fam[(2, j2)].coeffs),
                             fam[(3, j3)].coeffs)
                s = NormalizedPoly(c)
                assert s.degree == 42
                assert check_membership(s, P2).ok
                products.add(s.coeffs)
    assert len(products) == 27


def test_fractal_budget_refusal():
    with pytest.raises(BudgetExceededError):
        fractal_family(7)


def test_verify_named_all():
    for name in NAMED_REGISTRY:
        rep = verify_named(name)
        assert rep.ok, (name, rep)
    with pytest.raises(KeyError):
        verify_named("nope")


def test_verify_named_rejects_a_reducible_factor(monkeypatch):
    """A registry entry whose one listed factor splits, t^2 + 3t + 2 =
    (t + 1)(t + 2), passes membership over {2,3} (disc = 1) and lists the
    partition of its factors, but that is not its partition."""
    entry = {"primes": (2, 3), "factors": ((2, 3, 1),), "disc": 1,
             "published_disc": "1", "partition": (2,)}
    monkeypatch.setitem(NAMED_REGISTRY, "split", entry)
    rep = verify_named("split")
    assert rep.membership_ok and rep.disc_matches
    assert rep.partition == (2,)
    assert not rep.partition_matches and not rep.ok


def test_big23_mirror_in_same_partition():
    rep = verify_named("big23")
    mirror = sorted(s3_orbit(rep.poly), key=lambda p: p.coeffs)
    assert len(mirror) == 2  # big23 and its reversal only
