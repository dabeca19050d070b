"""Cross-cutting checks: per-class table resolution, the
degree-3 discriminant closed form, worker determinism of the searches, and
the argument refusals of every layer."""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from polytab.abc_search import (
    VARIANT_32I,
    VARIANT_I2I,
    VARIANT_III,
    delta_classes,
    roots_of_F,
    search_abc,
)
from polytab.generators import cyclo_series, fractal_family
from polytab.poly import (
    NormalizedPoly,
    _primitive,
    discriminant,
    rational_roots,
    resultant_coeffs,
)
from polytab.smooth import (
    PrimeSet,
    ZeroValueError,
    decompose_power,
    smooth_numbers_up_to,
)
from polytab.cli import main as cli_main
from polytab.vertices import (
    _require_members,
    _smn_coeffs,
    build_degree2,
    build_degree3,
)

from oracles import candidate_grid, squarefree_class
from conftest import NO_LOCAL_CONSTANTS

P2 = PrimeSet([2])
P23 = PrimeSet([2, 3])
P235 = PrimeSet([2, 3, 5])


def test_delta_class_sizes_235(search_i2i_235):
    points, _ = search_i2i_235.value
    sizes = {d: len(v) for d, v in delta_classes(points, P235).items()}
    want = {-30: 3, -15: 6, -10: 24, -6: 25, -5: 11, -3: 8, -2: 6, -1: 49,
            1: 12, 2: 9, 3: 2, 5: 9, 6: 6, 15: 13}
    assert sizes == want  # the two published zero classes (10, 30) are absent


def test_per_delta_member_counts_235(vs235):
    """Resolution of the per-class membership table.

    With the class of a degree-2 polynomial defined as the square class of
    MINUS its discriminant (which is what the triple parametrization
    produces), the per-class row of counts over {2,3,5} comes out as below;
    in particular the 1020 split polynomials (square discriminant) land in
    class -1 and the 171 negative-square-discriminant irreducibles in class 1.
    """
    vs = vs235.value
    counts = Counter()
    for v in vs.degree_slice(2):
        counts[squarefree_class(Fraction(-v.poly.discriminant()))] += 1
    for s in vs.split_degree2:
        counts[squarefree_class(Fraction(-s.discriminant()))] += 1
    want = {-30: 12, -15: 48, -10: 456, -6: 504, -5: 138, -3: 84, -2: 48,
            -1: 1020, 1: 171, 2: 108, 3: 10, 5: 96, 6: 48, 15: 204}
    assert dict(counts) == want
    assert sum(counts.values()) == 2947
    assert counts[-1] == len(vs.split_degree2)


def test_degree3_disc_closed_form():
    # disc of the monic two-root cubic = 108 (j-1)^3 j^2 (m1 n1)^6 / D^6 for
    # m = (m1, m2), n = (n1, n2) in P^1(Q) and D = n1 m2 - m1 n2, inf included:
    # the worked grids, then random (j, m, n)
    cases = [
        (Fraction(4, 3), Fraction(1372, 3), Fraction(4)),
        (Fraction(-24), Fraction(0), Fraction(0)),
        (Fraction(-8), Fraction(-8), Fraction(0)),
    ]
    triples = [(j, m, n, s) for j, j0, j1 in cases
               for m, n, s in candidate_grid(j, j0, j1)]
    rng = random.Random(12)

    def point():
        if rng.random() < 0.15:
            return (1, 0)
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        return x.numerator, x.denominator

    while len(triples) < 800:
        j = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        m, n = point(), point()
        if j not in (0, 1) and m != n:
            s = NormalizedPoly(_primitive(
                _smn_coeffs(j.numerator, j.denominator, m, n)))
            triples.append((j, m, n, s))
    infinite = 0
    for j, (m1, m2), (n1, n2), s in triples:
        lead = s.coeffs[-1]
        want = 108 * (j - 1) ** 3 * j ** 2 \
            * Fraction((m1 * n1) ** 6, (n1 * m2 - m1 * n2) ** 6)
        assert Fraction(s.discriminant()) == lead ** 4 * want
        infinite += 0 in (m2, n2)
    assert infinite >= 150


def test_search_worker_determinism():
    for variant, P, H in ((VARIANT_III, P23, 10 ** 5),
                          (VARIANT_I2I, P235, 10 ** 4),
                          (VARIANT_32I, P23, 10 ** 4)):
        base, _ = search_abc(P, variant, H)
        for workers in (4, 16):
            got, _ = search_abc(P, variant, H, workers=workers)
            assert got == base, (variant, workers)


def test_cubic_class_sizes_23(search_32i_23):
    from polytab.abc_search import cubic_classes, reference_cubic_partition

    points, _ = search_32i_23.value
    irr = [pt for pt in points if reference_cubic_partition(pt.u) == (3,)]
    classes = cubic_classes(irr, P23)
    assert sorted(len(v) for v in classes.values()) == \
        [1, 1, 3, 4, 6, 9, 9, 10, 11]


def test_unu_linear_factorial(graph235):
    from polytab.cliques import count_u_nu, tabulate

    t = tabulate(graph235.value, max_size=2)
    split_pairs = t.count((2, 0))
    assert split_pairs == 1020
    # two ordered degree-1 slots: 2! times the unordered pair count
    assert count_u_nu(graph235.value, (1, 1, 1, 1, 1)) == 2 * split_pairs


def test_clique_set_orbit_decomposition(graph2):
    """The marked-point action permutes the cliques of each partition."""
    from polytab.cliques import enumerate_cliques
    from polytab.poly import poly_mul, s3_orbit

    g = graph2.value
    prods = set()
    for clique in enumerate_cliques(g, kappa=(1, 1)):
        c = [1]
        for i in clique:
            c = poly_mul(c, g.vertices[i].poly.coeffs)
        prods.add(NormalizedPoly(c))
    assert len(prods) == 21
    sizes = []
    seen = set()
    for s in prods:
        if s in seen:
            continue
        orbit = s3_orbit(s)
        assert orbit <= prods
        seen |= orbit
        sizes.append(len(orbit))
    assert all(n in (1, 2, 3, 6) for n in sizes)
    assert sum(sizes) == 21


def test_fractal_export_mode(capsys):
    """The fractal export is always verified: there is no --no-verify, and
    i > 6 is refused for every caller."""
    assert cli_main(["fractal", "--imax", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert {rec["degree"] for rec in payload["polynomials"]} == {2, 8, 32}
    with pytest.raises(SystemExit):
        cli_main(["fractal", "--imax", "3", "--no-verify"])
    assert cli_main(["fractal", "--imax", "12"]) == 3


def test_cli_candidates_file(tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("1 0 0 0 1\n2 0 1\n")   # t^4+1 plus a bad row (t^2+2)
    vfile = tmp_path / "v.json"
    assert cli_main(["vertices", "--primes", "2", "--max-degree", "4",
                     "--candidates", str(cands), "--out", str(vfile)]) == 0
    payload = json.loads(vfile.read_text())
    assert len(payload["degrees"]["4"]["vertices"]) == 3  # the t^4+1 orbit


def test_seed_tables_subset(tmp_path, capsys):
    assert cli_main(["seed-tables", "--out-dir", str(tmp_path),
                     "--only", "littletab,series"]) == 0
    little = (tmp_path / "polys-2b1a-over-2.csv").read_text()
    assert little.splitlines()[1] == "0,1,3"
    assert little.splitlines()[2] == "1,15,21"
    series = (tmp_path / "cyclo-series-235.csv").read_text()
    assert series.splitlines()[1001] == "1000,3361607445659519"
    assert cli_main(["seed-tables", "--out-dir", str(tmp_path),
                     "--only", "nope"]) == 2


def _iii_points():
    return search_abc(P2, VARIANT_III, 100)[0]


@pytest.mark.parametrize("call, error, match", [
    (lambda: search_abc(P2, "2-2-2", 100), ValueError, "unknown variant"),
    (lambda: search_abc(P2, VARIANT_III, 0), ValueError,
     "height bound must be >= 1"),
    (lambda: roots_of_F(Fraction(0), Fraction(2)), ValueError,
     "j must avoid 0 and 1"),
    (lambda: roots_of_F(Fraction(1), Fraction(2)), ValueError,
     "j must avoid 0 and 1"),
    (lambda: delta_classes(_iii_points(), P2), ValueError,
     "expects inf-2-inf points"),
    (lambda: cyclo_series(P2, -1), ValueError, "kmax must be >= 0"),
    (lambda: fractal_family(0), ValueError, "i_max must be >= 1"),
    (lambda: NormalizedPoly((2, 4)), ValueError, "content must be 1"),
    (lambda: discriminant(NormalizedPoly((1,))), ValueError,
     "degree must be >= 1"),
    (lambda: resultant_coeffs((0, 0), (1, 1)), ZeroValueError,
     "resultant of the zero polynomial"),
    (lambda: rational_roots((0,)), ZeroValueError, "zero polynomial"),
    (lambda: decompose_power(16, 4, P2), ValueError,
     "only k = 2 and k = 3"),
    (lambda: smooth_numbers_up_to(P2, 0), ValueError, "H must be >= 1"),
    (lambda: _require_members(_iii_points(), VARIANT_I2I, P2), ValueError,
     "expected inf-2-inf points, got inf-inf-inf"),
    (lambda: build_degree2(PrimeSet([3, 5]), []), ValueError,
     "requires 2 in P"),
    (lambda: build_degree3(P2, {}), ValueError, "requires 2 and 3 in P"),
])
def test_invalid_arguments_are_refused(call, error, match):
    """Each layer refuses an argument outside its contract with its own
    message, rather than computing from it."""
    with pytest.raises(error, match=match):
        call()


def test_hypothesis_draws_no_local_constants():
    """conftest.py empties Hypothesis's pool of the literals of local
    modules; if the private hook it replaces moves, this fails, as the pool
    would then hold polytab's literals again."""
    from hypothesis.internal.conjecture import providers

    assert NO_LOCAL_CONSTANTS is not None, "Hypothesis's hook has moved"
    assert providers._get_local_constants() is NO_LOCAL_CONSTANTS
    assert len(providers.HypothesisProvider(None)._local_constants) == 0


_DRAWS = """
import sys
sys.path[:0] = {paths!r}
import conftest
{imports}
from hypothesis import given, settings, strategies as st
seen = []

@settings(max_examples=150, derandomize=True, database=None)
@given(st.integers(-10 ** 6, 10 ** 6))
def draw(x):
    seen.append(x)

draw()
print(hash(tuple(seen)))
"""


def test_derandomized_draws_do_not_depend_on_imports(tmp_path):
    """One derandomized property test draws the same examples whether or
    not another local module was imported before it."""
    tests = str(Path(__file__).resolve().parent)
    paths = [tests, str(Path(tests).parent / "src")]
    out = []
    for imports in ("", "import oracles"):
        script = _DRAWS.format(paths=paths, imports=imports)
        out.append(subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, check=True,
            capture_output=True, text=True).stdout)
    assert out[0] == out[1] != ""
