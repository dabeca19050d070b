import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polytab.abc_search import cubic_classes, read_points
from polytab.budget import Budget
from polytab.smooth import PrimeSet
from polytab.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main
from polytab.vertices import TABLE5_REPRESENTATIVES


def run(argv):
    return main([str(a) for a in argv])


def test_search_roundtrip(tmp_path, capsys):
    out = tmp_path / "pts.json"
    assert run(["search", "--primes", "2,3", "--variant", "inf-2-inf",
                "--height", "1e5", "--out", out]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == "polytab.points/1"
    assert payload["complete"] is True
    assert all(rec["u"].count("/") == 1 for rec in payload["points"])


def test_search_empty_with_note(tmp_path, capsys):
    out = tmp_path / "empty.json"
    assert run(["search", "--primes", "3,5", "--variant", "inf-inf-inf",
                "--height", "1e6", "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["points"] == []
    assert "odd smooth" in capsys.readouterr().out


def test_search_budget_refusal(tmp_path):
    assert run(["search", "--primes", "2", "--variant", "inf-inf-inf",
                "--height", "1e13", "--out", tmp_path / "x.json"]) == EXIT_BUDGET


def test_search_bad_primes(tmp_path):
    assert run(["search", "--primes", "4", "--variant", "inf-inf-inf",
                "--height", "10", "--out", tmp_path / "x.json"]) == EXIT_VALIDATION


def test_search_non_finite_height_exit_2(tmp_path):
    for height in ("inf", "1e400", "nan"):
        assert run(["search", "--primes", "2", "--variant", "inf-inf-inf",
                    "--height", height, "--out", tmp_path / "x.json"]) \
            == EXIT_VALIDATION, height


def test_memory_error_is_a_refusal(monkeypatch, capsys):
    """Running out of memory (here simulated) exits 3, not with a
    traceback."""
    def exhausted(P, kmax):
        raise MemoryError

    monkeypatch.setattr("polytab.cli.cyclo_series", exhausted)
    assert run(["series", "--primes", "2", "--kmax", "10"]) == EXIT_BUDGET
    assert "out of memory" in capsys.readouterr().err


def test_oversized_series_is_refused_before_it_is_allocated(capsys):
    """Over {2,3} to x^3000000 the packed series would hold 185 factors in
    192-bit cells, about twice MAX_SERIES_BITS: refused at once, with no
    product started."""
    t0 = time.monotonic()
    assert run(["series", "--primes", "2,3", "--kmax", "3000000"]) \
        == EXIT_BUDGET
    assert time.monotonic() - t0 < 1
    assert "above the maximum" in capsys.readouterr().err


def test_vertices_pipeline(tmp_path, capsys):
    pts = tmp_path / "i2i.json"
    assert run(["search", "--primes", "2", "--variant", "inf-2-inf",
                "--height", "1e6", "--out", pts]) == EXIT_OK
    vfile = tmp_path / "v2.json"
    assert run(["vertices", "--primes", "2", "--max-degree", "4",
                "--points", pts, "--out", vfile]) == EXIT_OK
    payload = json.loads(vfile.read_text())
    assert payload["schema"] == "polytab.vertices/1"
    counts = {d: len(block["vertices"]) for d, block in payload["degrees"].items()}
    assert counts == {"1": 3, "2": 15, "3": 0, "4": 108}


def test_search_has_no_classify_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--primes", "2,3", "--variant", "3-2-inf",
             "--height", "1e4", "--out", tmp_path / "x.json", "--no-classify"])
    assert exc.value.code == EXIT_VALIDATION


def test_vertices_ignore_cubic_labels_of_older_point_files(tmp_path):
    """Older 3-2-inf point files label the irreducible points cubic:<rep>;
    they read and build the same vertex file as the partition labels."""
    pts = tmp_path / "new.json"
    assert run(["search", "--primes", "2,3", "--variant", "3-2-inf",
                "--height", "1e11", "--out", pts]) == EXIT_OK
    irr = [pt for pt in read_points(pts)[0] if pt.class_datum == "3"]
    label = {f"{pt.u.numerator}/{pt.u.denominator}": f"cubic:{rep}"
             for rep, members in cubic_classes(irr, PrimeSet([2, 3])).items()
             for pt in members}
    payload = json.loads(pts.read_text())
    for rec in payload["points"]:
        rec["class"] = label.get(rec["u"], rec["class"])
    assert sum(rec["class"].startswith("cubic:")
               for rec in payload["points"]) == 54
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, indent=1) + "\n")
    built = []
    for path in (pts, old):
        out = tmp_path / ("v-" + path.name)
        assert run(["vertices", "--primes", "2,3", "--max-degree", "3",
                    "--points", path, "--out", out]) == EXIT_OK
        built.append(out.read_bytes())
    assert built[0] == built[1]
    assert json.loads(built[0])["degrees"]["3"]["vertices"]


def test_vertices_rejects_mismatched_points(tmp_path):
    pts = tmp_path / "i2i.json"
    run(["search", "--primes", "2,3", "--variant", "inf-2-inf",
         "--height", "1e4", "--out", pts])
    assert run(["vertices", "--primes", "2", "--max-degree", "2",
                "--points", pts, "--out", tmp_path / "v.json"]) \
        == EXIT_VALIDATION


def test_vertices_take_one_point_file_per_variant(tmp_path, capsys):
    """--points repeats, one file per variant (its certificate names it): a
    second file of the same variant is refused."""
    files = {}
    for variant, height in (("inf-inf-inf", "1e4"), ("inf-2-inf", "1e5")):
        files[variant] = tmp_path / f"{variant}.json"
        assert run(["search", "--primes", "2", "--variant", variant,
                    "--height", height, "--out", files[variant]]) == EXIT_OK
    out = tmp_path / "v.json"
    assert run(["vertices", "--primes", "2", "--max-degree", "2",
                "--points", files["inf-inf-inf"],
                "--points", files["inf-2-inf"], "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["degrees"]["2"]["vertices"]
    capsys.readouterr()
    assert run(["vertices", "--primes", "2", "--max-degree", "2",
                "--points", files["inf-2-inf"],
                "--points", files["inf-2-inf"], "--out", out]) \
        == EXIT_VALIDATION
    assert "second inf-2-inf point set" in capsys.readouterr().err


def test_tabulate_csv_json_and_kappa(tmp_path, capsys):
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    capsys.readouterr()

    assert run(["tabulate", "--vertices", vfile]) == EXIT_OK
    csv_text = capsys.readouterr().out
    assert "kappa,count" in csv_text
    assert "2 1,21" in csv_text

    out = tmp_path / "t.json"
    assert run(["tabulate", "--vertices", vfile, "--format", "json",
                "--out", out]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == "polytab.table/1"
    counts = {tuple(rec["exponents"]): rec["count"] for rec in payload["counts"]}
    assert counts[(1, 3)] == 3

    assert run(["tabulate", "--vertices", vfile, "--kappa", "2^3 1"]) == EXIT_OK
    assert "2^3 1,3" in capsys.readouterr().out


def test_tabulate_rejects_negative_sizes(tmp_path, capsys):
    """A negative --max-size or part multiplicity is a usage error (exit 2),
    not a traceback or a silent '2,0' row."""
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    capsys.readouterr()
    for extra in (["--max-size", "-1"], ["--kappa", "1^-1 2"],
                  ["--enumerate", "--max-size", "-1"],
                  ["--enumerate", "--limit", "-1"]):
        assert run(["tabulate", "--vertices", vfile, *extra]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "negative" in captured.err and not captured.out


def test_tabulate_enumerate_stream(tmp_path, capsys):
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "1", "--out", vfile])
    stream = tmp_path / "cliques.txt"
    assert run(["tabulate", "--vertices", vfile, "--enumerate",
                "--out", stream]) == EXIT_OK
    lines = stream.read_text().strip().splitlines()
    assert len(lines) == 4  # empty product + three linears
    assert "(1)" in lines[0]
    assert run(["tabulate", "--vertices", vfile, "--enumerate",
                "--max-size", "0", "--out", stream]) == EXIT_OK
    assert stream.read_text() == "(1)\n"


def test_tabulate_enumerate_refusal(tmp_path):
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    assert run(["tabulate", "--vertices", vfile, "--enumerate", "--limit", "3",
                "--out", tmp_path / "s.txt"]) == EXIT_BUDGET


def test_unu(tmp_path, capsys):
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    capsys.readouterr()
    assert run(["unu", "--vertices", vfile, "--nu", "2,1,1,1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "15"


def test_series_and_verify(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["series", "--primes", "2,3,5", "--kmax", "20",
                "--out", out]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["coefficients"][:5] == ["1", "1", "3", "3", "7"]

    capsys.readouterr()
    assert run(["verify", "--name", "big235"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_pullback_cli(tmp_path, capsys):
    assert run(["pullback", "--cover", "trinomial:2", "--poly", "1,1",
                "--primes", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["coeffs"] == ["-1", "2", "1"]
    assert run(["pullback", "--cover", "nope", "--poly", "1,1",
                "--primes", "2"]) == EXIT_VALIDATION


def test_fractal_cli(capsys):
    assert run(["fractal", "--imax", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    degrees = {(rec["i"], rec["j"]): rec["degree"]
               for rec in payload["polynomials"]}
    assert degrees[(2, 0)] == 8


def test_console_entry_point(tmp_path):
    env_src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "polytab.cli", "verify", "--name", "big23"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_import_loads_no_dataclasses():
    """Every command is its own process, so what the import loads is paid
    on every command: importing polytab and its CLI in a fresh process (no
    site packages) leaves dataclasses and inspect unloaded."""
    env_src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, polytab, polytab.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tabulate_degree8_honours_the_budget(tmp_path):
    """Three degree-8 vertices need the (8, 8) resultant form, whose
    derivation takes over a minute; under a 2 s budget the graph build is
    refused (exit 3) within seconds, in a fresh process."""
    from polytab.generators import fractal_family
    from polytab.vertices import Vertex, VertexSet, write_vertex_set

    vs = VertexSet(PrimeSet([2]))
    vs.add_degree(8, [Vertex(s) for (i, _), s in fractal_family(2).items()
                      if i == 2], "conditional")
    vfile = tmp_path / "v8.json"
    write_vertex_set(vfile, vs)
    env_src = Path(__file__).resolve().parent.parent / "src"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "polytab.cli", "tabulate", "--vertices", vfile],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin",
             "POLYTAB_BUDGET_SECS": "2"},
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert time.monotonic() - t0 < 10


def test_vertices_honours_the_budget_in_one_candidate(tmp_path):
    """One degree-600 candidate line (t^600 + 1 plus terms +-2 t^i) holds
    the discriminant PRS for half a minute; under a 2 s budget `vertices`
    exits 3 within seconds, with no traceback, in a fresh process."""
    rng = random.Random(600)
    line = [1] + [rng.choice((-2, 0, 2)) for _ in range(599)] + [1]
    cfile = tmp_path / "c.txt"
    cfile.write_text(" ".join(map(str, line)) + "\n")
    env_src = Path(__file__).resolve().parent.parent / "src"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "polytab.cli", "vertices", "--primes", "2",
         "--max-degree", "4", "--candidates", cfile,
         "--out", tmp_path / "o.json"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin",
             "POLYTAB_BUDGET_SECS": "2"},
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert "Traceback" not in proc.stderr and "refused" in proc.stderr
    assert time.monotonic() - t0 < 6


def test_pullback_honours_the_budget_in_the_discriminant():
    """The pullback of a degree-400 line (t^400 + 1 plus terms +-2 t^i)
    through t^2 takes the discriminant PRS of the line, seconds long, for
    its identity; under a 1 s budget `pullback` exits 3 within seconds, in
    a fresh process, where it would otherwise fail membership (exit 2)."""
    rng = random.Random(400)
    line = [1] + [rng.choice((-2, 0, 2)) for _ in range(399)] + [1]
    env_src = Path(__file__).resolve().parent.parent / "src"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "polytab.cli", "pullback", "--cover", "power:2",
         "--poly=" + ",".join(map(str, line)), "--primes", "2"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(env_src), "PATH": "/usr/bin:/bin",
             "POLYTAB_BUDGET_SECS": "1"},
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert "Traceback" not in proc.stderr and "refused" in proc.stderr
    assert time.monotonic() - t0 < 3


def test_one_budget_per_command(tmp_path, monkeypatch, capsys):
    """main() starts one budget clock per command and every stage polls it,
    so POLYTAB_BUDGET_SECS caps the whole command, not each stage."""
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    made = []
    init = Budget.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Budget, "__init__", counted)
    for argv in _one_of_each_command(tmp_path, vfile):
        made.clear()
        assert run(argv) == EXIT_OK
        assert len(made) == 1, argv


def _one_of_each_command(tmp_path, vfile):
    """One call of every subcommand, each reading vfile where it reads a
    vertex set."""
    return (["search", "--primes", "2", "--variant", "inf-2-inf",
             "--height", "1e5", "--out", tmp_path / "p.json"],
            ["vertices", "--primes", "2", "--max-degree", "2",
             "--out", tmp_path / "v.json"],
            ["tabulate", "--vertices", vfile],
            ["tabulate", "--vertices", vfile, "--enumerate"],
            ["unu", "--vertices", vfile, "--nu", "2,1,1,1"],
            ["series", "--primes", "2,3", "--kmax", "20"],
            ["pullback", "--cover", "trinomial:2", "--poly", "1,1",
             "--primes", "2"],
            ["fractal", "--imax", "2"],
            ["verify", "--name", "big23"],
            ["seed-tables", "--out-dir", tmp_path, "--only", "littletab"])


def test_zero_budget_refuses_every_command(tmp_path, monkeypatch, capsys):
    """POLYTAB_BUDGET_SECS=0 refuses every subcommand at its first budget
    check, with exit 3."""
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    monkeypatch.setenv("POLYTAB_BUDGET_SECS", "0")
    for argv in _one_of_each_command(tmp_path, vfile):
        assert run(argv) == EXIT_BUDGET, argv
        assert "refused" in capsys.readouterr().err, argv


def test_nan_budget_is_a_usage_error_for_every_command(tmp_path, monkeypatch,
                                                      capsys):
    """POLYTAB_BUDGET_SECS=nan is malformed, not unlimited: every subcommand
    exits 2 with an error before it starts."""
    vfile = tmp_path / "v2.json"
    run(["vertices", "--primes", "2", "--max-degree", "2", "--out", vfile])
    capsys.readouterr()
    monkeypatch.setenv("POLYTAB_BUDGET_SECS", "nan")
    for argv in _one_of_each_command(tmp_path, vfile):
        assert run(argv) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err and not captured.out, argv


SEED_SUMS = Path(__file__).resolve().parent / "seed_tables.sha256"


def test_seed_tables_match_checksums(tmp_path, capsys):
    """seed-tables writes the six reference tables byte for byte as recorded
    in seed_tables.sha256 (a `sha256sum -c` file)."""
    assert run(["seed-tables", "--out-dir", tmp_path]) == EXIT_OK
    sums = dict(line.split()[::-1]
                for line in SEED_SUMS.read_text().splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(sums)
    for name, digest in sums.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


# --- malformed point and vertex-set files -----------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

VALID_POINTS = {
    "schema": "polytab.points/1", "variant": "inf-inf-inf", "primes": [2],
    "height_bound": "2", "complete": False, "citation": None,
    "points": [{"A": "1", "B": "1", "C": "-2", "u": "1/2", "class": None}],
}
VALID_VERTICES = {
    "schema": "polytab.vertices/1", "primes": [2], "max_degree": 2,
    "degrees": {
        "1": {"certificate": "complete",
              "vertices": [{"coeffs": ["1", "1"], "class": None,
                            "provenance": "built"}]},
        "2": {"certificate": "complete",
              "vertices": [{"coeffs": ["1", "0", "1"], "class": "-1",
                            "provenance": "built"}]},
    },
    "split_degree2": [["-2", "-1", "1"]],
}


def _read_commands(path, out):
    """One CLI call per reader: read_points and read_vertex_set."""
    return (["vertices", "--primes", "2", "--max-degree", "1",
             "--points", path, "--out", out],
            ["tabulate", "--vertices", path])


def _run_on_payload(tmp_path_factory, payload):
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "in.json"
    path.write_text(json.dumps(payload))
    return [run(argv) for argv in _read_commands(path, d / "out.json")]


def _paths(x, prefix=()):
    """The key path of every node of a JSON value."""
    yield prefix
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, list):
        items = enumerate(x)
    else:
        return
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _replaced(payload, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(payload))
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def test_valid_fuzz_bases(tmp_path_factory):
    assert _run_on_payload(tmp_path_factory, VALID_POINTS)[0] == EXIT_OK
    assert _run_on_payload(tmp_path_factory, VALID_VERTICES)[1] == EXIT_OK


@settings(max_examples=60, derandomize=True, deadline=None)
@given(payload=JSON_VALUES)
@example(payload=[])
@example(payload={**VALID_VERTICES, "degrees": []})
@example(payload={**VALID_POINTS,
                  "points": [{**VALID_POINTS["points"][0], "u": "1/0"}]})
@example(payload={**VALID_POINTS,
                  "points": [{**VALID_POINTS["points"][0], "u": "0/1"}]})
@example(payload=_replaced(VALID_VERTICES,
                           ("degrees", "1", "vertices", 0, "coeffs"), [1.9, 1]))
@example(payload={**VALID_VERTICES, "primes": [2.5]})
@example(payload={**VALID_POINTS, "complete": "false"})
@example(payload={**VALID_POINTS, "height_bound": 2.0})
@example(payload={**VALID_POINTS,
                  "points": [{**VALID_POINTS["points"][0], "A": True}]})
def test_malformed_files_exit_2(tmp_path_factory, payload):
    """Arbitrary JSON is never a valid point or vertex-set file."""
    assert _run_on_payload(tmp_path_factory, payload) \
        == [EXIT_VALIDATION, EXIT_VALIDATION]


def test_deeply_nested_files_exit_2(tmp_path):
    """JSON nested deeper than the parser's recursion limit is refused."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert [run(argv) for argv in _read_commands(path, tmp_path / "o.json")] \
        == [EXIT_VALIDATION, EXIT_VALIDATION]


def test_reader_errors_cut_the_echoed_value(tmp_path, capsys):
    """A 100,000-int value or a 4,000-digit degree in a wrong place is
    refused with exit 2 and a short error line, not echoed whole."""
    big = list(range(100_000))
    coeffs = ("degrees", "1", "vertices", 0, "coeffs")
    cases = [(1, _replaced(VALID_VERTICES, coeffs, [big, 1])),
             (1, _replaced(VALID_VERTICES, coeffs, big)),
             (1, {**VALID_VERTICES, "primes": {"p": big}}),
             (1, {**VALID_VERTICES, "degrees": {"-" + "9" * 4000: {}}}),
             (0, {**VALID_POINTS, "primes": [big]}),
             (0, {**VALID_POINTS, "variant": big}),
             (0, {**VALID_POINTS, "complete": big})]
    path = tmp_path / "in.json"
    for which, payload in cases:
        path.write_text(json.dumps(payload))
        argv = _read_commands(path, tmp_path / "out.json")[which]
        assert run(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200 + len(str(path))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_damaged_files_never_crash(tmp_path_factory, data):
    """One node of a valid file replaced by arbitrary JSON: the reader
    accepts the result or refuses it with exit 2, never a traceback."""
    base = data.draw(st.sampled_from((VALID_POINTS, VALID_VERTICES)))
    path = data.draw(st.sampled_from(list(_paths(base))))
    payload = _replaced(base, path, data.draw(JSON_VALUES))
    for code in _run_on_payload(tmp_path_factory, payload):
        assert code in (EXIT_OK, EXIT_VALIDATION)


def test_non_member_points_exit_2(tmp_path):
    """A well-shaped point file whose point is not a member over the primes
    (u = 1/3 over {2}, u = 1/5 over {2, 3}) is refused, not taken for an
    internal error or skipped without a word."""
    cases = [
        ("inf-inf-inf", "2", "1", "--points", ("1", "2", "-3", "1/3")),
        ("inf-2-inf", "2", "2", "--points", ("1", "2", "-3", "1/3")),
        ("3-2-inf", "2,3", "3", "--points", ("1", "4", "-5", "1/5")),
    ]
    for variant, primes, degree, flag, (A, B, C, u) in cases:
        path = tmp_path / f"{variant}.json"
        path.write_text(json.dumps({
            **VALID_POINTS, "variant": variant,
            "primes": [int(p) for p in primes.split(",")],
            "points": [{"A": A, "B": B, "C": C, "u": u, "class": None}],
        }))
        assert run(["vertices", "--primes", primes, "--max-degree", degree,
                    flag, path, "--out", tmp_path / "v.json"]) \
            == EXIT_VALIDATION, variant


def test_point_with_wrong_triple_exit_2(tmp_path, capsys):
    """A point whose (A, B, C) is not the triple of its u is refused: the
    triple of u = 1/3 is (1, 2, -3), not (2, 1, -3)."""
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({
        **VALID_POINTS, "primes": [2, 3],
        "points": [{"A": "2", "B": "1", "C": "-3", "u": "1/3",
                    "class": None}],
    }))
    capsys.readouterr()
    assert run(["vertices", "--primes", "2,3", "--max-degree", "1",
                "--points", path, "--out", tmp_path / "v.json"]) \
        == EXIT_VALIDATION
    assert "is not the triple of u = 1/3" in capsys.readouterr().err


def test_repeated_points_exit_2(tmp_path, capsys):
    """A point file that lists its points twice is refused with exit 2 and
    an error line.  A repeated 3-2-inf point used to list roots of F twice
    in the degree-3 build, which crashed on a zero polynomial."""
    for variant, degree in (("3-2-inf", "3"), ("inf-2-inf", "2"),
                            ("inf-inf-inf", "1")):
        once, twice = tmp_path / f"{variant}.json", tmp_path / "twice.json"
        assert run(["search", "--primes", "2,3", "--variant", variant,
                    "--height", "1000", "--out", once]) == EXIT_OK
        payload = json.loads(once.read_text())
        payload["points"] *= 2
        twice.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["vertices", "--primes", "2,3", "--max-degree", degree,
                    "--points", twice, "--out", tmp_path / "v.json"]) \
            == EXIT_VALIDATION, variant
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "listed twice" in err, variant


# --- candidate files ---------------------------------------------------------

# every line holds at most 7 tokens, so a candidate has degree at most 6
INT_TOKENS = st.integers(-3, 3) | st.integers(-10 ** 6, 10 ** 6)
JUNK_TOKENS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"),
                  blacklist_characters=","), max_size=4)
CANDIDATE_LINES = st.one_of(
    st.lists(INT_TOKENS, max_size=7).map(lambda cs: " ".join(map(str, cs))),
    st.lists(INT_TOKENS, max_size=7).map(lambda cs: ", ".join(map(str, cs))),
    st.sampled_from([" ".join(map(str, c)) for c in TABLE5_REPRESENTATIVES[4]]),
    st.sampled_from(["", "# comment", "1 1  # t + 1", "+1 -0 1", "1.5 1",
                     "1e3 1", "0x1f 1", "1_0 1", "x"]),
    st.lists(JUNK_TOKENS, max_size=3).map(" ".join),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lines=st.lists(CANDIDATE_LINES, max_size=6))
@example(lines=["1 0 0 0 1", "# a comment", "1, 4, -26, 4, 1", "", "5"])
@example(lines=["0"])
@example(lines=["1 0 0 0 1", "0", "0 0 0", "5"])
def test_candidate_files_never_crash(tmp_path_factory, lines):
    """Arbitrary candidate files are ingested or refused (exit 0, 2 or 3),
    never with a traceback."""
    d = tmp_path_factory.mktemp("cands")
    path = d / "cands.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert run(["vertices", "--primes", "2", "--max-degree", "4",
                "--candidates", path, "--out", d / "v.json"]) \
        in (EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET)


def test_zero_candidate_row_is_skipped(tmp_path):
    """A zero row is reported as rejected like a constant row, and the rest
    of the file is still ingested."""
    path = tmp_path / "cands.txt"
    path.write_text("0\n1 0 0 0 1\n0 0\n", encoding="utf-8")
    out = tmp_path / "v.json"
    assert run(["vertices", "--primes", "2", "--max-degree", "4",
                "--candidates", path, "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["degrees"]["4"]["vertices"]
