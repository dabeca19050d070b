import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_vertices_pipeline(tmp_path, capsys):
    pts = tmp_path / "i2i.json"
    assert run(["search", "--primes", "2", "--variant", "inf-2-inf",
                "--height", "1e6", "--out", pts]) == EXIT_OK
    vfile = tmp_path / "v2.json"
    assert run(["vertices", "--primes", "2", "--max-degree", "4",
                "--points-i2i", pts, "--out", vfile]) == EXIT_OK
    payload = json.loads(vfile.read_text())
    assert payload["schema"] == "polytab.vertices/1"
    counts = {d: len(block["vertices"]) for d, block in payload["degrees"].items()}
    assert counts == {"1": 3, "2": 15, "3": 0, "4": 108}


def test_vertices_rejects_mismatched_points(tmp_path):
    pts = tmp_path / "i2i.json"
    run(["search", "--primes", "2,3", "--variant", "inf-2-inf",
         "--height", "1e4", "--out", pts])
    assert run(["vertices", "--primes", "2", "--max-degree", "2",
                "--points-i2i", pts, "--out", tmp_path / "v.json"]) \
        == EXIT_VALIDATION


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
                  ["--enumerate", "--max-size", "-1"]):
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
             "--points-iii", path, "--out", out],
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
        ("inf-inf-inf", "2", "1", "--points-iii", ("1", "2", "-3", "1/3")),
        ("inf-2-inf", "2", "2", "--points-i2i", ("1", "2", "-3", "1/3")),
        ("3-2-inf", "2,3", "3", "--points-32i", ("1", "4", "-5", "1/5")),
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
