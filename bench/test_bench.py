"""Tests of the benchmark itself (not of polytab).

    python3 -m pytest -q bench/test_bench.py

They run the cheap p2-gen pipeline in-process (a few seconds each) and one
child process; the heavy workloads are exercised only by bench/run.py.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pipelines  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from polytab import cliques, poly  # noqa: E402


@pytest.fixture(scope="module")
def p2_gen_runs(tmp_path_factory):
    out = {}
    for seed in (1, 2):
        inputs = pipelines.Inputs("p2-gen", seed)
        io_dir = str(tmp_path_factory.mktemp(f"io{seed}"))
        out[seed] = (inputs, *pipelines.p2_gen(tracing.NullTracer(), inputs, io_dir))
    return out


def test_reference_values_pass(p2_gen_runs):
    _, observed, _ = p2_gen_runs[1]
    assert reference.check(observed, reference.EXPECTED["p2-gen"]) == []


def test_wrong_expected_value_marks_run_failed(p2_gen_runs):
    _, observed, _ = p2_gen_runs[1]
    wrong = {**reference.EXPECTED["p2-gen"], "cell (1,3,0,2)": 4}
    mismatches = reference.check(observed, wrong)
    assert mismatches == ["cell (1,3,0,2): got 3, want 4"]

    # the paper's 180822 cell, checked against a deliberately wrong 180823
    p23 = dict(reference.EXPECTED["p23-deg3"])
    assert reference.check(p23, {**p23, "cell (1,0,4)": 180823}) \
        == ["cell (1,0,4): got 180822, want 180823"]

    good = {"mismatches": [], "outputs_sha256": "x"}
    bad = {"mismatches": mismatches, "outputs_sha256": "x"}
    assert run.verdict([good, bad, good]) == (1, ["x"], False)
    assert run.verdict([good, good]) == (0, ["x"], True)


def test_missing_value_is_a_mismatch():
    expected = reference.EXPECTED["p235-deg2"]
    observed = {k: v for k, v in expected.items() if k != "U (2,1,1,1)"}
    assert reference.check(observed, expected) == ["U (2,1,1,1): missing, want 2947"]


def test_exception_in_pipeline_counts_as_failed_run():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "no-such-workload",
         "1", "run"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["mismatches"] == ["raised KeyError: 'no-such-workload'"]
    assert run.verdict([result])[0] == 1


def test_seed_changes_inputs_not_outputs(p2_gen_runs):
    (in1, obs1, full1), (in2, obs2, full2) = p2_gen_runs[1], p2_gen_runs[2]
    assert in1.candidates != in2.candidates
    assert sorted(in1.candidates) == sorted(in2.candidates)
    assert obs1 == obs2
    assert pipelines.fingerprint(full1) == pipelines.fingerprint(full2)


def test_io_roundtrip_detects_a_changed_table(p2_gen_runs, tmp_path):
    _, _, full = p2_gen_runs[1]
    table = full["table"]
    assert pipelines.roundtrip(tracing.NullTracer(), str(tmp_path),
                               full["vertices"].P, full["points"],
                               full["vertices"], table) == []
    shifted = cliques.PartitionTable(table.f, dict(table.counts))
    orig_to_csv = shifted.to_csv
    shifted.to_csv = lambda: orig_to_csv().replace(",3\n", ",4\n", 1)
    bad = pipelines.roundtrip(tracing.NullTracer(), str(tmp_path),
                              full["vertices"].P, full["points"],
                              full["vertices"], shifted)
    assert bad == ["table csv"]


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()

    def inner():
        sum(range(20000))

    inner_w = tr.wrap("inner", inner)

    def outer():
        inner_w()
        inner_w()
        sum(range(20000))

    with tr.stage("s"):
        tr.wrap("outer", outer)()
    calls, total, self_s = tr.spans["outer"]
    assert calls == 1 and tr.spans["inner"][0] == 2
    assert self_s == pytest.approx(total - tr.spans["inner"][1])
    assert tr.spans["stage.s"][2] == pytest.approx(
        tr.spans["stage.s"][1] - total)
    assert [s["name"] for s in tr.timeline] == ["s"]


def test_install_wraps_callers_and_uninstall_restores():
    orig = cliques.resultant_fast
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        assert cliques.resultant_fast is not orig
        assert cliques.resultant_fast((1, 1), (2, 0, 1)) == orig((1, 1), (2, 0, 1))
        assert tr.spans["poly.resultant.1x2"][0] == 1
    finally:
        uninstall()
    assert cliques.resultant_fast is orig is poly.resultant_fast


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    layer = tracing.layer_metrics(tracing.Tracer(), 0.0, 0.0)
    want = [(name, unit, better) for name, (_, unit, better) in layer.items()]
    want.append(("trace.overhead_s", "s", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == want
