"""Benchmark command: run one reference pipeline of polytab and report metrics.

    python3 bench/run.py --workload p23-deg3 --seed 1 --seconds 10 --trace 0

Every pipeline run happens in a fresh child process (bench/child.py), one at
a time, and is checked against the paper's reference values.

--trace 0  end-to-end metrics: wall_s (median time to the checked table),
           setup_s (median time to import polytab and build the inputs, over
           several fresh processes) and peak_rss_mb (largest max RSS of the
           pipeline processes).  Pipelines run back to back while another one
           still fits in --seconds; at least one always runs.
--trace 1  per-layer metrics: one untraced and one traced pipeline run; the
           traced run's spans give the layer metrics, and the difference of
           the two wall times is the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give the run environment (Python
version, nproc, 1-minute load average at start and end), fail_frac and the
fingerprint of the outputs, which must not depend on the seed.  A full report
goes to .bench_out/report-<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("p23-deg3", "p235-deg2", "p2357-split", "p2-gen")
SETUP_SAMPLES = 7          # fresh processes timed for setup_s
DEADLINE_S = 175           # the whole command must end within 180 s

# setup_s is the import of compiled modules, as an installed package has
# them: children may write bytecode, into .bench_out so the sources stay clean
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_out", "pycache")
# str hashes (polytab's point at infinity is the string "inf") and with them
# set and dict layouts are then the same in every run; only --seed varies
CHILD_ENV["PYTHONHASHSEED"] = "0"


def run_child(workload, seed, mode, deadline):
    """Run one child process to completion and return its JSON result.

    A child that crashes or overruns the deadline comes back as a failed run
    (its mismatches say why), so it is counted, never dropped.
    """
    timeout = max(deadline - time.monotonic(), 1)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), mode],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return _failed_run(f"{mode} process killed after {timeout:.0f} s")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return _failed_run(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failed_run(why):
    return {"mismatches": [why], "outputs_sha256": None, "setup_s": None,
            "wall_s": None, "peak_rss_mb": None}


def _values(runs, key):
    return [r[key] for r in runs if r[key] is not None]


def measure(workload, seed, seconds, deadline):
    """Untraced runs: setup samples, then pipelines back to back."""
    run_child(workload, seed, "setup", deadline)  # compiles the bytecode
    setups = [run_child(workload, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    runs = []
    started = time.monotonic()
    while True:
        runs.append(run_child(workload, seed, "run", deadline))
        elapsed = time.monotonic() - started
        if runs[-1]["wall_s"] is None or elapsed + elapsed / len(runs) > seconds:
            break
    failed_setups = [r for r in setups if r.get("mismatches")]
    walls = _values(runs, "wall_s")
    if not walls:
        return failed_setups + runs, None
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(_values(setups + runs, "setup_s")), "s"),
        "peak_rss_mb": (max(_values(runs, "peak_rss_mb")), "MB"),
    }
    return failed_setups + runs, metrics


def measure_traced(workload, seed, deadline):
    """One untraced and one traced run; per-layer metrics from the latter."""
    plain = run_child(workload, seed, "run", deadline)
    traced = run_child(workload, seed, "trace", deadline)
    if plain["wall_s"] is None or traced["wall_s"] is None:
        return [plain, traced], None
    metrics = {k: (v[0], v[1]) for k, v in traced["layer_metrics"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return [plain, traced], metrics


def verdict(runs):
    """(failed, output fingerprints, correct) over the child results.

    A run fails when it raised or any checked value differs from the
    reference; runs of one seed must also agree on every output.
    """
    failed = sum(1 for r in runs if r["mismatches"])
    digests = sorted({r["outputs_sha256"] for r in runs if r["outputs_sha256"]})
    return failed, digests, failed == 0 and len(digests) == 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "polytab", "__init__.py")):
        print(f"bench: no polytab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load1_start = os.getloadavg()[0]
    if args.trace:
        runs, metrics = measure_traced(args.workload, args.seed, deadline)
    else:
        runs, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    if metrics is None:
        for r in runs:
            print(f"bench: {'; '.join(r['mismatches'])}", file=sys.stderr)
        print("bench: no pipeline run completed", file=sys.stderr)
        return 1
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "load1_start": load1_start, "load1_end": os.getloadavg()[0]}

    failed, digests, correct = verdict(runs)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "attempted": len(runs), "failed": failed,
        "fail_frac": failed / len(runs), "outputs_sha256": digests,
        "runs": [{k: v for k, v in r.items() if k != "layer_metrics"}
                 for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"report-{args.workload}-seed"
                        f"{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for r in runs:
        for line in r["mismatches"]:
            print(f"MISMATCH {args.workload} seed {args.seed}: {line}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"fail_frac {failed}/{len(runs)} = {failed / len(runs):g}")
    print(f"env python {env['python']} nproc {env['nproc']} "
          f"load1 {env['load1_start']} -> {env['load1_end']}")
    print(f"outputs_sha256 {' '.join(digests)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
