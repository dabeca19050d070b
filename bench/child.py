"""One benchmark process: import polytab, build one workload's inputs, and
optionally run its pipeline once.  Prints one JSON object on stdout.

    python3 bench/child.py <workload> <seed> setup|run|trace

setup  measures only set-up (import polytab and build the inputs);
run    also runs the pipeline untraced and checks it against the reference;
trace  runs it traced, then times a workers=2 tabulation of the same graph
       and writes the spans to .bench_out/trace-<workload>-seed<seed>.json.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if not os.path.isfile(os.path.join(SRC, "polytab", "__init__.py")):
        print(f"no polytab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import polytab

    if not os.path.abspath(polytab.__file__).startswith(SRC + os.sep):
        print(f"imported polytab from {polytab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import pipelines
    import reference
    import tracing

    inputs = pipelines.Inputs(workload, seed)
    result = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    uninstall = tracing.install(tracer) if mode == "trace" else None
    io_dir = os.path.join(OUT, "io", workload)
    full = None
    t0 = time.perf_counter()
    try:
        observed, full = pipelines.PIPELINES[workload](tracer, inputs, io_dir)
        mismatches = reference.check(observed, reference.EXPECTED[workload])
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        mismatches = [f"raised {type(exc).__name__}: {exc}"]
    result["wall_s"] = time.perf_counter() - t0
    result["mismatches"] = mismatches
    result["outputs_sha256"] = pipelines.fingerprint(full) if full else None

    if mode == "trace":
        uninstall()
        w2_s = 0.0
        if full is not None:
            t0 = time.perf_counter()
            table2 = pipelines.cliques.tabulate(full["graph"], workers=2)
            w2_s = time.perf_counter() - t0
            if table2.counts != full["table"].counts:
                mismatches.append("tabulate(workers=2) differs from workers=1")
        metrics = tracing.layer_metrics(tracer, result["wall_s"], w2_s)
        result["layer_metrics"] = {k: list(v) for k, v in metrics.items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, indent=1)
        result["trace_file"] = os.path.relpath(path, ROOT)

    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
