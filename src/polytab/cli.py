"""Command-line front end.

Subcommands mirror the pipeline: search -> vertices -> tabulate/unu, plus
series/pullback/verify for the generator paths and seed-tables to regenerate
every reference table in one run.  All file payloads carry decimal-string
numbers (coefficients routinely exceed 64 bits).

Exit codes: 0 success, 2 validation failure, 3 resource-budget refusal
(running out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isfinite
from pathlib import Path

from .abc_search import (
    VARIANTS,
    read_points,
    search_abc,
    write_points,
)
from .budget import Budget, BudgetExceededError
from .cliques import (
    CompatGraph,
    build_graph,
    count_u_nu,
    enumerate_cliques,
    parse_kappa,
    tabulate,
)
from .generators import (
    NAMED_REGISTRY,
    builtin_covers,
    cyclo_series,
    fractal_family,
    pullback,
    validate_cover,
    verify_named,
)
from .poly import normalize
from .smooth import PrimeSet
from .vertices import (
    build_vertex_set,
    parse_candidate_file,
    read_vertex_set,
    write_vertex_set,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _parse_primes(text: str) -> PrimeSet:
    return PrimeSet(int(p) for p in text.replace(",", " ").split())


def _parse_height(text: str) -> int:
    v = float(text)
    if not isfinite(v) or v < 1 or v != int(v):
        raise ValueError(f"bad height bound {text!r}")
    return int(v)


def _out_stream(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_search(args) -> int:
    P = _parse_primes(args.primes)
    H = _parse_height(args.height)
    points, cert = search_abc(P, args.variant, H, classify=not args.no_classify)
    write_points(args.out, points, cert)
    note = "" if cert.complete else " (search-bounded)"
    print(f"{len(points)} points -> {args.out}{note}")
    if not points and cert.citation:
        print(f"note: {cert.citation}")
    return EXIT_OK


def cmd_vertices(args) -> int:
    P = _parse_primes(args.primes)
    points = {}
    for variant, path in ((VARIANTS[0], args.points_iii),
                          (VARIANTS[1], args.points_i2i),
                          (VARIANTS[2], args.points_32i)):
        if path:
            pts, cert = read_points(path)
            if cert.variant != variant or tuple(cert.primes) != P.primes:
                raise ValueError(f"{path} is not a {variant} point set over {P}")
            points[variant] = (pts, cert)
    candidates = parse_candidate_file(args.candidates) if args.candidates else None
    vs = build_vertex_set(P, args.max_degree, points_by_variant=points,
                          candidates=candidates)
    write_vertex_set(args.out, vs)
    print(f"vertices by degree {vs.counts()} -> {args.out}")
    return EXIT_OK


def _graph_from_file(path) -> CompatGraph:
    vs = read_vertex_set(path)
    return build_graph(vs)


def cmd_tabulate(args) -> int:
    g = _graph_from_file(args.vertices)
    kappa = parse_kappa(args.kappa, max(g.degrees)) if args.kappa else None
    if args.enumerate:
        stream, close = _out_stream(args.out)
        try:
            count = 0
            for clique in enumerate_cliques(g, kappa=kappa,
                                            max_size=args.max_size,
                                            limit=args.limit):
                stream.write("".join(
                    f"({g.vertices[i].poly.format()})" for i in clique) or "(1)")
                stream.write("\n")
                count += 1
        finally:
            if close:
                stream.close()
        print(f"{count} cliques enumerated", file=sys.stderr)
        return EXIT_OK
    table = tabulate(g, max_size=args.max_size, kappa=kappa)
    if args.format == "json":
        payload = table.to_json_payload(g.P)
        text = json.dumps(payload, indent=1) + "\n"
    else:
        text = table.to_csv()
    stream, close = _out_stream(args.out)
    stream.write(text)
    if close:
        stream.close()
        print(f"partition table -> {args.out}")
    return EXIT_OK


def cmd_unu(args) -> int:
    g = _graph_from_file(args.vertices)
    nu = tuple(int(x) for x in args.nu.replace(",", " ").split())
    print(count_u_nu(g, nu))
    return EXIT_OK


def cmd_series(args) -> int:
    P = _parse_primes(args.primes)
    series = cyclo_series(P, args.kmax)
    payload = {
        "schema": "polytab.series/1",
        "primes": list(P.primes),
        "kmax": series.kmax,
        "coefficients": [str(c) for c in series.coeffs],
    }
    stream, close = _out_stream(args.out)
    json.dump(payload, stream, indent=1)
    stream.write("\n")
    if close:
        stream.close()
        print(f"series through x^{args.kmax} -> {args.out}")
    return EXIT_OK


def cmd_pullback(args) -> int:
    P = _parse_primes(args.primes)
    covers = builtin_covers()
    if args.cover not in covers:
        raise ValueError(f"unknown cover {args.cover!r}; "
                         f"builtin: {sorted(covers)}")
    cover = covers[args.cover]
    validate_cover(cover, P)
    s, _ = normalize([int(x) for x in args.poly.replace(",", " ").split()])
    out = pullback(cover, s, P)
    payload = {
        "schema": "polytab.poly/1",
        "primes": list(P.primes),
        "cover": args.cover,
        "input": [str(c) for c in s.coeffs],
        "coeffs": [str(c) for c in out.coeffs],
        "degree": out.degree,
    }
    stream, close = _out_stream(args.out)
    json.dump(payload, stream, indent=1)
    stream.write("\n")
    if close:
        stream.close()
    return EXIT_OK


def cmd_fractal(args) -> int:
    fam = fractal_family(args.imax)
    payload = {
        "schema": "polytab.fractal/1",
        "imax": args.imax,
        "verified": True,
        "polynomials": [
            {"i": i, "j": j, "degree": s.degree,
             "coeffs": [str(c) for c in s.coeffs]}
            for (i, j), s in sorted(fam.items())
        ],
    }
    stream, close = _out_stream(args.out)
    json.dump(payload, stream, indent=1)
    stream.write("\n")
    if close:
        stream.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = verify_named(args.name)
    status = "PASS" if rep.ok else "FAIL"
    print(f"{args.name}: {status} (degree {rep.poly.degree}, "
          f"membership {rep.membership_ok}, disc match {rep.disc_matches}, "
          f"partition match {rep.partition_matches})")
    return EXIT_OK if rep.ok else EXIT_VALIDATION


SEED_TABLE_NAMES = ("littletab", "deg1row", "v235", "v23", "v2", "series")


def cmd_seed_tables(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    budget = Budget.from_env()
    wanted = set(args.only.split(",")) if args.only else set(SEED_TABLE_NAMES)
    unknown = wanted - set(SEED_TABLE_NAMES)
    if unknown:
        raise ValueError(f"unknown table name(s) {sorted(unknown)}; "
                         f"choose from {SEED_TABLE_NAMES}")

    def emit(name, text):
        (outdir / name).write_text(text, encoding="utf-8")
        print(f"wrote {outdir / name}")

    if "littletab" in wanted:
        vs2 = build_vertex_set(PrimeSet([2]), 2, budget=budget)
        t2 = tabulate(build_graph(vs2))
        emit("polys-2b1a-over-2.csv", _grid_csv_rows_b_cols_a(t2, bmax=3, amax=1))

    if "deg1row" in wanted:
        vs1 = build_vertex_set(PrimeSet([2, 3, 5, 7]), 1, budget=budget)
        t1 = tabulate(build_graph(vs1))
        rows = ["a," + ",".join(str(a) for a in range(10)),
                "count," + ",".join(str(t1.count((a,))) for a in range(10))]
        emit("polys-1a-over-2357.csv", "\n".join(rows) + "\n")

    if "v235" in wanted:
        vs235 = build_vertex_set(PrimeSet([2, 3, 5]), 2, budget=budget)
        t235 = tabulate(build_graph(vs235))
        emit("polys-2b1a-over-235.csv",
             _grid_csv_rows_b_cols_a(t235, bmax=15, amax=5))

    if "v23" in wanted:
        vs23 = build_vertex_set(PrimeSet([2, 3]), 3, budget=budget)
        t23 = tabulate(build_graph(vs23))
        emit("polys-3c2b1a-over-23.csv", _grid_csv_v23(t23))

    if "v2" in wanted:
        vs24 = build_vertex_set(PrimeSet([2]), 4, budget=budget)
        t24 = tabulate(build_graph(vs24))
        emit("polys-4d2b1a-over-2.csv", _grid_csv_v2(t24))

    if "series" in wanted:
        series = cyclo_series(PrimeSet([2, 3, 5]), 1000)
        emit("cyclo-series-235.csv",
             "k,count\n" + "\n".join(f"{k},{c}"
                                     for k, c in enumerate(series.coeffs)) + "\n")
    return EXIT_OK


def _grid_csv_rows_b_cols_a(table, bmax, amax) -> str:
    lines = ["b\\a," + ",".join(str(a) for a in range(amax + 1))]
    for b in range(bmax + 1):
        lines.append(str(b) + "," + ",".join(
            str(table.count((a, b))) for a in range(amax + 1)))
    return "\n".join(lines) + "\n"


def _grid_csv_v23(table) -> str:
    cmax = max((e[2] for e in table.counts), default=0)
    bmax = max((e[1] for e in table.counts), default=0)
    lines = ["c,a," + ",".join(f"b={b}" for b in range(bmax + 1))]
    for c in range(cmax + 1):
        for a in range(4):
            row = [str(table.count((a, b, c))) for b in range(bmax + 1)]
            if any(x != "0" for x in row):
                lines.append(f"{c},{a}," + ",".join(row))
    return "\n".join(lines) + "\n"


def _grid_csv_v2(table) -> str:
    lines = ["a,b," + ",".join(f"d={d}" for d in range(5))]
    for a in (0, 1):
        for b in range(4):
            row = [str(table.count((a, b, 0, d))) for d in range(5)]
            lines.append(f"{a},{b}," + ",".join(row))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polytab",
        description="Exact tabulation of polynomials with prescribed "
                    "factorization partition and bad reduction in a prime set")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run an ABC-variant point search")
    p.add_argument("--primes", required=True)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--height", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-classify", action="store_true",
                   help="skip cubic class resolution for 3-2-inf")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("vertices", help="build the vertex set up to a degree")
    p.add_argument("--primes", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--points-iii")
    p.add_argument("--points-i2i")
    p.add_argument("--points-32i")
    p.add_argument("--candidates", help="degree >= 4 candidate file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("tabulate", help="count (or stream) cliques by partition")
    p.add_argument("--vertices", required=True)
    p.add_argument("--kappa", help="restrict to one partition, e.g. '2^15 1'")
    p.add_argument("--max-size", type=int)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--limit", type=int, default=10 ** 6,
                   help="refusal bound for enumeration streams")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("unu", help="count specialization tuples for a composition")
    p.add_argument("--vertices", required=True)
    p.add_argument("--nu", required=True, help="e.g. 2,1,1,1")
    p.set_defaults(func=cmd_unu)

    p = sub.add_parser("series", help="cyclotomic-product generating function")
    p.add_argument("--primes", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("pullback", help="pull a member back through a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--poly", required=True,
                   help="integer coefficients, constant term first")
    p.add_argument("--primes", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("fractal", help="iterated-preimage family over {2}")
    p.add_argument("--imax", type=int, default=4)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fractal)

    p = sub.add_parser("verify", help="check a named extremal polynomial")
    p.add_argument("--name", required=True, choices=sorted(NAMED_REGISTRY))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("seed-tables", help="regenerate every reference table")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--only", help="comma-separated subset of "
                                  + ",".join(SEED_TABLE_NAMES))
    p.set_defaults(func=cmd_seed_tables)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
