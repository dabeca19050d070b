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
import sys
from math import isfinite
from pathlib import Path

from .abc_search import (
    VARIANTS,
    _write_json,
    _write_lines,
    read_points,
    search_abc,
    write_points,
)
from .budget import Budget, BudgetExceededError
from .cliques import (
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


def cmd_search(args) -> int:
    P = _parse_primes(args.primes)
    H = _parse_height(args.height)
    points, cert = search_abc(P, args.variant, H)
    write_points(args.out, points, cert)
    note = "" if cert.complete else " (search-bounded)"
    print(f"{len(points)} points -> {args.out}{note}")
    if not points and cert.citation:
        print(f"note: {cert.citation}")
    return EXIT_OK


def cmd_vertices(args) -> int:
    P = _parse_primes(args.primes)
    points = {}
    for path in args.points:
        pts, cert = read_points(path)
        if tuple(cert.primes) != P.primes:
            raise ValueError(f"{path} is not a point set over {P}")
        if cert.variant in points:
            raise ValueError(f"{path} is a second {cert.variant} point set")
        points[cert.variant] = (pts, cert)
    candidates = parse_candidate_file(args.candidates) if args.candidates else None
    vs = build_vertex_set(P, args.max_degree, points_by_variant=points,
                          candidates=candidates)
    write_vertex_set(args.out, vs)
    print(f"vertices by degree {vs.counts()} -> {args.out}")
    return EXIT_OK


def cmd_tabulate(args) -> int:
    g = build_graph(read_vertex_set(args.vertices))
    kappa = parse_kappa(args.kappa, max(g.degrees)) if args.kappa else None
    if args.enumerate:
        cliques = enumerate_cliques(g, kappa=kappa, max_size=args.max_size,
                                    limit=args.limit)
        count = _write_lines(args.out, (
            "".join(f"({g.vertices[i].poly.format()})" for i in clique)
            or "(1)" for clique in cliques))
        print(f"{count} cliques enumerated", file=sys.stderr)
        return EXIT_OK
    table = tabulate(g, max_size=args.max_size, kappa=kappa)
    if args.format == "json":
        _write_json(args.out, table.to_json_payload(g.P))
    else:
        _write_lines(args.out, table.to_csv().splitlines())
    if args.out != "-":
        print(f"partition table -> {args.out}")
    return EXIT_OK


def cmd_unu(args) -> int:
    g = build_graph(read_vertex_set(args.vertices))
    nu = tuple(int(x) for x in args.nu.replace(",", " ").split())
    print(count_u_nu(g, nu))
    return EXIT_OK


def cmd_series(args) -> int:
    P = _parse_primes(args.primes)
    series = cyclo_series(P, args.kmax)
    _write_json(args.out, {
        "schema": "polytab.series/1",
        "primes": list(P.primes),
        "kmax": series.kmax,
        "coefficients": [str(c) for c in series.coeffs],
    })
    if args.out != "-":
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
    _write_json(args.out, {
        "schema": "polytab.poly/1",
        "primes": list(P.primes),
        "cover": args.cover,
        "input": [str(c) for c in s.coeffs],
        "coeffs": [str(c) for c in out.coeffs],
        "degree": out.degree,
    })
    return EXIT_OK


def cmd_fractal(args) -> int:
    fam = fractal_family(args.imax)
    _write_json(args.out, {
        "schema": "polytab.fractal/1",
        "imax": args.imax,
        "verified": True,
        "polynomials": [
            {"i": i, "j": j, "degree": s.degree,
             "coeffs": [str(c) for c in s.coeffs]}
            for (i, j), s in sorted(fam.items())
        ],
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = verify_named(args.name)
    status = "PASS" if rep.ok else "FAIL"
    print(f"{args.name}: {status} (degree {rep.poly.degree}, "
          f"membership {rep.membership_ok}, disc match {rep.disc_matches}, "
          f"partition match {rep.partition_matches})")
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def _grid(count, header, rows, drop_zeros=False):
    """CSV lines of a grid: the header, then per (labels, keys) row its
    labels and count(key) for each key; rows of zeros are left out when
    drop_zeros."""
    yield ",".join(header)
    for labels, keys in rows:
        cells = [str(count(key)) for key in keys]
        if not drop_zeros or any(c != "0" for c in cells):
            yield ",".join([*labels, *cells])


def _b_by_a(bmax, amax):
    """The grid of the cells 2^b 1^a of a table, a row per b <= bmax."""
    cols = range(amax + 1)
    return lambda t: _grid(t.count, ["b\\a", *map(str, cols)],
                           (([str(b)], [(a, b) for a in cols])
                            for b in range(bmax + 1)))


def _c_a_by_b(t):
    """The grid of the cells 3^c 2^b 1^a of a table, a row per (c, a <= 3)
    that holds a clique."""
    bs = range(max((e[1] for e in t.counts), default=0) + 1)
    cs = range(max((e[2] for e in t.counts), default=0) + 1)
    return _grid(t.count, ["c", "a", *(f"b={b}" for b in bs)],
                 (([str(c), str(a)], [(a, b, c) for b in bs])
                  for c in cs for a in range(4)), drop_zeros=True)


def _a_b_by_d(t):
    """The grid of the cells 4^d 2^b 1^a of a table, a row per a <= 1 and
    b <= 3."""
    ds = range(5)
    return _grid(t.count, ["a", "b", *(f"d={d}" for d in ds)],
                 (([str(a), str(b)], [(a, b, 0, d) for d in ds])
                  for a in (0, 1) for b in range(4)))


# name, file, primes, max degree (of the vertices, or of the series), grid
SEED_TABLES = (
    ("littletab", "polys-2b1a-over-2.csv", (2,), 2, _b_by_a(3, 1)),
    ("deg1row", "polys-1a-over-2357.csv", (2, 3, 5, 7), 1,
     lambda t: _grid(t.count, ["a", *map(str, range(10))],
                     [(["count"], [(a,) for a in range(10)])])),
    ("v235", "polys-2b1a-over-235.csv", (2, 3, 5), 2, _b_by_a(15, 5)),
    ("v23", "polys-3c2b1a-over-23.csv", (2, 3), 3, _c_a_by_b),
    ("v2", "polys-4d2b1a-over-2.csv", (2,), 4, _a_b_by_d),
    ("series", "cyclo-series-235.csv", (2, 3, 5), 1000,
     lambda s: _grid(s.coeffs.__getitem__, ["k", "count"],
                     (([str(k)], [k]) for k in range(s.kmax + 1)))),
)
SEED_TABLE_NAMES = tuple(row[0] for row in SEED_TABLES)


def cmd_seed_tables(args) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    wanted = set(args.only.split(",")) if args.only else set(SEED_TABLE_NAMES)
    unknown = wanted - set(SEED_TABLE_NAMES)
    if unknown:
        raise ValueError(f"unknown table name(s) {sorted(unknown)}; "
                         f"choose from {SEED_TABLE_NAMES}")
    for name, filename, primes, degree, grid in SEED_TABLES:
        if name not in wanted:
            continue
        P = PrimeSet(primes)
        if name == "series":
            table = cyclo_series(P, degree)
        else:
            table = tabulate(build_graph(build_vertex_set(P, degree)))
        _write_lines(outdir / filename, grid(table))
        print(f"wrote {outdir / filename}")
    return EXIT_OK


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
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("vertices", help="build the vertex set up to a degree")
    p.add_argument("--primes", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--points", action="append", default=[], metavar="FILE",
                   help="a point file (its certificate names the variant); "
                        "repeat for other variants")
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
    args = build_parser().parse_args(argv)
    try:
        # one clock per command: every stage it runs polls this budget
        with Budget.from_env():
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
