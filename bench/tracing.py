"""Span tracer that wraps polytab's public functions from outside the library.

A span covers one call.  Spans nest through a stack: when a span closes, its
duration is added to the child time of the span below it, so a span's self
time is its duration minus the time its child spans cover.  Spans are kept in
memory, aggregated by name (the graph build alone opens about 1.4 million
resultant spans, too many to keep one record each), and the pipeline's stage
spans are also kept one by one as a timeline.  Everything is written out once,
when the run ends.

Library functions are wrapped by patching the name where the caller looks it
up: ``cliques.build_graph`` calls ``resultant_fast`` through the ``cliques``
module globals, so ``cliques.resultant_fast`` is the name that gets replaced.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    def stage(self, name):
        return nullcontext()

    span = stage

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.stack = []        # one [child_seconds] cell per open span
        self.spans = {}        # name -> [calls, total_s, self_s]
        self.counters = {}     # name -> number
        self.timeline = []     # stage spans: {name, start_s, end_s}
        self.stage_name = "setup"
        self.t0 = time.perf_counter()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _close(self, name, frame, dur):
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]

    @contextmanager
    def span(self, name):
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter() - t0)

    @contextmanager
    def stage(self, name):
        """A pipeline stage: a span that also enters the timeline and is the
        stage that deadline polls are charged to."""
        outer, self.stage_name = self.stage_name, name
        t0 = time.perf_counter()
        try:
            with self.span("stage." + name):
                yield
        finally:
            self.timeline.append({"name": name, "start_s": t0 - self.t0,
                                  "end_s": time.perf_counter() - self.t0})
            self.stage_name = outer

    def wrap(self, name, fn, after=None):
        """fn inside a span called name (or name(args, kwargs) when name is
        callable); after(tracer, result, args, kwargs) records counters.

        The span is opened inline rather than through span(): the wrapper
        runs about 1.4 million times per graph build, and the context
        manager would double the tracing overhead there.
        """
        clock = time.perf_counter
        stack = self.stack
        close = self._close
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                with tracer.span(name):
                    yield from fn(*args, **kwargs)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(label, frame, clock() - t0)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result
        return wrapper

    # -- summaries -----------------------------------------------------------

    def calls(self, prefix):
        return sum(r[0] for n, r in self.spans.items() if _under(n, prefix))

    def seconds(self, prefix):
        return sum(r[1] for n, r in self.spans.items() if _under(n, prefix))

    def self_seconds(self, prefix):
        return sum(r[2] for n, r in self.spans.items() if _under(n, prefix))

    def dump(self):
        return {
            "spans": {n: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                      for n, r in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
            "timeline": self.timeline,
        }


def _under(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


# ---------------------------------------------------------------------------
# what gets wrapped


def _res_pair(args, kwargs):
    a, b = len(args[0]) - 1, len(args[1]) - 1
    return f"poly.resultant.{min(a, b)}x{max(a, b)}"


def _after_enum(tr, result, args, kwargs):
    tr.count("smooth.enum_numbers", len(result))


def _after_search(tr, result, args, kwargs):
    tr.count("abc_search.points", len(result[0]))


def _after_resolvent(tr, result, args, kwargs):
    tr.count("abc_search.resolvent_hits", 1 if result else 0)


def _after_deg2(tr, result, args, kwargs):
    tr.count("vertices.deg2_triples", result[2]["triples"])


def _after_ingest(tr, result, args, kwargs):
    tr.count("vertices.ingest_rejected", len(result[1].rejected))


def _after_graph(tr, result, args, kwargs):
    n = len(result.vertices)
    tr.count("cliques.graph_pairs", n * (n - 1) // 2)
    tr.count("cliques.edges", result.edge_count())


def _full_table(args, kwargs):
    """A tabulate call that counts every clique (no size cap, no kappa)."""
    return len(args) < 2 and kwargs.get("max_size") is None \
        and kwargs.get("kappa") is None


def _tabulate_name(args, kwargs):
    return "cliques.tabulate" if _full_table(args, kwargs) \
        else "cliques.tabulate_capped"


def _after_tabulate(tr, result, args, kwargs):
    if _full_table(args, kwargs):
        tr.count("cliques.cliques", result.total())


# (span name, attribute, modules that look the attribute up, counter hook)
PATCHES = (
    ("smooth.enum", "smooth_numbers_up_to", ("abc_search", "generators"), _after_enum),
    ("abc_search.search", "search_abc", ("abc_search", "vertices"), _after_search),
    ("abc_search.classify", "cubic_classes", ("abc_search", "vertices"), None),
    ("abc_search.resolvent", "has_rational_root_F", ("abc_search",), _after_resolvent),
    ("vertices.build", "build_vertex_set", ("vertices",), None),
    ("vertices.deg1", "build_degree1", ("vertices",), None),
    ("vertices.deg2", "build_degree2", ("vertices",), _after_deg2),
    ("vertices.ingest", "ingest_units", ("vertices",), _after_ingest),
    (_res_pair, "resultant_fast", ("cliques",), None),
    ("poly.rational_roots", "rational_roots", ("poly", "abc_search", "cliques"), None),
    ("poly.membership", "check_membership", ("poly", "vertices", "generators"), None),
    ("poly.discriminant", "discriminant", ("poly",), None),
    ("poly.factor", "factor_small", ("poly",), None),
    ("cliques.graph", "build_graph", ("cliques",), _after_graph),
    (_tabulate_name, "tabulate", ("cliques",), _after_tabulate),
    ("cliques.unu", "count_u_nu", ("cliques",), None),
    ("cliques.enumerate", "enumerate_cliques", ("cliques",), None),
    ("cliques.packets", "pgl2_packets", ("cliques",), None),
    ("generators.fractal", "fractal_family", ("generators",), None),
    ("generators.series", "cyclo_series", ("generators",), None),
    ("generators.named", "verify_named", ("generators",), None),
    ("io.write", "write_points", ("abc_search",), None),
    ("io.read", "read_points", ("abc_search",), None),
    ("io.write", "write_vertex_set", ("vertices",), None),
    ("io.read", "read_vertex_set", ("vertices",), None),
)


def install(tracer):
    """Wrap every function in PATCHES, plus build_degree3 (which gets a stats
    dict passed in) and Budget.check (counted per stage, no span).

    Returns a function that puts the original functions back.
    """
    import importlib

    from polytab import budget, vertices

    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for name, attr, modnames, after in PATCHES:
        mods = [importlib.import_module("polytab." + m) for m in modnames]
        orig = getattr(mods[0], attr)
        for mod in mods:
            if getattr(mod, attr) is not orig:
                raise RuntimeError(f"{mod.__name__}.{attr} is not the "
                                   f"function the other modules call")
        wrapped = tracer.wrap(name, orig, after)
        for mod in mods:
            replace(mod, attr, wrapped)

    deg3 = tracer.wrap("vertices.deg3", vertices.build_degree3)

    def build_degree3(P, classes, stats=None):
        stats = {} if stats is None else stats
        out = deg3(P, classes, stats)
        tracer.count("vertices.deg3_candidates", stats["candidates"])
        tracer.count("vertices.deg3_accepted",
                     stats["candidates"] - stats["rejected"])
        return out
    replace(vertices, "build_degree3", build_degree3)

    check = budget.Budget.check

    def counted_check(self):
        tracer.count("budget.check_calls." + tracer.stage_name)
        return check(self)
    replace(budget.Budget, "check", counted_check)

    def uninstall():
        while saved:
            owner, attr, orig = saved.pop()
            setattr(owner, attr, orig)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run

RESULTANT_PAIRS = ("1x1", "1x2", "1x3", "1x4", "2x2", "2x3", "2x4", "3x3", "4x4")
STAGES = ("search", "vertices", "graph", "tabulate", "unu", "enumerate",
          "packets", "fractal", "series")
LAYERS = ("smooth", "abc_search", "vertices", "poly", "cliques", "generators",
          "io")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, wall_s, tabulate_w2_s):
    """name -> (value, unit, better) for every per-layer metric the traced
    process can measure by itself (the tracing overhead needs an untraced
    run as well, so the caller adds it)."""
    c = tr.counters
    out = {}

    def put(name, value, unit, better="lower"):
        out[name] = (value, unit, better)

    def timed(metric, span):
        put(metric + "_calls", tr.calls(span), "count")
        put(metric + "_s", tr.seconds(span), "s")

    timed("smooth.enum", "smooth.enum")
    put("smooth.enum_numbers", c.get("smooth.enum_numbers", 0), "count")

    put("abc_search.search_s", tr.seconds("abc_search.search"), "s")
    put("abc_search.points", c.get("abc_search.points", 0), "count", "higher")
    timed("abc_search.classify", "abc_search.classify")
    tests = tr.calls("abc_search.resolvent")
    put("abc_search.resolvent_tests", tests, "count")
    put("abc_search.resolvent_hit_ratio",
        _ratio(c.get("abc_search.resolvent_hits", 0), tests), "ratio", "higher")

    for stage in ("build", "deg1", "deg2", "deg3", "ingest"):
        put(f"vertices.{stage}_s", tr.seconds("vertices." + stage), "s")
    put("vertices.deg2_triples", c.get("vertices.deg2_triples", 0), "count")
    cands = c.get("vertices.deg3_candidates", 0)
    put("vertices.deg3_candidates", cands, "count")
    put("vertices.deg3_accept_ratio",
        _ratio(c.get("vertices.deg3_accepted", 0), cands), "ratio", "higher")
    put("vertices.ingest_rejected", c.get("vertices.ingest_rejected", 0), "count")

    timed("poly.resultant", "poly.resultant")
    for pair in RESULTANT_PAIRS:
        put(f"poly.resultant_calls.{pair}", tr.calls("poly.resultant." + pair),
            "count")
        put(f"poly.resultant_s.{pair}", tr.seconds("poly.resultant." + pair), "s")
    for what in ("rational_roots", "membership", "discriminant", "factor"):
        timed("poly." + what, "poly." + what)

    put("cliques.graph_s", tr.seconds("cliques.graph"), "s")
    pairs = c.get("cliques.graph_pairs", 0)
    edges = c.get("cliques.edges", 0)
    put("cliques.graph_pairs", pairs, "count")
    put("cliques.edges", edges, "count", "higher")
    put("cliques.edge_ratio", _ratio(edges, pairs), "ratio", "higher")
    tab_s = tr.seconds("cliques.tabulate")
    n_cliques = c.get("cliques.cliques", 0)
    put("cliques.tabulate_s", tab_s, "s")
    put("cliques.cliques", n_cliques, "count", "higher")
    put("cliques.cliques_per_s", _ratio(n_cliques, tab_s), "1/s", "higher")
    put("cliques.tabulate_w2_s", tabulate_w2_s, "s")
    for what in ("unu", "enumerate", "packets"):
        put(f"cliques.{what}_s", tr.seconds("cliques." + what), "s")

    for what in ("fractal", "series", "named"):
        put(f"generators.{what}_s", tr.seconds("generators." + what), "s")

    put("io.write_s", tr.seconds("io.write"), "s")
    put("io.read_s", tr.seconds("io.read"), "s")
    put("io.bytes", c.get("io.bytes", 0), "B")

    checks = {s: c.get("budget.check_calls." + s, 0) for s in STAGES}
    put("budget.check_calls",
        sum(v for k, v in c.items() if k.startswith("budget.check_calls.")),
        "count", "higher")
    for stage, n in checks.items():
        put("budget.check_calls." + stage, n, "count", "higher")

    for layer in LAYERS:
        put(layer + ".self_s", tr.self_seconds(layer), "s")
    put("bench.self_s", tr.self_seconds("stage"), "s")
    put("trace.wall_s", wall_s, "s")
    return out
