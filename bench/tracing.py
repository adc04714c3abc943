"""Per-layer tracing for the benchmark, from the benchmark's own files.

The layers are the package modules.  ``instrument`` wraps the public
callables of ``cli``, ``catalog``, ``fundgroup``, ``rootdata``, ``repcalc``
and ``spinor`` where their callers look them up, and the lazy ``RootDatum``
properties on the class, so a span opens at each layer boundary.  ``ratlin``
is not wrapped: the workloads never call it directly, so its time is charged
to its callers.

A span is (name, start, end, parent span, op id).  A call on a root datum
named in ``COLD_WARM`` is reported as ``.cold`` when it filled one of the
datum's lazy tables or memos (the first call builds the Gram inverse, for
one) and as ``.warm`` otherwise, so the warm per-call figures hold no table
builds and the cold ones show what the builds cost.  Calls made once per
scanned point or per closed-form term (``ROLLED_UP``) are folded into
per-name totals instead of being kept one by one; they still count towards
their parents' child time, so self times stay exact.  Spans are kept in
memory and written out when the run ends.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property

import harness

LAYERS = ("bench", "cli", "catalog", "fundgroup", "rootdata", "repcalc",
          "spinor")

# lazy RootDatum tables: each gets a span where it is first computed, so
# tracing reads none that the plain call would not compute itself
LAZY_PROPERTIES = ("positive_roots", "minus_w0_matrix", "fundamental_weights",
                   "center_directions")

ROLLED_UP = frozenset({
    "spinor.dominant_orthogonal_weights", "rootdata.is_character",
    "rootdata.is_dominant", "repcalc.classify", "repcalc.weyl_dim",
    "repcalc.casimir_value", "rootdata.weight_inner",
    "rootdata.cochar_norm_sq", "spinor.q_irreducible"})

# calls on a datum, split by whether they filled its lazy tables
COLD_WARM = frozenset({
    "spinor.is_spinorial", "spinor.q_irreducible", "rootdata.weight_inner",
    "rootdata.is_character", "rootdata.is_dominant",
    "rootdata.cochar_norm_sq", "repcalc.classify", "repcalc.weyl_dim",
    "repcalc.casimir_value"})


class Tracer:
    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent, op)
        self.stats = defaultdict(lambda: [0, 0.0])   # name -> [calls, s]
        self.self_seconds = defaultdict(float)       # layer -> s
        self.counts = defaultdict(int)
        self.observed = {}              # exact counts: key -> value
        self.mismatches = []
        self.op = None                  # key of the op being traced
        self.group = None               # group name of that op
        self._stack = []                # open frames: [child s, span id]
        self._ids = 0

    def call(self, name, fn, args, kwargs=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        keep = name not in ROLLED_UP
        # the datum's __dict__ holds its lazy tables and memos
        tables = args[0].__dict__ if name in COLD_WARM else None
        if tables is not None:
            built = len(tables)
        if keep:
            self._ids += 1
            sid = self._ids
        else:
            sid = parent[1] if parent else None
        frame = [0.0, sid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if tables is not None:
                name += ".cold" if len(tables) > built else ".warm"
            if parent is not None:
                parent[0] += dur
            self.self_seconds[name.split(".", 1)[0]] += dur - frame[0]
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            if keep:
                self.spans.append((sid, name, t0, t1,
                                   parent[1] if parent else None, self.op))

    def observe(self, kind, key, value):
        """Record an exact count; a second, different value is a mismatch."""
        k = f"{kind} {key}"
        old = self.observed.setdefault(k, value)
        if old != value:
            self.mismatches.append(f"{k}: {old} then {value}")

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [list(s) for s in self.spans],
            "calls": {n: {"count": c, "seconds": s}
                      for n, (c, s) in sorted(self.stats.items())},
            "self_seconds": dict(self.self_seconds),
            "observed": self.observed,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ----------------------------------------------------------------------
# instrumentation

def _wrapper(tracer, name, fn, hook=None):
    """``fn`` in a span; ``hook`` records counts from its result."""
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer, result)
        return result
    return traced


def _count_roots(tracer, roots):
    tracer.observe("positive_roots", tracer.group, len(roots))


def _count_table(tracer, table):
    dominant = sum(1 for _ in table.dominant_items())
    tracer.counts["freudenthal.weights"] += len(table)
    tracer.counts["freudenthal.dominant_weights"] += dominant
    tracer.observe("freudenthal", tracer.op, [len(table), dominant])


def _count_orbit(tracer, orbit):
    tracer.counts["weyl_orbit.size"] += len(orbit)
    tracer.observe("orbit_size", tracer.op, len(orbit))


def _traced_sweep(tracer, fn):
    """dominant_orthogonal_weights is a generator: time every resume and
    count the points it yields and scans."""
    def traced(rd, box, basis=None):
        gen = fn(rd, box, basis=basis)
        yielded = 0
        while True:
            try:
                item = tracer.call("spinor.dominant_orthogonal_weights",
                                   next, (gen,))
            except StopIteration:
                break
            yielded += 1
            yield item
        # the function visits every point of the coordinate box
        r = len(rd.fundamental_weights if basis is None else basis)
        scanned = (box + 1) ** r
        tracer.counts["sweep.scanned"] += scanned
        tracer.counts["sweep.yielded"] += yielded
        tracer.observe("sweep", tracer.group, [scanned, yielded])
    return traced


@contextmanager
def instrument(tracer):
    """Install the span wrappers for the duration of the block."""
    from spinoriality import catalog, cli, fundgroup, repcalc, rootdata, spinor
    RootDatum = rootdata.RootDatum
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(name, owners, attr, hook=None):
        new = _wrapper(tracer, name, getattr(owners[0], attr), hook)
        for owner in owners:
            patch(owner, attr, new)

    for attr in ("load_group", "parse_weight_option", "run_check",
                 "run_summary", "emit_json"):
        wrap(f"cli.{attr}", [cli], attr)
    for attr in ("group_by_name", "summary_check", "sweep_all_spinorial"):
        wrap(f"catalog.{attr}", [catalog], attr)
    wrap("fundgroup.fundamental_group", [fundgroup, catalog, cli],
         "fundamental_group")
    for attr in ("classify", "weyl_dim", "casimir_value", "L_phi"):
        wrap(f"repcalc.{attr}", [repcalc, spinor], attr)
    wrap("repcalc.freudenthal_multiplicities", [repcalc, spinor],
         "freudenthal_multiplicities", hook=_count_table)
    for attr in ("orth_rep", "is_spinorial", "q_irreducible", "make_regular",
                 "q_via_weyl_sum", "oracle_compare"):
        wrap(f"spinor.{attr}", [spinor], attr)
    patch(spinor, "dominant_orthogonal_weights",
          _traced_sweep(tracer, spinor.dominant_orthogonal_weights))
    for attr in ("is_character", "is_dominant", "weight_inner",
                 "cochar_norm_sq"):
        wrap(f"rootdata.{attr}", [RootDatum], attr)
    wrap("rootdata.weyl_orbit_signed", [RootDatum], "weyl_orbit_signed",
         hook=_count_orbit)
    for attr in LAZY_PROPERTIES:
        hook = _count_roots if attr == "positive_roots" else None
        new = cached_property(_wrapper(tracer, f"rootdata.{attr}",
                                       RootDatum.__dict__[attr].func, hook))
        new.__set_name__(RootDatum, attr)
        patch(RootDatum, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)


# ----------------------------------------------------------------------
# paired runs

class PairedRunner:
    """Runs each op twice through ``harness.Runner``, once plain and once
    under ``instrument``, alternating which goes first, so the difference
    of their times is the tracing overhead.  The traced run of an oracle
    row uses its twin from ``fresh``, a second set-up whose groups pay
    their cold costs once, as the plain ones do."""

    def __init__(self, workload, tracer, fresh):
        self.plain = harness.Runner(workload)
        self.tracer = tracer
        self.untraced = harness.RunResult()
        self.twin = {op.key: op for op in fresh.ops}
        self.traced_first = False

    def run(self, op):
        self.traced_first = not self.traced_first
        if self.traced_first:
            out = self._traced(op)
        self.untraced.add(op, self.plain.run(op))
        if not self.traced_first:
            out = self._traced(op)
        return out

    def _traced(self, op):
        tracer = self.tracer
        tracer.op = op.key
        tracer.group = op.args[0]
        with instrument(tracer):
            return tracer.call("bench.op", self.plain.run,
                               (self.twin.get(op.key, op),))


# ----------------------------------------------------------------------
# per-layer metrics

def check_counts(tracer, reference):
    """Compare every exact count the traced runs observed with the
    reference."""
    bad = list(tracer.mismatches)
    for key, value in tracer.observed.items():
        kind, name = key.split(" ", 1)
        if kind == "positive_roots":
            want = reference["positive_roots"].get(name)
        elif kind == "sweep":
            ref = reference["sweep"].get(name, {})
            want = [ref.get("scanned"), ref.get("yielded")]
        elif kind == "freudenthal":
            ref = reference["oracle"].get(name, {})
            want = [ref.get("weights"), ref.get("dominant_weights")]
        else:
            want = reference["oracle"].get(name, {}).get("orbit_size")
        if value != want:
            bad.append(f"{key}: observed {value}, reference {want}")
    return bad


def per_layer_metrics(tracer, untraced, traced):
    stats, counts = tracer.stats, tracer.counts
    passes = traced.passes
    ops = traced.attempted

    def mean(name, scale):
        calls, seconds = stats.get(name, (0, 0.0))
        return seconds / calls * scale if calls else 0.0

    def per_call(counter, name):
        calls = stats.get(name, (0, 0.0))[0]
        return counts[counter] / calls if calls else 0.0

    m = {}
    for name in ("catalog.group_by_name", "fundgroup.fundamental_group",
                 "spinor.orth_rep", "repcalc.freudenthal_multiplicities",
                 "repcalc.L_phi", "rootdata.weyl_orbit_signed",
                 "spinor.q_via_weyl_sum", "spinor.make_regular"):
        m[f"{name}.ms"] = (mean(name, 1e3), "ms")
    for attr in LAZY_PROPERTIES:
        m[f"rootdata.{attr}.cold_ms"] = (mean(f"rootdata.{attr}", 1e3), "ms")
    m["rootdata.weight_inner.cold_ms"] = (
        mean("rootdata.weight_inner.cold", 1e3), "ms")
    m["spinor.is_spinorial.cold_ms"] = (
        mean("spinor.is_spinorial.cold", 1e3), "ms")
    m["spinor.is_spinorial.warm_us"] = (
        mean("spinor.is_spinorial.warm", 1e6), "us")
    for name in ("rootdata.is_character", "rootdata.is_dominant",
                 "repcalc.classify", "repcalc.weyl_dim",
                 "repcalc.casimir_value", "rootdata.cochar_norm_sq",
                 "spinor.q_irreducible"):
        m[f"{name}.us"] = (mean(f"{name}.warm", 1e6), "us")
    m["cli.emit_json.us"] = (mean("cli.emit_json", 1e6), "us")
    scanned, yielded = counts["sweep.scanned"], counts["sweep.yielded"]
    gen_seconds = stats.get("spinor.dominant_orthogonal_weights", (0, 0.0))[1]
    m["spinor.dominant_orthogonal_weights.us_per_scanned"] = (
        gen_seconds / scanned * 1e6 if scanned else 0.0, "us")
    m["spinor.dominant_orthogonal_weights.scanned"] = (scanned / passes, "count")
    m["spinor.dominant_orthogonal_weights.yielded"] = (yielded / passes, "count")
    m["spinor.dominant_orthogonal_weights.yield_ratio"] = (
        yielded / scanned if scanned else 0.0, "ratio")
    m["repcalc.freudenthal_multiplicities.weights"] = (
        per_call("freudenthal.weights", "repcalc.freudenthal_multiplicities"),
        "count")
    m["repcalc.freudenthal_multiplicities.dominant_weights"] = (
        per_call("freudenthal.dominant_weights",
                 "repcalc.freudenthal_multiplicities"), "count")
    m["rootdata.weyl_orbit_signed.orbit_size"] = (
        per_call("weyl_orbit.size", "rootdata.weyl_orbit_signed"), "count")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (tracer.self_seconds[layer] / ops * 1e3, "ms")
    extra = traced.busy_seconds - untraced.busy_seconds
    m["trace.overhead_ms"] = (extra / ops * 1e3, "ms")
    m["trace.overhead_ratio"] = (extra / untraced.busy_seconds, "ratio")
    return m
