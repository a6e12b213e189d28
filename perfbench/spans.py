"""Per-layer tracing by wrapping ordex's public entry points from outside.

Nothing under ``src/`` is edited.  While a ``Tracer`` is installed, every
module of the ``ordex`` package that binds one of the traced functions
(for example ``ordex.bounds.contains`` next to ``ordex.containment.contains``)
has that name replaced by a wrapper that records a span, and the traced
methods of ``HostIndex`` and ``RecordCache`` are replaced on the class.
``uninstall`` puts every original back.

A span's self time is its duration minus the time covered by its child
spans.  Spans are folded into per-name totals (calls, total seconds, self
seconds) as they close, so memory stays flat over the million spans of a
solver run; the totals and counters stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Per-layer metrics: unit, which direction is better, the end-to-end
# metric each should move and the workloads it should move on.  This
# table is the written-down prediction for how the layers interact.
LAYER_METRICS = {
    "containment.find_calls": ("count", "lower", "wall_s", "avoid witness solve"),
    "containment.find_self_s": ("s", "lower", "wall_s", "avoid witness solve"),
    "containment.find_us_per_call": ("us", "lower", "wall_s job_p50_s", "solve"),
    "containment.find_hit_frac": ("ratio", "higher", "wall_s", "witness solve"),
    "containment.rotations_per_contains": ("count", "lower", "wall_s", "witness solve"),
    "containment.host_index_builds": ("count", "lower", "job_tail_s", "avoid solve"),
    "containment.host_index_s": ("s", "lower", "job_tail_s", "avoid solve"),
    "containment.edge_edits": ("count", "lower", "wall_s", "solve"),
    "containment.edge_edit_s": ("s", "lower", "wall_s", "solve"),
    "containment.pattern_index_misses": ("count", "lower", "job_p50_s", "session"),
    "solver.include_attempts": ("count", "lower", "wall_s job_tail_s", "solve"),
    "solver.include_accept_frac": ("ratio", "higher", "wall_s job_tail_s", "solve"),
    "solver.self_s": ("s", "lower", "wall_s job_tail_s", "solve"),
    "solver.perm_s": ("s", "lower", "job_tail_s", "solve"),
    "constructions.build_s": ("s", "lower", "job_p50_s", "avoid"),
    "constructions.verify_s": ("s", "lower", "job_p50_s", "avoid"),
    "bounds.upper_s": ("s", "lower", "job_tail_s wall_s", "session"),
    "bounds.lower_s": ("s", "lower", "job_tail_s wall_s", "session"),
    "bounds.replay_s": ("s", "lower", "job_tail_s wall_s", "session"),
    "bounds.trace_steps": ("count", "lower", "job_tail_s wall_s", "session"),
    "bounds.contains_calls": ("count", "lower", "job_tail_s wall_s", "session"),
    "graphs.canonical_calls": ("count", "lower", "wall_s", "session"),
    "graphs.canonical_s": ("s", "lower", "wall_s", "session"),
    "cache.hits": ("count", "higher", "job_p50_s", "session"),
    "cache.variant_hits": ("count", "higher", "job_p50_s", "session"),
    "cache.misses": ("count", "lower", "job_p50_s", "session"),
    "cache.load_s": ("s", "lower", "job_p50_s", "session"),
    "cache.store_s": ("s", "lower", "job_p50_s", "session"),
    "cache.bytes_written": ("count", "lower", "job_p50_s", "session"),
    "formats.parse_s": ("s", "lower", "job_p50_s", "session"),
    "formats.serialize_s": ("s", "lower", "job_p50_s", "session"),
    "cli.commands": ("count", "higher", "job_p50_s", "session"),
    "cli.overhead_s": ("s", "lower", "job_p50_s", "session"),
    "trace.overhead_frac": ("ratio", "lower", "none", "all"),
}

# (module, attribute) -> span name.  Functions are wrapped at every
# ordex module that binds them; methods are wrapped on their class.
FUNCTIONS = {
    ("containment", "find_embedding"): "find",
    ("containment", "contains"): "contains",
    ("containment", "uses_edge"): "uses_edge",
    ("solver", "max_edges_avoiding"): "solver.max_edges",
    ("solver", "count_avoiders"): "solver.count",
    ("solver", "count_avoiding_permutations"): "solver.perms",
    ("constructions", "power_distance_graph"): "constructions.build",
    ("constructions", "random_ck_free"): "constructions.build",
    ("constructions", "verify_construction"): "constructions.verify",
    ("bounds", "derive_upper_bound"): "bounds.upper",
    ("bounds", "derive_lower_bound"): "bounds.lower",
    ("bounds", "replay_derivation"): "bounds.replay",
    ("graphs", "canonical_variant"): "graphs.canonical",
    ("formats", "parse_graph"): "formats.parse",
    ("formats", "serialize_graph"): "formats.serialize",
    ("cli", "dispatch"): "cli.dispatch",
}
METHODS = {
    ("containment", "HostIndex", "__init__"): "host_index",
    ("containment", "HostIndex", "add_edge"): "edge_edit",
    ("containment", "HostIndex", "remove_edge"): "edge_edit",
    ("cache", "RecordCache", "load_bytes"): "cache.load",
    ("cache", "RecordCache", "store"): "cache.store",
    ("cache", "RecordCache", "fetch"): "cache.fetch",
}
SOLVER_SPANS = ("solver.max_edges", "solver.count", "solver.perms")


class Tracer:
    """Collects spans and counters from wrapped ordex entry points."""

    def __init__(self):
        self.stack = []      # open spans: [child seconds, span name]
        self.stats = {}      # span name -> [calls, total seconds, self seconds]
        self.counts = {}     # counter name -> int
        self._undo = []
        self._stored = set()  # cache keys stored by the current CLI command
        self._pattern_index = None
        self._pattern_misses0 = 0
        self.pattern_index_misses = 0
        # Hooks that turn arguments and return values into counters, by
        # span name (before) and by (span name, calling module) (after).
        self._before = {
            "contains": lambda args: (args[1].flavor, self.calls("find")),
            "cache.fetch": lambda args: (self.counts.get("cache.stores", 0),
                                         self.calls("solver.max_edges")),
            "cli.dispatch": lambda args: self._stored.clear(),
        }
        self._after = {
            ("find", None): self._after_find,
            ("contains", None): self._after_contains,
            ("contains", "solver"): self._after_solver_contains,
            ("uses_edge", "solver"): self._after_include,
            ("bounds.upper", None): self._after_bound,
            ("bounds.lower", None): self._after_bound,
            ("contains", "bounds"): self._after_bounds_contains,
            ("cache.fetch", None): self._after_fetch,
            ("cache.load", None): self._after_load,
            ("cache.store", None): self._after_store,
        }

    # -- counters ---------------------------------------------------------
    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    def calls(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[0]

    def total(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[1]

    def self_time(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[2]

    def inside(self, span):
        return any(frame[1] == span for frame in self.stack)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, name, site):
        """A span-recording stand-in for fn, called from module ``site``."""
        stack = self.stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        after = self._after.get((name, site)) or self._after.get((name, None))
        before = self._before.get(name)
        edge_edit = name == "edge_edit"

        def traced(*args, **kwargs):
            if edge_edit and stack and stack[-1][1] == "host_index":
                return fn(*args, **kwargs)   # edges added while building a host
            token = before(args) if before else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced name in the loaded ordex package."""
        modules = {k: v for k, v in sys.modules.items()
                   if v is not None and (k == "ordex" or k.startswith("ordex."))}
        # A name missing from the package is skipped, and its metrics read 0.
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(modules.get(f"ordex.{home}"), attr, None)
            if original is None:
                continue
            for mod_name, mod in modules.items():
                if vars(mod).get(attr) is original:
                    site = mod_name.rpartition(".")[2]
                    self._set(mod, attr, self.wrap(original, name, site))
        for (home, cls_name, attr), name in METHODS.items():
            cls = getattr(modules.get(f"ordex.{home}"), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._set(cls, attr, self.wrap(vars(cls)[attr], name, home))
        self._pattern_index = getattr(modules["ordex.containment"],
                                      "pattern_index", None)
        self._pattern_misses0 = self._pattern_misses()

    def _pattern_misses(self):
        info = getattr(self._pattern_index, "cache_info", None)
        return info().misses if info else 0

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        self.pattern_index_misses = self._pattern_misses() - self._pattern_misses0
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hooks -----------------------------------------------------------
    def _after_find(self, token, args, result):
        if result is not None:
            self.bump("find_hits")

    def _after_contains(self, token, args, result):
        flavor, finds_before = token
        if flavor == "cyclic":
            self.bump("cyclic_contains")
            self.bump("cyclic_finds", self.calls("find") - finds_before)

    def _after_solver_contains(self, token, args, result):
        self._after_contains(token, args, result)
        self._after_include(token, args, result is not None)

    def _after_include(self, token, args, found):
        self.bump("include_attempts")
        if not found:
            self.bump("include_accepts")

    def _after_bounds_contains(self, token, args, result):
        self._after_contains(token, args, result)
        self.bump("bounds_contains")

    def _after_bound(self, token, args, result):
        self.bump("trace_steps", len(result.derivation.steps))

    def _after_fetch(self, token, args, result):
        stores_before, solves_before = token
        if self.calls("solver.max_edges") > solves_before:
            self.bump("cache.misses")
        elif self.counts.get("cache.stores", 0) > stores_before:
            self.bump("cache.variant_hits")
        else:
            self.bump("cache.hits")

    def _after_load(self, token, args, result):
        # A read outside fetch that finds a record is an exact hit, unless
        # the same command stored that record a moment ago (the CLI reads
        # back what a miss or variant hit just wrote).
        if result is not None and not self.inside("cache.fetch") \
                and _cache_key(args) not in self._stored:
            self.bump("cache.hits")

    def _after_store(self, token, args, result):
        rec = args[1]
        self.bump("cache.stores")
        self.bump("cache.bytes_written", len(result))
        self._stored.add((rec.flavor, rec.pattern, rec.n, rec.m))

    # -- report -----------------------------------------------------------
    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric of LAYER_METRICS from what was recorded."""
        c = self.counts.get
        finds = self.calls("find")
        attempts = c("include_attempts", 0)
        cyclic = c("cyclic_contains", 0)
        values = {
            "containment.find_calls": finds,
            "containment.find_self_s": self.self_time("find"),
            "containment.find_us_per_call": (self.total("find") / finds * 1e6
                                             if finds else 0.0),
            "containment.find_hit_frac": c("find_hits", 0) / finds if finds else 0.0,
            "containment.rotations_per_contains": (c("cyclic_finds", 0) / cyclic
                                                   if cyclic else 0.0),
            "containment.host_index_builds": self.calls("host_index"),
            "containment.host_index_s": self.total("host_index"),
            "containment.edge_edits": self.calls("edge_edit"),
            "containment.edge_edit_s": self.total("edge_edit"),
            "containment.pattern_index_misses": self.pattern_index_misses,
            "solver.include_attempts": attempts,
            "solver.include_accept_frac": (c("include_accepts", 0) / attempts
                                           if attempts else 0.0),
            "solver.self_s": sum(self.self_time(s) for s in SOLVER_SPANS),
            "solver.perm_s": self.total("solver.perms"),
            "constructions.build_s": self.total("constructions.build"),
            "constructions.verify_s": self.total("constructions.verify"),
            "bounds.upper_s": self.total("bounds.upper"),
            "bounds.lower_s": self.total("bounds.lower"),
            "bounds.replay_s": self.total("bounds.replay"),
            "bounds.trace_steps": c("trace_steps", 0),
            "bounds.contains_calls": c("bounds_contains", 0),
            "graphs.canonical_calls": self.calls("graphs.canonical"),
            "graphs.canonical_s": self.total("graphs.canonical"),
            "cache.hits": c("cache.hits", 0),
            "cache.variant_hits": c("cache.variant_hits", 0),
            "cache.misses": c("cache.misses", 0),
            "cache.load_s": self.total("cache.load"),
            "cache.store_s": self.total("cache.store"),
            "cache.bytes_written": c("cache.bytes_written", 0),
            "formats.parse_s": self.total("formats.parse"),
            "formats.serialize_s": self.total("formats.serialize"),
            "cli.commands": self.calls("cli.dispatch"),
            "cli.overhead_s": self.self_time("cli.dispatch"),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
                for name in LAYER_METRICS}


def _cache_key(args):
    _, flavor, pattern, n, m = args[:5]
    return (flavor, pattern, n, m)
