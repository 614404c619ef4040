"""Outside-in layer tracing for the benchmark worker.

The tracer wraps the public layer-boundary functions of orbitpairs from
outside the package; nothing under src/ changes.  Each wrapped call records
a span (name, start, end, parent) in flat in-memory arrays, and a span's
self time is its duration minus the time its child spans cover.  A wrapped
name is replaced in every orbitpairs module that imported it, so calls made
through `from .orbits import alpha` are traced too.

Layers are the package's modules.  `cli` is left out (its cache writes are
a small share of `table` and below the run-to-run spread) and `errors` does
no work.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from importlib import import_module

LAYERS = ("posets", "qpoly", "orbits", "refined", "quiver", "oracle")

# (module, attribute path, span name).  A callable span name picks the name
# from the call's arguments.
SPANS = (
    ("posets", "IdealLattice.__init__", "posets.lattice_build"),
    ("posets", "OrderIdeal.union", "posets.union"),
    ("posets", "IdealLattice.mobius", "posets.mobius"),
    ("qpoly", "QPolynomial.exact_div", "qpoly.exact_div"),
    ("orbits", "n_lambda", "orbits.n_lambda"),
    ("orbits", "orbit_census", "orbits.census"),
    ("orbits", "alpha", "orbits.alpha"),
    ("orbits", "x_count", "orbits.x_count"),
    ("refined", "refined_matrix", "refined.matrix"),
    ("refined", "refined_total", "refined.total"),
    ("refined", "exact_fiber_count", "refined.fiber"),
    ("refined", "s_count", "refined.s_count"),
    ("quiver", "r_n1", "quiver.r_n1"),
    ("quiver", "enumerate_types", "quiver.enumerate_types"),
    ("quiver", "c_tau", "quiver.c_tau"),
    ("quiver", "n_tau", "quiver.n_tau"),
    ("oracle", "verify", "oracle.verify"),
    ("oracle", "orbits",
     lambda args, kwargs: "oracle.pair_orbits"
     if (args[1] if len(args) > 1 else kwargs.get("space")) == "pairs"
     else "oracle.element_orbits"),
)

# (module, attribute path, counter name, amount taken from (result, args)).
# Counted without a span: these run too often, or inside a span already
# timed, for a span of their own to be worth its cost.
COUNTS = (
    ("qpoly", "QPolynomial.__init__", "qpoly.constructed", None),
    ("posets", "IdealLattice.__init__", "posets.ideals_enumerated",
     lambda result, args: len(getattr(args[0], "ideals", ()))),
    ("quiver", "enumerate_types", "quiver.types", lambda result, args: len(result)),
    ("oracle", "_group_perms", "oracle.group_perms", lambda result, args: len(result)),
)

# Every functools.lru_cache in the package; the self-test checks that this
# list is complete.
CACHES = (
    ("posets", "lattice"),
    ("orbits", "orbit_size"),
    ("orbits", "canonical_split"),
    ("orbits", "_alpha_core"),
    ("refined", "coset_count"),
    ("quiver", "phi_d"),
    ("oracle", "_unit_generators"),
)


def _resolve(module: str, path: str):
    """(owner, attribute name) of a layer boundary, or None if the code no
    longer has it; its metrics then read 0."""
    owner = import_module(f"orbitpairs.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        print(f"layertrace: orbitpairs.{module}.{path} not found, not traced", file=sys.stderr)
        return None
    return owner, attr


def _replace(owner, attr: str, wrapper):
    """Swap in the wrapper on a class, or in every orbitpairs module that
    holds the original function under any name."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "orbitpairs" or name.startswith("orbitpairs.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    """Span and counter recorder.  Create one, then install() it before the
    first job; spans stay in memory until self_times() reads them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.caches = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name, fn):
        ids, starts, ends, parents, open_ = (
            self.name_id, self.start, self.end, self.parent, self._open)
        clock = time.perf_counter_ns
        fixed = self._id(name) if isinstance(name, str) else None
        name_id = self._id

        def wrapper(*args, **kwargs):
            i = len(starts)
            ids.append(fixed if fixed is not None else name_id(name(args, kwargs)))
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, amount, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, path in CACHES:
            found = _resolve(module, path)
            fn = getattr(*found) if found else None
            if hasattr(fn, "cache_info"):
                self.caches[f"{module}.{path}"] = fn
        # Counters go on first so that a span on the same name also times
        # the counting wrapper's small cost instead of leaving it untimed.
        for module, path, name, amount in COUNTS:
            found = _resolve(module, path)
            if found:
                _replace(*found, self._counter(name, amount, getattr(*found)))
        for module, path, name in SPANS:
            found = _resolve(module, path)
            if found:
                _replace(*found, self._span(name, getattr(*found)))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            total[nid] += dur[i]
            own[nid] += dur[i] - child[i]
        return {self.names[nid]: (calls[nid], total[nid] / 1e9, own[nid] / 1e9)
                for nid in calls}

    def cache_info(self, key: str):
        fn = self.caches.get(key)
        return fn.cache_info() if fn is not None else None


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Units of the per-layer metrics.  "count" values must repeat exactly from
# run to run, and so must "ratio" values, which are built from counts only.
def layer_metrics(tracer: Tracer, wall_s: float, pair_points: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced worker run, as name -> (value, unit)."""
    spans = tracer.self_times()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def hit_ratio(key):
        info = tracer.cache_info(key)
        return _ratio(info.hits, info.hits + info.misses) if info else 0.0

    def cache_calls(key):
        info = tracer.cache_info(key)
        return info.hits + info.misses if info else 0

    counts = tracer.counts
    pair_s = incl("oracle.pair_orbits")
    m = {
        "posets.lattices_built": (calls("posets.lattice_build"), "count"),
        "posets.ideals_enumerated": (counts["posets.ideals_enumerated"], "count"),
        "posets.lattice_build_s": (own("posets.lattice_build"), "s"),
        "posets.union_calls": (calls("posets.union"), "count"),
        "posets.union_s": (own("posets.union"), "s"),
        "posets.mobius_calls": (calls("posets.mobius"), "count"),
        "posets.mobius_s": (own("posets.mobius"), "s"),
        "posets.lattice_hit_ratio": (hit_ratio("posets.lattice"), "ratio"),
        "qpoly.constructed": (counts["qpoly.constructed"], "count"),
        "qpoly.exact_div_calls": (calls("qpoly.exact_div"), "count"),
        "qpoly.exact_div_s": (own("qpoly.exact_div"), "s"),
        "orbits.census_calls": (calls("orbits.census"), "count"),
        "orbits.census_self_s": (own("orbits.census"), "s"),
        "orbits.cells": (calls("orbits.alpha"), "count"),
        "orbits.alpha_self_s": (own("orbits.alpha"), "s"),
        "orbits.x_count_s": (own("orbits.x_count"), "s"),
        "orbits.alpha_core_hit_ratio": (hit_ratio("orbits._alpha_core"), "ratio"),
        "orbits.orbit_size_hit_ratio": (hit_ratio("orbits.orbit_size"), "ratio"),
        "orbits.cache_entries": (sum(tracer.cache_info(k).currsize for k in tracer.caches
                                     if k.startswith("orbits.")), "count"),
        "orbits.n_lambda_s": (incl("orbits.n_lambda"), "s"),
        "refined.total_calls": (calls("refined.total"), "count"),
        "refined.total_self_s": (own("refined.total"), "s"),
        "refined.fiber_calls": (calls("refined.fiber"), "count"),
        "refined.fiber_self_s": (own("refined.fiber"), "s"),
        "refined.s_count_calls": (calls("refined.s_count"), "count"),
        "refined.s_count_s": (own("refined.s_count"), "s"),
        "refined.coset_calls": (cache_calls("refined.coset_count"), "count"),
        "refined.coset_hit_ratio": (hit_ratio("refined.coset_count"), "ratio"),
        "quiver.types": (counts["quiver.types"], "count"),
        "quiver.enumerate_types_s": (own("quiver.enumerate_types"), "s"),
        "quiver.c_tau_s": (own("quiver.c_tau"), "s"),
        "quiver.n_tau_self_s": (own("quiver.n_tau"), "s"),
        "quiver.r_n1_self_s": (own("quiver.r_n1"), "s"),
        "oracle.element_orbits_s": (incl("oracle.element_orbits"), "s"),
        "oracle.pair_orbits_s": (pair_s, "s"),
        "oracle.group_perms": (counts["oracle.group_perms"], "count"),
        "oracle.pair_points": (pair_points, "count"),
        "oracle.pair_points_per_s": (_ratio(pair_points, pair_s), "1/s"),
        "oracle.formula_s": (incl("oracle.verify") - incl("oracle.element_orbits") - pair_s, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v[2] for k, v in spans.items()
                                    if k.startswith(layer + ".")), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.named_self_share"] = (_ratio(sum(v[2] for v in spans.values()), wall_s), "share")
    for module, attr in CACHES:
        info = tracer.cache_info(f"{module}.{attr}")
        for field, value in (("hits", info.hits if info else 0),
                             ("misses", info.misses if info else 0),
                             ("size", info.currsize if info else 0)):
            m[f"cache.{module}.{attr}.{field}"] = (value, "count")
    return m
