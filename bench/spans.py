"""Span tracer for the coxbalance benchmark, installed from outside ``src/``.

The tracer replaces each traced callable by a timing wrapper in every
``coxbalance`` module namespace that binds it.  ``verify`` and ``semiorder``
import ``build_root_system`` and ``iter_ideal_masks`` by name, so patching
only ``rootsys`` would miss their calls.  Methods are patched on their class.
A span opens at each call; for a generator function, at each ``next()``, so
the consumer's loop body between two items is not charged to the generator.
Spans live in flat in-memory arrays and are written out once, at the end.

A span's self time is its duration minus the durations of its child spans.
Every span nests inside the ``cli.main`` span of its command, so the self
times of one repetition sum to at most its wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Set, Tuple

# Every traced callable as (module, attribute path).  These are the public
# entry points of each layer that the metrics below name, plus the other
# layer entry points that ``verify`` calls, so that little work is left in
# ``verify``'s own self time.  ``linalg`` and the per-element helpers called
# 10^5 to 10^6 times per workload (``weyl.multiply``/``inverse``/descents,
# ``RootSystem`` methods, ``semiorder.exit_roots``) are not wrapped: their
# cost shows in the self time of their callers.
TRACED = (
    ("cli", "main"),
    ("verify", "run_campaign"),
    ("rootsys", "build_root_system"),
    ("rootsys", "iter_ideal_masks"),
    ("weyl", "reduced_word"),
    ("weyl", "all_elements"),
    ("coxgen", "build_system"),
    ("coxgen", "is_fully_commutative"),
    ("posets", "heap_from_word"),
    ("posets", "claw_chain"),
    ("posets", "is_isomorphic"),
    ("posets", "LabeledPoset.balance"),
    ("posets", "LabeledPoset.ideal_count"),
    ("convex", "enumerate_convex_ideals"),
    ("convex", "ideal_from_upper"),
    ("convex", "interval_left"),
    ("convex", "convex_hull"),
    ("convex", "ConvexSet.balance"),
    ("semiorder", "scan_exit_witnesses"),
    ("semiorder", "check_half_bound"),
    ("semiorder", "build"),
    ("alcove", "alcove_params"),
    ("alcove", "centroid"),
    ("alcove", "small_mean_height_root"),
    ("alcove", "centroid_split_root"),
    ("alcove", "exponential_bound_threshold"),
    ("alcove", "check_short_root_bound"),
)

LAYERS = ("rootsys", "weyl", "coxgen", "posets", "convex", "semiorder",
          "alcove", "verify", "cli")

# metric -> traced callable whose summed span self time it reports
SELF_TIMES = {
    "rootsys.build_s": "rootsys.build_root_system",
    "rootsys.ideal_enum_s": "rootsys.iter_ideal_masks",
    "semiorder.exit_scan_s": "semiorder.scan_exit_witnesses",
    "semiorder.half_bound_s": "semiorder.check_half_bound",
    "convex.balance_s": "convex.ConvexSet.balance",
    "convex.hull_s": "convex.convex_hull",
    "weyl.reduced_word_s": "weyl.reduced_word",
    "weyl.enum_s": "weyl.all_elements",
    "alcove.centroid_s": "alcove.centroid",
    "alcove.params_s": "alcove.alcove_params",
    "alcove.short_bound_s": "alcove.check_short_root_bound",
    "coxgen.fc_check_s": "coxgen.is_fully_commutative",
    "coxgen.build_system_s": "coxgen.build_system",
    "posets.heap_s": "posets.heap_from_word",
    "posets.balance_s": "posets.LabeledPoset.balance",
    "posets.iso_s": "posets.is_isomorphic",
}

# metric -> traced callable whose calls it counts
CALLS = {
    "rootsys.build_calls": "rootsys.build_root_system",
    "semiorder.build_calls": "semiorder.build",
    "convex.balance_calls": "convex.ConvexSet.balance",
    "weyl.reduced_word_calls": "weyl.reduced_word",
    "alcove.centroid_calls": "alcove.centroid",
    "alcove.params_calls": "alcove.alcove_params",
    "coxgen.fc_checks": "coxgen.is_fully_commutative",
    "posets.heaps_built": "posets.heap_from_word",
}

# metric -> traced generator function whose yielded items it counts
YIELDS = {
    "rootsys.ideals_enumerated": "rootsys.iter_ideal_masks",
    "weyl.elements_enumerated": "weyl.all_elements",
    "convex.sets_yielded": "convex.enumerate_convex_ideals",
}

SCAN = "convex.enumerate_convex_ideals"
BFS = "convex.ideal_from_upper"
CAMPAIGN = "verify.run_campaign"


class Tracer:
    """Records spans around the traced callables once :meth:`install` ran."""

    def __init__(self) -> None:
        self.names = [f"{module}.{attr}" for module, attr in TRACED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.names)
        self.yields = [0] * len(self.names)
        self.stack: List[int] = []
        self.build_types: Set[Tuple[str, int]] = set()
        self.ideals_scanned = 0
        self.campaign_s: Dict[str, float] = {}

    # -- recording --------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _parent_name(self) -> str:
        return self.names[self.span_name[self.stack[-1]]] if self.stack else ""

    def _observe(self, name: str, result) -> None:
        """Read the counts that only a traced call's result carries."""
        if name == "rootsys.build_root_system":
            self.build_types.add((result.family, result.rank))
        elif name == "semiorder.scan_exit_witnesses":
            self.ideals_scanned += result[0]
        elif name == CAMPAIGN and self._parent_name() != CAMPAIGN:
            # run_campaign("all") recurses; count each report once.
            for rep in result:
                campaign = rep.campaign.split()[0]
                self.campaign_s[campaign] = (
                    self.campaign_s.get(campaign, 0.0) + rep.duration
                )

    def _wrap_function(self, nid: int, fn: Callable) -> Callable:
        name = self.names[nid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, result)
            return result

        return traced

    def _timed_items(self, nid: int, it):
        try:
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.yields[nid] += 1
                yield item
        finally:
            it.close()

    def _wrap_generator(self, nid: int, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            return self._timed_items(nid, fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        """Wrap every traced callable wherever a coxbalance module binds it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "coxbalance" or name.startswith("coxbalance.")
        ]
        for nid, (module, attr) in enumerate(TRACED):
            owner = importlib.import_module(f"coxbalance.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                    else self._wrap_function)
            traced = wrap(nid, fn)
            if path:  # a method: its class is the only binding
                setattr(owner, leaf, traced)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    def dump(self, path: str) -> None:
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "calls": self.calls,
            "yields": self.yields,
            "build_types": len(self.build_types),
            "ideals_scanned": self.ideals_scanned,
            "campaign_s": self.campaign_s,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- analysis (run by run.py on a dumped trace) ----------------------------------


def self_times(trace: dict) -> List[int]:
    """Self time of every span in nanoseconds."""
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    own = [e - s for s, e in zip(start, end)]
    selves = own[:]
    for i, p in enumerate(parent):
        if p >= 0:
            selves[p] -= own[i]
    return selves


def layer_metrics(trace: dict, campaigns) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``campaigns`` lists the campaign names that get a
    ``verify.campaign_s.<campaign>`` entry (0 when not run).
    """
    names = trace["names"]
    nid = {n: i for i, n in enumerate(names)}
    span_name, parent = trace["name"], trace["parent"]
    selves = self_times(trace)
    by_name = [0] * len(names)
    for n, s in zip(span_name, selves):
        by_name[n] += s
    scan, bfs = nid[SCAN], nid[BFS]
    scan_ns = by_name[scan]
    bfs_in_scan = 0
    for i, n in enumerate(span_name):
        if n == bfs and parent[i] >= 0 and span_name[parent[i]] == scan:
            bfs_in_scan += 1
            scan_ns += selves[i]

    out: Dict[str, float] = {}
    for metric, target in SELF_TIMES.items():
        out[metric] = by_name[nid[target]] / 1e9
    for metric, target in CALLS.items():
        out[metric] = trace["calls"][nid[target]]
    for metric, target in YIELDS.items():
        out[metric] = trace["yields"][nid[target]]
    builds = trace["calls"][nid["rootsys.build_root_system"]]
    out["rootsys.build_distinct_ratio"] = trace["build_types"] / builds if builds else 0.0
    out["semiorder.ideals_scanned"] = trace["ideals_scanned"]
    out["convex.scan_s"] = scan_ns / 1e9
    out["convex.bfs_calls"] = bfs_in_scan
    sets = out["convex.sets_yielded"]
    out["convex.scan_useful_ratio"] = sets / bfs_in_scan if bfs_in_scan else 0.0
    for campaign in campaigns:
        out[f"verify.campaign_s.{campaign}"] = trace["campaign_s"].get(campaign, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            by_name[i] for i, n in enumerate(names) if n.split(".")[0] == layer
        ) / 1e9
    return out


def total_self_ns(trace: dict) -> int:
    return sum(self_times(trace))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s") or ".campaign_s." in metric:
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
