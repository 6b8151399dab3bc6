"""Spans and counts at the package's layer boundaries, from outside it.

`install` wraps public functions of the `domexc` modules. The modules
import each other's functions by name (`from .canon import
canonical_key`), so a wrapper is bound at every module attribute that
holds the original, not only at the defining module. Each call becomes
a span (name, start, end, parent); a generator's span covers only the
time spent inside one `next`, so its consumer's work is not billed to
it. Spans live in flat arrays until the run ends, and `layer_metrics`
turns them into the per-layer figures: self time is a span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name or None when it depends on arguments, kind)
TARGETS = [
    ("canon", "canonical_key", "canon.key", "call"),
    ("canon", "tree_key", "canon.tree_key", "call"),
    ("canon", "iter_induced_copies", "canon.copies", "gen"),
    ("catalog", "generate_all_graphs", "catalog.gen", "call"),
    ("catalog", "generate_regular", "catalog.gen", "call"),
    ("catalog", "search", "catalog.search", "call"),
    ("trees", "enumerate_trees", "trees.enumerate", "call"),
    ("excellence", "excellent_family", "excellence.family", "call"),
    ("excellence", "is_pattern_excellent", "excellence.pattern", "call"),
    ("domination", "min_sets", None, "call"),
    ("domination", "param_value", None, "call"),
    ("graph6", "from_graph6", "graph6.parse", "call"),
    ("graph6", "to_graph6", "graph6.encode", "call"),
    ("claims", "run_claim", None, "call"),
]

PARAM_IDS = ("gamma", "i", "beta0", "gamma_t", "gamma_r", "gamma_oc", "gamma_tr", "gamma_t_oc")

# catalog builds billed to `claims.catalog_build_s`, not to the claim
BUILD_SPANS = ("catalog.gen", "trees.enumerate")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _span_name(attr, args, kwargs):
    if attr == "min_sets":
        return "domination.min_sets/" + _arg(args, kwargs, 1, "param").id
    if attr == "param_value":
        return "domination.value/" + _arg(args, kwargs, 1, "param").id
    return "claims." + _arg(args, kwargs, 0, "claim_id")


class Tracer:
    """In-memory span recorder; spans nest by a stack of open indices."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter = Counter()
        self._trees_seen: set = set()

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    def observe(self, attr, args, kwargs, result) -> None:
        """Counts read off a layer's result at its boundary."""
        if attr in ("generate_all_graphs", "generate_regular"):
            self.counts["catalog.classes"] += len(result)
        elif attr == "enumerate_trees":
            n = _arg(args, kwargs, 0, "n")
            if n not in self._trees_seen:
                self._trees_seen.add(n)
                self.counts["trees.kept"] += len(result)
        elif attr == "excellent_family":
            self.counts["excellence.members"] += len(result.members)
        elif attr == "min_sets":
            self.counts["domination.sets_returned"] += len(result.sets)

    def wrap_call(self, fn, attr, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name or _span_name(attr, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            self.observe(attr, args, kwargs, result)
            return result

        return traced

    def wrap_gen(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + "_calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave(idx)
                    self.counts[name + "_yielded"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def dump(self, path) -> None:
        """Write spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


def install(tracer: Tracer):
    """Bind wrappers everywhere the originals are bound; returns an undo list."""
    modules = [m for k, m in list(sys.modules.items()) if k == "domexc" or k.startswith("domexc.")]
    undo = []
    for modname, attr, name, kind in TARGETS:
        try:
            mod = importlib.import_module(f"domexc.{modname}")
        except ImportError:
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            continue
        if kind == "gen":
            wrapper = tracer.wrap_gen(orig, name)
        else:
            wrapper = tracer.wrap_call(orig, attr, name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    undo.append((m, key, orig))
    return undo


def uninstall(undo) -> None:
    for m, key, orig in reversed(undo):
        setattr(m, key, orig)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, claim_ids=()) -> dict:
    """Per-layer figures from the recorded spans and counts.

    Every `_s` figure is self time, except `claims.<id>_s` (the claim's
    span minus the catalog builds inside it) and
    `claims.catalog_build_s` (the builds' whole duration).
    """
    names, nid, parent = tracer.names, tracer.name_id, tracer.parent
    total = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(total)]
    covered = [0.0] * total
    for i in range(total):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]

    calls: Counter = Counter()
    self_s: Counter = Counter()
    max_s: Counter = Counter()
    kinds = [n.split("/")[0] for n in names]
    # nearest enclosing span of a given kind, propagated parent-first
    in_gen = [False] * total
    in_trees = [False] * total
    in_build = [False] * total
    claim_of = [-1] * total
    build_in_claim: Counter = Counter()
    keys_under = Counter()
    for i in range(total):
        name = names[nid[i]]
        kind = kinds[nid[i]]
        p = parent[i]
        calls[name] += 1
        self_s[name] += dur[i] - covered[i]
        if dur[i] > max_s[kind]:
            max_s[kind] = dur[i]
        up_gen = p >= 0 and in_gen[p]
        up_trees = p >= 0 and in_trees[p]
        up_build = p >= 0 and in_build[p]
        in_gen[i] = up_gen or kind == "catalog.gen"
        in_trees[i] = up_trees or kind == "trees.enumerate"
        in_build[i] = up_build or kind in BUILD_SPANS
        claim_of[i] = i if kind.startswith("claims.") else (claim_of[p] if p >= 0 else -1)
        if kind in BUILD_SPANS and not up_build:
            build_in_claim[claim_of[i]] += dur[i]
        if kind == "canon.key":
            if up_gen:
                keys_under["gen"] += 1
            if p >= 0 and names[nid[p]] == "excellence.family":
                keys_under["family"] += 1
                keys_under["family_s"] += dur[i]
        elif kind == "canon.tree_key" and up_trees:
            keys_under["trees"] += 1

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    c = tracer.counts
    out = {
        "canon.key_calls": calls["canon.key"],
        "canon.key_s": self_s["canon.key"],
        "canon.key_max_ms": max_s["canon.key"] * 1e3,
        "canon.tree_key_calls": calls["canon.tree_key"],
        "canon.tree_key_s": self_s["canon.tree_key"],
        "canon.copies_calls": c["canon.copies_calls"],
        "canon.copies_yielded": c["canon.copies_yielded"],
        "canon.copies_s": self_s["canon.copies"],
        "catalog.gen_calls": calls["catalog.gen"],
        "catalog.gen_self_s": self_s["catalog.gen"],
        "catalog.classes": c["catalog.classes"],
        "catalog.keys_per_class": _ratio(keys_under["gen"], c["catalog.classes"]),
        "catalog.search_s": self_s["catalog.search"],
        "trees.enumerate_s": self_s["trees.enumerate"],
        "trees.kept": c["trees.kept"],
        "trees.keys_per_tree": _ratio(keys_under["trees"], c["trees.kept"]),
        "excellence.family_calls": calls["excellence.family"],
        "excellence.family_self_s": self_s["excellence.family"],
        "excellence.candidates_keyed": keys_under["family"],
        "excellence.candidates_key_s": keys_under["family_s"],
        "excellence.members": c["excellence.members"],
        "excellence.members_per_candidate": _ratio(c["excellence.members"], keys_under["family"]),
        "excellence.pattern_calls": calls["excellence.pattern"],
        "excellence.pattern_s": self_s["excellence.pattern"],
        "domination.min_sets_calls": by_prefix(calls, "domination.min_sets/"),
        "domination.min_sets_s": by_prefix(self_s, "domination.min_sets/"),
        "domination.sets_returned": c["domination.sets_returned"],
        "domination.value_calls": by_prefix(calls, "domination.value/"),
        "domination.value_s": by_prefix(self_s, "domination.value/"),
        "domination.call_max_ms": max(max_s["domination.min_sets"], max_s["domination.value"]) * 1e3,
        "graph6.parse_calls": calls["graph6.parse"],
        "graph6.parse_s": self_s["graph6.parse"],
        "graph6.encode_calls": calls["graph6.encode"],
        "graph6.encode_s": self_s["graph6.encode"],
    }
    for pid in PARAM_IDS:
        out[f"domination.{pid}_s"] = (
            self_s[f"domination.min_sets/{pid}"] + self_s[f"domination.value/{pid}"]
        )
    claim_time: Counter = Counter()
    for i in range(total):
        if claim_of[i] == i:
            claim_time[names[nid[i]]] += dur[i] - build_in_claim[i]
    builds = sum(v for k, v in build_in_claim.items() if k >= 0)
    for cid in claim_ids:
        out[f"claims.{cid}_s"] = claim_time[f"claims.{cid}"]
    out["claims.catalog_build_s"] = builds
    return out
