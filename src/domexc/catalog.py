"""Isomorph-free graph catalogs and predicate search.

Builds exhaustive catalogs with one representative per isomorphism
class, reads and writes graph6 catalog files with a JSON metadata
sidecar, and filters catalogs by domination-style queries. All graphs of
small order and the regular graphs come from one orderly search: row v
is a mask of later vertices (every subset, or a combination with degree
left), and a row-by-row lex-max test (canon._lex_max_prefix) prunes
every labelled graph but one per class before it is built, so no index
is needed. The test of rows 0..v-1 runs only where row v has two or more
options; with one, the test below or at the leaf rejects all it would.
Each class is kept in its lex-max labelling.

Generation and presentation are apart. all_graph_classes and
regular_classes return the classes in generation order, unkeyed: the
search already proved each one the only lex-max labelling of its class,
so a caller that needs no order (a count, a property of every class)
keys nothing. generate_all_graphs and generate_regular key those classes
with canonical_key and sort them into a Catalog. Both the classes and
the full catalog are built at most once per process, per n for all
graphs and per (n, k) for regular ones; a connected list is the
connected subsequence of the full one, so a connected catalog is already
in key order. A loaded file keeps the first line of each canonical key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from pathlib import Path

from .canon import IsoKey, _lex_max_prefix, canonical_key
from .domination import PARAM_IDS, Param, ParameterUndefinedError, ParamResult, min_sets
from .excellence import FamilyResult, excellent_family, is_excellent, is_pattern_excellent
from .graph6 import parse_lines, to_graph6
from .graphs import Graph, _trusted, iter_bits

ALL_GRAPHS_CAP = 7
REGULAR_CAP = 12


@dataclass(frozen=True)
class Catalog:
    """Isomorph-free list of graphs with parallel canonical keys."""

    source: str
    graphs: tuple[Graph, ...]
    keys: tuple[IsoKey, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.graphs) != len(self.keys):
            raise ValueError("graphs and keys must run in parallel")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("catalog contains isomorphic duplicates")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


def _sorted_catalog(source: str, graphs, keys, warnings=()) -> Catalog:
    """Catalog of isomorph-free graphs and their canonical keys, in key order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return Catalog(
        source, tuple(graphs[i] for i in order), tuple(keys[i] for i in order), tuple(warnings)
    )


def _residual_realizable(res: list[int]) -> bool:
    """Erdos-Gallai test: can res be the degree sequence of some graph."""
    seq = sorted(res, reverse=True)
    total = sum(seq)
    if total % 2:
        return False
    prefix = 0
    for k in range(1, len(seq) + 1):
        prefix += seq[k - 1]
        tail = sum(min(d, k) for d in seq[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def _orderly(n: int, row_options) -> list[Graph]:
    """The lex-max labelling of every class of order n the rows allow.

    An orderly search (Read, Every one a winner, 1978; Meringer 1999).
    Neighbour rows are filled vertex by vertex: row_options(rows, v) yields
    the masks of later vertices row v may join, and rows[w] already holds
    w's neighbours among 0..v-1. Before row v is chosen, the partial graph
    goes on only if no relabelling makes rows 0..v-1 lexicographically
    larger (_lex_max_prefix). The lex-max labelling of each class passes
    every such test, and at the leaf the test of all rows is exact, so each
    leaf is the lex-max labelling of a new class, whatever order the
    options come in.

    A partial test only prunes, so it runs only where the search branches:
    when row v has two or more options (two are drawn to tell). Choosing
    row v changes only the edges from v to later vertices, so a relabelling
    that beats rows 0..v-1 also beats rows 0..v; with one option the test
    of the child, or the exact test at the leaf, rejects all the skipped
    test would, and with none there is nothing below to prune.
    One Graph is built per leaf, unchecked: the rows are symmetric and
    loop-free by construction.
    """
    graphs: list[Graph] = []
    rows = [0] * n

    def extend(v: int):
        if v == n:
            if _lex_max_prefix(rows, n - 1) is True:
                graphs.append(_trusted(n, tuple(rows)))
            return
        options = iter(row_options(rows, v))
        if v:
            # rows 0..v-1 are tested only where row v branches
            peek = list(islice(options, 2))
            if len(peek) == 2 and _lex_max_prefix(rows, v - 1) is not True:
                return
            options = chain(peek, options)
        before = rows[v]
        for mask in options:
            rows[v] = before | mask
            for w in iter_bits(mask):
                rows[w] ^= 1 << v
            extend(v + 1)
            for w in iter_bits(mask):
                rows[w] ^= 1 << v
        rows[v] = before

    extend(0)
    return graphs


# spec -> [its classes in generation order, its full Catalog once one is asked for]
_GENERATED: dict[str, list] = {}


def _classes(spec: str, n: int, row_options, connected_only: bool) -> tuple[Graph, ...]:
    """The classes spec names, generated once per process, or their connected subsequence."""
    if spec not in _GENERATED:
        _GENERATED[spec] = [tuple(_orderly(n, row_options)), None]
    classes = _GENERATED[spec][0]
    return tuple(g for g in classes if g.is_connected()) if connected_only else classes


def _catalog(spec: str, classes: tuple[Graph, ...], connected_only: bool) -> Catalog:
    """The classes of spec keyed and sorted, once per process, or its connected subsequence."""
    entry = _GENERATED[spec]
    if entry[1] is None:
        entry[1] = _sorted_catalog(
            f"generated:{spec}:connected=false", classes, [canonical_key(g) for g in classes]
        )
    full = entry[1]
    if not connected_only:
        return full
    kept = [i for i, g in enumerate(full.graphs) if g.is_connected()]
    graphs = tuple(full.graphs[i] for i in kept)
    return Catalog(f"generated:{spec}:connected=true", graphs, tuple(full.keys[i] for i in kept))


def all_graph_classes(n: int, connected_only: bool = False) -> tuple[Graph, ...]:
    """Every graph of order n up to isomorphism, in generation order, unkeyed.

    The orderly search of _orderly with every subset of the later vertices
    as a row: the multiples of 1 << v + 1 below 1 << n. Capped at order 7.
    Each class is in its lex-max labelling. The classes are generated once
    per order; the connected ones are their connected subsequence.
    """
    if not 1 <= n <= ALL_GRAPHS_CAP:
        raise ValueError(f"order must be between 1 and {ALL_GRAPHS_CAP}")
    return _classes(f"all:n={n}", n, lambda rows, v: range(0, 1 << n, 1 << v + 1), connected_only)


def regular_classes(n: int, k: int, connected_only: bool = False) -> tuple[Graph, ...]:
    """Every k-regular graph of order n up to isomorphism, in generation order, unkeyed.

    An orderly generator (Meringer, Fast generation of regular graphs and
    construction of cages, 1999), run by _orderly. Row v is a plain
    combination of the later vertices with degree left, taken in
    decreasing lex order; the prefix test also rejects a row which only
    swaps interchangeable later columns of a larger one. Each class is
    kept in its lex-max labelling, the first of its class the search would
    complete. An Erdos-Gallai check drops rows whose residual degrees have
    no realization. The classes are generated once per (n, k); the
    connected ones are their connected subsequence.
    """
    if not 0 <= k < n <= REGULAR_CAP:
        raise ValueError(f"need 0 <= degree < order <= {REGULAR_CAP}")
    if n * k % 2:
        raise ValueError("order times degree must be even")

    def degree_bounded(rows: list[int], v: int):
        res = [k - row.bit_count() for row in rows]
        later = [w for w in range(v + 1, n) if res[w] > 0]
        for chosen in combinations(later, res[v]):
            left = res[v + 1 :]
            for w in chosen:
                left[w - v - 1] -= 1
            if _residual_realizable(left):
                yield sum(1 << w for w in chosen)

    return _classes(f"regular:n={n}:k={k}", n, degree_bounded, connected_only)


def generate_all_graphs(n: int, connected_only: bool = False) -> Catalog:
    """The classes of all_graph_classes(n) as a Catalog in key order.

    Only the kept class of each isomorphism class is keyed, once per
    process per order; the connected catalog is the connected subsequence
    of the full one, already in key order.
    """
    return _catalog(f"all:n={n}", all_graph_classes(n), connected_only)


def generate_regular(n: int, k: int, connected_only: bool = False) -> Catalog:
    """The classes of regular_classes(n, k) as a Catalog in key order.

    Only the kept class of each isomorphism class is keyed, once per
    process per (n, k); the connected catalog is the connected subsequence
    of the full one, already in key order.
    """
    return _catalog(f"regular:n={n}:k={k}", regular_classes(n, k), connected_only)


def save_catalog(cat: Catalog, path) -> None:
    """Write graph6 lines plus a JSON metadata sidecar."""
    p = Path(path)
    p.write_text("".join(to_graph6(g) + "\n" for g in cat.graphs))
    meta = {
        "source": cat.source,
        "count": len(cat),
        "warnings": list(cat.warnings),
    }
    Path(str(p) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_catalog(path) -> Catalog:
    """Read a graph6 catalog file; duplicates are kept out but reported.

    Each line is keyed once by canonical_key, at every order; a line whose
    key an earlier line has is a duplicate, and the first line of each key
    is kept. The file is decoded as latin-1, so a byte outside graph6's
    range is reported as a Graph6Error naming its line, the first bad line
    stopping the load.
    """
    p = Path(path)
    first: dict[IsoKey, tuple[int, Graph]] = {}  # key -> its first line and graph
    warnings = []
    for lineno, item in parse_lines(p.read_text(encoding="latin-1")):
        if isinstance(item, Exception):
            raise type(item)(f"line {lineno}: {item}")
        key = canonical_key(item)
        if key in first:
            warnings.append(f"line {lineno} duplicates line {first[key][0]} up to isomorphism")
        else:
            first[key] = lineno, item
    return _sorted_catalog(f"file:{p}", [g for _, g in first.values()], list(first), warnings)


@dataclass(frozen=True)
class CatalogQuery:
    """Conjunctive catalog filter.

    param_values pins exact parameter values by id; excellent_for and
    pattern ask for plain or pattern excellence under pattern_param;
    regular/connected restrict structure. include_family attaches each
    match's excellent family under pattern_param to the evidence.
    """

    param_values: dict = field(default_factory=dict)
    excellent_for: str | None = None
    pattern: Graph | None = None
    pattern_param: str = "gamma"
    regular: bool | None = None
    connected: bool | None = None
    include_family: bool = False

    def __post_init__(self):
        for pid in self.param_values:
            if pid not in PARAM_IDS:
                raise ValueError(f"unknown parameter id {pid!r}")
        if self.excellent_for is not None and self.excellent_for not in PARAM_IDS:
            raise ValueError(f"unknown parameter id {self.excellent_for!r}")
        if self.pattern_param not in PARAM_IDS:
            raise ValueError(f"unknown parameter id {self.pattern_param!r}")


@dataclass(frozen=True)
class SearchMatch:
    index: int
    graph: Graph
    key: IsoKey
    values: dict
    family: FamilyResult | None = None


def search(cat: Catalog, query: CatalogQuery) -> list[SearchMatch]:
    """Catalog entries satisfying every clause of the query.

    Each parameter is solved at most once per graph. A graph on which a
    queried parameter is undefined does not match.
    """
    out = []
    for idx, (g, key) in enumerate(zip(cat.graphs, cat.keys)):
        if query.regular is not None and g.is_regular() != query.regular:
            continue
        if query.connected is not None and g.is_connected() != query.connected:
            continue
        results: dict[str, ParamResult] = {}

        def solve(pid: str) -> ParamResult:
            if pid not in results:
                results[pid] = min_sets(g, Param.from_id(pid))
            return results[pid]

        try:
            if any(solve(pid).value != want for pid, want in query.param_values.items()):
                continue
            if query.excellent_for is not None:
                par = Param.from_id(query.excellent_for)
                if not is_excellent(g, par, result=solve(par.id)):
                    continue
            if query.pattern is not None:
                par = Param.from_id(query.pattern_param)
                if not is_pattern_excellent(g, query.pattern, par, result=solve(par.id)):
                    continue
            # values cover the clauses, not a parameter only the family needs
            values = {pid: res.value for pid, res in results.items()}
            family = None
            if query.include_family:
                par = Param.from_id(query.pattern_param)
                family = excellent_family(g, par, result=solve(par.id))
        except ParameterUndefinedError:
            continue
        out.append(SearchMatch(idx, g, key, values, family))
    return out
