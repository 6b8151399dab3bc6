"""Isomorph-free graph catalogs and predicate search.

Builds exhaustive catalogs with one representative per isomorphism
class, reads and writes graph6 catalog files with a JSON metadata
sidecar, and filters catalogs by domination-style queries. All graphs of
small order are grown one vertex at a time from the order below, and a
canon.ClassIndex keeps the first graph of each class; a loaded file is
deduplicated the same way. Regular graphs are generated orderly: each
row is a plain combination of later vertices, and a row-by-row lex-max
test prunes every labelled graph but one per class before it is built,
so no index is needed there. That test's only symmetry pruning is tie
unwinding; it keeps no automorphisms and prunes no orbits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .canon import CANON_CAP, ClassIndex, IsoKey, _find, automorphisms, canonical_key
from .domination import PARAM_IDS, Param, ParameterUndefinedError, ParamResult, min_sets
from .excellence import FamilyResult, excellent_family, is_excellent, is_pattern_excellent
from .graph6 import parse_lines, to_graph6, triangle_bits
from .graphs import Graph, edgeless, iter_bits

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


def _sorted_catalog(source: str, graphs, warnings=()) -> Catalog:
    """Catalog of isomorph-free graphs in key order; each graph is keyed once.

    The key is canonical_key up to order CANON_CAP. Above it the key is
    IsoKey(n, triangle_bits(g)) of the labelled adjacency, which only sorts.
    """
    keys = [canonical_key(g) if g.n <= CANON_CAP else IsoKey(g.n, triangle_bits(g)) for g in graphs]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return Catalog(
        source, tuple(graphs[i] for i in order), tuple(keys[i] for i in order), tuple(warnings)
    )


def _orbit_minima(g: Graph) -> list[int]:
    """Neighbourhood masks for a new vertex, in increasing order.

    Keeps the smallest mask of each orbit under the group generated by
    automorphisms(g).
    """
    size = 1 << g.n
    root = list(range(size))
    image = [0] * size
    for perm in automorphisms(g):
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
            a, b = _find(root, mask), _find(root, image[mask])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [mask for mask in range(size) if root[mask] == mask]


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[Graph, ...]:
    """One representative per class of order n, first seen first.

    Each class on n vertices extends some class on n - 1 (delete any
    vertex), so attaching a new vertex to every representative of the
    level below in every way and deduplicating through a ClassIndex is
    exhaustive. Neighbourhoods that an automorphism of the representative
    maps onto a smaller one are skipped: they give a graph isomorphic to
    one built earlier from the same representative, so the first graph
    seen in each class, the one kept, stays the same. Each level is built
    once per process, from the level below it.
    """
    if n == 1:
        return (edgeless(1),)
    index = ClassIndex()
    for g in _level(n - 1):
        for nbrs in _orbit_minima(g):
            index.add(g.with_vertex(nbrs))
    return tuple(index.graphs)


def generate_all_graphs(n: int, connected_only: bool = False) -> Catalog:
    """Every graph of order n up to isomorphism, grown order by order.

    Capped at order 7.
    """
    if not 1 <= n <= ALL_GRAPHS_CAP:
        raise ValueError(f"order must be between 1 and {ALL_GRAPHS_CAP}")
    level = _level(n)
    if connected_only:
        level = [g for g in level if g.is_connected()]
    src = f"generated:all:n={n}:connected={str(connected_only).lower()}"
    return _sorted_catalog(src, level)


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


def _lex_max_prefix(rows: list[int], v: int) -> bool:
    """False when some relabelling makes rows 0..v lexicographically larger.

    rows[w] is the neighbour mask of w. Rows 0..v are complete, so every
    row's adjacency to vertices 0..v is known too. A row is read as a bit
    string, column 0 first, and 1 beats 0. Position i of a relabelling
    takes a decided vertex x from the first cell of an ordered partition
    of the unplaced vertices. Its new row puts x's neighbours first within
    each cell, the largest row any refinement of the partition gives it,
    and each cell then splits into x's neighbours and the rest. Columns
    before i agree by symmetry, so the row is compared from column i on:
    a larger row rejects, a smaller one ends the branch, an equal one goes
    on. The identity is searched first. A relabelling that ties on rows
    0..v is an automorphism of the decided part; it maps the identity's
    branch at the first position where the two part onto the tie's branch
    there, and the identity's branch was searched first, so the search
    unwinds to that position. That tie unwinding is the only symmetry
    pruning: automorphisms are not kept, and no sibling is skipped by
    orbit. At v = n - 1 this is the exact lex-max test.
    """
    n = len(rows)
    decided = (1 << v + 1) - 1
    order = [0] * (v + 1)

    def place(i: int, cells: list[int]) -> int:
        """Search below a tied prefix; -1 rejects, a depth below i unwinds."""
        if i > v:
            # resume where this tie parts from the identity, searched first
            return next((j for j, x in enumerate(order) if x != j), i)
        target = rows[i] >> i + 1 << i + 1
        for x in iter_bits(cells[0] & decided):
            nbrs = rows[x]
            rest = [cells[0] & ~(1 << x), *cells[1:]]
            row = 0
            start = i + 1
            for cell in rest:
                row |= (1 << (cell & nbrs).bit_count()) - 1 << start
                start += cell.bit_count()
            diff = row ^ target
            if diff:
                if row & diff & -diff:
                    return -1
                continue
            order[i] = x
            split = [part for cell in rest for part in (cell & nbrs, cell & ~nbrs) if part]
            back = place(i + 1, split)
            if back < i:
                return back
        return i

    return place(0, [(1 << n) - 1]) >= 0


def generate_regular(n: int, k: int, connected_only: bool = False) -> Catalog:
    """Every k-regular graph of order n up to isomorphism.

    An orderly generator (Meringer, Fast generation of regular graphs and
    construction of cages, 1999). Neighbour rows are filled vertex by
    vertex. Row v is a plain combination of the later vertices with degree
    left, taken in decreasing lex order. Once row v is fixed, the partial
    graph goes on only if no relabelling makes rows 0..v lexicographically
    larger (_lex_max_prefix); that also rejects a row which only swaps
    interchangeable later columns of a larger one. The test unwinds at
    each relabelling that ties, and prunes no orbits. The lex-max labelling
    of each class passes every such test, and at the last row the test is
    exact, so each leaf is the lex-max labelling of a new class: the first
    of its class the search would complete. One Graph is built per class,
    and the catalog keys only those. An Erdos-Gallai check prunes branches
    whose residual degrees have no realization.
    """
    if not 0 <= k < n <= REGULAR_CAP:
        raise ValueError(f"need 0 <= degree < order <= {REGULAR_CAP}")
    if n * k % 2:
        raise ValueError("order times degree must be even")
    graphs: list[Graph] = []
    rows = [0] * n
    res = [k] * n

    def extend(v: int):
        if v and not _lex_max_prefix(rows, v - 1):
            return
        if v == n:
            g = Graph(n, tuple(rows))
            if not connected_only or g.is_connected():
                graphs.append(g)
            return
        later = [w for w in range(v + 1, n) if res[w] > 0]
        for chosen in combinations(later, res[v]):
            for w in chosen:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
                res[w] -= 1
            if _residual_realizable(res[v + 1 :]):
                extend(v + 1)
            for w in chosen:
                rows[v] &= ~(1 << w)
                rows[w] &= ~(1 << v)
                res[w] += 1

    extend(0)
    src = f"generated:regular:n={n}:k={k}:connected={str(connected_only).lower()}"
    return _sorted_catalog(src, graphs)


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

    At every order a duplicate is a graph isomorphic to an earlier line,
    found through a ClassIndex; the first line of each class is kept.
    Above order CANON_CAP the catalog key of a kept graph is its labelled
    IsoKey(n, triangle_bits(g)), which only sorts the lines. The file is
    decoded as latin-1, so a byte outside graph6's range is reported as a
    Graph6Error naming its line, the first bad line stopping the load.
    """
    p = Path(path)
    index = ClassIndex()
    first_line: list[int] = []
    warnings = []
    for lineno, item in parse_lines(p.read_text(encoding="latin-1")):
        if isinstance(item, Exception):
            raise type(item)(f"line {lineno}: {item}")
        pos = index.add(item)
        if pos < len(first_line):
            warnings.append(f"line {lineno} duplicates line {first_line[pos]} up to isomorphism")
        else:
            first_line.append(lineno)
    return _sorted_catalog(f"file:{p}", index.graphs, warnings)


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
