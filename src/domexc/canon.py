"""Canonical forms, isomorphism tests, and induced pattern search.

canonical_key is the one identity of a graph, at every order up to 64
vertices. Up to CANON_CAP (12) its bits are the lexicographically
smallest upper-triangle adjacency string over all vertex orderings,
found by a backtracking placement search (_lex_min). As in McKay and
Piperno's search (Practical graph isomorphism II, 2014), the placed
prefix is an ordered partition into cells of interchangeable vertices,
so the orders within a cell are never searched apart. Only candidates
whose block against the cells is minimal are extended, and a subtree is
cut once its block prefix exceeds the best string so far. A leaf that
ties the best string gives an automorphism. The search unwinds to where
the two paths part when that automorphism maps one branch onto the other
and fixes the cells there; no automorphism is kept. Of two unplaced
twins only one is tried, as swapping them is an automorphism.

Above CANON_CAP the key's bits are the triangle bits of the lex-max
labelling, whose neighbour rows, read in turn with column 0 first and 1
beating 0, form the largest string. _lex_max_prefix is Read's orderly
test for it (Every one a winner, 1978), searched over cells with tie
unwinding as above and pruned by the orbits of the ties it finds; the
catalog generators run it on partial graphs. _lex_max_rows climbs to a
graph's lex-max rows: it starts from a greedy labelling and relabels by
the greedy completion of each prefix the exact test rejects, until the
test accepts. The exact tests of one key stop after MATCH_BUDGET search
nodes with MatchBudgetError (a ValueError). are_isomorphic compares
degree sequences, then keys. tree_key is a public AHU-style key for
trees of any supported order; tree enumeration no longer uses it.

iter_induced_copies is the one enumerator of induced copies of a
pattern of order at most PATTERN_CAP, and builds no graph per vertex
set. A colex search over the vertex sets cuts on the pattern's edge,
non-edge and degree bounds, so an edgeless pattern becomes an
independent-set search and a complete one a clique search. A set that
survives is tested by degree sequence and then by key. Keys come from a
shape dict, which maps a labelled graph's (order, triangle bits) to its
IsoKey; the pattern's own key is looked up there too. Each call makes a
fresh dict unless the caller passes one, and the caller's dict lives no
longer than the caller's own work: excellence.excellent_family shares
one across the copy passes of a single family, filled from its candidate
closure. So catalog._GENERATED stays the package's only cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph6 import encode_bits, from_triangle_bits, triangle_bits
from .graphs import Graph, _trusted, iter_bits

CANON_CAP = 12
PATTERN_CAP = 8
MATCH_BUDGET = 1 << 16  # exact-test search nodes per key above CANON_CAP


@dataclass(frozen=True, order=True)
class IsoKey:
    """Canonical identity of a graph: order plus packed adjacency bits.

    bits holds the canonical adjacency matrix in the graph6 triangle
    layout (see graph6.triangle_bits): the lex-min labelling's up to
    CANON_CAP, the lex-max labelling's above it. Equal keys mean
    isomorphic graphs and vice versa, at every order.
    """

    n: int
    bits: int

    def graph(self) -> Graph:
        """Reconstruct the canonical representative."""
        return from_triangle_bits(self.n, self.bits)

    def graph6(self) -> str:
        return encode_bits(self.n, self.bits)


def _twin_classes(g: Graph) -> list[int]:
    """twin_class[v] == twin_class[u] when swapping u, v is an automorphism."""
    buckets: dict[tuple, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(("open", g.adj[v]), []).append(v)
        buckets.setdefault(("closed", g.adj[v] | (1 << v)), []).append(v)
    cls = list(range(g.n))
    for members in buckets.values():
        root = min(cls[v] for v in members)
        for v in members:
            cls[v] = root
    return cls


def _lex_min(g: Graph) -> int:
    """Lex-min adjacency bits of g.

    The bits are built here, block by block, in the graph6 triangle
    layout: the block at depth d holds the adjacency of the vertex placed
    at d to those placed before it, first placed vertex most significant.
    A cell holds placed vertices with the same neighbours among earlier
    cells, pairwise all adjacent or all not. A candidate's block puts its
    non-neighbours first in each cell, the least block any order of the
    cells gives; placing it splits each cell into those, then the rest.
    Candidates go from the highest index down, and one interchangeable
    with the last cell joins it only below every member, so each such set
    is reached once; any other opens a new cell. A tie's automorphism is
    read off the two leaves' cells, each in placement order, and is not
    kept. To unwind it must also fix the cells where the paths part: the
    join and twin rules read labels, so the search tree depends on them.
    """
    n = g.n
    adj = g.adj
    twins = _twin_classes(g)
    path = [0] * n  # path[d]: the vertex placed at depth d
    blocks = [0] * n
    node_cells: list[list[int]] = [[]] * n  # node_cells[d]: the cells of the node at depth d
    best_blocks: list[int] = []
    best_path: list[int] = []
    best_flat: list[int] = []

    def flat(cells: list[int]) -> list[int]:
        return [v for cell in cells for v in path if cell >> v & 1]

    def fixes(perm: list[int], cells: list[int]) -> bool:
        return all(cell >> perm[v] & 1 for cell in cells for v in iter_bits(cell))

    def place(depth: int, placed: int, cells: list[int], unplaced: list[int], tight: bool) -> int:
        """Search below a placed prefix; returns the depth to resume at.

        tight means blocks[:depth] equals best_blocks[:depth]; otherwise
        the prefix is strictly smaller or no leaf exists yet. A return
        value below depth unwinds the recursion to the node at that depth.
        """
        nonlocal best_blocks, best_path, best_flat
        if depth == n:
            if not tight:
                best_blocks, best_path, best_flat = blocks.copy(), path.copy(), flat(cells)
                return n
            # a tie: best_flat[i] -> flat(cells)[i] preserves every adjacency
            perm = [b for _, b in sorted(zip(best_flat, flat(cells)))]
            # the subtree below this path's vertex at the parting depth f
            # mirrors best's, already searched, when perm maps best's
            # vertex there onto this one and fixes the cells of node f
            f = next(d for d in range(n) if best_path[d] != path[d])
            return f if perm[best_path[f]] == path[f] and fixes(perm, node_cells[f]) else n
        node_cells[depth] = cells
        rows = []
        for c in unplaced:
            row = 0
            for cell in cells:
                row = row << cell.bit_count() | (1 << (adj[c] & cell).bit_count()) - 1
            rows.append(row)
        low = min(rows)
        if tight:
            if low > best_blocks[depth]:
                return n
            tight = low == best_blocks[depth]
        blocks[depth] = low
        joining: tuple[int, ...] = ()  # placed rows interchangeable with the last cell
        if depth:
            last, m = cells[-1], path[depth - 1]  # m, the last placed, is the cell's least
            tie, bit = adj[m] & placed, 1 << m
            joining = (tie, tie | bit) if last == bit else (tie | bit if tie & last else tie,)
        seen_twins: set[int] = set()
        for k, c in enumerate(unplaced):
            if rows[k] != low or twins[c] in seen_twins:
                continue
            joins = adj[c] & placed in joining
            if joins and c > m:
                # reached with the cell's members added in decreasing order;
                # c's lower twins mirror that set
                seen_twins.add(twins[c])
                continue
            seen_twins.add(twins[c])
            path[depth] = c
            if joins:
                child = cells[:-1] + [last | 1 << c]
            else:
                child = [part for cell in cells for part in (cell & ~adj[c], cell & adj[c]) if part]
                child.append(1 << c)
            back = place(depth + 1, placed | 1 << c, child, [v for v in unplaced if v != c], tight)
            if back < depth:
                return back
            # a leaf below c now shares blocks[:depth + 1]
            tight = True
        return n

    place(0, 0, [], list(range(n - 1, -1, -1)), False)
    bits = 0
    for depth, block in enumerate(best_blocks):
        bits = bits << depth | block
    return bits


class MatchBudgetError(ValueError):
    """A graph above CANON_CAP spent MATCH_BUDGET exact-test nodes on its canonical key."""


def _lex_max_prefix(rows: list[int], v: int, budget: list[int] | None = None) -> bool | list[int]:
    """True, or a prefix of a relabelling that makes rows 0..v lexicographically larger.

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
    unwinds to that position. At v = n - 1 this is the exact lex-max test,
    and there each such tie is also kept: once a candidate has been
    searched, every candidate the kept ties that fix the prefix map it to
    is skipped, as its subtree mirrors the searched one.

    On rejection the vertices placed at positions 0..i, the last one the
    x whose row i is larger, are returned: any completion of them that
    keeps drawing from the first cell ties rows 0..i-1 and beats row i.
    budget, when given, is a one-item list of the search nodes left, which
    calls may share; MatchBudgetError is raised once it is spent.
    """
    n = len(rows)
    decided = (1 << v + 1) - 1
    order = [0] * (v + 1)
    # ties[k][w]: the image of w; kept by the exact test only, as the partial
    # tests of the orderly generators tie often and gain less than it costs
    ties: list[list[int]] = []

    def place(i: int, cells: list[int]) -> int:
        """Search below a tied prefix; -1 rejects, a depth below i unwinds."""
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise MatchBudgetError(
                    f"isomorphism test on order {n} exceeded {MATCH_BUDGET} search nodes"
                )
        if i > v:
            # resume where this tie parts from the identity, searched first
            back = next((j for j, x in enumerate(order) if x != j), i)
            if back < i and v == n - 1:
                ties.append(order.copy())
            return back
        target = rows[i] >> i + 1 << i + 1
        cand = cells[0] & decided
        done = 0  # the candidates searched here, closed under the ties fixing the prefix
        while cand:
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
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
                    order[i] = x
                    del order[i + 1 :]
                    return -1
                continue
            order[i] = x
            split = [part for cell in rest for part in (cell & nbrs, cell & ~nbrs) if part]
            back = place(i + 1, split)
            if back < i:
                return back
            done |= low
            if ties:
                fixing = [a for a in ties if all(a[w] == w for w in order[:i])]
                grown = done
                while grown:
                    image = 0
                    for a in fixing:
                        for w in iter_bits(grown):
                            image |= 1 << a[w]
                    grown = image & ~done
                    done |= grown
                cand &= ~done
        return i

    return place(0, [(1 << n) - 1]) >= 0 or order


def _greedy_order(rows: tuple[int, ...], prefix: list[int]) -> list[int]:
    """A relabelling that starts with prefix, completed greedily.

    Each position takes a vertex x of the first cell of _lex_max_prefix's
    ordered partition, whose cells then split into x's neighbours and the
    rest. Past the prefix, x is the first vertex of that cell with the
    largest row by the test's rule. That row puts x's neighbours first in
    each cell, so rows compare as their lists of neighbour counts per cell.
    """
    order = []
    cells = [(1 << len(rows)) - 1]
    for i in range(len(rows)):
        if i < len(prefix):
            x = prefix[i]
        else:
            x = max(iter_bits(cells[0]), key=lambda y: [(c & rows[y]).bit_count() for c in cells])
        order.append(x)
        nbrs = rows[x]
        rest = (cells[0] & ~(1 << x), *cells[1:])
        cells = [part for cell in rest for part in (cell & nbrs, cell & ~nbrs) if part]
    return order


def _lex_max_rows(g: Graph) -> tuple[int, ...]:
    """g's neighbour rows in its lex-max labelling, the identity of its class.

    The rows are climbed to. The greedy relabelling (_greedy_order) is a
    start; while the exact test rejects, the greedy completion of its
    rejecting prefix ties the rows before the prefix's last position and
    beats the row there, so each step strictly raises the row string, and
    the loop ends only once the exact test certifies the labelling. The
    exact tests share MATCH_BUDGET search nodes.
    """
    budget = [MATCH_BUDGET]
    prefix: list[int] | bool = []
    while prefix is not True:
        g = g.relabel(_greedy_order(g.adj, prefix))
        prefix = _lex_max_prefix(list(g.adj), g.n - 1, budget)
    return g.adj


def canonical_key(g: Graph) -> IsoKey:
    """Canonical key for g at every order.

    Up to CANON_CAP the bits are the lex-min adjacency (_lex_min); above
    it they are the triangle bits of the lex-max labelling (_lex_max_rows),
    which may raise MatchBudgetError.
    """
    if g.n <= CANON_CAP:
        return IsoKey(g.n, _lex_min(g))
    return IsoKey(g.n, triangle_bits(_trusted(g.n, _lex_max_rows(g))))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test at every order: equal degree sequences, then canonical keys."""
    return g.degree_sequence() == h.degree_sequence() and canonical_key(g) == canonical_key(h)


def induced_copies(g: Graph, pattern: Graph) -> list[int]:
    """Vertex masks of all induced subgraphs of g isomorphic to pattern.

    Masks come in ascending order. Pattern order is capped at 8; the
    host graph may use the full capacity.
    """
    return list(iter_induced_copies(g, pattern))


def check_pattern_order(p: int) -> None:
    """Raise ValueError when a pattern of order p exceeds PATTERN_CAP."""
    if p > PATTERN_CAP:
        raise ValueError(f"pattern order {p} exceeds the cap {PATTERN_CAP}")


def iter_induced_copies(g: Graph, pattern: Graph, *, shapes: dict | None = None):
    """Yield the masks of g's induced copies of pattern lazily, ascending.

    The p-sets of g are searched depth first in colex order: vertices
    are picked from the top down, and the candidates at each level are
    tried in ascending order, so the masks come out ascending as they
    are found. A partial set is cut when it has more edges or more
    non-edges than the pattern, or a new vertex of degree above the
    pattern's maximum degree. A spent edge budget keeps only
    non-neighbours of the set as candidates and a spent non-edge budget
    only common neighbours, which makes E_p an independent-set search
    and K_p a clique search. A full set of an edgeless or complete
    pattern is a copy. Any other full set must have the pattern's degree
    sequence, and then its labelled adjacency, vertices in index order,
    must have the pattern's canonical key.

    shapes maps (order, triangle bits) of a labelled graph to its IsoKey;
    the pattern's key and every full set's key are read from it and the
    ones missing are added, so each labelled shape is keyed once for as
    long as the dict lives. The default is a fresh dict for this call.
    """
    p = pattern.n
    check_pattern_order(p)
    if p == 0:
        yield 0
        return
    adj = g.adj
    edges = pattern.edge_count()
    spare = p * (p - 1) // 2 - edges  # the pattern's non-edges
    top = pattern.max_degree()
    pat_seq = pattern.degree_sequence()
    if shapes is None:
        shapes = {}

    def key_of(bits: int) -> IsoKey:
        key = shapes.get((p, bits))
        if key is None:
            key = shapes[p, bits] = canonical_key(from_triangle_bits(p, bits))
        return key

    pat_key = None if edges == 0 or spare == 0 else key_of(triangle_bits(pattern))

    def matches(mask: int) -> bool:
        verts = []
        seq = []
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            verts.append(v)
            seq.append((adj[v] & mask).bit_count())
            rest ^= low
        seq.sort(reverse=True)
        if tuple(seq) != pat_seq:
            return False
        bits = 0  # the labelled adjacency, in the graph6 triangle layout
        for i, v in enumerate(verts):
            row = adj[v]
            for u in verts[:i]:
                bits = bits << 1 | (row >> u & 1)
        return key_of(bits) == pat_key

    yield from _colex_copies(adj, g.n, p, edges, spare, top, None if pat_key is None else matches)


def _colex_copies(adj, n, p, edges, spare, top, matches):
    """Induced p-sets within the budgets that pass matches (None: all), ascending.

    The search is iterative, so the masks stream out as they are found.
    Level i holds the set of the first i picks, its edge count, the union
    and the intersection of its members' neighbourhoods, and the
    candidates left for the next pick, all below the last one.
    """
    subs, counts, nears, commons, cands = [0] * p, [0] * p, [0] * p, [0] * p, [0] * p
    commons[0] = (1 << n) - 1
    cands[0] = commons[0] & -(1 << (p - 1))
    level = 0
    while level >= 0:
        cand = cands[level]
        if not cand:
            level -= 1
            continue
        low = cand & -cand
        cands[level] = cand ^ low
        w = low.bit_length() - 1
        sub = subs[level]
        d = (adj[w] & sub).bit_count()
        e = counts[level] + d
        if d > top or e > edges or level * (level + 1) // 2 - e > spare:
            continue
        mask = sub | low
        size = level + 1
        if size == p:
            if matches is None or matches(mask):
                yield mask
            continue
        near, common = nears[level] | adj[w], commons[level] & adj[w]
        need = p - size
        pool = low - 1
        if e == edges:
            pool &= ~near
        if size * (size - 1) // 2 - e == spare:
            pool &= common
        if pool.bit_count() < need:
            continue
        level += 1
        subs[level], counts[level], nears[level], commons[level] = mask, e, near, common
        # each candidate leaves room below it for the picks after it
        cands[level] = pool & -(1 << (need - 1))


@dataclass(frozen=True, order=True)
class TreeKey:
    """Canonical identity of a tree of any supported order."""

    n: int
    code: str


def _ahu(g: Graph, root: int, parent: int, down: int) -> str:
    kids = sorted(
        _ahu(g, u, root, down) for u in iter_bits(g.adj[root] & down) if u != parent
    )
    return "(" + "".join(kids) + ")"


def tree_key(t: Graph) -> TreeKey:
    """AHU-style canonical key, rooted at the center; trees only."""
    if not t.is_tree():
        raise ValueError("tree_key requires a tree")
    if t.n == 1:
        return TreeKey(1, "()")
    # peel leaves to find the one or two center vertices
    alive = t.full_mask
    degs = list(t.degrees())
    while alive.bit_count() > 2:
        drop = [v for v in iter_bits(alive) if degs[v] <= 1]
        for v in drop:
            alive &= ~(1 << v)
            for u in iter_bits(t.adj[v] & alive):
                degs[u] -= 1
    centers = list(iter_bits(alive))
    if len(centers) == 1:
        return TreeKey(t.n, "c" + _ahu(t, centers[0], -1, t.full_mask))
    a, b = centers
    side_a = t.reach(1 << a, t.full_mask & ~(1 << b))
    side_b = t.full_mask & ~side_a
    codes = sorted((_ahu(t, a, -1, side_a), _ahu(t, b, -1, side_b)))
    return TreeKey(t.n, "e" + codes[0] + codes[1])
