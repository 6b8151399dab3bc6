"""Small simple graphs stored as fixed-capacity adjacency bitsets.

Vertices are integers 0..n-1. Vertex sets are plain Python ints used as
bitmasks, so set algebra is bitwise arithmetic and membership is a shift.
Capacity is 64 vertices, enough for every workload this package targets.
Graphs are immutable; every editing operation returns a new Graph.
"""

from __future__ import annotations

from dataclasses import dataclass

CAPACITY = 64


class CapacityError(ValueError):
    """Raised when a construction would exceed the 64-vertex capacity."""


def iter_bits(mask: int):
    """Yield the set bit positions of mask in increasing order.

    mask must be non-negative: a negative int has infinitely many set
    bits and the loop never ends. It is not checked here, in the hot loop
    of every search; set_of checks it.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> tuple[int, ...]:
    """Unpack a non-negative bitmask into a sorted tuple of vertex indices."""
    if mask < 0:
        raise ValueError(f"negative vertex mask {mask}")
    return tuple(iter_bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adj[v] is the open neighborhood of v as a bitmask. Graph(n, adj)
    validates it: symmetric, loop-free, within capacity. Graphs derived
    from a valid one (induced subgraphs, edits, complements, relabellings)
    and the generators' leaves are valid by construction and skip the
    scan; only their order is checked against the capacity.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for order {self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} adjacent to out-of-range vertex")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted descending."""
        return tuple(sorted(self.degrees(), reverse=True))

    def closed_nb(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def non_edges(self) -> list[tuple[int, int]]:
        full = self.full_mask
        return [
            (u, v)
            for u in range(self.n)
            for v in iter_bits(full & ~self.closed_nb(u))
            if u < v
        ]

    def isolated_vertices(self) -> int:
        """Bitmask of degree-zero vertices."""
        return mask_of(v for v in range(self.n) if not self.adj[v])

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def is_regular(self, k: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        if k is None:
            return True
        return not degs if self.n == 0 else degs == {k}

    def reach(self, start_mask: int, within: int | None = None) -> int:
        """Vertices reachable from start_mask staying inside `within`."""
        allowed = self.full_mask if within is None else within
        seen = start_mask & allowed
        frontier = seen
        # once everything allowed is seen the last frontier adds nothing
        while frontier and seen != allowed:
            grow = 0
            for v in iter_bits(frontier):
                grow |= self.adj[v]
            frontier = grow & allowed & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        """The 0-vertex graph counts as connected."""
        if self.n == 0:
            return True
        return self.reach(1) == self.full_mask

    def connected_within(self, mask: int) -> bool:
        """Whether the induced subgraph on mask is connected (empty: yes)."""
        if mask == 0:
            return True
        start = mask & -mask
        return self.reach(start, mask) == mask

    def components(self) -> list[int]:
        """Connected component masks, ordered by smallest member."""
        out = []
        left = self.full_mask
        while left:
            start = left & -left
            comp = self.reach(start, left)
            out.append(comp)
            left &= ~comp
        return out

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and self.edge_count() == self.n - 1

    # -- derived graphs ---------------------------------------------------

    def induced(self, mask: int) -> "Graph":
        """Induced subgraph on mask, vertices renumbered in index order."""
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"vertex mask {mask:#x} outside 0..{self.full_mask:#x}")
        rows = _induced_rows(self.adj, mask)
        return _trusted(len(rows), rows)

    def delete_vertex(self, v: int) -> "Graph":
        """The graph without v; the vertices above v move down by one."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        # each row keeps its bits below v and shifts those above v down over it
        low = (1 << v) - 1
        rows = self.adj[:v] + self.adj[v + 1 :]
        return _trusted(self.n - 1, tuple(row & low | row >> 1 & ~low for row in rows))

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or self.has_edge(u, v):
            raise ValueError(f"cannot add edge ({u},{v})")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return _trusted(self.n, tuple(rows))

    def with_vertex(self, nbr_mask: int) -> "Graph":
        """Append vertex n adjacent to nbr_mask."""
        if nbr_mask & ~self.full_mask:
            raise ValueError("neighbor mask outside existing vertices")
        rows = [row | ((nbr_mask >> v & 1) << self.n) for v, row in enumerate(self.adj)]
        rows.append(nbr_mask)
        return _trusted(self.n + 1, tuple(rows))

    def complement(self) -> "Graph":
        full = self.full_mask
        return _trusted(self.n, tuple(full & ~self.closed_nb(v) for v in range(self.n)))

    def relabel(self, order) -> "Graph":
        """Relabel so that old vertex order[i] becomes new vertex i."""
        order = list(order)
        if sorted(order) != list(range(self.n)):
            raise ValueError("relabel order must be a permutation of the vertices")
        pos = {v: i for i, v in enumerate(order)}
        rows = [0] * self.n
        for v, row in enumerate(self.adj):
            for u in iter_bits(row):
                rows[pos[v]] |= 1 << pos[u]
        return _trusted(self.n, tuple(rows))


def _check_order(n: int) -> None:
    if not 0 <= n <= CAPACITY:
        raise CapacityError(f"order {n} outside supported range 0..{CAPACITY}")


def _induced_rows(adj: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The rows of the subgraph adj induces on mask, vertices renumbered in index order.

    A neighbour u of a kept vertex moves to position popcount(mask below u).
    mask must be a non-negative submask of the vertices; Graph.induced
    checks it.
    """
    rows = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = adj[low.bit_length() - 1] & mask
        row = 0
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            row |= 1 << (mask & bit - 1).bit_count()
        rows.append(row)
    return tuple(rows)


def _trusted(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph from rows valid by construction: only the order is checked.

    For the package's own builders, whose rows come symmetric, loop-free
    and in range from a valid graph or a generator; everything else goes
    through Graph(n, rows).
    """
    _check_order(n)
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an edge list over vertices 0..n-1."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- named constructors ---------------------------------------------------


def edgeless(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes) -> Graph:
    """Parts in the order given; part vertices occupy consecutive indices."""
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    part_masks = []
    at = 0
    for s in sizes:
        part_masks.append(((1 << s) - 1) << at)
        at += s
    full = (1 << n) - 1
    rows = []
    for pm in part_masks:
        for _ in range(pm.bit_count()):
            rows.append(full & ~pm)
    return Graph(n, tuple(rows))


def disjoint_union(parts) -> Graph:
    """Vertices of each part occupy consecutive index blocks in input order."""
    parts = list(parts)
    n = sum(g.n for g in parts)
    rows = []
    at = 0
    for g in parts:
        rows.extend(row << at for row in g.adj)
        at += g.n
    return Graph(n, tuple(rows))


def corona1(g: Graph) -> Graph:
    """Attach one pendant leaf to every vertex; leaf for v gets index n + v."""
    n = g.n
    rows = [g.adj[v] | (1 << (n + v)) for v in range(n)]
    rows.extend(1 << v for v in range(n))
    return Graph(2 * n, tuple(rows))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; pair (i, j) receives index i * h.n + j."""
    n = g.n * h.n
    rows = []
    for i in range(g.n):
        for j in range(h.n):
            row = h.adj[j] << (i * h.n)
            for k in iter_bits(g.adj[i]):
                row |= 1 << (k * h.n + j)
            rows.append(row)
    return Graph(n, tuple(rows))


def product_layer(g: Graph, h: Graph, axis: int, index: int) -> int:
    """Vertex mask of one layer of cartesian_product(g, h).

    axis 0, index i: the copy of h above vertex i of g.
    axis 1, index j: the copy of g above vertex j of h.
    """
    if axis == 0:
        return ((1 << h.n) - 1) << (index * h.n)
    return mask_of(i * h.n + index for i in range(g.n))


def lex_product(base: Graph, fibers) -> Graph:
    """Blow up each base vertex into a fiber graph.

    Fiber i occupies a consecutive index range (offsets in input order).
    Two vertices in different fibers are adjacent iff their base vertices
    are adjacent; inside a fiber, the fiber graph decides.
    """
    fibers = list(fibers)
    if len(fibers) != base.n:
        raise ValueError("need exactly one fiber per base vertex")
    offsets = []
    at = 0
    for f in fibers:
        offsets.append(at)
        at += f.n
    fiber_masks = [((1 << f.n) - 1) << off for f, off in zip(fibers, offsets)]
    rows = []
    for i, f in enumerate(fibers):
        cross = 0
        for j in iter_bits(base.adj[i]):
            cross |= fiber_masks[j]
        for v in range(f.n):
            rows.append(cross | (f.adj[v] << offsets[i]))
    return Graph(at, tuple(rows))


def fiber_mask(fibers, index: int) -> int:
    """Vertex mask of fiber `index` inside lex_product(base, fibers)."""
    fibers = list(fibers)
    off = sum(f.n for f in fibers[:index])
    return ((1 << fibers[index].n) - 1) << off


@dataclass(frozen=True)
class Coalescence:
    """Result of gluing graphs at one vertex each.

    The glued vertex has index 0. Remaining vertices of part i follow in
    one consecutive block per part, in original index order. maps[i] sends
    original vertices of part i to their indices in the glued graph.
    """

    graph: Graph
    glued: int
    maps: tuple[dict, ...]


def coalescence(parts) -> Coalescence:
    """Glue (graph, vertex) pairs at the named vertices into one vertex."""
    parts = [(g, v) for g, v in parts]
    if len(parts) < 2:
        raise ValueError("coalescence needs at least two parts")
    n = 1 + sum(g.n - 1 for g, _ in parts)
    maps = []
    at = 1
    for g, v in parts:
        if not 0 <= v < g.n:
            raise ValueError(f"glue vertex {v} outside part of order {g.n}")
        m = {}
        for w in range(g.n):
            if w == v:
                m[w] = 0
            else:
                m[w] = at
                at += 1
        maps.append(m)
    rows = [0] * n
    for (g, _), m in zip(parts, maps):
        for w in range(g.n):
            for u in iter_bits(g.adj[w]):
                rows[m[w]] |= 1 << m[u]
    return Coalescence(Graph(n, tuple(rows)), 0, tuple(maps))
