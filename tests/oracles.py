"""Independent brute-force oracles for cross-checking the solvers.

Everything here works from adjacency lists with plain subset sweeps and
its own breadth-first connectivity, so it shares no search code with the
package. Values and optimal-set collections are recomputed from the
defining predicates directly. Excellent families are read off the same
sweeps, with candidate patterns and their names taken from networkx's
graph atlas (every graph of order 7 or less), so they share no code
with canon either.
"""

from functools import lru_cache
from itertools import combinations, permutations

from domexc.graphs import from_edges


def brute_key(g) -> int:
    """Lex-min upper-triangle adjacency string over all n! orderings.

    Column major, first bit most significant: the bits canonical_key
    must return. Order 8 or less.
    """
    n = g.n
    if n > 8:
        raise ValueError("exhaustive keying is limited to order 8")
    nbrs = [set(row) for row in adjacency(g)]
    best = None
    for perm in permutations(range(n)):
        bits = 0
        for col in range(1, n):
            for row in range(col):
                bits = bits << 1 | (perm[col] in nbrs[perm[row]])
        if best is None or bits < best:
            best = bits
    return best or 0


def adjacency(g) -> list[list[int]]:
    return [[u for u in range(g.n) if g.adj[v] >> u & 1] for v in range(g.n)]


def brute_copies(g, pattern) -> list[int]:
    """Sorted masks of the vertex subsets of g that induce a copy of pattern.

    Tries every bijection from pattern onto every subset of its order
    whose induced degree sequence is the pattern's.
    """
    nbrs = [set(row) for row in adjacency(g)]
    pat = [set(row) for row in adjacency(pattern)]
    p = pattern.n
    degrees = _degrees(pat, set(range(p)))
    found = []
    for combo in combinations(range(g.n), p):
        if _degrees(nbrs, set(combo)) != degrees:
            continue
        for perm in permutations(combo):
            if all(
                (perm[v] in nbrs[perm[u]]) == (v in pat[u])
                for u in range(p)
                for v in range(u + 1, p)
            ):
                found.append(sum(1 << v for v in combo))
                break
    return sorted(found)


def _connected(nbrs: list[list[int]], verts: set[int]) -> bool:
    if not verts:
        return True
    start = next(iter(verts))
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for u in nbrs[v]:
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == verts


def _dominating(nbrs, n, sel: set[int], open_cover: bool) -> bool:
    for v in range(n):
        if not open_cover and v in sel:
            continue
        if not any(u in sel for u in nbrs[v]):
            return False
    return True


def _independent(nbrs, sel: set[int]) -> bool:
    return not any(u in sel for v in sel for u in nbrs[v])


def _predicate(nbrs, n, sel: set[int], pid: str) -> bool:
    if pid == "beta0":
        return _independent(nbrs, sel)
    if pid == "i":
        # independent dominating = maximal independent
        return _independent(nbrs, sel) and _dominating(nbrs, n, sel, False)
    open_cover = pid in ("gamma_t", "gamma_tr", "gamma_t_oc")
    if not _dominating(nbrs, n, sel, open_cover):
        return False
    rest = set(range(n)) - sel
    if pid in ("gamma_r", "gamma_tr"):
        for v in rest:
            if not any(u in rest for u in nbrs[v]):
                return False
    if pid in ("gamma_oc", "gamma_t_oc"):
        if not _connected(nbrs, rest):
            return False
    return True


def brute(g, pid: str):
    """(value, sorted optimal masks) by sweeping every subset size.

    Raises ValueError for total-type parameters on graphs with an
    isolated vertex, mirroring where the parameter is undefined.
    """
    n = g.n
    nbrs = adjacency(g)
    if pid in ("gamma_t", "gamma_tr", "gamma_t_oc") and any(not a for a in nbrs):
        raise ValueError("undefined with an isolated vertex")
    sizes = range(n, -1, -1) if pid == "beta0" else range(1, n + 1)
    for k in sizes:
        hits = []
        for combo in combinations(range(n), k):
            if _predicate(nbrs, n, set(combo), pid):
                hits.append(sum(1 << v for v in combo))
        if hits:
            return k, sorted(hits)
    raise AssertionError(f"no set found for {pid}")


def _edges(g) -> list[tuple[int, int]]:
    return [(v, u) for v, row in enumerate(adjacency(g)) for u in row if v < u]


def brute_critical_split(g) -> tuple[int, int]:
    """(drops, stays) masks: x drops when brute gamma of g - x is smaller."""
    base = brute(g, "gamma")[0]
    drops = 0
    for x in range(g.n):
        # g - x with the vertices above x moved down by one
        rename = [v - (v > x) for v in range(g.n)]
        rest = from_edges(g.n - 1, [(rename[v], rename[u]) for v, u in _edges(g) if x not in (v, u)])
        if brute(rest, "gamma")[0] < base:
            drops |= 1 << x
    return drops, (1 << g.n) - 1 & ~drops


def brute_edge_critical(g) -> bool:
    """Whether every missing edge changes brute gamma when added."""
    base = brute(g, "gamma")[0]
    edges = _edges(g)
    present = set(edges)
    for pair in combinations(range(g.n), 2):
        if pair not in present and brute(from_edges(g.n, edges + [pair]), "gamma")[0] == base:
            return False
    return True


def brute_excellent(g, pid: str) -> bool:
    _, sets = brute(g, pid)
    union = 0
    for s in sets:
        union |= s
    return union == (1 << g.n) - 1


@lru_cache(maxsize=1)
def atlas():
    """networkx's graph atlas: all 1,253 graphs of order 7 or less, by index."""
    from networkx import graph_atlas_g

    return tuple(graph_atlas_g())


def to_networkx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for v, row in enumerate(adjacency(g)) for u in row if u < v)
    return h


def atlas_index(g) -> int:
    """Index of the atlas graph isomorphic to g, found by networkx."""
    import networkx as nx

    h = to_networkx(g)
    for i, a in enumerate(atlas()):
        if (a.number_of_nodes(), a.number_of_edges()) == (g.n, h.number_of_edges()):
            if nx.is_isomorphic(a, h):
                return i
    raise ValueError("the atlas stops at order 7")


def pattern_conditions(g, pattern, sets) -> tuple[bool, bool]:
    """Conditions (i) and (ii) for pattern in g, given the optimal sets.

    (i) every vertex lies in an induced copy inside some optimal set;
    (ii) every induced copy lies inside some optimal set.
    """
    copies = brute_copies(g, pattern)
    homed = [c for c in copies if any(c & ~d == 0 for d in sets)]
    covered = 0
    for c in homed:
        covered |= c
    return covered == (1 << g.n) - 1, len(homed) == len(copies)


def _degrees(nbrs, verts) -> tuple[int, ...]:
    return tuple(sorted(sum(u in verts for u in nbrs[v]) for v in verts))


def brute_family(g, pid: str) -> list[int]:
    """Atlas indices of the patterns for which g is pattern-excellent.

    Optimal sets come from brute and copies from brute_copies. A member
    has a copy inside an optimal set, so only atlas graphs whose degree
    sequence some subset of an optimal set induces are tried. A graph
    that is not excellent has no members.
    """
    _, sets = brute(g, pid)
    union = 0
    for s in sets:
        union |= s
    if union != (1 << g.n) - 1:
        return []
    nbrs = [set(row) for row in adjacency(g)]
    inside = set()
    for s in sets:
        verts = [v for v in range(g.n) if s >> v & 1]
        for k in range(1, len(verts) + 1):
            for combo in combinations(verts, k):
                inside.add(_degrees(nbrs, set(combo)))
    top = max(len(d) for d in inside)
    if top > 7:
        raise ValueError("the atlas stops at order 7")
    members = []
    for i, a in enumerate(atlas()):
        if a.number_of_nodes() > top:
            break
        if tuple(sorted(d for _, d in a.degree())) not in inside:
            continue
        pattern = from_edges(a.number_of_nodes(), a.edges())
        if all(pattern_conditions(g, pattern, sets)):
            members.append(i)
    return members
