"""Exact domination-type parameters and complete minimum-set enumeration.

Eight parameters are supported, and one search serves them all. It is
set up once per solve and sweeps the target sizes itself: for each size
in turn a depth-first cover search branches on an uncovered vertex with
the fewest covering options, and at the first size that has sets every
satisfying set is collected. Every node carries a banned mask: the
vertices its earlier siblings already tried, which it never adds. So the
children split their parent's sets, every set is reached along exactly
one path, and no memo of visited sets is kept. Once coverage saturates
below the target the search branches on each unbanned vertex outside the
set, so sets that are not minimal dominating sets (they exist for the
restrained and outer-connected variants) are still found, each once. The
restrained variants also force at every node: a vertex outside the set
whose neighbours all lie in it must join, and when it is banned the
branch ends; a set that reaches the target size with nothing forced is
restrained. After a node forces, every vertex outside has a neighbour
outside, so a child need only check the neighbours of the one vertex it
added; that invariant is what makes the check local. An outer-connected
set that leaves two or more vertices outside is restrained too, so those
sizes force the same way. At every forcing size the search starts from
the vertices of degree 1 or less rather than from the empty set: a
vertex outside such a set has a neighbour inside and one outside, so
those vertices lie in every set the size can have (Domke, Hattingh,
Hedetniemi, Laskar and Markus, Restrained domination in graphs, 1999,
use this on trees), and the root's full check forces what follows from
them at once; a star's centre joins at the root.
The outer-connected variants also cut on the
outside's connectivity: below size n the outside of a set is nonempty
and connected, and the banned vertices never join the set, so the whole
outside lies in the component of what the partial set leaves that holds
the least banned vertex. A banned vertex outside that component ends the
branch, and every vertex outside it is forced in; forcing whole
components keeps the invariant. The sweep starts at the larger of
ceil(n/(Δ+1)) and a packing floor: a greedy count of vertices whose
footprints (closed neighbourhoods, or open ones for the total variants)
are pairwise disjoint, each of which needs its own member of the set. On
trees and forests the packing number equals the domination number (Meir
and Moon, Relations between packing and covering numbers of a tree,
1975), so there the sweep mostly starts at the value. Independent
domination is closed-neighborhood domination plus independence: its
search only adds vertices that are not yet covered, so every partial set
stays independent. The maximum independent sets are exactly the
independent dominating sets of the largest size that has one, so the
independence number runs the same search with the sizes tried from the
top down. That sweep starts at n - |M| for a greedy maximal matching M,
since an independent set holds at most one end of each matching edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, iter_bits


class ParameterUndefinedError(ValueError):
    """Total-type parameters are undefined on graphs with isolated vertices."""


class Param(Enum):
    """Domination-type parameter selector.

    value tuple: (identifier, open neighborhoods for coverage?, needs
    restrained condition?, needs connected complement?, must the set be
    independent?). The independence number is searched as independent
    domination at the largest feasible size; satisfies() still reads it
    as independence alone.
    """

    GAMMA = ("gamma", False, False, False, False)
    IND_DOM = ("i", False, False, False, True)
    INDEPENDENCE = ("beta0", False, False, False, True)
    TOTAL = ("gamma_t", True, False, False, False)
    RESTRAINED = ("gamma_r", False, True, False, False)
    OUTER_CONNECTED = ("gamma_oc", False, False, True, False)
    TOTAL_RESTRAINED = ("gamma_tr", True, True, False, False)
    TOTAL_OUTER_CONNECTED = ("gamma_t_oc", True, False, True, False)

    @property
    def id(self) -> str:
        return self.value[0]

    @property
    def open_cover(self) -> bool:
        return self.value[1]

    @property
    def restrained(self) -> bool:
        return self.value[2]

    @property
    def outer_connected(self) -> bool:
        return self.value[3]

    @property
    def independent(self) -> bool:
        return self.value[4]

    @classmethod
    def from_id(cls, name: str) -> "Param":
        for p in cls:
            if p.id == name:
                return p
        raise ValueError(f"unknown parameter {name!r}")


PARAM_IDS = tuple(p.id for p in Param)


@dataclass(frozen=True)
class ParamResult:
    """Optimal value and every optimal set (as bitmasks, sorted)."""

    param: Param
    value: int
    sets: tuple[int, ...]


def _is_independent(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def _is_dominating(g: Graph, mask: int, open_cover: bool) -> bool:
    covered = 0
    for v in iter_bits(mask):
        covered |= g.adj[v]
        if not open_cover:
            covered |= 1 << v
    return covered == g.full_mask


def _extra_ok(g: Graph, mask: int, param: Param) -> bool:
    outside = g.full_mask & ~mask
    if param.restrained:
        for v in iter_bits(outside):
            if not g.adj[v] & outside:
                return False
    if param.outer_connected:
        if not g.connected_within(outside):
            return False
    return True


def satisfies(g: Graph, mask: int, param: Param) -> bool:
    """Whether mask meets the defining predicate of param.

    For minimization parameters this is the membership test (independent
    where the parameter asks for it, dominating, plus side conditions); for
    the independence number it is independence. The empty set satisfies
    the domination predicates exactly on the 0-vertex graph.
    """
    if mask & ~g.full_mask:
        raise ValueError("vertex set outside the graph")
    if param is Param.INDEPENDENCE:
        return _is_independent(g, mask)
    if param.independent and not _is_independent(g, mask):
        return False
    if not _is_dominating(g, mask, param.open_cover):
        return False
    return _extra_ok(g, mask, param)


def _footprints(g: Graph, param: Param) -> list[int]:
    """What each vertex covers: its open neighbourhood or its closed one."""
    if param.open_cover:
        return list(g.adj)
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _packing_floor(foot: list[int]) -> int:
    """How many vertices have pairwise disjoint footprints, taken greedily.

    Vertices are taken in ascending footprint size, ties by index. Every
    covering set holds a member of each taken footprint, and no member
    lies in two of them, so the count never exceeds the parameter value.
    """
    taken = count = 0
    for f in sorted(foot, key=int.bit_count):
        if not f & taken:
            taken |= f
            count += 1
    return count


def _cover_search(g: Graph, sizes, param: Param, first_only: bool, foot: list[int]):
    """(k, sets) for the first k in sizes that has sets satisfying param, else None.

    sets holds every set of size exactly k that satisfies param, sorted,
    or one of them when first_only; foot is _footprints(g, param). The
    footprints, flags and search closure are set up once, and the sizes
    are drawn in turn, one depth-first search each, until one has sets.
    Each call carries a banned mask: the vertices its earlier siblings
    already tried, which it never adds, whether it branches on the
    options of an uncovered vertex or, once the set dominates, on the
    vertices outside it. Child u of a node holds the sets that contain u
    and none of the siblings before it, so the children split their
    parent's sets and every set is reached along one path. Forcing keeps
    the split: a forced vertex lies in every set below the node, and a
    forced banned vertex leaves the node no sets at all.

    Restrained forcing takes the outside vertices with no outside
    neighbour. For the outer-connected parameters below k = n the banned
    vertices outside the set lie in the final outside, which is connected,
    so the node forces every vertex outside the component of the outside
    that holds the least of them, and has no sets when they are not all
    in it. One round of both rules is their fixpoint. Neither rule strands
    an outside vertex: a restrained-forced vertex has no outside
    neighbour, and the cut removes whole components of the outside. So
    after a node's forcing every outside vertex has an outside neighbour,
    and when a child adds u only the outside neighbours of u can have lost
    their last one: the child checks those (check is adj[u]), and the root
    checks every vertex. At a forcing size the root is the set of vertices
    of degree 1 or less with their footprints covered: outside a restrained
    set, or an outer-connected one that leaves two or more vertices out,
    each vertex has a neighbour inside and one outside, so every set of the
    size holds the root, and the split below it still reaches each set
    once. A size below the root's count ends at the root. For independent
    parameters a partial set that already dominates is a maximal
    independent set, so it is never completed: it is a hit only when its
    size is k.
    """
    n, full, adj = g.n, g.full_mask, g.adj
    max_new = max((f.bit_count() for f in foot), default=0)
    restrained, outer = param.restrained, param.outer_connected
    plain = not outer
    # covered is the closed neighborhood of the set, so only uncovered
    # candidates keep it independent
    independent = param.independent
    results: list[int] = []

    def dfs(s: int, covered: int, banned: int, check: int) -> bool:
        # one round of both rules is their fixpoint: the first takes the
        # isolated vertices of the outside and the second whole components
        # of it, and neither leaves a vertex that either rule would take
        if forcing or cutting:
            outside = full & ~s
            forced = 0
            if forcing:
                # an outside vertex with no outside neighbour has none in
                # any superset either, so a restrained superset must take it;
                # only a neighbour of the vertex just added can have lost its
                # last one
                near = check & outside
                while near:
                    low = near & -near
                    near ^= low
                    if not adj[low.bit_length() - 1] & outside:
                        forced |= low
                if forced & banned:
                    return False
            home = banned & outside if cutting else 0
            if home:
                # banned vertices stay outside, and a connected outside
                # lies in the component of this one that holds them
                comp = frontier = home & -home
                while frontier and comp != outside:
                    grow = 0
                    while frontier:
                        low = frontier & -frontier
                        frontier ^= low
                        grow |= adj[low.bit_length() - 1]
                    frontier = grow & outside & ~comp
                    comp |= frontier
                if home & ~comp:
                    return False
                forced |= outside & ~comp
            s |= forced
            while forced:
                low = forced & -forced
                forced ^= low
                covered |= foot[low.bit_length() - 1]
        size = s.bit_count()
        if size >= k:
            if size > k or covered != full or not (plain or _extra_ok(g, s, param)):
                return False
            results.append(s)
            return True
        if covered == full:
            if independent:
                return False
            # every superset dominates: branch on each unbanned vertex
            options = full & ~s & ~banned
            if size + options.bit_count() < k:
                return False
        else:
            uncovered = full & ~covered
            if uncovered.bit_count() > (k - size) * max_new:
                return False
            allowed = full & ~banned & ~covered if independent else full & ~banned
            # every vertex added to an independent set is still uncovered
            if independent and size + allowed.bit_count() < k:
                return False
            options, least = 0, None
            while uncovered:
                low = uncovered & -uncovered
                uncovered ^= low
                row = foot[low.bit_length() - 1] & allowed
                cnt = row.bit_count()
                if least is None or cnt < least:
                    options, least = row, cnt
                    if cnt <= 1:
                        break
        hit = False
        while options:
            low = options & -options
            options ^= low
            u = low.bit_length() - 1
            if dfs(s | low, covered | foot[u], banned, adj[u]):
                hit = True
                if first_only:
                    return True
            banned |= low
        return hit

    # an outside vertex of a forcing size needs a neighbour inside and one
    # outside, so every vertex of degree 1 or less lies in every such set
    root = root_cov = 0
    if restrained or outer:
        for v, row in enumerate(adj):
            if row.bit_count() <= 1:
                root |= 1 << v
                root_cov |= foot[v]
    # dfs reads k, forcing and cutting as this loop sets them
    for k in sizes:
        # a connected outside of two or more vertices gives each outside
        # vertex an outside neighbour, so those outer-connected sets force
        forcing = restrained or (outer and k <= n - 2)
        # below k = n an outer-connected outside is nonempty and connected
        cutting = outer and k < n
        if forcing:
            dfs(root, root_cov, 0, full)
        else:
            dfs(0, 0, 0, full)
        if results:
            return k, sorted(results)
    return None


def _matching_size(g: Graph) -> int:
    """Edges in a greedy maximal matching: each vertex takes its least free neighbour."""
    free, count = g.full_mask, 0
    for v in range(g.n):
        mate = g.adj[v] & free
        if free >> v & 1 and mate:
            free &= ~(1 << v | mate & -mate)
            count += 1
    return count


def _solve(g: Graph, param: Param, first_only: bool) -> ParamResult:
    if g.n < 1:
        raise ValueError("parameters are defined for graphs of order at least 1")
    if param.open_cover and g.isolated_vertices():
        raise ParameterUndefinedError(
            f"{param.id} is undefined: graph has an isolated vertex"
        )
    lower = max(1, -(-g.n // (g.max_degree() + 1)))
    foot = _footprints(g, param)
    if param is Param.INDEPENDENCE:
        # every maximum independent set dominates, so beta0 is the largest
        # hit; an independent set holds one end of a matching edge at most
        sizes = range(g.n - _matching_size(g), lower - 1, -1)
    else:
        sizes = range(max(lower, _packing_floor(foot)), g.n + 1)
    found = _cover_search(g, sizes, param, first_only, foot)
    if found is None:
        raise AssertionError(f"no feasible set found for {param.id}")
    return ParamResult(param, found[0], tuple(found[1]))


def param_value(g: Graph, param: Param) -> int:
    """Exact parameter value; raises ParameterUndefinedError when undefined."""
    return _solve(g, param, first_only=True).value


def min_sets(g: Graph, param: Param) -> ParamResult:
    """Every optimal set for param (maximum sets for the independence number)."""
    return _solve(g, param, first_only=False)


def critical_split(g: Graph, *, result: ParamResult | None = None) -> tuple[int, int]:
    """Split vertices by whether deletion lowers the domination number.

    Returns (drops, stays) masks: drops holds the vertices x with
    gamma(g - x) < gamma(g). A dominating set of g - x plus x dominates g,
    so gamma(g - x) >= gamma(g) - 1, and x drops exactly when g - x has a
    dominating set of size gamma(g) - 1: one first-hit cover search at
    that size decides each vertex. result, when given, is g's gamma
    ParamResult and saves solving g again. Requires order at least 2 so
    deletions stay nonempty.
    """
    if g.n < 2:
        raise ValueError("criticality needs order at least 2")
    if result is not None and result.param is not Param.GAMMA:
        raise ValueError("criticality reads a gamma result")
    below = (result.value if result is not None else param_value(g, Param.GAMMA)) - 1
    drops = 0
    for v in range(g.n):
        h = g.delete_vertex(v)
        if _cover_search(h, (below,), Param.GAMMA, True, _footprints(h, Param.GAMMA)):
            drops |= 1 << v
    return drops, g.full_mask & ~drops


def private_neighbors(g: Graph, x: int, mask: int) -> int:
    """Vertices whose closed neighborhood meets mask exactly in {x}."""
    if not mask >> x & 1:
        raise ValueError("x must belong to the set")
    want = 1 << x
    out = 0
    for y in range(g.n):
        if (g.adj[y] | (1 << y)) & mask == want:
            out |= 1 << y
    return out


def is_edge_addition_critical(g: Graph) -> bool:
    """True when adding any missing edge changes the domination number.

    A dominating set of g + uv plus u dominates g, so adding an edge
    lowers gamma by one at most, and it changes gamma exactly when g + uv
    has a dominating set of size gamma(g) - 1: one first-hit cover search
    at that size decides each missing edge. Complete graphs qualify
    vacuously.
    """
    below = param_value(g, Param.GAMMA) - 1
    for u, v in g.non_edges():
        h = g.add_edge(u, v)
        if not _cover_search(h, (below,), Param.GAMMA, True, _footprints(h, Param.GAMMA)):
            return False
    return True


@dataclass(frozen=True)
class BoundCheck:
    name: str
    applicable: bool
    holds: bool | None
    detail: str


def bound_checks(g: Graph, factors: tuple[Graph, Graph] | None = None) -> list[BoundCheck]:
    """Evaluate known domination bounds against exact values.

    Minimum-degree bounds gamma <= n*d/(3d-1) for d in 3..5 apply when
    the minimum degree reaches d. When factors (a, b) are given and g is
    their box product, the lower bound gamma >= min(|a|, |b|) is checked.
    All comparisons are exact integer cross-multiplications.
    """
    out = []
    gamma = param_value(g, Param.GAMMA) if g.n else 0
    delta = g.min_degree()
    for d in (3, 4, 5):
        name = f"min-degree-{d}"
        if delta < d:
            out.append(BoundCheck(name, False, None, f"min degree {delta} < {d}"))
            continue
        lhs = gamma * (3 * d - 1)
        rhs = g.n * d
        out.append(
            BoundCheck(
                name,
                True,
                lhs <= rhs,
                f"gamma*{3 * d - 1} = {lhs} vs n*{d} = {rhs}",
            )
        )
    if factors is not None:
        a, b = factors
        bound = min(a.n, b.n)
        out.append(
            BoundCheck(
                "product-lower",
                True,
                gamma >= bound,
                f"gamma = {gamma} vs min(orders) = {bound}",
            )
        )
    return out
