"""Excellence with respect to a domination-type parameter.

A graph is excellent for a parameter when every vertex lies in some
optimal set. The refinement studied here asks more: a graph is
pattern-excellent for a pattern graph H when (i) every vertex lies in an
induced copy of H whose vertices sit inside one optimal set, and (ii)
every induced copy of H sits inside some optimal set. The excellent
family collects all such patterns up to isomorphism; by condition (i)
each member must appear inside an optimal set, so candidates are drawn
from induced subgraphs of optimal sets. They are reached by vertex
deletion from the subgraph each optimal set induces, and each labelled
graph reached is kept and keyed once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import PATTERN_CAP, IsoKey, canonical_key, check_pattern_order, iter_induced_copies
from .domination import Param, ParamResult, min_sets
from .graph6 import to_graph6
from .graphs import Graph, iter_bits


@dataclass(frozen=True)
class FamilyResult:
    """Excellent family of a graph under one parameter.

    members holds the canonical keys sorted by (order, edge count, key
    bits). witness[i][x] is a (copy mask, optimal-set mask) pair showing
    condition (i) for member i at vertex x: the smallest copy holding x,
    and the first set in ParamResult.sets holding that copy.
    """

    param: Param
    excellent: bool
    value: int
    members: tuple[IsoKey, ...]
    witness: tuple[tuple[tuple[int, int], ...], ...]


def sets_union(sets) -> int:
    m = 0
    for s in sets:
        m |= s
    return m


def is_excellent(g: Graph, param: Param, *, result: ParamResult | None = None) -> bool:
    """Whether every vertex of g belongs to some optimal set."""
    res = result if result is not None else min_sets(g, param)
    return sets_union(res.sets) == g.full_mask


def _copy_witnesses(g: Graph, pattern: Graph, sets) -> tuple[tuple[int, int], ...] | None:
    """Check both excellence conditions for one pattern in one copy pass.

    Returns None at the first induced copy outside every optimal set, or
    when some vertex lies in no copy. Otherwise returns, for each vertex
    x, the pair (smallest copy mask containing x, first set of sets
    containing that copy).
    """
    witness: list = [None] * g.n
    covered = 0
    for copy in iter_induced_copies(g, pattern):
        home = next((d for d in sets if copy & ~d == 0), None)
        if home is None:
            return None
        for x in iter_bits(copy & ~covered):
            witness[x] = (copy, home)
        covered |= copy
    if covered != g.full_mask:
        return None
    return tuple(witness)


def is_pattern_excellent(
    g: Graph, pattern: Graph, param: Param, *, result: ParamResult | None = None
) -> bool:
    """Decide pattern-excellence: conditions (i) and (ii) together.

    (i) every vertex lies in an induced copy of the pattern contained in
    some optimal set; (ii) every induced copy of the pattern is contained
    in some optimal set.
    """
    if pattern.n < 1:
        raise ValueError("pattern must have at least one vertex")
    res = result if result is not None else min_sets(g, param)
    return _copy_witnesses(g, pattern, res.sets) is not None


def excellent_family(
    g: Graph, param: Param, *, result: ParamResult | None = None
) -> FamilyResult:
    """All patterns (up to isomorphism) for which g is pattern-excellent.

    Candidate patterns are the isomorphism classes of induced subgraphs
    of optimal sets, over all nonempty subset sizes; condition (i) makes
    this exhaustive. They are reached as a deletion closure: the graph
    each optimal set induces, then one vertex deleted at a time down to a
    single vertex, which gives the labelled graph of every nonempty
    subset of every optimal set; each is kept once and keyed once. A
    non-excellent graph yields no members; an optimal set past the
    pattern cap raises ValueError before candidates are built.
    """
    res = result if result is not None else min_sets(g, param)
    if sets_union(res.sets) != g.full_mask:
        return FamilyResult(param, False, res.value, (), ())
    # candidates take every order up to the largest set; name the first past the cap
    check_pattern_order(min(max(d.bit_count() for d in res.sets), PATTERN_CAP + 1))

    # every nonempty subset of an optimal set, one vertex deletion at a time
    level = {g.induced(d) for d in res.sets if d}
    labelled = set(level)
    while level:
        level = {h.delete_vertex(v) for h in level if h.n > 1 for v in range(h.n)}
        labelled |= level
    candidates = {canonical_key(h) for h in labelled}

    members = []
    witnesses = []
    for key in sorted(candidates, key=lambda k: (k.n, k.bits.bit_count(), k.bits)):
        witness = _copy_witnesses(g, key.graph(), res.sets)
        if witness is not None:
            members.append(key)
            witnesses.append(witness)
    return FamilyResult(param, True, res.value, tuple(members), tuple(witnesses))


def family_names(fam: FamilyResult) -> list[str]:
    """Readable member names (complete, edgeless, path, cycle, unions)."""
    return [describe_pattern(k.graph()) for k in fam.members]


def describe_pattern(g: Graph) -> str:
    """Short conventional name for a small pattern graph."""
    if g.n >= 2 and g.edge_count() == 0:
        return f"E{g.n}"
    parts = sorted(
        (g.induced(c) for c in g.components()),
        key=lambda h: (h.n, h.edge_count()),
    )
    lone = sum(1 for h in parts if h.n == 1)
    names = [_component_name(h) for h in parts[lone:]]
    if lone == 1:
        names.insert(0, "K1")
    elif lone > 1:
        names.insert(0, f"E{lone}")
    return "+".join(names)


def _component_name(h: Graph) -> str:
    n, m = h.n, h.edge_count()
    if m == 0:
        return "K1" if n == 1 else f"E{n}"
    if m == n * (n - 1) // 2:
        return f"K{n}"
    degs = h.degree_sequence()
    if m == n - 1 and degs[0] <= 2:
        return f"P{n}"
    if all(d == 2 for d in degs):
        return f"C{n}"
    return to_graph6(h)
