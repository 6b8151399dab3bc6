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

One family call reuses what it holds. The keys of the closure go into
one shape dict, which every candidate's copy pass reads and adds to
(see canon.iter_induced_copies): a copy inside an optimal set has a
labelled shape the closure has keyed, so only shapes outside every
optimal set are keyed again, once per family. A copy's home set is read
off a per-vertex index of the optimal sets, built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import PATTERN_CAP, IsoKey, canonical_key, check_pattern_order, iter_induced_copies
from .domination import Param, ParamResult, min_sets
from .graph6 import to_graph6, triangle_bits
from .graphs import Graph, _induced_rows, _trusted


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


# _BIT_DIGITS[b] maps each byte to its bit b as an ASCII digit, b"0" or b"1"
_BIT_DIGITS = tuple(bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8))


def _set_index(g: Graph, sets) -> list[int]:
    """index[x]: the bitmask of the positions in sets of the sets holding x.

    The sets are packed into one bytes string, a row of whole bytes per
    set, so x's column is a strided slice. Its bit in each row becomes an
    ASCII digit, and the digits, last set first, are read as a base-2
    int. Only the packing loops in Python, so the cost stays linear in
    the number of sets where an int OR per member would copy the mask
    built so far.
    """
    width = g.n + 7 >> 3
    packed = b"".join([d.to_bytes(width, "little") for d in sets])
    return [
        int(packed[x >> 3 :: width].translate(_BIT_DIGITS[x & 7])[::-1] or b"0", 2)
        for x in range(g.n)
    ]


def _copy_witnesses(
    g: Graph, pattern: Graph, sets, index: list[int], shapes: dict | None = None
) -> tuple[tuple[int, int], ...] | None:
    """Check both excellence conditions for one pattern in one copy pass.

    index is _set_index(g, sets). The sets holding a copy are the AND of
    its vertices' entries, and its home is the lowest of them, the first
    set of sets containing it. Returns None at the first copy with no
    home, or when some vertex lies in no copy. Otherwise returns, for
    each vertex x, the pair (smallest copy mask containing x, home of
    that copy). shapes is passed on to iter_induced_copies.
    """
    witness: list = [None] * g.n
    covered = 0
    for copy in iter_induced_copies(g, pattern, shapes=shapes):
        homes = -1
        rest = copy
        while rest:
            low = rest & -rest
            rest ^= low
            homes &= index[low.bit_length() - 1]
        if not homes:
            return None
        home = sets[(homes & -homes).bit_length() - 1]
        rest = copy & ~covered
        while rest:
            low = rest & -rest
            rest ^= low
            witness[low.bit_length() - 1] = (copy, home)
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
    return _copy_witnesses(g, pattern, res.sets, _set_index(g, res.sets)) is not None


def excellent_family(
    g: Graph, param: Param, *, result: ParamResult | None = None
) -> FamilyResult:
    """All patterns (up to isomorphism) for which g is pattern-excellent.

    Candidate patterns are the isomorphism classes of induced subgraphs
    of optimal sets, over all nonempty subset sizes; condition (i) makes
    this exhaustive. They are reached as a deletion closure: the graph
    each optimal set induces, then one vertex deleted at a time down to a
    single vertex, which gives the labelled graph of every nonempty
    subset of every optimal set; each is kept once and keyed once, and
    those keys fill the shape dict that every candidate's copy pass
    shares. A non-excellent graph yields no members; an optimal set
    past the pattern cap raises ValueError before candidates are built.
    """
    res = result if result is not None else min_sets(g, param)
    if sets_union(res.sets) != g.full_mask:
        return FamilyResult(param, False, res.value, (), ())
    # candidates take every order up to the largest set; name the first past the cap
    check_pattern_order(min(max(d.bit_count() for d in res.sets), PATTERN_CAP + 1))

    # every nonempty subset of an optimal set, one vertex deletion at a time;
    # the sets' induced rows are deduplicated before any graph is built
    level = {_trusted(len(rows), rows) for rows in {_induced_rows(g.adj, d) for d in res.sets if d}}
    labelled = set(level)
    while level:
        level = {h.delete_vertex(v) for h in level if h.n > 1 for v in range(h.n)}
        labelled |= level
    shapes = {(h.n, triangle_bits(h)): canonical_key(h) for h in labelled}
    candidates = set(shapes.values())
    # each copy pass below takes its candidate's canonical form as the pattern
    shapes.update(((k.n, k.bits), k) for k in candidates)

    index = _set_index(g, res.sets)
    members = []
    witnesses = []
    for key in sorted(candidates, key=lambda k: (k.n, k.bits.bit_count(), k.bits)):
        witness = _copy_witnesses(g, key.graph(), res.sets, index, shapes)
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
