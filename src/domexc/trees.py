"""Tree-specific machinery for domination excellence.

Covers isomorph-free tree enumeration, 0/1-labeled trees, labeled
1-coronas, the gluing operation that composes excellent trees from
coronas, the labeling characterization of excellent trees, and the
closed-form prediction of a tree's excellent family. Trees are generated,
not deduplicated: each class comes once, from its canonical level
sequence rooted at a centre (Beyer and Hedetniemi, Constant time
generation of rooted trees, 1980; Wright, Richmond, Odlyzko and McKay,
Constant time generation of free trees, 1986).
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import IsoKey, canonical_key
from .domination import Param, ParamResult, critical_split, min_sets
from .excellence import is_excellent
from .graph6 import to_graph6
from .graphs import Graph, _trusted, coalescence, corona1, edgeless, iter_bits, set_of

TREE_ENUM_CAP = 14


@dataclass(frozen=True)
class LabeledTree:
    """A tree whose vertices carry 0/1 labels as two disjoint masks."""

    tree: Graph
    zeros: int
    ones: int

    def __post_init__(self):
        if not self.tree.is_tree():
            raise ValueError("labeled trees require a tree")
        if self.zeros & self.ones:
            raise ValueError("labels overlap")
        if (self.zeros | self.ones) != self.tree.full_mask:
            raise ValueError("labels must cover every vertex")

    def report(self) -> dict:
        return {"graph6": to_graph6(self.tree), "zeros": hex(self.zeros)}


def enumerate_trees(n: int) -> list[Graph]:
    """One tree per isomorphism class of order n, built from its level sequence.

    Vertex 0 is a centre and the vertices are in preorder. The trees come
    in decreasing lexicographic order of their level sequences.
    """
    if not 1 <= n <= TREE_ENUM_CAP:
        raise ValueError(f"order must be between 1 and {TREE_ENUM_CAP}")
    out = []
    seq = list(range(n))
    while True:
        # keep a rooting at a centre; with two centres, the one whose side is not smaller
        m = next((i for i in range(2, n) if seq[i] == 1), n)
        left = [x - 1 for x in seq[1:m]]
        rest = [0] + seq[m:]
        if (max(left, default=0), len(left), left) <= (max(rest), len(rest), rest):
            # in preorder a vertex's parent is the last vertex one level up
            rows = [0] * n
            last = [0] * n
            for v in range(1, n):
                u = last[seq[v] - 1]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                last[seq[v]] = v
            out.append(_trusted(n, tuple(rows)))
        # Beyer-Hedetniemi successor, in place
        p = max((i for i in range(n) if seq[i] > 1), default=0)
        if not p:
            return out
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - p + q]


def leaves_mask(g: Graph) -> int:
    m = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            m |= 1 << v
    return m


def labeled_corona(u: Graph) -> LabeledTree:
    """Corona of a tree with the added leaves labeled 0, originals 1.

    The input must have at least two vertices so the corona reaches
    order four.
    """
    if not u.is_tree():
        raise ValueError("corona base must be a tree")
    if u.n < 2:
        raise ValueError("corona base must have at least 2 vertices")
    t = corona1(u)
    ones = u.full_mask
    return LabeledTree(t, t.full_mask & ~ones, ones)


def is_labeled_corona(lt: LabeledTree) -> bool:
    """Whether lt is a corona of a tree with leaves 0 and supports 1."""
    if lt.tree.n < 4 or corona_base(lt.tree) is None:
        return False
    return lt.zeros == leaves_mask(lt.tree)


def corona_base(t: Graph) -> Graph | None:
    """The tree u with corona1(u) isomorphic to t, or None.

    The base comes back as the induced subgraph on the support vertices,
    so t literally equals its corona up to the leaf numbering.
    """
    if not t.is_tree() or t.n < 2 or t.n % 2:
        return None
    if t.n == 2:
        return edgeless(1)
    leaves = leaves_mask(t)
    if 2 * leaves.bit_count() != t.n:
        return None
    for v in iter_bits(t.full_mask & ~leaves):
        if (t.adj[v] & leaves).bit_count() != 1:
            return None
    return t.induced(t.full_mask & ~leaves)


def glue_corona(t: LabeledTree, c: LabeledTree, u: int, v: int) -> LabeledTree:
    """Glue a labeled corona c onto a labeled tree t at 0-labeled vertices.

    Requires (a) labels 0 on both glued vertices u of t and v of c, and
    (b) that c actually is a labeled corona. Identifies u with v; the
    merged vertex keeps label 0 and every other label carries over.
    """
    if not t.zeros >> u & 1 or not c.zeros >> v & 1:
        raise ValueError("clause (a): both glued vertices must be labeled 0")
    if not is_labeled_corona(c):
        raise ValueError("clause (b): the glued part must be a labeled corona")
    merged = coalescence([(t.tree, u), (c.tree, v)])
    m0, m1 = merged.maps
    zeros = ones = 0
    for x in set_of(t.zeros):
        zeros |= 1 << m0[x]
    for x in set_of(c.zeros & ~(1 << v)):
        zeros |= 1 << m1[x]
    for x in set_of(t.ones):
        ones |= 1 << m0[x]
    for x in set_of(c.ones):
        ones |= 1 << m1[x]
    return LabeledTree(merged.graph, zeros, ones)


def excellent_tree_labeling(t: Graph, *, result: ParamResult | None = None) -> LabeledTree | None:
    """The characteristic labeling of an excellent tree, if there is one.

    For a tree of order at least four that is excellent for plain
    domination, the vertices whose removal drops the domination number
    get label 0 and the rest label 1; the 0 side is then itself a
    minimum dominating set. Non-excellent trees yield None. Deleting a
    vertex lowers the domination number by one at most, so each vertex
    is labelled by one cover search at one below it (critical_split).
    result, when given, is t's gamma ParamResult and saves solving t again.
    The labeling is returned unchecked; the tree-labeling claim checks
    that its 0 side is a minimum dominating set.
    """
    if not t.is_tree():
        raise ValueError("input must be a tree")
    if t.n < 4:
        raise ValueError("order must be at least 4")
    res = result if result is not None else min_sets(t, Param.GAMMA)
    if not is_excellent(t, Param.GAMMA, result=res):
        return None
    drops, stays = critical_split(t, result=res)
    return LabeledTree(t, drops, stays)


def tree_family_prediction(t: Graph, *, result: ParamResult | None = None) -> tuple[IsoKey, ...]:
    """Predicted excellent family of an excellent tree, closed form.

    A cut vertex whose removal drops the domination number forces the
    family down to the single-vertex graph. Otherwise the tree is a
    corona and the family is exactly the edgeless graphs up to half its
    order. Deleting a vertex lowers the domination number by one at
    most, so one cover search at one below it decides each vertex
    (critical_split). result, when given, is t's gamma ParamResult and
    saves solving t again. The prediction is not checked here; the
    tree-families claim compares it with the computed family.
    """
    if not t.is_tree():
        raise ValueError("input must be a tree")
    if t.n < 4:
        raise ValueError("order must be at least 4")
    res = result if result is not None else min_sets(t, Param.GAMMA)
    if not is_excellent(t, Param.GAMMA, result=res):
        raise ValueError("input must be excellent for domination")
    drops, _ = critical_split(t, result=res)
    internal = t.full_mask & ~leaves_mask(t)
    if drops & internal:
        return (canonical_key(edgeless(1)),)
    return tuple(canonical_key(edgeless(r)) for r in range(1, t.n // 2 + 1))
