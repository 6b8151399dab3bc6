"""Tree enumeration, labeled coronas, gluing, and family prediction."""

import random

import pytest

from domexc.canon import canonical_key, tree_key
from domexc.domination import Param, min_sets, satisfies
from domexc.excellence import excellent_family, is_excellent
from domexc.graphs import (
    complete_multipartite,
    corona1,
    cycle,
    edgeless,
    from_edges,
    iter_bits,
    path,
)


def star(k):
    return complete_multipartite([1, k])
from domexc.trees import (
    TREE_ENUM_CAP,
    LabeledTree,
    corona_base,
    enumerate_trees,
    excellent_tree_labeling,
    glue_corona,
    is_labeled_corona,
    labeled_corona,
    leaves_mask,
    tree_family_prediction,
)

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]


def test_enumeration_counts():
    for n, want in enumerate(TREE_COUNTS, start=1):
        assert len(enumerate_trees(n)) == want


def test_enumeration_is_isomorph_free():
    for n in range(1, 11):
        ts = enumerate_trees(n)
        keys = {canonical_key(t) for t in ts}
        assert len(keys) == len(ts)
        assert all(t.is_tree() and t.n == n for t in ts)


def test_enumeration_matches_networkx_past_canonical_key():
    nx = pytest.importorskip("networkx")
    for n in range(11, TREE_ENUM_CAP + 1):
        want = {tree_key(from_edges(n, t.edges())) for t in nx.nonisomorphic_trees(n)}
        got = [tree_key(t) for t in enumerate_trees(n)]
        assert len(set(got)) == len(got) and set(got) == want


def _eccentricity(t, v):
    seen = frontier = 1 << v
    far = 0
    while True:
        step = 0
        for u in iter_bits(frontier):
            step |= t.adj[u]
        frontier = step & ~seen
        if not frontier:
            return far
        seen |= frontier
        far += 1


def test_enumeration_labelling():
    # vertex 0 is a centre and the vertices are in preorder
    for n in range(1, 13):
        for t in enumerate_trees(n):
            assert _eccentricity(t, 0) == min(_eccentricity(t, v) for v in range(n))
            assert all((t.adj[v] & ((1 << v) - 1)).bit_count() == 1 for v in range(1, n))


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(TREE_ENUM_CAP + 1)


def test_tree_key_agrees_with_canonical_key():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert tree_key(t) == tree_key(canonical_key(t).graph())


def test_leaves_mask():
    assert leaves_mask(path(4)) == 0b1001
    assert leaves_mask(star(4)) == 0b11110
    assert leaves_mask(cycle(5)) == 0


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree(cycle(4), 0b0011, 0b1100)
    with pytest.raises(ValueError):
        LabeledTree(path(3), 0b011, 0b110)
    with pytest.raises(ValueError):
        LabeledTree(path(3), 0b001, 0b010)


def test_labeled_corona_layout():
    lc = labeled_corona(path(3))
    assert lc.tree.n == 6
    assert lc.ones == 0b000111
    assert lc.zeros == 0b111000
    assert is_labeled_corona(lc)
    with pytest.raises(ValueError):
        labeled_corona(cycle(3))
    with pytest.raises(ValueError):
        labeled_corona(edgeless(1))


def test_corona_base_roundtrip():
    for n in range(1, 7):
        for u in enumerate_trees(n):
            base = corona_base(corona1(u))
            assert base is not None
            assert canonical_key(base) == canonical_key(u)


def test_corona_base_rejects():
    assert corona_base(path(4)) is not None
    assert corona_base(path(6)) is None
    assert corona_base(star(3)) is None
    assert corona_base(path(5)) is None
    assert corona_base(cycle(4)) is None


def test_glue_corona_clause_errors():
    t = labeled_corona(path(2))
    c = labeled_corona(path(2))
    # gluing at a 1-labeled vertex violates clause (a)
    with pytest.raises(ValueError, match="clause .a."):
        glue_corona(t, c, 0, 2)
    with pytest.raises(ValueError, match="clause .a."):
        glue_corona(t, c, 2, 1)
    # a non-corona labeling in the second slot violates clause (b)
    lab = excellent_tree_labeling(path(7))
    assert lab is not None and not is_labeled_corona(lab)
    with pytest.raises(ValueError, match="clause .b."):
        glue_corona(t, lab, 2, next(iter_zeros(lab)))


def iter_zeros(lt):
    for v in range(lt.tree.n):
        if lt.zeros >> v & 1:
            yield v


def test_glue_corona_produces_excellent_tree():
    t = labeled_corona(path(2))
    c = labeled_corona(path(3))
    glued = glue_corona(t, c, 2, 3)
    assert glued.tree.is_tree() and glued.tree.n == 9
    assert is_excellent(glued.tree, Param.GAMMA)
    lab = excellent_tree_labeling(glued.tree)
    assert lab is not None
    assert lab.zeros == glued.zeros and lab.ones == glued.ones


def test_glue_corona_random_chains():
    # grow excellent trees by repeated gluing and confirm the carried
    # labels always match the characteristic labeling
    rng = random.Random(7)
    bases = [u for n in range(2, 5) for u in enumerate_trees(n)]
    for trial in range(8):
        cur = labeled_corona(rng.choice(bases))
        for step in range(3):
            part = labeled_corona(rng.choice(bases))
            u = rng.choice(list(iter_zeros(cur)))
            v = rng.choice(list(iter_zeros(part)))
            cur = glue_corona(cur, part, u, v)
        assert is_excellent(cur.tree, Param.GAMMA)
        lab = excellent_tree_labeling(cur.tree)
        assert lab is not None
        assert (lab.zeros, lab.ones) == (cur.zeros, cur.ones)


def test_excellent_tree_labeling_properties():
    lab = excellent_tree_labeling(path(7))
    assert lab is not None
    assert lab.zeros.bit_count() == 3
    assert satisfies(path(7), lab.zeros, Param.GAMMA)
    assert excellent_tree_labeling(path(6)) is None
    assert excellent_tree_labeling(star(4)) is None
    with pytest.raises(ValueError):
        excellent_tree_labeling(cycle(5))
    with pytest.raises(ValueError):
        excellent_tree_labeling(path(3))


def test_labeling_exists_iff_excellent():
    for n in range(4, 10):
        for t in enumerate_trees(n):
            lab = excellent_tree_labeling(t)
            assert (lab is not None) == is_excellent(t, Param.GAMMA)
            if lab is not None:
                assert lab.zeros.bit_count() == min_sets(t, Param.GAMMA).value
                # every leaf is labeled 0
                assert leaves_mask(t) & lab.ones == 0


def test_tree_family_prediction_examples():
    want_p4 = tuple(canonical_key(edgeless(r)) for r in (1, 2))
    assert tree_family_prediction(path(4)) == want_p4
    assert tree_family_prediction(path(7)) == (canonical_key(edgeless(1)),)
    with pytest.raises(ValueError):
        tree_family_prediction(path(6))
    with pytest.raises(ValueError):
        tree_family_prediction(cycle(6))


def test_tree_family_prediction_matches_computation():
    for n in range(4, 11):
        for t in enumerate_trees(n):
            if not is_excellent(t, Param.GAMMA):
                continue
            fam = excellent_family(t, Param.GAMMA)
            assert fam.members == tree_family_prediction(t)


def test_report_shape():
    lc = labeled_corona(path(2))
    rep = lc.report()
    assert set(rep) == {"graph6", "zeros"}
    assert rep["zeros"] == hex(lc.zeros)
