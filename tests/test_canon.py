"""Canonical keys, isomorphism, induced copies, tree keys."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domexc.canon import (
    CANON_CAP,
    IsoKey,
    are_isomorphic,
    automorphisms,
    canonical_key,
    induced_copies,
    iter_induced_copies,
    tree_key,
)
from domexc.catalog import generate_all_graphs
from domexc.graph6 import to_graph6
from domexc.graphs import (
    cartesian_product,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    edgeless,
    path,
)
from domexc.trees import enumerate_trees

from helpers import random_graph, shuffled
from oracles import brute_copies, brute_key


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2**21 - 1), st.integers(0, 10**6))
def test_canonical_key_relabel_invariant(n, bits, seed):
    g = random_graph(n, bits)
    assert canonical_key(g) == canonical_key(shuffled(g, seed))


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12), st.integers(0, 2**66 - 1), st.integers(0, 10**6))
def test_canonical_key_relabel_invariant_larger(n, bits, seed):
    g = random_graph(n, bits)
    assert canonical_key(g) == canonical_key(shuffled(g, seed))


def test_canonical_key_is_canonical_form():
    # the key decodes to an isomorphic graph whose own key is itself
    g = shuffled(cycle(9), 5)
    key = canonical_key(g)
    rep = key.graph()
    assert are_isomorphic(rep, g)
    assert canonical_key(rep) == key


def test_canonical_key_is_lex_min_small_orders():
    # catalog order, family order and golden graph6 strings rest on the exact bits
    for n in range(1, 7):
        for g in generate_all_graphs(n):
            want = brute_key(g)
            for seed in (1, 2):
                assert canonical_key(shuffled(g, seed)).bits == want


SYMMETRIC = {
    "C8": cycle(8),
    "2C4": disjoint_union([cycle(4), cycle(4)]),
    "Q3": cartesian_product(complete(2), cartesian_product(complete(2), complete(2))),
    "K4,4": complete_multipartite([4, 4]),
    "K2xK4": cartesian_product(complete(2), complete(4)),
    "co(K2xK4)": cartesian_product(complete(2), complete(4)).complement(),
    "E4+K4": disjoint_union([edgeless(4), complete(4)]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_key_is_lex_min_symmetric(name):
    # large automorphism groups drive the orbit pruning and the unwinding
    g = SYMMETRIC[name]
    want = brute_key(g)
    for seed in (0, 1, 2):
        assert canonical_key(shuffled(g, seed)).bits == want


def test_automorphisms_preserve_adjacency():
    for g in list(SYMMETRIC.values()) + [shuffled(cycle(9), 4), path(5), edgeless(3)]:
        for perm in automorphisms(g):
            assert sorted(perm) == list(range(g.n))
            for u, v in combinations(range(g.n), 2):
                assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v])


def test_exhaustive_small_orders():
    # keys induce exactly the isomorphism classes: 4 graphs on 3 vertices, 11 on 4
    for n, want in ((3, 4), (4, 11)):
        keys = set()
        for bits in range(1 << (n * (n - 1) // 2)):
            keys.add(canonical_key(random_graph(n, bits)))
        assert len(keys) == want


def test_are_isomorphic():
    assert are_isomorphic(cycle(6), shuffled(cycle(6), 3))
    assert not are_isomorphic(cycle(6), path(6))
    assert not are_isomorphic(complete(3), edgeless(3))
    # same degree sequence, different graphs
    a = disjoint_union([cycle(3), cycle(3)])
    b = cycle(6)
    assert not are_isomorphic(a, b)


def test_cap_enforced():
    with pytest.raises(ValueError):
        canonical_key(edgeless(CANON_CAP + 1))


def test_iso_key_graph6():
    key = canonical_key(complete(4))
    assert key.graph6() == "C~"
    assert isinstance(key, IsoKey)
    # graph6() encodes the key's bits directly; it must match the long way round
    for n in range(1, 8):
        for key in generate_all_graphs(n).keys:
            assert key.graph6() == to_graph6(key.graph())


def test_induced_copies_match_brute_force():
    cases = [
        (cycle(6), path(3)),
        (cycle(6), path(4)),
        (complete(5), complete(3)),
        (complete_multipartite([2, 2, 2]), cycle(4)),
        (random_graph(7, 0b101101110010101011011), path(4)),
        (random_graph(7, 0b101101110010101011011), complete(3)),
        (random_graph(7, 0b101101110010101011011), edgeless(3)),
        (path(5), disjoint_union([path(2), path(1)])),
    ]
    for g, pattern in cases:
        assert induced_copies(g, pattern) == brute_copies(g, pattern)


def test_induced_copies_counts():
    assert len(induced_copies(complete(5), complete(3))) == 10
    assert len(induced_copies(cycle(5), path(3))) == 5
    assert induced_copies(cycle(5), complete(3)) == []
    assert induced_copies(cycle(5), edgeless(1)) == [1, 2, 4, 8, 16]
    assert induced_copies(path(3), edgeless(0)) == [0]


def test_induced_copies_sorted_lazy_agreement():
    g = random_graph(7, 0b110010111010001100110)
    got = list(iter_induced_copies(g, path(3)))
    assert got == sorted(got) == induced_copies(g, path(3))


def test_pattern_cap():
    with pytest.raises(ValueError):
        induced_copies(complete(9), edgeless(9))


def test_tree_key_matches_canonical_classes():
    for n in range(1, 9):
        trees = enumerate_trees(n)
        tkeys = {tree_key(t) for t in trees}
        ckeys = {canonical_key(t) for t in trees}
        assert len(tkeys) == len(trees) == len(ckeys)
        for t in trees:
            assert tree_key(t) == tree_key(shuffled(t, 11))


def test_tree_key_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_key(cycle(4))
