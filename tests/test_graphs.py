"""Bitmask graph type and constructors."""

import random

import pytest

from domexc.canon import canonical_key
from domexc.catalog import generate_all_graphs
from domexc.graphs import (
    CapacityError,
    Graph,
    cartesian_product,
    coalescence,
    complete,
    complete_multipartite,
    corona1,
    cycle,
    disjoint_union,
    edgeless,
    fiber_mask,
    from_edges,
    lex_product,
    mask_of,
    path,
    product_layer,
    set_of,
)
from domexc.trees import enumerate_trees

from helpers import random_graph


def test_basic_constructors():
    assert edgeless(4).edge_count() == 0
    assert complete(5).edge_count() == 10
    assert path(6).edge_count() == 5
    assert cycle(6).edge_count() == 6
    assert path(1).n == 1
    assert complete(1).edges() == []


def test_degrees_and_edges():
    g = cycle(5)
    assert g.degrees() == (2, 2, 2, 2, 2)
    assert g.is_regular()
    assert g.is_regular(2)
    assert not g.is_regular(3)
    h = path(4)
    assert h.degree_sequence() == (2, 2, 1, 1)
    assert h.min_degree() == 1 and h.max_degree() == 2


def test_from_edges_validation():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])


def test_capacity_cap():
    with pytest.raises(CapacityError):
        edgeless(65)
    assert edgeless(64).n == 64


# builder -> (a build of order 65, a build of order 64); Graph itself enforces the cap
CAPACITY_BUILDS = {
    "with_vertex": (lambda: edgeless(64).with_vertex(1), lambda: edgeless(63).with_vertex(1)),
    "complete_multipartite": (
        lambda: complete_multipartite([32, 33]),
        lambda: complete_multipartite([32, 32]),
    ),
    "disjoint_union": (
        lambda: disjoint_union([cycle(32), cycle(33)]),
        lambda: disjoint_union([cycle(32), cycle(32)]),
    ),
    "corona1": (lambda: corona1(path(33)), lambda: corona1(path(32))),
    "cartesian_product": (
        lambda: cartesian_product(complete(5), complete(13)),
        lambda: cartesian_product(path(8), cycle(8)),
    ),
    "lex_product": (
        lambda: lex_product(path(2), [edgeless(32), edgeless(33)]),
        lambda: lex_product(path(2), [edgeless(32), edgeless(32)]),
    ),
    "coalescence": (
        lambda: coalescence([(cycle(33), 0), (cycle(33), 0)]).graph,
        lambda: coalescence([(cycle(33), 0), (cycle(32), 0)]).graph,
    ),
}


@pytest.mark.parametrize("name", list(CAPACITY_BUILDS))
def test_builders_capacity(name):
    over, at_cap = CAPACITY_BUILDS[name]
    with pytest.raises(CapacityError):
        over()
    assert at_cap().n == 64


def test_adjacency_symmetry_invariant():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for u in range(4):
        for v in range(4):
            assert g.has_edge(u, v) == g.has_edge(v, u)
    with pytest.raises(ValueError):
        Graph(2, (1, 0))


def test_masks():
    assert mask_of([0, 2, 5]) == 0b100101
    assert set_of(0b100101) == (0, 2, 5)
    assert set_of(0) == ()


def test_set_of_rejects_negative_masks():
    for mask in (-1, -2, -(1 << 64)):
        with pytest.raises(ValueError):
            set_of(mask)


def test_connectivity_and_components():
    assert cycle(7).is_connected()
    g = disjoint_union([path(2), path(3)])
    assert not g.is_connected()
    comps = g.components()
    assert len(comps) == 2
    assert comps[0] == 0b00011 and comps[1] == 0b11100
    assert g.connected_within(0b00011)
    assert not g.connected_within(0b01001)
    assert g.connected_within(0)


def test_is_tree():
    assert path(5).is_tree()
    assert not cycle(5).is_tree()
    assert not disjoint_union([path(2), path(2)]).is_tree()


def test_induced_and_delete():
    g = cycle(5)
    h = g.induced(0b00111)
    assert h.n == 3
    assert h.edge_count() == 2
    assert g.delete_vertex(0).n == 4
    assert g.delete_vertex(0).edge_count() == 3


def test_induced_and_delete_reject_outside_vertices():
    g = cycle(5)
    for mask in (1 << 5 | 1, 1 << 5, -1):
        with pytest.raises(ValueError):
            g.induced(mask)
    for v in (5, 7, -1):
        with pytest.raises(ValueError):
            g.delete_vertex(v)
    assert g.induced(0).n == 0
    assert g.induced(g.full_mask) == g


def test_delete_vertex_matches_induced():
    # the row splice is the induced subgraph on every other vertex, and valid
    rng = random.Random(25)
    for n in range(1, 65):
        density = (0.2, 0.5, 0.8)[n % 3]
        g = random_graph(n, sum(1 << b for b in range(n * (n - 1) // 2) if rng.random() < density))
        for v in range(n):
            h = g.delete_vertex(v)
            assert h == g.induced(g.full_mask & ~(1 << v))
            assert h == Graph(h.n, h.adj)


def _derived(g: Graph, rng: random.Random):
    """One result of each derived-graph operation on g, from seeded choices."""
    yield g.induced(rng.getrandbits(g.n))
    yield g.delete_vertex(rng.randrange(g.n))
    if g.non_edges():
        yield g.add_edge(*rng.choice(g.non_edges()))
    if g.n < 64:
        yield g.with_vertex(rng.getrandbits(g.n))
    yield g.complement()
    order = list(range(g.n))
    rng.shuffle(order)
    yield g.relabel(order)


def test_derived_graphs_pass_the_public_check():
    rng = random.Random(22)
    for n in range(1, 65):
        for _ in range(3):
            g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
            for h in _derived(g, rng):
                assert Graph(h.n, h.adj) == h
    # level-sequence trees and key graphs are built unchecked too
    for n in range(1, 13):
        for t in enumerate_trees(n):
            assert Graph(t.n, t.adj) == t and t.is_tree()
    for n in range(1, 8):
        for g in generate_all_graphs(n):
            h = canonical_key(g).graph()
            assert Graph(h.n, h.adj) == h


def test_complement():
    assert complete(4).complement().edge_count() == 0
    assert cycle(5).complement().edge_count() == 5
    g = path(4)
    assert g.complement().complement() == g


def test_relabel():
    g = path(3)
    h = g.relabel([2, 1, 0])
    assert h.has_edge(2, 1) and h.has_edge(1, 0) and not h.has_edge(0, 2)
    with pytest.raises(ValueError):
        g.relabel([0, 1])


def test_complete_multipartite():
    g = complete_multipartite([2, 3])
    assert g.n == 5
    assert g.edge_count() == 6
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    octa = complete_multipartite([2, 2, 2])
    assert octa.is_regular(4)


def test_disjoint_union_offsets():
    g = disjoint_union([cycle(3), cycle(4)])
    assert g.n == 7
    assert g.edge_count() == 7
    assert g.has_edge(0, 1) and g.has_edge(3, 4) and not g.has_edge(2, 3)


def test_corona_layout():
    # leaf for vertex v sits at index n + v
    g = corona1(path(3))
    assert g.n == 6
    assert g.edge_count() == 5
    for v in range(3):
        assert g.has_edge(v, 3 + v)
        assert g.degree(3 + v) == 1


def test_cartesian_product_structure():
    g = cartesian_product(complete(2), complete(3))
    assert g.n == 6
    assert g.edge_count() == 9
    assert g.is_regular(3)
    rook = cartesian_product(complete(3), complete(3))
    assert rook.is_regular(4)
    assert rook.edge_count() == 18


def test_product_layer_masks():
    g = complete(3)
    h = cycle(4)
    layer = product_layer(g, h, 0, 1)
    assert layer.bit_count() == h.n
    prod = cartesian_product(g, h)
    assert prod.connected_within(layer)
    assert prod.induced(layer).edge_count() == h.edge_count()


def test_lex_product_edge_count():
    base = path(3)
    fibers = [path(3), cycle(4), path(3)]
    g = lex_product(base, fibers)
    assert g.n == 10
    inner = sum(f.edge_count() for f in fibers)
    cross = 3 * 4 + 4 * 3
    assert g.edge_count() == inner + cross
    assert fiber_mask(fibers, 1) == 0b1111000
    with pytest.raises(ValueError):
        lex_product(base, [path(2), path(2)])


def test_coalescence_layout():
    merged = coalescence([(cycle(4), 1), (cycle(5), 0)])
    g = merged.graph
    assert g.n == 8
    assert merged.glued == 0
    assert g.degree(merged.glued) == 4
    assert g.edge_count() == 9
    # maps carry original vertices onto the merged numbering
    m0, m1 = merged.maps
    assert m0[1] == 0 and m1[0] == 0
    placed = sorted(m0.values()) + sorted(set(m1.values()) - {0})
    assert placed == list(range(8))
    with pytest.raises(ValueError):
        coalescence([(cycle(4), 1)])
