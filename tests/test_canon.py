"""Canonical keys, isomorphism, induced copies, tree keys."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domexc.canon
from domexc.canon import (
    CANON_CAP,
    IsoKey,
    MatchBudgetError,
    _lex_max_prefix,
    _lex_max_rows,
    are_isomorphic,
    canonical_key,
    induced_copies,
    iter_induced_copies,
    tree_key,
)
from domexc.catalog import generate_all_graphs, generate_regular
from domexc.graph6 import from_graph6, to_graph6
from domexc.graphs import (
    cartesian_product,
    complete,
    complete_multipartite,
    corona1,
    cycle,
    disjoint_union,
    edgeless,
    from_edges,
    path,
)
from domexc.trees import enumerate_trees

from helpers import hypercube, kneser, paley, random_graph, shuffled
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
    # as built, unwinding at every parting depth of a tie loses the minimum
    "FsX_o": from_graph6("FsX_o"),
    "4K2": disjoint_union([complete(2)] * 4),
    "K2,2,2,2": complete_multipartite([2, 2, 2, 2]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_key_is_lex_min_symmetric(name):
    # large automorphism groups: ties unwind often, and twins are skipped
    g = SYMMETRIC[name]
    want = brute_key(g)
    assert canonical_key(g).bits == want
    for seed in (0, 1, 2):
        assert canonical_key(shuffled(g, seed)).bits == want


ORDER_12 = {
    **{f"corona1(T6#{i})": corona1(t) for i, t in enumerate(enumerate_trees(6))},
    "6K2": disjoint_union([complete(2)] * 6),
    "4K3": disjoint_union([complete(3)] * 4),
    "3K4": disjoint_union([complete(4)] * 3),
    "K2,2,2,2,2,2": complete_multipartite([2] * 6),
    "K3xK4": cartesian_product(complete(3), complete(4)),
    "C12": cycle(12),
    # vertex-transitive with many ties: each relabelling unwinds along its
    # own parting depths, and every one must reach the same key
    "C3xC4": cartesian_product(cycle(3), cycle(4)),
}


@pytest.mark.parametrize("name", sorted(ORDER_12))
def test_canonical_key_order_12_symmetric(name):
    # past brute force: invariance under relabelling and a fixed representative
    g = ORDER_12[name]
    key = canonical_key(g)
    for seed in range(5):
        assert canonical_key(shuffled(g, seed)) == key
    assert canonical_key(key.graph()) == key


CIRCULANTS = [
    from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])
    for n in range(5, 13)
    for size in range(1, n // 2 + 1)
    for steps in combinations(range(1, n // 2 + 1), size)
]


def test_canonical_key_circulants():
    # vertex-transitive: no block separates the first vertices, so unwinding
    # on ties and the twin rule do all of the symmetry pruning; a tie that
    # unwound without fixing the cells would miss the minimum on C12(2,5)
    assert len(CIRCULANTS) == 172
    for i, g in enumerate(CIRCULANTS):
        key = canonical_key(g)
        for seed in range(3):
            assert canonical_key(shuffled(g, 100 * i + seed)) == key
        assert canonical_key(key.graph()) == key


def _bits_digest(keys) -> str:
    return hashlib.sha256(",".join(str(k.bits) for k in keys).encode()).hexdigest()


# sha256 of the comma-joined IsoKey.bits, recorded before the lex-min search
# held its placed prefix as cells; catalogs list their keys in catalog order
KEY_SHA256 = {
    "regular(9,4)": "e6e33c5144fe1246495bfcbab175b7584f0c91ab15033920c31124fee94c9b2a",
    "regular(10,4)": "a38349346e946d79682dd9a757c364343114e7661721b3bdfbaa99245209fc8c",
    "regular(11,4)": "96c2255e0929b046f8546b8e0b6da9858751603f4a73dfbf2f48edc7a1002926",
    "regular(12,3)": "cfea48d362cde9f45d39fae02f9b2ce4f3bbe5407f69144095735a3e6d6f2e18",
    "connected-regular(10,3)": "40b58102965c60fcfd08190348caef86482e4bbbcfe43d5cd50b2121e4907554",
    "random(9..12)": "9eaff6cfc731d773e224800d150856723f800fe4c40e2caeaa1637a829e2c578",
}


def _keys_for(spec: str):
    if spec == "random(9..12)":
        rng = random.Random(17)
        graphs = []
        for _ in range(200):
            n = rng.randint(9, 12)
            graphs.append(random_graph(n, rng.getrandbits(n * (n - 1) // 2)))
        return [canonical_key(g) for g in graphs]
    kind, args = spec.rstrip(")").split("(")
    n, k = map(int, args.split(","))
    return generate_regular(n, k, connected_only=kind == "connected-regular").keys


@pytest.mark.parametrize("spec", sorted(KEY_SHA256))
def test_key_bits_pinned(spec):
    assert _bits_digest(_keys_for(spec)) == KEY_SHA256[spec]


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


def shrikhande():
    """Cayley graph of Z4 x Z4 on the connection set +-(0,1), +-(1,0), +-(1,1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    cells = [(a, b) for a in range(4) for b in range(4)]
    edges = [
        (i, j)
        for i, (a, b) in enumerate(cells)
        for j, (c, d) in enumerate(cells)
        if i < j and ((c - a) % 4, (d - b) % 4) in steps
    ]
    return from_edges(16, edges)


def test_are_isomorphic_strongly_regular_pair():
    # both srg(16, 6, 2, 2): no invariant of degrees or common neighbours splits them
    rook = cartesian_product(complete(4), complete(4))
    shrik = shrikhande()
    assert not are_isomorphic(rook, shrik)
    assert not are_isomorphic(shuffled(shrik, 7), rook)
    assert are_isomorphic(rook, shuffled(rook, 3))
    assert are_isomorphic(shrik, shuffled(shrik, 4))


def test_are_isomorphic_beyond_canonical_cap():
    rng = random.Random(13)
    for n in range(13, 21):
        g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
        assert not g.is_tree()
        assert are_isomorphic(g, shuffled(g, n))
    big = random_graph(64, rng.getrandbits(64 * 63 // 2))
    assert are_isomorphic(big, shuffled(big, 64))


def to_nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def swapped(g):
    # a degree-preserving double-edge swap, if one applies
    for (a, b), (c, d) in combinations(g.edges(), 2):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(b, c):
            rest = [e for e in g.edges() if e not in ((a, b), (c, d))]
            return from_edges(g.n, rest + [(a, d), (b, c)])
    return g


def test_are_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def networkx_answer(g, h):
        # complements share their isomorphisms, and VF2 is quicker on the sparser
        if 2 * g.edge_count() > g.n * (g.n - 1) // 2:
            g, h = g.complement(), h.complement()
        a, b = to_nx(g), to_nx(h)
        # VF2 can take minutes to refute a swapped regular pair that 4-cycle counts tell apart
        if sorted(nx.square_clustering(a).values()) != sorted(nx.square_clustering(b).values()):
            return False
        return GraphMatcher(a, b).is_isomorphic()

    rng = random.Random(6)
    pairs = [(cycle(12), disjoint_union([cycle(5), cycle(7)]))]
    for _ in range(150):
        n = rng.randint(5, 14)
        g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
        pairs.append((g, shuffled(swapped(g) if rng.random() < 0.5 else g, rng.random())))
    # vertex-transitive graphs of order 29-64
    torus = cartesian_product(cycle(8), cycle(8))
    for g in (paley(29), torus, kneser(8, 3), hypercube(6).complement()):
        pairs += [(g, shuffled(g, g.n)), (g, shuffled(swapped(g), g.n + 1))]
    answers = set()
    for g, h in pairs:
        want = networkx_answer(g, h)
        assert are_isomorphic(g, h) == want
        answers.add(want)
    assert answers == {True, False}


def test_are_isomorphic_matches_canonical_keys_small_orders():
    for n in range(1, 7):
        graphs = list(generate_all_graphs(n))
        keys = [canonical_key(g) for g in graphs]
        relabelled = [shuffled(g, i) for i, g in enumerate(graphs)]
        for g, kg in zip(graphs, keys):
            for h, kh in zip(relabelled, keys):
                assert are_isomorphic(g, h) == (kg == kh)


def test_cycle_unions_share_a_bucket():
    # 2-regular, no triangles, two vertices at distance 2: three classes,
    # at the cap and above it
    for parts in ([[12], [6, 6], [5, 7]], [[14], [7, 7], [5, 9]]):
        graphs = [disjoint_union([cycle(k) for k in p]) for p in parts]
        keys = [canonical_key(g) for g in graphs]
        assert len(set(keys)) == len(graphs)
        assert [canonical_key(shuffled(g, 9)) for g in graphs] == keys


def test_match_budget(monkeypatch):
    # up to CANON_CAP a key has no budget; above it, a spent budget is a typed error
    monkeypatch.setattr(domexc.canon, "MATCH_BUDGET", 2)
    assert are_isomorphic(cycle(12), shuffled(cycle(12), 1))
    assert not are_isomorphic(cycle(12), disjoint_union([cycle(5), cycle(7)]))
    with pytest.raises(MatchBudgetError, match="exceeded 2 search nodes"):
        are_isomorphic(shrikhande(), cartesian_product(complete(4), complete(4)))
    with pytest.raises(MatchBudgetError, match="exceeded 2 search nodes"):
        canonical_key(cycle(CANON_CAP + 1))
    assert issubclass(MatchBudgetError, ValueError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: hypercube(6).complement(),
        lambda: kneser(8, 3),
        lambda: paley(29),
        lambda: cartesian_product(cycle(8), cycle(8)),
        lambda: path(64),
    ],
    ids=["co-Q6", "K(8,3)", "Paley(29)", "C8xC8", "P64"],
)
def test_canonical_key_above_cap_relabel_invariant(build):
    # above CANON_CAP the key is the triangle bits of the lex-max labelling
    g = build()
    key = canonical_key(g)
    assert key.graph().adj == _lex_max_rows(g)
    assert canonical_key(key.graph()) == key
    for seed in range(3):
        assert canonical_key(shuffled(g, seed)) == key


# labellings that are lex-max among those with vertex 0 first, of a
# 5-regular graph of order 20 and an 8-regular graph of order 21, each less
# one edge (from a seeded search over circulants and Cayley graphs of
# Z_a x Z_b). A relabelling with another first vertex beats each, and ties
# kept below vertex 0 that move that first vertex map the branch it needs
# onto one already searched there
LEX_MAX_TRAPS = ["SsaBA`GP@_DIGODhAOOWPAE_C_GEOG@cc", "T}iS[A@WqpHGPhPUEg``cJHSaj_uIgdx?LYo"]


def test_exact_test_prunes_only_by_ties_fixing_the_prefix():
    # pruning by every kept tie accepts both labellings
    for g6 in LEX_MAX_TRAPS:
        g = from_graph6(g6)
        assert _lex_max_prefix(list(g.adj), g.n - 1) is not True
        assert _lex_max_rows(g) != g.adj
        assert canonical_key(g) == canonical_key(shuffled(g, 1))


def test_canonical_key_above_cap_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(28)
    pairs = [(cycle(14), disjoint_union([cycle(7), cycle(7)]))]
    for _ in range(60):
        n = rng.randint(CANON_CAP + 1, 24)
        g = random_graph(n, rng.getrandbits(n * (n - 1) // 2))
        pairs.append((g, shuffled(swapped(g) if rng.random() < 0.5 else g, rng.random())))
    answers = set()
    for g, h in pairs:
        want = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_key(g) == canonical_key(h)) == want
        answers.add(want)
    assert answers == {True, False}


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
    # patterns larger than the host, one needing a key and one edgeless
    assert induced_copies(path(3), cycle(4)) == induced_copies(path(3), edgeless(4)) == []


def test_induced_copies_sorted_lazy_agreement():
    g = random_graph(7, 0b110010111010001100110)
    got = list(iter_induced_copies(g, path(3)))
    assert got == sorted(got) == induced_copies(g, path(3))


def _copy_hosts(rng, orders, count):
    """Seeded relabelled hosts: sparse, mid and dense, connected or split in two."""
    hosts = []
    for i in range(count):
        n = rng.choice(orders)
        density = (0.2, 0.5, 0.8)[i % 3]
        bits = sum(1 << b for b in range(n * (n - 1) // 2) if rng.random() < density)
        g = random_graph(n, bits)
        if i % 2:
            cut = rng.randrange(1, n)
            g = disjoint_union([g.induced((1 << cut) - 1), g.induced(g.full_mask >> cut << cut)])
        hosts.append(shuffled(g, rng.randrange(1 << 30)))
    return hosts


def _check_copies(g, pattern):
    want = brute_copies(g, pattern)
    got = induced_copies(g, pattern)
    assert got == want and got == sorted(set(got)), (to_graph6(g), to_graph6(pattern))
    gen = iter_induced_copies(g, pattern)
    assert next(gen, None) == (want[0] if want else None)
    gen.close()


def test_induced_copies_oracle_small_patterns():
    rng = random.Random(24)
    hosts = _copy_hosts(rng, range(5, 11), 9)
    for p in range(1, 6):
        for key in generate_all_graphs(p).keys:
            pattern = shuffled(key.graph(), rng.randrange(1 << 30))
            for g in hosts:
                _check_copies(g, pattern)


def test_induced_copies_oracle_larger_patterns():
    rng = random.Random(25)
    # structured hosts too, so that every pattern below has copies somewhere
    structured = [
        cartesian_product(cycle(3), cycle(4)),
        cartesian_product(path(3), path(4)),
        complete_multipartite([3, 3, 4]),
        disjoint_union([cycle(8), complete(3), edgeless(1)]),
        corona1(path(6)),
    ]
    hosts = _copy_hosts(rng, range(9, 13), 6) + [shuffled(h, rng.randrange(1 << 30)) for h in structured]
    patterns = [
        path(6),
        cycle(6),
        complete(6),
        edgeless(6),
        disjoint_union([complete(3), path(3)]),
        complete_multipartite([2, 2, 3]),
        disjoint_union([path(4), edgeless(3)]),
        cycle(8),
        disjoint_union([complete(2)] * 4),
    ]
    for pattern in patterns:
        pattern = shuffled(pattern, rng.randrange(1 << 30))
        for g in hosts:
            _check_copies(g, pattern)


def test_induced_copies_share_one_shape_dict():
    # one dict across patterns of every order: a shape is known by its order
    # and its bits together, as orders 3 and 4 share bit strings
    rng = random.Random(26)
    hosts = _copy_hosts(rng, range(8, 13), 20)
    patterns = [key.graph() for p in range(1, 7) for key in generate_all_graphs(p).keys]
    for j, g in enumerate(hosts):
        shapes = {}
        for i, pattern in enumerate(patterns):
            shared = list(iter_induced_copies(g, pattern, shapes=shapes))
            assert shared == induced_copies(g, pattern), (to_graph6(g), to_graph6(pattern))
            # the oracle is slow: each pattern meets it on a quarter of the hosts
            if (i + j) % 4 == 0:
                assert shared == brute_copies(g, pattern), (to_graph6(g), to_graph6(pattern))


# sha256 of the induced_copies masks, recorded while every p-set was scanned:
# every graph of order 6 as host against every pattern of order 3 and 4
COPIES_SHA256 = "b8a757f20d3921847064455dfa746b90089b9f6f3be21220f05c92794712f584"


def test_induced_copies_pinned():
    patterns = [key.graph() for p in (3, 4) for key in generate_all_graphs(p).keys]
    rows = [
        ",".join(map(str, induced_copies(g, h)))
        for g in generate_all_graphs(6).graphs
        for h in patterns
    ]
    assert hashlib.sha256(";".join(rows).encode()).hexdigest() == COPIES_SHA256


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
