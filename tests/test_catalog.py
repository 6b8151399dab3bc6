"""Catalog generation, persistence, and predicate search."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

import domexc.canon
from domexc import catalog, excellence
from domexc.canon import (
    _greedy_order,
    _lex_max_rows,
    are_isomorphic,
    canonical_key,
)
from domexc.catalog import (
    ALL_GRAPHS_CAP,
    Catalog,
    CatalogQuery,
    REGULAR_CAP,
    all_graph_classes,
    generate_all_graphs,
    generate_regular,
    load_catalog,
    regular_classes,
    save_catalog,
    search,
)
from domexc.domination import Param, ParameterUndefinedError, min_sets
from domexc.excellence import is_excellent, is_pattern_excellent
from domexc.graph6 import to_graph6
from domexc.graphs import Graph, complete, cycle, disjoint_union, path

from helpers import hypercube, kneser, random_graph, shuffled

ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]


def test_all_graphs_counts():
    for n, want in enumerate(ALL_COUNTS, start=1):
        assert len(generate_all_graphs(n)) == want
    for n, want in enumerate(CONNECTED_COUNTS, start=1):
        assert len(generate_all_graphs(n, connected_only=True)) == want


def test_all_graphs_isomorph_free():
    cat = generate_all_graphs(5)
    assert len(set(cat.keys)) == len(cat)
    assert list(cat.keys) == sorted(cat.keys)
    for g, key in zip(cat.graphs, cat.keys):
        assert canonical_key(g) == key


# sha256 of the graph6 lines `domexc gen` prints. Orders 1 and 2 and
# regular (10, 4), (10, 5) and (12, 3) were recorded before the generators
# skipped any extension, while they still keyed every labelled graph.
# Regular (9, 2), (10, 3), (11, 4) and the connected-regular entries were
# recorded while generate_regular still completed many labelled graphs per
# class and kept the first; the orderly generator must keep the same ones
CATALOG_SHA256 = {
    ("all", 1, False): "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    ("all", 1, True): "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    ("all", 2, False): "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    ("all", 2, True): "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9",
    # re-recorded when generate_all_graphs became orderly: each class is now
    # kept in its lex-max labelling, not the first graph grown from the
    # order below; its key list hashed the same before and after
    ("all", 3, False): "a1680d75ef87e824903a43a0f5a4c37577b6945842554674563d48ca3cc90e3d",
    ("all", 3, True): "e53a5e15924c562ea91b2e31166da62399d58c4af1027d8ef1aa54ab3235fac4",
    ("all", 4, False): "c1cc56ec6713ec87751c99609f10783e62c4137859fb06daf248e8fcdc0da6ad",
    ("all", 4, True): "0e985c9d32b5f7eae59993e5f23387776d3ba9c42f29e41031765976d9eb8cca",
    ("all", 5, False): "5eaf7eb55a2c9d41fa6b5e925c264b947173963881cb2532a1ad9a6bfc982948",
    ("all", 5, True): "f4c886efc955d94246e1333ba90edfeb2f6b641a79bbeaf09baed73ffff195bb",
    ("all", 6, False): "3e365ee5d78da2f7197158758d9e43a92e8437cdc0dad7a3bd3f2c3f9def1a27",
    ("all", 6, True): "3759f71a82414730d3db108cdffb4054d5bba4eee7febe42557563fe9905b4f6",
    ("regular", 8, 3): "456603852cf561dfbbeb80134e488e813a29e851e8e2f474bc58f7cfdd888e0d",
    ("regular", 9, 4): "bb7b37297cc5a36b97e237da3ccad94a789ee50464161beb47f14be305afa2fc",
    ("regular", 10, 4): "af12d708b047adb0ebc40434d234dfe05de419d4e215404a2e2a0da3434da239",
    ("regular", 10, 5): "5f4f0e60a73355a4bedbd03327929003abe496990e72047258ad5dd1bdb95f67",
    ("regular", 12, 3): "33c0c49664a449139b81f49300f02d65dcf3732a32c2ac4e4e48533715c6d19e",
    ("regular", 9, 2): "059f1a64e3607c4256860a578e1d70ac593e2fbfe00ae56f5578b6cc047c10c2",
    ("regular", 10, 3): "11e94514d0b008e86fa2274d0f17abe30b77cb999c2ae541817a832b425bdb59",
    ("regular", 11, 4): "c5f0facc60730af24537ff35bed9c39d1b1023e1de10fc484ecbe683e98c579c",
    ("connected-regular", 10, 3): "475c19257d42d57aa3e43adcf27746338c7273a49848cc5f6319278c7a25f929",
    ("connected-regular", 10, 5): "5f4f0e60a73355a4bedbd03327929003abe496990e72047258ad5dd1bdb95f67",
    ("connected-regular", 12, 3): "47494f735f03295b52eff6678eee9772f7c022c462fc93132c2d80ba544eb426",
}


@pytest.mark.parametrize("spec", sorted(CATALOG_SHA256))
def test_catalog_bytes_pinned(spec):
    kind, n, arg = spec
    if kind == "all":
        cat = generate_all_graphs(n, connected_only=arg)
    else:
        cat = generate_regular(n, arg, connected_only=kind == "connected-regular")
    text = "".join(to_graph6(g) + "\n" for g in cat.graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256[spec]


def test_all_graphs_match_networkx_atlas():
    # the atlas lists every graph of order 0 to 7 once, in its own labelling
    nx = pytest.importorskip("networkx")
    atlas: dict[int, list[Graph]] = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        adj = [0] * n
        for u, v in h.edges():
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        atlas.setdefault(n, []).append(Graph(n, tuple(adj)))
    assert sum(map(len, atlas.values())) == 1253
    for n in range(1, ALL_GRAPHS_CAP + 1):
        for connected in (False, True):
            want = [g for g in atlas[n] if not connected or g.is_connected()]
            cat = generate_all_graphs(n, connected_only=connected)
            assert len(cat) == len(want)
            assert set(cat.keys) == {canonical_key(g) for g in want}


def test_regular_counts():
    cases = {
        (4, 3): 1,
        (6, 3): 2,
        (8, 3): 6,
        (9, 4): 16,
        (10, 3): 21,
        (10, 5): 60,
        (11, 4): 266,
        (12, 3): 94,
    }
    for (n, k), want in cases.items():
        cat = generate_regular(n, k)
        assert len(cat) == want
        assert all(g.is_regular() and g.degree(0) == k for g in cat)
    assert len(generate_regular(8, 3, connected_only=True)) == 5
    assert len(generate_regular(10, 3, connected_only=True)) == 19


def lex_string(g: Graph, order) -> str:
    """Rows of g relabelled so that old vertex order[i] is new vertex i, column 0 first."""
    return "".join(
        "1" if g.adj[order[i]] >> order[j] & 1 else "0" for i in range(g.n) for j in range(g.n)
    )


def is_lex_max(g: Graph) -> bool:
    own = lex_string(g, range(g.n))
    return own == max(lex_string(g, p) for p in itertools.permutations(range(g.n)))


def test_regular_keeps_lex_max_labelling_oracle():
    # the orderly test relies on this: each class keeps its lex-max labelling
    # (rows compared in turn, column 0 first, 1 beating 0), the first of its
    # class that the decreasing-lex row search completes
    for n in range(1, 7):
        assert all(is_lex_max(g) for g in generate_all_graphs(n))
    for n in range(1, 8):
        level = [g for g in generate_all_graphs(n) if g.is_regular()]
        for k in range(n):
            if n * k % 2:
                continue
            cat = generate_regular(n, k)
            assert all(is_lex_max(g) for g in cat)
            want = {canonical_key(g) for g in level if g.degree(0) == k}
            assert set(cat.keys) == want


def beats_decided_rows(rows: list[int], v: int, order) -> bool:
    """True when relabelling by order makes rows 0..v larger than they are.

    Rows are compared in turn, column 0 first and 1 beating 0, while each
    belongs to a decided vertex (0..v): an undecided row is not yet known,
    so the comparison ends undecided there.
    """
    n = len(rows)
    for i in range(v + 1):
        x = order[i]
        if x > v:
            return False
        mine = [rows[i] >> j & 1 for j in range(n)]
        theirs = [rows[x] >> order[j] & 1 for j in range(n)]
        if theirs != mine:
            return theirs > mine
    return False


def test_lex_max_prefix_partial_oracle(monkeypatch):
    # the generators' row choices are plain combinations or any subset, so
    # the prefix test must reject every partial graph some relabelling beats;
    # rows 0..v are decided and the undecided vertices are joined only to
    # decided ones
    cases = [([10, 9, 0, 3], 2)]
    # every prefix the searches of generate_regular visit up to order 7,
    # tested or skipped where the next row has one option, and every leaf:
    # regular prefixes tie far more often than random ones, so they exercise
    # tie unwinding; then every prefix generate_all_graphs visits up to order 5
    visited = []
    tested = []

    def recorded(rows, v):
        tested.append(v)
        if v == len(rows) - 1:
            visited.append((rows.copy(), v))
        return lex_max_prefix(rows, v)

    def visiting(n, row_options):
        def options(rows, v):
            if v:
                visited.append((rows.copy(), v - 1))
            return row_options(rows, v)

        return orderly(n, options)

    lex_max_prefix = catalog._lex_max_prefix
    orderly = catalog._orderly
    per_order = []
    with monkeypatch.context() as m:
        m.setattr(catalog, "_lex_max_prefix", recorded)
        m.setattr(catalog, "_orderly", visiting)
        catalog._GENERATED.clear()
        for n in range(1, 8):
            for k in range(n):
                if n * k % 2 == 0:
                    generate_regular(n, k)
        assert len(visited) > 200
        for n in range(1, 6):
            before = len(tested)
            generate_all_graphs(n)
            per_order.append(len(tested) - before)
    # the tests made: rows 0..v-1 are tested only where row v has two options
    assert per_order == [1, 2, 10, 40, 160]
    cases += visited
    rng = random.Random(14)
    for _ in range(5000):
        n = rng.randint(1, 7)
        v = rng.randrange(n)
        rows = [0] * n
        for a in range(v + 1):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        cases.append((rows, v))
    rejected = 0
    for rows, v in cases:
        beaten = any(
            beats_decided_rows(rows, v, p) for p in itertools.permutations(range(len(rows)))
        )
        got = catalog._lex_max_prefix(rows, v)
        assert (got is True) == (not beaten), (rows, v)
        if beaten:
            # the rejecting prefix, completed greedily, is a relabelling that beats
            assert beats_decided_rows(rows, v, _greedy_order(rows, got)), (rows, v, got)
        rejected += beaten
    assert 0 < rejected < len(cases)


def test_lex_max_rows_oracle():
    # the identity's rows are the lex-max labelling, by brute force up to order 6
    for n in range(1, 7):
        for i, g in enumerate(generate_all_graphs(n)):
            for seed in (2 * i, 2 * i + 1):
                assert is_lex_max(Graph(n, _lex_max_rows(shuffled(g, seed))))
    # the generators keep each class in that labelling, so a relabelled copy
    # climbs back to the generated rows
    for cat in (generate_all_graphs(7), generate_regular(12, 4)):
        for i, g in enumerate(cat):
            assert _lex_max_rows(g) == _lex_max_rows(shuffled(g, i)) == g.adj
        assert len({g.adj for g in cat}) == len(cat)


def test_partial_prefix_tests_only_prune(monkeypatch):
    # with a seeded random quarter of the partial tests accepting, the
    # catalogs must not change: the partial tests, and the rule that skips
    # them where the next row has one option, only cut the search. (With
    # every partial test accepting, (9, 4) alone makes 1,484,856 exact
    # tests, about 40 s; with half of them, about 4 s.)
    specs = [(generate_all_graphs, (n,)) for n in range(1, 7)]
    specs += [(generate_regular, (n, k)) for n in range(1, 10) for k in range(n) if n * k % 2 == 0]
    lex_max_prefix = catalog._lex_max_prefix
    catalog._GENERATED.clear()
    want = [[g.adj for g in generate(*args)] for generate, args in specs]
    rng = random.Random(28)

    def some_skipped(rows, v):
        if v < len(rows) - 1 and rng.random() < 0.25:
            return True
        return lex_max_prefix(rows, v)

    with monkeypatch.context() as m:
        m.setattr(catalog, "_lex_max_prefix", some_skipped)
        catalog._GENERATED.clear()
        got = [[g.adj for g in generate(*args)] for generate, args in specs]
    catalog._GENERATED.clear()
    assert got == want

    tests = []

    def counted(rows, v):
        tests.append(v)
        return lex_max_prefix(rows, v)

    monkeypatch.setattr(catalog, "_lex_max_prefix", counted)
    assert len(generate_regular(10, 5)) == 60
    # 1,360 when every node tested its prefix
    assert len(tests) == 971


def test_regular_builds_one_graph_per_class(monkeypatch):
    # the orderly test prunes every labelled graph but one per class before
    # it is built (the search without it completes 2,883 here), and each
    # is keyed by its lex-min bits, so neither generator reaches the
    # lex-max climb; each leaf, built unchecked by the generator, passes
    # the public check here
    built = []

    def counted(*args):
        built.append(Graph(*args))
        return built[-1]

    def refused(g):
        raise AssertionError("a generator reached _lex_max_rows")

    monkeypatch.setattr(catalog, "_trusted", counted)
    monkeypatch.setattr(domexc.canon, "_lex_max_rows", refused)
    catalog._GENERATED.clear()
    cat = generate_regular(10, 5)
    assert len(cat) == 60
    assert len(built) == 60
    built.clear()
    assert len(generate_all_graphs(6)) == 156
    assert len(built) == 156


@pytest.mark.parametrize(
    "classes, generate, args, spec",
    [
        (all_graph_classes, generate_all_graphs, (5,), "all:n=5"),
        (regular_classes, generate_regular, (8, 3), "regular:n=8:k=3"),
    ],
    ids=["all", "regular"],
)
def test_catalog_built_once(monkeypatch, classes, generate, args, spec):
    # every call form of both functions shares one cache entry: the classes
    # of n (and k) are generated once, whether they or the catalog are asked
    # for first, and the full catalog keys and sorts those same graphs
    calls = []
    orderly = catalog._orderly

    def counted(n, *rest):
        calls.append(n)
        return orderly(n, *rest)

    def unkeyed():
        return [classes(*args), classes(*args, False), classes(*args, connected_only=False)]

    monkeypatch.setattr(catalog, "_orderly", counted)
    for classes_first in (True, False):
        calls.clear()
        catalog._GENERATED.clear()
        plain = unkeyed() if classes_first else None
        full = [generate(*args), generate(*args, False), generate(*args, connected_only=False)]
        connected = [generate(*args, True), generate(*args, connected_only=True)]
        plain = plain or unkeyed()
        in_order = tuple(g for g in plain[0] if g.is_connected())
        assert classes(*args, True) == classes(*args, connected_only=True) == in_order
        assert calls == [args[0]]
        assert full[0] is full[1] is full[2]
        assert plain[0] is plain[1] is plain[2]
        # sorting the classes by key gives the catalog, object for object
        assert list(map(id, sorted(plain[0], key=canonical_key))) == list(map(id, full[0].graphs))
        kept = [(g, key) for g, key in zip(full[0].graphs, full[0].keys) if g.is_connected()]
        for cat in connected:
            assert list(zip(cat.graphs, cat.keys)) == kept
            assert cat.source == f"generated:{spec}:connected=true"


def test_regular_edge_cases():
    assert len(generate_regular(5, 0)) == 1
    assert len(generate_regular(6, 5)) == 1
    assert to_graph6(generate_regular(6, 5).graphs[0]) == to_graph6(complete(6))
    # connected subsequences with no graph or one
    for n, k in ((4, 0), (6, 1)):
        cat = generate_regular(n, k, connected_only=True)
        assert isinstance(cat, Catalog) and cat.graphs == cat.keys == ()
        assert cat.source == f"generated:regular:n={n}:k={k}:connected=true"
    assert len(generate_regular(1, 0, True)) == len(generate_regular(2, 1, True)) == 1


def test_generation_caps():
    with pytest.raises(ValueError):
        generate_all_graphs(0)
    with pytest.raises(ValueError):
        generate_all_graphs(ALL_GRAPHS_CAP + 1)
    with pytest.raises(ValueError):
        generate_regular(REGULAR_CAP + 1, 4)
    with pytest.raises(ValueError):
        generate_regular(5, 5)
    with pytest.raises(ValueError):
        generate_regular(5, 3)


def test_catalog_validation():
    g = cycle(4)
    key = canonical_key(g)
    with pytest.raises(ValueError):
        Catalog("x", (g, g), (key, key))
    with pytest.raises(ValueError):
        Catalog("x", (g,), (key, key))
    # above order 12 too, a relabelled pair is one class
    a = path(13)
    b = shuffled(a, 1)
    with pytest.raises(ValueError, match="isomorphic duplicates"):
        Catalog("x", (a, b), (canonical_key(a), canonical_key(b)))


def test_save_load_roundtrip(tmp_path):
    cat = generate_all_graphs(4)
    target = tmp_path / "four.g6"
    save_catalog(cat, target)
    back = load_catalog(target)
    assert back.keys == cat.keys
    assert len(back) == len(cat)
    assert back.warnings == ()
    meta = json.loads((tmp_path / "four.g6.meta.json").read_text())
    assert meta["count"] == 11
    assert meta["source"] == cat.source
    assert meta["warnings"] == []


def test_load_reports_duplicates(tmp_path):
    f = tmp_path / "dups.g6"
    f.write_text("C~\nCl\nC~\n")
    cat = load_catalog(f)
    assert len(cat) == 2
    assert len(cat.warnings) == 1
    assert "line 3 duplicates line 1" in cat.warnings[0]


def test_load_detects_relabeled_duplicates(tmp_path):
    a = cycle(5)
    b = a.relabel((2, 0, 3, 1, 4))
    f = tmp_path / "relab.g6"
    f.write_text(to_graph6(a) + "\n" + to_graph6(b) + "\n")
    cat = load_catalog(f)
    assert len(cat) == 1
    assert cat.warnings and "duplicates line 1" in cat.warnings[0]


def test_load_error_carries_line_number(tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("C~\nC\n")
    with pytest.raises(Exception, match="line 2"):
        load_catalog(f)


def test_load_skips_header(tmp_path):
    f = tmp_path / "hdr.g6"
    f.write_text(">>graph6<<\nC~\n")
    assert len(load_catalog(f)) == 1


def test_load_beyond_canonical_cap(tmp_path):
    # above order 12 a relabelling is a duplicate too, as below it
    a = path(13)
    b = a.relabel((1, 0) + tuple(range(2, 13)))
    assert b.adj != a.adj
    f = tmp_path / "big.g6"
    f.write_text(to_graph6(a) + "\n" + to_graph6(a) + "\n" + to_graph6(b) + "\n")
    cat = load_catalog(f)
    assert cat.graphs == (a,)
    assert cat.warnings == (
        "line 2 duplicates line 1 up to isomorphism",
        "line 3 duplicates line 1 up to isomorphism",
    )


def test_load_relabelled_pair_beyond_canonical_cap(tmp_path):
    a = random_graph(13, 0x5D3C_9A61_7E42_B0F1_8C2D_35A9_E61F_07B4)
    b = shuffled(a, 13)
    c = a.complement()
    assert not a.is_tree() and b.adj != a.adj
    f = tmp_path / "big.g6"
    f.write_text("".join(to_graph6(g) + "\n" for g in (a, c, b)))
    cat = load_catalog(f)
    assert len(cat) == 2 and a in cat.graphs and c in cat.graphs
    assert cat.warnings == ("line 3 duplicates line 1 up to isomorphism",)
    assert canonical_key(b) == canonical_key(a) != canonical_key(c)
    assert list(cat.keys) == sorted(canonical_key(g) for g in (a, c))
    assert [canonical_key(g) for g in cat.graphs] == list(cat.keys)


@pytest.mark.parametrize(
    "build",
    [lambda: hypercube(6).complement(), lambda: kneser(8, 3), lambda: kneser(8, 3).complement()],
    ids=["co-Q6", "K(8,3)", "co-K(8,3)"],
)
def test_load_relabelled_vertex_transitive_pair(tmp_path, build):
    # dense vertex-transitive graphs of order 56 and 64: no vertex invariant
    # splits them, so the labelling search alone must decide the pair
    a = build()
    b = shuffled(a, 1)
    assert are_isomorphic(a, b)
    f = tmp_path / "pair.g6"
    f.write_text(to_graph6(a) + "\n" + to_graph6(b) + "\n")
    cat = load_catalog(f)
    assert cat.graphs == (a,)
    assert cat.warnings == ("line 2 duplicates line 1 up to isomorphism",)


def mixed_catalog_lines() -> list[str]:
    """Seeded graph6 lines of order 5-16: random graphs, cycles and cycle
    unions, their complements, relabellings, and repeats of all of these."""
    rng = random.Random(26)
    pool = []
    for n in range(5, 17):
        pool += [random_graph(n, rng.getrandbits(n * (n - 1) // 2)), cycle(n)]
        pool.append(disjoint_union([cycle(3), cycle(n - 3)]) if n >= 6 else cycle(n).complement())
    lines = []
    for _ in range(150):
        g = rng.choice(pool)
        if rng.random() < 0.4:
            g = g.complement()
        if rng.random() < 0.6:
            g = shuffled(g, rng.getrandbits(32))
        lines.append(to_graph6(g) + "\n")
    return lines


def test_load_catalog_bytes_pinned(tmp_path):
    # sha256 of the kept lines in catalog order, then the warnings. The kept
    # lines and warnings were recorded while a colour-refinement matcher
    # decided the duplicates; the order is canonical_key's at every order
    f = tmp_path / "mixed.g6"
    f.write_text("".join(mixed_catalog_lines()))
    cat = load_catalog(f)
    assert (len(cat), len(cat.warnings)) == (58, 92)
    text = "".join(to_graph6(g) + "\n" for g in cat.graphs)
    text += "".join(w + "\n" for w in cat.warnings)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ee9ca1d068e2135dd603a80e99c8e5cbd387a9ac8257d8a0439e49288edbb212"


def test_search_param_filter():
    cat = generate_all_graphs(4)
    want = [g for g in cat if min_sets(g, Param.GAMMA).value == 2]
    got = search(cat, CatalogQuery(param_values={"gamma": 2}))
    assert [m.graph for m in got] == want
    assert all(m.values["gamma"] == 2 for m in got)
    assert [cat.graphs[m.index] for m in got] == want


def test_search_excellence_and_structure():
    cat = generate_all_graphs(5, connected_only=True)
    got = search(cat, CatalogQuery(excellent_for="gamma", regular=True))
    want = [
        g
        for g in cat
        if g.is_regular() and is_excellent(g, Param.GAMMA)
    ]
    assert [m.graph for m in got] == want
    assert any(canonical_key(cycle(5)) == m.key for m in got)


def test_search_pattern_and_family():
    cat = generate_regular(9, 4)
    q = CatalogQuery(
        pattern=complete(3), pattern_param="gamma", connected=True, include_family=True
    )
    got = search(cat, q)
    assert len(got) == 3
    for m in got:
        assert m.family is not None and m.family.excellent
        assert canonical_key(complete(3)) in m.family.members


def test_search_solves_each_parameter_once_per_graph(monkeypatch):
    calls = Counter()

    def counted(g, param):
        calls[g, param] += 1
        return min_sets(g, param)

    monkeypatch.setattr(catalog, "min_sets", counted)
    monkeypatch.setattr(excellence, "min_sets", counted)
    cat = generate_regular(9, 4)
    q = CatalogQuery(
        param_values={"gamma": 3}, excellent_for="i", pattern=complete(3), include_family=True
    )
    got = search(cat, q)
    assert len(got) == 3
    assert all(m.values == {"gamma": 3, "i": 3} for m in got)
    assert all(canonical_key(complete(3)) in m.family.members for m in got)
    assert set(calls.values()) == {1}
    assert len(calls) == len(cat) + len(got)


def test_search_skips_graphs_with_undefined_parameter():
    # gamma_t is undefined on the graphs of order 4 with an isolated vertex
    cat = generate_all_graphs(4)

    def defined_and(pred):
        out = []
        for g in cat:
            try:
                res = min_sets(g, Param.TOTAL)
            except ParameterUndefinedError:
                continue
            if pred(g, res):
                out.append(g)
        return out

    queries = [
        (CatalogQuery(param_values={"gamma_t": 2}), lambda g, res: res.value == 2),
        (
            CatalogQuery(excellent_for="gamma_t"),
            lambda g, res: is_excellent(g, Param.TOTAL, result=res),
        ),
        (
            CatalogQuery(pattern=path(2), pattern_param="gamma_t"),
            lambda g, res: is_pattern_excellent(g, path(2), Param.TOTAL, result=res),
        ),
    ]
    for query, pred in queries:
        want = defined_and(pred)
        got = search(cat, query)
        assert want and [m.graph for m in got] == want
        assert all(not m.graph.isolated_vertices() for m in got)


def test_search_disconnected_clause():
    cat = generate_all_graphs(4)
    got = search(cat, CatalogQuery(connected=False))
    assert all(not m.graph.is_connected() for m in got)
    assert len(got) == 11 - 6


def test_query_validation():
    with pytest.raises(ValueError):
        CatalogQuery(param_values={"gamma2": 1})
    with pytest.raises(ValueError):
        CatalogQuery(excellent_for="domination")
    with pytest.raises(ValueError):
        CatalogQuery(pattern_param="nope")
