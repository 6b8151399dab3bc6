"""Excellence, pattern excellence, and excellent families."""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from domexc.canon import canonical_key, induced_copies
from domexc.catalog import generate_all_graphs, generate_regular
from domexc.domination import PARAM_IDS, Param, ParameterUndefinedError, min_sets
from domexc.excellence import (
    _set_index,
    describe_pattern,
    excellent_family,
    family_names,
    is_excellent,
    is_pattern_excellent,
    sets_union,
)
from domexc.graph6 import to_graph6
from domexc.graphs import (
    cartesian_product,
    complete,
    cycle,
    disjoint_union,
    edgeless,
    from_edges,
    path,
)
from helpers import random_graph
from oracles import (
    atlas,
    atlas_index,
    brute,
    brute_copies,
    brute_excellent,
    brute_family,
    pattern_conditions,
    to_networkx,
)


def test_is_excellent_basics():
    assert is_excellent(cycle(4), Param.GAMMA)
    assert not is_excellent(path(3), Param.GAMMA)
    assert is_excellent(path(4), Param.GAMMA)
    assert is_excellent(complete(5), Param.GAMMA)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**15 - 1))
def test_is_excellent_matches_oracle(n, bits):
    g = random_graph(n, bits)
    assert is_excellent(g, Param.GAMMA) == brute_excellent(g, "gamma")


def test_pattern_excellence_conditions_by_hand():
    # C7 and the one-edge pattern: every edge lies in one of the 14
    # optimal triples and every vertex lies in such an edge
    g = cycle(7)
    res = min_sets(g, Param.GAMMA)
    edges = induced_copies(g, complete(2))
    for copy in edges:
        assert any(copy & ~d == 0 for d in res.sets)
    covered = 0
    for copy in edges:
        covered |= copy
    assert covered == g.full_mask
    assert is_pattern_excellent(g, complete(2), Param.GAMMA)


def test_pattern_excellence_condition_two_fails():
    # C6: gamma-sets are the two antipodal triples; an edge fits in neither
    g = cycle(6)
    assert not is_pattern_excellent(g, complete(2), Param.GAMMA)


def test_pattern_excellence_condition_one_fails():
    # K1 + K2: the lone vertex belongs to no edge although each optimal
    # set that holds an edge copy would need one through every vertex
    g = disjoint_union([edgeless(1), complete(2)])
    assert not is_pattern_excellent(g, complete(2), Param.GAMMA)
    assert is_pattern_excellent(g, edgeless(1), Param.GAMMA)


def test_pattern_rejects_empty():
    with pytest.raises(ValueError):
        is_pattern_excellent(cycle(4), edgeless(0), Param.GAMMA)


def test_family_known_cycles():
    fam = excellent_family(cycle(7), Param.GAMMA)
    assert fam.excellent and fam.value == 3
    assert family_names(fam) == ["K1", "E2", "K2", "E3"]
    fam = excellent_family(cycle(7), Param.IND_DOM)
    assert family_names(fam) == ["K1", "E2", "E3"]
    fam = excellent_family(cycle(6), Param.GAMMA)
    assert family_names(fam) == ["K1"]


def test_family_not_excellent_is_empty():
    fam = excellent_family(path(3), Param.GAMMA)
    assert not fam.excellent
    assert fam.members == ()
    assert family_names(fam) == []


@pytest.mark.parametrize(
    "g", [edgeless(9), disjoint_union([cycle(5)] * 5)], ids=["E9", "5C5"]
)
def test_family_past_pattern_cap_raises_before_keying(monkeypatch, g):
    calls = []

    def counted(h):
        calls.append(h)
        return canonical_key(h)

    monkeypatch.setattr("domexc.excellence.canonical_key", counted)
    with pytest.raises(ValueError, match="pattern order 9 exceeds the cap 8"):
        excellent_family(g, Param.GAMMA)
    assert calls == []


def test_family_past_pattern_cap_not_excellent_is_no_error():
    fam = excellent_family(path(27), Param.GAMMA)
    assert (fam.excellent, fam.value, fam.members) == (False, 9, ())


def test_family_members_sorted_by_order_then_edges():
    fam = excellent_family(cycle(10), Param.GAMMA)
    sizes = [(k.n, k.graph().edge_count()) for k in fam.members]
    assert sizes == sorted(sizes)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**15 - 1), st.sampled_from(["gamma", "i", "gamma_t"]))
def test_family_invariants(n, bits, pid):
    # membership of the single vertex pattern tracks excellence and no
    # member exceeds the parameter value
    g = random_graph(n, bits)
    par = Param.from_id(pid)
    try:
        fam = excellent_family(g, par)
    except Exception as exc:
        from domexc.domination import ParameterUndefinedError

        assert isinstance(exc, ParameterUndefinedError)
        return
    single = canonical_key(edgeless(1))
    assert (single in fam.members) == fam.excellent
    assert all(k.n <= fam.value for k in fam.members)
    if not fam.excellent:
        assert fam.members == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**15 - 1))
def test_identical_set_collections_identical_families(n, bits):
    # whenever two parameters share their optimal set collections the
    # families must agree member for member
    g = random_graph(n, bits)
    res_g = min_sets(g, Param.GAMMA)
    res_i = min_sets(g, Param.IND_DOM)
    if res_g.sets == res_i.sets:
        fam_g = excellent_family(g, Param.GAMMA, result=res_g)
        fam_i = excellent_family(g, Param.IND_DOM, result=res_i)
        assert fam_g.members == fam_i.members


def test_witness_certificates():
    g = cycle(7)
    res = min_sets(g, Param.GAMMA)
    fam = excellent_family(g, Param.GAMMA, result=res)
    for key, per_vertex in zip(fam.members, fam.witness):
        assert len(per_vertex) == g.n
        for x, cert in enumerate(per_vertex):
            copy, home = cert
            assert copy >> x & 1
            assert copy & ~home == 0
            assert home in res.sets
            assert canonical_key(g.induced(copy)) == key


def test_witness_is_smallest_copy_in_first_home():
    # witness[j][x]: the smallest copy of member j holding x, and the first
    # optimal set, in result order, holding that copy; found here by a scan
    # under every parameter, whose set orders differ
    for pid in PARAM_IDS:
        par = Param.from_id(pid)
        for n in range(1, 7):
            for g in generate_all_graphs(n):
                try:
                    res = min_sets(g, par)
                except ParameterUndefinedError:
                    continue
                fam = excellent_family(g, par, result=res)
                for key, per_vertex in zip(fam.members, fam.witness):
                    copies = brute_copies(g, key.graph())
                    for x, cert in enumerate(per_vertex):
                        copy = min(c for c in copies if c >> x & 1)
                        home = next(d for d in res.sets if copy & ~d == 0)
                        assert cert == (copy, home)


def test_set_index_is_membership_by_position():
    # rows that cross byte boundaries, set counts that do not fill a byte, no sets
    rng = random.Random(25)
    for n in (1, 7, 8, 9, 17, 64):
        for count in (0, 1, 7, 8, 9, 100):
            sets = [rng.getrandbits(n) for _ in range(count)]
            want = [sum(1 << i for i, d in enumerate(sets) if d >> x & 1) for x in range(n)]
            assert _set_index(edgeless(n), sets) == want


def test_sets_union():
    assert sets_union([0b001, 0b100]) == 0b101
    assert sets_union([]) == 0


def test_describe_pattern_names():
    assert describe_pattern(edgeless(1)) == "K1"
    assert describe_pattern(edgeless(3)) == "E3"
    assert describe_pattern(complete(4)) == "K4"
    assert describe_pattern(path(4)) == "P4"
    assert describe_pattern(cycle(5)) == "C5"
    assert describe_pattern(disjoint_union([edgeless(1), complete(2)])) == "K1+K2"
    assert describe_pattern(disjoint_union([edgeless(2), complete(2)])) == "E2+K2"
    assert describe_pattern(disjoint_union([complete(3), edgeless(1)])) == "K1+K3"
    # unnamed shapes fall back to graph6
    paw = from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert describe_pattern(paw) == "Cx"


def _family_oracle_cases():
    """Every graph of order <= 5 and a seeded sample of orders 6 and 7 under
    all eight parameters, then claim-table graphs, the cycle unions among
    them, under gamma and i."""
    small = [from_edges(a.number_of_nodes(), a.edges()) for a in atlas()[1:52]]
    rng = random.Random(15)
    small += [random_graph(n, rng.getrandbits(n * (n - 1) // 2)) for n in (6, 7) for _ in range(12)]
    table = [disjoint_union([cycle(a), cycle(b)]) for a, b in ((5, 5), (6, 9), (7, 7))]
    table += [cartesian_product(complete(m), complete(n)) for m in (2, 3) for n in range(m, 6)]
    table += [cartesian_product(complete(3), complete(n)).complement() for n in (3, 4, 5)]
    yield from ((g, param) for g in small for param in Param)
    yield from ((g, param) for g in table for param in (Param.GAMMA, Param.IND_DOM))


def test_family_matches_independent_oracle():
    pytest.importorskip("networkx")
    for g, param in _family_oracle_cases():
        try:
            want = brute_family(g, param.id)
        except ValueError:
            # a total-type parameter on a graph with an isolated vertex
            with pytest.raises(ParameterUndefinedError):
                min_sets(g, param)
            continue
        got = sorted(atlas_index(k.graph()) for k in excellent_family(g, param).members)
        assert got == want, (g.adj, param)


# sha256 of [graph6, id, excellent, value, [[n, bits] of each member],
# witness] (or [graph6, id, null] where the parameter is undefined) for
# every parameter on every graph of order 7 or less; recorded when
# excellent_family began to reach its candidates by vertex deletion, and
# equal to the digest of the submask enumeration it replaced
FAMILY_SHA256 = "4422802d3fcfd0253f262c02e4a5002f1571533b9041a8770fd91afc0b468cd7"


def test_family_pinned_up_to_order_seven():
    rows = []
    for n in range(1, 8):
        for g in generate_all_graphs(n):
            for param in Param:
                try:
                    fam = excellent_family(g, param)
                except ParameterUndefinedError:
                    rows.append([to_graph6(g), param.id, None])
                    continue
                members = [[k.n, k.bits] for k in fam.members]
                witness = [[list(pair) for pair in w] for w in fam.witness]
                rows.append([to_graph6(g), param.id, fam.excellent, fam.value, members, witness])
    assert len(rows) == 1252 * len(Param)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == FAMILY_SHA256


def test_oracle_e3_fails_condition_two_in_complement_products():
    for n in (4, 5):
        g = cartesian_product(complete(3), complete(n)).complement()
        _, sets = brute(g, "gamma")
        assert pattern_conditions(g, edgeless(3), sets) == (True, False)


def test_oracle_three_four_regular_order_nine_k3_excellent():
    nx = pytest.importorskip("networkx")
    nine = generate_regular(9, 4)
    as_nx = [to_networkx(g) for g in nine]
    assert len(as_nx) == 16
    assert not any(nx.is_isomorphic(a, b) for i, a in enumerate(as_nx) for b in as_nx[i + 1 :])
    excellent = [
        h
        for g, h in zip(nine, as_nx)
        if all(pattern_conditions(g, complete(3), brute(g, "gamma")[1]))
    ]
    assert len(excellent) == 3
    rook = to_networkx(cartesian_product(complete(3), complete(3)))
    assert sum(nx.is_isomorphic(h, rook) for h in excellent) == 1
