"""Registry of verifiable facts about domination excellence.

Each claim binds one recorded combinatorial fact about concrete small
graphs to an executable check returning (expected, computed, ok).
Claims carry suite tags: quick claims finish in well under a second
each, the paper suite is the full registry, and long claims are skipped
unless explicitly enabled. Reports are plain data with deterministic
ordering, so identical runs serialize identically.

Checks come in three shapes. The eight family claims are rows of
FAMILY_TABLE (label, graph builder, parameter id, expected member names)
read by one evaluator. A property checked over many graphs is a generator
yielding one line per failing case; _failures reports it as expected [],
computed those lines in order, ok when there are none. A value check
returns the triple itself.

Claims over catalogs iterate the generated classes (catalog.all_graph_classes
and catalog.regular_classes), which come in generation order and carry
no keys, and key only the graphs they report: _in_key_order sorts the
failing classes of one catalog by canonical_key, which is the order the
keyed Catalog lists them in, and the K3 hits of the regular claims are
keyed only where a report names or compares them. Counts and values need
no key at all.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial
from math import ceil
from typing import Callable

from .canon import canonical_key
from .catalog import all_graph_classes, regular_classes
from .domination import (
    Param,
    bound_checks,
    critical_split,
    is_edge_addition_critical,
    min_sets,
    param_value,
    satisfies,
)
from .graph6 import to_graph6
from .excellence import (
    excellent_family,
    family_names,
    is_excellent,
    is_pattern_excellent,
)
from .graphs import (
    Graph,
    cartesian_product,
    coalescence,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    edgeless,
    lex_product,
    path,
    set_of,
)
from .trees import (
    enumerate_trees,
    excellent_tree_labeling,
    leaves_mask,
    tree_family_prediction,
)

SUITES = ("quick", "paper", "long")


@dataclass(frozen=True)
class Claim:
    claim_id: str
    anchor: str
    quick: bool
    long: bool
    check: Callable


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    anchor: str
    status: str
    expected: object
    computed: object
    runtime: float | None

    def to_json(self) -> dict:
        return asdict(self)


def _names(g: Graph, param: Param) -> list[str]:
    return family_names(excellent_family(g, param))


def _failures(check: Callable) -> tuple[list, list[str], bool]:
    """Run a check that yields one line per failing case."""
    lines = list(check())
    return [], lines, lines == []


def _check_path_cycle_values():
    for n in range(1, 22):
        want = ceil(n / 3)
        for par in (Param.GAMMA, Param.IND_DOM):
            got = param_value(path(n), par)
            if got != want:
                yield f"path {n} {par.id}: {got} != {want}"
    for n in range(3, 22):
        got = param_value(cycle(n), Param.GAMMA)
        if got != ceil(n / 3):
            yield f"cycle {n} gamma: {got} != {ceil(n / 3)}"


def _check_cycle_excellence():
    for n in range(3, 22):
        for par in (Param.GAMMA, Param.IND_DOM):
            if not is_excellent(cycle(n), par):
                yield f"cycle {n} not excellent for {par.id}"


def _check_path_excellence():
    for n in range(1, 22):
        want = n == 2 or n % 3 == 1
        for par in (Param.GAMMA, Param.IND_DOM):
            got = is_excellent(path(n), par)
            if got != want:
                yield f"path {n} {par.id}: excellent={got}, want {want}"


def _complete_product(m: int, n: int) -> Graph:
    return cartesian_product(complete(m), complete(n))


def _co_product(m: int, n: int) -> Graph:
    return _complete_product(m, n).complement()


def _cycle_union(a: int, b: int) -> Graph:
    return disjoint_union([cycle(a), cycle(b)])


SIX_MEMBER = ["K1", "E2", "K2", "E3", "K1+K2", "K3"]

# claim id -> one row per case: (label, graph builder, parameter id, expected member names)
FAMILY_TABLE = {
    "path-families": [
        ("P1:gamma", partial(path, 1), "gamma", ["K1"]),
        ("P1:i", partial(path, 1), "i", ["K1"]),
        ("P2:gamma", partial(path, 2), "gamma", ["K1"]),
        ("P2:i", partial(path, 2), "i", ["K1"]),
        ("P4:gamma", partial(path, 4), "gamma", ["K1", "E2"]),
        ("P4:i", partial(path, 4), "i", ["K1", "E2"]),
        ("P7:gamma", partial(path, 7), "gamma", ["K1"]),
        ("P7:i", partial(path, 7), "i", ["K1"]),
        ("P10:gamma", partial(path, 10), "gamma", ["K1"]),
        ("P10:i", partial(path, 10), "i", ["K1"]),
    ],
    "cycle-families-domination": [
        ("C4", partial(cycle, 4), "gamma", ["K1", "E2", "K2"]),
        ("C5", partial(cycle, 5), "gamma", ["K1", "E2"]),
        ("C6", partial(cycle, 6), "gamma", ["K1"]),
        ("C7", partial(cycle, 7), "gamma", ["K1", "E2", "K2", "E3"]),
        ("C9", partial(cycle, 9), "gamma", ["K1"]),
        ("C10", partial(cycle, 10), "gamma", ["K1", "E2", "K2"]),
        ("C12", partial(cycle, 12), "gamma", ["K1"]),
        ("C13", partial(cycle, 13), "gamma", ["K1", "E2", "K2"]),
    ],
    "cycle-families-independent": [
        ("C4", partial(cycle, 4), "i", ["K1", "E2"]),
        ("C5", partial(cycle, 5), "i", ["K1", "E2"]),
        ("C6", partial(cycle, 6), "i", ["K1"]),
        ("C7", partial(cycle, 7), "i", ["K1", "E2", "E3"]),
        ("C9", partial(cycle, 9), "i", ["K1"]),
        ("C10", partial(cycle, 10), "i", ["K1", "E2"]),
        ("C12", partial(cycle, 12), "i", ["K1"]),
        ("C13", partial(cycle, 13), "i", ["K1", "E2"]),
    ],
    "cycle-union-families": [
        ("C5+C5", partial(_cycle_union, 5, 5), "gamma", ["K1", "E2", "E3", "E4"]),
        ("C6+C9", partial(_cycle_union, 6, 9), "gamma", ["K1"]),
        ("C7+C7", partial(_cycle_union, 7, 7), "gamma", ["K1", "E2", "K2", "E3", "E4", "E5", "E6"]),
        ("C10+C10", partial(_cycle_union, 10, 10), "gamma", ["K1", "E2", "K2"]),
    ],
    "complete-product-families": [
        ("K2xK2:gamma", partial(_complete_product, 2, 2), "gamma", ["K1", "E2", "K2"]),
        ("K2xK2:i", partial(_complete_product, 2, 2), "i", ["K1", "E2"]),
        ("K2xK2:beta0", partial(_complete_product, 2, 2), "beta0", ["K1", "E2"]),
        ("K2xK3:gamma", partial(_complete_product, 2, 3), "gamma", ["K1", "E2"]),
        ("K2xK3:i", partial(_complete_product, 2, 3), "i", ["K1", "E2"]),
        ("K2xK3:beta0", partial(_complete_product, 2, 3), "beta0", ["K1", "E2"]),
        ("K2xK4:gamma", partial(_complete_product, 2, 4), "gamma", ["K1", "E2"]),
        ("K2xK4:i", partial(_complete_product, 2, 4), "i", ["K1", "E2"]),
        ("K2xK4:beta0", partial(_complete_product, 2, 4), "beta0", ["K1", "E2"]),
        ("K3xK3:gamma", partial(_complete_product, 3, 3), "gamma", SIX_MEMBER),
        ("K3xK3:i", partial(_complete_product, 3, 3), "i", ["K1", "E2", "E3"]),
        ("K3xK3:beta0", partial(_complete_product, 3, 3), "beta0", ["K1", "E2", "E3"]),
        ("K3xK4:gamma", partial(_complete_product, 3, 4), "gamma", ["K1", "E2", "E3"]),
        ("K3xK4:i", partial(_complete_product, 3, 4), "i", ["K1", "E2", "E3"]),
        ("K3xK4:beta0", partial(_complete_product, 3, 4), "beta0", ["K1", "E2", "E3"]),
        ("K3xK5:gamma", partial(_complete_product, 3, 5), "gamma", ["K1", "E2", "E3"]),
        ("K3xK5:i", partial(_complete_product, 3, 5), "i", ["K1", "E2", "E3"]),
        ("K3xK5:beta0", partial(_complete_product, 3, 5), "beta0", ["K1", "E2", "E3"]),
        (
            "K4xK4:gamma",
            partial(_complete_product, 4, 4),
            "gamma",
            ["K1", "E2", "K2", "E3", "K1+K2", "K3", "E4", "E2+K2", "K1+K3", "K4"],
        ),
        ("K4xK4:i", partial(_complete_product, 4, 4), "i", ["K1", "E2", "E3", "E4"]),
        ("K4xK4:beta0", partial(_complete_product, 4, 4), "beta0", ["K1", "E2", "E3", "E4"]),
    ],
    "complement-product-families-base": [
        ("co(K3xK3)", partial(_co_product, 3, 3), "gamma", SIX_MEMBER),
        ("co(K4xK4)", partial(_co_product, 4, 4), "gamma", ["K1", "E2", "K2", "K1+K2", "K3"]),
    ],
    "complement-product-families-extended": [
        ("co(K3xK4)", partial(_co_product, 3, 4), "gamma", SIX_MEMBER),
        ("co(K3xK5)", partial(_co_product, 3, 5), "gamma", SIX_MEMBER),
    ],
    "multipartite-families": [
        ("K_2,2", partial(complete_multipartite, [2, 2]), "gamma", ["K1", "E2", "K2"]),
        ("K_2,2,2", partial(complete_multipartite, [2, 2, 2]), "gamma", ["K1", "E2", "K2"]),
        ("K_2,2,3", partial(complete_multipartite, [2, 2, 3]), "gamma", ["K1", "K2"]),
        ("K_2,3", partial(complete_multipartite, [2, 3]), "gamma", ["K1", "K2"]),
        ("K_3,3", partial(complete_multipartite, [3, 3]), "gamma", ["K1", "K2"]),
    ],
}


def _check_family_table(claim_id: str):
    expected = {}
    computed = {}
    for label, build, pid, names in FAMILY_TABLE[claim_id]:
        expected[label] = names
        computed[label] = _names(build(), Param.from_id(pid))
    return expected, computed, expected == computed


def _edgeless_names(m: int) -> list[str]:
    return ["K1"] + [f"E{r}" for r in range(2, m + 1)]


def _in_key_order(classes, failures: Callable):
    """The lines failures(g) yields for the classes of one catalog, in its key order.

    Only a class with a line is keyed; sorting those by canonical_key
    lists them as the keyed Catalog would.
    """
    failing = [(g, lines) for g in classes if (lines := list(failures(g)))]
    failing.sort(key=lambda item: canonical_key(item[0]))
    for _, lines in failing:
        yield from lines


def _edge_critical_misses(g: Graph):
    if g.edge_count() == g.n * (g.n - 1) // 2 or not is_edge_addition_critical(g):
        return
    res = min_sets(g, Param.GAMMA)
    for pat in (edgeless(1), edgeless(2)):
        if not is_pattern_excellent(g, pat, Param.GAMMA, result=res):
            yield f"{to_graph6(g)} misses E{pat.n}"


def _check_edge_critical_pairs():
    for n in range(2, 7):
        yield from _in_key_order(all_graph_classes(n), _edge_critical_misses)


def _edgeless_run_misses(g: Graph):
    s = param_value(g, Param.INDEPENDENCE)
    if param_value(g, Param.GAMMA) != s:
        return
    want = _edgeless_names(s)
    gam = _names(g, Param.GAMMA)
    if [m for m in gam if m in want] != want:
        yield f"n={g.n} gamma family misses an edgeless member"
    if _names(g, Param.IND_DOM) != want or _names(g, Param.INDEPENDENCE) != want:
        yield f"n={g.n} independence families differ from edgeless run"


def _check_independence_equals_domination():
    for n in range(1, 7):
        yield from _in_key_order(all_graph_classes(n), _edgeless_run_misses)


def _path3_at_three(g: Graph):
    res = min_sets(g, Param.GAMMA)
    if res.value == 3 and is_pattern_excellent(g, path(3), Param.GAMMA, result=res):
        yield to_graph6(g)


def _check_no_path3_at_three():
    for n in range(1, 8):
        yield from _in_key_order(all_graph_classes(n), _path3_at_three)


PRODUCT_PAIRS = [
    (complete(2), complete(2)),
    (complete(2), complete(3)),
    (complete(2), complete(4)),
    (complete(3), complete(3)),
    (complete(3), complete(4)),
    (complete(3), complete(5)),
    (complete(4), complete(4)),
    (complete(5), cycle(5)),
    (complete(3), cycle(7)),
    (path(4), cycle(5)),
]


def _check_product_lower_bound():
    for a, b in PRODUCT_PAIRS:
        g = cartesian_product(a, b)
        for chk in bound_checks(g, factors=(a, b)):
            if chk.name == "product-lower" and chk.applicable and not chk.holds:
                yield f"orders ({a.n},{b.n}): {chk.detail}"


def _check_complete_cycle_product():
    g = cartesian_product(complete(5), cycle(5))
    res = min_sets(g, Param.GAMMA)
    computed = {
        "gamma": res.value,
        "cycle_layer_excellent": is_pattern_excellent(g, cycle(5), Param.GAMMA, result=res),
    }
    expected = {"gamma": 5, "cycle_layer_excellent": True}
    return expected, computed, expected == computed


PLAIN_CHAIN = (Param.GAMMA, Param.RESTRAINED, Param.OUTER_CONNECTED)
TOTAL_CHAIN = (Param.TOTAL, Param.TOTAL_RESTRAINED, Param.TOTAL_OUTER_CONNECTED)


def _family_signature(g: Graph, par: Param):
    fam = excellent_family(g, par)
    return (fam.excellent, family_names(fam))


def _check_lex_six_families():
    split_cases = [
        ("P2[C4,C4]", lex_product(path(2), [cycle(4), cycle(4)])),
        ("P3[P3,C4,P3]", lex_product(path(3), [path(3), cycle(4), path(3)])),
    ]
    for label, g in split_cases:
        for chain in (PLAIN_CHAIN, TOTAL_CHAIN):
            sigs = [_family_signature(g, par) for par in chain]
            if len(set(map(str, sigs))) != 1:
                yield f"{label}: {'/'.join(p.id for p in chain)} differ"
    full_cases = [
        ("P2[P7,P7]", lex_product(path(2), [path(7), path(7)])),
        ("P3[P7,P7,P7]", lex_product(path(3), [path(7), path(7), path(7)])),
    ]
    for label, g in full_cases:
        sigs = [_family_signature(g, par) for par in PLAIN_CHAIN + TOTAL_CHAIN]
        if len(set(map(str, sigs))) != 1:
            yield f"{label}: six families differ"


def _check_lex_complete_fibers():
    cases = [
        ("P3", path(3), [complete(2), complete(3), complete(2)]),
        ("P4", path(4), [complete(2), complete(3), complete(2), complete(3)]),
        ("C5", cycle(5), [complete(3), complete(2), complete(2), complete(3), complete(2)]),
    ]
    for label, base, fibers in cases:
        prod = lex_product(base, fibers)
        for s in (1, 2):
            lhs = is_pattern_excellent(prod, edgeless(s), Param.GAMMA)
            rhs = is_pattern_excellent(base, edgeless(s), Param.GAMMA)
            if lhs != rhs:
                yield f"{label} s={s}: product {lhs} vs base {rhs}"


def _bound_failures(g: Graph):
    for chk in bound_checks(g):
        if chk.applicable and not chk.holds:
            yield f"{to_graph6(g)}: {chk.name}"


def _check_degree_ratio_bound():
    pools = [regular_classes(n, k) for n, k in ((10, 5), (9, 4), (8, 3))]
    pools.append([g for g in all_graph_classes(7) if g.min_degree() >= 3])
    for pool in pools:
        yield from _in_key_order(pool, _bound_failures)


def _check_five_regular_order_ten():
    classes = regular_classes(10, 5)
    values = sorted({param_value(g, Param.GAMMA) for g in classes})
    expected = {"count": 60, "gamma_values": [2]}
    computed = {"count": len(classes), "gamma_values": values}
    return expected, computed, expected == computed


def _check_four_regular_nine_count():
    expected = {"count": 16}
    computed = {"count": len(regular_classes(9, 4))}
    return expected, computed, expected == computed


def _k3_hits(classes) -> list[tuple[Graph, int]]:
    """(graph, gamma) of each class that is K3-excellent under gamma, unkeyed."""
    hits, k3 = [], complete(3)
    for g in classes:
        res = min_sets(g, Param.GAMMA)
        if is_pattern_excellent(g, k3, Param.GAMMA, result=res):
            hits.append((g, res.value))
    return hits


def _check_four_regular_nine_survey():
    hits = sorted((g for g, _ in _k3_hits(regular_classes(9, 4))), key=canonical_key)
    expected = {"count": 2}
    computed = {"count": len(hits), "graph6": [to_graph6(g) for g in hits]}
    return expected, computed, computed["count"] == expected["count"]


def _check_four_regular_nine_product():
    kk = canonical_key(cartesian_product(complete(3), complete(3)))
    expected = {"product_matches": 1}
    hits = _k3_hits(regular_classes(9, 4))
    computed = {"product_matches": sum(1 for g, _ in hits if canonical_key(g) == kk)}
    return expected, computed, expected == computed


def _check_regular_order_bound():
    # a line names only (n, k), so the hits need no key and no order
    for n, k in [(9, 4), (8, 3), (10, 4)]:
        for g, gamma in _k3_hits(regular_classes(n, k)):
            if g.is_connected() and gamma == 3 and n > 3 * (k - 1):
                yield f"({n},{k}): triangle-excellent hit above the order bound"


def _check_glued_cycles():
    for u, v in [(0, 0), (2, 5), (3, 1)]:
        g = coalescence([(cycle(7), u), (cycle(7), v)]).graph
        res = min_sets(g, Param.GAMMA)
        if res.value != 5:
            yield f"glue ({u},{v}): gamma {res.value} != 5"
        if not is_pattern_excellent(g, complete(2), Param.GAMMA, result=res):
            yield f"glue ({u},{v}): not edge-excellent"


COALESCENCE_CASES = [
    (cycle(7), 0, cycle(7), 3),
    (cycle(7), 1, cycle(10), 4),
    (cycle(4), 0, cycle(6), 2),
    (path(4), 0, path(4), 3),
    (path(4), 1, cycle(7), 0),
    (path(7), 3, path(7), 0),
    (cycle(5), 2, path(6), 5),
]


def _check_coalescence_critical():
    for f, x, h, y in COALESCENCE_CASES:
        merged = coalescence([(f, x), (h, y)])
        g = merged.graph
        in_f = bool(critical_split(f)[0] >> x & 1)
        in_h = bool(critical_split(h)[0] >> y & 1)
        in_g = bool(critical_split(g)[0] >> merged.glued & 1)
        if in_g != (in_f and in_h):
            yield f"{f.n}@{x}+{h.n}@{y}: critical {in_g} vs parts {in_f}&{in_h}"
        if in_g:
            total = param_value(f, Param.GAMMA) + param_value(h, Param.GAMMA) - 1
            if param_value(g, Param.GAMMA) != total:
                yield f"{f.n}@{x}+{h.n}@{y}: additivity broken"


def _check_coalescence_closure():
    cases = [
        ([cycle(7), cycle(10)], complete(2)),
        ([cycle(4), cycle(7)], edgeless(1)),
        ([cycle(7), cycle(7), cycle(7)], complete(2)),
    ]
    for parts, pattern in cases:
        label = "+".join(str(p.n) for p in parts)
        g = coalescence([(p, 0) for p in parts]).graph
        res = min_sets(g, Param.GAMMA)
        want = sum(param_value(p, Param.GAMMA) for p in parts) - len(parts) + 1
        if res.value != want:
            yield f"{label}: gamma {res.value} != {want}"
        if not is_pattern_excellent(g, pattern, Param.GAMMA, result=res):
            yield f"{label}: pattern excellence lost"


def _check_tree_labeling():
    for n in range(4, 13):
        for t in enumerate_trees(n):
            res = min_sets(t, Param.GAMMA)
            lab = excellent_tree_labeling(t, result=res)
            if (lab is not None) != is_excellent(t, Param.GAMMA, result=res):
                yield f"order {n}: labeling presence disagrees with excellence"
                continue
            if lab is None:
                continue
            if not satisfies(t, lab.zeros, Param.GAMMA):
                yield f"order {n}: zero labels are not a dominating set"
            if lab.zeros.bit_count() != res.value:
                yield f"order {n}: zero labels are not optimal"
            if leaves_mask(t) & lab.ones:
                yield f"order {n}: a leaf carries label one"


def _check_tree_families():
    for n in range(4, 13):
        for t in enumerate_trees(n):
            res = min_sets(t, Param.GAMMA)
            if not is_excellent(t, Param.GAMMA, result=res):
                continue
            fam = excellent_family(t, Param.GAMMA, result=res)
            if fam.members != tree_family_prediction(t, result=res):
                yield f"{to_graph6(t)}: family differs from prediction"


def _check_bridge_pairs():
    for n in range(2, 11):
        for t in enumerate_trees(n):
            res = min_sets(t, Param.GAMMA)
            drops, _ = critical_split(t, result=res)
            for x in set_of(drops):
                nbrs = list(set_of(t.adj[x]))
                for d in res.sets:
                    if d >> x & 1 and t.adj[x] & d:
                        yield f"order {n}: optimal set holds a critical vertex and neighbor"
                for i, y in enumerate(nbrs):
                    for z in nbrs[i + 1 :]:
                        pair = 1 << y | 1 << z
                        if any(d & pair == pair for d in res.sets):
                            yield f"order {n}: optimal set holds both bridge partners"


def _check_five_regular_twelve_search():
    classes = regular_classes(12, 5, connected_only=True)
    hits = _k3_hits(classes)
    expected = {"min_matches": 1}
    computed = {
        "catalog": len(classes),
        "matches": sorted(canonical_key(g).graph6() for g, _ in hits),
        "gamma_values": sorted({gamma for _, gamma in hits}),
    }
    return expected, computed, len(hits) >= 1


CLAIMS = [
    Claim("path-cycle-values", "path and cycle domination values", True, False, partial(_failures, _check_path_cycle_values)),
    Claim("cycle-excellence", "cycles are excellent at every order", True, False, partial(_failures, _check_cycle_excellence)),
    Claim("path-excellence", "paths are excellent exactly at 2 and 1 mod 3", True, False, partial(_failures, _check_path_excellence)),
    Claim("path-families", "path excellent families", True, False, partial(_check_family_table, "path-families")),
    Claim("cycle-families-domination", "cycle families under domination", True, False, partial(_check_family_table, "cycle-families-domination")),
    Claim("cycle-families-independent", "cycle families under independent domination", True, False, partial(_check_family_table, "cycle-families-independent")),
    Claim("cycle-union-families", "families of unions of two cycles", True, False, partial(_check_family_table, "cycle-union-families")),
    Claim("complete-product-families", "complete-by-complete product families", True, False, partial(_check_family_table, "complete-product-families")),
    Claim("complement-product-families-base", "complement product families, base cases", True, False, partial(_check_family_table, "complement-product-families-base")),
    Claim("complement-product-families-extended", "complement product families, wider cases", False, False, partial(_check_family_table, "complement-product-families-extended")),
    Claim("multipartite-families", "complete multipartite families at domination two", True, False, partial(_check_family_table, "multipartite-families")),
    Claim("edge-critical-pairs", "edge-addition-critical graphs hold nonadjacent pairs", False, False, partial(_failures, _check_edge_critical_pairs)),
    Claim("independence-equals-domination", "independence equals domination forces edgeless families", False, False, partial(_failures, _check_independence_equals_domination)),
    Claim("no-path3-at-three", "no three-vertex-path excellence at domination three", False, False, partial(_failures, _check_no_path3_at_three)),
    Claim("product-lower-bound", "product domination at least the smaller order", True, False, partial(_failures, _check_product_lower_bound)),
    Claim("complete-cycle-product", "complete-by-cycle product layer excellence", True, False, _check_complete_cycle_product),
    Claim("lex-six-families", "layered products align six parameter families", False, False, partial(_failures, _check_lex_six_families)),
    Claim("lex-complete-fibers", "complete-fiber products preserve edgeless excellence", True, False, partial(_failures, _check_lex_complete_fibers)),
    Claim("degree-ratio-bound", "domination under the degree ratio bound", False, False, partial(_failures, _check_degree_ratio_bound)),
    Claim("five-regular-order-ten", "five-regular order ten all dominate with two", False, False, _check_five_regular_order_ten),
    Claim("four-regular-nine-count", "four-regular order nine class count", True, False, _check_four_regular_nine_count),
    Claim("four-regular-nine-survey", "triangle-excellent four-regular order nine survey", False, False, _check_four_regular_nine_survey),
    Claim("four-regular-nine-product", "rook-product occurrence in the order nine survey", False, False, _check_four_regular_nine_product),
    Claim("regular-order-bound", "order bound for triangle-excellent regular graphs", False, False, partial(_failures, _check_regular_order_bound)),
    Claim("glued-cycles", "two glued seven-cycles stay edge-excellent", True, False, partial(_failures, _check_glued_cycles)),
    Claim("coalescence-critical", "criticality of the glue vertex matches both parts", False, False, partial(_failures, _check_coalescence_critical)),
    Claim("coalescence-closure", "gluing at a critical vertex keeps pattern excellence", False, False, partial(_failures, _check_coalescence_closure)),
    Claim("tree-labeling", "excellent trees carry the criticality labeling", False, False, partial(_failures, _check_tree_labeling)),
    Claim("tree-families", "tree families match the closed form", False, False, partial(_failures, _check_tree_families)),
    Claim("bridge-pairs", "optimal sets avoid bridge partners of critical vertices", False, False, partial(_failures, _check_bridge_pairs)),
    Claim("five-regular-twelve-search", "five-regular order twelve triangle-excellent search", False, True, _check_five_regular_twelve_search),
]

_BY_ID = {c.claim_id: c for c in CLAIMS}


def claim_ids(suite: str = "paper") -> list[str]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "quick":
        return [c.claim_id for c in CLAIMS if c.quick]
    return [c.claim_id for c in CLAIMS]


def run_claim(claim_id: str, run_long: bool = False, timings: bool = False) -> ClaimReport:
    claim = _BY_ID[claim_id]
    if claim.long and not run_long:
        return ClaimReport(claim.claim_id, claim.anchor, "skipped-long-running", None, None, None)
    t0 = time.perf_counter()
    expected, computed, ok = claim.check()
    dt = time.perf_counter() - t0
    status = "pass" if ok else "fail"
    return ClaimReport(
        claim.claim_id, claim.anchor, status, expected, computed, round(dt, 3) if timings else None
    )


def _pmap(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in a pool of jobs processes if jobs > 1 and items > 1."""
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def run_suite(suite: str = "paper", jobs: int = 1, timings: bool = False) -> list[ClaimReport]:
    """Run a suite's claims; only the long suite runs long-running claims."""
    # run_claim is looked up at call time, so a wrapper patched onto the module is used
    run = partial(run_claim, run_long=suite == "long", timings=timings)
    return _pmap(run, claim_ids(suite), jobs)
