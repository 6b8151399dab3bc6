"""Correctness of one pass's outputs, checked without the package under test.

Every item is held to invariants that need no reference answer; items
whose name has a golden record (written at the baseline for the default
seed, successful items only) must also match it. Golden records hold
only isomorphism-invariant fields, so they apply to every seed whose
corpus contains the named structure. An item that raised is a failure
whatever the golden file says; `ParameterUndefinedError` for a total
parameter on a graph with an isolated vertex is an expected outcome.
"""

from __future__ import annotations

from itertools import combinations

from corpus import from_graph6

TOTAL = ("gamma_t", "gamma_tr", "gamma_t_oc")
# the package documents canonical forms for every graph up to this order
CANON_ORDER = 12
# value_scan items up to this order get every value recomputed by brute force
EXACT_ORDER = 13
# (smaller, larger) pairs that hold on every graph where both are defined
CHAINS = [
    ("gamma", "i"),
    ("i", "beta0"),
    ("gamma", "gamma_r"),
    ("gamma", "gamma_oc"),
    ("gamma_t", "gamma_tr"),
    ("gamma_t", "gamma_t_oc"),
]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _connected_within(adj, mask):
    if not mask:
        return True
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v] & mask
        frontier = nxt & ~seen
        seen |= nxt
    return seen == mask


def satisfies(g, s, pid):
    """Defining predicate of each parameter, for a vertex set s."""
    n, adj = g
    full = (1 << n) - 1
    if s & ~full:
        return False
    independent = all(not adj[v] & s for v in _bits(s))
    if pid == "beta0":
        return independent
    if pid == "i":
        return independent and all(adj[v] & s for v in _bits(full & ~s))
    cover = 0
    for v in _bits(s):
        cover |= adj[v] if pid in TOTAL else adj[v] | 1 << v
    if cover != full:
        return False
    outside = full & ~s
    if pid in ("gamma_r", "gamma_tr") and any(not adj[v] & outside for v in _bits(outside)):
        return False
    if pid in ("gamma_oc", "gamma_t_oc") and not _connected_within(adj, outside):
        return False
    return True


def induced(g, mask):
    n, adj = g
    verts = list(_bits(mask))
    pos = {v: i for i, v in enumerate(verts)}
    sub = [0] * len(verts)
    for v in verts:
        for u in _bits(adj[v] & mask):
            sub[pos[v]] |= 1 << pos[u]
    return len(verts), sub


def isomorphic(a, b):
    """Backtracking isomorphism test with degree pruning."""
    (n, adj_a), (m, adj_b) = a, b
    if n != m:
        return False
    deg_a = [x.bit_count() for x in adj_a]
    deg_b = [x.bit_count() for x in adj_b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    order = sorted(range(n), key=lambda v: -deg_a[v])
    image = [-1] * n
    used = 0

    def place(k):
        nonlocal used
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used >> w & 1 or deg_b[w] != deg_a[v]:
                continue
            if any((adj_a[v] >> order[j] & 1) != (adj_b[w] >> image[order[j]] & 1) for j in range(k)):
                continue
            image[v] = w
            used |= 1 << w
            if place(k + 1):
                return True
            used &= ~(1 << w)
        image[v] = -1
        return False

    return place(0)


def _chain_errors(values):
    errs = []
    for lo, hi in CHAINS:
        if values.get(lo) is not None and values.get(hi) is not None and values[lo] > values[hi]:
            errs.append(f"{lo}={values[lo]} > {hi}={values[hi]}")
    return errs


def _definedness_errors(g, values):
    n, adj = g
    isolated = any(not row for row in adj)
    errs = []
    for pid, value in values.items():
        undefined = value is None
        if undefined != (pid in TOTAL and isolated):
            errs.append(f"{pid} {'undefined' if undefined else 'defined'} unexpectedly")
        elif not undefined and not 1 <= value <= n:
            errs.append(f"{pid}={value} outside 1..{n}")
    return errs


def family_errors(line, out, golden):
    g = from_graph6(line)
    n, _ = g
    full = (1 << n) - 1
    errs = []
    if out["graph6"] != line:
        errs.append("graph6 round trip changed the input")
    if out["canonical"] is None:
        if n <= CANON_ORDER:
            errs.append(f"no canonical form at order {n}")
    elif not isomorphic(g, from_graph6(out["canonical"])):
        errs.append("canonical form is not isomorphic to the input")
    params = out["params"]
    values = {pid: (p["value"] if p else None) for pid, p in params.items()}
    errs += _definedness_errors(g, values)
    errs += _chain_errors(values)
    for pid, p in params.items():
        if p is None:
            continue
        if len(set(p["sets"])) != len(p["sets"]) or not p["sets"]:
            errs.append(f"{pid}: optimal sets empty or repeated")
        for s in p["sets"]:
            if s.bit_count() != p["value"] or not satisfies(g, s, pid):
                errs.append(f"{pid}: set {s:#x} is not an optimal {pid}-set")
                break
        union = 0
        for s in p["sets"]:
            union |= s
        if p["excellent"] != (union == full):
            errs.append(f"{pid}: excellence flag disagrees with the set union")
    iso_memo = {}
    for pid, fam in out["families"].items():
        p = params[pid]
        if (fam["value"], fam["excellent"]) != (p["value"], p["excellent"]):
            errs.append(f"family {pid}: value or excellence differs from min_sets")
        if not fam["excellent"] and fam["members"]:
            errs.append(f"family {pid}: members on a graph that is not excellent")
        sets = set(p["sets"])
        if len(fam["witness"]) != len(fam["members"]):
            errs.append(f"family {pid}: one witness row per member expected")
            continue
        for (_, member), row in zip(fam["members"], fam["witness"]):
            pattern = from_graph6(member)
            if len(row) != n:
                errs.append(f"family {pid} {member}: witness row length {len(row)}")
                continue
            for x, cd in enumerate(row):
                c, d = cd
                if c & ~d or d not in sets or not c >> x & 1:
                    errs.append(f"family {pid} {member}: bad witness at vertex {x}")
                    break
                key = (member, c)
                if key not in iso_memo:
                    iso_memo[key] = isomorphic(induced(g, c), pattern)
                if not iso_memo[key]:
                    errs.append(f"family {pid} {member}: witness at {x} does not induce it")
                    break
    if golden is not None and golden != family_summary(out):
        errs.append("differs from the golden record")
    return errs


def family_summary(out):
    """Isomorphism-invariant part of a family_corpus output."""
    return {
        "canonical": out["canonical"],
        "params": {
            pid: None if p is None else [p["value"], len(p["sets"]), p["excellent"]]
            for pid, p in out["params"].items()
        },
        "families": {
            pid: [f["value"], f["excellent"], f["members"]] for pid, f in out["families"].items()
        },
    }


_exact_memo: dict = {}


def exact_value(g, pid):
    """Optimum of a parameter by search over all vertex sets, smallest first
    (largest first for beta0); None when no set qualifies."""
    n, _ = g
    for k in range(n, -1, -1) if pid == "beta0" else range(n + 1):
        for combo in combinations(range(n), k):
            if satisfies(g, sum(1 << v for v in combo), pid):
                return k
    return None


def value_errors(line, out, golden):
    g = from_graph6(line)
    errs = _definedness_errors(g, out["values"]) + _chain_errors(out["values"])
    if g[0] <= EXACT_ORDER:
        for pid, value in out["values"].items():
            key = (line, pid)
            if key not in _exact_memo:
                _exact_memo[key] = exact_value(g, pid)
            if value != _exact_memo[key]:
                errs.append(f"{pid}={value}, brute force gives {_exact_memo[key]}")
    if golden is not None and golden != value_summary(out):
        errs.append("differs from the golden record")
    return errs


def value_summary(out):
    return out["values"]


def paper_summary(result):
    """Statuses and computed fields per claim; runtimes are ignored."""
    return {
        r["claim_id"]: [r["status"], r["computed"]]
        for r in result["report"]["results"]
        if r["status"] != "skipped-long-running"
    }


ITEM_CHECKS = {
    "family_corpus": (family_errors, family_summary),
    "value_scan": (value_errors, value_summary),
}
