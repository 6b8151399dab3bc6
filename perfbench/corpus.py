"""Seeded benchmark inputs, built without the package under test.

Graphs are (n, adj) pairs with adj[v] a bitmask of v's neighbours.
Items are (name, graph6) pairs. A name is seed-independent exactly when
the structure is, so golden outputs keyed by name (which hold only
isomorphism-invariant fields) apply to every seed for those items.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------- builders


def edgeless(n):
    return n, [0] * n


def from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, adj


def path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, [(u, v) for v in range(n) for u in range(v)])


def star(leaves):
    return from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def edges_of(g):
    n, adj = g
    return [(u, v) for v in range(n) for u in range(v) if adj[u] >> v & 1]


def union(parts):
    n, edges = 0, []
    for part in parts:
        edges += [(u + n, v + n) for u, v in edges_of(part)]
        n += part[0]
    return from_edges(n, edges)


def complement(g):
    n, adj = g
    full = (1 << n) - 1
    return n, [full & ~(adj[v] | 1 << v) for v in range(n)]


def box(a, b):
    """Cartesian product; vertex (i, j) is i * |b| + j."""
    na, nb = a[0], b[0]
    edges = [(i * nb + u, i * nb + v) for i in range(na) for u, v in edges_of(b)]
    edges += [(u * nb + j, v * nb + j) for u, v in edges_of(a) for j in range(nb)]
    return from_edges(na * nb, edges)


def corona(t):
    """One pendant leaf per vertex; leaf of v is v + |t|."""
    n = t[0]
    return from_edges(2 * n, edges_of(t) + [(v, v + n) for v in range(n)])


def lex(base, fibers):
    """Generalized lexicographic product base[fibers]."""
    offs, n = [], 0
    for f in fibers:
        offs.append(n)
        n += f[0]
    edges = []
    for i, f in enumerate(fibers):
        edges += [(u + offs[i], v + offs[i]) for u, v in edges_of(f)]
    for i, j in edges_of(base):
        edges += [
            (offs[i] + u, offs[j] + v) for u in range(fibers[i][0]) for v in range(fibers[j][0])
        ]
    return from_edges(n, edges)


def coalesce(a, x, b, y):
    """Identify vertex x of a with vertex y of b."""
    na, nb = a[0], b[0]
    relabel = {}
    nxt = na
    for v in range(nb):
        if v == y:
            relabel[v] = x
        else:
            relabel[v] = nxt
            nxt += 1
    edges = edges_of(a) + [(relabel[u], relabel[v]) for u, v in edges_of(b)]
    return from_edges(na + nb - 1, edges)


def random_tree(n, rng):
    """Uniform labelled tree from a random Pruefer sequence."""
    if n <= 2:
        return path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return from_edges(n, edges)


def random_connected(n, extra, rng):
    """Random tree plus `extra` further edges."""
    g = random_tree(n, rng)
    edges = set(edges_of(g))
    missing = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(missing, min(extra, len(missing))))
    return from_edges(n, sorted(edges))


def random_sparse(n, m, rng):
    """m edges drawn uniformly; isolated vertices are allowed."""
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return from_edges(n, rng.sample(pairs, m))


def relabel(g, rng):
    n, adj = g
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges_of(g)])


# ---------------------------------------------------------------- graph6


def to_graph6(g):
    n, adj = g
    if n > 62:
        raise ValueError("benchmark inputs stay below order 63")
    bits = [adj[row] >> col & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def from_graph6(s):
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        val = ord(ch) - 63
        bits += [val >> (5 - j) & 1 for j in range(6)]
    adj = [0] * n
    at = 0
    for col in range(1, n):
        for row in range(col):
            if bits[at]:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            at += 1
    return n, adj


# ---------------------------------------------------------------- workloads
#
# Each workload is a fixed panel plus a seeded part. The panel is the
# same for every seed, labels included, because on the documented
# blow-ups the cost swings by a quarter with the labelling alone (K1,15:
# 1.2 to 1.5 s): it carries most of the work, so a run's time does not
# depend on the seed it was given. The seeded part draws fresh,
# relabelled structures from the seed; it is kept cheap, so its spread
# stays small, and it stops a change from fitting the panel alone.


SEEDED = "seeded:"


def in_panel(name):
    return not name.startswith(SEEDED)


class _Corpus:
    def __init__(self, workload, seed):
        self.panel = random.Random(f"{workload}:panel")
        self.rng = random.Random(f"{workload}:{seed}")
        self.items = []

    def fixed(self, name, g):
        self.items.append((name, to_graph6(g)))

    def seeded(self, name, g):
        self.items.append((SEEDED + name, to_graph6(relabel(g, self.rng))))


def family_corpus(seed):
    """Inputs for excellence and induced-copy enumeration.

    Mostly structured graphs with many optimal sets. Cycles stop at C13
    and cycle unions at order 14 because `min_sets` for gamma_oc grows
    about 2.2x per vertex on cycles (C16: 3.7 s), which would bury the
    excellence layer this workload is for. The three cap items have
    gamma = 9, one past the pattern cap, and raise today; they are built
    from isolated vertices and edges so that the other seven parameters
    stay cheap on them (C27 or P25 would spend minutes in gamma_oc).
    """
    c = _Corpus("family_corpus", seed)
    for n in range(9, 14):
        c.fixed(f"C{n}", cycle(n))
    for a, b in [(4, 5), (5, 5), (4, 7), (5, 6), (5, 7), (6, 6), (4, 8), (7, 7)]:
        c.fixed(f"C{a}+C{b}", union([cycle(a), cycle(b)]))
    for m, n in [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5), (4, 4)]:
        g = box(complete(m), complete(n))
        c.fixed(f"K{m}xK{n}", g)
        c.fixed(f"co(K{m}xK{n})", complement(g))
    for order in (6, 6, 7, 7, 7):
        t = random_tree(order, c.panel)
        c.fixed(f"corona({to_graph6(t)})", corona(t))
    for a, b in [(5, 6), (4, 7), (7, 7), (6, 8)]:
        c.fixed(f"C{a}.C{b}", coalesce(cycle(a), 0, cycle(b), 0))
    for n in (11, 11, 12, 12):
        g = random_connected(n, c.panel.randrange(0, n), c.panel)
        c.fixed(f"random:{to_graph6(g)}", g)
    for k in range(3):
        c.fixed(f"E{9 - k}+{k}K2" if k else "E9", union([edgeless(9 - k)] + [complete(2)] * k))

    for order in (4, 5):
        t = random_tree(order, c.rng)
        c.seeded(f"corona({to_graph6(t)})", corona(t))
    pool = [("P3", path(3)), ("C4", cycle(4)), ("K2", complete(2)), ("E2", edgeless(2)),
            ("P4", path(4)), ("C5", cycle(5))]
    for base_name, base in [("P2", path(2)), ("P3", path(3)), ("P3", path(3)), ("C4", cycle(4))]:
        picks = [pool[c.rng.randrange(len(pool))] for _ in range(base[0])]
        label = ",".join(name for name, _ in picks)
        c.seeded(f"{base_name}[{label}]", lex(base, [f for _, f in picks]))
    for a, b in [(4, 5), (4, 6)]:
        # cycles are vertex-transitive, so the glue points only relabel
        c.seeded(f"C{a}.C{b}", coalesce(cycle(a), c.rng.randrange(a), cycle(b), c.rng.randrange(b)))
    for _ in range(16):
        # past order 10 one canonical key can take 0.2 s, too uneven to draw per seed
        n = c.rng.randrange(8, 11)
        g = random_connected(n, c.rng.randrange(0, n), c.rng)
        c.seeded(f"random:{to_graph6(g)}", g)
    return c.items


def value_scan(seed):
    """Inputs for `param_value` on sparse graphs.

    Stars and triangle unions are the documented blow-ups of the cover
    search (restrained and outer-connected completion), sized so each
    call ends within about a second at the baseline. Trees stop at order
    16: at order 18 one tree takes 0.9 s on average with a 0.7 s spread.
    """
    c = _Corpus("value_scan", seed)
    for n in range(12, 17):
        for _ in range(3):
            t = random_tree(n, c.panel)
            c.fixed(f"tree:{to_graph6(t)}", t)
    for n in range(12, 19):
        for _ in range(2):
            g = random_sparse(n, n - 1 + c.panel.randrange(0, 4), c.panel)
            c.fixed(f"sparse:{to_graph6(g)}", g)
    for leaves in (12, 13, 14, 15):
        c.fixed(f"K1,{leaves}", star(leaves))
    for k in (3, 4, 5):
        c.fixed(f"{k}K3", union([complete(3)] * k))

    # small, so that the seeded part's cost, which changes with the seed, stays small
    for _ in range(8):
        t = random_tree(c.rng.randrange(10, 12), c.rng)
        c.seeded(f"tree:{to_graph6(t)}", t)
    for _ in range(8):
        n = c.rng.randrange(12, 16)
        g = random_sparse(n, n - 1 + c.rng.randrange(0, 4), c.rng)
        c.seeded(f"sparse:{to_graph6(g)}", g)
    return c.items


WORKLOADS = {"family_corpus": family_corpus, "value_scan": value_scan}
