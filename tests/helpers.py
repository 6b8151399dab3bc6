"""Shared graph builders for the test modules."""

import random
from itertools import combinations

from domexc.graphs import Graph, from_edges


def random_graph(n: int, bits: int) -> Graph:
    """Graph on n vertices from the low bits of an integer, column order."""
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits >> idx & 1:
                edges.append((u, v))
            idx += 1
    return from_edges(n, edges)


def shuffled(g: Graph, seed: int) -> Graph:
    order = list(range(g.n))
    random.Random(seed).shuffle(order)
    return g.relabel(order)


def hypercube(d: int) -> Graph:
    """Q_d: the d-bit words, adjacent when they differ in one bit."""
    n = 1 << d
    return from_edges(n, [(u, u ^ 1 << i) for u in range(n) for i in range(d) if u < u ^ 1 << i])


def kneser(n: int, k: int) -> Graph:
    """K(n, k): the k-subsets of n points, adjacent when disjoint."""
    sets = [sum(1 << x for x in c) for c in combinations(range(n), k)]
    return from_edges(
        len(sets), [(i, j) for i, j in combinations(range(len(sets)), 2) if not sets[i] & sets[j]]
    )


def paley(q: int) -> Graph:
    """Paley graph of a prime q = 1 mod 4: adjacent when the difference is a square."""
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(a, b) for a, b in combinations(range(q), 2) if b - a in squares])
