"""graph6 encoding and decoding, and the adjacency layout it shares.

The layout: the upper triangle of the adjacency matrix, column by column
(bits a01, a02, a12, a03, a13, a23, ...), first bit most significant.
triangle_bits packs a graph into it and from_triangle_bits unpacks it;
canonical keys (canon.IsoKey) hold their bits in it too. graph6 text is
the order, in one byte for n <= 62 or '~' plus three 6-bit bytes for
larger n (supported here up to the 64-vertex capacity), then the layout
zero padded to 6-bit groups, each group printed as its value + 63. Only
undirected graph6 is handled; sparse6 and digraph6 input is rejected.
"""

from __future__ import annotations

from .graphs import CAPACITY, Graph, _trusted

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the byte position in the line."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)


def triangle_bits(g: Graph) -> int:
    """The upper triangle of g's adjacency matrix, in the layout above."""
    bits = 0
    for col in range(1, g.n):
        for row in range(col):
            bits = bits << 1 | (g.adj[row] >> col & 1)
    return bits


def from_triangle_bits(n: int, bits: int) -> Graph:
    """The graph of order n whose triangle_bits are bits.

    Every bit sets a pair of distinct vertices both ways, so the rows are
    symmetric and loop-free whatever bits holds; only the order is checked.
    """
    rows = [0] * n
    at = n * (n - 1) // 2
    for col in range(1, n):
        for row in range(col):
            at -= 1
            if bits >> at & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
    return _trusted(n, tuple(rows))


def encode_bits(n: int, bits: int) -> str:
    """graph6 text, without header, for order n and triangle bits."""
    if n <= 62:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits
    return size + "".join(chr(63 + (bits >> 6 * k & 63)) for k in range(groups - 1, -1, -1))


def to_graph6(g: Graph, header: bool = False) -> str:
    """Encode a graph; orders 63 and 64 use the long size form."""
    prefix = HEADER if header else ""
    return prefix + encode_bits(g.n, triangle_bits(g))


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line, with strict validation.

    Accepts an optional >>graph6<< header. Rejects other formats, stray
    bytes, wrong lengths, and nonzero padding, naming the byte offset.
    """
    s = line.rstrip("\n")
    base = 0
    if s.startswith(">>"):
        if s.startswith(HEADER):
            base = len(HEADER)
            s = s[base:]
        else:
            raise Graph6Error("unrecognized format header", 0)
    if not s:
        raise Graph6Error("empty graph6 string", base)
    first = s[0]
    if first == ":":
        raise Graph6Error("sparse6 input is not supported", base)
    if first == ";":
        raise Graph6Error("incremental sparse6 input is not supported", base)
    if first == "&":
        raise Graph6Error("digraph6 input is not supported", base)
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)!r} outside graph6 range", base + i)

    if first == "~":
        if s[1:2] == "~":
            raise Graph6Error("orders beyond 258047 are not supported", base)
        if len(s) < 4:
            raise Graph6Error("truncated long-form order", base + len(s))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(s[i]) - 63)
        at = 4
    else:
        n = ord(first) - 63
        at = 1
    if n > CAPACITY:
        raise Graph6Error(f"order {n} exceeds the {CAPACITY}-vertex capacity", base)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - at != need:
        raise Graph6Error(
            f"expected {need} adjacency bytes for order {n}, found {len(s) - at}",
            base + at,
        )
    body = 0
    for ch in s[at:]:
        body = body << 6 | (ord(ch) - 63)
    pad = 6 * need - nbits
    if body & ((1 << pad) - 1):
        # padding fills part of the last byte only
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    return from_triangle_bits(n, body >> pad)


def parse_lines(text: str):
    """Yield (line_number, graph_or_error) for each nonempty line.

    A line holding only the optional format header is skipped.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == HEADER:
            continue
        try:
            yield lineno, from_graph6(line)
        except Graph6Error as exc:
            yield lineno, exc
