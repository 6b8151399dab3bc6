"""graph6 encoding, decoding, and line parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domexc.graph6 import (
    Graph6Error,
    from_graph6,
    from_triangle_bits,
    parse_lines,
    to_graph6,
    triangle_bits,
)
from domexc.graphs import Graph, complete, cycle, edgeless, path
from helpers import random_graph


def test_known_encodings():
    # fixed literals from the format definition
    assert to_graph6(edgeless(0)) == "?"
    assert to_graph6(edgeless(1)) == "@"
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(edgeless(2)) == "A?"
    assert to_graph6(cycle(4)) == "Cl"
    assert to_graph6(complete(4)) == "C~"
    assert to_graph6(path(4)) == "Ch"  # 0-1, 1-2, 2-3 on the column code


def test_decode_inverse_on_known():
    for g in (edgeless(0), edgeless(1), complete(2), cycle(4), complete(4)):
        assert from_graph6(to_graph6(g)) == g


def test_header_accepted():
    line = to_graph6(cycle(5), header=True)
    assert line.startswith(">>graph6<<")
    assert from_graph6(line) == cycle(5)


def test_long_form_orders():
    for n in (62, 63, 64):
        g = path(n)
        line = to_graph6(g)
        assert from_graph6(line) == g
    assert len(to_graph6(path(63))) > len(to_graph6(path(62)))


def test_capacity_rejected():
    with pytest.raises(Graph6Error):
        from_graph6("~?A?" + "?" * 100)


def test_error_offsets():
    with pytest.raises(Graph6Error) as err:
        from_graph6("")
    assert "empty" in str(err.value)
    with pytest.raises(Graph6Error) as err:
        from_graph6("C")
    assert err.value.offset is not None
    with pytest.raises(Graph6Error) as err:
        from_graph6("C" + chr(32) * 2)
    assert err.value.offset is not None
    with pytest.raises(Graph6Error):
        from_graph6("C~~")  # trailing bytes


@pytest.mark.parametrize("line", ["A`", "Bx"])
def test_nonzero_padding_rejected(line):
    # the padding bits sit in the last byte, which is byte 1 here
    with pytest.raises(Graph6Error) as err:
        from_graph6(line)
    assert err.value.offset == 1
    assert str(err.value) == "nonzero padding bits (byte 1)"


def test_parse_lines_mixed():
    text = ">>graph6<<\n" + to_graph6(cycle(3)) + "\n\nnot!valid\n" + to_graph6(path(2)) + "\n"
    items = list(parse_lines(text))
    assert len(items) == 3
    lineno0, g0 = items[0]
    assert isinstance(g0, Graph) and g0 == cycle(3)
    lineno1, bad = items[1]
    assert isinstance(bad, Graph6Error)
    lineno2, g2 = items[2]
    assert g2 == path(2)
    assert (lineno0, lineno1, lineno2) == (2, 4, 5)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2**66 - 1))
def test_round_trip_random(n, bits):
    g = random_graph(n, bits)
    assert from_graph6(to_graph6(g)) == g
    assert from_triangle_bits(n, triangle_bits(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(60, 64), st.integers(0, 2**80 - 1))
def test_round_trip_long_form(n, bits):
    g = random_graph(n, bits)
    assert from_graph6(to_graph6(g)) == g
    assert from_triangle_bits(n, triangle_bits(g)) == g
