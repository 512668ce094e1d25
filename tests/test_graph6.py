import tracemalloc

import pytest
from hypothesis import given, strategies as st

from copwin.errors import Graph6Error
from copwin.families import complete, cycle, petersen
from copwin.graph6 import emit_graph6, parse_graph6, read_graph6_lines
from copwin.graphs import Graph


class TestParse:
    def test_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and len(g.edges()) == 0

    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_empty_on_five(self):
        g = parse_graph6("D??")
        assert g.n == 5 and len(g.edges()) == 0

    def test_header_prefix_tolerated(self):
        assert parse_graph6(">>graph6<<A_").has_edge(0, 1)

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("A_\n").n == 2

    def test_bad_character_names_offset(self):
        with pytest.raises(Graph6Error) as e:
            parse_graph6("A\t")
        assert e.value.offset == 1

    def test_truncated_bits(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")

    @pytest.mark.parametrize("line, offset", [
        ("A`", 1), ("D?A", 2), (">>graph6<<D?@", 12),
    ])
    def test_nonzero_padding_bit_names_last_byte(self, line, offset):
        with pytest.raises(Graph6Error) as e:
            parse_graph6(line)
        assert str(e.value) == "nonzero padding bit (byte offset %d)" % offset
        assert e.value.offset == offset

    @pytest.mark.parametrize("prefix", ["", ">>graph6<<"], ids=["plain", "prefixed"])
    @pytest.mark.parametrize("line, message, offset", [
        ("~", "truncated extended-n header", 1),
        ("~??", "truncated extended-n header", 3),
        ("~~??????", "8-byte n encoding not supported (n > 258047)", 1),
        ("?", "graph6 n=0 not supported (graphs are nonempty)", 0),
    ])
    def test_header_refusals_name_offset(self, prefix, line, message, offset):
        offset += len(prefix)
        with pytest.raises(Graph6Error) as e:
            parse_graph6(prefix + line)
        assert str(e.value) == "%s (byte offset %d)" % (message, offset)
        assert e.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A__")

    def test_long_line_refused_in_memory_below_its_length(self):
        # the header says n = 2, one body byte; the 20 MB body is refused
        # before any integer is built from it
        line = "A" + "?" * 20_000_000
        tracemalloc.start()
        try:
            with pytest.raises(Graph6Error) as e:
                parse_graph6(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == "trailing bytes after adjacency section (byte offset 2)"
        assert peak < len(line)

    def test_empty_line(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_cap_enforced(self):
        big = emit_graph6(Graph(65), max_n=128)
        with pytest.raises(Graph6Error):
            parse_graph6(big)
        assert parse_graph6(big, max_n=128).n == 65

    def test_extended_header_round_trip(self):
        g = Graph(100, [(0, 99), (1, 2)])
        s = emit_graph6(g, max_n=200)
        # header ~ 0 1 36; 825 body bytes: pair (1, 2) is bit 2 (byte 0),
        # pair (0, 99) is bit 99*98/2 = 4851 (byte 808, bit 3)
        assert s == "~?@c" + "G" + "?" * 807 + "C" + "?" * 16
        g2 = parse_graph6(s, max_n=200)
        assert g2.adj == g.adj


class TestEmit:
    def test_k1(self):
        assert emit_graph6(Graph(1)) == "@"

    def test_k2(self):
        assert emit_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_petersen_round_trip(self):
        g = petersen()
        assert parse_graph6(emit_graph6(g)).adj == g.adj

    @given(st.integers(1, 9), st.integers(0, 1 << 36))
    def test_round_trip_random(self, n, mask):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        s = emit_graph6(g)
        assert all(63 <= ord(c) <= 126 for c in s)
        g2 = parse_graph6(s)
        assert g2.n == g.n and g2.adj == g.adj
        assert emit_graph6(g2) == s

    def test_known_families(self):
        for g in (cycle(5), cycle(7), complete(6)):
            assert parse_graph6(emit_graph6(g)).adj == g.adj


def test_read_lines_skips_blanks():
    text = "@\n\nA_\n"
    read = list(read_graph6_lines(text.splitlines()))
    assert [lineno for lineno, _ in read] == [1, 3]
    assert [g.n for _, g in read] == [1, 2]


def test_read_lines_yields_errors_in_place():
    read = list(read_graph6_lines(["!!", "", "A_"]))
    assert [lineno for lineno, _ in read] == [1, 3]
    assert isinstance(read[0][1], Graph6Error)
    assert read[1][1].n == 2
