"""graph6 text format: one simple undirected graph per ASCII line.

Only plain graph6 is supported; a ">>graph6<<" prefix is tolerated on
read and never written.  Encoded bytes are chr(63)..chr(126), six bits
each, first bit highest.  The body holds the triangle integer, in which
pair u < v is bit v(v-1)/2 + u, as 6-bit groups from the lowest, padded
with zero bits.  ``_BITS`` spells each character's group in binary with
the first bit lowest, and ``_CHARS`` maps a group back to its character.
A line is checked for out-of-range characters, then for its header and
length, and only then decoded, so a bad line costs no more memory than
the line itself.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graphs import Graph, bits

PREFIX = ">>graph6<<"
DEFAULT_MAX_N = 64
_FORMAT_MAX_N = 258047  # largest n expressible in the 4-byte header

_BITS = {chr(63 + c): format(c, "06b")[::-1] for c in range(64)}
_CHARS = sorted(_BITS, key=_BITS.__getitem__)  # bit strings sort as their values
_VALID = "".join(_BITS)


def _masks(n, t):
    """Adjacency masks of the n-vertex graph with triangle integer t."""
    adj = [0] * n
    for v in range(1, n):
        adj[v] = rows = t & ((1 << v) - 1)
        t >>= v
        for u in bits(rows):
            adj[u] |= 1 << v
    return adj


def _triangle(adj):
    """The triangle integer of adjacency masks adj."""
    t = 0
    for v in range(len(adj) - 1, 0, -1):
        t = t << v | adj[v] & ((1 << v) - 1)
    return t


def parse_graph6(text, max_n=DEFAULT_MAX_N):
    """Decode one graph6 line into a Graph."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(PREFIX):
        base = len(PREFIX)
        line = line[len(PREFIX):]
    if not line:
        raise Graph6Error("empty graph6 line", offset=base)
    bad = line.lstrip(_VALID)
    if bad:
        raise Graph6Error(
            "character %r outside graph6 range 63..126" % bad[0],
            offset=base + len(line) - len(bad),
        )

    if line[0] != "~":
        n = ord(line[0]) - 63
        head = 1
    else:
        if len(line) < 4:
            raise Graph6Error("truncated extended-n header", offset=base + len(line))
        if line[1] == "~":
            raise Graph6Error(
                "8-byte n encoding not supported (n > %d)" % _FORMAT_MAX_N,
                offset=base + 1,
            )
        n = (ord(line[1]) - 63) << 12 | (ord(line[2]) - 63) << 6 | ord(line[3]) - 63
        head = 4
        if n <= 62:  # emit writes it in one byte: the line would not round-trip
            raise Graph6Error("4-byte header for n=%d <= 62" % n, offset=base)
    if n == 0:
        raise Graph6Error("graph6 n=0 not supported (graphs are nonempty)", offset=base)
    if n > max_n:
        raise Graph6Error(
            "graph order %d exceeds cap %d (raise max_n to accept)" % (n, max_n),
            offset=base,
        )

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(line) - head
    body_base = base + head
    if got < need:
        raise Graph6Error(
            "truncated adjacency section: need %d bytes, got %d" % (need, got),
            offset=body_base + got,
        )
    if got > need:
        raise Graph6Error("trailing bytes after adjacency section", offset=body_base + need)
    # only now, with the line's length fixed by n, build the integer
    t = int("".join([_BITS[ch] for ch in reversed(line)]), 2) >> 6 * head
    # padding bits (all in the last byte) must be zero: parse/emit is bit-exact
    if t >> nbits:
        raise Graph6Error("nonzero padding bit", offset=body_base + need - 1)
    return Graph.from_masks(_masks(n, t))


def emit_graph6(g, max_n=DEFAULT_MAX_N):
    """Encode a Graph as a graph6 line (no trailing newline)."""
    n = g.n
    if n > max_n:
        raise Graph6Error("graph order %d exceeds cap %d" % (n, max_n))
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    m = (n * (n - 1) // 2 + 5) // 6
    # every 3 bytes hold 4 groups; cutting bytes keeps emit linear in m
    b = _triangle(g.adj).to_bytes((m + 3) // 4 * 3, "little")
    out = [head]
    for i in range(0, len(b), 3):
        w = b[i] | b[i + 1] << 8 | b[i + 2] << 16
        out += _CHARS[w & 63], _CHARS[w >> 6 & 63], _CHARS[w >> 12 & 63], _CHARS[w >> 18]
    return "".join(out[:m + 1])


def read_graph6_lines(lines):
    """Parse an iterable of graph6 lines, skipping blank ones.  Yields
    (line number from 1, Graph) per line, or (line number, Graph6Error)
    for a line that fails parse_graph6 at DEFAULT_MAX_N; raises nothing."""
    for lineno, _, g in _read_lines(lines):
        yield lineno, g


def _read_lines(lines):
    """read_graph6_lines with each line's text: (line number, text, Graph)
    or (line number, None, Graph6Error).  The text is the stripped line
    without the prefix; the parser accepts only a graph's one encoding
    (the canonical header, the exact body length, zero padding), so the
    text is emit_graph6 of the Graph."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                yield lineno, line.removeprefix(PREFIX), parse_graph6(line)
            except Graph6Error as e:
                yield lineno, None, e
