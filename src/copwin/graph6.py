"""graph6 text format: one simple undirected graph per ASCII line.

Only plain graph6 is supported (no sparse6/digraph6).  The optional
">>graph6<<" prefix is tolerated on read and never written.  Encoded
bytes are chr(63)..chr(126); the adjacency bits are the upper triangle
in column order, padded with zeros to a multiple of six.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graphs import Graph

PREFIX = ">>graph6<<"
DEFAULT_MAX_N = 64
_FORMAT_MAX_N = 258047  # largest n expressible in the 4-byte header


def parse_graph6(text, max_n=DEFAULT_MAX_N):
    """Decode one graph6 line into a Graph."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(PREFIX):
        base = len(PREFIX)
        line = line[len(PREFIX):]
    if not line:
        raise Graph6Error("empty graph6 line", offset=base)
    data = []
    for i, ch in enumerate(line):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(
                "character %r outside graph6 range 63..126" % ch, offset=base + i
            )
        data.append(code - 63)

    if data[0] < 63:
        n = data[0]
        body = data[1:]
        body_base = base + 1
    else:
        if len(data) < 4:
            raise Graph6Error("truncated extended-n header", offset=base + len(line))
        if data[1] == 63:
            raise Graph6Error(
                "8-byte n encoding not supported (n > %d)" % _FORMAT_MAX_N,
                offset=base + 1,
            )
        n = (data[1] << 12) | (data[2] << 6) | (data[3])
        body = data[4:]
        body_base = base + 4
    if n == 0:
        raise Graph6Error("graph6 n=0 not supported (graphs are nonempty)", offset=base)
    if n > max_n:
        raise Graph6Error(
            "graph order %d exceeds cap %d (raise max_n to accept)" % (n, max_n),
            offset=base,
        )

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error(
            "truncated adjacency section: need %d bytes, got %d" % (need, len(body)),
            offset=body_base + len(body),
        )
    if len(body) > need:
        raise Graph6Error(
            "trailing bytes after adjacency section", offset=body_base + need
        )

    adj = [0] * n
    bit = 0
    for col in range(1, n):
        for row in range(col):
            if body[bit // 6] >> (5 - bit % 6) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit += 1
    # padding bits must be zero for a canonical line; tolerate nonzero? No:
    # reject, so that parse/emit is bit-exact.
    while bit < 6 * need:
        chunk = body[bit // 6]
        if (chunk >> (5 - bit % 6)) & 1:
            raise Graph6Error("nonzero padding bit", offset=body_base + bit // 6)
        bit += 1
    return Graph.from_masks(adj)


def emit_graph6(g, max_n=DEFAULT_MAX_N):
    """Encode a Graph as a graph6 line (no trailing newline)."""
    n = g.n
    if n > max_n:
        raise Graph6Error("graph order %d exceeds cap %d" % (n, max_n))
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    out = list(head)
    acc = 0
    nacc = 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (g.adj[row] >> col & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc)
                acc = 0
                nacc = 0
    if nacc:
        out.append(acc << (6 - nacc))
    return "".join(chr(c + 63) for c in out)


def read_graph6_lines(lines, max_n=DEFAULT_MAX_N):
    """Parse an iterable of graph6 lines, skipping blank ones.  Yields
    (line number from 1, Graph) per line, or (line number, Graph6Error)
    for a line that fails to parse; raises nothing itself."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                yield lineno, parse_graph6(line, max_n=max_n)
            except Graph6Error as e:
                yield lineno, e
