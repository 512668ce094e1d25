"""Simple undirected graphs on dense integer labels, with bitmask adjacency.

Vertices are 0..n-1.  Adjacency rows are Python ints used as bitsets, so
graphs well beyond 64 vertices work without a separate representation;
the 64-vertex figure only appears as the default parser cap in graph6.

Every walk over the set bits of a mask goes through ``bits``.  One
breadth-first walk, ``layers``, yields the distance layers from a source
as bitmasks; reachability, distances and girth are each a few lines on
top of it.  ``diameter`` walks from every source, and ``is_bipartite``
tests each layer's rows as it builds the next, so for speed both inline
the BFS rather than resume a generator once a layer.
"""

from __future__ import annotations

import functools
import math


class Graph:
    """Immutable simple undirected graph.

    Treat instances as read-only after construction; everything in this
    package shares Graph values freely across workers on that basis.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("graph must have at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def from_masks(cls, masks):
        g = cls.__new__(cls)
        g.n = len(masks)
        g.adj = tuple(masks)
        return g

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v):
        return list(bits(self.adj[v]))

    def degrees(self):
        return [m.bit_count() for m in self.adj]

    def closed_mask(self, v):
        return self.adj[v] | (1 << v)

    def edges(self):
        return [(u, v) for u, m in enumerate(self.adj) for v in bits(m >> (u + 1) << (u + 1))]

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return "Graph(n=%d, edges=%r)" % (self.n, self.edges())


def bits(mask):
    """The set bit positions of a nonnegative int bitmask, ascending, as a
    tuple: the one loop over a mask's bits in the package.  Each nonzero
    byte is read from a table of 256 for its offset, shared by every
    caller as tuples are immutable; a run of zero bytes is jumped in one
    shift, to the byte of the lowest bit left.  The tables of the first
    two bytes (every vertex mask of a graph on at most 16 vertices) are
    built at import."""
    if 0 <= mask < 256:
        return _BYTE_BITS[mask]
    if mask < 0:
        raise ValueError("bits needs a nonnegative mask, not %d" % mask)
    if mask < 65536:  # at most 16 vertices, as in the n = 9 scans: no loop
        return _BYTE_BITS[mask & 255] + _SECOND_BYTE[mask >> 8]
    out = _BYTE_BITS[mask & 255]
    offset = 8
    while mask := mask >> 8:
        byte = mask & 255
        if not byte:
            skip = (mask & -mask).bit_length() - 1 & ~7  # whole zero bytes below the lowest bit
            mask >>= skip
            offset += skip
            byte = mask & 255
        out += _byte_bits(offset)[byte]
        offset += 8
    return out


@functools.lru_cache(maxsize=None)
def _byte_bits(offset):
    """Each byte value's set bit positions plus offset; built once per offset."""
    return tuple(tuple(v + offset for v in range(8) if x >> v & 1) for x in range(256))


_BYTE_BITS, _SECOND_BYTE = _byte_bits(0), _byte_bits(8)


def layers(g, src):
    """The BFS layers from src as bitmasks: {src}, then the vertices at
    distance 1, 2, ... from it; the distance questions below read them,
    all but diameter and is_bipartite, which inline the walk."""
    adj = g.adj
    seen = frontier = 1 << src
    while frontier:
        yield frontier
        new = 0
        for v in bits(frontier):
            new |= adj[v]
        frontier = new & ~seen
        seen |= frontier


def reachable_mask(g, start):
    return sum(layers(g, start))  # the layers are disjoint


def is_connected(g):
    return reachable_mask(g, 0) == (1 << g.n) - 1


def bfs_distances(g, src):
    """Shortest-path distances from src; -1 for unreachable vertices."""
    dist = [-1] * g.n
    for d, layer in enumerate(layers(g, src)):
        for v in bits(layer):
            dist[v] = d
    return dist


def diameter(g):
    """Max shortest-path distance over vertex pairs; math.inf if disconnected.

    K1 has diameter 0.  From each source s of a larger graph, the walk of
    ``layers`` starts at depth 1 with adj[s] and runs until it has reached
    every vertex; a frontier that empties first (at once, for an isolated
    s) means g is disconnected, and math.inf is returned at once.
    """
    if g.n == 1:
        return 0
    adj = g.adj
    full = (1 << g.n) - 1
    best = 1
    for s, frontier in enumerate(adj):
        seen = frontier | 1 << s
        depth = 1
        while seen != full:
            new = 0
            for v in bits(frontier):
                new |= adj[v]
            frontier = new & ~seen
            if not frontier:
                return math.inf
            seen |= frontier
            depth += 1
        if depth > best:
            best = depth
    return best


def is_bipartite(g):
    """No edge joins two vertices of one BFS layer, in every component.
    The walk of ``layers`` is inlined, so that each vertex's row is read
    once: for the in-layer test and for the next frontier."""
    adj = g.adj
    seen = 0
    for s in range(g.n):
        if seen >> s & 1:
            continue
        frontier = 1 << s
        seen |= frontier
        while frontier:
            new = 0
            for v in bits(frontier):
                row = adj[v]
                if row & frontier:
                    return False
                new |= row
            frontier = new & ~seen
            seen |= frontier
    return True


def girth(g):
    """Length of a shortest cycle; math.inf for forests.

    From each source, the first layer d holding a vertex with two
    neighbours in layer d - 1 closes a cycle of length 2d; failing that,
    an edge inside layer d closes one of length 2d + 1.  Either closed
    walk holds a cycle no longer than itself, and a source on a shortest
    cycle finds exactly its length, so the least value over all sources
    is the girth.
    """
    adj = g.adj
    best = math.inf
    for s in range(g.n):
        prev = 0
        for d, layer in enumerate(layers(g, s)):
            if 2 * d >= best:
                break
            if any((adj[v] & prev).bit_count() > 1 for v in bits(layer)):
                best = 2 * d
                break
            if any(adj[v] & layer for v in bits(layer)):
                best = 2 * d + 1
                break
            prev = layer
    return best


def induced_subgraph(g, verts):
    """Induced subgraph on the given vertices, relabelled 0..m-1 ascending."""
    verts = sorted(set(verts))
    if not verts or verts[0] < 0 or verts[-1] >= g.n:
        raise ValueError("induced subgraph needs one or more vertices, all in 0..%d" % (g.n - 1))
    index = {v: i for i, v in enumerate(verts)}
    vm = sum(1 << v for v in verts)
    return Graph.from_masks([sum(1 << index[w] for w in bits(g.adj[v] & vm)) for v in verts])


def core(g):
    """The corner-free core of g, as the mask of the vertices left.

    A corner is a vertex u with N[u] inside N[v] for some other vertex v;
    then v is a neighbour of u.  Corners are deleted, each against the
    vertices still alive, until none is left.  Deleting a corner is a
    retract that keeps the cop number (Berarducci and Intrigila, 1993),
    and the core is the same up to isomorphism in every deletion order.
    """
    adj = g.adj
    alive = (1 << g.n) - 1
    shrunk = True
    while shrunk:
        shrunk = False
        for u, nu in enumerate(adj):
            bit = 1 << u
            if not alive & bit:
                continue
            cu = (nu | bit) & alive
            for v in bits(nu & alive):
                if cu & ~(adj[v] | 1 << v) == 0:
                    alive ^= bit
                    shrunk = True
                    break
    return alive


def is_dismantlable(g):
    """Cop-win test (Nowakowski and Winkler, 1983): the core is K_1.
    Each component keeps a vertex of the core, so a disconnected graph
    is not dismantlable."""
    return core(g).bit_count() == 1
