"""Reference graph routines of the benchmark's own, independent of copwin.

Graphs are (n, adj) with adj a list of int bitmasks.  Inputs are written
and outputs are checked with these routines, so that a defect in the
package cannot make its own answers look right.
"""

from __future__ import annotations

from itertools import combinations


def g6_decode(line):
    """graph6 line -> (n, adj); small graphs only (n <= 62)."""
    data = [ord(c) - 63 for c in line.strip()]
    n = data[0]
    if not 1 <= n <= 62:
        raise ValueError("graph6 order %d outside 1..62" % n)
    adj = [0] * n
    bit = 0
    for col in range(1, n):
        for row in range(col):
            if data[1 + bit // 6] >> (5 - bit % 6) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit += 1
    return n, adj


def g6_encode(n, adj):
    out = [n]
    acc = nacc = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (adj[row] >> col & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc)
                acc = nacc = 0
    if nacc:
        out.append(acc << (6 - nacc))
    return "".join(chr(c + 63) for c in out)


def edges(n, adj):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def relabel(n, adj, perm):
    """Vertex v becomes perm[v]."""
    out = [0] * n
    for u, v in edges(n, adj):
        out[perm[u]] |= 1 << perm[v]
        out[perm[v]] |= 1 << perm[u]
    return out


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_dist(n, adj, s):
    dist = [-1] * n
    dist[s] = 0
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in _bits(adj[u]):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def is_connected(n, adj):
    return min(bfs_dist(n, adj, 0)) >= 0


def diameter(n, adj):
    """Largest distance; None for a disconnected graph."""
    best = 0
    for s in range(n):
        dist = bfs_dist(n, adj, s)
        if min(dist) < 0:
            return None
        best = max(best, max(dist))
    return best


def is_bipartite(n, adj):
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in _bits(adj[u]):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def theorem1_eligible(n, adj):
    """Hypothesis of Theorem 1: diameter <= 2, or bipartite of diameter 3."""
    d = diameter(n, adj)
    return d is not None and (d <= 2 or (d == 3 and is_bipartite(n, adj)))


def girth(n, adj):
    """Shortest cycle length (None for a forest), by BFS from each vertex."""
    best = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in _bits(adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def min_degree(n, adj):
    return min(m.bit_count() for m in adj)


def aigner_fromme_lower_bound(n, adj):
    """Aigner and Fromme (1984): girth >= 5 forces c >= minimum degree."""
    g = girth(n, adj)
    return min_degree(n, adj) if g is None or g >= 5 else 1


def is_dismantlable(n, adj):
    """Cop-win test (Nowakowski-Winkler, Quilliot): strip dominated
    vertices one at a time; cop-win iff one vertex remains."""
    closed = {v: adj[v] | 1 << v for v in range(n)}
    while len(closed) > 1:
        for u, cu in closed.items():
            if any(w != u and cu & ~cw == 0 for w, cw in closed.items()):
                break
        else:
            return False
        del closed[u]
        for w in closed:
            closed[w] &= ~(1 << u)
    return True


def small_cop_number(n, adj):
    """c(G) for a connected graph on fewer than 10 vertices: 1 if
    dismantlable, else 2 (no 3-cop-win graph has fewer than 10 vertices;
    Baird et al. 2014)."""
    if n >= 10:
        raise ValueError("small_cop_number needs n < 10")
    return 1 if is_dismantlable(n, adj) else 2


def trap_threshold(n, adj, v):
    """Fewest vertices of G - v dominating every neighbour of v, by
    exhaustive search over vertex subsets."""
    need = [(adj[u] | 1 << u) & ~(1 << v) for u in _bits(adj[v])]
    if not need:
        return 0
    cands = [w for w in range(n) if w != v]
    for size in range(1, len(cands) + 1):
        for combo in combinations(cands, size):
            hit = 0
            for w in combo:
                hit |= 1 << w
            if all(e & hit for e in need):
                return size
    raise AssertionError("unreachable: all of G - v hits every edge")


def random_connected(rng, n, p):
    """A G(n, p) sample conditioned on connectivity, by rejection."""
    while True:
        adj = [0] * n
        for v in range(1, n):
            for u in range(v):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        if is_connected(n, adj):
            return adj
