"""s-trap detection and exact hypergraph transversals.

A vertex v is an s-trap when floor(s) cops placed on G - {v} control
every neighbour of v (a cop controls a vertex by sitting on it or next
to it).  Its threshold is the least number of vertices other than v
whose closed neighbourhoods hold N(v): an exact minimum hitting set of
the edges N[u] - {v}, u in N(v), by the one transversal solver.
trap_threshold, trap_report and check_lemma4 read the thresholds of a
graph from one walk (_thresholds), and check_lemma4 stops at the first
trap.  Of the 95,717 thresholds over the connected classes n <= 8, the
walk decides the 60,921 (64%) of 1 by one AND of the N[u], u in N(v),
before it builds an edge list; an exit rule (_cover_by_two) answers
32,417 of 2 from ANDs of the edges, and only 2,378 enter the search.

The search has two modes.  Exact: the least cover, which the thresholds
and min_transversal ask.  Decision, given at_most = k: a cover of at
most k vertices or none, with no proof of the minimum, which the solver
asks through min_cover (covers of a vertex set mask by the closed
neighbourhoods of vertices outside a set avoid).  It runs on
edge-incidence masks (see _min_transversal_masks).

The Chvatal-McDiarmid transversal bound for k-uniform hypergraphs,
tau <= (floor(k/2)*m + n) / floor(3k/2), is exposed as a checked
inequality, never used in place of the exact solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import bits

TRANSVERSAL_MAX_N = 64
TRANSVERSAL_MAX_EDGES = 64


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set 0..n-1 plus a list of edges (frozensets of vertices)."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(frozenset(e) for e in self.edges)
        )
        for e in self.edges:
            if not e:
                raise ValueError("hypergraph edge must be nonempty")
            if any(not 0 <= v < self.n for v in e):
                raise ValueError("edge %r out of range for n=%d" % (set(e), self.n))

    def uniformity(self):
        """Common edge size, or None if not uniform (or edgeless)."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


def min_transversal(h):
    """Exact minimum hitting set: (size, witness frozenset)."""
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    size, witness = _min_transversal_masks(h.n, edge_masks)
    return size, frozenset(witness)


def _check_caps(n, m):
    if n > TRANSVERSAL_MAX_N or m > TRANSVERSAL_MAX_EDGES:
        raise ValueError(
            "transversal solver capped at n <= %d, m <= %d"
            % (TRANSVERSAL_MAX_N, TRANSVERSAL_MAX_EDGES)
        )


def _cover_by_two(edge_masks, at_most):
    """The exit rule: the least cover of nonempty edge bitmasks when it
    has at most two vertices, as (size, witness list), on the edges as
    given; for a decision at_most <= 2 with no cover that small,
    (math.inf, None); otherwise None, and the answer needs the search.

    No edges: size 0.  One vertex: when the AND of all edges is nonzero,
    its least vertex.  Two vertices: every cover hits the first edge, so
    walk its vertices x in label order and AND the edges x misses; at the
    first x where that AND is nonzero, the answer is x and the least
    vertex of the AND.
    """
    if not edge_masks:
        return 0, []
    shared = -1
    for e in edge_masks:
        shared &= e
    if shared and at_most:
        return 1, [(shared & -shared).bit_length() - 1]
    if at_most < 2:
        return math.inf, None
    # no vertex hits every edge, so each x leaves some edge, and rest is
    # the AND of one or more edges
    for x in bits(edge_masks[0]):
        low = 1 << x
        rest = -1
        for e in edge_masks:
            if not e & low:
                rest &= e
        if rest:
            return 2, [x, (rest & -rest).bit_length() - 1]
    return None if at_most > 2 else (math.inf, None)


def _min_transversal_masks(n, edge_masks, max_nodes=None, at_most=None):
    """Exact minimum hitting set of nonempty edge bitmasks over vertices
    0..n-1, or, given at_most = k, one of at most k: (size, witness list).

    Branch and bound on the max-degree vertex of a smallest uncovered
    edge.  A node is pruned by the larger of two lower bounds: a greedy
    disjoint-edge matching, and, where that does not prune, the count
    ceil(m / D) of m remaining edges over the most, D, that one vertex
    hits (on closed neighbourhoods, gamma >= n / (Delta + 1)).  The bound
    starts at m + 1, since one vertex per edge always hits every edge,
    so the first descent is never pruned and finds the first cover.

    The search runs on edge-incidence masks.  The kept edges (deduped,
    supersets dropped) are indexed in order of size, and the remaining
    edges of a node are one int of those indices.  inc[v], the edges
    that hold v, makes a branch on v rem & ~inc[v] and v's count of
    remaining edges (inc[v] & rem).bit_count(); the pivot, a smallest
    remaining edge, is the lowest remaining index.  The matching takes
    the lowest remaining edge and clears every edge that meets it with
    one precomputed mask, until no edge is left.

    at_most = k asks the decision: the bound starts at k + 1, so the
    search looks only for covers of at most k vertices, the first it
    finds is the answer, and (math.inf, None) says there is none; to
    depth k, it visits at most sum_{d=0..k} s^d inner nodes, s the
    largest edge.  With max_nodes, the search gives up and returns None
    after that many inner nodes.

    Covers of up to two vertices, and a decision for k <= 2, are
    answered by _cover_by_two without search.
    """
    _check_caps(n, len(edge_masks))
    decision = at_most is not None
    if not decision:
        at_most = len(edge_masks)  # one vertex per edge
    found = _cover_by_two(edge_masks, at_most)
    if found is not None:
        return found
    # dedup and drop supersets: an edge containing another is hit whenever
    # the smaller one is.
    edge_masks = sorted(set(edge_masks), key=int.bit_count)
    kept = []
    for e in edge_masks:
        for k in kept:
            if k & e == k:
                break
        else:
            kept.append(e)
    edge_masks = kept

    inc = [0] * n  # inc[v]: the edges that hold v
    for i, e in enumerate(edge_masks):
        for v in bits(e):
            inc[v] |= 1 << i
    clear = []  # clear[i]: ~(the edges that meet edge i)
    for e in edge_masks:
        meets = 0
        for v in bits(e):
            meets |= inc[v]
        clear.append(~meets)
    best = min(len(edge_masks), at_most) + 1
    witness = None
    left = math.inf if max_nodes is None else max_nodes
    # depth-first, children pushed in reverse so that they pop in order
    stack = [((1 << len(edge_masks)) - 1, ())]
    while stack:
        rem, chosen = stack.pop()
        if not rem:
            if len(chosen) < best:
                best, witness = len(chosen), list(chosen)
                if decision:
                    break
            continue
        left -= 1  # one inner node
        if left < 0:
            return None
        need = best - len(chosen)
        matched, r = 0, rem
        while r and matched < need:
            matched += 1
            r &= clear[(r & -r).bit_length() - 1]
        if matched >= need:
            continue
        m = rem.bit_count()
        if m >= need and -(-m // max((h & rem).bit_count() for h in inc)) >= need:
            continue
        # branch over the vertices of a smallest remaining edge, most
        # remaining edges hit first, then least label
        pivot = edge_masks[(rem & -rem).bit_length() - 1]
        order = sorted((-(inc[v] & rem).bit_count(), v) for v in bits(pivot))
        for _, v in reversed(order):
            stack.append((rem & ~inc[v], chosen + (v,)))
    return (best, witness) if witness else (math.inf, None)


def chvatal_bound(h):
    """Exact rational value of (floor(k/2)*m + n) / floor(3k/2) for a
    k-uniform hypergraph."""
    k = h.uniformity()
    if k is None:
        raise ValueError("chvatal_bound requires a k-uniform hypergraph")
    m = len(h.edges)
    return Fraction((k // 2) * m + h.n, (3 * k) // 2)


def min_cover(g, mask, avoid=0, max_nodes=None, at_most=None):
    """The least number of vertices outside avoid whose closed
    neighbourhoods hold every vertex of mask, as the transversal
    search's (size, witness) on the edges N[u] - avoid, u in mask in
    ascending order; given at_most = k, the decision whether at most k
    of them do, and max_nodes, as there.  None when the search gives
    up, and (math.inf, None) when some N[u] lies inside avoid."""
    adj, keep = g.adj, ~avoid
    edges = []
    for u in bits(mask):  # on Python 3.11 a comprehension is slower
        edges.append((adj[u] | 1 << u) & keep)
    if 0 in edges:
        return math.inf, None
    return _min_transversal_masks(g.n, edges, max_nodes, at_most)


def _thresholds(g, vertices):
    """Yield the threshold of each vertex in vertices, in order: one walk
    over the graph, with the caps checked before the first vertex.
    Vertex v's edges are N[u] - {v} for u in N(v), none empty as each
    holds u.  The threshold is 1 when v has a neighbour and the AND of
    those N[u], v cleared, is nonzero.  Otherwise the edges are built,
    the exit rule answers a threshold of 0 (no neighbour) or 2, and the
    rest enter the search, which tries the exit again at about 1% of
    the walk's time."""
    n, adj = g.n, g.adj
    _check_caps(n, n - 1)  # v has at most n - 1 neighbours, one edge each
    for v in vertices:
        nbrs = bits(adj[v])
        keep = shared = ~(1 << v)
        for u in nbrs:
            shared &= adj[u] | 1 << u
        if shared and nbrs:
            yield 1
            continue
        edges = []
        for u in nbrs:  # on Python 3.11 a comprehension is slower
            edges.append((adj[u] | 1 << u) & keep)
        yield (_cover_by_two(edges, len(edges)) or _min_transversal_masks(n, edges))[0]


def trap_threshold(g, v):
    """Minimum cop count on G - {v} controlling all neighbours of v: the
    least cover of N(v) by closed neighbourhoods of vertices other than
    v (each N[u] holds u, so the cover is finite)."""
    if not 0 <= v < g.n:
        raise ValueError("vertex %d out of range" % v)
    return next(_thresholds(g, (v,)))


def check_lemma5(n, thresholds):
    """The trap-count lemma over every integer alpha in [sqrt(n), n],
    from a graph's per-vertex thresholds: (holds, min_margin), where
    min_margin is the least count - (alpha - 1).  The thresholds are
    counted once; the count at each alpha is a running sum."""
    lo = math.isqrt(n)
    if lo * lo < n:
        lo += 1
    count = 0  # thresholds <= alpha, from alpha = lo - 1 on
    at = [0] * (n + 1)  # at[a]: thresholds equal to a, for lo <= a <= n
    for t in thresholds:
        if t < lo:
            count += 1
        elif t <= n:
            at[t] += 1
    holds = True
    least = math.inf  # the range below is never empty, so it ends an int
    for a in range(lo, n + 1):
        count += at[a]
        margin = count - (a - 1)
        # count > alpha - sqrt(n - alpha) - 1, that is sqrt(n - alpha) >
        # -margin, compared by squares (no floating point)
        if margin <= 0 and n - a <= margin * margin:
            holds = False
        if margin < least:
            least = margin
    return holds, least


def check_lemma4(g):
    """True iff some vertex is a floor(sqrt(n))-trap."""
    s = math.isqrt(g.n)
    return any(t <= s for t in _thresholds(g, range(g.n)))


def trap_report(g, alpha=None):
    """Per-vertex thresholds plus the alpha-trap count for the given
    alpha (default sqrt(n)), which must be finite and nonnegative."""
    if alpha is None:
        alpha = math.isqrt(g.n)
    elif not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative, got %r" % alpha)
    floor_alpha = math.floor(alpha)
    thresholds = list(_thresholds(g, range(g.n)))
    return thresholds, len([t for t in thresholds if t <= floor_alpha])
