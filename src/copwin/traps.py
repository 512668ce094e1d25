"""s-trap detection and exact hypergraph transversals.

A vertex v is an s-trap when floor(s) cops placed on G - {v} control
every neighbour of v (a cop controls a vertex by sitting on it or next
to it).  Its threshold is one min_cover query, the package's one cover
query: the least number of vertices outside a set avoid (here v) whose
closed neighbourhoods hold a set mask (here N(v)), an exact minimum
hitting set by the one transversal solver.  Nearly all thresholds of
small graphs are 1 or 2 (93,338 of the 95,717 over the connected
classes n <= 8), and the solver answers covers of up to two vertices
from ANDs of the edges, without search.

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


def _matching_lower_bound(edge_masks):
    """Greedy disjoint-edge matching: pairwise disjoint edges each need
    their own transversal vertex."""
    used = 0
    count = 0
    for e in edge_masks:
        if e & used == 0:
            used |= e
            count += 1
    return count


def _counting_bound_prunes(edge_masks, need):
    """True when ceil(m / D) >= need, where m edges remain and D is the
    most of them any one vertex hits: each chosen vertex hits at most D."""
    m = len(edge_masks)
    if m < need:
        return False  # ceil(m / D) <= m
    union = 0
    for e in edge_masks:
        union |= e
    most = max(sum(e >> v & 1 for e in edge_masks) for v in bits(union))
    return -(-m // most) >= need


def min_transversal(h):
    """Exact minimum hitting set: (size, witness frozenset)."""
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    size, witness = _min_transversal_masks(h.n, edge_masks)
    return size, frozenset(witness)


def _branch_order(pivot, edge_masks):
    """The pivot's vertices in search order: most edges hit, then least label."""
    return sorted(bits(pivot), key=lambda v: -sum(1 for e in edge_masks if e >> v & 1))


class _Stop(Exception):
    """Ends the branch and bound: at the floor, or out of nodes."""


def _min_transversal_masks(n, edge_masks, floor=0, max_nodes=None):
    """Exact minimum hitting set of nonempty edge bitmasks over vertices
    0..n-1: (size, witness list).

    Branch and bound on the max-degree vertex of a smallest uncovered
    edge.  A node is pruned by the larger of two lower bounds: a greedy
    disjoint-edge matching, and, where that does not prune, the count
    ceil(m / D) of m remaining edges over the most, D, that one vertex
    hits (on closed neighbourhoods, gamma >= n / (Delta + 1)).  The bound
    starts at m + 1, since one vertex per edge always hits every edge,
    so the first descent is never pruned and finds the first cover.

    floor is a lower bound on the answer known to the caller: the first
    cover of at most floor vertices ends the search.  For an exact
    minimum it must not exceed the true minimum, as the solver's cover
    bound guarantees (LB <= c <= gamma); above it, the search may stop
    at a larger cover, but of at most floor vertices when one exists:
    all the teleport fixpoint asks.  With max_nodes, the search gives up
    and returns None after that many inner nodes.

    One exit rule answers covers of up to two vertices without search,
    on the edges as given.  No edges: size 0.  One vertex: when the AND
    of all edges is nonzero, its least vertex.  Two vertices: every
    cover hits the first edge, so walk its vertices x in label order and
    AND the edges x misses; at the first x where that AND is nonzero,
    the answer is x and the least vertex of the AND.  Covers of three or
    more vertices need the search.
    """
    if n > TRANSVERSAL_MAX_N or len(edge_masks) > TRANSVERSAL_MAX_EDGES:
        raise ValueError(
            "transversal solver capped at n <= %d, m <= %d"
            % (TRANSVERSAL_MAX_N, TRANSVERSAL_MAX_EDGES)
        )
    if not edge_masks:
        return 0, []
    shared = -1
    for e in edge_masks:
        shared &= e
    if shared:
        return 1, [(shared & -shared).bit_length() - 1]
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

    best_size = len(edge_masks) + 1
    best_set = None
    left = math.inf if max_nodes is None else max_nodes

    def branch(remaining, chosen):
        nonlocal best_size, best_set, left
        if not remaining:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = chosen[:]
                if best_size <= floor:
                    raise _Stop
            return
        left -= 1  # one inner node
        if left < 0:
            raise _Stop
        need = best_size - len(chosen)
        if _matching_lower_bound(remaining) >= need or _counting_bound_prunes(remaining, need):
            return
        # branch over the vertices of a smallest remaining edge
        pivot = min(remaining, key=int.bit_count)
        for v in _branch_order(pivot, remaining):
            chosen.append(v)
            branch([e for e in remaining if not (e >> v & 1)], chosen)
            chosen.pop()

    try:
        branch(edge_masks, [])
    except _Stop:
        if left < 0:
            return None
    return best_size, best_set


def chvatal_bound(h):
    """Exact rational value of (floor(k/2)*m + n) / floor(3k/2) for a
    k-uniform hypergraph."""
    k = h.uniformity()
    if k is None:
        raise ValueError("chvatal_bound requires a k-uniform hypergraph")
    m = len(h.edges)
    return Fraction((k // 2) * m + h.n, (3 * k) // 2)


def min_cover(g, mask, avoid=0, floor=0, max_nodes=None):
    """The least number of vertices outside avoid whose closed
    neighbourhoods hold every vertex of mask, as the transversal
    search's (size, witness) on the edges N[u] - avoid, u in mask in
    ascending order; floor and max_nodes as there.  None when the search
    gives up, and (math.inf, None) when some N[u] lies inside avoid."""
    adj, keep = g.adj, ~avoid
    edges = []
    for u in bits(mask):  # on Python 3.11 a comprehension costs trap_threshold ~15%
        edges.append((adj[u] | 1 << u) & keep)
    if 0 in edges:
        return math.inf, None
    return _min_transversal_masks(g.n, edges, floor, max_nodes)


def trap_threshold(g, v):
    """Minimum cop count on G - {v} controlling all neighbours of v: the
    least cover of N(v) by closed neighbourhoods of vertices other than
    v (each N[u] holds u, so the cover is finite)."""
    if not 0 <= v < g.n:
        raise ValueError("vertex %d out of range" % v)
    return min_cover(g, g.adj[v], 1 << v)[0]


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
    return any(trap_threshold(g, v) <= s for v in range(g.n))


def trap_report(g, alpha=None):
    """Per-vertex thresholds plus the alpha-trap count for the given
    alpha (default sqrt(n)), which must be finite and nonnegative."""
    if alpha is None:
        alpha = math.isqrt(g.n)
    elif not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative, got %r" % alpha)
    thresholds = [trap_threshold(g, v) for v in range(g.n)]
    floor_alpha = math.floor(alpha)
    count = sum(1 for t in thresholds if t <= floor_alpha)
    return thresholds, count
