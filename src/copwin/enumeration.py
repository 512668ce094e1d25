"""Exhaustive small-graph enumeration and cheap canonical labelling.

Two enumeration styles:

* ``enumerate_connected(n)`` -- every *labeled* simple connected graph on
  n vertices, exactly once: it walks all 2^(n(n-1)/2) graph6 triangle
  integers in order, so this is for n <= 8 only (practical up to ~7).

* ``connected_graph_classes(n)`` -- one canonically-labelled
  representative per isomorphism class, built by vertex augmentation
  with canonical-form dedup.  Scans that check isomorphism-invariant
  properties run over these.  Only augmentations whose new vertex has
  minimum degree are tried: deleting a minimum-degree vertex from any
  graph on n vertices leaves a graph on n - 1, so no class is missed.

The canonical form is a minimum adjacency code over orderings that
respect an iterated degree refinement.  Refinement only prunes the
search; it never merges non-isomorphic graphs.  Three exact cuts leave
the chosen ordering unchanged:

* the refinement stops at the first round that splits no cell, since
  further rounds would not change the partition either;
* a discrete refinement admits one ordering, so it is the answer with
  no search;
* the search skips a vertex that is a twin of one already tried at the
  same node, since swapping twins is an automorphism that fixes the
  placed prefix and so repeats the earlier subtree's codes.
"""

from __future__ import annotations

from functools import lru_cache

from .graph6 import _masks
from .graphs import Graph, bits, is_connected

ENUMERATION_MAX_N = 8


def enumerate_connected(n):
    """Yield every labeled simple connected graph on n vertices once."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(
            "enumerate_connected supports 1 <= n <= %d, got %d"
            % (ENUMERATION_MAX_N, n)
        )
    for t in range(1 << n * (n - 1) // 2):
        g = Graph.from_masks(_masks(n, t))
        if is_connected(g):
            yield g


def _refine_colors(nbrs):
    """Iterated neighbor-color refinement from the degrees; returns a
    label-invariant coloring as a list of color indices, colors ordered
    by their key.

    A round only splits cells, since a key starts with the vertex's own
    color.  So a round that splits no cell is the fixpoint, up to the
    renumbering it already did, and a discrete coloring cannot split.
    """
    colors = [len(ns) for ns in nbrs]
    cells = len(set(colors))
    while True:
        keys = [
            (colors[v], tuple(sorted([colors[u] for u in ns])))
            for v, ns in enumerate(nbrs)
        ]
        order = sorted(set(keys))
        index = {k: i for i, k in enumerate(order)}
        colors = [index[k] for k in keys]
        if len(order) in (cells, len(nbrs)):
            return colors
        cells = len(order)


def canonical_order(g):
    """A vertex ordering giving the minimum adjacency code among all
    orderings consistent with the degree refinement.

    The code of an ordering is the tuple of per-vertex adjacency rows
    restricted to earlier positions, compared lexicographically.  Ties
    go to the first minimum ordering in a depth-first search that places
    the refined cells in color order, each cell's vertices ascending.

    Three cuts leave that ordering unchanged:

    * the refinement stops at the first round that splits no cell: a
      later round would split none either, so the cells are final;
    * a discrete refinement is the order itself: it admits one ordering;
    * at each search node a candidate is skipped when it is a twin of
      one already tried there (v and w are twins when N(v) - {w} =
      N(w) - {v}): swapping them is an automorphism fixing the placed
      prefix, so the later subtree repeats the earlier one's codes.
    """
    return _order_and_neighbors(g)[0]


def _order_and_neighbors(g):
    """canonical_order(g) and the neighbour lists it was computed from."""
    n = g.n
    adj = g.adj
    nbrs = [list(bits(m)) for m in adj]
    colors = _refine_colors(nbrs)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    if len(cells) == n:
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        return order, nbrs
    cell_seq = [cells[c] for c in sorted(cells)]

    # twin[v]: least twin of v (v itself if none).  Twins share their
    # open neighbourhoods (non-adjacent) or their closed ones (adjacent).
    # N(v) = N[w] is impossible (w in N(v) puts v in N(w), so in N(v)),
    # so one dict holds both kinds of key.
    first = {}
    twin = []
    for v, m in enumerate(adj):
        t = first.get(m, first.get(m | 1 << v, v))
        first[m] = first[m | 1 << v] = t
        twin.append(t)

    placed = [0] * n
    rows = [0] * n
    used = [False] * n
    best_code = None
    best_order = None

    def dfs(depth, cell_idx, equal_prefix):
        nonlocal best_code, best_order
        if depth == n:
            code = tuple(rows)
            if best_code is None or code < best_code:
                best_code = code
                best_order = placed[:]
            return
        cell = cell_seq[cell_idx]
        remaining = [v for v in cell if not used[v]]
        next_cell = cell_idx + (1 if len(remaining) == 1 else 0)
        tried = set()
        for v in remaining:
            if twin[v] in tried:
                continue
            tried.add(twin[v])
            av = adj[v]
            row = 0
            for i in range(depth):
                row = (row << 1) | (av >> placed[i] & 1)
            eq = equal_prefix
            if best_code is not None and eq:
                if row > best_code[depth]:
                    continue
                eq = row == best_code[depth]
            placed[depth] = v
            rows[depth] = row
            used[v] = True
            dfs(depth + 1, next_cell, eq)
            used[v] = False

    dfs(0, 0, True)
    return best_order, nbrs


def canonical_graph(g):
    """Relabel g canonically (isomorphic graphs map to equal Graphs)."""
    order, nbrs = _order_and_neighbors(g)
    bit = [0] * g.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return Graph.from_masks([sum(map(bit.__getitem__, nbrs[v])) for v in order])


@lru_cache(maxsize=None)
def graph_classes(n):
    """All isomorphism classes of simple graphs on n vertices, as
    canonically-labelled representatives (connected or not)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1),)
    reps = set()
    new_bit = 1 << (n - 1)
    for base in graph_classes(n - 1):
        degs = base.degrees()
        # below[s]: mask of base vertices of degree < s
        below = [sum(1 << u for u, d in enumerate(degs) if d < s) for s in range(n)]
        for nb_mask in range(1 << (n - 1)):
            # the new vertex must have minimum degree s: every base vertex
            # u needs deg(u) + [u in S] >= s
            s = nb_mask.bit_count()
            if below[s] & ~nb_mask or (s and below[s - 1]):
                continue
            masks = [
                m | new_bit if nb_mask >> u & 1 else m for u, m in enumerate(base.adj)
            ]
            masks.append(nb_mask)
            reps.add(canonical_graph(Graph.from_masks(masks)))
    return tuple(sorted(reps, key=lambda g: g.adj))


@lru_cache(maxsize=None)
def connected_graph_classes(n):
    """Isomorphism classes of *connected* graphs on n vertices."""
    return tuple(g for g in graph_classes(n) if is_connected(g))
