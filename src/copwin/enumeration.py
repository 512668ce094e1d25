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

A fourth cut leaves the class list unchanged: each base tries one child
per orbit of its neighbour sets under the automorphisms the search
yields.  Sets in one Aut(base)-orbit give isomorphic children, and a
subgroup's orbits only split Aut's, so it would still be exact.
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
    A singleton cell's key is its color alone: no other key starts with
    that color, so the order of the keys is the same.
    """
    colors = [len(ns) for ns in nbrs]
    cells = len(set(colors))
    while True:
        size = [0] * len(nbrs)
        for c in colors:
            size[c] += 1
        get = colors.__getitem__
        keys = [(c, *sorted(map(get, ns))) if size[c] > 1 else (c,) for c, ns in zip(colors, nbrs)]
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
    """canonical_order(g), the neighbour lists it was computed from, and
    generators of Aut(g), each a list perm with perm[v] the image of v.

    Automorphisms keep the refined cells, so they map the best ordering
    onto exactly the leaves of equal code, and a twin-skipped subtree is
    a twin swap's image of a searched one.  So the twin swaps and one
    equal leaf per first difference (position, vertex) from the best
    ordering hold a transversal of each stabiliser along it: they
    generate Aut(g)."""
    n = g.n
    adj = g.adj
    nbrs = [bits(m) for m in adj]
    colors = _refine_colors(nbrs)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    if len(cells) == n:
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        return order, nbrs, []
    # the cells are placed in color order, so each depth has its cell
    cell_at = [cells[c] for c in sorted(cells) for _ in cells[c]]

    # twin[v]: least twin of v (v itself if none).  Twins share their
    # open neighbourhoods (non-adjacent) or their closed ones (adjacent).
    # N(v) = N[w] is impossible (w in N(v) puts v in N(w), so in N(v)),
    # so one dict holds both kinds of key.  gens starts with twin swaps.
    first = {}
    twin = []
    gens = []
    for v, m in enumerate(adj):
        t = first.get(m, first.get(m | 1 << v, v))
        first[m] = first[m | 1 << v] = t
        twin.append(t)
        if t != v:
            perm = list(range(n))
            perm[v], perm[t] = t, v
            gens.append(perm)

    # weight[v]: 1 << (n - 1 - position of v) once placed, else 0, so a
    # row is its placed neighbours' weights shifted down by n - depth
    placed = [0] * n
    rows = [0] * n
    weight = [0] * n
    best_code = None
    best_order = None
    leaves = {}

    def dfs(depth, equal_prefix):
        nonlocal best_code, best_order
        if depth == n:
            code = tuple(rows)
            if best_code is None or code < best_code:
                best_code = code
                best_order = placed[:]
                leaves.clear()
            elif code == best_code:
                # keep one leaf per first difference from best_order
                i = next(i for i, v in enumerate(placed) if v != best_order[i])
                leaves.setdefault((i, placed[i]), placed[:])
            return
        tried = set()
        for v in cell_at[depth]:
            if weight[v] or twin[v] in tried:
                continue
            tried.add(twin[v])
            row = sum(map(weight.__getitem__, nbrs[v])) >> n - depth
            eq = equal_prefix
            if best_code is not None and eq:
                if row > best_code[depth]:
                    continue
                eq = row == best_code[depth]
            placed[depth] = v
            rows[depth] = row
            weight[v] = 1 << n - 1 - depth
            dfs(depth + 1, eq)
            weight[v] = 0

    dfs(0, True)
    if leaves:
        position = sorted(range(n), key=best_order.__getitem__)
        gens += [[leaf[i] for i in position] for leaf in leaves.values()]
    return best_order, nbrs, gens


def canonical_graph(g):
    """Relabel g canonically (isomorphic graphs map to equal Graphs)."""
    order, nbrs, _ = _order_and_neighbors(g)
    bit = [0] * g.n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return Graph.from_masks([sum(map(bit.__getitem__, nbrs[v])) for v in order])


@lru_cache(maxsize=None)
def graph_classes(n):
    """All isomorphism classes of simple graphs on n vertices, as
    canonically-labelled representatives (connected or not).  Each class
    on n - 1 tries one child per Aut-orbit (the module's fourth cut)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1),)
    reps = {canonical_graph(child) for base in graph_classes(n - 1) for child in _children(base)}
    return tuple(sorted(reps, key=lambda g: g.adj))


def _children(base):
    """base plus a new vertex n - 1 of minimum degree: one child for each
    Aut(base)-orbit of the admissible neighbour sets S, which all give
    isomorphic children."""
    n = base.n + 1
    new_bit = 1 << (n - 1)
    degs = base.degrees()
    # below[s]: mask of base vertices of degree < s
    below = [sum(1 << u for u, d in enumerate(degs) if d < s) for s in range(n)]
    images = [[1 << x for x in perm] for perm in _order_and_neighbors(base)[2]]
    seen = set()
    for nb_mask in range(1 << (n - 1)):
        # the new vertex must have minimum degree s: every base vertex
        # u needs deg(u) + [u in S] >= s
        s = nb_mask.bit_count()
        if below[s] & ~nb_mask or (s and below[s - 1]) or nb_mask in seen:
            continue
        orbit = [nb_mask]
        seen.add(nb_mask)
        for m in orbit:
            new = {sum(img[u] for u in bits(m)) for img in images} - seen
            seen |= new
            orbit += new
        masks = [m | new_bit if nb_mask >> u & 1 else m for u, m in enumerate(base.adj)]
        masks.append(nb_mask)
        yield Graph.from_masks(masks)


@lru_cache(maxsize=None)
def connected_graph_classes(n):
    """Isomorphism classes of *connected* graphs on n vertices."""
    return tuple(g for g in graph_classes(n) if is_connected(g))
