"""Exhaustive small-graph enumeration and cheap canonical labelling.

Two enumeration styles:

* ``enumerate_connected(n)`` -- every *labeled* simple connected graph on
  n vertices, exactly once: it walks all 2^(n(n-1)/2) graph6 triangle
  integers in order, so this is for n <= 8 only (practical up to ~7).

* ``connected_graph_classes(n)`` -- one canonically-labelled
  representative per isomorphism class, by canonical augmentation
  (McKay, "Isomorph-free exhaustive generation", 1998).  Scans that
  check isomorphism-invariant properties run over these.

The canonical form is a minimum adjacency code over orderings that
respect an iterated degree refinement.  Refinement only prunes the
search; it never merges non-isomorphic graphs.  It works on cells: a
round re-keys only the vertices of cells of more than one vertex, since
a singleton has nothing to split, and it hands the search its cells in
colour order.  A vertex's key is one int, the sum over its neighbours
of B^(n - 1 - colour) with B = 2^bit_length(n); a cell's vertices share
a degree and each per-colour count is below B, so descending key order
is ascending sorted neighbour-colour order.  Five exact cuts leave the
chosen ordering unchanged:

* the refinement stops at the first round that splits no cell, since
  further rounds would not change the partition either;
* a discrete refinement admits one ordering, so it is the answer with
  no search, and a search depth whose cell is one vertex places that
  vertex with no choice to make (a forced placement);
* the search skips a vertex that is a twin of one already tried at the
  same node, since swapping twins is an automorphism that fixes the
  placed prefix and so repeats the earlier subtree's codes;
* a prefix whose code exceeds the best leaf's so far is pruned, against
  the best as it stands when the prefix is placed;
* a leaf equal to the best ends the search below its first difference
  from the best, whose subtree an automorphism maps onto one searched.

Each class on n vertices is generated once, with no set of seen forms:

* every class on n - 1 gains a new vertex x of minimum degree, one
  child per Aut(base)-orbit of its admissible neighbour sets (sets in
  one orbit give isomorphic children).  Deleting a minimum-degree vertex
  from a graph on n vertices leaves one on n - 1, so no class is missed;
* a graph's canonical deletion vertex is the first in canonical_order
  among its minimum-degree vertices of the top invariant: the sum of the
  neighbours' degrees, then the triangles through the vertex.  A child
  is kept when x is in the Aut(child)-orbit of that vertex.  A child
  where another vertex beats x's invariant is dropped before it is
  built, and one where x alone holds the top invariant needs no orbit.

A kept child G is then a child of the class of G minus its deletion
vertex only, and within that base of the one orbit of neighbour sets
whose child maps x to the deletion vertex, so it comes out once.  One
walk, ``_orbit``, reads every orbit off the generators of Aut(G) that
the canonical search yields: of neighbour sets in ``_children``, of the
deletion vertex in ``graph_classes`` and of arenas in ``solver.c_G_of_m``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

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


def _refine_cells(nbrs):
    """Iterated neighbour-colour refinement from the degrees: the
    label-invariant cells in colour order, each ascending, a vertex's
    colour being its cell's index.

    A round splits each cell of more than one vertex by the key
    sum(B^(n - 1 - colour of u) for u in N(v)), B = 2^bit_length(n), the
    parts in descending key order in the cell's place.  The key's base-B
    digits are v's neighbour counts per colour, each below B, and a
    cell's vertices share a degree, so that order is the ascending order
    of their sorted neighbour colours.  A round only splits cells, so
    one that splits none is the fixpoint, and a discrete partition
    cannot split."""
    n = len(nbrs)
    by_degree = {}
    for v, ns in enumerate(nbrs):
        by_degree.setdefault(len(ns), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    shift = n.bit_length()  # B = 1 << shift
    weight = [0] * n  # weight[v]: B^(n - 1 - colour of v)
    get = weight.__getitem__
    while len(cells) < n:
        w = 1 << shift * n
        for cell in cells:
            w >>= shift
            for v in cell:
                weight[v] = w
        split = []
        for cell in cells:
            if len(cell) > 1:
                parts = {}
                for v in cell:
                    parts.setdefault(sum(map(get, nbrs[v])), []).append(v)
                if len(parts) > 1:
                    split += [parts[key] for key in sorted(parts, reverse=True)]
                    continue
            split.append(cell)  # a singleton, or a cell that did not split
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_order(g):
    """A vertex ordering giving the minimum adjacency code among all
    orderings consistent with the degree refinement.

    The code of an ordering is the tuple of per-vertex adjacency rows
    restricted to earlier positions, compared lexicographically.  Ties
    go to the first minimum ordering in a depth-first search that places
    the refined cells in color order, each cell's vertices ascending.

    The module's five cuts leave that ordering unchanged.  Of them:

    * at each search node a candidate is skipped when it is a twin of
      one already tried there (v and w are twins when N(v) - {w} =
      N(w) - {v}): swapping them is an automorphism fixing the placed
      prefix, so the later subtree repeats the earlier one's codes;
    * a candidate whose row makes the code exceed the best so far is
      pruned, and the bound is the current best: when a leaf below a
      node improves the best, the node's later candidates are compared
      against the new best;
    * a leaf equal to the best, first differing from it at depth i,
      ends the search below depth i: the automorphism mapping the best
      ordering to that leaf fixes the prefix and maps the subtree the
      best lies in onto the current one, whose codes it repeats.
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
    generate Aut(g).  Every leaf below a first difference (i, w) has
    that first difference, so leaving its subtree loses no generator,
    and the bound prunes only leaves worse than the best.

    The search reads its cells from _refine_cells.  At a depth whose
    cell is one vertex, every leaf places that vertex there, so no
    first difference falls at that depth: the vertex is placed
    directly, with no candidate loop, tried set or twin test, and the
    equal-leaf exit never stops there."""
    n = g.n
    adj = g.adj
    nbrs = [bits(m) for m in adj]
    cells = _refine_cells(nbrs)
    if len(cells) == n:
        return [cell[0] for cell in cells], nbrs, []
    # the cells are placed in color order, so each depth has its cell
    cell_at = [cell for cell in cells for _ in cell]

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
    leaves = []  # one equal leaf per first difference from best_order
    unwind = n  # the depth an equal leaf sends the search back to

    def dfs(depth, equal_prefix):
        """Search below the placed prefix, whose rows equal best_code's
        (equal_prefix) or are smaller; True when a leaf below becomes
        the best.  Every leaf reached is at most the best."""
        nonlocal best_code, best_order, unwind
        if depth == n:
            code = tuple(rows)
            if best_code is None or code < best_code:
                best_code = code
                best_order = placed[:]
                leaves.clear()
                return True
            # the first difference (i, placed[i]) is new: the search
            # leaves each one at its first equal leaf
            i = next(i for i, v in enumerate(placed) if v != best_order[i])
            leaves.append(placed[:])
            unwind = i
            return False
        cell = cell_at[depth]
        if len(cell) == 1:
            # a forced placement: the one candidate, so no twin to skip
            v = cell[0]
            row = sum(map(weight.__getitem__, nbrs[v])) >> n - depth
            if best_code is not None and equal_prefix:
                if row > best_code[depth]:
                    return False
                equal_prefix = row == best_code[depth]
            placed[depth] = v
            rows[depth] = row
            weight[v] = 1 << n - 1 - depth
            improved = dfs(depth + 1, equal_prefix)
            weight[v] = 0
            return improved
        improved = False
        tried = set()
        for v in cell:
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
            if dfs(depth + 1, eq):
                improved = equal_prefix = True
            weight[v] = 0
            if unwind < depth:
                return improved
            unwind = n
        return improved

    dfs(0, True)
    del dfs  # it names itself: freed by refcounting, not the cyclic GC
    if leaves:
        position = sorted(range(n), key=best_order.__getitem__)
        gens += [[leaf[i] for i in position] for leaf in leaves]
    return best_order, nbrs, gens


def canonical_graph(g):
    """Relabel g canonically (isomorphic graphs map to equal Graphs)."""
    return _relabel(*_order_and_neighbors(g)[:2])


def _relabel(order, nbrs):
    """The graph whose vertex i is order[i]."""
    bit = [0] * len(order)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    return Graph.from_masks([sum(map(bit.__getitem__, nbrs[v])) for v in order])


@lru_cache(maxsize=None)
def graph_classes(n):
    """All isomorphism classes of simple graphs on n vertices, as
    canonically-labelled representatives (connected or not).  Each class
    comes out once, as the child of the class left by deleting its
    canonical deletion vertex (see the module docstring)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1),)
    x = n - 1
    reps = []
    for base in graph_classes(n - 1):
        for child, rivals in _children(base):
            order, nbrs, gens = _order_and_neighbors(child)
            if rivals:
                # x must share an orbit with the deletion vertex: the first tied one in order
                tied = rivals | 1 << x
                images = [[1 << v for v in perm] for perm in gens]
                if 1 << x not in _orbit(1 << next(v for v in order if tied >> v & 1), images):
                    continue
            reps.append(_relabel(order, nbrs))
    return tuple(sorted(reps, key=lambda g: g.adj))


def _orbit(mask, images):
    """The orbit of the vertex set mask, as a set of masks, under the
    group that permutations generate, each given as its bit-images
    img[v] = 1 << perm[v], which the caller builds once per graph."""
    orbit = {mask}
    todo = [mask]
    for m in todo:
        new = {sum(map(img.__getitem__, bits(m))) for img in images} - orbit
        orbit |= new
        todo += new
    return orbit


def _neighbour_sets(degs):
    """The admissible neighbour sets S of a new vertex, by size s = |S|:
    it has minimum degree s when every base vertex u has deg(u) + [u in
    S] >= s.  With d the base's minimum degree, those are every set of
    at most d vertices, and the sets of d + 1 holding every vertex of
    degree d."""
    d = min(degs)
    vertex_bits = [1 << u for u in range(len(degs))]
    for s in range(d + 1):
        yield from map(sum, combinations(vertex_bits, s))
    low = sum(1 << u for u, e in enumerate(degs) if e == d)
    rest = [b for b in vertex_bits if not low & b]
    if low.bit_count() <= d + 1:
        for more in combinations(rest, d + 1 - low.bit_count()):
            yield low | sum(more)


def _children(base):
    """The children of base that can pass the deletion rule: base plus a
    new vertex x = n - 1 of minimum degree, one for each Aut(base)-orbit
    of the admissible neighbour sets S (sets in one orbit give
    isomorphic children), where no vertex of minimum degree beats x's
    invariant.  Each comes with the mask of the vertices tying it.

    The invariant of a vertex is (sum of its neighbours' degrees,
    triangles through it), read from S and base's own counts before the
    child is built."""
    adj = base.adj
    degs = base.degrees()
    deg_sum = [sum(degs[w] for w in bits(m)) for m in adj]
    tri = [sum((adj[w] & m).bit_count() for w in bits(m)) // 2 for m in adj]
    of_deg = [0] * (base.n + 1)
    for u, d in enumerate(degs):
        of_deg[d] |= 1 << u
    new_bit = 1 << base.n
    images = None
    seen = set()
    for nb_mask in _neighbour_sets(degs):
        if nb_mask in seen:
            continue
        s = nb_mask.bit_count()
        # x's invariant: its neighbours are S, its triangles the edges in S
        x_sum = s
        x_tri = 0
        for u in bits(nb_mask):
            x_sum += degs[u]
            x_tri += (adj[u] & nb_mask).bit_count()
        top = (x_sum, x_tri // 2)
        # base vertices of degree s in the child: degree s - 1 in S,
        # degree s outside it.  The test gives one answer on a whole
        # orbit of sets, so a set that fails needs no orbit.
        rivals = 0
        for u in bits(of_deg[s - 1] & nb_mask | of_deg[s] & ~nb_mask):
            common = (adj[u] & nb_mask).bit_count()
            inside = nb_mask >> u & 1
            key = (deg_sum[u] + common + s * inside, tri[u] + common * inside)
            if key > top:
                break
            if key == top:
                rivals |= 1 << u
        else:
            if images is None:  # base is searched once one set passes
                images = [[1 << v for v in perm] for perm in _order_and_neighbors(base)[2]]
            seen |= _orbit(nb_mask, images)
            masks = [m | new_bit if nb_mask >> u & 1 else m for u, m in enumerate(adj)]
            masks.append(nb_mask)
            yield Graph.from_masks(masks), rivals


@lru_cache(maxsize=None)
def connected_graph_classes(n):
    """Isomorphism classes of *connected* graphs on n vertices."""
    return tuple(g for g in graph_classes(n) if is_connected(g))
