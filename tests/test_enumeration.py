import hashlib
import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from copwin.enumeration import (
    _children,
    _neighbour_sets,
    _order_and_neighbors,
    canonical_graph,
    canonical_order,
    connected_graph_classes,
    enumerate_connected,
    graph_classes,
)
from copwin.families import complete, cycle, incidence, path, petersen, polarity
from copwin.graph6 import emit_graph6
from copwin.graphs import Graph, is_connected

# graph6 line of each connected class for n = 1..7, in enumeration order
CONNECTED_LE7 = os.path.join(os.path.dirname(__file__), "data", "connected_classes_le7.g6")

# sha256 of the graph6 lines (each plus "\n") of all 12,346 classes on 8
# vertices, in graph_classes order
GRAPH_CLASSES_8_SHA256 = "7b11794da844370f8d16b2bce8dece53ed048b8249cb8b7a92e00f90c0652e19"


# labeled connected graph counts; n=3 by hand (path x3 + triangle), n=4 by
# complement counting
LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}

# isomorphism classes of graphs / connected graphs on n vertices
CLASS_COUNTS = {
    1: (1, 1),
    2: (2, 1),
    3: (4, 2),
    4: (11, 6),
    5: (34, 21),
    6: (156, 112),
    7: (1044, 853),
}


class TestLabeledEnumeration:
    @pytest.mark.parametrize("n,count", sorted(LABELED_CONNECTED.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    def test_only_connected(self):
        assert all(is_connected(g) for g in enumerate_connected(4))

    def test_no_duplicates(self):
        seen = set(g.adj for g in enumerate_connected(4))
        assert len(seen) == 38

    def test_predicate_filter(self):
        bulls = sum(1 for g in enumerate_connected(4) if len(g.edges()) == 3)
        # labeled trees on 4 vertices: Cayley 4^2
        assert bulls == 16

    def test_range_check(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(9))
        with pytest.raises(ValueError):
            list(enumerate_connected(0))
        with pytest.raises(ValueError, match="n must be >= 1"):
            graph_classes(0)


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonical:
    @given(st.integers(1, 7), st.integers(0, 1 << 21), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabeling(self, n, mask, rnd):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        perm = list(range(n))
        rnd.shuffle(perm)
        assert canonical_graph(g) == canonical_graph(relabel(g, perm))

    def test_distinguishes_nonisomorphic(self):
        g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path
        g2 = Graph(4, [(0, 1), (0, 2), (0, 3)])  # star
        assert canonical_graph(g1) != canonical_graph(g2)

    def test_idempotent(self):
        g = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
        cg = canonical_graph(g)
        assert canonical_graph(cg).adj == cg.adj


def _refined_cells(g):
    """Reference degree refinement, iterated until a round changes no
    color: the cells in color order, each ascending."""
    colors = g.degrees()
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(g.n)
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
        colors = new


def _code(g, order):
    """Adjacency rows restricted to earlier positions, earliest bit high."""
    return tuple(
        sum((g.adj[v] >> order[j] & 1) << (i - 1 - j) for j in range(i))
        for i, v in enumerate(order)
    )


def _brute_force_order(g):
    """The first ordering of least code among all orderings that place
    the refined cells in order; per-cell permutations come in
    lexicographic order, so the first minimum is the search's tie-break."""
    orderings = itertools.product(*(itertools.permutations(c) for c in _refined_cells(g)))
    return list(min((sum(p, ()) for p in orderings), key=lambda o: _code(g, o)))


def _reference_order(g):
    """The first ordering of least code in a depth-first search over every
    ordering that places the refined cells in order, each cell's vertices
    ascending.  A prefix is left only when its code already exceeds the
    best leaf's prefix, so no minimum is lost and a tie keeps the first."""
    cell_at = [cell for cell in _refined_cells(g) for _ in cell]
    best = []

    def search(order, code):
        i = len(order)
        if i == g.n:
            if not best or code < best[0]:
                best[:] = [code, order]
            return
        for v in cell_at[i]:
            if v in order:
                continue
            row = sum((g.adj[v] >> order[j] & 1) << (i - 1 - j) for j in range(i))
            if best and code + (row,) > best[0][: i + 1]:
                continue
            search(order + [v], code + (row,))

    search([], ())
    return best[1]


def _complete_multipartite(*parts):
    n = sum(parts)
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


def _cube():
    return Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if u < u ^ 1 << b])


# twin-rich graphs, where the twin rule cuts most; C_n and Q3 have no
# twins, and P7's refinement splits cells in two rounds after the degrees
NAMED_GRAPHS = {
    "K7": complete(7),
    "empty7": Graph(7),
    "K2,5": _complete_multipartite(2, 5),
    "K3,3": _complete_multipartite(3, 3),
    "K1,2,3": _complete_multipartite(1, 2, 3),
    "K2,2,2": _complete_multipartite(2, 2, 2),
    "C6": cycle(6),
    "C7": cycle(7),
    "Q3": _cube(),
    "P7": path(7),
}


# Petersen and Heawood refine to one cell, Polarity(3) to three; each is
# relabelled once, by a seeded shuffle
SEARCH_GRAPHS = {
    name: relabel(g, random.Random(name).sample(range(g.n), g.n))
    for name, g in (("Petersen", petersen()), ("Polarity(3)", polarity(3)), ("Heawood", incidence(2)))
}


class TestCanonicalExactness:
    """canonical_order against a brute-force minimum over every ordering
    consistent with the refined cells, and against a plain search for it:
    the refinement's early stop, the discrete shortcut, the twin rule, the
    current-best bound and the equal-leaf exit must not change the answer."""

    @given(st.integers(1, 7), st.integers(0, 1 << 21), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, n, mask, rnd):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        perm = list(range(n))
        rnd.shuffle(perm)
        g = relabel(g, perm)
        assert canonical_order(g) == _brute_force_order(g) == _reference_order(g)

    @pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
    def test_named_graphs(self, name):
        g = NAMED_GRAPHS[name]
        assert canonical_order(g) == _brute_force_order(g)

    @pytest.mark.parametrize("name", sorted(SEARCH_GRAPHS))
    def test_search_matches_reference_search(self, name):
        """Graphs too large for the brute force, whose search leaves many
        subtrees by the current-best bound and by equal leaves."""
        g = SEARCH_GRAPHS[name]
        assert canonical_order(g) == _reference_order(g)


class TestClasses:
    @pytest.mark.parametrize("n,counts", sorted(CLASS_COUNTS.items()))
    def test_class_counts(self, n, counts):
        assert len(graph_classes(n)) == counts[0]
        assert len(connected_graph_classes(n)) == counts[1]

    def test_classes_are_canonical(self):
        for g in graph_classes(5):
            assert canonical_graph(g).adj == g.adj

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_classes_cover_labeled_enumeration(self, n):
        # neither dedup nor the minimum-degree augmentation rule may drop
        # an isomorphism class
        labeled_keys = {canonical_graph(g) for g in enumerate_connected(n)}
        class_keys = {canonical_graph(g) for g in connected_graph_classes(n)}
        assert labeled_keys == class_keys

    def test_connected_classes_match_pinned_corpus(self):
        """Representatives and their order are pinned byte for byte up to
        n = 7, one past the CLI golden files, so a relabelling shows."""
        text = "".join(
            emit_graph6(g) + "\n" for n in range(1, 8) for g in connected_graph_classes(n)
        )
        with open(CONNECTED_LE7, newline="") as fh:
            assert text == fh.read()

    def test_classes_equal_the_dedup_route(self):
        """The deletion rule keeps exactly one child per class: the
        classes equal those of the route without it, where every
        admissible child of every class on n - 1 is canonicalised into a
        set, then sorted."""
        classes = [Graph(1)]
        for n in range(2, 8):
            reps = set()
            for base in classes:
                for nb_mask in _admissible(base):
                    masks = [m | 1 << base.n if nb_mask >> u & 1 else m for u, m in enumerate(base.adj)]
                    reps.add(canonical_graph(Graph.from_masks(masks + [nb_mask])))
            classes = sorted(reps, key=lambda g: g.adj)
            assert graph_classes(n) == tuple(classes)

    def test_classes_n8_pinned(self):
        text = "".join(emit_graph6(g) + "\n" for g in graph_classes(8))
        assert hashlib.sha256(text.encode()).hexdigest() == GRAPH_CLASSES_8_SHA256


def _is_automorphism(g, perm):
    return all(g.adj[perm[v]] == sum(1 << perm[u] for u in g.neighbors(v)) for v in range(g.n))


def _group_order(gens, n):
    """Order of the permutation group the generators span, by closure."""
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    for p in todo:
        for gen in gens:
            q = tuple(gen[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


# |Aut(G)|: the empty graph's group comes from twin swaps alone
AUT_ORDERS = {
    "Petersen": (petersen(), 120),
    "Q3": (_cube(), 48),
    "K3,3": (_complete_multipartite(3, 3), 72),
    "K2,2,2": (_complete_multipartite(2, 2, 2), 48),
    "C7": (cycle(7), 14),
    "P7": (path(7), 2),
    "K1,2,3": (_complete_multipartite(1, 2, 3), 12),
    "Heawood": (incidence(2), 336),
    "empty5": (Graph(5), 120),
}


class TestAutomorphisms:
    """The canonical search also yields generators of Aut(G)."""

    @pytest.mark.parametrize("name", sorted(AUT_ORDERS))
    def test_generators_span_the_group(self, name):
        g, order = AUT_ORDERS[name]
        gens = _order_and_neighbors(g)[2]
        assert all(_is_automorphism(g, p) for p in gens)
        assert _group_order(gens, g.n) == order

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_class(self, n):
        """The enumeration's acceptance test reads its orbits from these
        generators, so they must span Aut(g) on every class it builds."""
        for g in graph_classes(n):
            brute = sum(_is_automorphism(g, p) for p in itertools.permutations(range(n)))
            gens = _order_and_neighbors(g)[2]
            assert all(_is_automorphism(g, p) for p in gens)
            assert _group_order(gens, n) == brute

    @given(st.integers(1, 7), st.integers(0, 1 << 21), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, n, mask, rnd):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        perm = list(range(n))
        rnd.shuffle(perm)
        g = relabel(g, perm)
        brute = sum(
            _is_automorphism(g, p) for p in itertools.permutations(range(n))
        )
        gens = _order_and_neighbors(g)[2]
        assert all(_is_automorphism(g, p) for p in gens)
        assert _group_order(gens, n) == brute


def _admissible(base):
    """Neighbour sets S giving the new vertex minimum degree |S|."""
    degs = base.degrees()
    return [
        s for s in range(1 << base.n)
        if all(d + (s >> u & 1) >= s.bit_count() for u, d in enumerate(degs))
    ]


def _invariant(g, v):
    """(sum of neighbour degrees, triangles through v)."""
    nbrs = g.neighbors(v)
    return (
        sum(g.adj[u].bit_count() for u in nbrs),
        sum((g.adj[u] & g.adj[v]).bit_count() for u in nbrs) // 2,
    )


def _rivals(child):
    """None when a vertex of minimum degree has a larger invariant than
    the new vertex x; else the mask of the other such vertices tying x."""
    x = child.n - 1
    low = min(child.degrees())
    tops = [v for v in range(child.n) if child.adj[v].bit_count() == low]
    best = max(_invariant(child, v) for v in tops)
    if _invariant(child, x) != best:
        return None
    return sum(1 << v for v in tops if v != x and _invariant(child, v) == best)


# (children tried, admissible neighbour sets) over all bases on n - 1
CHILDREN_TOTALS = {6: (157, 348), 7: (1064, 2690), 8: (12786, 29755)}


class TestOrbitPruning:
    """Each base tries one child per orbit of its admissible neighbour
    sets under Aut(base), among the orbits whose new vertex has the top
    invariant of the minimum-degree vertices."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_child_per_orbit(self, n):
        new_bit = 1 << (n - 1)
        for base in graph_classes(n - 1):
            assert sorted(_neighbour_sets(base.degrees())) == _admissible(base)
            auts = [
                p for p in itertools.permutations(range(n - 1)) if _is_automorphism(base, p)
            ]
            orbit = {}
            for s in _admissible(base):
                masks = [m | new_bit if s >> u & 1 else m for u, m in enumerate(base.adj)]
                if _rivals(Graph.from_masks(masks + [s])) is not None:
                    orbit[s] = frozenset(
                        sum(1 << p[u] for u in range(n - 1) if s >> u & 1) for p in auts
                    )
            children = list(_children(base))
            assert all(
                [m & ~new_bit for m in c.adj[:-1]] == list(base.adj) for c, _ in children
            )
            assert all(rivals == _rivals(c) for c, rivals in children)
            tried = [orbit[c.adj[-1]] for c, _ in children]
            assert sorted(tried, key=sorted) == sorted(set(orbit.values()), key=sorted)

    @pytest.mark.parametrize("n", sorted(CHILDREN_TOTALS))
    def test_totals_pinned(self, n):
        bases = graph_classes(n - 1)
        tried = sum(1 for base in bases for _ in _children(base))
        admissible = sum(len(_admissible(base)) for base in bases)
        assert (tried, admissible) == CHILDREN_TOTALS[n]
