import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copwin.enumeration import connected_graph_classes
from copwin.families import complete, cycle, path, petersen
from copwin.graphs import Graph
from copwin.traps import (
    TRANSVERSAL_MAX_N,
    Hypergraph,
    _min_transversal_masks,
    check_lemma4,
    check_lemma5,
    chvatal_bound,
    min_transversal,
    trap_report,
    trap_threshold,
)

FANO = Hypergraph(
    7,
    [
        {0, 1, 2},
        {0, 3, 4},
        {0, 5, 6},
        {1, 3, 5},
        {1, 4, 6},
        {2, 3, 6},
        {2, 4, 5},
    ],
)


def brute_transversal(h):
    verts = range(h.n)
    for size in range(h.n + 1):
        for sub in itertools.combinations(verts, size):
            s = set(sub)
            if all(e & s for e in h.edges):
                return size
    return h.n


class TestHypergraph:
    def test_uniformity(self):
        assert FANO.uniformity() == 3
        assert Hypergraph(3, [{0}, {1, 2}]).uniformity() is None
        assert Hypergraph(3).uniformity() is None

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [set()])
        with pytest.raises(ValueError):
            Hypergraph(3, [{0, 5}])


class TestMinTransversal:
    def test_empty(self):
        assert min_transversal(Hypergraph(4)) == (0, frozenset())

    def test_fano(self):
        size, witness = min_transversal(FANO)
        assert size == 3
        assert all(e & witness for e in FANO.edges)

    def test_disjoint_edges(self):
        h = Hypergraph(6, [{0, 1}, {2, 3}, {4, 5}])
        assert min_transversal(h)[0] == 3

    def test_star(self):
        h = Hypergraph(5, [{0, 1}, {0, 2}, {0, 3}, {0, 4}])
        size, witness = min_transversal(h)
        assert (size, witness) == (1, frozenset({0}))

    def test_least_shared_vertex_is_the_witness(self):
        h = Hypergraph(5, [{2, 3, 4}, {1, 2, 3}, {2, 3}])
        assert min_transversal(h) == (1, frozenset({2}))

    def test_two_vertex_exit_walks_the_first_edge_in_label_order(self):
        # first edge {0, 1}; the edges vertex 0 misses, {1, 2, 6} and
        # {3, 4, 5}, share no vertex; the edges vertex 1 misses all hold 3
        edges = [{0, 1}, {0, 3, 5}, {0, 3, 6}, {1, 2, 6}, {3, 4, 5}]
        masks = [sum(1 << v for v in e) for e in edges]
        assert _min_transversal_masks(7, masks) == (2, [1, 3])

    def test_two_vertex_exit_needs_no_nodes(self):
        # the branch and bound alone gives up within 5 nodes, before it
        # proves the minimum 2; the exit answers before any node, from the
        # first edge's least vertex x whose missed edges share a vertex
        masks = [15696, 13214, 8242, 1282, 9290, 2635, 964, 1777, 15287,
                 7008, 6694, 5902, 14572, 2726]
        assert _min_transversal_masks(14, masks, max_nodes=5) == (2, [6, 1])
        assert _min_transversal_masks(14, masks) == (2, [6, 1])

    def test_superset_edges_ignored(self):
        h = Hypergraph(5, [{0, 1}, {0, 1, 2, 3}])
        assert min_transversal(h)[0] == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = rng.randint(0, 6)
        edges = [
            frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)
        ]
        h = Hypergraph(n, edges)
        size, witness = min_transversal(h)
        assert size == brute_transversal(h)
        assert all(e & witness for e in h.edges)
        # covers of up to two vertices need no branch-and-bound node
        masks = [sum(1 << v for v in e) for e in edges]
        quick = _min_transversal_masks(n, masks, max_nodes=0)
        assert (quick is not None) == (size <= 2)
        if quick is not None:
            assert quick[0] == size
            assert all(e & set(quick[1]) for e in h.edges)

    def test_cap(self):
        with pytest.raises(ValueError):
            min_transversal(Hypergraph(65, [{0}]))

    def test_floor_stops_at_first_cover_that_small(self):
        # the closed neighbourhoods of the Petersen graph: domination
        # number 3, so a floor of 3 ends the search at the first such cover
        g = petersen()
        edges = [g.closed_mask(v) for v in range(g.n)]
        size, witness = _min_transversal_masks(g.n, edges, floor=3)
        assert size == 3 == _min_transversal_masks(g.n, edges)[0]
        assert all(e & sum(1 << v for v in witness) for e in edges)

    def test_node_cap_gives_up(self):
        g = petersen()
        edges = [g.closed_mask(v) for v in range(g.n)]
        assert _min_transversal_masks(g.n, edges, max_nodes=1) is None
        assert _min_transversal_masks(g.n, edges, max_nodes=10**6)[0] == 3


class TestChvatalBound:
    def test_fano_value(self):
        assert chvatal_bound(FANO) == Fraction(7, 2)

    def test_exact_fraction(self):
        h = Hypergraph(5, [{0, 1}, {2, 3}])
        assert chvatal_bound(h) == Fraction(2 + 5, 3)

    def test_requires_uniform(self):
        with pytest.raises(ValueError):
            chvatal_bound(Hypergraph(3, [{0}, {1, 2}]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 5))
    def test_bounds_min_transversal(self, seed, k):
        rng = random.Random(seed)
        n = rng.randint(k, 10)
        m = rng.randint(1, 8)
        edges = [frozenset(rng.sample(range(n), k)) for _ in range(m)]
        h = Hypergraph(n, edges)
        assert min_transversal(h)[0] <= chvatal_bound(h)


class TestTrapThreshold:
    def test_cycle(self):
        # both neighbours of v on C5 are controlled by the two vertices
        # opposite v, and no single vertex reaches both
        assert trap_threshold(cycle(5), 0) == 2
        assert trap_threshold(cycle(4), 0) == 1

    def test_complete(self):
        assert trap_threshold(complete(5), 0) == 1

    def test_petersen(self, petersen_graph):
        assert [trap_threshold(petersen_graph, v) for v in range(10)] == [3] * 10

    def test_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        assert trap_threshold(g, 2) == 0

    def test_leaf(self):
        assert trap_threshold(path(4), 0) == 1

    def test_mask_kernel_matches_hypergraph_route(self):
        # the threshold built as edge masks against the hypergraph of
        # closed-neighbourhood frozensets minus v, and against brute force:
        # every connected class n <= 7, then seeded random graphs n <= 11,
        # dense enough for thresholds of 3 and more
        rng = random.Random(11)
        graphs = [g for n in range(1, 8) for g in connected_graph_classes(n)]
        for _ in range(150):
            n = rng.randint(8, 11)
            p = rng.choice((0.3, 0.5, 0.7))
            graphs.append(Graph(n, [(u, w) for w in range(n) for u in range(w) if rng.random() < p]))
        sizes = Counter()
        for g in graphs:
            for v in range(g.n):
                edges = [
                    frozenset(w for w in range(g.n) if g.closed_mask(u) >> w & 1)
                    - {v}
                    for u in g.neighbors(v)
                ]
                h = Hypergraph(g.n, edges)
                want = min_transversal(h)[0]
                assert trap_threshold(g, v) == want == brute_transversal(h)
                sizes[want] += 1
        assert all(sizes[t] for t in range(5))

    def test_refuses_vertex_off_the_graph(self):
        g = cycle(5)
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            trap_threshold(g, g.n)

    def test_refuses_graphs_over_the_cap(self):
        # the cap of the transversal solver, even where no search is needed
        g = Graph(TRANSVERSAL_MAX_N + 1, [(0, 1)])
        with pytest.raises(ValueError):
            trap_threshold(g, 2)


class TestTrapPredicates:
    def test_is_s_trap_floor(self):
        # every vertex of C5 has threshold 2: an s-trap for s = 2.9, not 1.9
        assert trap_report(cycle(5), 2.9)[1] == 5
        assert trap_report(cycle(5), 1.9)[1] == 0

    def test_count_alpha_traps(self, petersen_graph):
        assert trap_report(petersen_graph, 3)[1] == 10
        assert trap_report(petersen_graph, 2)[1] == 0
        assert trap_report(cycle(5), 2)[1] == 5

    def test_count_range_check(self):
        for alpha in (-1, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                trap_report(cycle(5), alpha)

    def test_trap_count_lower_bound(self, petersen_graph):
        # every alpha in [sqrt(10), 10] = [4, 10]
        assert check_lemma5(10, trap_report(petersen_graph)[0])[0]

    def test_check_lemma5_matches_per_alpha_counts(self):
        # thresholds computed once against a fresh count per alpha
        for n in range(1, 7):
            lo = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            for g in connected_graph_classes(n):
                counts = {
                    a: sum(1 for v in range(n) if trap_threshold(g, v) <= a)
                    for a in range(lo, n + 1)
                }
                margin = min(c - (a - 1) for a, c in counts.items())
                # count > alpha - sqrt(n - alpha) - 1, compared via squares
                holds = all(
                    a - 1 - c < 0 or n - a > (a - 1 - c) ** 2 for a, c in counts.items()
                )
                assert check_lemma5(n, trap_report(g)[0]) == (holds, margin)

    def test_check_lemma5_fails_on_too_few_traps(self):
        # n = 4, every threshold 4: no vertex is an alpha-trap below
        # alpha = 4, and at alpha = 3 the margin -2 breaks the lemma
        assert check_lemma5(4, [4, 4, 4, 4]) == (False, -2)

    def test_check_lemma4(self, petersen_graph):
        assert check_lemma4(petersen_graph)
        assert check_lemma4(cycle(6))
        assert check_lemma4(complete(4))

    def test_trap_report(self, petersen_graph):
        thresholds, count = trap_report(petersen_graph)
        assert thresholds == [3] * 10
        assert count == 10
        _, none_at_two = trap_report(petersen_graph, alpha=2)
        assert none_at_two == 0
