import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from copwin.enumeration import canonical_graph, connected_graph_classes, graph_classes
from copwin.families import complete, cycle, path
from copwin.graph6 import emit_graph6, parse_graph6
from copwin.graphs import (
    Graph,
    _byte_bits,
    bfs_distances,
    bits,
    core,
    diameter,
    girth,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_dismantlable,
)
from copwin.traps import Hypergraph, min_transversal, trap_threshold


def random_graph(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def graph_strategy(draw, max_n=8):
    return random_graph(draw, max_n)


@st.composite
def sparse_graph_strategy(draw, max_n=10):
    """Graphs with n to n + 3 edges, so that cycles longer than a triangle
    come up often (a uniform adjacency mask nearly always has a triangle)."""
    n = draw(st.integers(3, max_n))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=n + 3, unique=True))
    return Graph(n, edges)


def _lowest_bit_walk(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestBits:
    def test_matches_lowest_bit_walk(self):
        # one byte table below 256, a table per byte offset above it;
        # sparse wide masks (at most 3 set bits in 65 to 300) jump runs
        # of zero bytes
        rng = random.Random(16)
        wide = [rng.getrandbits(w) for w in (20, 64, 65, 100, 300) for _ in range(200)]
        wide += [
            sum(1 << b for b in rng.sample(range(w), rng.randint(1, 3)))
            for w in (65, 100, 128, 257, 300) for _ in range(200)
        ]
        for mask in [*range(1 << 16), *wide, (1 << 64) - 1, 1 << 100 | 5]:
            got = bits(mask)
            assert type(got) is tuple and list(got) == _lowest_bit_walk(mask), mask

    def test_shared_entries_are_immutable(self):
        # a table entry is handed to every caller, so none may change it
        for mask in range(256):
            got = bits(mask)
            assert type(got) is tuple and got is bits(mask)
        for offset in range(0, 304, 8):
            assert all(type(entry) is tuple for entry in _byte_bits(offset))

    def test_rejects_negative_masks(self):
        for mask in (-1, -256, -(1 << 70)):
            with pytest.raises(ValueError):
                bits(mask)


def wide_graphs():
    """Seeded random graphs on 9 to 64 vertices, so masks of 2 to 8 bytes:
    sparse, dense and bipartite ones at each order."""
    rng = random.Random(24)
    for n in (9, 15, 16, 17, 24, 31, 40, 48, 57, 64):
        for p, odd in ((1.5 / n, False), (0.5, False), (4 / n, True)):
            # odd: only edges joining an even and an odd label, so bipartite
            pairs = [(u, v) for v in range(n) for u in range(v) if (u + v) % 2 or not odd]
            yield Graph(n, [e for e in pairs if rng.random() < p])


def test_mask_walks_pinned_on_wide_graphs():
    # every loop over a mask's bits, on masks of 2 to 8 bytes: the answers
    # hash to the digest the lowest-bit walks gave
    h = hashlib.sha256()
    for g in wide_graphs():
        covers = [
            min_transversal(Hypergraph(g.n, [bits(g.closed_mask(u) & ~(1 << v)) for u in bits(g.adj[v])]))
            for v in range(0, g.n, 7)
            if g.adj[v]
        ]
        h.update(repr((
            core(g), diameter(g), is_bipartite(g), girth(g),
            [bfs_distances(g, s) for s in range(0, g.n, 5)],
            [trap_threshold(g, v) for v in range(g.n)],
            [(size, sorted(w)) for size, w in covers],
            parse_graph6(emit_graph6(g)).adj,
        )).encode())
    assert h.hexdigest() == "7587ae4c4284df7e0b612b67c5fb18ef85d31f125bda99124b9516eb236d1207"


def floyd_warshall(n, edges):
    """All-pairs distances from an edge list, math.inf when unreachable;
    shares no code with the breadth-first walk under test."""
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_multi_edge_collapses(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert len(g.edges()) == 1

    @given(graph_strategy())
    def test_adjacency_symmetric_irreflexive(self, g):
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_neighbors_sorted(self):
        g = Graph(5, [(4, 2), (2, 0), (2, 3)])
        assert g.neighbors(2) == [0, 3, 4]

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, edges=[(0, 1)])"


class TestMetrics:
    def test_diameter_complete(self):
        assert diameter(complete(5)) == 1

    def test_diameter_petersen(self, petersen_graph):
        assert diameter(petersen_graph) == 2

    def test_diameter_heawood(self, heawood_graph):
        # breadth-first search oracle
        assert diameter(heawood_graph) == max(
            max(bfs_distances(heawood_graph, v)) for v in range(14)
        )
        assert diameter(heawood_graph) == 3

    def test_diameter_disconnected(self):
        assert diameter(Graph(3, [(0, 1)])) == math.inf

    @given(graph_strategy(6))
    def test_diameter_one_iff_complete(self, g):
        expect = g.n > 1 and len(g.edges()) == g.n * (g.n - 1) // 2
        assert (diameter(g) == 1) == expect

    @given(graph_strategy(6))
    def test_diameter_infinite_iff_disconnected(self, g):
        assert (diameter(g) == math.inf) == (not is_connected(g))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graph_strategy(10), sparse_graph_strategy(10)))
    def test_diameter_is_largest_floyd_warshall_distance(self, g):
        # math.inf, as Floyd-Warshall reads it, when g is disconnected
        dist = floyd_warshall(g.n, g.edges())
        assert diameter(g) == max(max(row) for row in dist)

    def test_bipartite(self, heawood_graph):
        assert is_bipartite(cycle(4))
        assert not is_bipartite(cycle(5))
        assert is_bipartite(heawood_graph)

    def test_bipartite_matches_two_colouring_on_every_class(self):
        # oracle: colour each component from its least vertex by a stack
        # walk, and fail on an edge between equal colours
        def two_colourable(g):
            colour = [-1] * g.n
            for s in range(g.n):
                if colour[s] >= 0:
                    continue
                colour[s] = 0
                stack = [s]
                while stack:
                    u = stack.pop()
                    for v in g.neighbors(u):
                        if colour[v] < 0:
                            colour[v] = 1 - colour[u]
                            stack.append(v)
                        elif colour[v] == colour[u]:
                            return False
            return True

        for n in range(1, 8):
            for g in graph_classes(n):
                assert is_bipartite(g) == two_colourable(g)

    @given(graph_strategy(7))
    def test_bipartite_matches_odd_cycle_freedom(self, g):
        # oracle: 2-color by brute force over all colorings
        ok = any(
            all(
                not g.has_edge(u, v) or (coloring >> u & 1) != (coloring >> v & 1)
                for u in range(g.n)
                for v in range(u + 1, g.n)
            )
            for coloring in range(1 << g.n)
        )
        assert is_bipartite(g) == ok

    def test_girth(self, petersen_graph, heawood_graph):
        assert girth(cycle(5)) == 5
        assert girth(path(4)) == math.inf
        assert girth(petersen_graph) == 5
        assert girth(heawood_graph) == 6
        assert girth(complete(4)) == 3

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graph_strategy(10), sparse_graph_strategy(10)))
    def test_girth_is_least_detour_plus_one(self, g):
        """Oracle: a shortest cycle through edge uv is a shortest u-v path
        avoiding uv, closed by uv."""
        edges = g.edges()
        best = math.inf
        for u, v in edges:
            rest = [e for e in edges if e != (u, v)]
            best = min(best, floyd_warshall(g.n, rest)[u][v] + 1)
        assert girth(g) == best

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graph_strategy(10), sparse_graph_strategy(10)))
    def test_bfs_distances_match_floyd_warshall(self, g):
        dist = floyd_warshall(g.n, g.edges())
        for s in range(g.n):
            want = [-1 if d == math.inf else d for d in dist[s]]
            assert bfs_distances(g, s) == want


class TestSubgraphs:
    def test_order_formula(self, petersen_graph):
        # G - N[v] has n - deg(v) - 1 vertices
        full = (1 << 10) - 1
        for v in range(10):
            h = induced_subgraph(petersen_graph, bits(full & ~petersen_graph.closed_mask(v)))
            assert h.n == petersen_graph.n - petersen_graph.degrees()[v] - 1

    def test_induced_subgraph(self):
        g = cycle(6)
        h = induced_subgraph(g, [0, 1, 2, 4])
        assert h.n == 4
        assert set(h.edges()) == {(0, 1), (1, 2)}

    def test_induced_subgraph_rejects_vertices_off_the_graph(self):
        # -1 once read as vertex n - 1, and n + 3 raised IndexError
        g = path(4)
        for verts in ([-1, 2], [1, 7], [4], []):
            with pytest.raises(ValueError):
                induced_subgraph(g, verts)

    def test_induced_subgraph_matches_edge_list_reference(self):
        # reference: relabel the edges inside the subset and rebuild
        count = 0
        for n in range(1, 7):
            for g in connected_graph_classes(n):
                for subset in range(1, 1 << n):
                    verts = list(bits(subset))
                    index = {v: i for i, v in enumerate(verts)}
                    edges = [(index[u], index[v]) for u, v in g.edges()
                             if u in index and v in index]
                    assert induced_subgraph(g, verts) == Graph(len(verts), edges)
                    count += 1
        assert count == 7815


class TestDismantlable:
    def test_trees(self):
        for n in (1, 2, 5, 8):
            assert is_dismantlable(path(n))

    def test_c4_not(self):
        assert not is_dismantlable(cycle(4))

    def test_petersen_not(self, petersen_graph):
        assert not is_dismantlable(petersen_graph)

    def test_complete(self):
        assert is_dismantlable(complete(7))

    def test_disconnected_not_dismantlable(self):
        # each component keeps a vertex of the core
        assert not is_dismantlable(Graph(2))
        for n in range(2, 7):
            for g in graph_classes(n):
                if not is_connected(g):
                    assert not is_dismantlable(g), g


def _core_graph(g):
    return induced_subgraph(g, bits(core(g)))


class TestCore:
    def test_path_shrinks_to_one_vertex(self):
        for n in (1, 2, 5, 8):
            assert core(path(n)).bit_count() == 1

    def test_corner_free_graphs_keep_every_vertex(self, petersen_graph, hoffman_singleton_graph):
        for g in (cycle(4), petersen_graph, hoffman_singleton_graph):
            assert core(g) == (1 << g.n) - 1

    def test_unique_up_to_isomorphism(self):
        # relabelling changes the order in which corners are deleted,
        # never the core's isomorphism class
        rng = random.Random(16)
        for n in range(1, 8):
            for g in connected_graph_classes(n):
                want = canonical_graph(_core_graph(g))
                for _ in range(3):
                    perm = rng.sample(range(n), n)
                    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                    assert canonical_graph(_core_graph(h)) == want, g
