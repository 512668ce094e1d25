import hashlib
import math
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from copwin import solver
from copwin.enumeration import canonical_graph, connected_graph_classes, graph_classes
from copwin.errors import CopwinError, StateBudgetError
from copwin.families import complete, cycle, incidence, path, petersen, polarity
from copwin.graph6 import emit_graph6
from copwin.graphs import (
    Graph,
    bits,
    core,
    girth,
    induced_subgraph,
    is_connected,
    is_dismantlable,
)
from copwin.solver import (
    Arena,
    GameConfig,
    _Board,
    _lower_bound,
    _step_tables,
    _supersets,
    _teleport_wins,
    c_G_of_m,
    cop_number,
    cops_win,
    preceq_fixpoint_wins,
    restricted_cop_number,
    teleport_cop_number,
    wins,
)
from copwin.strategy import _GreedyRobber, _robber_policy, build_theorem1_plan
from copwin.traps import min_cover


class TestCopNumber:
    def test_small_standards(self):
        assert cop_number(path(6)) == 1
        assert cop_number(complete(5)) == 1
        assert cop_number(cycle(4)) == 2
        assert cop_number(cycle(5)) == 2

    def test_petersen(self, petersen_graph):
        assert cop_number(petersen_graph) == 3

    def test_heawood(self, heawood_graph):
        assert cop_number(heawood_graph) == 3

    def test_tree(self):
        g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert cop_number(g) == 1

    def test_disconnected(self):
        # two disjoint 4-cycles: the sum over components
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        assert cop_number(g) == 4

    def test_disconnected_teleport_is_not_summed(self):
        # a teleporting cop jumps between components: one cop wins 2K2
        # and K3+K2, though each component alone needs one
        for g in (Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])):
            assert teleport_cop_number(g) == 1
            assert _teleport_wins(g, GameConfig(k=1, variant="teleport"))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(connected_graph_classes(6)))
    def test_matches_dismantlability(self, g):
        assert (cop_number(g) == 1) == is_dismantlable(g)

    def test_budget(self, petersen_graph):
        with pytest.raises(StateBudgetError) as e:
            cop_number(petersen_graph, budget=100)
        assert e.value.lower_bound == 3

    def test_hoffman_singleton(self, hoffman_singleton_graph):
        # girth 5 and degree 7 give c >= 7, and 7 cops dominate it, so
        # no solve runs; a solve at k = 7 would need ~2e10 states
        assert cop_number(hoffman_singleton_graph, budget=2_000_000) == 7

    def test_dismantlable_settled_by_bounds(self, monkeypatch):
        # c = 1 for a dismantlable graph: no cover search runs, and on
        # more than DISMANTLABLE_CROSS_CHECK_MAX_N vertices no solve either
        def refuse(*args, **kwargs):
            raise AssertionError("cover search ran")

        monkeypatch.setattr(solver, "min_cover", refuse)
        lb, h = _lower_bound(path(6), GameConfig())
        assert (lb, h.n) == (1, 1)
        assert cop_number(path(6)) == 1
        assert cop_number(complete(40), budget=10) == 1

    def test_cops_win_on_disconnected_graphs(self):
        # the robber places after the cops, so k cops win exactly when
        # they can split to win every component: the least such k is
        # the sum over components (256 classes, 2 <= n <= 7)
        for n in range(2, 8):
            for g in graph_classes(n):
                if not is_connected(g):
                    assert _least_winning_k(g) == cop_number(g), g

    def test_max_k_exhausted(self):
        with pytest.raises(CopwinError):
            cop_number(cycle(4), max_k=1)

    def test_max_k_bounds_the_sum_over_components(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        assert cop_number(g, max_k=4) == 4
        with pytest.raises(CopwinError):
            cop_number(g, max_k=3)

    def test_dismantlability_mismatch_raises(self, monkeypatch):
        # a solver that lets one cop win C5, which has no corner
        monkeypatch.setattr(solver, "wins", lambda g, cfg, budget: True)
        with pytest.raises(CopwinError, match="solver/dismantlability mismatch"):
            cop_number(cycle(5))

    def test_cover_bound_below_lower_bound_raises(self, petersen_graph, monkeypatch):
        # Petersen has girth 5 and degree 3, so LB = 3; one closed
        # neighbourhood cannot cover it; the decision at k = LB says one does
        monkeypatch.setattr(solver, "min_cover", lambda *args, **kwargs: (1, [0]))
        with pytest.raises(CopwinError, match="cover bound 1 below lower bound 3"):
            cop_number(petersen_graph)

    def test_above_the_transversal_caps(self):
        # 65 vertices: the cover decision refuses, so every k is solved;
        # teleport's fixpoint needs the cover search and refuses
        g = cycle(65)
        with pytest.raises(ValueError, match="transversal solver capped"):
            min_cover(g, (1 << 65) - 1, at_most=22)
        assert cop_number(g) == 2
        assert restricted_cop_number(g, range(10)) == 1
        with pytest.raises(ValueError, match="transversal solver capped"):
            teleport_cop_number(g)

    def test_core_keeps_cop_number(self):
        # c(G) = c(core), solved on both sides without bounds
        for n in range(1, 8):
            for g in connected_graph_classes(n):
                if is_dismantlable(g):
                    continue
                h = induced_subgraph(g, bits(core(g)))
                assert _least_winning_k(g) == _least_winning_k(h) == cop_number(g), g


def _least_winning_k(g, **cfg):
    """Least k whose game the cops win, deciding every k from 1."""
    def wins(game):
        if game.variant == "teleport":
            return _teleport_wins(g, game)
        return cops_win(g, game).cops_win

    k = 1
    while not wins(GameConfig(k=k, **cfg)):
        k += 1
    return k


def _brute_cover(g, verts, avoid=0):
    """Least number of vertices outside avoid whose closed neighbourhoods
    cover verts, by trying every vertex set in order of size; math.inf
    when none does."""
    need = sum(1 << v for v in verts)
    allowed = [v for v in range(g.n) if not avoid >> v & 1]
    for size in range(len(allowed) + 1):
        for picked in combinations(allowed, size):
            covered = 0
            for v in picked:
                covered |= g.closed_mask(v)
            if covered & need == need:
                return size
    return math.inf


class TestMinCover:
    def test_matches_brute_force(self):
        # every connected class n <= 6: N(v) avoiding v (the trap
        # threshold of v), and the whole vertex set (the domination number)
        for n in range(1, 7):
            for g in connected_graph_classes(n):
                cases = [(g.adj[v], 1 << v) for v in range(n)] + [((1 << n) - 1, 0)]
                for mask, avoid in cases:
                    size, witness = min_cover(g, mask, avoid)
                    assert size == _brute_cover(g, bits(mask), avoid), (g, mask, avoid)
                    covered = 0
                    for w in witness:
                        assert not avoid >> w & 1
                        covered |= g.closed_mask(w)
                    assert len(witness) == size and covered & mask == mask

    def test_decision_matches_exact(self):
        # the cases above on every connected class n <= 7: the decision
        # for k finds a cover of at most k vertices just when one exists
        for n in range(1, 8):
            for g in connected_graph_classes(n):
                cases = [(g.adj[v], 1 << v) for v in range(n)] + [((1 << n) - 1, 0)]
                for mask, avoid in cases:
                    size = min_cover(g, mask, avoid)[0]
                    for k in range(1, 5):
                        found, witness = min_cover(g, mask, avoid, at_most=k)
                        if size > k:
                            assert (found, witness) == (math.inf, None), (g, mask, avoid, k)
                            continue
                        covered = 0
                        for w in witness:
                            assert not avoid >> w & 1
                            covered |= g.closed_mask(w)
                        assert len(witness) == found <= k and covered & mask == mask

    def test_no_cover_outside_avoid(self):
        # N[0] of the path 0-1-2 lies inside {0, 1}: no vertex outside
        # covers 0, though 2 alone covers 1
        g = path(3)
        assert min_cover(g, 0b011, 0b011) == (math.inf, None)
        assert _brute_cover(g, [0, 1], 0b011) == math.inf
        assert min_cover(g, 0b010, 0b011)[0] == 1 == _brute_cover(g, [1], 0b011)
        assert min_cover(g, 0, 0b111) == (0, [])


class TestBounds:
    def test_bounds_bracket_cop_number(self):
        # LB <= c <= gamma, the core's domination number, and the cover
        # decision at k = gamma finds a cover
        for n in range(1, 9):
            for g in connected_graph_classes(n):
                lb, h = _lower_bound(g, GameConfig())
                full = (1 << h.n) - 1
                gamma = min_cover(h, full)[0]
                assert lb <= _least_winning_k(g) <= gamma, g
                assert min_cover(h, full, at_most=gamma)[0] == gamma, g

    def test_lower_bound_reads_the_core(self):
        # every connected class n <= 8: the game's graph is one vertex
        # exactly when the core is one vertex, and LB is then 1; on every
        # other class it is the induced subgraph on the core, and LB is
        # the core's minimum degree when at least 3 with girth >= 5, else 2
        for n in range(1, 9):
            for g in connected_graph_classes(n):
                keep = core(g)
                lb, h = _lower_bound(g, GameConfig())
                assert (h.n == 1) == (keep.bit_count() == 1), g
                if h.n == 1:
                    assert (lb, h) == (1, Graph(1)), g
                    continue
                want = induced_subgraph(g, bits(keep))
                delta = min(want.degrees())
                assert h == want, g
                assert lb == (delta if delta >= 3 and girth(want) >= 5 else 2), g

    def test_teleport_bounded_by_domination(self):
        for n in range(1, 8):
            for g in connected_graph_classes(n):
                gamma = _brute_cover(g, range(n))
                assert _lower_bound(g, GameConfig(variant="teleport")) == (1, None)
                assert min_cover(g, (1 << n) - 1, at_most=gamma)[0] == gamma, g
                assert 1 <= _least_winning_k(g, variant="teleport") <= gamma, g

    def test_restricted_bounded_by_arena_cover(self):
        rng = random.Random(7)
        for g in connected_graph_classes(7):
            verts = rng.sample(range(7), rng.randint(1, 7))
            arena = Arena.induced(g, verts)
            cover = _brute_cover(g, verts)
            assert _lower_bound(g, GameConfig(robber_arena=arena)) == (1, None)
            assert min_cover(g, arena.validate_against(g), at_most=cover)[0] == cover
            c = _least_winning_k(g, robber_arena=arena)
            assert c <= cover, (g, verts)
            assert restricted_cop_number(g, arena) == c

    def test_solve_schedule_pinned(self, monkeypatch):
        # the k each search solves, on every connected class n <= 7: the
        # k = 1 cross-check in the core game, then each k from LB up to
        # min(c, gamma - 1), gamma the least cover of the robber's arena
        # (of the core, in the core game); k = gamma is never solved
        log = []

        def logged(decide):
            def call(g, cfg, *args):
                log.append(cfg.k)
                return decide(g, cfg, *args)

            return call

        monkeypatch.setattr(solver, "wins", logged(solver.wins))
        monkeypatch.setattr(solver, "_teleport_wins", logged(solver._teleport_wins))
        rng = random.Random(7)
        for n in range(1, 8):
            for g in connected_graph_classes(n):
                h = induced_subgraph(g, bits(core(g)))
                delta = min(h.degrees())
                core_lb = 1 if h.n == 1 else delta if delta >= 3 and girth(h) >= 5 else 2
                verts = rng.sample(range(n), rng.randint(1, n))
                games = [
                    (lambda: cop_number(g), [1], core_lb, _brute_cover(h, range(h.n))),
                    (lambda: teleport_cop_number(g), [], 1, _brute_cover(g, range(n))),
                    (lambda: restricted_cop_number(g, verts), [], 1, _brute_cover(g, verts)),
                ]
                for search, check, lb, gamma in games:
                    log.clear()
                    c = search()
                    assert log == check + list(range(lb, min(c, gamma - 1) + 1)), (g, verts, log)


class TestGameSemantics:
    def test_one_cop_loses_on_c4(self):
        res = cops_win(cycle(4), GameConfig(k=1))
        assert not res.cops_win
        assert res.best_position is None

    def test_two_cops_win_on_c4(self):
        res = cops_win(cycle(4), GameConfig(k=2))
        assert res.cops_win
        assert res.placement_value(res.best_position) is not None

    def test_cop_positions_read_in_any_order(self):
        res = cops_win(cycle(4), GameConfig(k=2))
        assert res.is_cop_win((2, 0), 1, "cops") == res.is_cop_win((0, 2), 1, "cops")
        assert res.placement_value((2, 0)) is not None
        assert res.level_of((2, 0), 1, "cops") == res.level_of((0, 2), 1, "cops")

    def test_levels_monotone_along_cop_strategy(self):
        g = cycle(5)
        res = cops_win(g, GameConfig(k=2))
        pos = res.best_position
        r = res.robber_placement(pos)
        lv = res.level_of(pos, r, "cops")
        for _ in range(lv):
            nxt = res.cop_move(pos, r)
            assert res.level_of(nxt, r, "robber") < res.level_of(pos, r, "cops")
            pos = nxt
            if r in pos:
                break
            r = res.robber_move(pos, r)
            if r in pos:
                break
        assert r in pos

    @pytest.mark.parametrize("cfg", [{}, {"robber_may_pass": False}], ids=["standard", "no_pass"])
    def test_replies_on_every_state(self, cfg):
        # every connected class n <= 6, k <= 2: each cop reply lowers the
        # level by one; each robber reply, placement included, is the
        # first option he wins from, else the first of greatest level
        for n in range(1, 7):
            for g in connected_graph_classes(n):
                for k in (1, 2):
                    res = cops_win(g, GameConfig(k=k, **cfg))
                    for pos in combinations_with_replacement(range(n), k):
                        level = self._level_or_inf(res, pos)
                        assert res.robber_placement(pos) == max(range(n), key=level)
                        for r in range(n):
                            self._check_replies(g, res, pos, r, level)

    @staticmethod
    def _level_or_inf(res, pos):
        """The robber's key with the cops at pos to move: the capture
        level of his vertex, math.inf where he wins.  max over options in
        ascending order then gives the reply rule: the first he wins
        from, else the first of greatest level."""
        def level(r):
            return res.level_of(pos, r, "cops") if res.is_cop_win(pos, r, "cops") else math.inf

        return level

    @staticmethod
    def _check_replies(g, res, pos, r, level):
        if res.is_cop_win(pos, r, "cops"):
            lv = res.level_of(pos, r, "cops")
            if lv >= 1:
                nxt = res.cop_move(pos, r)
                assert res.level_of(nxt, r, "robber") == lv - 1
        moves = sorted(([r] if res.cfg.robber_may_pass else []) + g.neighbors(r))
        if not moves:
            with pytest.raises(ValueError):
                res.robber_move(pos, r)
            return
        assert res.robber_move(pos, r) == max(moves, key=level)

    def test_queries_check_the_cop_position(self):
        # a position that is not k vertices of the graph is off the
        # board for every query, not a robber win
        res = cops_win(cycle(4), GameConfig(k=2))
        for query in (
            lambda: res.robber_placement((9, 9)),
            lambda: res.placement_value((0,)),
            lambda: res.is_cop_win((0,), 1, "cops"),
            lambda: res.is_cop_win((0, 9), 1, "robber"),
            lambda: res.level_of((0, 1, 2), 1, "cops"),
            lambda: res.cop_move((0,), 1),
            lambda: res.robber_move((0,), 1),
        ):
            with pytest.raises(KeyError):
                query()

    def test_queries_check_the_robber_vertex(self):
        # a robber vertex off the arena is off the board on both turns,
        # not a robber win: 9 is no vertex of C4, and 3 and 5 are
        # vertices of C6 outside a restricted arena
        c6 = cycle(6)
        for res, r in (
            (cops_win(cycle(4), GameConfig(k=2)), 9),
            (cops_win(c6, GameConfig(k=1, robber_arena=Arena.induced(c6, (0, 1, 2)))), 3),
            (cops_win(c6, GameConfig(k=2, robber_arena=Arena.induced(c6, (0, 1, 2)))), 5),
        ):
            pos = (0, 1)[:res.cfg.k]
            for turn in ("cops", "robber"):
                for query in (res.is_cop_win, res.level_of):
                    with pytest.raises(KeyError, match="not in the arena"):
                        query(pos, r, turn)
            with pytest.raises(KeyError, match="not in the arena"):
                res.robber_move(pos, r)

    def test_queries_refuse_states_they_do_not_answer(self):
        # one cop loses on C5: no level on a robber-win state, no reply
        # once the robber is caught, and no third turn
        res = cops_win(cycle(5), GameConfig(k=1))
        with pytest.raises(KeyError, match="is not a cop-win state"):
            res.level_of((0,), 2, "cops")
        with pytest.raises(KeyError, match="is already a capture"):
            res.cop_move((0,), 0)
        with pytest.raises(KeyError):
            res.is_cop_win((0,), 1, "both")

    def test_capture_level_zero_when_placed_on_robber(self):
        g = path(3)
        res = cops_win(g, GameConfig(k=1))
        assert res.level_of((1,), 1, "cops") == 0

    def test_no_pass_robber(self):
        # C4 needs two cops against a passing robber, but a lone cop
        # beats a forced-move robber there: pass until the robber steps
        # next to you, then strike.  A stuck robber loses immediately.
        assert not cops_win(cycle(4), GameConfig(k=1)).cops_win
        assert cops_win(cycle(4), GameConfig(k=1, robber_may_pass=False)).cops_win
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        res = cops_win(star, GameConfig(k=1, robber_may_pass=False))
        assert res.cops_win
        assert res.is_cop_win((0,), 1, "robber")


def _or_all(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def _oracle_rounds(g, cfg):
    """The (C_L, R_L) round masks of any game, from a product table:
    every product successor in the standard game, every position that
    avoids the robber under teleport."""
    arena = cfg.robber_arena or Arena.full(g)
    positions = list(combinations_with_replacement(range(g.n), cfg.k))
    index = {t: i for i, t in enumerate(positions)}
    amask = sum(1 << v for v in arena.vertices)
    moves = {r: arena.adj[r] | (1 << r if cfg.robber_may_pass else 0) for r in arena.vertices}
    occ = [_or_all(1 << v for v in t) for t in positions]
    caught = [o & amask for o in occ]
    if cfg.variant == "teleport":
        cop = [_or_all(g.closed_mask(v) for v in t) & amask for t in positions]
    else:
        cop = caught
        succ = [
            {index[tuple(sorted(c))] for c in product(*[[v] + g.neighbors(v) for v in t])}
            for t in positions
        ]
    rounds = []
    while True:
        rob = [
            m | sum(1 << r for r, mv in moves.items() if mv & ~c == 0)
            for m, c in zip(caught, cop)
        ]
        rounds.append((cop, rob))
        if cfg.variant == "teleport":
            jump = _or_all(m & ~o for m, o in zip(rob, occ))
            nxt = [c | jump for c in cop]
        else:
            nxt = [c | _or_all(rob[q] for q in qs) for c, qs in zip(cop, succ)]
        if nxt == cop:
            return rounds
        cop = nxt


def _random_arena(g, rng):
    """A seeded arena from edges: random vertices, each edge of G among
    them kept with probability 0.8."""
    verts = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
    edges = [(u, v) for u, v in combinations(verts, 2) if g.has_edge(u, v) and rng.random() < 0.8]
    return Arena.from_edges(g, verts, edges)


def _seeded_connected(n, rng):
    """A seeded connected graph on n vertices: a random spanning tree,
    and each other pair an edge with probability 3/n."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {e for e in combinations(range(n), 2) if rng.random() < 3 / n}
    return Graph(n, sorted(edges))


def _team_moves(g, t):
    """The positions (sorted tuples) the cop team at t reaches in one
    move, each cop along an edge or staying."""
    return {tuple(sorted(c)) for c in product(*[bits(g.closed_mask(v)) for v in t])}


def _decoded_rounds(res):
    """The (C_L, R_L) rounds of a SolveResult at each position in
    sorted-multiset order: C_L decoded from the kept vectors, R_L read
    back through level_of on the robber side at every arena vertex."""
    board = res._board
    positions = list(combinations_with_replacement(range(res.g.n), res.cfg.k))
    levels = {
        (t, r): res.level_of(t, r, "robber")
        for t in positions
        for r in res.arena_vertices
        if res.is_cop_win(t, r, "robber")
    }
    return [
        (
            [board.read(vec, board.field(t)) for t in positions],
            [_or_all(1 << r for r in res.arena_vertices if levels.get((t, r), math.inf) <= lv)
             for t in positions],
        )
        for lv, vec in enumerate(res._rounds)
    ]


class TestLayeredMoves:
    def test_union_matches_product_successors(self, petersen_graph):
        # every connected class n <= 6 with k <= 3, and two-lane boards
        # (n >= 9, two bytes a field): Petersen with k <= 3 and seeded
        # connected classes on 9 vertices with k <= 2; then seeded
        # connected graphs on 17, 25, 33 and 57 vertices with k <= 2, for
        # 3, 4, 5 and 8 bytes a field: both rotations, whole fields and
        # lane by lane.  Then the edges of the one-item reads: k = 1 on
        # 8, 16, 32 and 64 vertices (a field of 1, 2, 4 or 8 bytes), and
        # k = 2 columns on 7, 8 and 16.  The cop-move union of a random
        # symmetric vector is, at every ordered tuple, the OR over the
        # product successors of its multiset: the result is symmetric,
        # which the union's unrotated last move relies on
        rng = random.Random(8)
        cases = [(g, k) for n in range(1, 7) for g in connected_graph_classes(n) for k in (1, 2, 3)]
        cases += [(petersen_graph, k) for k in (1, 2, 3)]
        pairs, sample = list(combinations(range(9), 2)), []
        while len(sample) < 6:
            g = Graph(9, [e for e in pairs if rng.random() < rng.choice((0.3, 0.5))])
            if is_connected(g):
                sample.append(canonical_graph(g))
        cases += [(g, k) for g in sample for k in (1, 2)]
        cases += [(_seeded_connected(n, rng), k) for n in (17, 25, 33, 57) for k in (1, 2)]
        edges = random.Random(40)
        cases += [(_seeded_connected(n, edges), 1) for n in (8, 16, 32, 64)]
        cases += [(_seeded_connected(n, edges), 2) for n in (7, 8, 16)]
        for g, k in cases:
            board = _Board(g, k)
            positions = list(combinations_with_replacement(range(g.n), k))
            masks = {t: rng.getrandbits(g.n) for t in positions}
            tuples = list(product(range(g.n), repeat=k))
            vec = b"".join(masks[tuple(sorted(t))].to_bytes(board.nb, "little") for t in tuples)
            got = board.union(vec)
            want = {t: _or_all(masks[q] for q in _team_moves(g, t)) for t in positions}
            for t in tuples:
                assert board.read(got, board.field(t)) == want[tuple(sorted(t))], (g, k, t)

    def test_first_full_skips_a_match_across_two_fields(self):
        # two lanes a field (n = 9): the mask's bytes FF 01 first occur
        # across fields 0 and 1, then in field 2
        board = _Board(cycle(9), 1)
        vec = bytes([0x00, 0xFF, 0x01, 0x00, 0xFF, 0x01]) + bytes(12)
        assert board.first_full(vec, 0x1FF) == (2,)
        assert board.first_full(vec[:4] + bytes(14), 0x1FF) is None

    def test_petersen_rounds_match_product_table(self, petersen_graph):
        res = cops_win(petersen_graph, GameConfig(k=3))
        want = [tuple(pair) for pair in _oracle_rounds(petersen_graph, GameConfig(k=3))]
        assert want == _decoded_rounds(res)
        assert res.cops_win

    def test_teleport_and_arena_rounds_match_product_table(self, petersen_graph):
        # byte rounds with two lanes (Petersen, n = 10) and with one:
        # seeded restricted arenas with and without a passing robber,
        # against the product-table oracle
        rng = random.Random(11)
        for g in (petersen_graph,) + connected_graph_classes(6)[::7]:
            for k in (1, 2):
                arena = _random_arena(g, rng)
                cfg = GameConfig(k=k, robber_arena=arena, robber_may_pass=rng.random() < 0.5)
                want = [tuple(pair) for pair in _oracle_rounds(g, cfg)]
                assert _decoded_rounds(cops_win(g, cfg)) == want, (g, cfg)
        # teleport verdicts on every class n <= 7, disconnected ones too,
        # and Petersen; k <= 3, a passing and a no-pass robber, and the
        # full arena, a seeded induced one and a seeded one from edges:
        # the fixpoint of covers decides as the oracle's rounds do
        graphs = [g for n in range(1, 8) for g in graph_classes(n)] + [petersen_graph]
        for g in graphs:
            verts = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            for arena in (None, Arena.induced(g, verts), _random_arena(g, rng)):
                for k, passing in product((1, 2, 3), (True, False)):
                    cfg = GameConfig(k=k, variant="teleport", robber_may_pass=passing,
                                     robber_arena=arena)
                    full = sum(1 << v for v in (arena or Arena.full(g)).vertices)
                    want = full in _oracle_rounds(g, cfg)[-1][0]
                    assert _teleport_wins(g, cfg) == want, (g, cfg)

    def test_wide_field_rounds_match_product_table(self):
        # byte rounds on 3 and 4 bytes a field (seeded connected graphs
        # on 17 and 29 vertices), k <= 2, a passing and a no-pass robber,
        # the full arena and a seeded one from edges, against the
        # product-table oracle: the occupied vertices join R_L in round 0
        # alone, and trapped(C_L) holds them from round 1 on
        rng = random.Random(33)
        for n in (17, 29):
            g = _seeded_connected(n, rng)
            for arena in (None, _random_arena(g, rng)):
                for k, passing in product((1, 2), (True, False)):
                    cfg = GameConfig(k=k, robber_may_pass=passing, robber_arena=arena)
                    want = [tuple(pair) for pair in _oracle_rounds(g, cfg)]
                    assert _decoded_rounds(cops_win(g, cfg)) == want, (g, cfg)

    def test_step_tables_match_their_definition(self):
        # the superset indicator of every byte, and the translate tables
        # of seeded robber moves on 1 to 5 bytes a field, against the
        # definitions: tables[b][o] sums, over the lane-o vertices r, the
        # superset indicator of r's moves in lane b shifted to r's bit.
        # One byte a field gets 300 seeded move sets on 1 to 8 vertices,
        # each arena a random subset (so it may skip vertices) with one
        # vertex's moves forced to 0 in every third, and two fixed ones:
        # a robber with no move is trapped in every field, and a vertex
        # off the arena is never
        for part in range(256):
            want = bytes(x & part == part for x in range(256))
            assert _supersets(part).to_bytes(256, "little") == want, part
        rng = random.Random(40)
        cases = []
        for nb in range(1, 6):
            n = rng.randint(8 * nb - 7, 8 * nb)
            verts = sorted(rng.sample(range(n), rng.randint(1, n)))
            cases.append((nb, tuple((r, rng.getrandbits(n)) for r in verts)))
        for i in range(300):
            n = rng.randint(1, 8)
            verts = sorted(rng.sample(range(n), rng.randint(1, n)))
            moves = [(r, rng.getrandbits(n)) for r in verts]
            if i % 3 == 0:
                j = rng.randrange(len(moves))
                moves[j] = (moves[j][0], 0)
            cases.append((1, tuple(moves)))
        cases += [(1, ((1, 0), (3, 0b1010), (6, 0b1001000))), (1, ((7, 0),))]
        for nb, moves in cases:
            want = tuple(
                tuple(
                    sum(
                        _supersets(mv >> 8 * b & 0xFF) << (r & 7) for r, mv in moves if r >> 3 == o
                    ).to_bytes(256, "little")
                    for o in range(nb)
                )
                for b in range(nb)
            )
            assert _step_tables(nb, moves) == want, (nb, moves)
        table = _step_tables(1, ((1, 0), (3, 0b1010), (6, 0b1001000)))[0][0]
        assert all(table[x] & 0b10 and not table[x] & 0b10110101 for x in range(256))

    def test_spread_matches_its_definition(self):
        # seeded masks on 1 to 8 vertices (one byte a field) and on 9
        # and 16 (two), k = 1..3: field (v_1, ..., v_k) of the spread is
        # the OR of masks[v_i], read through every ordered tuple
        rng = random.Random(41)
        for n in list(range(1, 9)) + [9, 16]:
            for k in (1, 2, 3):
                board = _Board(cycle(n) if n >= 3 else path(n), k)
                masks = [rng.getrandbits(n) for _ in range(n)]
                vec = board.spread(masks)
                assert len(vec) == board.size, (n, k)
                for t in product(range(n), repeat=k):
                    want = _or_all(masks[v] for v in t)
                    assert board.read(vec, board.field(t)) == want, (n, k, t)

    def test_verdict_stops_at_the_first_full_round(self, petersen_graph):
        # every connected class n <= 6 and Petersen, k <= 3, a passing
        # and a no-pass robber, the full arena and a seeded one from
        # edges: C_L only grows, so the verdict read at the first round
        # with a full field is the verdict of the oracle's fixpoint
        rng = random.Random(25)
        graphs = [g for n in range(1, 7) for g in connected_graph_classes(n)] + [petersen_graph]
        for g in graphs:
            for arena in (None, _random_arena(g, rng)):
                for k, passing in product((1, 2, 3), (True, False)):
                    cfg = GameConfig(k=k, robber_may_pass=passing, robber_arena=arena)
                    full = sum(1 << v for v in (arena or Arena.full(g)).vertices)
                    assert wins(g, cfg) == (full in _oracle_rounds(g, cfg)[-1][0]), (g, cfg)
                    kept = [int.from_bytes(vec, "little") for vec in cops_win(g, cfg)._rounds]
                    assert all(c & ~nxt == 0 for c, nxt in zip(kept, kept[1:])), (g, cfg)


def _refused_everywhere(g, arena, match):
    """Every entry point that plays on an arena refuses a malformed one,
    with the same message."""
    for solve in (cops_win, wins):
        with pytest.raises(ValueError, match=match):
            solve(g, GameConfig(robber_arena=arena))
    with pytest.raises(ValueError, match=match):
        restricted_cop_number(g, arena)


class TestRestricted:
    def test_petersen_pentagon_arena(self, petersen_graph):
        # robber pinned to an induced 5-cycle of the Petersen graph while
        # cops roam the whole graph; girth 5 keeps one cop from covering
        # two consecutive arena vertices, so one cop does not suffice
        arena = [0, 3, 4, 7, 9]
        h = Arena.induced(petersen_graph, arena)
        assert sum(m.bit_count() for m in h.adj) == 10  # it is a 5-cycle
        assert restricted_cop_number(petersen_graph, arena) == 2

    def test_full_arena_matches_cop_number(self):
        g = cycle(6)
        assert restricted_cop_number(g, range(6)) == cop_number(g)

    def test_single_vertex_arena(self, petersen_graph):
        assert restricted_cop_number(petersen_graph, [4]) == 1

    def test_edge_subset_arena(self):
        # C4 arena with one arena edge removed becomes a path for the
        # robber: one cop now wins
        g = cycle(4)
        arena = Arena.from_edges(g, range(4), [(0, 1), (1, 2), (2, 3)])
        assert restricted_cop_number(g, arena) == 1

    def test_arena_validation(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            Arena.from_edges(g, range(4), [(0, 2)])
        with pytest.raises(ValueError, match=r"arena edge \(0, 2\) leaves the arena"):
            Arena.from_edges(cycle(5), [0, 1], [(0, 2)])
        with pytest.raises(ValueError, match="arena must be nonempty"):
            restricted_cop_number(g, [])
        # the check returns the arena's vertex mask
        assert Arena.induced(g, (0, 2, 3)).validate_against(g) == 0b1101
        assert Arena.from_edges(g, [1], []).validate_against(g) == 0b10

    @pytest.mark.parametrize("off", [9, 4, -1])
    def test_from_edges_checks_vertex_range_first(self, off):
        # an off-graph vertex is the arena's range error, not an IndexError
        # or a negative shift from building its masks
        with pytest.raises(ValueError, match="out of range"):
            Arena.from_edges(cycle(4), [0, off], [(0, off)])

    @pytest.mark.parametrize("verts", [[-1], [0, 2**70]])
    def test_induced_checks_vertex_range_first(self, verts):
        # checked before 1 << v is built: not a negative shift count, an
        # OverflowError, or a huge int for a huge label
        with pytest.raises(ValueError, match="out of range"):
            restricted_cop_number(cycle(5), verts)

    def test_arena_rejects_one_sided_edges(self):
        # the robber may step 0 -> 1 but not 1 -> 0: a directed arena
        g = cycle(6)
        adj = list(Arena.induced(g, (0, 1, 2)).adj)
        adj[1] &= ~1
        arena = Arena((0, 1, 2), tuple(adj))
        with pytest.raises(ValueError):
            arena.validate_against(g)
        _refused_everywhere(g, arena, "named at 0 only")
        # 1 -> 2 named at 1 only, on the whole graph
        adj = list(g.adj)
        adj[2] &= ~(1 << 1)
        _refused_everywhere(g, Arena(tuple(range(6)), tuple(adj)), "named at 1 only")

    def test_arena_rejects_duplicate_vertices(self):
        # a repeated vertex would carry into the next bit of the arena mask
        g = cycle(6)
        arena = Arena((0, 0, 1), Arena.induced(g, (0, 1)).adj)
        _refused_everywhere(g, arena, "out of order")
        with pytest.raises(ValueError):
            Arena((1, 0), Arena.induced(g, (0, 1)).adj).validate_against(g)
        # labels off the graph fail the same check, one-vertex arenas too:
        # their bounds settle c_G(H) = 1 with no solve
        no_edges = (0,) * 6
        for verts in ((0, 6), (6,), (-1,)):
            _refused_everywhere(g, Arena(verts, no_edges), "out of range")

    def test_arena_rejects_edges_leaving_it(self):
        # the edge 1-2 of C6 is an edge of G, but 2 is off the arena
        g = cycle(6)
        adj = list(Arena.induced(g, (0, 1)).adj)
        adj[1] |= 1 << 2
        _refused_everywhere(g, Arena((0, 1), tuple(adj)), "at vertex 1 is not an edge")
        adj = list(Arena.induced(g, (0, 1)).adj)
        adj[2] = 1 << 1 | 1 << 3  # a mask on an off-arena vertex
        _refused_everywhere(g, Arena((0, 1), tuple(adj)), "at vertex 2 is not an edge")
        adj[2] = 1 << 1  # named at the off-arena end only
        _refused_everywhere(g, Arena((0, 1), tuple(adj)), "at vertex 2 is not an edge")
        adj = list(Arena.induced(g, (2, 3)).adj)
        adj[1], adj[2] = 1 << 2, adj[2] | 1 << 1  # at both ends, the first off the arena
        _refused_everywhere(g, Arena((2, 3), tuple(adj)), "at vertex 1 is not an edge")
        # a one-vertex arena whose robber may step to 1, named at both ends
        adj = [0] * 6
        adj[0], adj[1] = 1 << 1, 1 << 0
        _refused_everywhere(g, Arena((0,), tuple(adj)), "at vertex 0 is not an edge")
        # 0-3 is no edge of C6, though both ends are in the arena
        adj = list(Arena.induced(g, (0, 1, 3)).adj)
        adj[0] |= 1 << 3
        adj[3] |= 1 << 0
        _refused_everywhere(g, Arena((0, 1, 3), tuple(adj)), "at vertex 0 is not an edge")

    def test_arena_needs_one_mask_per_vertex(self):
        g = cycle(6)
        short = Arena((0, 1), Arena.induced(g, (0, 1)).adj[:2])
        _refused_everywhere(g, short, "2 masks for 6 vertices")
        long = Arena((0, 1), Arena.induced(g, (0, 1)).adj + (0,))
        _refused_everywhere(g, long, "7 masks for 6 vertices")
        _refused_everywhere(g, Arena((3,), (0,)), "1 masks for 6 vertices")

    def test_c_g_of_m_monotone(self):
        g = cycle(6)
        vals = [c_G_of_m(g, m) for m in range(1, 7)]
        assert vals == sorted(vals)
        assert vals[0] == 1
        assert vals[-1] == cop_number(g)

    def test_disconnected_arenas(self):
        # an arena game is played on any graph: every disconnected class
        # on at most 6 vertices, each induced arena, and c_G(m) over them
        for n in range(2, 7):
            for g in graph_classes(n):
                if is_connected(g):
                    continue
                for m in range(1, n + 1):
                    best = 0
                    for verts in combinations(range(n), m):
                        c = _least_winning_k(g, robber_arena=Arena.induced(g, verts))
                        assert restricted_cop_number(g, verts) == c, (g, verts)
                        best = max(best, c)
                    assert c_G_of_m(g, m) == best, (g, m)

    def test_c_g_of_m_pinned_le6(self):
        # one line "graph6 c_1,...,c_n" per connected class n <= 6, in
        # connected_graph_classes order, byte for byte
        text = "".join(
            "%s %s\n" % (emit_graph6(g), ",".join(str(c_G_of_m(g, m)) for m in range(1, n + 1)))
            for n in range(1, 7)
            for g in connected_graph_classes(n)
        )
        got = hashlib.sha256(text.encode()).hexdigest()
        assert got == "9ef6911bef2e1d4188fa75731c388931e546e257c4410d63245bd449aa1b2ed2"

    @pytest.mark.parametrize("g, m, solves, value", [
        (cycle(6), 3, 3, 1),  # C(6, 3) = 20 arenas in 3 rotation-reflection orbits
        (complete(5), 2, 1, 1),
        (path(4), 2, 4, 1),  # {01, 23}, {12}, {02, 13}, {03}
        # no automorphism but the identity: every one of the C(6, 3) arenas
        (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)]), 3, 20, 1),
    ], ids=["C6", "K5", "P4", "asymmetric"])
    def test_c_g_of_m_solves_one_arena_per_orbit(self, monkeypatch, g, m, solves, value):
        arenas = []

        def counted(g, arena, budget):
            arenas.append(arena)
            return restricted_cop_number(g, arena, budget)

        monkeypatch.setattr(solver, "restricted_cop_number", counted)
        assert c_G_of_m(g, m) == value
        assert len(arenas) == solves

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 1 << 21), st.randoms(), st.data())
    def test_c_g_of_m_is_max_over_every_arena(self, n, mask, rnd, data):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        perm = list(range(n))
        rnd.shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for i, (u, v) in enumerate(pairs) if mask >> i & 1])
        m = data.draw(st.integers(1, n))
        best = max(restricted_cop_number(g, verts) for verts in combinations(range(n), m))
        assert c_G_of_m(g, m) == best

    def test_c_g_of_m_cap(self, petersen_graph):
        with pytest.raises(ValueError):
            c_G_of_m(petersen_graph, 3)
        for m in (0, 6):
            with pytest.raises(ValueError, match=r"m must be in 1\.\.n"):
                c_G_of_m(cycle(5), m)


class TestTeleport:
    def test_values(self, petersen_graph):
        assert teleport_cop_number(complete(5)) == 1
        assert teleport_cop_number(path(4)) == 1
        assert teleport_cop_number(cycle(5)) == 2
        assert teleport_cop_number(petersen_graph) == 3

    def test_never_above_standard(self):
        for g in connected_graph_classes(5):
            assert teleport_cop_number(g) <= cop_number(g)

    def test_open_neighborhood_reading(self):
        # a lone cop wins K2: the robber's placement is already adjacent.
        # Capture on co-location as well as adjacency makes the danger
        # zone occupancy plus N(c), which is N[c], so the open and the
        # closed reading are one game
        g = Graph(2, [(0, 1)])
        assert _teleport_wins(g, GameConfig(k=1, variant="teleport"))

    def test_degree_on_regular_girth_five(
        self, petersen_graph, heawood_graph, hoffman_singleton_graph
    ):
        # On a d-regular graph of girth >= 5 no vertex other than r
        # controls two of r's neighbours, so every robber vertex needs d
        # teleporting cops: below k = d nothing is won before placement,
        # and c_T = min(d, gamma).  gamma >= ceil(n / (d + 1)) >= d on
        # these four graphs, so c_T = d.
        for g in (petersen_graph, heawood_graph, incidence(3), hoffman_singleton_graph):
            (d,) = set(g.degrees())
            assert girth(g) >= 5 and -(-g.n // (d + 1)) >= d
            assert teleport_cop_number(g) == d, g.n

    def test_named_values(self):
        # projective-plane graphs, each c_T a few hundred k-cover decisions;
        # incidence(5)'s 6 agrees with BENCH_teleport.json
        assert teleport_cop_number(polarity(5)) == 3
        assert teleport_cop_number(polarity(7)) == 5
        assert teleport_cop_number(incidence(5)) == 6

    def test_cops_win_refuses_teleport(self):
        with pytest.raises(ValueError):
            cops_win(cycle(4), GameConfig(k=2, variant="teleport"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GameConfig(k=0)
        with pytest.raises(ValueError):
            GameConfig(variant="chess")


def test_state_spaces_sized_before_allocation(petersen_graph):
    # each call refuses, or falls back to the greedy robber, on arithmetic
    # alone; building the positions it counts would take megabytes
    er5 = polarity(5)
    plan = build_theorem1_plan(er5)  # 7 cops: about 1e7 positions
    tracemalloc.start()
    try:
        policy = _robber_policy(er5, plan, "optimal")
        with pytest.raises(StateBudgetError):
            cops_win(petersen_graph, GameConfig(k=10), budget=1000)
        with pytest.raises(StateBudgetError):
            wins(petersen_graph, GameConfig(k=10), budget=1000)
        with pytest.raises(StateBudgetError):
            preceq_fixpoint_wins(petersen_graph, 10, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(policy, _GreedyRobber)
    assert peak < 1 << 20


def test_work_bound_by_arithmetic(hoffman_singleton_graph):
    # Hoffman-Singleton with k = 4: 50^4 ordered cop tuples of 7 bytes
    # each make one 43,750,000-byte mask vector, and the first round
    # counts two (C_0 and the R_0 built from it);
    # the 292,825 positions have 100 states each
    g = hoffman_singleton_graph
    board = _Board(g, 4)
    assert board.size == 43_750_000 == 50**4 * 7
    assert math.comb(g.n + 3, 4) * 2 * g.n == 29_282_500
    with pytest.raises(StateBudgetError) as e:
        cops_win(g, GameConfig(k=4), budget=50_000_000)
    assert (e.value.counted, e.value.estimated) == ("bytes", 87_500_000)


def test_work_budget_refuses_before_allocation():
    # incidence(3) with k = 4: 1,235,052 states fit the budget, but one
    # round of two 1,827,904-byte vectors does not, for the solve and the
    # verdict alike, nor does the first vector of the preceq chain;
    # building them would take megabytes
    g = incidence(3)
    assert math.comb(g.n + 3, 4) * 2 * g.n == 1_235_052
    tracemalloc.start()
    try:
        with pytest.raises(StateBudgetError) as solve:
            cops_win(g, GameConfig(k=4), budget=1_500_000)
        with pytest.raises(StateBudgetError) as verdict:
            wins(g, GameConfig(k=4), budget=1_500_000)
        with pytest.raises(StateBudgetError) as chain:
            preceq_fixpoint_wins(g, 4, budget=1_500_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (solve.value.counted, solve.value.estimated) == ("bytes", 3_655_808)
    assert (verdict.value.counted, verdict.value.estimated) == ("bytes", 3_655_808)
    assert (chain.value.counted, chain.value.estimated) == ("bytes", 1_827_904)
    assert "3655808 bytes exceeds budget" in str(solve.value)


def test_rounds_keep_one_vector_each(petersen_graph):
    # Petersen with k = 3: a 2,000-byte vector per kept C round, three
    # rounds, plus the R vector in flight.  The verdict stops at C_1, the
    # first round with a full field (3 cops dominate Petersen), and so
    # is charged C_0 and R_0 alone: its states (220 positions, 10 robber
    # vertices, two sides) bind.  The preceq chain keeps no levels, so
    # its states (one side) bind
    assert cops_win(petersen_graph, GameConfig(k=3), budget=8_000).cops_win
    with pytest.raises(StateBudgetError) as solve:
        cops_win(petersen_graph, GameConfig(k=3), budget=7_999)
    assert (solve.value.counted, solve.value.estimated) == ("bytes", 8_000)
    assert wins(petersen_graph, GameConfig(k=3), budget=4_400)
    with pytest.raises(StateBudgetError) as verdict:
        wins(petersen_graph, GameConfig(k=3), budget=4_399)
    assert (verdict.value.counted, verdict.value.estimated) == ("states", 4_400)
    assert preceq_fixpoint_wins(petersen_graph, 3, budget=2_200)
    with pytest.raises(StateBudgetError) as chain:
        preceq_fixpoint_wins(petersen_graph, 3, budget=2_199)
    assert (chain.value.counted, chain.value.estimated) == ("states", 2_200)
