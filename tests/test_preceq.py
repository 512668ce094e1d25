import math
from itertools import combinations_with_replacement

import pytest

from copwin.enumeration import connected_graph_classes, graph_classes
from copwin.families import complete, cycle, path
from copwin.solver import (
    DEFAULT_STATE_BUDGET,
    GameConfig,
    _attractor,
    _preceq_levels,
    cops_win,
    preceq,
    preceq_fixpoint_wins,
)
from copwin.traps import trap_threshold


class TestRelationBasics:
    def test_level_zero_is_occupancy(self):
        g = cycle(5)
        r0 = preceq(g, 1, 0)
        assert r0 == {(v, (v,)) for v in range(5)}

    def test_levels_grow_on_path(self):
        g = path(5)
        r0 = preceq(g, 1, 0)
        r1 = preceq(g, 1, 1)
        assert r0 < r1
        # an endpoint is retired by a cop standing next to it
        assert (0, (1,)) in r1

    def test_complete_graph_level_one_is_everything(self):
        g = complete(4)
        r1 = preceq(g, 1, 1)
        assert len(r1) == 16

    def test_stabilizes(self):
        g = cycle(6)
        big = preceq(g, 2, 50)
        bigger = preceq(g, 2, 51)
        assert big == bigger


class TestFixpointOutcome:
    def test_cop_win_graphs(self):
        assert preceq_fixpoint_wins(path(6), 1)
        assert preceq_fixpoint_wins(complete(5), 1)
        assert preceq_fixpoint_wins(cycle(4), 1)  # no-pass robber loses C4
        assert preceq_fixpoint_wins(cycle(4), 2)

    def test_robber_win_graphs(self, petersen_graph):
        assert not preceq_fixpoint_wins(cycle(5), 1)
        assert not preceq_fixpoint_wins(petersen_graph, 2)
        assert preceq_fixpoint_wins(petersen_graph, 3)

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_no_pass_game_exhaustively(self, k):
        # every class n <= 5, disconnected ones too
        for n in range(1, 6):
            for g in graph_classes(n):
                res = cops_win(g, GameConfig(k=k, robber_may_pass=False))
                assert preceq_fixpoint_wins(g, k) == res.cops_win
                # the stabilized relation is the cops' winning region
                # with the robber to move
                assert preceq(g, k, n * n) == {
                    (x, p)
                    for p in combinations_with_replacement(range(n), k)
                    for x in range(n)
                    if res.is_cop_win(p, x, "robber")
                }

    @pytest.mark.parametrize("k", [1, 2])
    def test_levels_grow_and_the_first_full_level_decides(self, k):
        # every class n <= 6, disconnected ones too: each level holds the
        # one before, so the verdict read as the levels come equals the
        # one read at the fixpoint, and a level below 0 reads rel[0]
        for n in range(1, 7):
            for g in graph_classes(n):
                board, levels = _preceq_levels(g, k, DEFAULT_STATE_BUDGET)
                chain = [int.from_bytes(rel, "little") for rel in levels]
                assert all(a & ~b == 0 for a, b in zip(chain, chain[1:])), g
                fixpoint = chain[-1].to_bytes(board.size, "little")
                at_fixpoint = board.first_full(fixpoint, (1 << n) - 1) is not None
                assert preceq_fixpoint_wins(g, k) == at_fixpoint, g
                occupancy = {(x, t) for t in combinations_with_replacement(range(n), k) for x in t}
                assert preceq(g, k, -1) == preceq(g, k, 0) == occupancy, g

    @pytest.mark.parametrize("k", [1, 2])
    def test_game_rounds_interleave_the_chain(self, k):
        # every class n <= 7, disconnected ones too: the no-pass game's
        # robber vectors R_L = C_0 | trapped(C_L) and the chain iterate one
        # map from C_0 <= R_0 <= rel_1, so rel_i <= R_i <= rel_{i+1} once
        # each chain is extended by its fixpoint; from L = 1 on, trapped(C_L)
        # already holds C_0, so the solver adds C_0 in round 0 alone
        cfg = GameConfig(k=k, robber_may_pass=False)
        for n in range(1, 8):
            for g in graph_classes(n):
                board, _, rob_moves, rounds = _attractor(g, cfg, DEFAULT_STATE_BUDGET)
                trapped = board.robber_step(rob_moves.items())
                cops = list(rounds)
                caught = int.from_bytes(cops[0], "little")
                rob = [caught | int.from_bytes(trapped(c), "little") for c in cops]
                assert rob[1:] == [int.from_bytes(trapped(c), "little") for c in cops[1:]], g
                _, levels = _preceq_levels(g, k, DEFAULT_STATE_BUDGET)
                rel = [int.from_bytes(r, "little") for r in levels]
                size = max(len(rob), len(rel)) + 1
                rob += rob[-1:] * (size - len(rob))
                rel += rel[-1:] * (size - len(rel))
                for i in range(size - 1):
                    assert rel[i] & ~rob[i] == 0 and rob[i] & ~rel[i + 1] == 0, (g, i)


class TestTrapLink:
    def test_proper_growth_iff_trap(self, petersen_graph):
        # the relation grows past level 0 for k cops exactly when some
        # vertex's neighbourhood is controllable by k cops from outside
        for g in (cycle(5), cycle(6), petersen_graph):
            k = math.isqrt(g.n)
            has_trap = any(trap_threshold(g, v) <= k for v in range(g.n))
            grows = preceq(g, k, 0) < preceq(g, k, 1)
            assert grows == has_trap

    def test_exhaustive_small(self):
        for n in range(2, 6):
            for g in connected_graph_classes(n):
                k = math.isqrt(g.n)
                has_trap = any(trap_threshold(g, v) <= k for v in range(g.n))
                grows = preceq(g, k, 0) < preceq(g, k, 1)
                assert grows == has_trap
