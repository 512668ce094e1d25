import math

import pytest

from copwin import solver, strategy
from copwin.enumeration import connected_graph_classes
from copwin.families import complete, cycle, petersen, polarity
from copwin.graph6 import parse_graph6
from copwin.graphs import Graph, diameter, is_bipartite
from copwin.strategy import (
    build_theorem1_plan,
    format_trace,
    lemma2_move,
    simulate,
    theorem1_applies,
    verify_key_inequality,
)
from copwin.solver import Arena


class TestPlanBuilder:
    def test_rejects_large_diameter(self):
        with pytest.raises(ValueError):
            build_theorem1_plan(cycle(7))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            build_theorem1_plan(Graph(3, [(0, 1)]))

    def test_rejection_messages(self):
        with pytest.raises(ValueError, match="plan requires a connected graph"):
            build_theorem1_plan(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match=r"diameter <= 2, .*\(got diameter 3\)"):
            # a triangle with a two-edge tail: diameter 3, not bipartite
            build_theorem1_plan(Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]))

    def test_theorem1_applies_is_the_plan_precondition(self):
        """One predicate: connected, and diameter <= 2 or bipartite of
        diameter 3; the plan builder accepts exactly those graphs."""
        graphs = [Graph(3, [(0, 1)]), Graph(4, [(0, 1), (2, 3)])]
        graphs += [g for n in range(1, 7) for g in connected_graph_classes(n)]
        for g in graphs:
            d = diameter(g)
            want = d <= 2 or (d == 3 and is_bipartite(g))
            assert theorem1_applies(g) == want
            try:
                build_theorem1_plan(g)
                built = True
            except ValueError:
                built = False
            assert built == want

    def test_accepts_bipartite_diameter_three(self, heawood_graph):
        plan = build_theorem1_plan(heawood_graph)
        assert plan.total_cops >= 1

    def test_cop_budget_respected_small(self):
        for n in range(1, 7):
            for g in connected_graph_classes(n):
                d = diameter(g)
                if not (d <= 2 or (d == 3 and is_bipartite(g))):
                    continue
                plan = build_theorem1_plan(g)
                assert plan.total_cops <= plan.budget == math.isqrt(2 * g.n)

    def test_complete_graph_one_stationary(self):
        plan = build_theorem1_plan(complete(6))
        assert len(plan.stationary) == 1
        assert plan.mobile_cop_count == 0
        assert plan.residual_arena.vertices == ()

    def test_petersen_all_mobile(self, petersen_graph):
        # max degree 3 is below floor(sqrt(20)) = 4, so nothing is parked
        plan = build_theorem1_plan(petersen_graph)
        assert plan.stationary == ()
        assert plan.mobile_cop_count == 4

    def test_stationary_metadata(self):
        # star: the center's degree 5 exceeds floor(sqrt(12)) = 4, so it
        # gets a guard and nothing remains
        g = Graph(6, [(0, v) for v in range(1, 6)])
        plan = build_theorem1_plan(g)
        assert len(plan.stationary) == 1
        guard = plan.stationary[0]
        assert guard.vertex == 0
        assert guard.degree > guard.threshold
        assert guard.threshold == math.isqrt(2 * guard.arena_order)


class TestLemma2Move:
    def test_adjacent_cop_captures(self):
        g = cycle(5)
        arena = Arena.full(g)
        moves = lemma2_move(g, arena, [1, 3], 0)
        assert 0 in moves

    def test_degree_guard(self):
        g = petersen()
        arena = Arena.full(g)
        with pytest.raises(ValueError):
            lemma2_move(g, arena, [5], 0)  # 3 arena neighbours, 1 cop

    def test_moves_are_legal(self):
        g = petersen()
        arena = Arena.full(g)
        cops = [4, 5, 6]
        moves = lemma2_move(g, arena, cops, 0)
        for c, m in zip(cops, moves):
            assert m == c or g.has_edge(c, m)


class TestSimulate:
    def test_captures_on_petersen(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        trace = simulate(petersen_graph, plan)
        assert trace.outcome == "captured"
        assert trace.capture_round <= 4 * petersen_graph.n

    def test_captures_on_heawood_greedy(self, heawood_graph):
        plan = build_theorem1_plan(heawood_graph)
        trace = simulate(heawood_graph, plan, robber_policy="greedy")
        assert trace.outcome == "captured"

    def test_trace_names_the_robber_that_played(self, petersen_graph):
        """The optimal robber needs a solve table; above
        OPTIMAL_ROBBER_STATE_CAP the greedy robber plays, and says so."""
        plan = build_theorem1_plan(petersen_graph)
        assert simulate(petersen_graph, plan).robber_policy == "optimal"
        assert simulate(petersen_graph, plan, robber_policy="greedy").robber_policy == "greedy"
        er5 = polarity(5)  # 7 cops on 31 vertices: far above the cap
        trace = simulate(er5, build_theorem1_plan(er5), robber_policy="optimal")
        assert trace.robber_policy == "greedy"

    @pytest.mark.xfail(strict=True, reason="the chase cycles on GkCPXW against the optimal robber")
    def test_captures_on_bipartite_diameter_three_gkcpxw(self):
        # n = 8, c = 2, 4 planned cops; the one theorem 1 class n <= 9
        # where the optimal robber is never caught (the greedy one is)
        g = parse_graph6("GkCPXW")
        trace = simulate(g, build_theorem1_plan(g))
        assert trace.outcome == "captured"

    def test_optimal_robber_plays_on_heawood_under_default_budget(self, heawood_graph, monkeypatch):
        # its table (5 cops, 14 vertices) fits the default budget but not
        # OPTIMAL_ROBBER_STATE_CAP, under which the greedy robber plays
        monkeypatch.setattr(strategy, "OPTIMAL_ROBBER_STATE_CAP", solver.DEFAULT_STATE_BUDGET)
        trace = simulate(heawood_graph, build_theorem1_plan(heawood_graph))
        assert trace.robber_policy == "optimal"

    @pytest.mark.xfail(strict=True, reason="the chase cycles on Heawood against the optimal "
                       "robber: the bipartite diameter-3 chase of ROADMAP item 1")
    def test_captures_on_heawood_optimal(self, heawood_graph, monkeypatch):
        # n = 14, c = 3, 5 planned cops: the play repeats every six rounds
        # from round 4 and the robber survives all 4n = 56 rounds
        monkeypatch.setattr(strategy, "OPTIMAL_ROBBER_STATE_CAP", solver.DEFAULT_STATE_BUDGET)
        trace = simulate(heawood_graph, build_theorem1_plan(heawood_graph))
        assert trace.outcome == "captured"

    def test_deterministic(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        t1 = simulate(petersen_graph, plan)
        t2 = simulate(petersen_graph, plan)
        assert t1 == t2

    def test_trace_shape(self):
        g = complete(4)
        plan = build_theorem1_plan(g)
        trace = simulate(g, plan)
        rnd0 = trace.rounds[0]
        assert rnd0[0] == 0 and len(rnd0[1]) == plan.total_cops

    def test_unknown_policy(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        with pytest.raises(ValueError):
            simulate(petersen_graph, plan, robber_policy="psychic")

    def test_negative_max_rounds(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        with pytest.raises(ValueError, match="max_rounds must be at least 0"):
            simulate(petersen_graph, plan, max_rounds=-1)

    def test_survived_when_rounds_too_few(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        trace = simulate(petersen_graph, plan, max_rounds=0)
        assert (trace.outcome, trace.capture_round) == ("survived", None)
        assert format_trace(trace).endswith("survived rounds=0\n")


class TestFormatTrace:
    def test_lines(self, petersen_graph):
        plan = build_theorem1_plan(petersen_graph)
        trace = simulate(petersen_graph, plan)
        text = format_trace(trace)
        lines = text.strip().splitlines()
        assert lines[0].startswith("0 ")
        assert lines[-1] == "captured round=%d" % trace.capture_round


class TestKeyInequality:
    def test_no_violations_small(self):
        assert verify_key_inequality(10_000) == []

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            verify_key_inequality(3)

    def test_spot_values(self):
        # m=50: floor(sqrt(100))=10, inner=38, 1+floor(sqrt(76))=9 <= 10
        assert verify_key_inequality(50) == []
