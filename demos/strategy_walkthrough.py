"""Walk through the constructive sqrt(2n) strategy on a diameter-2
graph: park stationary cops on high-degree vertices, then chase the
robber in the bounded-degree residual arena with mobile cops, and watch
the whole thing play out against the exactly-optimal robber (the greedy
one when the optimal robber's table would exceed its budget).

Run:  python3 demos/strategy_walkthrough.py
"""

from copwin.families import petersen, polarity
from copwin.strategy import build_theorem1_plan, format_trace, simulate


def walkthrough(name, g):
    print("== %s (n=%d) ==" % (name, g.n))
    plan = build_theorem1_plan(g)
    print("cop budget floor(sqrt(2n)) = %d" % plan.budget)
    if plan.stationary:
        for guard in plan.stationary:
            print("stage %d: park a cop on vertex %d "
                  "(degree %d > threshold %d in an arena of order %d)"
                  % (guard.stage, guard.vertex, guard.degree,
                     guard.threshold, guard.arena_order))
    else:
        print("no vertex exceeds the degree threshold; no cops parked")
    print("residual arena: %d vertices, %d mobile cops, %d cops total"
          % (len(plan.residual_arena.vertices), plan.mobile_cop_count,
             plan.total_cops))

    # trace format: one line per round, "round cop_positions robber"
    trace = simulate(g, plan, robber_policy="optimal")
    print("robber: %s" % trace.robber_policy)
    print(format_trace(trace))


walkthrough("Petersen graph", petersen())

# A polarity graph of a projective plane: diameter 2, n = q^2 + q + 1
walkthrough("polarity graph, q=3", polarity(3))
