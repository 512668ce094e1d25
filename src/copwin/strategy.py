"""Executable form of the constructive sqrt(2n) cop strategy.

The plan builder runs the parking induction: while the current arena of
order m has a vertex of degree above floor(sqrt(2m)), park a stationary
cop on a maximum-degree vertex and delete its closed neighbourhood;
when max degree drops to the threshold, allocate floor(sqrt(2m)) mobile
cops for the bounded-degree endgame.

The mobile-cop endgame is a concrete elaboration of the bounded-degree
chase: assign one cop per arena neighbour of the robber, walk each cop
into the closed neighbourhood of its target (one step suffices at
diameter 2), and capture as soon as any cop starts its turn adjacent to
the robber.  It is checked, not assumed, by simulation against the
exactly-optimal robber on every theorem 1 class with n <= 9, and it
fails on one of them: on the bipartite diameter-3 graph GkCPXW (n = 8,
c = 2, 4 planned cops) the play repeats every two rounds from round 3
and the robber survives.  It fails on the bipartite diameter-3 Heawood
graph too (n = 14, c = 3, 5 planned cops): the play repeats every six
rounds from round 4, but only with OPTIMAL_ROBBER_STATE_CAP raised, since
under the cap the greedy robber plays there.  On the bipartite diameter-3
graph G_U_hS (n = 8, c = 2, 4 mobile cops) both robbers are caught, but
a scripted one placed on 4 that moves 7, 6, 7, 6, ... survives: from
round 3 the cops alternate 3,5,1,3 and 4,2,0,4.  The optimal robber is the
SolveResult of the full game: its robber_placement and robber_move are
the optimal replies.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import StateBudgetError
from .graphs import bfs_distances, bits, diameter, is_bipartite
from .solver import Arena, GameConfig, cops_win

# the optimal robber's solve budget, on its states and on the bytes its
# rounds keep: Petersen with 4 cops fits (80,000 bytes: 3 rounds of
# 20,000 and the R vector in flight); Heawood (239,904 states) and the
# polarity graph q = 3 (1,485,172 bytes in its first round) with 5 cops
# do not
OPTIMAL_ROBBER_STATE_CAP = 200_000


class StationaryGuard(namedtuple("StationaryGuard", "vertex stage arena_order threshold degree")):
    """One parked cop: where it stands, at which stage of the induction
    it was placed, and the arena order/threshold/degree at that stage."""

    __slots__ = ()


class CopPlan(namedtuple("CopPlan", "stationary residual_arena mobile_cop_count total_cops budget")):
    """Theorem 1's plan: the stationary StationaryGuards in order, the
    residual Arena the mobile cops chase in, the mobile and total cop
    counts, and the budget floor(sqrt(2n))."""

    __slots__ = ()


class StrategyTrace(namedtuple("StrategyTrace", "rounds outcome capture_round max_rounds robber_policy")):
    """One simulated play-out.  rounds[i] = (round index, cop tuple after
    the cops' move, robber vertex after his reply); round 0 records the
    initial placement.  outcome is "captured" or "survived", and
    capture_round is None when he survived.  robber_policy names the
    policy that actually played, "optimal" or "greedy": "optimal" falls
    back to "greedy" when the solve would exceed
    OPTIMAL_ROBBER_STATE_CAP."""

    __slots__ = ()


def theorem1_hypothesis(d, bipartite):
    """Theorem 1's hypothesis on a graph's diameter d (math.inf when it is
    disconnected): d <= 2, or d = 3 and the graph is bipartite.
    bipartite is a callable with no arguments, called only at d = 3."""
    return d <= 2 or (d == 3 and bipartite())


def theorem1_applies(g):
    """Whether g meets theorem 1's hypothesis: it is connected, and has
    diameter <= 2 or is bipartite of diameter 3."""
    return theorem1_hypothesis(diameter(g), lambda: is_bipartite(g))


def build_theorem1_plan(g):
    """Park stationary cops on high-degree vertices until the residual
    arena has bounded degree, then budget mobile cops for the chase.
    Raises ValueError outside theorem 1's hypothesis."""
    d = diameter(g)
    if not theorem1_hypothesis(d, lambda: is_bipartite(g)):
        if d == math.inf:
            raise ValueError("plan requires a connected graph")
        raise ValueError(
            "plan requires diameter <= 2, or a bipartite graph of diameter 3 "
            "(got diameter %s)" % d
        )
    alive = (1 << g.n) - 1
    guards = []
    while alive:
        m = alive.bit_count()
        thresh = math.isqrt(2 * m)
        top = max(bits(alive), key=lambda v: ((g.adj[v] & alive).bit_count(), -v))
        deg = (g.adj[top] & alive).bit_count()
        if deg <= thresh:
            break
        guards.append(StationaryGuard(top, len(guards), m, thresh, deg))
        alive &= ~g.closed_mask(top)
    mobile = math.isqrt(2 * alive.bit_count())
    residual = Arena.induced(g, bits(alive))
    return CopPlan(
        stationary=tuple(guards),
        residual_arena=residual,
        mobile_cop_count=mobile,
        total_cops=len(guards) + mobile,
        budget=math.isqrt(2 * g.n),
    )


def _step_toward(g, dist_to_target, frm):
    """One move (or stay) minimizing BFS distance to the target, lowest
    label on ties."""
    return min(bits(g.closed_mask(frm)), key=lambda w: (dist_to_target[w], w))


def lemma2_move(g, arena, cop_list, robber):
    """Mobile-cop moves for one round of the bounded-degree chase.

    Returns the new vertex for each cop, in cop order.  If any cop starts
    inside N[robber], it steps onto the robber (capture); otherwise cops
    are greedily matched to the robber's arena neighbours and each walks
    toward its target.
    """
    targets = list(bits(arena.adj[robber]))
    if len(targets) > len(cop_list):
        raise ValueError(
            "arena degree %d exceeds mobile cop count %d"
            % (len(targets), len(cop_list))
        )
    closed_r = g.closed_mask(robber)
    for i, c in enumerate(cop_list):
        if closed_r >> c & 1:
            out = list(cop_list)
            out[i] = robber
            return out

    dist = {t: bfs_distances(g, t) for t in set(targets) | {robber}}
    unassigned = list(targets)
    moves = []
    for c in cop_list:
        if unassigned:
            tgt = min(unassigned, key=lambda t: (dist[t][c], t))
            unassigned.remove(tgt)
        else:
            tgt = robber
        moves.append(_step_toward(g, dist[tgt], c))
    return moves


class _GreedyRobber:
    """Max distance-to-nearest-cop policy, lowest label on ties.  It
    answers the robber's two queries as a SolveResult does."""

    def __init__(self, g):
        self.g = g
        self.dist = [bfs_distances(g, v) for v in range(g.n)]

    def _best(self, options, cops):
        return max(options, key=lambda v: (min(self.dist[v][c] for c in cops), -v))

    def robber_placement(self, cops):
        return self._best(range(self.g.n), cops)

    def robber_move(self, cops, robber):
        return self._best(bits(self.g.closed_mask(robber)), cops)


def _robber_policy(g, plan, name):
    """The robber that plays: for "optimal" the full game's SolveResult
    when it fits OPTIMAL_ROBBER_STATE_CAP, else a _GreedyRobber."""
    if name == "greedy":
        return _GreedyRobber(g)
    if name != "optimal":
        raise ValueError("robber_policy must be 'optimal' or 'greedy'")
    try:
        return cops_win(g, GameConfig(k=plan.total_cops), budget=OPTIMAL_ROBBER_STATE_CAP)
    except StateBudgetError:
        # state space too large to tabulate; fall back to the greedy
        # adversary, as for any large instance
        return _GreedyRobber(g)


def simulate(g, plan, robber_policy="optimal", max_rounds=None):
    """Play the plan against a robber policy; returns a StrategyTrace.
    The optimal robber is the SolveResult of the full game with the
    plan's cops; the greedy one answers the same two queries.

    Stationary cops hold their vertices and strike any robber entering
    their closed neighbourhood; mobile cops run the bounded-degree chase
    on the residual arena.  Traces are fully deterministic.  max_rounds
    (default 4n) must be at least 0.
    """
    if max_rounds is None:
        max_rounds = 4 * g.n
    elif max_rounds < 0:
        raise ValueError("max_rounds must be at least 0, got %d" % max_rounds)
    policy = _robber_policy(g, plan, robber_policy)
    name = "greedy" if isinstance(policy, _GreedyRobber) else "optimal"

    guard_verts = [s.vertex for s in plan.stationary]
    start = guard_verts[0] if guard_verts else 0
    cops = guard_verts + [start] * plan.mobile_cop_count
    nguards = len(guard_verts)

    robber = policy.robber_placement(cops)
    rounds = [(0, tuple(cops), robber)]
    rnd = 0
    while robber not in cops:
        if rnd == max_rounds:
            return StrategyTrace(tuple(rounds), "survived", None, max_rounds, name)
        rnd += 1
        # cops' move: a guard whose closed neighbourhood holds the robber
        # strikes; otherwise the mobile cops capture or chase
        for i in range(nguards):
            if g.closed_mask(cops[i]) >> robber & 1:
                cops[i] = robber
                break
        else:
            cops[nguards:] = lemma2_move(g, plan.residual_arena, cops[nguards:], robber)
        if robber not in cops:
            robber = policy.robber_move(cops, robber)
        rounds.append((rnd, tuple(cops), robber))
    return StrategyTrace(tuple(rounds), "captured", rnd, max_rounds, name)


def format_trace(trace):
    """Line-oriented trace text: one round per line, then the outcome."""
    lines = []
    for rnd, cop_tuple, robber in trace.rounds:
        lines.append(
            "%d %s %d" % (rnd, ",".join(str(c) for c in cop_tuple), robber)
        )
    if trace.outcome == "captured":
        lines.append("captured round=%d" % trace.capture_round)
    else:
        lines.append("survived rounds=%d" % trace.max_rounds)
    return "\n".join(lines) + "\n"


def verify_key_inequality(m_max):
    """Check 1 + floor(sqrt(2(m - floor(sqrt(2m)) - 2))) <= floor(sqrt(2m))
    for all 4 <= m <= m_max, in pure integer arithmetic; returns the list
    of violating m (expected empty)."""
    if m_max < 4:
        raise ValueError("m_max must be >= 4")
    bad = []
    isqrt = math.isqrt
    for m in range(4, m_max + 1):
        t = isqrt(2 * m)
        inner = m - t - 2  # >= 0: isqrt(2m) <= m - 2 for m >= 4
        if 1 + isqrt(2 * inner) > t:
            bad.append(m)
    return bad
