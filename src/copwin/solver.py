"""Exact decision of "do k cops win?" by backward induction.

States are (cop multiset, robber vertex, side to move).  The cop team's
move relation is the reflexive closure of the k-fold strong product of G
(each cop moves along an edge or stays).  It is never listed: a layered
relation moves one cop at a time (after Petr, Portier and Versteegen,
"A faster algorithm for Cops and Robbers", 2022).  Its layer-j states
are pairs (M, U): M the multiset of the j cops that have moved, U the
k - j that have not; the least cop of U moves next.  Position p is the
layer-0 state (empty, p) and the layer-k state (p, empty), so ORing a
per-position mask vector backwards over the k layers gives, at every
position, the union over its product successors.  That takes at most
(Delta+1) * sum_j C(n+j-1, j) * C(n+k-j-1, k-j) transitions, against
(Delta+1)^k product tuples per position.

A solve is sized by arithmetic before anything is built: its states
and, where it uses the layered relation, that bound on its transitions
must each be within the budget.

Winning states are the cop attractor of the capture states, computed in
rounds over per-position bitmasks of robber vertices.  One loop serves
every game; each round is a robber step and a cop-move union:

* C_0[p], the capture mask, is the set of arena vertices on which a
  robber facing cop position p with the cops to move is already caught.
* R_L[p], the robber step, adds to the occupied arena vertices of p
  every arena vertex all of whose robber moves lie in C_L[p]: the
  robber to move there loses within L cop rounds.
* C_{L+1}[p], the cop-move union, is C_L[p] together with R_L[q] for
  every position q the cops at p can move to.

Iteration stops when C no longer changes.  The round in which a state
first appears is its level: the optimal number of cop rounds to
capture.  Results keep only the per-round masks and read labels,
levels and both sides' replies from them on demand; a cop reply builds
the successors of its one position.

The variant picks only C_0 and the cop-move union:

* standard -- capture when a cop occupies the robber's vertex, checked
  at placement and after each side's move.  The union walks the layered
  relation.
* teleport -- each cop may jump to any vertex except the robber's
  current one; the robber loses as soon as his own round (or his
  placement) ends in the closed neighbourhood of a cop.  C_0[p] is then
  the arena part of that danger zone.  Every position that avoids the
  robber is one jump away, so the union is the same jump mask at every
  position: the OR of R_L[q] minus the occupied vertices of q over all
  positions q.

The robber may be restricted to a sub-arena (vertex subset with its own
edge set), which is what the restricted cop numbers c_G(H) and c_G(m)
are about.

Every cop number (c, c_T, c_G(H), c_G(m)) comes from one ascending
search, _least_winning_k, which solves only the k in [LB, UB):

* In the standard full-arena game a dismantlable graph has LB = UB = 1
  (Nowakowski and Winkler, 1983).  Otherwise LB is 2 there, raised to
  the minimum degree when the girth is at least 5 (Aigner and Fromme,
  1984); in every other game LB is 1.
* Otherwise UB is the least number of vertices whose closed
  neighbourhoods cover the robber's arena (the domination number for
  the full arena): cops placed there catch the robber on their first
  move.  The cover search stops at a cover of LB vertices; after
  COVER_MAX_NODES branch-and-bound nodes it gives up, and the search
  runs with no UB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement, product
from operator import or_

from .errors import CopwinError, DisconnectedGraphError, StateBudgetError
from .graphs import (
    bits,
    girth,
    induced_subgraph,
    is_connected,
    is_dismantlable,
    reachable_mask,
)
from .traps import TRANSVERSAL_MAX_EDGES, TRANSVERSAL_MAX_N, _min_transversal_masks

DEFAULT_STATE_BUDGET = 50_000_000
DISMANTLABLE_CROSS_CHECK_MAX_N = 32
COVER_MAX_NODES = 20_000


@dataclass(frozen=True)
class Arena:
    """The robber's playground: a vertex subset of G with an edge set
    that must be a subset of G's edges on those vertices."""

    vertices: tuple
    adj: tuple  # bitmasks indexed by G-vertex label; zero off the arena

    @classmethod
    def induced(cls, g, verts):
        verts = tuple(sorted(set(verts)))
        vm = sum(1 << v for v in verts)
        return cls(verts, tuple(a & vm if vm >> v & 1 else 0 for v, a in enumerate(g.adj)))

    @classmethod
    def from_edges(cls, g, verts, edges):
        verts = tuple(sorted(set(verts)))
        vset = set(verts)
        adj = [0] * g.n
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ValueError("arena edge (%d, %d) leaves the arena" % (u, v))
            if not g.has_edge(u, v):
                raise ValueError("arena edge (%d, %d) is not an edge of G" % (u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(verts, tuple(adj))

    @classmethod
    def full(cls, g):
        return cls(tuple(range(g.n)), g.adj)

    def validate_against(self, g):
        """Vertices strictly increasing labels of g; one mask per vertex
        of g, naming only edges of g inside the arena."""
        if not self.vertices:
            raise ValueError("arena must be nonempty")
        if len(self.adj) != g.n:
            raise ValueError("arena has %d masks for %d vertices" % (len(self.adj), g.n))
        for u, v in zip((-1,) + self.vertices, self.vertices):
            if not u < v < g.n:
                raise ValueError("arena vertex %d out of range or out of order" % v)
        for v, inside in enumerate(Arena.induced(g, self.vertices).adj):
            if self.adj[v] & ~inside:
                raise ValueError("arena edge at vertex %d is not an edge of G inside the arena" % v)


@dataclass(frozen=True)
class GameConfig:
    """Everything pinning down one game instance apart from the graph."""

    k: int = 1
    variant: str = "standard"  # "standard" | "teleport"
    robber_may_pass: bool = True
    robber_arena: Arena | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("cop count k must be >= 1")
        if self.variant not in ("standard", "teleport"):
            raise ValueError("unknown variant %r" % self.variant)


_SIDE = {"cops": 0, "robber": 1}


class SolveResult:
    """Per-round attractor masks for one solved instance.  Immutable
    once returned; safe to share.  It answers every strategy query on
    demand, from the masks alone:

    * cops_win and best_position -- the verdict, and where the cops
      place to win soonest;
    * is_cop_win, level_of -- the label and capture level of a state;
    * placement_value -- the worst capture level over robber placements;
    * cop_move -- the cops' optimal reply;
    * robber_move, robber_placement -- the robber's optimal replies.

    rounds[L] is the pair (C_L, R_L) of per-position masks of the robber
    vertices from which the cops win within L rounds, with the cops or
    the robber to move; the last pair is the fixpoint.
    """

    def __init__(self, g, cfg, positions, index, arena_vertices, rob_moves, rounds):
        self.g = g
        self.cfg = cfg
        self.positions = positions
        self._index = index  # position -> its index in positions
        self.arena_vertices = arena_vertices
        self._rob_moves = rob_moves  # arena vertex -> mask of destinations
        self._rounds = rounds
        self._full = sum(1 << v for v in arena_vertices)
        # the cops place where the whole arena is won soonest
        self.best_position = next(
            (
                positions[p]
                for cop, _ in rounds
                for p, m in enumerate(cop)
                if m == self._full
            ),
            None,
        )
        self.cops_win = self.best_position is not None

    def _round(self, pos, turn, mask):
        """The least round whose mask for the side to move holds every
        robber vertex of mask at cop position pos, or None."""
        p = self._index.get(tuple(sorted(pos)))
        if p is None:
            return None
        side = _SIDE[turn]
        return next(
            (lv for lv, masks in enumerate(self._rounds) if masks[side][p] & mask == mask),
            None,
        )

    def is_cop_win(self, pos, r, turn):
        return self._round(pos, turn, 1 << r) is not None

    def level_of(self, pos, r, turn):
        """Optimal cop rounds to capture from a cop-winning state."""
        lv = self._round(pos, turn, 1 << r)
        if lv is None:
            raise KeyError("(%r, %r, %r) is not a cop-win state" % (pos, r, turn))
        return lv

    def cop_move(self, pos, r):
        """The cops' reply in a cops-to-move state they win in L >= 1
        rounds: the successor position whose robber-to-move state has
        the least level (L - 1), lowest index on ties.  In the standard
        game the successors of pos are built here, for pos alone."""
        lv = self.level_of(pos, r, "cops")
        if lv == 0:
            raise KeyError("(%r, %r) is already a capture" % (pos, r))
        rob = self._rounds[lv - 1][1]
        if self.cfg.variant == "teleport":
            succ = (q for q, t in enumerate(self.positions) if r not in t)
        else:
            succ = _team_moves(self.g, pos, self._index)
        return next(self.positions[q] for q in succ if rob[q] >> r & 1)

    def robber_move(self, pos, r):
        """The robber's best reply in the robber-to-move state (pos, r):
        stay in the robber-win region when possible, otherwise maximize
        the capture level."""
        pos = tuple(sorted(pos))
        if pos not in self._index or r not in self._rob_moves:
            raise KeyError("state %r not in solve table" % ((pos, r, "robber"),))
        moves = tuple(bits(self._rob_moves[r]))
        if not moves:
            raise ValueError("robber has no legal move from %r" % ((pos, r, "robber"),))
        if not self.is_cop_win(pos, r, "robber"):
            return next(r2 for r2 in moves if not self.is_cop_win(pos, r2, "cops"))
        return max(moves, key=lambda r2: self.level_of(pos, r2, "cops"))

    def robber_placement(self, pos):
        """The robber's best initial vertex against cop placement pos:
        the first robber-win vertex, else the first of maximum level."""
        best = None
        for r in self.arena_vertices:
            lv = self._round(pos, "cops", 1 << r)
            if lv is None:
                return r
            if best is None or lv > best[0]:
                best = (lv, r)
        return best[1]

    def placement_value(self, pos):
        """Max capture level over robber placements, or None if some
        placement is robber-win."""
        return self._round(pos, "cops", self._full)


def _layered_transitions(n, k, max_degree):
    """An upper bound on the transitions of the layered cop-move
    relation: layer j has C(n+j-1, j) * C(n+k-j-1, k-j) states, each
    with at most max_degree + 1 moves to layer j + 1."""
    return (max_degree + 1) * sum(
        math.comb(n + j - 1, j) * math.comb(n + k - j - 1, k - j) for j in range(k)
    )


def _positions(g, k, per_position, budget, layered=True):
    """All cop positions (nondecreasing k-tuples), sized by arithmetic
    against the budget before any is built: the states, and for a game
    that walks the layered relation, its transitions."""
    est = math.comb(g.n + k - 1, k) * per_position
    if est > budget:
        raise StateBudgetError(est, budget)
    if layered:
        work = _layered_transitions(g.n, k, g.max_degree())
        if work > budget:
            raise StateBudgetError(work, budget, counted="layered transitions")
    return list(combinations_with_replacement(range(g.n), k))


def _occupancy(positions):
    return [sum(1 << v for v in set(t)) for t in positions]


def _team_moves(g, t, index):
    """The sorted indices of the positions the cop team at t reaches in
    one move (each cop moves along an edge or stays).  index maps each
    position to its place in the list of positions."""
    return sorted(
        {index[tuple(sorted(c))] for c in product(*[[v] + g.neighbors(v) for v in t])}
    )


def _cop_moves(g, k, index):
    """The layered cop-move relation of k cops on g (see the module
    docstring), as a function: given a mask per position (in the order
    of index, which maps each position to its place), it returns for
    every position p the OR of the masks of all positions the team at
    p reaches in one move.

    Layer j is kept as one column per unmoved multiset U, a sequence
    over the moved multisets M.  The backward pass from layer j + 1 to
    layer j is then, per U = (u, *rest), an OR over w in N[u] of the
    column of rest read at M + {w}, one lazy chain of C-level maps."""
    n = g.n
    moved = [list(combinations_with_replacement(range(n), j)) for j in range(k)]
    where = [{m: i for i, m in enumerate(ms)} for ms in moved] + [index]
    # add[j][w]: where in a layer-(j+1) column M + {w} is, for every M of size j
    add = [
        [[where[j + 1][tuple(sorted(m + (w,)))] for m in moved[j]] for w in range(n)]
        for j in range(k)
    ]
    unmoved = moved + [list(index)]
    # split[i]: (least cop, index of the rest) for every i-multiset U
    split = [None] + [
        [(u[0], where[i - 1][u[1:]]) for u in unmoved[i]] for i in range(1, k + 1)
    ]
    nbrs = [g.neighbors(v) for v in range(n)]

    def union(masks):
        cols = [masks]  # layer k: every cop has moved
        for j in range(k - 1, -1, -1):
            pick = add[j]
            layer = []
            for u, rest in split[k - j]:
                read = cols[rest].__getitem__
                out = map(read, pick[u])  # the cop stays
                for w in nbrs[u]:
                    out = map(or_, out, map(read, pick[w]))
                layer.append(list(out))
            cols = layer
        return [c[0] for c in cols]  # layer 0: no cop has moved

    return union


def _robber_step(moves):
    """The robber step of (vertex, mask of its moves) pairs, as a
    function: per mask, the vertices all of whose moves lie in it."""
    steps = [(1 << r, mv) for r, mv in moves]
    # the bits are distinct, so their sum is their union
    return lambda masks: [sum(bit for bit, mv in steps if not mv & ~c) for c in masks]


def cops_win(g, cfg, budget=DEFAULT_STATE_BUDGET, allow_disconnected=False):
    """Solve one instance exactly; returns a SolveResult.

    Placement semantics: cops pick any position first; the robber, seeing
    it, picks his best arena vertex; play then alternates cops-first.
    """
    if not allow_disconnected and not is_connected(g):
        raise DisconnectedGraphError(
            "graph is disconnected (pass allow_disconnected to solve anyway)"
        )
    arena = cfg.robber_arena if cfg.robber_arena is not None else Arena.full(g)
    arena.validate_against(g)
    teleport = cfg.variant == "teleport"
    positions = _positions(g, cfg.k, len(arena.vertices) * 2, budget, layered=not teleport)
    index = {t: i for i, t in enumerate(positions)}
    occ = _occupancy(positions)
    amask = sum(1 << v for v in arena.vertices)
    rob_moves = {
        r: arena.adj[r] | (1 << r if cfg.robber_may_pass else 0)
        for r in arena.vertices
    }
    trapped = _robber_step(rob_moves.items())
    caught = [o & amask for o in occ]

    if teleport:
        cop = []
        for t, d in zip(positions, occ):  # standing on a cop is capture
            for c in set(t):
                d |= g.closed_mask(c)
            cop.append(d & amask)

        def moves(rob):  # cops jump to any position avoiding the robber
            jump = 0
            for o, m in zip(occ, rob):
                jump |= m & ~o
            return [jump] * len(occ)
    else:
        cop = caught
        moves = _cop_moves(g, cfg.k, index)

    rounds = []
    while True:
        # a robber to move loses where caught or where every move is
        rob = list(map(or_, caught, trapped(cop)))
        rounds.append((cop, rob))
        nxt = list(map(or_, cop, moves(rob)))
        if nxt == cop:
            break
        cop = nxt
    return SolveResult(g, cfg, tuple(positions), index, arena.vertices, rob_moves, rounds)


def cop_number(g, budget=DEFAULT_STATE_BUDGET, allow_disconnected=False, max_k=None):
    """Least k for which k cops win, searched between bounds: a
    dismantlable graph has c = 1; otherwise LB is 2, raised to the
    minimum degree when girth >= 5, and UB is the domination number
    (none if its search gives up).  The k=1 verdict is cross-checked
    against dismantlability on small instances.  An answer above max_k
    raises CopwinError.

    For a disconnected graph (with allow_disconnected) the value is the
    sum over components.
    """
    if not is_connected(g):
        if not allow_disconnected:
            raise DisconnectedGraphError(
                "cop number of a disconnected graph needs allow_disconnected"
            )
        return sum(cop_number(c, budget=budget, max_k=max_k) for c in _components(g))
    return _least_winning_k(g, GameConfig(), budget, max_k)


def _bounds(g, template):
    """(LB, UB, dismantlable) for the least winning k in the game
    template on g, by the rules in the module docstring.  UB is None
    when the cover search gives up or exceeds the transversal solver's
    caps; dismantlable is None outside the standard full-arena game."""
    lb, dismantlable = 1, None
    arena = template.robber_arena
    if template.variant == "standard" and arena is None and template.robber_may_pass:
        dismantlable = is_dismantlable(g)
        if dismantlable:
            return 1, 1, True
        lb = 2
        if girth(g) >= 5:
            lb = max(lb, min(g.degrees()))
    verts = range(g.n) if arena is None else arena.vertices
    ub = None
    if g.n <= TRANSVERSAL_MAX_N and len(verts) <= TRANSVERSAL_MAX_EDGES:
        cover = [g.closed_mask(a) for a in verts]
        found = _min_transversal_masks(g.n, cover, lb, COVER_MAX_NODES)
        ub = found[0] if found else None
    return lb, ub, dismantlable


def _least_winning_k(g, template, budget, max_k=None):
    """The one cop-count search: least k for which k cops win the game
    template (its k is ignored) on g, which is connected unless the game
    is teleport.  Only k in [LB, UB) is solved; without an UB the search
    runs up to max_k, or n.  On at most DISMANTLABLE_CROSS_CHECK_MAX_N
    vertices, a game with a dismantlability verdict also solves k=1 to
    check it.  A StateBudgetError carries LB, or the k out of budget if
    larger."""
    lb, ub, dismantlable = _bounds(g, template)
    if ub is not None and ub < lb:
        raise CopwinError("cover bound %d below lower bound %d" % (ub, lb))
    top = max_k if max_k is not None else g.n

    def wins(k):
        try:
            # callers check connectivity; a disconnected g is a teleport game
            return cops_win(
                g, replace(template, k=k), budget=budget, allow_disconnected=True
            ).cops_win
        except StateBudgetError as e:
            raise StateBudgetError(
                e.estimated, e.budget, lower_bound=max(lb, k), counted=e.counted
            ) from None

    if dismantlable is not None and g.n <= DISMANTLABLE_CROSS_CHECK_MAX_N:
        if wins(1) != dismantlable:
            raise CopwinError(
                "solver/dismantlability mismatch on %d-vertex graph" % g.n
            )
    stop = top + 1 if ub is None else min(ub, top + 1)
    for k in range(lb, stop):
        if wins(k):
            return k
    if ub is not None and ub <= top:
        return ub
    raise CopwinError("no winning cop count found up to k=%d" % top)


def _components(g):
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        mask = reachable_mask(g, v)
        seen |= mask
        comps.append(induced_subgraph(g, list(bits(mask))))
    return comps


def restricted_cop_number(g, arena, budget=DEFAULT_STATE_BUDGET):
    """c_G(H): cops needed against a robber confined to the arena."""
    if not isinstance(arena, Arena):
        arena = Arena.induced(g, arena)
    arena.validate_against(g)
    if not is_connected(g):
        raise DisconnectedGraphError("restricted cop number needs a connected graph")
    return _least_winning_k(g, GameConfig(robber_arena=arena), budget)


C_G_OF_M_MAX_N = 8


def c_G_of_m(g, m, budget=DEFAULT_STATE_BUDGET):
    """c_G(m) = max of c_G(H) over induced sub-arenas on m vertices.

    Induced arenas suffice: removing robber edges only constrains the
    robber, so the maximum is attained at the edge-maximal (induced)
    sub-arena.
    """
    if g.n > C_G_OF_M_MAX_N:
        raise ValueError(
            "c_G_of_m capped at n <= %d (C(n,m) solves)" % C_G_OF_M_MAX_N
        )
    if not 1 <= m <= g.n:
        raise ValueError("m must be in 1..n")
    best = 0
    for verts in combinations(range(g.n), m):
        best = max(best, restricted_cop_number(g, verts, budget=budget))
    return best


def teleport_cop_number(g, budget=DEFAULT_STATE_BUDGET, allow_disconnected=False):
    """c_T(G): least number of teleporting cops that win.

    Teleporting cops jump between components, so for a disconnected
    graph (with allow_disconnected) c_T is searched on the whole graph:
    its bounds (LB 1, UB the domination number) hold there too."""
    if not allow_disconnected and not is_connected(g):
        raise DisconnectedGraphError(
            "cop number of a disconnected graph needs allow_disconnected"
        )
    return _least_winning_k(g, GameConfig(variant="teleport"), budget)


def _preceq_chain(g, k, budget=DEFAULT_STATE_BUDGET):
    """Relation chain rel[0], rel[1], ... as per-position bitmasks over
    robber vertices, computed until stabilization.  The robber does not
    pass; cop moves use the reflexive closure of the strong product."""
    positions = _positions(g, k, g.n, budget)
    moves = _cop_moves(g, k, {t: i for i, t in enumerate(positions)})
    trapped = _robber_step(enumerate(g.adj))
    occ = _occupancy(positions)

    chain = [list(occ)]
    cum = list(occ)
    while True:
        new = trapped(moves(cum))
        if new == chain[-1]:
            return positions, chain
        chain.append(new)
        cum = [a | b for a, b in zip(cum, new)]


def preceq(g, k, i, budget=DEFAULT_STATE_BUDGET):
    """The relation between robber vertices and cop positions at level i
    (the stabilized relation if i exceeds the fixpoint index)."""
    positions, chain = _preceq_chain(g, k, budget=budget)
    rel = chain[min(i, len(chain) - 1)]
    return {
        (x, positions[p])
        for p in range(len(positions))
        for x in bits(rel[p])
    }


def preceq_fixpoint_wins(g, k, budget=DEFAULT_STATE_BUDGET):
    """True iff some position relates to every robber vertex in the
    stabilized relation; equals cops_win with a no-pass robber."""
    positions, chain = _preceq_chain(g, k, budget=budget)
    full = (1 << g.n) - 1
    return any(m == full for m in chain[-1])
