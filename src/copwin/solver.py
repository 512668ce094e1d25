"""Exact decision of "do k cops win?" by backward induction
(Berarducci and Intrigila, "On the cop number of a graph", 1993).

States are (cop multiset, robber vertex, side to move).  The cop team's
move relation is the reflexive closure of the k-fold strong product of G
(each cop moves along an edge or stays).  It is never listed.

Layout.  A mask vector is one bytes object of n^k fields, one per
ordered cop tuple (v_1, ..., v_k); field sum_i v_i * n^(k-i) (cop 1 the
most significant digit) holds a mask of robber vertices in ceil(n/8)
bytes, little-endian.  Byte b of every field is lane b.  Each vector
is symmetric: the tuples of one multiset hold the same mask, so a
query reads the field of its position in any order.  Two operations
run on whole vectors at C speed:

* The robber step.  Per-byte translate tables: tables[b][o][x] holds
  the lane-o vertices r whose moves in lane b lie inside the byte x,
  built from one 256-entry superset indicator per move-mask byte.
  The vertices whose every move lies in a field are the AND over b of
  lane b translated through tables[b][o].  The tables depend only on
  the robber's moves, so an arena changes only them; they are cached,
  which pays in the preceq check's four solves per graph (see
  ``_step_tables``).
* One cop's move.  Split the vector into n blocks of n^(k-1) fields,
  one per vertex v of cop 1.  Output block v is the OR of input blocks
  w in N[v], on ints; cop 1 has moved.  Then the tuples rotate so that
  cop 2 is the top digit.  The board's shape picks how blocks are read:

  - k = 1, a field one item (1 byte for n <= 8; 2, 4 or 8 bytes for
    n <= 16, 25..32, 57..64): a block is a field, so one call reads
    every field (bytes index to ints; wider fields through one
    memoryview cast) and one writes them (bytes(), or one array pack).
  - k = 2, a field one item: rotated block v holds the fields (w, v),
    column v of the moved blocks, so one strided read per block is
    the rotation.
  - Otherwise: n strided assignments of whole fields (1 byte, or one
    item of a memoryview cast at 2, 4 or 8 bytes; other widths go lane
    by lane, n * ceil(n/8) of them) write the rotated vector, whose
    blocks are then sliced again.

  Items are read and written in the host's byte order, so on a
  big-endian host an item's value has a field's little-endian bytes
  swapped.  OR acts on each bit alone, so it commutes with any
  permutation of the bytes, and the items it writes back in the same
  order are exactly the little-endian fields.
  k such moves make the cop-move union of one round (the cops move one
  at a time, after Petr, Portier and Versteegen, "A faster algorithm
  for Cops and Robbers", 2022), with k - 1 rotations: the union of a
  symmetric vector is symmetric, so the last move needs no rotation.

The capture mask C_0 below is built the same way, one cop at a time:
each block ORs the block of k - 1 cops with its vertex's arena bit.

A solve is sized by arithmetic before anything is built: its states,
and the bytes of its first round (n^k * ceil(n/8) bytes per vector, two
vectors: C_0 and the R_0 built from it), must each be within the
budget.  Each later round is held to the same budget as it is computed,
one vector for every round so far plus the R vector in flight, whether
or not the caller keeps the rounds.

Winning states are the cop attractor of the capture states, computed in
rounds over mask vectors of robber vertices.  One loop serves the
standard game; each round is a robber step and a cop-move union:

* C_0[p], the capture mask, is the set of occupied arena vertices: a
  cop on the robber's vertex captures, at placement and after each move.
* R_L[p], the robber step, adds to the occupied arena vertices of p
  trapped(C_L)[p], every arena vertex all of whose robber moves lie in
  C_L[p]: the robber to move there loses within L cop rounds.  From
  round 1 on, R_L = trapped(C_L): a cop on v reaches every vertex of
  N_G[v], so C_1[p] holds N_G[v] on the arena, and a robber's moves lie
  in his closed neighbourhood.
* C_{L+1}[p], the cop-move union, is C_L[p] together with R_L[q] for
  every position q the cops at p can move to.

Iteration stops when C no longer changes.  The round in which a state
first appears is its level: the optimal number of cop rounds to
capture.  _attractor's rounds come from _chain, the byte engine's
one fixpoint loop.  C_L only grows, so the first round with a field
holding the whole arena decides that k cops win: wins, which answers
the verdict alone, stops there, and returns False at the fixpoint.
cops_win reads every round into a SolveResult.  R_L is a function of
C_L, so results keep only the C vectors; R_L is built in the loop, fed
to the union and dropped.  Labels, levels and both sides' replies are
read from the C vectors on demand, one field at a time: the robber to
move at r is beaten in round L when a cop stands on r or his move mask
lies in C_L[p], so his level is a cops-side query of that mask.  A cop
reply builds the successors of its one position.  Ties break as on
multiset positions in sorted order: best_position is the first full
field of the earliest round, and the full fields form a set closed
under permuting the cops, whose lexicographically first tuple is
sorted; cop_move tries the successor multisets in sorted order.

Lemma.  Let F(x) = trapped(union(x)).  By the round-1 fact,
R_{L+1} = F(R_L) for every L >= 0.  With a no-pass robber on the full
arena, F is _preceq_levels' own step, so the game's R chain and the
preceq chain iterate one map from two starts: rel_i = F^i(caught), with
caught = C_0, and R_i = F^i(R_0).  The robber step is monotone and the
union holds its input (the cops may stay), so caught <= R_0 <= F(caught),
and hence rel_i <= R_i <= rel_{i+1}.  Both chains end at one fixpoint
R, full in a field just where union(R) is: preceq_fixpoint_wins is wins.

The teleport game needs no vectors.  Each cop may jump to any vertex
but the robber's, and the robber loses when his round (or placement)
ends in the closed neighbourhood of a cop.  So a cops-to-move state
depends only on the robber's vertex r, and the cops win from r within
one more round exactly when his moves outside the won set W lie in k
closed neighbourhoods of vertices other than r.  W grows from the empty
set by such r, and k cops win exactly when k closed neighbourhoods
cover the arena outside the final W (_teleport_wins, within
min_cover's caps).  Each test asks traps.min_cover (the one cover
query) for its decision at_most=k: the search looks only for covers of
at most k vertices and stops at the first, so no test proves a minimum.

The robber may be restricted to a sub-arena (vertex subset with its own
edge set), which is what the restricted cop numbers c_G(H) and c_G(m)
are about.  Every game reads and checks its arena in one place,
_robber_moves, whose arena mask and robber moves the other readers take.

Every cop number (c, c_T, c_G(H), c_G(m)) comes from one ascending
search, _least_winning_k, from a lower bound LB up.  Each k is first
asked whether k closed neighbourhoods cover the robber's arena (cops
placed there catch him on their first move); only when none does is k
solved, by wins (or _teleport_wins), so no solve runs past its deciding
round:

* In the standard full-arena game with a passing robber, LB, the cover
  and the solves for k >= 2 are on the corner-free core (graphs.core),
  as c(G) = c(core).  A one-vertex core (G dismantlable) gives 1
  (Nowakowski and Winkler, 1983) with no cover asked.  Otherwise LB is
  2, raised to the core's minimum degree when its girth is at least 5
  (Aigner and Fromme, 1984); a degree of 2 raises nothing, so the girth
  is taken only from 3 up.  The k=1 cross-check still solves on G.
* Every other game (teleport, a restricted arena, a no-pass robber) is
  on G with LB = 1: the corner argument does not hold there.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count, product

from .enumeration import _orbit, _order_and_neighbors
from .errors import CopwinError, StateBudgetError
from .graphs import bits, core, girth, induced_subgraph, is_connected, reachable_mask
from .traps import min_cover

DEFAULT_STATE_BUDGET = 50_000_000
DISMANTLABLE_CROSS_CHECK_MAX_N = 32


@dataclass(frozen=True)
class Arena:
    """The robber's playground: a vertex subset of G with an edge set
    that must be a subset of G's edges on those vertices."""

    vertices: tuple
    adj: tuple  # bitmasks indexed by G-vertex label; zero off the arena

    @staticmethod
    def _labels(g, verts):
        """verts sorted without repeats, checked to be labels of g before
        any of them is used as a shift count."""
        verts = tuple(sorted(set(verts)))
        for v in verts[:1] + verts[-1:]:
            if not 0 <= v < g.n:
                raise ValueError("arena vertex %d out of range or out of order" % v)
        return verts

    @classmethod
    def induced(cls, g, verts):
        verts = cls._labels(g, verts)
        vm = sum(1 << v for v in verts)
        return cls(verts, tuple(a & vm if vm >> v & 1 else 0 for v, a in enumerate(g.adj)))

    @classmethod
    def from_edges(cls, g, verts, edges):
        verts = cls._labels(g, verts)
        vset = set(verts)
        adj = [0] * g.n
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ValueError("arena edge (%d, %d) leaves the arena" % (u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        arena = cls(verts, tuple(adj))
        arena.validate_against(g)
        return arena

    @classmethod
    def full(cls, g):
        return cls(tuple(range(g.n)), g.adj)

    def validate_against(self, g):
        """Vertices strictly increasing labels of g; one mask per vertex
        of g, naming only edges of g inside the arena, each at both of
        its ends.  Returns the arena's vertex mask."""
        if not self.vertices:
            raise ValueError("arena must be nonempty")
        if len(self.adj) != g.n:
            raise ValueError("arena has %d masks for %d vertices" % (len(self.adj), g.n))
        mask = 0
        for u, v in zip((-1,) + self.vertices, self.vertices):
            if not u < v < g.n:
                raise ValueError("arena vertex %d out of range or out of order" % v)
            mask |= 1 << v
        for v, row in enumerate(self.adj):
            inside = g.adj[v] & mask if mask >> v & 1 else 0  # none off the arena
            if row & ~inside:
                raise ValueError("arena edge at vertex %d is not an edge of G inside the arena" % v)
            for w in bits(row):
                if not self.adj[w] >> v & 1:
                    raise ValueError("arena edge (%d, %d) is named at %d only" % (v, w, v))
        return mask


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


def _as_int(vec):
    return int.from_bytes(vec, "little")


class _Board:
    """The n^k ordered cop tuples of k cops on g, and the operations on
    their mask vectors (see the module docstring for the layout)."""

    def __init__(self, g, k):
        n = g.n
        self.n, self.k = n, k
        self.nb = nb = (n + 7) // 8
        self.fields = n**k
        self.size = self.fields * nb  # bytes of one vector
        self.block = self.size // n  # bytes per value of the top cop
        self.closed = [bits(g.closed_mask(v)) for v in range(n)]
        self.fmt = {2: "H", 4: "I", 8: "Q"}.get(nb)  # a field as one memoryview item

    def field(self, pos):
        """The field of cop position pos; KeyError when pos is not k
        vertices of g.  Every vector is symmetric, so any order of pos
        reads the same value."""
        if len(pos) != self.k or not all(0 <= v < self.n for v in pos):
            raise KeyError("cop position %r is not %d vertices of the graph" % (pos, self.k))
        f = 0
        for v in pos:
            f = f * self.n + v
        return f

    def read(self, vec, f):
        return _as_int(vec[f * self.nb:(f + 1) * self.nb])

    def decode(self, f):
        """The cop tuple of field f."""
        out = []
        for _ in range(self.k):
            f, v = divmod(f, self.n)
            out.append(v)
        return tuple(reversed(out))

    def first_full(self, vec, mask):
        """The cop tuple of the first field holding every bit of mask
        (mask itself: vectors never hold more), or None."""
        want = mask.to_bytes(self.nb, "little")
        i = vec.find(want)
        while i >= 0 and i % self.nb:
            i = vec.find(want, i + 1)
        return None if i < 0 else self.decode(i // self.nb)

    def spread(self, masks):
        """The vector whose field (v_1, ..., v_k) is the OR of masks[v_i],
        built one cop at a time: the blocks of k - 1 cops, each ORed
        with the new top cop's mask repeated over the block."""
        nb = self.nb
        parts = [m.to_bytes(nb, "little") for m in masks]
        vec = b"".join(parts)
        for j in range(1, self.k):
            low = _as_int(vec)
            size, count = len(vec), self.n**j
            vec = b"".join(
                (low | _as_int(p * count)).to_bytes(size, "little")
                for p in parts
            )
        return vec

    def union(self, vec):
        """The cop-move union of a symmetric vec: field p of the result
        is the OR of vec over every cop tuple the team at p reaches in
        one move.  Each cop moves in turn while it is the top digit:
        output block v is the OR of input blocks w in N[v], then the
        tuples rotate so the next cop is on top.  The last move is not
        rotated back: the result is symmetric too, so each field still
        reads its own value (not so for k >= 2 on an asymmetric vec).

        The board's shape picks how blocks are read (module docstring):
        at k = 1 with a field of one item, all fields in one call and
        back in one; at k = 2 with a field of one item, cop 2's blocks
        as the columns of cop 1's moved blocks; else a rotated vector
        written by strided assignments and sliced again.  Items are in
        the host's byte order, which is safe: OR acts bit by bit, so it
        commutes with any reordering of a field's bytes."""
        n, k, nb, fmt = self.n, self.k, self.nb, self.fmt
        whole = fmt or nb == 1
        if k == 1 and whole:
            # a block is one field: one call reads them all, one writes them
            items = vec if nb == 1 else memoryview(vec).cast(fmt).tolist()
            moved = []
            for closed in self.closed:
                acc = 0
                for w in closed:
                    acc |= items[w]
                moved.append(acc)
            return bytes(moved) if nb == 1 else array(fmt, moved).tobytes()
        size, block = self.size, self.block
        blocks = [int.from_bytes(vec[i:i + block], "little") for i in range(0, size, block)]
        for cop in range(k):
            moved = []
            for closed in self.closed:
                acc = 0
                for w in closed:
                    acc |= blocks[w]
                moved.append(acc.to_bytes(block, "little"))
            if cop == k - 1:
                return b"".join(moved)
            if k == 2 and whole:
                # rotated block v is (v, w) for each w: column v of the moved (w, v)
                vec = b"".join(moved)
                items = memoryview(vec).cast(fmt) if fmt else vec
                blocks = [int.from_bytes(items[v::n], "little") for v in range(n)]
                continue
            vec = bytearray(size)
            # field (v, rest) goes to field (rest, v), whole fields where one item holds
            # them; at 1 byte the bytearray's own strided loop beats memoryview's copy
            out = memoryview(vec).cast(fmt) if fmt else vec
            for v, part in enumerate(moved):
                if whole:
                    out[v::n] = memoryview(part).cast(fmt) if fmt else part
                else:
                    for j in range(nb):
                        vec[v * nb + j::n * nb] = part[j::nb]
            blocks = [int.from_bytes(vec[i:i + block], "little") for i in range(0, size, block)]

    def robber_step(self, moves):
        """The robber step for robber moves given as (vertex, move mask)
        pairs, as a function: per field, the vertices all of whose moves
        lie in it.  Output lane o is the AND over input lanes b of lane b
        translated through tables[b][o]."""
        nb, fields = self.nb, self.fields
        tables = _step_tables(nb, tuple(moves))
        if nb == 1:
            table = tables[0][0]
            return lambda vec: vec.translate(table)

        def trapped(vec):
            lanes = [vec[b::nb] for b in range(nb)]
            out = bytearray(self.size)
            for o in range(nb):
                acc = -1
                for b, lane in enumerate(lanes):
                    acc &= _as_int(lane.translate(tables[b][o]))
                out[o::nb] = acc.to_bytes(fields, "little")
            return bytes(out)

        return trapped


@lru_cache(maxsize=None)
def _supersets(part):
    """256 bytes as an int: byte x is 1 when x holds every bit of part.
    Each bit of x doubles the table; a bit of part zeroes its lower half."""
    table = b"\x01"
    for i in range(8):
        table = (bytes(len(table)) if part >> i & 1 else table) + table
    return _as_int(table)


@lru_cache(maxsize=64)
def _step_tables(nb, moves):
    """Translate tables of the robber step for robber moves given as
    (vertex, move mask) pairs: tables[b][o][x] holds the lane-o
    vertices r whose moves in lane b (byte b of a field) lie inside the
    byte x.  Each is the sum, over those r, of the superset indicator of
    r's moves in lane b shifted to r's bit; the bits differ, so nothing
    carries.  One pass over the moves fills every table of a lane b.

    The cache pays in the preceq check: its four solves per graph (the
    fixpoint and the no-pass game, at k = 1 and 2) share one set of
    robber moves, so three of them hit it.  Elsewhere it seldom hits:
    the bounds leave a restricted search about one k to solve per
    arena, the standard cop-number search solves k = 1 on G and k >= 2
    on the core, and the teleport game builds no vectors."""
    sums = [[0] * nb for _ in range(nb)]  # sums[b][o]
    for b, row in enumerate(sums):
        for r, mv in moves:
            row[r >> 3] += _supersets(mv >> 8 * b & 0xFF) << (r & 7)
    return tuple(tuple(t.to_bytes(256, "little") for t in row) for row in sums)


class SolveResult:
    """Per-round attractor masks for one solved instance.  Immutable
    once returned; safe to share.  It answers every strategy query on
    demand, from the masks alone:

    * cops_win and best_position -- the verdict, and where the cops
      place to win soonest;
    * is_cop_win, level_of -- the label and capture level of a state;
    * placement_value -- the worst capture level over robber placements;
    * cop_move -- the cops' optimal reply;
    * robber_move, robber_placement -- the robber's optimal replies, by
      one rule (see _reply).

    rounds[L] is C_L, the mask vector of the robber vertices from which
    the cops to move win within L rounds; the last is the fixpoint.  A
    query reads the one field of its cop position, and raises KeyError
    when that position is not k vertices of g or a robber vertex is off
    the arena.  The robber side is read as a C query of the robber's
    move mask (see _level).
    """

    def __init__(self, g, cfg, board, arena_mask, rob_moves, rounds):
        self.g = g
        self.cfg = cfg
        self._board = board
        self.arena_vertices = bits(arena_mask)
        self._rob_moves = rob_moves  # arena vertex -> mask of destinations
        self._rounds = rounds
        self._full = arena_mask
        # the cops place where the whole arena is won soonest
        found = (board.first_full(cop, self._full) for cop in rounds)
        self.best_position = next((t for t in found if t is not None), None)
        self.cops_win = self.best_position is not None

    def _round(self, pos, mask):
        """The least round L whose C_L holds every robber vertex of mask
        at cop position pos, or None."""
        f = self._board.field(pos)
        read = self._board.read
        return next(
            (lv for lv, cop in enumerate(self._rounds) if read(cop, f) & mask == mask), None
        )

    def _moves(self, r):
        """The robber's move mask at r; KeyError off the arena."""
        if r not in self._rob_moves:
            raise KeyError("robber vertex %r is not in the arena" % (r,))
        return self._rob_moves[r]

    def _level(self, pos, r, turn):
        """The level of a state, or None when the robber wins it.  The
        robber to move at arena vertex r is beaten in round L when a cop
        stands on r, or when all his moves lie in C_L[pos]."""
        moves = self._moves(r)
        if turn == "cops":
            return self._round(pos, 1 << r)
        if turn != "robber":
            raise KeyError(turn)
        return self._round(pos, 0 if r in pos else moves)

    def is_cop_win(self, pos, r, turn):
        return self._level(pos, r, turn) is not None

    def level_of(self, pos, r, turn):
        """Optimal cop rounds to capture from a cop-winning state."""
        lv = self._level(pos, r, turn)
        if lv is None:
            raise KeyError("(%r, %r, %r) is not a cop-win state" % (pos, r, turn))
        return lv

    def cop_move(self, pos, r):
        """The cops' reply in a cops-to-move state they win in L >= 1
        rounds: the successor position whose robber-to-move state has
        the least level (L - 1, never less, by optimality), the first in
        sorted order on ties.  The successors of pos are built here, for
        pos alone."""
        lv = self.level_of(pos, r, "cops")
        if lv == 0:
            raise KeyError("(%r, %r) is already a capture" % (pos, r))
        succ = sorted({tuple(sorted(c)) for c in product(*(self._board.closed[v] for v in pos))})
        return next(t for t in succ if self._level(t, r, "robber") == lv - 1)

    def _reply(self, pos, options):
        """The robber's optimal choice in the mask options of arena
        vertices, the cops at pos to move next: the first he wins from,
        else the first of greatest capture level.  It serves placement
        and moves alike: a robber who wins a state to move has a move he
        wins from, and every move from a state the cops win is a cop win.
        C_L only grows, so with L the first round holding every option,
        the options of greatest level are those outside C_{L-1}; those he
        wins from are those outside the fixpoint."""
        lv = self._round(pos, options)
        if lv != 0:  # lv None: the fixpoint, the last round
            beaten = self._rounds[lv - 1 if lv else -1]
            options &= ~self._board.read(beaten, self._board.field(pos))
        return bits(options)[0]

    def robber_move(self, pos, r):
        """The robber's optimal reply in the robber-to-move state
        (pos, r), among his moves."""
        moves = self._moves(r)
        if not moves:
            raise ValueError("robber has no legal move from %r" % ((tuple(sorted(pos)), r),))
        return self._reply(pos, moves)

    def robber_placement(self, pos):
        """The robber's optimal initial vertex against cop placement pos."""
        return self._reply(pos, self._full)

    def placement_value(self, pos):
        """Max capture level over robber placements, or None if some
        placement is robber-win."""
        return self._round(pos, self._full)


def _sized_board(g, k, per_position, per_round, budget):
    """The board of k cops on g, sized by arithmetic against the budget
    before any vector is built: its states (per_position per multiset
    position), and the bytes of its first round (per_round mask
    vectors)."""
    states = math.comb(g.n + k - 1, k) * per_position
    if states > budget:
        raise StateBudgetError(states, budget)
    board = _Board(g, k)
    _keep(board.size * per_round, budget)
    return board


def _keep(kept, budget):
    """Refuse a solve whose kept rounds would exceed the budget in bytes."""
    if kept > budget:
        raise StateBudgetError(kept, budget, counted="bytes")


def _robber_moves(g, cfg):
    """The arena mask of cfg on g and each arena vertex's robber move
    mask: its arena neighbours, and itself when he may pass.  The one
    reader of a game's arena: a given arena is checked here, its mask
    returned by the check; the full arena is g's own adjacency."""
    arena, stay = cfg.robber_arena, cfg.robber_may_pass
    if arena is None:
        mask, adj = (1 << g.n) - 1, g.adj
    else:
        mask, adj = arena.validate_against(g), arena.adj
    return mask, {r: adj[r] | (1 << r if stay else 0) for r in bits(mask)}


def _chain(vec, step):
    """Yield vec, step(vec), ... up to the first vector equal to the one before."""
    yield vec
    while (nxt := step(vec)) != vec:
        yield nxt
        vec = nxt


def _attractor(g, cfg, budget):
    """The board of cfg's standard game on g, its arena mask, its robber
    moves and a generator of the vectors C_0, C_1, ... up to the
    fixpoint.  The board is sized before this returns; the round after
    C_L is charged L + 2 vectors (C_0 .. C_L and R_L) as it is computed."""
    if cfg.variant != "standard":
        raise ValueError("the byte engine plays the standard game, not %r" % cfg.variant)
    amask, rob_moves = _robber_moves(g, cfg)
    board = _sized_board(g, cfg.k, len(rob_moves) * 2, 2, budget)
    trapped = board.robber_step(rob_moves.items())
    # a robber on a cop is caught: the occupied arena vertices
    c0 = board.spread([(1 << v) & amask for v in range(g.n)])
    charged = count(2)

    def step(cop):
        kept = next(charged)
        _keep(board.size * kept, budget)  # and R_L in flight
        rob = trapped(cop)  # it holds the occupied C_0 from L = 1 on (docstring)
        if kept == 2:  # round 0
            rob = (_as_int(cop) | _as_int(rob)).to_bytes(board.size, "little")
        # holds C_L: the cops may stay, and R_L holds R_{L-1}, whose union is in C_L
        return board.union(rob)

    return board, amask, rob_moves, _chain(c0, step)


def cops_win(g, cfg, budget=DEFAULT_STATE_BUDGET):
    """Solve one instance of the standard game exactly, on any graph,
    connected or not; returns a SolveResult of every round.  wins
    answers the verdict alone; _teleport_wins decides the teleport game.

    Placement semantics: cops pick any position first; the robber, seeing
    it, picks his best arena vertex; play then alternates cops-first.
    So on a disconnected graph k cops win when they can split to win
    every component.
    """
    board, amask, rob_moves, rounds = _attractor(g, cfg, budget)
    return SolveResult(g, cfg, board, amask, rob_moves, list(rounds))


def wins(g, cfg, budget=DEFAULT_STATE_BUDGET):
    """Whether cfg.k cops win the standard game cfg on g: cops_win's
    verdict, read from the rounds as they come.  C_L only grows, so the
    first round with a field holding the whole arena decides True and
    the fixpoint decides False; no round is kept, and the rounds after
    the deciding one are neither computed nor charged to the budget."""
    board, full, _, rounds = _attractor(g, cfg, budget)
    return any(board.first_full(cop, full) is not None for cop in rounds)


def _teleport_wins(g, cfg):
    """Whether cfg.k teleporting cops win on g: the fixpoint of covers
    of the module docstring, W the robber vertices won so far."""
    full, rob_moves = _robber_moves(g, cfg)
    k = cfg.k
    won, last = 0, None
    while won != last:
        last = won
        for r, moves in rob_moves.items():
            if not won >> r & 1 and min_cover(g, moves & ~won, 1 << r, at_most=k)[0] <= k:
                won |= 1 << r
    return min_cover(g, full & ~won, at_most=k)[0] <= k


def cop_number(g, budget=DEFAULT_STATE_BUDGET, max_k=None):
    """Least k for which k cops win, searched between the bounds of
    the module docstring on the corner-free core; the k=1 verdict is
    cross-checked on G against dismantlability on small instances.  An
    answer above max_k raises CopwinError.

    For a disconnected graph the value is the sum over components, and
    max_k bounds that sum.
    """
    if not is_connected(g):
        total = sum(cop_number(c, budget=budget, max_k=max_k) for c in _components(g))
        if max_k is not None and total > max_k:
            raise CopwinError("cop number %d exceeds max_k=%d" % (total, max_k))
        return total
    return _least_winning_k(g, GameConfig(), budget, max_k)


def _lower_bound(g, template):
    """(LB, core) for the least winning k in the game template on g, by
    the rules in the module docstring.  core is the induced subgraph on
    graphs.core(g), on which LB is taken, in the one game that has it,
    and None in every other."""
    arena = template.robber_arena
    if template.variant != "standard" or arena is not None or not template.robber_may_pass:
        return 1, None
    keep = core(g)
    h = g if keep == (1 << g.n) - 1 else induced_subgraph(g, bits(keep))
    if h.n == 1:
        return 1, h
    delta = min(h.degrees())  # at least 2: a leaf is a corner
    return (delta if delta >= 3 and girth(h) >= 5 else 2), h


def _least_winning_k(g, template, budget=DEFAULT_STATE_BUDGET, max_k=None):
    """The one cop-count search: least k for which k cops win the game
    template (its k is ignored) on g, any graph; the standard full-arena
    search is reached per component.  Each k from LB up to max_k, or n,
    is first asked whether k closed neighbourhoods cover the arena, on
    the core if any: if so the answer is k, else k is solved (above the
    transversal solver's caps, always).  The decision at k (min_cover's
    at_most=k) branches over the at most s <= Delta + 1 vertices of one
    edge to depth k, so it visits at most sum_{d=0..k} s^d nodes, about
    s^k: no more than the n^k fields the solve at k would build.

    On at most DISMANTLABLE_CROSS_CHECK_MAX_N vertices, a game with a
    core also solves k=1 on g, which must win exactly when the core is
    K_1.  A StateBudgetError carries LB, or the k out of budget if
    larger."""
    lb, h = _lower_bound(g, template)
    top = max_k if max_k is not None else g.n

    def decide(k, on):
        if template.variant == "teleport":
            return _teleport_wins(on, replace(template, k=k))
        try:
            return wins(on, replace(template, k=k), budget)
        except StateBudgetError as e:
            raise StateBudgetError(
                e.estimated, e.budget, lower_bound=max(lb, k), counted=e.counted
            ) from None

    if h is None:
        h = g  # a game without a core
    elif g.n <= DISMANTLABLE_CROSS_CHECK_MAX_N and decide(1, g) != (h.n == 1):
        raise CopwinError("solver/dismantlability mismatch on %d-vertex graph" % g.n)
    amask = _robber_moves(h, template)[0]  # a given arena is checked here
    for k in range(lb, top + 1):
        try:  # a dismantlable G's one-vertex core needs no query
            size = 1 if h.n == 1 else min_cover(h, amask, at_most=k)[0]
        except ValueError:  # above the transversal solver's caps
            size = math.inf
        if size < lb:
            raise CopwinError("cover bound %d below lower bound %d" % (size, lb))
        if size <= k or decide(k, h):
            return k
    raise CopwinError("no winning cop count found up to k=%d" % top)


def _components(g):
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        mask = reachable_mask(g, v)
        seen |= mask
        comps.append(induced_subgraph(g, bits(mask)))
    return comps


def restricted_cop_number(g, arena, budget=DEFAULT_STATE_BUDGET):
    """c_G(H): cops needed against a robber confined to the arena."""
    if not isinstance(arena, Arena):
        arena = Arena.induced(g, arena)
    return _least_winning_k(g, GameConfig(robber_arena=arena), budget)


C_G_OF_M_MAX_N = 8


def c_G_of_m(g, m, budget=DEFAULT_STATE_BUDGET):
    """c_G(m) = max of c_G(H) over induced sub-arenas on m vertices.

    Induced arenas suffice: removing robber edges only constrains the
    robber, so the maximum is attained at the edge-maximal (induced)
    sub-arena.  An automorphism maps the game on an arena onto the game
    on its image, so one arena per Aut(G)-orbit of m-sets is solved.
    """
    if g.n > C_G_OF_M_MAX_N:
        raise ValueError("c_G_of_m capped at n <= %d (C(n,m) solves)" % C_G_OF_M_MAX_N)
    if not 1 <= m <= g.n:
        raise ValueError("m must be in 1..n")
    images = [[1 << v for v in perm] for perm in _order_and_neighbors(g)[2]]
    best, seen = 0, set()
    for mask in map(sum, combinations([1 << v for v in range(g.n)], m)):
        if mask not in seen:
            seen |= _orbit(mask, images)
            best = max(best, restricted_cop_number(g, bits(mask), budget=budget))
    return best


def teleport_cop_number(g):
    """c_T(G): least number of teleporting cops that win.  Above the
    transversal solver's caps (see traps.min_cover) it raises ValueError.

    Teleporting cops jump between components, so for a disconnected
    graph c_T is searched on the whole graph: LB 1 and the domination
    number bound it there too."""
    return _least_winning_k(g, GameConfig(variant="teleport"))


def _preceq_levels(g, k, budget):
    """The board and the chain rel_0, rel_1, ... of the module docstring's
    lemma, for k cops; each rel_i holds the levels before it."""
    rob_moves = _robber_moves(g, GameConfig(k=k, robber_may_pass=False))[1]
    board = _sized_board(g, k, g.n, 1, budget)
    trapped = board.robber_step(rob_moves.items())
    occupancy = board.spread([1 << v for v in range(g.n)])
    return board, _chain(occupancy, lambda rel: trapped(board.union(rel)))


def preceq(g, k, i, budget=DEFAULT_STATE_BUDGET):
    """The relation between robber vertices and cop positions at level i
    (rel_0 for i <= 0, the stabilized relation if i exceeds the
    fixpoint index)."""
    board, levels = _preceq_levels(g, k, budget)
    for level, rel in enumerate(levels):
        if level >= i:
            break
    return {
        (x, t)
        for t in combinations_with_replacement(range(g.n), k)
        for x in bits(board.read(rel, board.field(t)))
    }


def preceq_fixpoint_wins(g, k, budget=DEFAULT_STATE_BUDGET):
    """True iff some position relates to every robber vertex in the
    stabilized relation: wins with a no-pass robber, by the module
    docstring's lemma.  The chain grows, so the first full field decides."""
    board, levels = _preceq_levels(g, k, budget)
    full = (1 << g.n) - 1
    return any(board.first_full(rel, full) is not None for rel in levels)
