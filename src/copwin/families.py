"""Deterministic generators for the graph families used throughout:
cycles, paths, complete graphs, the diameter-2 Moore graphs (C_5 via
cycle, Petersen, Hoffman-Singleton), polarity graphs ER_q, and the
point-line incidence graphs of the projective planes PG(2, q).

``FAMILIES`` is the table of them: each name maps to its constructor
and the kind of its parameter, which ``generate`` and the CLI read.

Finite-geometry generators accept prime q <= 13 only; prime-power
fields are deliberately out of scope.
"""

from __future__ import annotations

from itertools import combinations

from .errors import UnsupportedParameterError
from .graphs import Graph

MAX_PRIME = 13


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def cycle(n):
    if n < 3:
        raise UnsupportedParameterError("cycle needs n >= 3, got %d" % n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    if n < 1:
        raise UnsupportedParameterError("path needs n >= 1, got %d" % n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    if n < 1:
        raise UnsupportedParameterError("complete needs n >= 1, got %d" % n)
    return Graph(n, list(combinations(range(n), 2)))


def petersen():
    """Petersen graph as the Kneser graph K(5,2): vertices are the 2-subsets
    of {0..4} in lexicographic order, adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    return Graph(10, edges)


def hoffman_singleton():
    """Hoffman-Singleton graph via five pentagons P_h and five pentagrams
    Q_h, with p(h,i) ~ q(k, h*k + i mod 5)."""

    def p(h, i):
        return 5 * h + i

    def q(k, j):
        return 25 + 5 * k + j

    edges = []
    for h in range(5):
        for i in range(5):
            edges.append((p(h, i), p(h, (i + 1) % 5)))
            edges.append((q(h, i), q(h, (i + 2) % 5)))
    for h in range(5):
        for k in range(5):
            for i in range(5):
                edges.append((p(h, i), q(k, (h * k + i) % 5)))
    return Graph(50, set(tuple(sorted(e)) for e in edges))


def projective_points(q):
    """Normalized homogeneous coordinates of the points of PG(2, q):
    (1,a,b), then (0,1,a), then (0,0,1).  Count q^2 + q + 1."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, a) for a in range(q)]
    pts.append((0, 0, 1))
    return pts


def _orthogonal_pairs(q):
    """The number N of points of PG(2, q), and every ordered pair (i, j)
    of point indices, i = j included, whose coordinate vectors have dot
    product 0 mod q; one relation gives both graphs below."""
    # the cap first: trial division on a huge q would run for minutes
    if q > MAX_PRIME:
        raise UnsupportedParameterError(
            "q=%d exceeds supported maximum %d" % (q, MAX_PRIME)
        )
    if not _is_prime(q):
        raise UnsupportedParameterError("q=%d is not prime" % q)
    pts = projective_points(q)
    return len(pts), [
        (i, j)
        for i, x in enumerate(pts)
        for j, y in enumerate(pts)
        if sum(a * b for a, b in zip(x, y)) % q == 0
    ]


def polarity(q):
    """Erdos-Renyi polarity graph ER_q: points of PG(2, q), with x ~ y iff
    x . y = 0 (mod q) and x != y."""
    n, pairs = _orthogonal_pairs(q)
    return Graph(n, [(i, j) for i, j in pairs if i < j])


def incidence(q):
    """Point-line incidence graph of PG(2, q): bipartite on points
    (labels 0..N-1) and lines (labels N..2N-1), point ~ line iff the dot
    product of their coordinate vectors vanishes mod q."""
    n, pairs = _orthogonal_pairs(q)
    return Graph(2 * n, [(i, n + j) for i, j in pairs])


# name -> (constructor, parameter kind): "order" is the vertex count,
# "prime" a prime q <= MAX_PRIME, None takes no parameter
FAMILIES = {
    "cycle": (cycle, "order"),
    "path": (path, "order"),
    "complete": (complete, "order"),
    "petersen": (petersen, None),
    "hoffman_singleton": (hoffman_singleton, None),
    "polarity": (polarity, "prime"),
    "incidence": (incidence, "prime"),
}


def generate(family, parameter=None):
    """Build the graph of the FAMILIES entry named family."""
    if family not in FAMILIES:
        raise UnsupportedParameterError("unknown family %r" % family)
    build, kind = FAMILIES[family]
    if kind is None:
        if parameter is not None:
            raise UnsupportedParameterError("%s takes no parameter" % family)
        return build()
    if parameter is None:
        raise UnsupportedParameterError("%s requires a parameter" % family)
    return build(parameter)
