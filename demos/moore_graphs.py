"""The three diameter-2 Moore graphs sit exactly on the sqrt(n-1) line:
their cop numbers and per-vertex trap thresholds all equal the degree.
This script computes everything from scratch with the exact solver and
the bounds that bracket its search.

Run:  python3 demos/moore_graphs.py
"""

import math
import sys
import time

from copwin import cop_number, teleport_cop_number
from copwin.families import cycle, hoffman_singleton, petersen
from copwin.graphs import diameter, girth
from copwin.traps import trap_report


def describe(name, g):
    print("== %s ==" % name)
    print("n=%d  degree=%s  girth=%s  diameter=%s"
          % (g.n, set(g.degrees()), girth(g), diameter(g)))

    t0 = time.perf_counter()
    c = cop_number(g)
    ct = teleport_cop_number(g)
    print("c(G)=%d  c_T(G)=%d" % (c, ct))
    print("%s: %.2fs" % (name, time.perf_counter() - t0), file=sys.stderr)
    print("sqrt(n-1) = %d, so the cop number meets the Moore bound exactly"
          % math.isqrt(g.n - 1))

    # trap thresholds: how many cops it takes to control one vertex's
    # neighbourhood from outside
    thresholds, count = trap_report(g)
    print("trap thresholds: %s" % sorted(set(thresholds)))
    print("floor(sqrt(n))-traps: %d of %d vertices" % (count, g.n))
    print()


describe("5-cycle", cycle(5))
describe("Petersen graph", petersen())

# The Hoffman-Singleton graph needs no solve: girth 5 and degree 7 give
# c >= 7 (Aigner-Fromme), and 7 cops dominate it.  c_T is decided by
# covers alone: no vertex but r controls two of r's neighbours, so
# fewer than 7 teleporting cops never win.
describe("Hoffman-Singleton graph", hoffman_singleton())
