"""Exception types shared across the package."""


class CopwinError(Exception):
    """Base class for all package-specific errors."""


class Graph6Error(CopwinError, ValueError):
    """Malformed graph6 input; carries the byte offset of the bad byte."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class UnsupportedParameterError(CopwinError, ValueError):
    """Graph family parameter outside the supported range."""


class StateBudgetError(CopwinError, RuntimeError):
    """Solve aborted because its size exceeds the configured budget.

    ``counted`` names what exceeded it: "states", or the "bytes" of the
    rounds the solve keeps, at n^k * ceil(n/8) bytes per mask vector.
    A game's first round counts two vectors (C_0 and the R_0 built from
    it), and each further round it keeps one more; the preceq chain
    counts one vector and keeps no levels.  ``estimated`` is that count:
    for the first round it is known by arithmetic before anything is
    built.

    ``lower_bound`` is set by the cop-number search: a certified lower
    bound on the cop number, the larger of the search's LB and the k
    whose solve ran out of budget (every smaller k was solved and lost,
    or is excluded by LB).  In the standard game LB and the solves may
    be on the corner-free core; the bound still holds for G, since
    c(G) = c(core).  Direct cops_win calls leave it None.
    """

    def __init__(self, estimated, budget, lower_bound=None, counted="states"):
        super().__init__(
            "state space too large: %d %s exceeds budget of %d"
            % (estimated, counted, budget)
        )
        self.estimated = estimated
        self.budget = budget
        self.lower_bound = lower_bound
        self.counted = counted
