"""Command-line surface: solving graph6 corpora, theorem/conjecture
scans, family generation, trap reports, the key-inequality check, and
strategy simulation.

Report format: one record per graph as "key=value" pairs in a stable
order; --json switches to one JSON object per line (simulate's traces
are text, so it has no --json).  Reports are byte-identical across runs
for identical inputs and flags (timings are only emitted under --timing).

Exit codes: 0 success or report-only findings, 1 theorem-check
violation, 2 usage error or bad input, 3 resource exhaustion.  Every
command that reads graphs (solve, scan, trap, simulate) decides its code
by one rule: a line that fails to parse is reported in stream order and
exits 2, as does a solve record with status=error; an unresolved
(budget-capped) record exits 3; a theorem violation exits 1; and 1 wins
over 3, which wins over 2.  A reader that closes stdout early ends the
run quietly, with the code of the records already written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter

from .enumeration import connected_graph_classes
from .errors import CopwinError, Graph6Error, StateBudgetError
from .families import FAMILIES, generate
from .graph6 import DEFAULT_MAX_N, emit_graph6, read_graph6_lines
from .graphs import diameter, is_bipartite, is_connected
from .solver import (
    DEFAULT_STATE_BUDGET,
    GameConfig,
    cop_number,
    preceq_fixpoint_wins,
    teleport_cop_number,
    wins,
)
from .strategy import (
    build_theorem1_plan,
    format_trace,
    simulate,
    theorem1_applies,
    verify_key_inequality,
)
from .traps import check_lemma4, check_lemma5, trap_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

SCAN_MAX_N = 9

ALL_CHECKS = ("theorem1", "conj_sqrt_n", "conj_teleport", "preceq_equiv", "lemma4", "lemma5")


def _kv(record):
    return " ".join("%s=%s" % kv for kv in record.items())


def _emit(out, record, as_json):
    out.write((json.dumps(record) if as_json else _kv(record)) + "\n")


def _summary(out, check, counts, as_json):
    if as_json:
        _emit(out, {"summary": check, **counts}, True)
    else:
        out.write("# summary check=%s %s\n" % (check, _kv(counts)))


def _fmt_diameter(d):
    return "inf" if d == math.inf else d


def _graphs(args, out, found):
    """The graphs a stream command reads: the --input file, or the
    connected classes up to --nmax (default 6, in 1..SCAN_MAX_N).  The
    flags are checked and the file is opened here, before the command
    writes anything; --nmax and --input cannot be used together.

    A line that fails to parse is emitted as a parse_error record in
    stream order, adds EXIT_USAGE to found, and the stream goes on."""
    if args.nmax is not None:
        if args.input:
            raise ValueError("--nmax cannot be used with --input")
        if not 1 <= args.nmax <= SCAN_MAX_N:
            raise ValueError("--nmax %d out of range for this command (1..%d)"
                             % (args.nmax, SCAN_MAX_N))
    if args.input:
        # a byte that is not UTF-8 becomes a lone surrogate, so its line
        # fails to parse and the stream goes on; simulate has no --json
        return _read_input(open(args.input, encoding="utf-8", errors="surrogateescape"),
                           getattr(args, "json", False), out, found)
    nmax = 6 if args.nmax is None else args.nmax
    return (g for n in range(1, nmax + 1) for g in connected_graph_classes(n))


def _read_input(fh, as_json, out, found):
    """Yield the graphs of an open graph6 file, then close it; each bad
    line becomes a parse_error record."""
    with fh:
        for lineno, g in read_graph6_lines(fh):
            if isinstance(g, Graph6Error):
                _emit(out, {"line": lineno, "status": "parse_error", "error": str(g)}, as_json)
                found.add(EXIT_USAGE)
            else:
                yield g


def _check_at_least(flag, value, least):
    """A usage error, raised before anything is written, when an integer
    flag that was given is below its least value."""
    if value is not None and value < least:
        raise ValueError("%s must be at least %d, got %d" % (flag, least, value))


def _exit_code(found):
    """The exit code of a run whose records added these codes to found:
    a violation wins over resource exhaustion, which wins over bad input."""
    for code in (EXIT_VIOLATION, EXIT_RESOURCE, EXIT_USAGE):
        if code in found:
            return code
    return EXIT_OK


def cmd_solve(args, out, found):
    _check_at_least("--budget", args.budget, 1)
    _check_at_least("--max-k", args.max_k, 1)
    for g in _graphs(args, out, found):
        rec = {"graph": emit_graph6(g), "n": g.n}
        t0 = time.perf_counter()
        try:
            if not args.allow_disconnected and not is_connected(g):
                raise CopwinError("cop number of a disconnected graph needs --allow-disconnected")
            rec["c"] = cop_number(g, budget=args.budget, max_k=args.max_k)
            if args.variant == "teleport":
                rec["c_T"] = teleport_cop_number(g)
            rec["status"] = "ok"
        except StateBudgetError as e:
            rec["status"] = "unresolved"
            found.add(EXIT_RESOURCE)  # budget-capped solves are failures, not skips
            if e.lower_bound is not None:
                rec["c_lower_bound"] = e.lower_bound
        except CopwinError as e:
            rec["status"] = "error"
            rec["error"] = str(e)
            found.add(EXIT_USAGE)
        if args.timing:
            rec["time"] = "%.3f" % (time.perf_counter() - t0)
        _emit(out, rec, args.json)


def _scan_one(check, g, budget):
    """Return (record-fields, verdict) for one graph, or None for a graph
    outside the check's hypothesis: theorem 1's for theorem1, diameter
    <= 2 for the two conjectures.  verdict is one of pass, fail, report,
    candidate (conjecture counterexample)."""
    if check == "theorem1" and not theorem1_applies(g):
        return None
    n = g.n
    d = diameter(g)
    if check in ("conj_sqrt_n", "conj_teleport") and d > 2:
        return None
    rec = {
        "graph": emit_graph6(g),
        "n": n,
        "diameter": _fmt_diameter(d),
        "bipartite": str(is_bipartite(g)).lower(),
    }
    if check == "theorem1":
        bound = math.isqrt(2 * n)
        c = cop_number(g, budget=budget)
        rec.update({"c": c, "bound": bound})
        return rec, "pass" if c <= bound else "fail"
    if check == "lemma4":
        bound = math.isqrt(n)
        rec["bound"] = bound
        return rec, "pass" if check_lemma4(g) else "fail"
    if check == "lemma5":
        okay, worst = check_lemma5(n, trap_report(g)[0])
        rec["min_margin"] = worst
        return rec, "pass" if okay else "fail"
    if check == "conj_sqrt_n":
        bound = math.isqrt(n)
        c = cop_number(g, budget=budget)
        rec.update({"c": c, "bound": bound})
        return rec, "report" if c <= bound else "candidate"
    if check == "conj_teleport":
        c = cop_number(g, budget=budget)
        ct = teleport_cop_number(g)
        bound = math.isqrt(n)
        rec.update({"c": c, "c_T": ct, "bound": bound})
        if ct > bound or ct > c:
            return rec, "fail"  # asserted halves: c_T <= floor(sqrt n), c_T <= c
        return rec, "report" if c == ct else "candidate"
    if check == "preceq_equiv":
        for k in (1, 2):
            fix = preceq_fixpoint_wins(g, k, budget=budget)
            game = wins(g, GameConfig(k=k, robber_may_pass=False), budget=budget)
            if fix != game:
                rec["k"] = k
                return rec, "fail"
        return rec, "pass"
    raise ValueError("unknown check %r" % check)


def cmd_scan(args, out, found):
    _check_at_least("--budget", args.budget, 1)
    check = args.check
    graphs = _graphs(args, out, found)
    header = {"check": check, "seed": args.seed}
    if args.nmax is not None:
        header["nmax"] = args.nmax
    if args.input:
        header["input"] = os.path.basename(args.input)  # not its path: same file, same bytes
    if not args.json:
        out.write("# " + _kv(header) + "\n")
    verdicts = Counter()
    for g in graphs:
        try:
            scanned = _scan_one(check, g, args.budget)
        except StateBudgetError:
            scanned = {"graph": emit_graph6(g), "n": g.n}, "unresolved"
        if scanned is None:
            continue
        rec, verdict = scanned
        rec["verdict"] = verdict
        verdicts[verdict] += 1
        if args.all or verdict not in ("pass", "report"):
            _emit(out, rec, args.json)
        if verdict == "fail":
            found.add(EXIT_VIOLATION)
        elif verdict == "unresolved":
            found.add(EXIT_RESOURCE)  # budget-capped solves are failures, not skips
    _summary(out, check, {
        "checked": sum(verdicts.values()),
        "violations": verdicts["fail"],
        "candidates": verdicts["candidate"],
        "unresolved": verdicts["unresolved"],
    }, args.json)


def cmd_gen(args, out, found):
    # a family whose parameter is the order: check the cap before the
    # O(n^2)-bit rows are built
    if FAMILIES[args.family][1] == "order" and (args.param or 0) > DEFAULT_MAX_N:
        raise ValueError("graph order %d exceeds cap %d" % (args.param, DEFAULT_MAX_N))
    g = generate(args.family, args.param)
    out.write(emit_graph6(g) + "\n")  # under the cap every reader applies


def cmd_trap(args, out, found):
    if args.alpha is not None and not 0 <= args.alpha < math.inf:
        raise ValueError("--alpha must be finite and nonnegative, got %r" % args.alpha)
    for g in _graphs(args, out, found):
        alpha = args.alpha if args.alpha is not None else float(math.isqrt(g.n))
        thresholds, count = trap_report(g, alpha)
        rec = {
            "graph": emit_graph6(g),
            "n": g.n,
            "alpha": alpha,
            "thresholds": ",".join(str(t) for t in thresholds),
            "alpha_traps": count,
        }
        _emit(out, rec, args.json)


def cmd_ineq(args, out, found):
    bad = verify_key_inequality(args.mmax)
    for m in bad:
        _emit(out, {"m": m, "verdict": "fail"}, args.json)
        found.add(EXIT_VIOLATION)
    _summary(out, "ineq", {"mmax": args.mmax, "violations": len(bad)}, args.json)


def cmd_simulate(args, out, found):
    _check_at_least("--max-rounds", args.max_rounds, 0)
    for g in _graphs(args, out, found):
        if not theorem1_applies(g):
            continue  # the plan exists only under theorem 1's hypothesis
        plan = build_theorem1_plan(g)
        trace = simulate(g, plan, robber_policy=args.robber,
                         max_rounds=args.max_rounds)
        out.write("graph %s cops=%d\n" % (emit_graph6(g), plan.total_cops))
        out.write(format_trace(trace))


def build_parser():
    p = argparse.ArgumentParser(
        prog="copwin",
        description="Exact Cops-and-Robbers solving and scanning on small graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", help="graph6 file, one graph per line")
        sp.add_argument("--nmax", type=int,
                        help="built-in enumeration bound (connected graphs)")

    sp = sub.add_parser("solve", help="cop numbers for a graph6 stream")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                    help="budget per solve of c on states and bytes kept")
    sp.add_argument("--timing", action="store_true")
    sp.add_argument("--allow-disconnected", action="store_true")
    sp.add_argument("--variant", choices=("standard", "teleport"),
                    default="standard",
                    help="teleport additionally reports c_T")
    sp.add_argument("--max-k", type=int, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("scan", help="theorem and conjecture scans")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--budget", type=int, default=DEFAULT_STATE_BUDGET,
                    help="budget per solve on states and bytes kept")
    sp.add_argument("--seed", type=int, default=0, help="echoed in the header")
    sp.add_argument("--check", required=True, choices=ALL_CHECKS)
    sp.add_argument("--all", action="store_true",
                    help="emit passing records too, not just findings")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("gen", help="emit a generated family graph")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--param", type=int, default=None)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("trap", help="per-vertex trap thresholds")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_trap)

    sp = sub.add_parser("ineq", help="key floor-inequality check")
    sp.add_argument("--mmax", type=int, default=1_000_000)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_ineq)

    sp = sub.add_parser("simulate", help="run the constructive strategy")
    common(sp)
    sp.add_argument("--robber", choices=("optimal", "greedy"), default="optimal")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    found = set()
    try:
        args.func(args, out, found)
        out.flush()
    except BrokenPipeError:
        # the reader has all it wants; the flush at interpreter exit
        # would fail again, so stdout goes to the null device
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    except (CopwinError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    return _exit_code(found)


if __name__ == "__main__":
    sys.exit(main())
