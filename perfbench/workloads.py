"""The three workloads: seeded set-up, the timed steps, and the checks.

Each workload is a class with
  ``setup(work_dir, rng)``  -- family construction and seeded input files;
  ``steps()``               -- (name, callable) pairs run in the timed pass;
  ``check(outputs, tally)`` -- checks every answer and counts operations.

Steps reach copwin through module attributes at call time, so a tracer
installed after set-up sees every call.  Inputs are built and answers
checked with ``refgraph``, which shares no code with copwin.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import Counter

import copwin
import copwin.cli
import copwin.families

import refgraph as R

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "data", "connected_le8.g6")
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

# OEIS A001349: connected graphs on n = 1..8 vertices, up to isomorphism
CONNECTED_CLASSES = (1, 1, 2, 6, 21, 112, 853, 11117)


class Tally:
    """Operation counts plus everything that went wrong, by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # answers that disagree with their reference
        self.errors = []  # exceptions and unexpected exit codes
        self.unresolved = []  # status=unresolved: no answer, not a wrong one
        self.aggregates = {}

    def op(self, ok, kind=None, what=""):
        """Count one operation; kind is None, 'wrong', 'error' or 'unresolved'."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        bucket = {"wrong": self.wrong, "error": self.errors, "unresolved": self.unresolved}[kind]
        bucket.append(what)

    def reference(self, key, got):
        """Compare an isomorphism-invariant aggregate with reference.json."""
        want = REFERENCE[key]
        self.aggregates[key] = got
        if got != want:
            self.wrong.append("aggregate %s: got %r, want %r" % (key, got, want))


def load_corpus():
    with open(CORPUS) as fh:
        return [R.g6_decode(line) for line in fh if line.strip()]


def shuffled_relabelled(graphs, rng):
    out = []
    for n, adj in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((n, R.relabel(n, adj, perm)))
    rng.shuffle(out)
    return out


def write_g6(path, graphs):
    with open(path, "w") as fh:
        fh.write("".join(R.g6_encode(n, adj) + "\n" for n, adj in graphs))


def run_cli(argv):
    out = io.StringIO()
    code = copwin.cli.main(argv, out=out)
    return code, out.getvalue()


def parse_records(text):
    """key=value records of the CLI's text report; '#' lines skipped."""
    recs = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            recs.append(dict(kv.split("=", 1) for kv in line.split()))
    return recs


def summary_of(text):
    for line in text.splitlines():
        if line.startswith("# summary "):
            return dict(kv.split("=", 1) for kv in line[len("# summary "):].split())
    return None


def check_scan(tally, name, result, want_checked, per_record):
    """Check a `copwin scan --all` report: exit 0, the summary, and each
    record via per_record(i, rec) -> error text or None."""
    if isinstance(result, BaseException):
        for _ in range(want_checked):
            tally.op(False, "error", "%s raised %r" % (name, result))
        return []
    code, text = result
    recs = parse_records(text)
    summ = summary_of(text) or {}
    want_summary = {"checked": str(want_checked), "violations": "0", "unresolved": "0"}
    for key, value in want_summary.items():
        if summ.get(key) != value:
            tally.wrong.append("%s summary %s=%r, want %s" % (name, key, summ.get(key), value))
    if code != 0:
        tally.errors.append("%s exit code %r" % (name, code))
    for i, rec in enumerate(recs[:want_checked]):
        problem = per_record(i, rec)
        if problem is None:
            tally.op(True)
        else:
            kind = "unresolved" if rec.get("verdict") == "unresolved" else "wrong"
            tally.op(False, kind, "%s %s: %s" % (name, rec.get("graph"), problem))
    for _ in range(want_checked - len(recs)):
        tally.op(False, "error", "%s: record missing" % name)
    if len(recs) > want_checked:
        tally.wrong.append("%s: %d records, want %d" % (name, len(recs), want_checked))
    return recs


def _expect(cond, text):
    return None if cond else text


class Census8:
    """Enumeration and the transversal branch-and-bound on every
    connected graph class with n <= 8, relabelled and shuffled."""

    def setup(self, work_dir, rng):
        self.graphs = shuffled_relabelled(load_corpus(), rng)
        self.path = os.path.join(work_dir, "census8.g6")
        write_g6(self.path, self.graphs)

    def steps(self):
        return [
            ("enumerate", lambda: [copwin.connected_graph_classes(n) for n in range(1, 9)]),
            ("lemma4", lambda: run_cli(["scan", "--check", "lemma4", "--all", "--input", self.path])),
            ("lemma5", lambda: run_cli(["scan", "--check", "lemma5", "--all", "--input", self.path])),
            ("trap", lambda: run_cli(["trap", "--input", self.path])),
        ]

    def check(self, out, tally):
        classes = out["enumerate"]
        for n, want in enumerate(CONNECTED_CLASSES, 1):
            if isinstance(classes, BaseException):
                tally.op(False, "error", "enumeration raised %r" % classes)
                continue
            got = classes[n - 1]
            ok = len(got) == want and all(
                g.n == n and R.is_connected(n, list(g.adj)) for g in got
            )
            tally.op(ok, "wrong", "n=%d: %d connected classes, want %d" % (n, len(got), want))

        lines = [R.g6_encode(n, adj) for n, adj in self.graphs]
        count = len(lines)
        truth = [
            [R.trap_threshold(n, adj, v) for v in range(n)] for n, adj in self.graphs
        ]

        def margin(n, th):
            lo = math.isqrt(n)
            lo += lo * lo < n
            return min(sum(t <= a for t in th) - (a - 1) for a in range(lo, n + 1))

        def lemma4_rec(i, rec):
            n = self.graphs[i][0]
            return (
                _expect(rec.get("graph") == lines[i], "record out of order")
                or _expect(rec.get("verdict") == "pass", "verdict %s" % rec.get("verdict"))
                or _expect(min(truth[i]) <= math.isqrt(n), "no sqrt(n)-trap, yet passed")
            )

        check_scan(tally, "lemma4", out["lemma4"], count, lemma4_rec)

        def lemma5_rec(i, rec):
            n = self.graphs[i][0]
            return (
                _expect(rec.get("graph") == lines[i], "record out of order")
                or _expect(rec.get("verdict") == "pass", "verdict %s" % rec.get("verdict"))
                or _expect(rec.get("min_margin") == str(margin(n, truth[i])),
                           "min_margin %s, want %d" % (rec.get("min_margin"), margin(n, truth[i])))
            )

        check_scan(tally, "lemma5", out["lemma5"], count, lemma5_rec)

        result = out["trap"]
        hist = Counter()
        traps = 0
        if isinstance(result, BaseException):
            for _ in range(count):
                tally.op(False, "error", "trap raised %r" % result)
        else:
            code, text = result
            if code != 0:
                tally.errors.append("trap exit code %r" % code)
            recs = parse_records(text)
            for i, (n, _) in enumerate(self.graphs):
                if i >= len(recs):
                    tally.op(False, "error", "trap: record missing")
                    continue
                rec = recs[i]
                got = [int(t) for t in rec.get("thresholds", "").split(",") if t]
                hist.update(got)
                traps += int(rec.get("alpha_traps", -1))
                want_traps = sum(t <= math.isqrt(n) for t in truth[i])
                ok = (
                    rec.get("graph") == lines[i]
                    and got == truth[i]
                    and rec.get("alpha_traps") == str(want_traps)
                )
                tally.op(ok, "wrong", "trap %s: %s" % (lines[i], rec))
            if len(recs) > count:
                tally.wrong.append("trap: %d records, want %d" % (len(recs), count))
        tally.reference("census8.threshold_histogram", {str(k): v for k, v in sorted(hist.items())})
        tally.reference("census8.alpha_traps_total", traps)


class ScanSmall:
    """Thousands of tiny solves through the CLI, where per-call fixed
    costs dominate."""

    RANDOM_GRAPHS = 300
    RANDOM_N = 9
    RANDOM_P = 0.4
    ARENA_SAMPLE = 40
    ARENA_M = 4

    def setup(self, work_dir, rng):
        corpus = load_corpus()
        self.random = [
            (self.RANDOM_N, R.random_connected(rng, self.RANDOM_N, self.RANDOM_P))
            for _ in range(self.RANDOM_GRAPHS)
        ]
        self.random_path = os.path.join(work_dir, "random9.g6")
        write_g6(self.random_path, self.random)
        eligible = [(n, adj) for n, adj in corpus if n <= 7 and R.theorem1_eligible(n, adj)]
        self.eligible = shuffled_relabelled(eligible, rng)
        self.eligible_path = os.path.join(work_dir, "theorem1_le7.g6")
        write_g6(self.eligible_path, self.eligible)
        sample = rng.sample([(n, adj) for n, adj in corpus if n == 7], self.ARENA_SAMPLE)
        self.arena_graphs = shuffled_relabelled(sample, rng)
        self.arena_inputs = [
            copwin.Graph(n, R.edges(n, adj)) for n, adj in self.arena_graphs
        ]

    def steps(self):
        scan = lambda check: run_cli(["scan", "--check", check, "--all", "--nmax", "7"])
        return [
            ("theorem1", lambda: scan("theorem1")),
            ("conj_teleport", lambda: scan("conj_teleport")),
            ("preceq_equiv", lambda: scan("preceq_equiv")),
            ("solve_teleport", lambda: run_cli(
                ["solve", "--variant", "teleport", "--input", self.random_path])),
            ("simulate", lambda: run_cli(
                ["simulate", "--robber", "optimal", "--input", self.eligible_path])),
            ("c_G_of_m", lambda: [copwin.c_G_of_m(g, self.ARENA_M) for g in self.arena_inputs]),
        ]

    def check(self, out, tally):
        c_hist = Counter()

        def theorem1_rec(i, rec):
            n, adj = R.g6_decode(rec["graph"])
            c = R.small_cop_number(n, adj)
            c_hist[rec.get("c")] += 1
            return (
                _expect(rec.get("verdict") == "pass", "verdict %s" % rec.get("verdict"))
                or _expect(R.theorem1_eligible(n, adj), "not theorem-1 eligible")
                or _expect(rec.get("c") == str(c), "c=%s, want %d" % (rec.get("c"), c))
            )

        check_scan(tally, "theorem1", out["theorem1"], REFERENCE["scan.theorem1.checked"], theorem1_rec)
        tally.reference("scan_small.theorem1.c_histogram", dict(sorted(c_hist.items())))

        ct_hist = Counter()

        def teleport_rec(i, rec):
            n, adj = R.g6_decode(rec["graph"])
            c = R.small_cop_number(n, adj)
            ct_hist["c=%s,c_T=%s" % (rec.get("c"), rec.get("c_T"))] += 1
            return (
                _expect(rec.get("verdict") in ("report", "candidate"), "verdict %s" % rec.get("verdict"))
                or _expect(rec.get("c") == str(c), "c=%s, want %d" % (rec.get("c"), c))
                or _expect(rec.get("c_T", "0").isdigit() and 1 <= int(rec["c_T"]) <= c,
                           "c_T=%s outside 1..c" % rec.get("c_T"))
            )

        check_scan(tally, "conj_teleport", out["conj_teleport"],
                   REFERENCE["scan.conj_teleport.checked"], teleport_rec)
        tally.reference("scan_small.conj_teleport.c_c_T_histogram", dict(sorted(ct_hist.items())))

        check_scan(tally, "preceq_equiv", out["preceq_equiv"], REFERENCE["scan.preceq_equiv.checked"],
                   lambda i, rec: _expect(rec.get("verdict") == "pass", "verdict %s" % rec.get("verdict")))

        self._check_random(out["solve_teleport"], tally)
        self._check_simulate(out["simulate"], tally)

        result = out["c_G_of_m"]
        for i, (n, adj) in enumerate(self.arena_graphs):
            if isinstance(result, BaseException):
                tally.op(False, "error", "c_G_of_m raised %r" % result)
                continue
            c = R.small_cop_number(n, adj)
            tally.op(1 <= result[i] <= c, "wrong",
                     "c_G(%d)=%s > c=%d on %s" % (self.ARENA_M, result[i], c, R.g6_encode(n, adj)))

    def _check_random(self, result, tally):
        if isinstance(result, BaseException):
            for _ in self.random:
                tally.op(False, "error", "solve raised %r" % result)
            return
        code, text = result
        if code != 0:
            tally.errors.append("solve exit code %r" % code)
        recs = parse_records(text)
        for i, (n, adj) in enumerate(self.random):
            if i >= len(recs):
                tally.op(False, "error", "solve: record missing")
                continue
            rec = recs[i]
            if rec.get("status") != "ok":
                kind = "unresolved" if rec.get("status") == "unresolved" else "error"
                tally.op(False, kind, "solve %s" % rec)
                continue
            c = R.small_cop_number(n, adj)  # c <= 2 below 10 vertices
            ok = (
                rec.get("graph") == R.g6_encode(n, adj)
                and rec.get("c") == str(c)
                and rec.get("c_T", "0").isdigit()
                and 1 <= int(rec["c_T"]) <= c
            )
            tally.op(ok, "wrong", "solve %s, want c=%d and 1<=c_T<=c" % (rec, c))

    def _check_simulate(self, result, tally):
        if isinstance(result, BaseException):
            for _ in self.eligible:
                tally.op(False, "error", "simulate raised %r" % result)
            return
        code, text = result
        if code != 0:
            tally.errors.append("simulate exit code %r" % code)
        ends = [line for line in text.splitlines() if line.startswith(("captured", "survived"))]
        heads = [line.split()[1] for line in text.splitlines() if line.startswith("graph ")]
        for i, (n, adj) in enumerate(self.eligible):
            if i >= len(ends):
                tally.op(False, "error", "simulate: trace missing")
                continue
            end = ends[i]
            ok = (
                heads[i] == R.g6_encode(n, adj)
                and end.startswith("captured round=")
                and int(end.split("=")[1]) <= 4 * n
            )
            tally.op(ok, "wrong", "simulate %s: %s" % (heads[i], end))


class Families:
    """A few large solves on named instances, each relabelled."""

    HS_BUDGET = 2_000_000

    def setup(self, work_dir, rng):
        gen = copwin.families
        named = {
            "ER_5": gen.polarity(5),
            "incidence_3": gen.incidence(3),
            "Petersen": gen.petersen(),
            "Heawood": gen.incidence(2),
            "ER_3": gen.polarity(3),
            "Hoffman_Singleton": gen.hoffman_singleton(),
        }
        self.ref = {}
        self.graphs = {}
        for name, g in named.items():
            perm = list(range(g.n))
            rng.shuffle(perm)
            adj = R.relabel(g.n, list(g.adj), perm)
            self.ref[name] = (g.n, adj)
            self.graphs[name] = copwin.Graph(g.n, R.edges(g.n, adj))
        self.hs_path = os.path.join(work_dir, "hoffman_singleton.g6")
        write_g6(self.hs_path, [self.ref["Hoffman_Singleton"]])

    def steps(self):
        g = self.graphs

        def sim(name):
            plan = copwin.build_theorem1_plan(g[name])
            trace = copwin.simulate(g[name], plan, robber_policy="optimal")
            return trace.outcome, trace.capture_round

        return [
            ("c(ER_5)", lambda: copwin.cop_number(g["ER_5"])),
            ("cops_win(incidence_3,k=3)", lambda: copwin.cops_win(
                g["incidence_3"], copwin.GameConfig(k=3)).cops_win),
            ("c_T(Petersen)", lambda: copwin.teleport_cop_number(g["Petersen"])),
            ("c_T(Heawood)", lambda: copwin.teleport_cop_number(g["Heawood"])),
            ("c_T(ER_3)", lambda: copwin.teleport_cop_number(g["ER_3"])),
            ("c(Hoffman_Singleton)", lambda: run_cli(
                ["solve", "--budget", str(self.HS_BUDGET), "--input", self.hs_path])),
            ("simulate(Petersen)", lambda: sim("Petersen")),
            ("simulate(Heawood)", lambda: sim("Heawood")),
            ("simulate(ER_5)", lambda: sim("ER_5")),
        ]

    def check(self, out, tally):
        want = REFERENCE["families.values"]
        for name, result in out.items():
            if isinstance(result, BaseException):
                tally.op(False, "error", "%s raised %r" % (name, result))
                continue
            if name.startswith("simulate("):
                n = self.ref[name[len("simulate("):-1]][0]
                outcome, rnd = result
                tally.op(outcome == "captured" and rnd <= 4 * n, "wrong",
                         "%s: %s at round %s, want capture by %d" % (name, outcome, rnd, 4 * n))
            elif name == "cops_win(incidence_3,k=3)":
                lower = R.aigner_fromme_lower_bound(*self.ref["incidence_3"])
                tally.op(lower >= 4 and result is False, "wrong",
                         "%s=%r, but c >= %d (Aigner-Fromme)" % (name, result, lower))
            elif name == "c(Hoffman_Singleton)":
                code, text = result
                recs = parse_records(text)
                rec = recs[0] if recs else {}
                lower = R.aigner_fromme_lower_bound(*self.ref["Hoffman_Singleton"])
                if rec.get("status") == "unresolved" and code in (0, 3):
                    tally.op(False, "unresolved", "%s: %s" % (name, rec))
                elif rec.get("status") == "ok" and code == 0:
                    tally.op(int(rec["c"]) == want[name] >= lower, "wrong", "%s: %s" % (name, rec))
                else:
                    tally.op(False, "error", "%s: exit %r, %s" % (name, code, rec))
            else:
                tally.op(result == want[name], "wrong", "%s=%r, want %r" % (name, result, want[name]))


WORKLOADS = {"census8": Census8, "scan_small": ScanSmall, "families": Families}
