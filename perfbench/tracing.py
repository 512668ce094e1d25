"""Spans around calls into copwin's public functions, recorded from outside.

``install`` replaces each traced function, in every copwin module that
holds a reference to it, by a wrapper recording one span: name, start,
end, parent span and operation id.  Spans stay in memory in flat arrays
and ``Tracer.dump`` writes them out at the end.  Per-layer metrics are
derived from the spans afterwards (``layer_metrics``); self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from array import array
from time import perf_counter

from copwin.errors import StateBudgetError

# module -> public functions timed as that module's layer
TRACED = {
    "enumeration": ("canonical_graph", "graph_classes"),
    "traps": ("trap_threshold", "min_transversal"),
    "solver": ("cops_win", "cop_number", "preceq_fixpoint_wins", "restricted_cop_number"),
    "strategy": ("simulate", "build_theorem1_plan"),
    "graph6": ("parse_graph6", "emit_graph6"),
    "graphs": ("diameter", "is_bipartite", "is_connected", "is_dismantlable"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.op = 0
        self._stack = []
        # span index -> facts read off the call's arguments or result
        self.notes = {}

    def wrap(self, name, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            result = exc = None
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                if note is not None:
                    self.notes[idx] = note(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays in
        header order (native byte order)."""
        fields = ("name_of", "start", "end", "parent", "op_of")
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for f in fields:
                getattr(self, f).tofile(fh)


def _cops_win_note(args, kwargs, result, exc):
    g = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    arena = cfg.robber_arena
    size = len(arena.vertices) if arena is not None else g.n
    return {
        "variant": cfg.variant,
        "states": math.comb(g.n + cfg.k - 1, cfg.k) * size * 2,
        "refused": isinstance(exc, StateBudgetError),
    }


def _trap_note(args, kwargs, result, exc):
    g, v = args[0], args[1]
    return (g.n, g.adj, v)


def _simulate_note(args, kwargs, result, exc):
    return len(result.rounds) - 1 if result is not None else 0


def _classes_note(args, kwargs, result, exc):
    return (args[0], len(result) if result is not None else 0)


NOTES = {
    "solver.cops_win": _cops_win_note,
    "traps.trap_threshold": _trap_note,
    "strategy.simulate": _simulate_note,
    "enumeration.graph_classes": _classes_note,
}


def install(tracer):
    """Wrap every TRACED function at each copwin module that imported it,
    so calls made through the CLI or between modules are seen too."""
    for mod in TRACED:
        importlib.import_module("copwin." + mod)
    holders = [m for k, m in sys.modules.items() if k == "copwin" or k.startswith("copwin.")]
    for mod, names in TRACED.items():
        module = sys.modules["copwin." + mod]
        for fname in names:
            qual = "%s.%s" % (mod, fname)
            original = getattr(module, fname, None)
            if original is None:  # gone from the package: reported as 0 calls
                tracer.names.append(qual)
                continue
            wrapper = tracer.wrap(qual, original, NOTES.get(qual))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    s = sorted(durations)
    return s[min(len(s) - 1, math.ceil(q * len(s)) - 1)] * 1000.0


def layer_metrics(tracer):
    """Per-layer counts, self times and ratios from the recorded spans."""
    count = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    names = tracer.names
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    for i in range(count):
        name = names[tracer.name_of[i]]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]

    m = {}
    for name in names:
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = self_s[name]

    def spans_named(name):
        nid = names.index(name)
        return [i for i in range(count) if tracer.name_of[i] == nid]

    notes = tracer.notes
    # enumeration: classes produced per canonical-form call
    produced = {}
    for i in spans_named("enumeration.graph_classes"):
        n, size = notes[i]
        produced[n] = size
    canon = calls["enumeration.canonical_graph"]
    m["enumeration.classes_per_canonical_call"] = (
        sum(produced.values()) / canon if canon else 0.0
    )
    # traps: distinct (graph, vertex) pairs per threshold computation
    trap_spans = spans_named("traps.trap_threshold")
    m["traps.trap_threshold.distinct_ratio"] = (
        len({notes[i] for i in trap_spans}) / len(trap_spans) if trap_spans else 0.0
    )
    # solver: cops_win split by variant
    cw = spans_named("solver.cops_win")
    for variant in ("standard", "teleport"):
        mine = [i for i in cw if notes[i]["variant"] == variant]
        key = "solver.cops_win." + variant
        durs = [dur[i] for i in mine]
        m[key + ".calls"] = len(mine)
        m[key + ".self_s"] = sum(dur[i] - child[i] for i in mine)
        m[key + ".p50_ms"] = _quantile_ms(durs, 0.50)
        m[key + ".p99_ms"] = _quantile_ms(durs, 0.99)
    m["solver.cops_win.states"] = sum(notes[i]["states"] for i in cw if not notes[i]["refused"])
    m["solver.cops_win.refused"] = sum(1 for i in cw if notes[i]["refused"])
    cn = set(spans_named("solver.cop_number"))
    under_cn = sum(1 for i in cw if tracer.parent[i] in cn)
    m["solver.cops_win_per_cop_number"] = under_cn / len(cn) if cn else 0.0
    # strategy: rounds played and which robber policy ran
    sims = spans_named("strategy.simulate")
    m["strategy.simulate.rounds"] = sum(notes[i] for i in sims)
    with_table = {tracer.parent[i] for i in cw} & set(sims)
    m["strategy.simulate.table_robber_share"] = len(with_table) / len(sims) if sims else 0.0
    m["trace.spans"] = count
    return m
