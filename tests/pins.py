"""The byte-identity pins, each held once: a function runs a command or a
library call and returns what it observed, and PINS holds what each value
must equal.  `PYTHONPATH=src python tests/pins.py [NAME...]` runs the pins
named, or all in table order, and prints each one's name, seconds and OK or
FAIL, with the expected and observed value of each field that differs; it
exits 1 on any FAIL and 2 on an unknown name.  Pins write under OUT; the
n = 9 pins read OUT/classes9.g6, which solve9 writes if it is not there.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

from copwin.enumeration import _order_and_neighbors, canonical_order, connected_graph_classes, graph_classes
from copwin.families import cycle, hoffman_singleton, incidence, polarity
from copwin.graph6 import emit_graph6
from copwin.graphs import Graph, is_connected
from copwin.solver import c_G_of_m, cop_number, teleport_cop_number

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "pins_out")
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _lines(lines):
    """The count and the sha256 of lines, each ended by a newline."""
    lines = list(lines)
    return {"count": len(lines), "sha256": _sha("".join(line + "\n" for line in lines))}


def _run(argv, out_name):
    """Python on argv, run from ROOT with stdout to OUT/out_name: its exit code and stdout."""
    path = os.path.join(OUT, out_name)
    with open(path, "wb") as fh:
        code = subprocess.run([sys.executable] + argv, stdout=fh, cwd=ROOT, env=ENV).returncode
    with open(path, "rb") as fh:
        return code, fh.read()


def _cli(name, *args):
    """`copwin ARGS` with stdout to OUT/NAME.txt: its exit code and sha256, and its text."""
    code, data = _run(["-m", "copwin.cli", *args], name + ".txt")
    return {"exit": code, "sha256": _sha(data)}, data.decode()


def _on9(name, *args):
    """`copwin ARGS` on every connected class n <= 9, from the classes9.g6 that solve9 writes."""
    path = os.path.join(OUT, "classes9.g6")
    if not os.path.exists(path):
        solve9()
    return _cli(name, *args, "--input", path)


def _scan(name, check, *flags):
    """A scan by _on9, with its summary line."""
    obs, text = _on9(name, "scan", "--check", check, *flags)
    obs["summary"] = text.splitlines()[-1] if text else ""
    return obs, text


def demos():
    obs = {}
    for name in sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")):
        code, data = _run(["demos/%s.py" % name], "demo_%s.txt" % name)
        obs[name] = "exit %d" % code if code else _sha(data)
    return obs


def _bench(workload, trace):
    code, data = _run(["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
                       "--trace", str(trace)], "bench_%s_%d.txt" % (workload, trace))
    r = json.loads(data.decode().splitlines()[-1])
    return "exit %d, %d checked, %d failed, correct %s" % (code, r["attempted"], r["failed"], r["correct"])


def pipe():
    with subprocess.Popen([sys.executable, "-m", "copwin.cli", "trap", "--nmax", "8"], cwd=ROOT,
                          env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        return {"stderr": proc.stderr.read().decode(), "exit": proc.wait()}


def _search(g):
    """The sha256 of g's canonical order and Aut generators, if canonical_order agrees."""
    order, _, gens = _order_and_neighbors(g)
    return _sha("%r %r\n" % (order, gens)) if canonical_order(g) == order else "canonical_order differs"


def disconnected8():
    path = os.path.join(OUT, "disconnected8.g6")
    with open(path, "w") as fh:
        fh.writelines(emit_graph6(g) + "\n" for n in range(1, 9) for g in graph_classes(n)
                      if not is_connected(g))
    return _cli("disconnected8", "solve", "--allow-disconnected", "--variant", "teleport",
                "--input", path)[0]


def solve9():
    obs, text = _cli("solve9", "solve", "--nmax", "9")
    recs = [dict(kv.split("=", 1) for kv in line.split()) for line in text.splitlines()]
    obs["n=9 classes"] = _lines(r["graph"] for r in recs if r["n"] == "9")
    obs["c >= 3"] = [r["graph"] for r in recs if int(r.get("c", 0)) >= 3]
    with open(os.path.join(OUT, "classes9.g6.tmp"), "w") as fh:
        fh.writelines(r["graph"] + "\n" for r in recs)
    os.replace(fh.name, os.path.join(OUT, "classes9.g6"))
    return obs


def teleport9():
    obs, text = _scan("teleport9", "conj_teleport")
    obs["candidates"] = _lines(line.split()[0][len("graph="):] for line in text.splitlines()
                               if line.endswith(" verdict=candidate"))
    return obs


def simulate9():
    obs, text = _on9("simulate9", "simulate")
    graphs = [line.split()[1] for line in text.splitlines() if line.startswith("graph ")]
    ends = [line.split() for line in text.splitlines() if line.startswith(("captured ", "survived "))]
    obs["traces"] = len(graphs)
    obs["misses"] = [g for g, (outcome, value) in zip(graphs, ends)
                     if outcome != "captured" or int(value.split("=")[1]) > 4 * (ord(g[0]) - 63)]
    return obs


PINS = {
    "demos": (demos, {  # every demo's stdout, byte for byte, or its nonzero exit code
        "conjecture_scan": "0791b540c4f98748cf24a6e3df5100bb7fd70caa5de014f4994fdfd748d6345a",
        "moore_graphs": "81b8aacc65ae2cda9a0249ebdaa89dd3fb8f0cb382e4093d5b3085ffad3cd394",
        "restricted_arenas": "7b5e3190b1eded9801dec0dd93d43531f18d69538bd6a08ecaaac84b5c9aaaa4",
        "strategy_walkthrough": "5c189f03ff78c43db663a0a43bf97e5e01fdee2425e693b2c9e87b8b05d24b89"}),
    "bench": (lambda: {"all": _bench("all", 0)}, {"all": "exit 0, 39126 checked, 0 failed, correct True"}),
    # --trace 1, the only route to the per-layer metrics; each workload runs two passes
    "bench_traced": (lambda: {w: _bench(w, 1) for w in ("census8", "families", "scan_small")}, {
        "census8": "exit 0, 72694 checked, 0 failed, correct True",
        "families": "exit 0, 18 checked, 0 failed, correct True",
        "scan_small": "exit 0, 5540 checked, 0 failed, correct True"}),
    # the one k = 4 solve on 4-byte fields (26^4 of them); girth 6, min degree 4 give c >= 4
    "incidence3": (lambda: {"c": cop_number(incidence(3))}, {"c": 4}),
    # one k-cover decision per robber vertex and fixpoint round
    "teleport": (lambda: {name: teleport_cop_number(g) for name, g in (
        ("hoffman_singleton", hoffman_singleton()), ("polarity(7)", polarity(7)),
        ("incidence(5)", incidence(5)))}, {"hoffman_singleton": 7, "polarity(7)": 5, "incidence(5)": 6}),
    # a reader that closes the pipe after one line: trap --nmax 8 writes 820,129
    # bytes, more than a 64 KiB pipe buffer, so the run must end quietly at it
    "pipe": (pipe, {"exit": 0, "stderr": ""}),
    # C14, Heawood and K8,8 refine to one cell: the twin and equal-leaf cuts do the work
    "one_cell": (lambda: {"C14": _search(cycle(14)), "Heawood": _search(incidence(2)),
                          "K8,8": _search(Graph(16, [(u, v) for u in range(8) for v in range(8, 16)]))}, {
        "C14": "1e5ba0b1247c355e9808a670180e52a94ad0479a9a206a02000ef1aaa9932b75",
        "Heawood": "b3d82204f4102e90a5091188f27fcecd76979e7d2fcf374329722bb3767cd9f6",
        "K8,8": "b2f4561998728fc628501dd9cb2b16ceaeeab36b7be4f06284360c10286e4086"}),
    # every class on 9 vertices, disconnected ones included: OEIS A000088
    "classes9": (lambda: _lines(emit_graph6(g) for g in graph_classes(9)), {"count": 274668,
        "sha256": "dee44f98ae21d6c026a859dfe7ba22b0a40ab4c5ce35ce727bc3f2e771ba7ef1"}),
    # 'graph6 c_1,...,c_n' per connected class n <= 7: test_c_g_of_m_pinned_le6 pins its prefix
    "cgm7": (lambda: _lines("%s %s" % (emit_graph6(g), ",".join(str(c_G_of_m(g, m)) for m in range(
        1, n + 1))) for n in range(1, 8) for g in connected_graph_classes(n)), {"count": 996,
        "sha256": "7780bee9a34e32b6c2a81b2448fd141aa41cdbaa17e7452db5188e0559984854"}),
    # 1,485 records, c summed over components and c_T on the whole graph
    "disconnected8": (disconnected8, {"exit": 0,
        "sha256": "263fcc11170c8b2be4f4274c7e6e521befb565d7aa746d624275df5b7f92d279"}),
    "solve9": (solve9, {"exit": 0, "c >= 3": [],
        "sha256": "f676b6361548fa506c1db857dd74156a9cae1a27ed9d54a096fe1128e5c576fc",
        "n=9 classes": {"count": 261080,
                        "sha256": "44066aa3c21ff218787d2951ed741fe6e4753e7fd3a1d65c76e76e0e45eba87a"}}),
    "solve_teleport9": (lambda: _on9("solve_teleport9", "solve", "--variant", "teleport")[0], {"exit": 0,
        "sha256": "23b9503103c8995606ecb5b5d83440e8d9b5ede4d32d37fe44676d014e857cde"}),
    # a regression pin, not a second route: both verdicts iterate one map, for k = 1 and 2
    "preceq9": (lambda: _scan("preceq9", "preceq_equiv", "--all")[0], {"exit": 0,
        "sha256": "cb4c2088870fa6481212c74151a31f006e5cc6e87a7a871a1df948cac251ad45",
        "summary": "# summary check=preceq_equiv checked=273193 violations=0 candidates=0 unresolved=0"}),
    # each candidate is a diameter-2 graph with c_T < c, in stream order
    "teleport9": (teleport9, {"exit": 0,
        "sha256": "eb6b36e12893d41e2226859043123208c970e709b17516ccbadd9fe87cb2c6e5",
        "candidates": {"count": 30201,
                       "sha256": "2009057de6f33f003b579aacd92a4455b3dce14f17b1ae4013c1cb74d94aa18c"},
        "summary": "# summary check=conj_teleport checked=96132 violations=0 candidates=30201 unresolved=0"}),
    # a miss has no capture within 4n rounds: on GkCPXW the chase cycles (a known defect)
    "simulate9": (simulate9, {"exit": 0, "traces": 96401, "misses": ["GkCPXW"],
        "sha256": "1f12a68ac54dcd48031d83263d4fb4284cf21494885063787a7b9ba4bdf3f282"}),
    "theorem1_9": (lambda: _scan("theorem1_9", "theorem1", "--all")[0], {"exit": 0,
        "sha256": "7685a29c77a8604b60464cde16a906cde11b5a7e526e11ee3532801d4939c545",
        "summary": "# summary check=theorem1 checked=96401 violations=0 candidates=0 unresolved=0"}),
    "lemma5_9": (lambda: _scan("lemma5_9", "lemma5", "--all")[0], {"exit": 0,
        "sha256": "0e46e74f4d7b7295ec0cb617698087270a8d0957cfbbc6c77109a8bb6e47ed0c",
        "summary": "# summary check=lemma5 checked=273193 violations=0 candidates=0 unresolved=0"}),
    "lemma4_9": (lambda: _scan("lemma4_9", "lemma4", "--all")[0], {"exit": 0,
        "sha256": "69de5c3b033edebe05f735241c7defe317fd39bdabf1365c5e724e9fd2758b29",
        "summary": "# summary check=lemma4 checked=273193 violations=0 candidates=0 unresolved=0"}),
    "trap9": (lambda: _on9("trap9", "trap")[0], {"exit": 0,
        "sha256": "f04eefe9e09ec73bc9ce726303f58d2896d57dd2e66e9b8c25fa498dfe41b761"}),
}


def main(names):
    unknown = [name for name in names if name not in PINS]
    if unknown:
        print("unknown pin %s; the pins are %s" % (", ".join(unknown), " ".join(PINS)), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    failed = 0
    for name in names or PINS:
        run, want = PINS[name]
        start = time.perf_counter()
        got = run()
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        print("%-16s %6.1f s  %s" % (name, time.perf_counter() - start, "FAIL" if diff else "OK"))
        for k in diff:
            print("    %s: expected %r, observed %r" % (k, want.get(k), got.get(k)))
        failed += bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
