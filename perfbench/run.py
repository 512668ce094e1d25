"""copwin benchmark: seeded workloads, timed end to end or per module.

    python3 perfbench/run.py --workload census8|scan_small|families|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; copwin is imported from ./src.
Each pass runs in a fresh single-threaded process (worker.py), so peak
RSS is the pass's own high-water mark and the enumeration caches start
cold.  Untraced passes repeat until S seconds of passes are measured (at
least one) and their medians are reported; set-up runs SETUP_SAMPLES
more times on its own and reports the median.  With --trace 1, one
untraced and one traced pass run, and the per-layer metrics come from
the traced one.  Every answer is checked.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json.  Times are in seconds at a reference host speed (see
worker.py); the seconds as measured are printed above it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("census8", "scan_small", "families")
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_sha(root):
    """HEAD's commit id read from .git, or None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256(src):
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(os.path.join(ROOT, "src", "copwin")),
    }


class Runner:
    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline

    def spawn(self, *extra):
        cmd = [
            sys.executable, WORKER, "--root", ROOT, "--work", self.work,
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before %s" % " ".join(extra or ("a pass",)))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish within %.0f s" % left) from None
        if proc.returncode != 0:
            raise BenchError("worker exited with code %d" % proc.returncode)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    work = os.path.join(ROOT, ".perfbench_work", "%s-seed%d" % (workload, seed))
    os.makedirs(work, exist_ok=True)
    runner = Runner(workload, seed, work, start + RUN_LIMIT_S)

    setups = []
    if not trace:
        setups = [runner.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
    passes = []
    measured = 0.0
    while not passes or (not trace and measured < seconds):
        t0 = time.monotonic()
        passes.append(runner.spawn())
        measured += passes[-1]["raw"]["wall_s"]
        # stop early rather than overrun the per-run time limit
        if runner.deadline - time.monotonic() < 1.5 * (time.monotonic() - t0):
            break
    traced = runner.spawn("--trace") if trace else None

    checked = passes + ([traced] if traced else [])
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] for p in setups + passes],
    }
    raw = {
        "wall_s": statistics.median(p["raw"]["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["raw"]["cpu_s"] for p in passes),
        "setup_s": statistics.median(p["raw"]["setup_s"] for p in setups + passes),
        "speed": statistics.median(p["speed"]["pass"] for p in passes),
    }
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["ok_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    samples["ok_ratio"] = [values["ok_ratio"]]
    if traced:
        values.update(traced["layers"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": environment(),
        "correct": not any(p["wrong"] or p["errors"] for p in checked),
        "attempted": attempted,
        "failed": failed,
        "wrong": [w for p in checked for w in p["wrong"]],
        "errors": [e for p in checked for e in p["errors"]],
        "unresolved": [u for p in checked for u in p["unresolved"]],
        "samples": samples,
        "values": values,
        "raw": raw,
        "passes": passes,
        "run_s": time.monotonic() - start,
    }


def report(res, metrics):
    """Human-readable table on stdout; returns the metrics JSON object."""
    print("# workload=%s seed=%d trace=%d env=%s" % (
        res["workload"], res["seed"], res["trace"], json.dumps(res["env"], sort_keys=True)))
    print("%-44s %-6s %3s %14s %14s %14s" % ("metric", "unit", "n", "median", "q1", "q3"))
    out = {}
    for m in metrics:
        name, unit = m["name"], m["unit"]
        if name not in res["values"]:
            raise BenchError("metric %s was not measured" % name)
        value = res["values"][name]
        samples = res["samples"].get(name, [value])
        q = quartiles(samples)
        print("%-44s %-6s %3d %14.6g %14s %14s" % (
            name, unit, len(samples), value,
            "%.6g" % q[0] if q else "-", "%.6g" % q[1] if q else "-"))
        out[name] = {"value": value, "unit": unit}
    print("# as measured, before scaling to the reference speed: %s" % " ".join(
        "%s=%.6g" % kv for kv in res["raw"].items()))
    print("# attempted=%d failed=%d wrong=%d errors=%d unresolved=%d run_s=%.1f" % (
        res["attempted"], res["failed"], len(res["wrong"]), len(res["errors"]),
        len(res["unresolved"]), res["run_s"]))
    for kind in ("wrong", "errors", "unresolved"):
        for text in res[kind][:5]:
            print("# %s: %s" % (kind, text[:300]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "copwin", "__init__.py")):
            raise BenchError("no copwin sources under %s" % os.path.join(ROOT, "src"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
        tables = [report(r, metrics) for r in results]
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    for r in results:
        path = os.path.join(ROOT, ".perfbench_work", "%s-seed%d" % (r["workload"], r["seed"]),
                            "result-trace%d.json" % r["trace"])
        with open(path, "w") as fh:
            json.dump(r, fh, indent=1)
    if len(results) == 1:
        merged = tables[0]
    else:
        merged = {"%s.%s" % (r["workload"], k): v for r, t in zip(results, tables)
                  for k, v in t.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
