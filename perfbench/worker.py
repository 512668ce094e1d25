"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --root DIR --work DIR --workload NAME --seed N
                                [--trace] [--setup-only]

Set-up (imports, family construction, seeded input files) is timed as
setup_s.  The steps then run back to back as the timed pass; wall time,
CPU time and the process's peak RSS cover the pass only, and every
answer is checked after the clock stops.  Prints one JSON object.
Meant to be started by run.py, which gives each pass its own process.

Times are reported twice: as measured ("raw") and scaled to a reference
host speed.  The host this was built on runs the same code up to 1.6x
slower for stretches of seconds to minutes, because of other tenants.
A SpeedProbe times a fixed kernel every PROBE_INTERVAL_S all through
set-up and the pass; scaling by the mean of PROBE_REF_S / sample turns
the seconds measured into seconds at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_INTERVAL_S = 0.05
# the kernel's typical duration on a 2-vCPU x86_64 host under Python 3.11
PROBE_REF_S = 2.5e-4
PROBE_BURST = 10
ADDRESS_SPACE_LIMIT = 4 << 30


def probe_kernel():
    """Fixed integer arithmetic: no container allocations, so it never
    triggers the cyclic GC and its time does not depend on the heap."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times probe_kernel from a SIGALRM handler in this same thread."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def burst(self):
        """A few samples on demand, so that short phases get some too."""
        for _ in range(PROBE_BURST):
            self._tick()

    def speed(self, lo, hi):
        """Host speed over samples[lo:hi], relative to the reference."""
        return statistics.fmean(PROBE_REF_S / s for s in self.samples[lo:hi])


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def limit_address_space():
    """Turn a runaway allocation into a MemoryError in this process
    rather than memory pressure on the whole machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    limit_address_space()

    probe = SpeedProbe()
    probe.burst()
    probe.start()
    t0 = time.perf_counter()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import copwin

    if not os.path.abspath(copwin.__file__).startswith(src + os.sep):
        print("copwin imported from %s, not from %s" % (copwin.__file__, src), file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.work, random.Random(args.seed))
    setup_raw = time.perf_counter() - t0 - sum(probe.samples[PROBE_BURST:])
    probe.burst()
    n_setup = len(probe.samples)
    setup_s = setup_raw * probe.speed(0, n_setup)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw}}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    steps = wl.steps()
    outputs = {}
    step_s = {}
    cpu0 = cpu_seconds()
    w0 = time.perf_counter()
    for i, (name, fn) in enumerate(steps):
        if tracer is not None:
            tracer.op = i
        s0 = time.perf_counter()
        try:
            outputs[name] = fn()
        except Exception as e:  # a failed operation; the pass goes on
            traceback.print_exc()
            outputs[name] = e
        step_s[name] = time.perf_counter() - s0
    wall_raw = time.perf_counter() - w0
    cpu_raw = cpu_seconds() - cpu0
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probed = sum(probe.samples[n_setup:])
    wall_raw -= probed
    cpu_raw -= probed
    probe.burst()
    speed = probe.speed(n_setup, len(probe.samples))

    tally = workloads.Tally()
    wl.check(outputs, tally)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_raw * speed,
        "cpu_s": cpu_raw * speed,
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_raw, "wall_s": wall_raw, "cpu_s": cpu_raw, "step_s": step_s},
        "speed": {"setup": probe.speed(0, n_setup), "pass": speed,
                  "samples": len(probe.samples)},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "unresolved": tally.unresolved,
        "aggregates": tally.aggregates,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        result["layers"] = {
            k: v * speed if k.endswith(("_s", "_ms")) else v for k, v in layers.items()
        }
        tracer.dump(os.path.join(args.work, "spans-%s-seed%d.bin" % (args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
