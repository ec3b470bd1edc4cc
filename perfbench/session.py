"""One benchmark session: a fresh interpreter imports qmodular and runs one
workload's operations once, so every cache starts empty as it does for a
`qmodular` CLI user.

Reads a JSON spec from stdin and prints one JSON line:

    {"workload": "eta-deep" | ... | null, "ops": [...], "trace": false}

With "workload" null the session only imports qmodular (a set-up sample).
Only the import and the operations are timed; each output is checked after
its timing.  Run as a script, the session imports qmodular before anything
else, so the import's time includes every standard-library module qmodular
pulls in that the interpreter did not load at start-up.  After the import, between operations (at most every CAL_EVERY_S
seconds) and after the last one the session also times a fixed calibration
slice on the wall clock and on the process CPU clock, which tells how fast
the machine ran at that moment: "setup_cal_s" is the mean of the first
slices after the import, each operation's "op_cal_s" and "op_cpu_cal_s" the
mean of the two slices on either side of it, "cal_s" the median of all.
Checks and slices run with the garbage collector paused (see untimed()).
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":
    _t0 = time.perf_counter()
    sys.path.insert(0, os.path.realpath(os.path.join(sys.path[0], "..", "src")))
    import qmodular
    import qmodular.cli

    SETUP_S = time.perf_counter() - _t0
else:
    SETUP_S = None

import gc
import json
import resource
import statistics
import traceback
from contextlib import contextmanager
from fractions import Fraction

import spans
import workloads

# Timings are reported in reference-speed seconds: raw seconds times
# CAL_REF_S over the calibration slices timed around them.  On a shared
# host the speed of a core can change by 2x from one second to the next
# and stay changed for a minute; the slice changes with it.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.05
CAL_AROUND = 5  # slices before the first and after the last operation
_BIG = [3 ** (40 + k) for k in range(32)]


def calibration_slice() -> tuple:
    """Wall and process CPU seconds taken by a fixed mix of the work
    qmodular does: big-int products, Fraction sums and small allocations.
    It never changes, so a time divided by it is a count of slices, which
    the machine's speed of the moment scales out of."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(20000):
        acc += _BIG[i & 31] * _BIG[(i * 7) & 31]
    f = Fraction(0)
    for i in range(1, 1500):
        f += Fraction(i, 7 + (i & 15))
    xs = []
    for i in range(4000):
        xs.append((i, -i))
    return time.perf_counter() - t0, time.process_time() - c0


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.  On Linux ru_maxrss also
    holds the peak of the process image this one was exec'ed from (the
    parent's, when spawned), so the process's own high-water mark VmHWM
    is read instead where /proc has it."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextmanager
def untimed():
    """Run work between timings without moving the garbage collector's
    schedule: with the collector off, the objects the work allocates and
    frees leave its allocation counts where they were, so every session
    collects at the same points of the workload."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run(spec: dict, setup_s: float | None = None) -> dict:
    """Run one session; setup_s is the time the script took to import
    qmodular, or None to time the import here (a no-op once imported)."""
    if setup_s is None:
        t0 = time.perf_counter()
        workloads.import_qmodular()
        setup_s = time.perf_counter() - t0
    else:
        workloads.import_qmodular()  # checks where qmodular came from
    result = {"setup_s": setup_s}
    with untimed():
        cal = [calibration_slice() for _ in range(CAL_AROUND)]
    result["setup_cal_s"] = statistics.mean(w for w, _ in cal[:4])
    if spec["workload"] is None:
        return result
    tracer = spans.Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
    runner = workloads.Runner(spec["workload"])
    lat_ms, cpu_ms, failed, slice_after = [], [], [], []
    last_cal = time.perf_counter()
    try:
        for i, op in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.op = i
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = runner.run(op)
            except Exception:
                out = None
                traceback.print_exc(file=sys.stderr)
            w1, c1 = time.perf_counter(), time.process_time()
            lat_ms.append((w1 - w0) * 1e3)
            cpu_ms.append((c1 - c0) * 1e3)
            slice_after.append(len(cal))
            with untimed():
                if out is None or not runner.check(op, out):
                    runner.discard()
                    failed.append(i)
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    cal.append(calibration_slice())
                    last_cal = time.perf_counter()
    finally:
        runner.close()
        if tracer is not None:
            tracer.uninstall()
    with untimed():
        cal += [calibration_slice() for _ in range(CAL_AROUND)]
    # the two slices on either side of each operation, on each clock
    op_cal_s = [statistics.mean(w for w, _ in cal[k - 2 : k + 2]) for k in slice_after]
    op_cpu_cal_s = [statistics.mean(c for _, c in cal[k - 2 : k + 2]) for k in slice_after]
    result.update(
        cal_s=statistics.median(w for w, _ in cal),
        op_cal_s=op_cal_s,
        op_cpu_cal_s=op_cpu_cal_s,
        lat_ms=lat_ms,
        cpu_ms=cpu_ms,
        wall_s=sum(lat_ms) / 1e3,
        failed=failed,
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics([CAL_REF_S / c for c in op_cal_s])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin), SETUP_S)))
