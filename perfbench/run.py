"""The qmodular benchmark.

    python3 perfbench/run.py --workload eta-deep --seed 1 --seconds 35 --trace 0

Runs one workload (eta-deep, registry-400 or reduce-session; see
workloads.py) for about --seconds seconds.  Every session is a fresh
interpreter that imports qmodular and runs the workload's operations once,
one after another, so the package's caches start empty as they do for a
`qmodular` CLI user.  Sessions run one at a time: one process, no extra
threads.

--trace 0 reports the end-to-end metrics, each the median over the run:
  setup_s      import of qmodular and qmodular.cli in a fresh interpreter
               (which also builds the generator and identity registries)
  wall_s       wall time of one session's operations
  cpu_s        process CPU time of the same
  op_p50_ms    median, over the operations, of each operation's median
  op_p90_ms    latency across sessions; and the 90th percentile of those
  peak_rss_mb  peak resident set of a session process (session.peak_rss_mb)
Times are in reference-speed units (see session.CAL_REF_S); the raw
medians are printed beside them.
--trace 1 alternates plain and traced sessions and reports the per-layer
metrics of spans.py, plus the traced wall time and its excess over the
plain one (the tracing overhead).

Each operation's output is checked, and the stored weight-2018 stress
product runs once per invocation, untimed, through `qmodular bench`.
Failures count into "failed"; error_rate = failed / attempted.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it stamps the result with the Python version, the git
commit, nproc, the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import spans
import workloads
from session import CAL_REF_S

HERE = workloads.HERE
ROOT = HERE.parent
SESSION = HERE / "session.py"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# A run never ends before it holds this many rounds of sessions; a round
# is two set-up samples and one session untraced, or one plain and one
# traced session with --trace 1.
MIN_ROUNDS = {0: 3, 1: 2}
# hard stop for the whole invocation, seconds
DEADLINE_S = 170


def layer_units():
    units = {}
    for name in spans.metric_names():
        if name.endswith(".self_s"):
            units[name] = "s"
        elif name.endswith((".calls", ".out_terms")):
            units[name] = "count"
        else:
            units[name] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def stress_check() -> bool:
    """`qmodular bench --format json` must report pass."""
    from qmodular import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["bench", "--format", "json"])
    return code == 0 and json.loads(out.getvalue())["status"] == "pass"


def stamp(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "qmodular").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Sessions:
    """Starts session processes one at a time, each within the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # fixed string hashing, so set and dict layouts repeat across sessions
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def run(self, spec: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, str(SESSION)],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=self.env,
            timeout=max(1.0, self.deadline - time.perf_counter()),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"session exited with code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def rounds(self, specs, seconds: float, min_rounds: int):
        """Rounds of sessions (one round runs every spec in order) until
        the next round would likely end after `seconds`."""
        t0 = time.perf_counter()
        out, took = [], []
        while len(out) < min_rounds or (
            time.perf_counter() - t0 + statistics.median(took) <= seconds
        ):
            r0 = time.perf_counter()
            out.append([self.run(s) for s in specs])
            took.append(time.perf_counter() - r0)
        return out


def scaled(values, cals, ref=True):
    """Raw times in reference-speed units: each times CAL_REF_S over the
    calibration slice measured around it (unchanged with ref=False)."""
    return [v * CAL_REF_S / c if ref else v for v, c in zip(values, cals)]


def op_percentiles(sessions, ref=True):
    """p50 and p90 over the operations of each operation's median latency
    across the sessions (all sessions run the same operations in order).
    The median drops the one session in which a short operation was slowed
    by the host, and with few distinct operations the pooled samples' p90
    falls between two operations' clusters."""
    lat = [scaled(s["lat_ms"], s["op_cal_s"], ref) for s in sessions]
    per_op = [statistics.median(x) for x in zip(*lat)]
    if len(per_op) < 2:
        return per_op[0], per_op[0]
    p90 = statistics.quantiles(per_op, n=10, method="inclusive")[8]
    return statistics.median(per_op), p90


# per-operation times and the calibration slices on the same clock
CLOCKS = {"lat_ms": "op_cal_s", "cpu_ms": "op_cpu_cal_s"}


def session_time(s, key, ref=True):
    """Sum of a session's per-operation times (ms) in seconds."""
    return sum(scaled(s[key], s[CLOCKS[key]], ref)) / 1e3


def end_to_end(setups, sessions, ref=True):
    """The end-to-end metrics of one run; setups are the sessions that
    sampled the import, sessions the ones that ran the workload."""
    p50, p90 = op_percentiles(sessions, ref)
    setup = [scaled([s["setup_s"]], [s["setup_cal_s"]], ref)[0] for s in setups]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(session_time(s, "lat_ms", ref) for s in sessions),
        "cpu_s": statistics.median(session_time(s, "cpu_ms", ref) for s in sessions),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }


def per_layer(plain, traced):
    """Per-layer metrics of the traced session with the median traced wall
    time, whose self times stay within that wall time."""
    walls = [session_time(s, "lat_ms") for s in traced]
    pick = traced[walls.index(statistics.median_low(walls))]
    out = {name: pick["layers"][name] for name in spans.metric_names()}
    out["trace.wall_s"] = session_time(pick, "lat_ms")
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        session_time(s, "lat_ms") for s in plain
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    # An installed package imports cached bytecode, so write it before any
    # session times an import (sessions read it whatever their settings).
    sys.dont_write_bytecode = False
    workloads.import_qmodular()
    stress_ok = stress_check()
    ops = workloads.make_ops(args.workload, args.seed)
    spec = {"workload": args.workload, "ops": ops, "trace": False}
    sessions = Sessions(deadline)

    if args.trace:
        rounds = sessions.rounds(
            [spec, dict(spec, trace=True)], args.seconds, MIN_ROUNDS[1]
        )
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        metrics = per_layer(plain, traced)
        units = layer_units()
        raw_metrics = {}
        runs = plain + traced
        spans_ok = all(s["layers"]["self_total_s"] <= s["wall_s"] for s in traced)
        samples = {"plain_sessions": len(plain), "traced_sessions": len(traced)}
    else:
        setup_only = {"workload": None}
        rounds = sessions.rounds(
            [setup_only, setup_only, spec], args.seconds, MIN_ROUNDS[0]
        )
        runs = [r[2] for r in rounds]
        setups = [s for r in rounds for s in r]
        metrics = end_to_end(setups, runs)
        raw_metrics = end_to_end(setups, runs, ref=False)
        units = dict(END_TO_END)
        spans_ok = True
        samples = {
            "sessions": len(runs),
            "setup_samples": len(setups),
            "op_samples": len(ops) * len(runs),
        }

    attempted = len(ops) * len(runs) + 1
    failed = sum(len(s["failed"]) for s in runs) + (0 if stress_ok else 1)
    for name, value in metrics.items():
        line = f"{name:<34} {value:>14.6f} {units[name]}"
        if raw_metrics.get(name, value) != value:
            line += f"  (raw {raw_metrics[name]:.6f})"
        print(line)
    print(f"{'error_rate':<34} {failed / attempted:>14.6f} ({failed}/{attempted})")
    samples["cal_s"] = statistics.median(s["cal_s"] for s in runs)
    print(json.dumps({"stamp": stamp(args), "samples": samples}))
    result = {
        "correct": failed == 0 and spans_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
