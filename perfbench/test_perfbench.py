"""Tests of the benchmark itself: tiny-size smoke sessions of each workload,
the output checks, the tracer's bindings and its self-time arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import run
import session
import spans
import workloads

TINY = {w: sizes[1] for w, sizes in workloads.SIZES.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_session_has_no_errors(workload, trace):
    ops = workloads.make_ops(workload, seed=7, size=TINY[workload])
    out = session.run({"workload": workload, "ops": ops, "trace": trace})
    assert out["failed"] == []
    assert len(out["lat_ms"]) == len(out["cpu_ms"]) == len(ops)
    assert len(out["op_cal_s"]) == len(out["op_cpu_cal_s"]) == len(ops)
    assert out["wall_s"] > 0 and sum(out["cpu_ms"]) > 0 and out["setup_s"] >= 0
    if trace:
        layers = out["layers"]
        assert set(spans.metric_names()) <= set(layers)
        assert 0 < layers["self_total_s"] <= out["wall_s"]
        own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert 0 < own <= run.session_time(out, "lat_ms")


def test_wrong_outputs_are_counted_as_failures():
    ops = workloads.make_ops("eta-deep", seed=1, size=TINY["eta-deep"])
    ops[0]["digest"] = "0" * 64
    req = workloads.make_ops("reduce-session", seed=1, size=TINY["reduce-session"])[:3]
    req[1]["coords"][0][0] += 1
    assert session.run({"workload": "eta-deep", "ops": ops})["failed"] == [0]
    assert session.run({"workload": "reduce-session", "ops": req})["failed"] == [1]


def test_failed_identity_check_is_counted():
    ops = workloads.make_ops("registry-400", seed=1, size=TINY["registry-400"])[:2]
    ops[1]["name"] = "no-such-identity"
    assert session.run({"workload": "registry-400", "ops": ops})["failed"] == [1]


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_ops("reduce-session", seed=3, size=12)
    assert a == workloads.make_ops("reduce-session", seed=3, size=12)
    b = workloads.make_ops("reduce-session", seed=4, size=12)
    assert a != b
    # the seed orders the spaces and picks the coordinates, not the spaces
    spaces = sorted((op["level"], op["weight"]) for op in a)
    assert spaces == sorted((op["level"], op["weight"]) for op in b)
    full = workloads.make_ops("reduce-session", seed=3)
    assert len(full) == 150


class FakeClock:
    """A clock that moves only when a test says so, or by `tick` per read."""

    def __init__(self, tick=0):
        self.now = 0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def work(n):
        clock.now += n

    inner = tr.wrap("inner", work)

    def body():
        work(10)
        inner(5)
        inner(7)
        work(3)

    outer = tr.wrap("outer", body)
    outer()
    assert [s[1] for s in tr.spans] == [-1, 0, 0]
    assert spans.self_times(tr.spans) == [13, 5, 7]
    m = tr.metrics()
    assert m["outer.calls"] == 1 and m["inner.calls"] == 2
    assert m["outer.self_s"] == 13e-9 and m["inner.self_s"] == 12e-9
    assert m["self_total_s"] == 25e-9
    tr.op = 1
    outer()
    scaled = tr.metrics(op_scale=[1, 2])
    assert scaled["outer.self_s"] == pytest.approx(39e-9)
    assert scaled["inner.self_s"] == pytest.approx(36e-9)
    assert scaled["self_total_s"] == 50e-9


def test_wrapper_bookkeeping_is_no_layer_self_time():
    clock = FakeClock(tick=1)
    tr = spans.Tracer(clock)
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: leaf())
    top = tr.wrap("top", lambda: (mid(), leaf()))
    t0 = clock()
    top()
    wall = clock() - t0
    own = spans.self_times(tr.spans)
    # Every clock read advances one unit.  A span keeps the read that ends
    # it and the first read of each child's wrapper; each wrapper's other
    # two reads belong to no span.
    assert own == [3, 2, 1, 1]
    assert wall - sum(own) == 2 * len(own) + 2


def test_self_times_of_hand_built_spans():
    # (name id, parent, start, end, outer duration, op)
    spans_ = [(0, -1, 0, 100, 102, 0), (1, 0, 10, 40, 32, 0), (2, 1, 20, 30, 11, 0)]
    assert spans.self_times(spans_) == [100 - 32, 30 - 11, 10]


def test_tracer_wraps_every_binding_and_restores_them():
    workloads.import_qmodular()
    mods = {n: m for n, m in sys.modules.items() if n.startswith("qmodular")}
    before = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    qs = sys.modules["qmodular.qseries"].QSeries
    mul, pow_ = qs.__mul__, qs.pow
    tr = spans.Tracer()
    tr.install()
    try:
        originals = {
            id(v.__wrapped__) for _, m in mods.items() for v in vars(m).values()
            if hasattr(v, "__wrapped__") and v.__name__ == "traced"
        }
        for name, home, attr, _ in spans.TARGETS:
            if "." in attr:
                continue
            fn = before[(f"qmodular.{home}", attr)]
            assert id(fn) in originals
            for (mod, key), val in before.items():
                if val is fn and not (name in spans.RECURSIVE and mod.endswith(home)):
                    assert vars(mods[mod])[key] is not fn, (name, mod, key)
        assert qs.__mul__ is not mul and qs.pow is qs.__pow__ is not pow_
        assert sys.modules["qmodular.expr"].val_lower is before[("qmodular.expr", "val_lower")]
    finally:
        tr.uninstall()
    after = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    assert after == before
    assert qs.__mul__ is mul and qs.pow is pow_ and qs.__pow__ is pow_


def test_peak_rss_is_the_session_own_not_its_parent():
    ballast = bytearray(96 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    ops = workloads.make_ops("eta-deep", seed=1, size=TINY["eta-deep"])
    sessions = run.Sessions(deadline=time.perf_counter() + 120)
    out = sessions.run({"workload": "eta-deep", "ops": ops})
    del ballast
    assert out["failed"] == [] and 0 < out["peak_rss_mb"] < 96


def test_op_percentiles_use_per_operation_medians():
    sessions = [
        {"lat_ms": [1, 10, 100], "op_cal_s": [1, 1, 1]},
        {"lat_ms": [3, 30, 300], "op_cal_s": [1, 1, 1]},
        {"lat_ms": [2, 80, 500], "op_cal_s": [1, 1, 1]},
    ]
    p50, p90 = run.op_percentiles(sessions, ref=False)
    assert p50 == 30
    assert p90 == 30 + 0.8 * (300 - 30)


def test_timings_are_scaled_by_the_calibration_around_them():
    ref = run.CAL_REF_S
    fast = {"setup_s": 0.05, "setup_cal_s": ref, "lat_ms": [500.0, 1500.0],
            "cpu_ms": [400.0, 1100.0], "op_cal_s": [ref, ref],
            "op_cpu_cal_s": [ref, ref], "peak_rss_mb": 20.0}
    # the same work with the machine at half speed during the second op
    mixed = dict(fast, lat_ms=[500.0, 3000.0], cpu_ms=[400.0, 2200.0],
                 op_cal_s=[ref, 2 * ref], op_cpu_cal_s=[ref, 2 * ref])
    slow = dict(fast, setup_s=0.1, setup_cal_s=2 * ref, lat_ms=[1000.0, 3000.0],
                cpu_ms=[800.0, 2200.0], op_cal_s=[2 * ref, 2 * ref],
                op_cpu_cal_s=[2 * ref, 2 * ref])
    m = run.end_to_end([fast, slow], [fast, mixed, slow])
    assert m["setup_s"] == pytest.approx(0.05)
    assert m["wall_s"] == pytest.approx(2.0) and m["cpu_s"] == pytest.approx(1.5)
    assert m["op_p50_ms"] == pytest.approx(1000.0)
    assert m["peak_rss_mb"] == 20.0
    assert run.end_to_end([fast], [fast, mixed, slow], ref=False)["wall_s"] == 3.5


def test_cpu_time_is_scaled_by_the_cpu_clock_of_the_slices():
    ref = run.CAL_REF_S
    # half the wall time stolen by the host: the wall clock of the op and
    # of its slices doubles, their CPU time does not
    stolen = {"lat_ms": [1000.0, 3000.0], "op_cal_s": [2 * ref, 2 * ref],
              "cpu_ms": [400.0, 1100.0], "op_cpu_cal_s": [ref, ref]}
    assert run.session_time(stolen, "lat_ms") == pytest.approx(2.0)
    assert run.session_time(stolen, "cpu_ms") == pytest.approx(1.5)


def test_benchmark_json_lists_what_the_run_reports():
    doc = json.loads((workloads.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
