"""Self-tests of the benchmark itself: spans, wrappers, metric lists, checker.

    PYTHONPATH=src python3 perfbench/selftest.py

Run from the root of a checkout.  The last test runs the exact workload with
one output corrupted after the timed pass and expects the command to fail.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import worker
from spans import Span, Tracer, resolve, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_and_parents():
    tracer = Tracer()
    tracer.request = "r1"
    root = tracer.open("bench.request")
    child = tracer.open("systems.solve_series")
    grandchild = tracer.open("qseries.series_reciprocal")
    tracer.close(grandchild)
    tracer.close(child)
    sibling = tracer.open("qseries.QZSeries.rows_json")
    tracer.close(sibling)
    tracer.close(root)
    parents = [s.parent for s in tracer.spans]
    assert parents == [None, root, child, root], parents
    assert all(s.request == "r1" and s.end >= s.start for s in tracer.spans)

    spans = [
        Span("bench.request", 0.0, 10.0, None, "r"),
        Span("systems.solve_series", 1.0, 4.0, 0, "r"),
        Span("qseries.series_reciprocal", 2.0, 3.0, 1, "r"),
        Span("cli.main", 3.5, 6.0, 0, "r"),  # overlaps its sibling: union counts once
    ]
    selfs = self_times(spans)
    assert selfs == [5.0, 2.0, 1.0, 2.5], selfs

    metrics = worker.layer_metrics(spans, selfs, {"r": "star"})
    assert metrics["systems.solve_series.star_s"] == 2.0
    assert metrics["systems.solve_series.axa_s"] == 0.0
    assert metrics["qseries.series_reciprocal.calls"] == 1
    assert metrics["layer.qseries.self_s"] == 1.0
    assert metrics["cli.self_s"] == 2.5


def test_traced_metrics_per_pass():
    # two traced passes of one request each; parent links index the whole list
    spans = [
        Span("bench.request", 0.0, 4.0, None, "r"),
        Span("systems.solve_series", 1.0, 4.0, 0, "r"),
        Span("qseries.series_reciprocal", 2.0, 3.0, 1, "r"),
        Span("bench.request", 10.0, 14.0, None, "r"),
        Span("systems.solve_series", 11.0, 14.0, 3, "r"),
        Span("qseries.series_reciprocal", 12.0, 13.0, 4, "r"),
    ]

    class Req:
        name, tag = "r", "star"

    class Load:
        requests = [Req()]

    def one_pass(t0, t1, traced):
        return {"t0": t0, "t1": t1, "wall_s": t1 - t0, "ref_wall_s": t1 - t0,
                "cpu_s": t1 - t0, "cal_s": [{"interp": 0.04}], "traced": traced,
                "counts": {}}

    passes = [one_pass(-5.0, -1.0, False), one_pass(0.0, 4.0, True),
              one_pass(5.0, 9.0, False), one_pass(10.0, 14.0, True)]
    metrics = worker.traced_metrics(Load(), passes, spans)
    assert metrics["systems.solve_series.star_s"] == 2.0, metrics
    assert metrics["qseries.series_reciprocal.calls"] == 1
    assert metrics["trace_overhead_s"] == 0.0


def test_reference_speed():
    ref = worker.REF_S["interp"]
    assert worker.at_ref(3.0, "interp", ref, ref) == 3.0
    assert worker.at_ref(3.0, "interp", 2 * ref, 2 * ref) == 1.5  # host at half speed
    assert worker.at_ref(3.0, "interp", ref, 3 * ref) == 1.5
    slow = 2 * worker.REF_S["numpy"]
    assert abs(worker.at_ref(3.0, "numpy", slow, slow) - 1.5) < 1e-12
    assert all(loop() > 0 for loop in worker.LOOPS.values())
    # the first calibration ran inside the measured interval and is taken out
    times = worker.setup_times(10.0, {"ready": 10.5, "setup_cal_s": [ref, 3 * ref]})
    assert abs(times["raw_s"] - (0.5 - ref)) < 1e-12
    assert abs(times["ref_s"] - (0.5 - ref) / 2) < 1e-12


def test_untraced_mode_installs_nothing():
    import cogrowth.cli
    import cogrowth.systems

    def current():
        return {
            dotted: getattr(*resolve(dotted)) for dotted in worker.TRACE_TARGETS
        }

    before = current()
    assert cogrowth.cli.solve_series is cogrowth.systems.solve_series
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    tracer = Tracer()
    tracer.install(worker.TRACE_TARGETS)
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in current().values())
        assert cogrowth.cli.solve_series is not cogrowth.systems.solve_series
    finally:
        tracer.uninstall()
    assert current() == before
    assert cogrowth.cli.solve_series is cogrowth.systems.solve_series


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_corrupted_output_fails_the_run():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1, result


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
