"""One benchmark run in a fresh interpreter; started by run.py.

Sets up the workload, runs closed-loop passes over its request list (one
client, each request sent when the previous one returned) for the given
number of seconds, checks every output, and prints one JSON document.  With
--trace 1 untraced and traced passes alternate; the per-layer numbers come
from the traced ones and the tracing overhead from the pairs.
With --setup-only it prints the moment setup finished and exits.

The host's speed swings by up to 2x over seconds to minutes as other
tenants come and go, and not by the same factor for interpreted code and for
numpy kernels.  So two fixed loops, one of each kind, measure it: the loop of
a request's kind (Request.bound) is timed before and after the request, and
the interpreted loop at both ends of every set-up.  The end-to-end times are
given at the reference speed, at which each loop takes its REF_S; the raw
times are kept next to them.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, self_times

# about each loop's time on a 2 GHz Xeon core of a quiet host
REF_S = {"interp": 0.040, "numpy": 0.040}


# Each loop first runs a sixth of its steps untimed: a loop timed cold, after
# other work, read 3-9 % slow.  The numpy loop allocates nothing, so that it
# does not depend on the state of the process's heap.


def interp_loop() -> float:
    """Seconds 60,000 pure-Python steps of big-integer and dict work take now."""
    table, x = {}, 7**300
    for i in range(-10_000, 60_000):
        if i == 0:
            start = time.perf_counter()
        x = (x * (i | 1) + i) % (1 << 1200)
        table[i & 1023] = table.get(i & 1023, 0) + (x & 255)
    return time.perf_counter() - start


def numpy_loop() -> float:
    """Seconds 60 modular elimination steps on a 240 x 240 int64 matrix take now."""
    import numpy as np

    p = 2147483629
    m = np.random.default_rng(1).integers(0, p, size=(240, 240), dtype=np.int64)
    prod, col, row = np.empty_like(m), np.empty(240, np.int64), np.empty(240, np.int64)
    for r in range(-10, 60):
        if r == 0:
            start = time.perf_counter()
        np.remainder(m[:, r], 65536, out=col)
        np.remainder(m[r], 65536, out=row)
        np.outer(col, row, out=prod)
        np.subtract(m, prod, out=m)
        np.remainder(m, p, out=m)
    return time.perf_counter() - start


LOOPS = {"interp": interp_loop, "numpy": numpy_loop}


def at_ref(seconds: float, kind: str, cal_before: float, cal_after: float) -> float:
    """A time measured between two runs of the kind's loop, at the reference speed."""
    return seconds * 2 * REF_S[kind] / (cal_before + cal_after)


def setup_times(start: float, doc: dict) -> dict:
    """Set-up time of an interpreter started at start (monotonic) that printed doc.

    The interpreter calibrates first thing and again once set up; the first
    calibration is not part of the set-up time.
    """
    before, after = doc["setup_cal_s"]
    raw = doc["ready"] - start - before
    return {"raw_s": raw, "ref_s": at_ref(raw, "interp", before, after)}


def critical_residual(cp) -> dict:
    return {"residual": max(cp.residuals)}


# Every span target is a public name reached from the benchmark or from the
# CLI; hot element-level code (QPolynomial arithmetic, groups) is never wrapped.
TRACE_TARGETS = {
    "cogrowth.cli.main": None,
    "cogrowth.cli.solve_series": None,
    "cogrowth.cli.series_solve_polynomial": None,
    "cogrowth.cli.count_closed_walks": None,
    "cogrowth.cli.guess_recurrence": None,
    "cogrowth.systems.solve_series": None,
    "cogrowth.systems.series_reciprocal": None,
    "cogrowth.qseries.QZSeries.rows_json": None,
    "cogrowth.algebraic.verify_recurrence": None,
    "cogrowth.fastseries.high_order_rows": None,
    "cogrowth.asymptotics.growth_and_moments": None,
    "cogrowth.asymptotics.algebraic_moments": None,
    "cogrowth.asymptotics.find_critical_point": critical_residual,
    "cogrowth.asymptotics.algebraic_critical_point": critical_residual,
    "cogrowth.asymptotics.minimal_poly_check": None,
}
SETUP_PROBES = 4  # fresh interpreters that only set up, besides the measured one
LAYERS = ("fastseries", "systems", "qseries", "algebraic", "oracle", "asymptotics", "cli")


def layer_metrics(spans, selfs, tags: dict[str, str]) -> dict[str, float]:
    """Per-layer numbers of one traced pass; tags maps request name -> tag.

    Times are inclusive span durations, except the ones named "self" and the
    systems.solve_series ones, which are self times.
    """

    def total(name, tag=None, own=False):
        return sum(
            t if own else s.end - s.start
            for s, t in zip(spans, selfs)
            if s.name == name and (tag is None or tags[s.request] == tag)
        )

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    hor = "fastseries.high_order_rows"
    guess = "algebraic.guess_recurrence"
    out = {
        f"{hor}.trefoil_s": total(hor, "trefoil"),
        f"{hor}.braid_s": total(hor, "braid"),
        "qseries.series_reciprocal_s": total("qseries.series_reciprocal"),
        "qseries.series_reciprocal.calls": calls("qseries.series_reciprocal"),
        "qseries.rows_json_s": total("qseries.QZSeries.rows_json"),
        "algebraic.series_solve_polynomial_s": total("algebraic.series_solve_polynomial"),
        f"{guess}.hit_s": total(guess, "hit"),
        f"{guess}.miss_s": total(guess, "miss"),
        "algebraic.verify_recurrence_s": total("algebraic.verify_recurrence"),
        "algebraic.verify_recurrence.calls": calls("algebraic.verify_recurrence"),
        "oracle.count_closed_walks_s": total("oracle.count_closed_walks"),
        "asymptotics.growth_and_moments_s": total("asymptotics.growth_and_moments")
        + total("asymptotics.algebraic_moments"),
        "asymptotics.find_critical_point_s": total("asymptotics.find_critical_point"),
        "asymptotics.find_critical_point.calls": calls("asymptotics.find_critical_point"),
        "asymptotics.algebraic_critical_point.calls": calls("asymptotics.algebraic_critical_point"),
        "asymptotics.minimal_poly_check_s": total("asymptotics.minimal_poly_check"),
        "asymptotics.max_residual": max(
            (s.attrs["residual"] for s in spans if "residual" in s.attrs), default=0.0
        ),
        "cli.self_s": total("cli.main", own=True),
    }
    for tag in ("star", "star3", "axa", "collapsed"):
        out[f"systems.solve_series.{tag}_s"] = total("systems.solve_series", tag, own=True)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer
        )
    return out


def run_pass(workload, outdir: Path, tracer=None) -> dict:
    """One pass over the request list.

    Before the first request, between two requests and after the last, the
    calibration loops of the adjacent requests' kinds run; cal_s holds their
    times, one {kind: seconds} per such point.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    outputs, errors, times = {}, {}, {}
    kinds = [req.bound for req in workload.requests]

    def calibrate(i):  # the point before request i
        return {k: LOOPS[k]() for k in dict.fromkeys(kinds[max(0, i - 1) : i + 1])}

    cpu = 0.0
    t0 = time.perf_counter()
    cals = [calibrate(0)]
    for i, req in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = req.name
            span = tracer.open("bench.request")
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            outputs[req.name] = req.call(outdir)
        except (Exception, SystemExit):  # a failed request is counted, not fatal
            errors[req.name] = traceback.format_exc(limit=4)
        finally:
            times[req.name] = time.perf_counter() - start
            cpu += time.process_time() - cpu0
            if tracer is not None:
                tracer.close(span)
        cals.append(calibrate(i + 1))
    ref = {
        req.name: at_ref(times[req.name], req.bound, cals[i][req.bound], cals[i + 1][req.bound])
        for i, req in enumerate(workload.requests)
    }
    return {
        "t0": t0,
        "t1": time.perf_counter(),
        "wall_s": sum(times.values()),
        "ref_wall_s": sum(ref.values()),
        "cpu_s": cpu,
        "cal_s": cals,
        "request_s": times,
        "request_ref_s": ref,
        "outputs": outputs,
        "errors": errors,
    }


def corrupt(outputs: dict) -> str:
    """Damage the first exact output in place; returns the request name."""
    from workloads import CliResult

    for name, result in outputs.items():
        if isinstance(result, CliResult) and result.out.exists():
            text = result.out.read_text()
            i = max(i for i, ch in enumerate(text) if ch in "123456789")
            result.out.write_text(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
            return name
        if hasattr(result, "coeffs") and hasattr(result, "order"):
            from cogrowth.qseries import QPolynomial

            row = result.coeffs[result.order]
            result.coeffs[result.order] = row + QPolynomial.q_power(row.max_exp)
            return name
    raise RuntimeError("no output to corrupt")


def check_pass(workload, p: dict, reference: dict) -> None:
    """Check one pass's outputs, record problems and counts, drop the outputs."""
    try:
        found = workload.check(p["outputs"])
    except Exception as exc:  # a malformed output fails the whole pass
        found = {req.name: [f"check raised {exc!r}"] for req in workload.requests}
    p["problems"], p["counts"], p["failed"] = [], {}, 0
    for req in workload.requests:
        issues = list(found.get(req.name, []))
        if req.name in p["errors"]:
            issues.append("raised: " + p["errors"][req.name].strip().splitlines()[-1])
        else:
            output = p["outputs"][req.name]
            try:
                got = req.digest(output) if req.digest else None
                counts = req.counts(output)
            except OSError as exc:
                got, counts = repr(exc), {}
            if req.digest and got != reference.get(req.key):
                issues.append(f"output digest {got[:16]} differs from the reference")
            for k, v in counts.items():
                p["counts"][k] = p["counts"].get(k, 0) + v
        if issues:
            p["failed"] += 1
            p["problems"].extend(f"{req.name}: {issue}" for issue in issues)
    del p["outputs"]


def run_passes(workload, tmp: Path, seconds: float, reference: dict,
               tracer=None, damage=False, between=None) -> list[dict]:
    """Closed-loop passes until the next one would overrun the time budget.

    Each pass starts from a collected heap.  Outputs are checked after each
    pass, outside the timed region, and then released, so that passes do not
    slow each other through a growing heap.  between() runs after each pass.
    With a tracer, untraced and traced passes alternate in pairs, so that
    both see the same machine conditions.
    """
    passes: list[dict] = []
    step = 1 if tracer is None else 2
    while True:
        traced = len(passes) % step == 1
        outdir = tmp / f"pass{len(passes)}"
        gc.collect()
        if traced:
            tracer.install(TRACE_TARGETS)
        try:
            p = run_pass(workload, outdir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        p["traced"] = traced
        if damage and not passes:
            p["corrupted"] = corrupt(p["outputs"])
        check_pass(workload, p, reference)
        shutil.rmtree(outdir, ignore_errors=True)
        passes.append(p)
        if between is not None:
            between()
        timed = [q["t1"] - q["t0"] for q in passes]
        if len(passes) % step == 0 and sum(timed) + step * statistics.median(timed) > seconds:
            return passes


def setup_probe(args) -> dict:
    """Set-up time of one more fresh interpreter that only sets up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--tmp", str(args.tmp / "probe"), "--setup-only"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60).stdout
    return setup_times(start, json.loads(out.strip().splitlines()[-1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    started_cal_s = interp_loop()

    import numpy
    import cogrowth
    import workloads

    args.tmp.mkdir(parents=True, exist_ok=True)
    src = Path(cogrowth.__file__).resolve().parent.parent
    if src != Path(__file__).resolve().parent.parent / "src":
        raise SystemExit(f"cogrowth imported from {src}, not from this checkout")
    workload = workloads.prepare(args.workload, args.seed, args.tmp)
    ready = time.monotonic()
    setup_cal_s = [started_cal_s, interp_loop()]
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_cal_s": setup_cal_s}))
        return 0

    reference = workloads.load_reference()["digests"][args.workload]
    probes: list[dict] = []
    if args.trace:
        tracer = Tracer()
        passes = run_passes(workload, args.tmp, args.seconds, reference, tracer, args.corrupt)
    else:
        # set-up probes run between passes, so that they sample the whole run
        passes = run_passes(workload, args.tmp, args.seconds, reference, damage=args.corrupt,
                            between=lambda: probes.append(setup_probe(args)))
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {
        "ready": ready,
        "setup_cal_s": setup_cal_s,
        "numpy": numpy.__version__,
        "requests": {r.name: r.key for r in workload.requests},
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(passes) * len(workload.requests),
        "failed": sum(p["failed"] for p in passes),
        "problems": [f"pass {i} {x}" for i, p in enumerate(passes) for x in p["problems"]],
        "passes": passes,
    }
    if args.trace:
        doc["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
        doc["layer_metrics"] = traced_metrics(workload, passes, tracer.spans)
    else:
        doc["setup_probes"] = probes
    print(json.dumps(doc, default=str))
    return 0


def traced_metrics(workload, passes, spans) -> dict:
    """Per-layer metrics: medians over traced passes, plus whole-run numbers."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    tags = {r.name: r.tag for r in workload.requests}
    selfs = self_times(spans)  # parent links index the whole span list
    per_pass = []
    for p in traced:
        inside = [(s, t) for s, t in zip(spans, selfs) if p["t0"] <= s.start <= p["t1"]]
        per_pass.append(layer_metrics([s for s, _ in inside], [t for _, t in inside], tags))
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for k in ("fastseries.coeffs", "oracle.entries", "cli.out_bytes", "algebraic.recurrence_digits"):
        metrics[k] = traced[0]["counts"].get(k, 0)
    hor = sum(metrics[f"fastseries.high_order_rows.{t}_s"] for t in ("trefoil", "braid"))
    metrics["fastseries.coeffs_per_s"] = metrics["fastseries.coeffs"] / hor if hor else 0.0
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics["proc.raw_wall_s"] = wall
    for kind in LOOPS:
        cals = [c[kind] for p in passes for c in p["cal_s"] if kind in c]
        metrics[f"proc.cal_{kind}_ms"] = 1000 * statistics.median(cals) if cals else 0.0
    metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["proc.cpu_util"] = metrics["proc.cpu_s"] / wall
    metrics["trace_overhead_s"] = statistics.median(
        t["ref_wall_s"] - u["ref_wall_s"] for u, t in zip(plain, traced)
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
