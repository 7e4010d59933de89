"""cogrowth benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {lanes,exact,derive} --seed N \
        --seconds S --trace {0,1} [--corrupt]

Run from the root of a checkout; the program is imported from ./src.  One
client sends the workload's requests back to back in a fresh interpreter
(worker.py), with BLAS and OpenMP pinned to one thread.  The last line of
standard output is a JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  wall_s is one pass's time, summed over the
requests from each one's median time over the run's passes; set-up time is
the median over several fresh interpreters.  Both are given at the reference
host speed (see worker.py): each request's time and each set-up time is
scaled by a fixed loop's reference time over that loop's time measured next
to it, which takes out the host's swings in speed.  A run writes a report
with the machine, the raw and scaled per-pass times, the calibration times,
the check outcomes and any spans to .perfbench_runs/ and exits 1 if any
output check failed.  --corrupt damages one output before the checks, which
must then fail.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import setup_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("lanes", "exact", "derive")
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "fastseries.high_order_rows.trefoil_s": "s",
    "fastseries.high_order_rows.braid_s": "s",
    "fastseries.coeffs": "count",
    "fastseries.coeffs_per_s": "1/s",
    "systems.solve_series.star_s": "s",
    "systems.solve_series.star3_s": "s",
    "systems.solve_series.axa_s": "s",
    "systems.solve_series.collapsed_s": "s",
    "qseries.series_reciprocal_s": "s",
    "qseries.series_reciprocal.calls": "count",
    "qseries.rows_json_s": "s",
    "algebraic.series_solve_polynomial_s": "s",
    "algebraic.guess_recurrence.hit_s": "s",
    "algebraic.guess_recurrence.miss_s": "s",
    "algebraic.verify_recurrence_s": "s",
    "algebraic.verify_recurrence.calls": "count",
    "algebraic.recurrence_digits": "count",
    "oracle.count_closed_walks_s": "s",
    "oracle.entries": "count",
    "asymptotics.growth_and_moments_s": "s",
    "asymptotics.find_critical_point_s": "s",
    "asymptotics.find_critical_point.calls": "count",
    "asymptotics.algebraic_critical_point.calls": "count",
    "asymptotics.minimal_poly_check_s": "s",
    "asymptotics.max_residual": "ratio",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "layer.fastseries.self_s": "s",
    "layer.systems.self_s": "s",
    "layer.qseries.self_s": "s",
    "layer.algebraic.self_s": "s",
    "layer.oracle.self_s": "s",
    "layer.asymptotics.self_s": "s",
    "layer.cli.self_s": "s",
    "proc.raw_wall_s": "s",
    "proc.cal_interp_ms": "ms",
    "proc.cal_numpy_ms": "ms",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace_overhead_s": "s",
    "failed_frac": "ratio",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine() -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {
        level: _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        for level, index in (("l2", 2), ("l3", 3))
    }
    return {"nproc": os.cpu_count(), "cpu": model, **caches,
            "python": sys.version.split()[0]}


def commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head and head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:]))
    return head


def worker(args, tmp: Path, env: dict, deadline: float) -> tuple[dict, dict]:
    """Run worker.py in a fresh interpreter; its set-up times and its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)] + ["--corrupt"] * args.corrupt
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    return setup_times(start, doc), doc


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return f"no tail percentile: {len(values)} passes, 11 needed"
    ordered = sorted(values)
    index = len(ordered) - 11
    return f"p{100 * (index + 1) / len(ordered):.0f} {ordered[index]:.4f} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output before the checks (checker self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cogrowth" / "__init__.py").is_file():
        print(f"error: no src/cogrowth under {ROOT}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "commit": commit(),
              "loadavg_before": os.getloadavg()}
    try:
        setup, doc = worker(args, tmp, env, deadline)
        setups = [setup, *doc.pop("setup_probes", [])]
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["loadavg_after"] = os.getloadavg()
    report["machine"]["numpy"] = doc.pop("numpy")
    report.update(doc, setup_samples_s=setups)

    plain = [p for p in doc["passes"] if not p["traced"]]
    walls = [p["ref_wall_s"] for p in plain]
    if args.trace:
        metrics = dict(doc["layer_metrics"], failed_frac=doc["failed"] / doc["attempted"])
        units = PER_LAYER
    else:
        # one pass's time from each request's median over the passes: a
        # host slowdown that the calibration missed spoils one request of
        # one pass, not the whole pass
        metrics = {
            "wall_s": sum(statistics.median(p["request_ref_s"][name] for p in plain)
                          for name in plain[0]["request_ref_s"]),
            "setup_s": statistics.median(s["ref_s"] for s in setups),
            "peak_rss_mib": doc["peak_rss_mib"],
        }
        units = END_TO_END
    correct = doc["failed"] == 0
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-corrupt' * args.corrupt}.json"
    (RUNS / name).write_text(json.dumps(report, indent=1, default=str))

    m = report["machine"]
    print(f"# {args.workload} seed {args.seed}: {m['cpu']}, nproc {m['nproc']}, L2 {m['l2']}, "
          f"L3 {m['l3']}, python {m['python']}, numpy {m['numpy']}, commit {report['commit']}")
    print(f"# load average {report['loadavg_before'][0]:.2f} -> {report['loadavg_after'][0]:.2f}; "
          f"report in {RUNS.name}/{name}")
    print(f"# untraced passes {len(walls)} at reference speed: "
          + " ".join(f"{w:.3f}" for w in walls)
          + f" s; median {statistics.median(walls):.4f} s; {tail(walls)}")
    print("# raw: " + " ".join(f"{p['wall_s']:.3f}" for p in plain) + " s; set-up "
          + " ".join(f"{s['raw_s']:.3f}" for s in setups) + " s")
    for kind in ("interp", "numpy"):
        cals = [[c[kind] for c in p["cal_s"] if kind in c] for p in plain]
        if any(cals):
            print(f"# {kind} loop, median per pass: "
                  + " ".join(f"{1000 * statistics.median(c):.1f}" for c in cals) + " ms")
    if args.trace:
        traced = statistics.median(p["wall_s"] for p in doc["passes"] if p["traced"])
        print("# share of traced pass wall time by layer (self time): " + ", ".join(
            f"{layer.split('.')[1]} {metrics[layer] / traced:.0%}"
            for layer in PER_LAYER if layer.startswith("layer.")))
    for problem in doc["problems"][:20]:
        print(f"# FAILED {problem}")
    for key, unit in units.items():
        print(f"# {key} = {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
