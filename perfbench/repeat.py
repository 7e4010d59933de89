"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workloads lanes exact derive --seeds 1-10 \
        [--seconds 36] [--out FILE]

For each workload and metric it prints the median, the quartiles and the
spread (quartile distance over median), as statistics.quantiles gives them,
and writes the same numbers as JSON to --out.  Runs go one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="36")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    doc = {}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        doc[workload] = {name: summary(values) for name, values in metrics.items()}
        for name, s in doc[workload].items():
            print(f"{workload} {name}: median {s['median']:.4f} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.2%}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
