"""Regenerate the benchmark's stored inputs or its reference outputs.

    python3 perfbench/record.py inputs     # inputs/*.json and inputs/MANIFEST.json
    python3 perfbench/record.py reference  # reference.json

Run from the root of a checkout with PYTHONPATH=src.  The reference holds the
sha256 of every exact output for every order and offset a seed can pick, plus
the growth constants that have no closed form, so every run of any seed is
checked bit for bit.  Record it only on a commit whose outputs are trusted.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import cogrowth.algebraic as algebraic
import cogrowth.asymptotics as asymptotics
import cogrowth.systems as systems
from cogrowth.groups import parse_group_spec

import workloads

INPUT_SOURCES = {
    "hit": (
        "guess_hit.json",
        "q = 1 counts of L0_1 of G(3,4): "
        "solve_series(forget_winding(build_star_system(G(3,4))), 430).series['L0_1']",
    ),
    "miss": (
        "guess_miss.json",
        "q = 1 counts of B3-axa: series_solve_polynomial(axa_q1_equation(), 1, 430)",
    ),
}
INPUT_ORDER = workloads.GUESS_TERMS + max(workloads.GUESS_OFFSETS)


def record_inputs() -> None:
    star = systems.forget_winding(systems.build_star_system(parse_group_spec("G(3,4)")))
    sequences = {
        "hit": systems.solve_series(star, INPUT_ORDER).series["L0_1"].coeffs,
        "miss": algebraic.series_solve_polynomial(
            algebraic.axa_q1_equation(), 1, INPUT_ORDER
        ).coeffs,
    }
    manifest = {}
    workloads.INPUTS.mkdir(exist_ok=True)
    for kind, (name, source) in INPUT_SOURCES.items():
        data = json.dumps([str(p.eval_at_one()) for p in sequences[kind]]).encode()
        (workloads.INPUTS / name).write_bytes(data)
        manifest[kind] = {
            "file": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "terms": len(sequences[kind]),
            "source": source,
            "generator": "python3 perfbench/record.py inputs",
        }
    (workloads.INPUTS / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")


class Pinned:
    """Stands in for the seeded generator: always the i-th choice (clamped)."""

    def __init__(self, index: int):
        self.index = index

    def choice(self, options):
        return options[min(self.index, len(options) - 1)]

    def uniform(self, lo, hi):
        return (lo + hi) / 2


def record_reference() -> None:
    mu = {
        group: 1.0 / asymptotics.find_critical_point(workloads._system(group), 1.0).z_c
        for group in ("G(2,3)", "G(3,4)", "G(3,5)", "B3-axa")
    }
    mu["B3-standard"] = asymptotics.algebraic_moments(algebraic.braid_equation()).mu
    reference = {"mu": mu, "digests": {}}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    widest = max(len(workloads.GUESS_OFFSETS), len(workloads.BRAID_ORDERS),
                 len(workloads.TREFOIL_ORDERS), len(workloads.COLLAPSED_ORDERS))
    with tempfile.TemporaryDirectory(dir=workloads.HERE.parent / ".perfbench_runs") as tmp:
        out = Path(tmp)
        for name, build in workloads.WORKLOADS.items():
            digests = reference["digests"].setdefault(name, {})
            for i in range(widest):
                for req in build(Pinned(i), out).requests:
                    if req.digest is None or req.key in digests:
                        continue
                    digests[req.key] = req.digest(req.call(out))
                    print(name, req.key, digests[req.key][:16], flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    {"inputs": record_inputs, "reference": record_reference}[sys.argv[1]]()
