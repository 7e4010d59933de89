"""Command line driver: series dumps, oracle tables, growth reports, guessing.

Output is deterministic: JSON is emitted with sorted keys and fixed
separators, and every integer that can overflow a double is rendered as a
decimal string.  Exit codes: 0 success, 1 computation failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

# series_solve_polynomial is unused here; perfbench/worker.py traces it by this name
from .algebraic import braid_equation, guess_recurrence, series_solve_polynomial
from .asymptotics import (
    algebraic_critical_point,
    algebraic_moments,
    expected_returns,
    exponent_fit,
    find_critical_point,
    growth_and_moments,
    minimal_poly_check,
    variance_sequence,
)
from .groups import BRAID_AXA, BRAID_STANDARD, GroupSpec, parse_group_spec
from .oracle import DEFAULT_STATE_CAP, count_closed_walks, count_one_sided_walks
# solve_series is unused here; perfbench/worker.py traces it by this name
from .systems import group_series, solve_series, system_for

STATE_CAP_ENV = "COGROWTH_STATE_CAP"

AXA_GROWTH_POLY = [-108, 1192, 7788, -12888, -8940, 9136, 6598, -130, -763, -88, 24, 4]
TREFOIL_GROWTH_POLY = [4, 12, -11, -2, 1]  # m^4 - 2m^3 - 11m^2 + 12m + 4
BRAID_GROWTH_POLY = [-7, -2, 1]
TREFOIL_VARIANCE_POLY = [-1, -60, 512, -904, 452]  # sigma^2 is its smallest positive root


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("order must be >= 0")
    return value


def _dump(doc, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("n,m,count\n")
        for n, m, v in rows:
            fh.write(f"{n},{m},{v}\n")


def cmd_series(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.group)
    series = group_series(spec, args.order, args.unknown)
    doc = {"group": args.group, "order": args.order, "unknown": args.unknown or "F"}
    if args.q0:
        center = [p.coeff(0) for p in series.coeffs]
        doc["q0"] = [str(v) for v in center]
        if args.out:
            _dump(doc, args.out)
        else:
            print(",".join(doc["q0"]))
        cells = ((n, 0, v) for n, v in enumerate(center))
    else:
        doc["rows"] = series.rows_json()
        _dump(doc, args.out)
        cells = ((n, m, v) for n, p in enumerate(series.coeffs) for m, v in p.pairs())
    if args.csv:
        _write_csv(args.csv, cells)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.group)
    cap = int(os.environ.get(STATE_CAP_ENV, DEFAULT_STATE_CAP))
    if args.facet is None:
        table = count_closed_walks(spec, args.order, max_len_cap=args.order, state_cap=cap)
    else:
        table = count_one_sided_walks(
            spec, args.facet, args.order, max_len_cap=args.order, state_cap=cap
        )
    counts = table.rows_json()
    _dump({"group": args.group, "counts": counts}, args.out)
    if args.csv:
        _write_csv(args.csv, ((c["n"], c["m"], c["f"]) for c in counts))
    return 0


def _growth(spec: GroupSpec) -> float:
    if spec.variant == BRAID_STANDARD:
        return 1.0 / algebraic_critical_point(braid_equation(), 1.0).z_c
    return 1.0 / find_critical_point(system_for(spec), 1.0).z_c


def cmd_cogrowth(args: argparse.Namespace) -> int:
    mu = _growth(parse_group_spec(args.group))
    print(f"{mu:.{args.digits}f}")
    return 0


def _growth_poly(spec: GroupSpec) -> list[int] | None:
    if spec.variant == BRAID_STANDARD:
        return BRAID_GROWTH_POLY
    if spec.variant == BRAID_AXA:
        return AXA_GROWTH_POLY
    if spec.periods == (2, 3):
        return TREFOIL_GROWTH_POLY
    if all(p == 2 for p in spec.periods):
        return [-16 * (len(spec.periods) - 1), 0, 1]
    return None


def cmd_asymptotics(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.group)
    if spec.variant == BRAID_STANDARD:
        law = algebraic_moments(braid_equation())
    else:
        law = growth_and_moments(system_for(spec))
    series = group_series(spec, args.order, None)
    center = [p.coeff(0) for p in series.coeffs]
    try:
        alpha, amplitude = exponent_fit(center, law.mu)
    except ValueError:
        alpha = amplitude = None
    masses = [p.eval_at_one() for p in series.coeffs]
    returns = expected_returns(masses, spec.generator_count)
    var = variance_sequence(series.coeffs)
    top = max((n for n, m in enumerate(masses) if n and m), default=0)
    doc = {
        "group": args.group,
        "order": args.order,
        "mu": law.mu,
        "lambda": law.lam,
        "sigma2": law.sigma2,
        "alpha": alpha,
        "amplitude": amplitude,
        "vn_max": max(returns),
        "variance_slope": var.values[top] / top if top else 0.0,
    }
    poly = _growth_poly(spec)
    if poly is not None:
        doc["poly_residual"] = minimal_poly_check(law.mu, poly).residual
    _dump(doc, args.out)
    return 0


def cmd_guess(args: argparse.Namespace) -> int:
    with open(args.infile) as fh:
        raw = json.load(fh)
    seq = [int(v) for v in raw]
    rec = guess_recurrence(seq, args.max_order, args.max_degree)
    if rec is None:
        print("no recurrence found within the given shape", file=sys.stderr)
        return 1
    _dump(rec.to_json(), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import pytest

    target = None
    for base in (os.getcwd(), os.path.dirname(os.path.dirname(os.path.dirname(__file__)))):
        cand = os.path.join(base, "tests", "test_acceptance.py")
        if os.path.exists(cand):
            target = cand
            break
    if target is None:
        print("tests/test_acceptance.py not found; run from the repo root", file=sys.stderr)
        return 1

    results: dict[int, bool] = {}

    class Collector:
        def pytest_runtest_logreport(self, report):
            m = re.search(r"test_c(\d\d)", report.nodeid)
            if not m:
                return
            cid = int(m.group(1))
            if report.when == "call" or report.failed:
                results[cid] = results.get(cid, True) and not report.failed

    marker = "fastsuite" if args.suite == "fast" else "acceptance"
    code = pytest.main(["-q", "-m", marker, target], plugins=[Collector()])
    doc = {
        "suite": args.suite,
        "criteria": [{"id": cid, "passed": results[cid]} for cid in sorted(results)],
        "passed": code == 0,
    }
    _dump(doc, args.out)
    return 0 if code == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cogrowth")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, order_flag="--order"):
        p.add_argument("--group", required=True)
        p.add_argument(order_flag, dest="order", type=nonnegative, required=True)
        p.add_argument("--out")

    p = sub.add_parser("series", help="exact q-tracked series of a group")
    common(p)
    p.add_argument("--csv")
    p.add_argument("--q0", action="store_true", help="center column only")
    p.add_argument("--unknown", help="system unknown instead of F, e.g. L0:1")

    p = sub.add_parser("oracle", help="brute-force walk counts")
    common(p, order_flag="--max-len")
    p.add_argument("--csv")
    p.add_argument("--facet", type=int)

    p = sub.add_parser("cogrowth", help="print the growth rate")
    p.add_argument("--group", required=True)
    p.add_argument("--digits", type=int, default=8)

    p = sub.add_parser(
        "asymptotics",
        help="growth/moment report; alpha needs --order >= 200, "
        "or >= 400 for parity-locked presentations",
    )
    common(p)

    p = sub.add_parser("guess", help="fit a polynomial-coefficient recurrence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=("paper", "fast"), required=True)
    p.add_argument("--out")
    return top


_HANDLERS = {
    "series": cmd_series,
    "oracle": cmd_oracle,
    "cogrowth": cmd_cogrowth,
    "asymptotics": cmd_asymptotics,
    "guess": cmd_guess,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
