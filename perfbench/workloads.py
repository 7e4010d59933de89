"""The benchmark's workloads: request lists made from a seed, and output checks.

Each workload is a fixed list of requests; the seed only picks orders from a
narrow band around the nominal ones (for exact, only the collapsed solve's),
the q sample points and the offsets into the stored guess sequences, so the
work per pass is about the same for every seed.  Requests reach cogrowth
through ``cogrowth.cli.main`` or through public functions looked up on their
module at call time, so a traced run can wrap them.  Checks run after the
timed passes.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cogrowth.algebraic as algebraic
import cogrowth.asymptotics as asymptotics
import cogrowth.cli as cli
import cogrowth.fastseries as fastseries
import cogrowth.systems as systems
from cogrowth.groups import parse_group_spec

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
REFERENCE = HERE / "reference.json"

# lanes: the trefoil order stays above 255, where the winding window needs
# more than 256 lanes; the braid order stays well below it.
TREFOIL_ORDERS = range(258, 263)
BRAID_ORDERS = range(147, 154)

# exact: the order of each `cogrowth series` request.  A request's cost rises
# steeply with its order, so the seed leaves these fixed and varies only the
# collapsed solve's order, by at most 1 %, to keep the work per pass the same.
SERIES_ORDERS = {"G(2,3)": 70, "G(3,4)": 60, "G(2,2,2)": 60, "B3-axa": 50, "B3-standard": 110}
SERIES_TAGS = {"G(2,3)": "star", "G(3,4)": "star", "G(2,2,2)": "star3", "B3-axa": "axa", "B3-standard": "standard"}
COLLAPSED_ORDERS = range(396, 405, 4)
ORACLE_MAX_LEN = 11

# derive
MOMENT_GROUPS = ("G(2,3)", "G(3,4)", "G(2,2,2)", "G(2,2,2,2)", "G(3,5)", "B3-axa")
CRITICAL_GROUPS = ("G(2,3)", "B3-axa")
CRITICAL_POINTS = 8
Q_RANGE = (0.7, 1.4)
GUESS_TERMS = 420
GUESS_OFFSETS = range(0, 11)
GUESS_SHAPES = {"hit": (12, 24), "miss": (10, 24)}  # --max-order, --max-degree
HIT_SHAPE = (12, 4)  # order and degree of the recurrence the hit must return
MINPOLY_CHECKS = {  # growth constant -> minimal polynomial
    "G(2,3)": cli.TREFOIL_GROWTH_POLY,
    "B3-standard": cli.BRAID_GROWTH_POLY,
    "B3-axa": cli.AXA_GROWTH_POLY,
}


@dataclass
class CliResult:
    code: int
    stderr: str
    out: Path


@dataclass
class Request:
    name: str  # unique within a pass
    tag: str  # groups spans for the per-layer metrics
    key: str | None  # names the variant whose exact output has a reference digest
    call: Callable[[Path], object]  # runs the request; files go under the given directory
    digest: Callable[[object], str] | None = None
    counts: Callable[[object], dict] = lambda result: {}
    bound: str = "interp"  # "numpy" if its time goes to numpy kernels; picks the calibration loop


@dataclass
class Workload:
    requests: list[Request]
    check: Callable[[dict], dict]  # outputs by request name -> problems by request name


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rows_digest(series) -> str:
    return _sha(json.dumps(series.rows_json(), separators=(",", ":")).encode())


def file_digest(result: CliResult) -> str:
    return _sha(result.out.read_bytes())


def exit_digest(result: CliResult) -> str:
    return _sha(f"exit {result.code}\n{result.stderr}".encode())


def run_cli(argv: list[str], out: Path) -> CliResult:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    return CliResult(code, err.getvalue(), out)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------- lanes


def lanes(rng: random.Random, tmp: Path) -> Workload:
    plan = {
        "trefoil": (algebraic.trefoil_equation(), rng.choice(TREFOIL_ORDERS)),
        "braid": (algebraic.braid_equation(), rng.choice(BRAID_ORDERS)),
    }
    requests = [
        Request(
            name,
            name,
            f"{name} @{order}",
            lambda _out, eq=eq, order=order: fastseries.high_order_rows(eq, order),
            rows_digest,
            lambda s: {"fastseries.coeffs": sum(len(p.pairs()) for p in s.coeffs)},
            bound="numpy",
        )
        for name, (eq, order) in plan.items()
    ]

    @functools.cache
    def expected(name):
        eq, order = plan[name]
        return (
            fastseries.series_at_q1(eq, order),
            algebraic.series_solve_polynomial(eq, 1, min(order, 60)).coeffs,
        )

    def check(outputs):
        problems = {}
        for name, series in outputs.items():
            sums, low = expected(name)
            found = []
            if any(not p.is_symmetric() for p in series.coeffs):
                found.append("a row is not symmetric under q -> 1/q")
            if [p.eval_at_one() for p in series.coeffs] != sums:
                found.append("row sums differ from series_at_q1")
            if series.coeffs[: len(low)] != low:
                found.append("rows n <= 60 differ from series_solve_polynomial")
            problems[name] = found
        return problems

    return Workload(requests, check)


# ---------------------------------------------------------------- exact


def _rows_from_json(doc) -> list[dict[int, int]]:
    return [{int(m): int(c) for m, c in row["q"]} for row in doc["rows"]]


def exact(rng: random.Random, tmp: Path) -> Workload:
    requests = []
    for group, order in SERIES_ORDERS.items():
        argv = ["series", "--group", group, "--order", str(order)]
        requests.append(
            Request(
                f"series {group}",
                SERIES_TAGS[group],
                f"series {group} @{order}",
                lambda out, argv=argv, group=group: run_cli(argv, out / f"series-{group}.json"),
                file_digest,
                lambda r: {"cli.out_bytes": r.out.stat().st_size},
            )
        )
    collapsed = systems.forget_winding(systems.build_star_system(parse_group_spec("G(2,3)")))
    order = rng.choice(COLLAPSED_ORDERS)
    requests.append(
        Request(
            "collapsed G(2,3)",
            "collapsed",
            f"collapsed G(2,3) @{order}",
            lambda _out, order=order: systems.solve_series(collapsed, order),
            lambda sol: _sha(
                json.dumps(
                    {"F": sol.F.rows_json(), **{u: s.rows_json() for u, s in sol.series.items()}},
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode()
            ),
        )
    )
    for group in SERIES_ORDERS:
        argv = ["oracle", "--group", group, "--max-len", str(ORACLE_MAX_LEN)]
        requests.append(
            Request(
                f"oracle {group}",
                "oracle",
                f"oracle {group} @{ORACLE_MAX_LEN}",
                lambda out, argv=argv, group=group: run_cli(argv, out / f"oracle-{group}.json"),
                file_digest,
                lambda r: {
                    "cli.out_bytes": r.out.stat().st_size,
                    "oracle.entries": len(json.loads(r.out.read_text())["counts"]),
                },
            )
        )

    def check(outputs):
        problems = {name: [] for name in outputs}
        rows = {}
        for name, result in outputs.items():
            if isinstance(result, CliResult):
                if result.code != 0:
                    problems[name].append(f"exit code {result.code}: {result.stderr.strip()}")
                    continue
                doc = json.loads(result.out.read_text())
                if name.startswith("series "):
                    rows[name] = _rows_from_json(doc)
                    if any(row.get(-m) != c for row in rows[name] for m, c in row.items()):
                        problems[name].append("a row is not symmetric under q -> 1/q")
                else:
                    rows[name] = doc["counts"]
        for group in SERIES_ORDERS:
            series, oracle = rows.get(f"series {group}"), rows.get(f"oracle {group}")
            if series is None or oracle is None:
                continue
            table: dict[tuple[int, int], int] = {}
            for entry in oracle:
                table[entry["n"], entry["m"]] = int(entry["f"])
            for n in range(ORACLE_MAX_LEN + 1):
                want = {m: f for (nn, m), f in table.items() if nn == n}
                if {m: c for m, c in series[n].items() if c} != want:
                    problems[f"series {group}"].append(f"row {n} differs from the oracle")
                    break
        sol = outputs.get("collapsed G(2,3)")
        full = rows.get("series G(2,3)")
        if sol is not None and full is not None:
            masses = [sum(row.values()) for row in full]
            if [p.eval_at_one() for p in sol.F.coeffs[: len(masses)]] != masses:
                problems["collapsed G(2,3)"].append("q = 1 counts differ from the G(2,3) series rows")
        return problems

    return Workload(requests, check)


# ---------------------------------------------------------------- derive


def _system(group: str):
    if group == "B3-axa":
        return systems.build_axa_system()
    return systems.build_star_system(parse_group_spec(group))


def load_guess_input(kind: str) -> list[int]:
    """Read a stored sequence and check it against its recorded sha256."""
    manifest = json.loads((INPUTS / "MANIFEST.json").read_text())[kind]
    data = (INPUTS / manifest["file"]).read_bytes()
    if _sha(data) != manifest["sha256"]:
        raise RuntimeError(f"input {manifest['file']} does not match its sha256")
    return [int(v) for v in json.loads(data)]


def _expected_mu(group: str, mu: float, ref: dict) -> str | None:
    """A problem with the growth constant mu, or None."""
    periods = group[2:-1].split(",") if group.startswith("G(") else []
    if set(periods) == {"2"}:
        k = len(periods)
        want, tol = 4 * math.sqrt(k - 1), 1e-10
    elif group == "B3-standard":
        want, tol = 1 + 2 * math.sqrt(2), 1e-8
    else:
        want, tol = ref[group], 1e-9 * ref[group]
    if abs(mu - want) > tol:
        return f"mu = {mu!r}, expected {want!r}"
    poly = MINPOLY_CHECKS.get(group)
    if poly is not None:
        residual = sum(c * mu**i for i, c in enumerate(poly))
        if abs(residual) > 1e-6:
            return f"mu = {mu!r} leaves minimal-polynomial residual {residual:g}"
    return None


def derive(rng: random.Random, tmp: Path) -> Workload:
    ref_mu = load_reference()["mu"]
    requests = []
    for group in MOMENT_GROUPS:
        system = _system(group)
        requests.append(
            Request(f"moments {group}", "moments", None,
                    lambda _out, system=system: asymptotics.growth_and_moments(system))
        )
    braid = algebraic.braid_equation()
    requests.append(
        Request("moments B3-standard", "moments", None,
                lambda _out: asymptotics.algebraic_moments(braid))
    )
    for group in CRITICAL_GROUPS:
        system = _system(group)
        qs = sorted(rng.uniform(*Q_RANGE) for _ in range(CRITICAL_POINTS))
        requests.append(
            Request(
                f"critical {group}",
                "critical",
                None,
                lambda _out, system=system, qs=qs: [
                    asymptotics.find_critical_point(system, q) for q in qs
                ],
            )
        )
    requests.append(
        Request(
            "minpoly",
            "minpoly",
            None,
            lambda _out: {
                group: asymptotics.minimal_poly_check(ref_mu[group], poly)
                for group, poly in MINPOLY_CHECKS.items()
            },
            bound="numpy",  # a sign scan over a 2,000,001-point grid
        )
    )
    sequences = {}
    for kind, (max_order, max_degree) in GUESS_SHAPES.items():
        offset = rng.choice(GUESS_OFFSETS)
        seq = load_guess_input(kind)[offset : offset + GUESS_TERMS]
        path = tmp / f"guess-{kind}-{offset}.json"
        path.write_text(json.dumps([str(v) for v in seq]))
        sequences[f"guess {kind}"] = seq
        argv = ["guess", "--in", str(path), "--max-order", str(max_order),
                "--max-degree", str(max_degree)]
        requests.append(
            Request(
                f"guess {kind}",
                kind,
                f"guess {kind} @{offset}",
                lambda out, argv=argv, kind=kind: run_cli(argv, out / f"guess-{kind}.json"),
                file_digest if kind == "hit" else exit_digest,
                _guess_counts,
                bound="numpy",  # the prefilter scan
            )
        )

    def check(outputs):
        problems = {name: [] for name in outputs}
        for name, result in outputs.items():
            kind, _, group = name.partition(" ")
            found = problems[name]
            if kind == "moments":
                issue = _expected_mu(group, result.mu, ref_mu)
                if issue:
                    found.append(issue)
                if not (abs(result.lam) < 1e-6 and result.sigma2 > 0):
                    found.append(f"moments lam={result.lam!r}, sigma2={result.sigma2!r}")
            elif kind == "critical":
                z1 = 1 / ref_mu[group]
                for cp in result:
                    if not (0 < cp.z_c <= z1 * (1 + 1e-9)) or max(cp.residuals) > 1e-12:
                        found.append(f"critical point at q = {cp.q!r}: z_c = {cp.z_c!r}, "
                                     f"residuals {cp.residuals}")
            elif kind == "minpoly":
                for g, pc in result.items():
                    if abs(pc.residual) > 1e-6 or not pc.is_largest_positive:
                        found.append(f"{g}: residual {pc.residual:g}, largest {pc.largest_positive!r}")
            elif name == "guess hit":
                if result.code != 0:
                    found.append(f"exit code {result.code}: {result.stderr.strip()}")
                    continue
                rec = algebraic.Recurrence.from_json(json.loads(result.out.read_text()))
                if (rec.order, rec.degree) != HIT_SHAPE:
                    found.append(f"recurrence shape {(rec.order, rec.degree)}, expected {HIT_SHAPE}")
                elif not algebraic.verify_recurrence(rec, sequences[name]):
                    found.append("recurrence fails verify_recurrence")
            elif name == "guess miss":
                if result.code != 1 or "no recurrence found" not in result.stderr:
                    found.append(f"expected exit 1 with 'no recurrence found', got {result.code}")
        return problems

    return Workload(requests, check)


def _guess_counts(result: CliResult) -> dict:
    if not result.out.exists():  # the miss writes no recurrence
        return {}
    coeffs = json.loads(result.out.read_text())["coeffs"]
    return {
        "algebraic.recurrence_digits": max(len(v.lstrip("-")) for _, _, v in coeffs),
        "cli.out_bytes": result.out.stat().st_size,
    }


WORKLOADS = {"lanes": lanes, "exact": exact, "derive": derive}


def prepare(name: str, seed: int, tmp: Path) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tmp)
