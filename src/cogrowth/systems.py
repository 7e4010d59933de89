"""Finite algebraic systems for the walk generating functions, solved exactly.

A star-polygon group's Schreier graph is a tree of polygons sharing the root
vertex, so one-sided return series L_r obey a small polynomial system; the
full return series F follows from the primitive-return series of each facet.
The axa presentation of the braid group glues its polygons along edges
instead, which needs the bigger G/L/F system.  A system maps each unknown
to its equation, a flat list of monomial terms, and the map's order is the
evaluation order.  Every monomial either carries an explicit z or a factor
with no constant term, which makes coefficient n of the solution depend only
on data already computed when equations are evaluated in order.  F is the
system's main unknown; a star system has none, and _assembled adds F = 1 +
sum of F*P_i over its facets.  solve_series hands the system to the lane
engine (fastseries.system_rows), which solves it order by order modulo
primes and lifts exact integer rows of the series its caller returns;
SeriesSolution.residual_ok checks a solution by exact substitution.
B3-standard's system is its eliminated cubic (algebraic.braid_equation)
lowered to F = 1 + z*H (fastseries.equation_system), so every presentation
has one system.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .algebraic import braid_equation
# Term and EquationSystem live beside the kernel that interprets them
from .fastseries import EquationSystem, Term, equation_system, system_rows
from .groups import BRAID_AXA, GroupSpec, STAR_POLYGON
# series_reciprocal is unused here; perfbench/worker.py traces it by this name
from .qseries import (
    QPolynomial,
    QZSeries,
    parity_transform,
    series_add,
    series_mul,
    series_reciprocal,
)


@dataclass
class SeriesSolution:
    """Exact rows of every unknown of system (series, by name) and of the
    assembled return series F; auxiliaries added for F are not kept."""

    system: EquationSystem
    order: int
    series: dict[str, QZSeries]
    F: QZSeries

    def residual_ok(self) -> bool:
        """Substitute the solution back into every equation, exactly.

        Each product of factors is formed once, in integers, and each group
        of terms sharing z_pow and factors multiplies it by its coefficient.
        """
        products: dict[tuple[str, ...], QZSeries] = {}
        for u in self.system.unknowns:
            rhs = QZSeries(self.order)
            for (z_pow, factors), pairs in self.system.grouped(u).items():
                if factors not in products:
                    products[factors] = QZSeries.one(self.order)
                    for f in factors:
                        products[factors] = series_mul(products[factors], self.series[f])
                part = QZSeries(self.order)
                if z_pow <= self.order:
                    part.coeffs[z_pow] = QPolynomial.from_pairs((e, c) for c, e in pairs)
                rhs = series_add(rhs, series_mul(part, products[factors]))
            if rhs != self.series[u]:
                return False
        return True


def l_name(r: int, facet: int) -> str:
    return f"L{r}_{facet}"


def build_star_system(spec: GroupSpec) -> EquationSystem:
    """One-sided return equations, one band of L's per facet.

    Around facet i's polygon (p = p_i sides), L_r counts one-sided walks from
    distance r back to the root.  Stepping toward the root from distance p-1
    closes a loop around the polygon (winding +1, weight q); stepping from the
    root to distance p-1 opens one negatively (weight 1/q).  Between visits at
    distance r >= 1 the walk may detour into the other facets' subtrees
    hanging there; the detour factor is the series of arbitrary sequences of
    primitive loops into those subtrees.  With two generators that is exactly
    the other root's L0, so the system stays on the L unknowns alone.  With
    more it is 1/(1 - sum of the other primitive series), which needs three
    small auxiliaries per facet to stay polynomial: U_i = L0_i - 1, the
    primitive-return series P_i = U_i/(1 + U_i), and the detour R_i with
    R_i = 1 + R_i*(sum of P_j over j != i).  A 2-gon has no middle band and
    its boundary equations collapse onto L0 and L1 alone.
    """
    if spec.variant != STAR_POLYGON:
        raise ValueError("star system needs a star-polygon spec")
    equations: dict[str, list[Term]] = {}
    roots: dict[int, str] = {}
    k = spec.generator_count
    for i in range(1, k + 1):
        p = spec.periods[i - 1]
        roots[i] = l_name(0, i)
        detours = [l_name(0, 3 - i)] if k == 2 else [f"R{i}"]
        equations[l_name(0, i)] = [
            Term(1, 0, 0),
            Term(1, 1, 0, (l_name(1, i),)),
            Term(1, 1, 1, (l_name(p - 1, i),)),
        ]
        for r in range(1, p - 1):
            equations[l_name(r, i)] = [
                Term(1, 1, 0, (l_name(r - 1, i), d)) for d in detours
            ] + [Term(1, 1, 0, (l_name(r + 1, i), d)) for d in detours]
        # r = p-1: the inward neighbour is the root, reached with weight 1/q
        equations[l_name(p - 1, i)] = [
            Term(1, 1, 0, (l_name(p - 2, i), d)) for d in detours
        ] + [Term(1, 1, -1, (l_name(0, i), d)) for d in detours]
    if k > 2:
        _add_primitives(equations, roots)
        for i in range(1, k + 1):
            equations[f"R{i}"] = [Term(1, 0, 0)] + [
                Term(1, 0, 0, (f"R{i}", f"P{j}"))
                for j in range(1, k + 1)
                if j != i
            ]
    system = EquationSystem(equations, facet_roots=roots)
    system.check_invariant()
    return system


def build_axa_system() -> EquationSystem:
    """The edge-glued system for the axa presentation, Delta = x^3.

    Vertices 0, 1, 2 are the cosets of the central triangle; F_0j counts walks
    from the root to vertex j, G_0j the same on the graph with one branch
    removed, and the L's are primitive loops between triangle vertices.  The
    single steps that close the triangle carry the q-weights.
    """
    t = Term
    equations = {
        "L00": [t(1, 2, 0, ("G00",))],
        "L01": [t(1, 1, 0), t(1, 2, 0, ("G02",))],
        "L10": [t(1, 1, 0), t(1, 2, 0, ("G20",))],
        "G00": [t(1, 0, 0), t(1, 0, 0, ("G00", "L00")), t(1, 0, 0, ("G01", "L10")),
                t(1, 1, 1, ("G02",))],
        "G01": [t(1, 0, 0, ("G00", "L01")), t(2, 0, 0, ("G01", "L00")),
                t(1, 0, 0, ("G02", "L10"))],
        "G02": [t(1, 1, -1, ("G00",)), t(1, 0, 0, ("G01", "L01")),
                t(1, 0, 0, ("G02", "L00"))],
        "G10": [t(2, 0, 0, ("L00", "G10")), t(1, 0, 0, ("L10", "G00")),
                t(1, 0, 0, ("L01", "G20"))],
        "G20": [t(1, 0, 0, ("L00", "G20")), t(1, 0, 0, ("L10", "G10")),
                t(1, 1, 1, ("G00",))],
        "F00": [t(1, 0, 0), t(2, 0, 0, ("F00", "L00")), t(1, 0, 0, ("F01", "L10")),
                t(1, 0, 1, ("F02", "L01"))],
        "F01": [t(1, 0, 0, ("F00", "L01")), t(2, 0, 0, ("F01", "L00")),
                t(1, 0, 0, ("F02", "L10"))],
        "F02": [t(1, 0, -1, ("F00", "L10")), t(1, 0, 0, ("F01", "L01")),
                t(2, 0, 0, ("F02", "L00"))],
    }
    system = EquationSystem(equations, main="F00")
    system.check_invariant()
    return system


def _add_primitives(equations: dict[str, list[Term]], roots: dict[int, str]) -> None:
    """Add U_i = root_i - 1 for each facet i of roots, then the primitive
    series P_i = U_i - P_i*U_i (that is, 1 - 1/root_i), to equations."""
    for i, root in roots.items():
        equations[f"U{i}"] = [t for t in equations[root] if t != Term(1, 0, 0)]
        if len(equations[f"U{i}"]) != len(equations[root]) - 1:
            raise ValueError(f"{root} needs the constant term 1")
    for i in roots:
        equations[f"P{i}"] = [Term(1, 0, 0, (f"U{i}",)), Term(-1, 0, 0, (f"P{i}", f"U{i}"))]


def _assembled(system: EquationSystem) -> EquationSystem:
    """system with F as its main unknown: system itself if it has one.

    A star system's F = 1/(1 - sum of P_i) becomes the new unknown F = 1 +
    sum of F*P_i, after U_i and P_i are added for each facet that has no P_i
    equation yet (two generators).  The input is not changed.  Raises
    ValueError for a system with neither a main unknown nor facet roots.
    """
    if system.main:
        return system
    if not system.facet_roots:
        raise ValueError("no main unknown and no facet roots to assemble F from")
    equations = dict(system.equations)
    _add_primitives(
        equations, {i: r for i, r in system.facet_roots.items() if f"P{i}" not in equations}
    )
    equations["F"] = [Term(1, 0, 0)] + [Term(1, 0, 0, ("F", f"P{i}")) for i in system.facet_roots]
    return EquationSystem(equations, system.facet_roots, "F")


def solve_series(system: EquationSystem, order: int) -> SeriesSolution:
    """Exact series solution to the given z-order, plus the assembled F.

    Equivalent to iterating the fixed point Y <- Phi(z, Y, q) from Y = 0 until
    stable; the lane engine (fastseries.system_rows) computes each
    coefficient once, evaluating the unknowns in system order, and lifts the
    unknowns of system and F only.
    """
    full = _assembled(system)
    rows = system_rows(full, order, list(dict.fromkeys([*system.unknowns, full.main])))
    return SeriesSolution(system, order, {u: rows[u] for u in system.unknowns}, rows[full.main])


def system_for(spec: GroupSpec) -> EquationSystem:
    """The equation system of a presentation: the star or axa system, or
    B3-standard's lowered cubic F = 1 + z*H."""
    if spec.variant == STAR_POLYGON:
        return build_star_system(spec)
    if spec.variant == BRAID_AXA:
        return build_axa_system()
    return equation_system(braid_equation())


def solve_group(spec: GroupSpec, order: int) -> SeriesSolution:
    return solve_series(system_for(spec), order)


def group_series(spec: GroupSpec, order: int, unknown: str | None) -> QZSeries:
    """Exact rows up to z^order of one series of a presentation: F, or the
    system unknown named by unknown ("L0:1" names L0_1).  Only that series
    is lifted.  F counts words of length n, so its CRT bound is at most
    2 * (2k)^n for k generators.

    Raises ValueError, before any solving, if unknown is not an unknown of
    the presentation's system.
    """
    system, bound = system_for(spec), None
    if not unknown:
        system = _assembled(system)
        name, bound = system.main, 2 * (2 * spec.generator_count) ** order
    else:
        name = unknown.replace(":", "_")
        if name not in system.unknowns:
            raise ValueError(f"unknown series {unknown!r}; have {sorted(system.unknowns)}")
    return system_rows(system, order, [name], bound)[name]


def forget_winding(system: EquationSystem) -> EquationSystem:
    """Zero out every winding mark, counting walks by length alone.

    The collapsed system has constant q-polynomials throughout, so solving it
    to high order is much cheaper than the full two-variable solve.
    """
    return replace(
        system,
        equations={u: [replace(t, q_pow=0) for t in terms] for u, terms in system.equations.items()},
    )


def ktree_closed_form(k: int, n_max: int) -> tuple[list[int], list[int]]:
    """Even-length walk counts for the all-2-periods group, in closed form.

    Returns ([z^{2n}]T_k, [q^0 z^{2n}]F_k) for n = 0..n_max, where T_k counts
    closed walks on the k-regular tree of 2-gons ignoring winding and the
    cogrowth coefficient is binom(2n, n) times it.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    tree = [1]
    cogrowth = [1]
    for n in range(1, n_max + 1):
        total = k * sum(
            (k - 1) ** m * (n - m) * comb(2 * n, m) for m in range(n)
        )
        q, r = divmod(total, n)
        if r:
            raise ArithmeticError(f"tree-walk count not integral at n={n}")
        tree.append(q)
        cogrowth.append(comb(2 * n, n) * q)
    return tree, cogrowth


@dataclass
class ConeReport:
    parity_class: str
    checked: int
    first_violation: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


def cone_positivity_check(F: QZSeries, spec: GroupSpec) -> ConeReport:
    """Strict positivity of f_{n,m} inside the reachable winding cone.

    Even periods only: check the halved series d_{n,m} = f_{2n,m} against
    |m| <= floor(2n/p), p the shortest period.  Odd periods only: f_{n,m} with
    n = m (mod 2) and |m| <= floor(n/p).  Mixed: the cheapest full loop
    combines the shortest even and odd facets, cone |m| <= floor(n/(pe*po)),
    entered once n >= pe+po; below that only even lengths return at m = 0.
    """
    if spec.variant != STAR_POLYGON:
        raise ValueError("cone check applies to star-polygon specs")
    evens = [p for p in spec.periods if p % 2 == 0]
    odds = [p for p in spec.periods if p % 2]
    if not odds:
        parity, series, p = "even", parity_transform(F, "even"), min(evens)
        cells = [(n, m) for n in range(series.order + 1) for m in range(-(2 * n // p), 2 * n // p + 1)]
    elif not evens:
        parity, series, p = "odd", F, min(odds)
        cells = [
            (n, m) for n in range(F.order + 1) for m in range(-(n // p), n // p + 1) if (n - m) % 2 == 0
        ]
    else:
        parity, series, p = "mixed", F, min(evens) * min(odds)
        entry = min(evens) + min(odds)
        cells = [(n, 0) for n in range(0, min(entry, F.order + 1), 2)] + [
            (n, m) for n in range(entry, F.order + 1) for m in range(-(n // p), n // p + 1)
        ]
    bad = (cell for cell in cells if series.coeffs[cell[0]].coeff(cell[1]) <= 0)
    return ConeReport(parity, len(cells), next(bad, None))
