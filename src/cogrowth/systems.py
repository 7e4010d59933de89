"""Finite algebraic systems for the walk generating functions, solved exactly.

A star-polygon group's Schreier graph is a tree of polygons sharing the root
vertex, so one-sided return series L_r obey a small polynomial system; the
full return series F follows from the primitive-return series of each facet.
The axa presentation of the braid group glues its polygons along edges
instead, which needs the bigger G/L/F system.  Each equation is a flat list
of monomial terms, and every monomial either carries an explicit z or a
factor with no constant term, which makes coefficient n of the solution
depend only on data already computed when equations are evaluated in order.
solve_series hands the system to the lane engine (fastseries.system_rows),
which solves it order by order modulo primes and lifts exact integer rows of
the series its caller returns; SeriesSolution.residual_ok checks a solution
by exact substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebraic import braid_equation
# Term and EquationSystem live beside the kernel that interprets them
from .fastseries import EquationSystem, Term, high_order_rows, system_rows
from .groups import BRAID_AXA, BRAID_STANDARD, GroupSpec, STAR_POLYGON
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
        """Substitute the solution back into every equation, exactly."""
        for u, terms in self.system.equations.items():
            rhs = QZSeries(self.order)
            for t in terms:
                part = QZSeries(self.order)
                if t.z_pow <= self.order:
                    part.coeffs[t.z_pow] = QPolynomial.q_power(t.q_pow, t.coeff)
                for f in t.factors:
                    part = series_mul(part, self.series[f])
                rhs = series_add(rhs, part)
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
    unknowns: list[str] = []
    equations: dict[str, list[Term]] = {}
    roots: dict[int, str] = {}
    prims: dict[int, str] = {}
    k = spec.generator_count
    for i in range(1, k + 1):
        p = spec.periods[i - 1]
        roots[i] = l_name(0, i)
        for r in range(p):
            unknowns.append(l_name(r, i))
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
        for i in range(1, k + 1):
            prims[i] = _add_primitive(equations, roots[i], i)
            equations[f"R{i}"] = [Term(1, 0, 0)] + [
                Term(1, 0, 0, (f"R{i}", f"P{j}"))
                for j in range(1, k + 1)
                if j != i
            ]
        unknowns += [f"U{i}" for i in range(1, k + 1)]
        unknowns += [f"P{i}" for i in range(1, k + 1)]
        unknowns += [f"R{i}" for i in range(1, k + 1)]
    system = EquationSystem(unknowns, equations, facet_roots=roots, facet_primitives=prims)
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
    order = ["L00", "L01", "L10", "G00", "G01", "G02", "G10", "G20",
             "F00", "F01", "F02"]
    system = EquationSystem(order, equations, main="F00")
    system.check_invariant()
    return system


def _add_primitive(equations: dict[str, list[Term]], root: str, facet: int) -> str:
    """Add U = root - 1 and the primitive series P = U - P*U (that is,
    1 - 1/root) to equations as U{facet} and P{facet}; returns P's name."""
    u, name = f"U{facet}", f"P{facet}"
    equations[u] = [t for t in equations[root] if t != Term(1, 0, 0)]
    if len(equations[u]) != len(equations[root]) - 1:
        raise ValueError(f"{root} needs the constant term 1")
    equations[name] = [Term(1, 0, 0, (u,)), Term(-1, 0, 0, (name, u))]
    return name


def _assembled(system: EquationSystem) -> tuple[EquationSystem, str]:
    """system with F among its unknowns, and F's name.

    A star system's F = 1/(1 - sum of P_i) becomes F = 1 + sum of F*P_i.  A
    facet without a P unknown (two generators) gets U_i and P_i as the
    bigger star systems do.
    """
    if system.main:
        return system, system.main
    unknowns, equations = list(system.unknowns), dict(system.equations)
    primitive = []
    for facet, root in system.facet_roots.items():
        name = system.facet_primitives.get(facet)
        if name is None:
            name = _add_primitive(equations, root, facet)
            unknowns += [f"U{facet}", name]
        primitive.append(name)
    equations["F"] = [Term(1, 0, 0)] + [Term(1, 0, 0, ("F", P)) for P in primitive]
    return EquationSystem(unknowns + ["F"], equations), "F"


def solve_series(system: EquationSystem, order: int) -> SeriesSolution:
    """Exact series solution to the given z-order, plus the assembled F.

    Equivalent to iterating the fixed point Y <- Phi(z, Y, q) from Y = 0 until
    stable; the lane engine (fastseries.system_rows) computes each
    coefficient once, evaluating the unknowns in system order, and lifts the
    unknowns of system and F only.
    """
    full, f_name = _assembled(system)
    rows = system_rows(full, order, list(dict.fromkeys([*system.unknowns, f_name])))
    return SeriesSolution(system, order, {u: rows[u] for u in system.unknowns}, rows[f_name])


def system_for(spec: GroupSpec) -> EquationSystem:
    """The equation system of a star-polygon or B3-axa presentation.

    B3-standard is solved through its eliminated cubic instead
    (algebraic.braid_equation), so it has no system and raises ValueError.
    """
    if spec.variant == STAR_POLYGON:
        return build_star_system(spec)
    if spec.variant == BRAID_AXA:
        return build_axa_system()
    raise ValueError("B3-standard has no equation-system unknowns")


def solve_group(spec: GroupSpec, order: int) -> SeriesSolution:
    return solve_series(system_for(spec), order)


def group_series(spec: GroupSpec, order: int, unknown: str | None) -> QZSeries:
    """Exact rows up to z^order of one series of a presentation: F, or the
    system unknown named by unknown ("L0:1" names L0_1).  Only that series
    is lifted, and B3-standard's F comes from its cubic instead.

    Raises ValueError, before any solving, if unknown is not an unknown of
    the presentation's system.
    """
    if spec.variant == BRAID_STANDARD and not unknown:
        return high_order_rows(braid_equation(), order)
    system = system_for(spec)
    if not unknown:
        system, name = _assembled(system)
    else:
        name = unknown.replace(":", "_")
        if name not in system.unknowns:
            raise ValueError(f"unknown series {unknown!r}; have {sorted(system.unknowns)}")
    return system_rows(system, order, [name])[name]


def forget_winding(system: EquationSystem) -> EquationSystem:
    """Zero out every winding mark, counting walks by length alone.

    The collapsed system has constant q-polynomials throughout, so solving it
    to high order is much cheaper than the full two-variable solve.
    """
    equations = {
        name: [Term(t.coeff, t.z_pow, 0, t.factors) for t in terms]
        for name, terms in system.equations.items()
    }
    return EquationSystem(
        list(system.unknowns),
        equations,
        dict(system.facet_roots),
        dict(system.facet_primitives),
        system.main,
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
    periods = spec.periods
    evens = [p for p in periods if p % 2 == 0]
    odds = [p for p in periods if p % 2]
    checked = 0
    first = None

    def fail(n, m):
        nonlocal first
        if first is None:
            first = (n, m)

    if not odds:
        half = parity_transform(F, "even")
        p = min(evens)
        for n in range(half.order + 1):
            for m in range(-(2 * n // p), 2 * n // p + 1):
                checked += 1
                if half.coeffs[n].coeff(m) <= 0:
                    fail(n, m)
        return ConeReport("even", checked, first)
    if not evens:
        p = min(odds)
        for n in range(F.order + 1):
            for m in range(-(n // p), n // p + 1):
                if (n - m) % 2:
                    continue
                checked += 1
                if F.coeffs[n].coeff(m) <= 0:
                    fail(n, m)
        return ConeReport("odd", checked, first)
    pe, po = min(evens), min(odds)
    for n in range(F.order + 1):
        if n < pe + po:
            if n % 2 == 0 and n >= 0:
                checked += 1
                if F.coeffs[n].coeff(0) <= 0:
                    fail(n, 0)
            continue
        for m in range(-(n // (pe * po)), n // (pe * po) + 1):
            checked += 1
            if F.coeffs[n].coeff(m) <= 0:
                fail(n, m)
    return ConeReport("mixed", checked, first)
