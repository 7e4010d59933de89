"""Finite algebraic systems for the walk generating functions, solved exactly.

A star-polygon group's Schreier graph is a tree of polygons sharing the root
vertex, so one-sided return series L_r obey a small polynomial system; the
full return series F follows from the primitive-return series of each facet.
The axa presentation of the braid group glues its polygons along edges
instead, which needs the bigger G/L/F system.  All systems here are solved
order-by-order in z with exact Laurent-in-q coefficients: each equation is a
flat list of monomial terms, and every monomial either carries an explicit z
or a factor with no constant term, which makes coefficient n of the solution
depend only on data already computed when equations are evaluated in order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .groups import BRAID_AXA, GroupSpec, STAR_POLYGON
from .qseries import (
    QP_ZERO,
    QPolynomial,
    QZSeries,
    parity_transform,
    q_constant_term,
    series_add,
    series_mul,
    series_reciprocal,
    series_sub,
)


@dataclass(frozen=True)
class Term:
    """coeff * z^z_pow * q^q_pow * product(factors); at most two factors."""

    coeff: int
    z_pow: int
    q_pow: int
    factors: tuple[str, ...] = ()


@dataclass
class EquationSystem:
    unknowns: list[str]  # evaluation order
    equations: dict[str, list[Term]]
    spec: GroupSpec | None = None
    facet_roots: dict[int, str] = field(default_factory=dict)  # facet -> L0 name
    facet_primitives: dict[int, str] = field(default_factory=dict)  # facet -> P name
    main: str = ""  # unknown assembled into F, "" for star assembly

    def guarded(self) -> set[str]:
        """Unknowns whose series provably has no constant term.

        Least fixed point: a term contributes no constant if it carries
        explicit z or some factor already known to vanish at z = 0.
        """
        safe: set[str] = set()
        changed = True
        while changed:
            changed = False
            for u, terms in self.equations.items():
                if u in safe:
                    continue
                if all(
                    t.z_pow >= 1 or any(f in safe for f in t.factors)
                    for t in terms
                ):
                    safe.add(u)
                    changed = True
        return safe

    def check_invariant(self) -> None:
        """Every non-constant monomial must gain at least one z-order."""
        safe = self.guarded()
        for u, terms in self.equations.items():
            for t in terms:
                if len(t.factors) > 2:
                    raise ValueError(f"{u}: more than two factors in a term")
                if t.factors and t.z_pow == 0 and not any(f in safe for f in t.factors):
                    raise ValueError(f"{u}: term {t} never gains a z-order")
                for f in t.factors:
                    if f not in self.equations:
                        raise ValueError(f"{u}: unknown factor {f!r}")


@dataclass
class SeriesSolution:
    system: EquationSystem
    order: int
    series: dict[str, QZSeries]
    primitive: dict[int, QZSeries]  # facet -> P_i (star only)
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
            p = spec.periods[i - 1]
            prims[i] = f"P{i}"
            equations[f"U{i}"] = [
                Term(1, 1, 0, (l_name(1, i),)),
                Term(1, 1, 1, (l_name(p - 1, i),)),
            ]
            equations[f"P{i}"] = [
                Term(1, 0, 0, (f"U{i}",)),
                Term(-1, 0, 0, (f"P{i}", f"U{i}")),
            ]
            equations[f"R{i}"] = [Term(1, 0, 0)] + [
                Term(1, 0, 0, (f"R{i}", f"P{j}"))
                for j in range(1, k + 1)
                if j != i
            ]
        unknowns += [f"U{i}" for i in range(1, k + 1)]
        unknowns += [f"P{i}" for i in range(1, k + 1)]
        unknowns += [f"R{i}" for i in range(1, k + 1)]
    system = EquationSystem(
        unknowns, equations, spec=spec, facet_roots=roots, facet_primitives=prims
    )
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
    system = EquationSystem(order, equations, spec=None, main="F00")
    system.check_invariant()
    return system


class _PairCache:
    """Convolution coefficients of products of two unknowns, grown lazily.

    While coefficient n of an unknown is being computed, its own entry at
    order n is missing; any product pairing it with another series is exact
    anyway whenever the partner's end coefficient is zero, which the system
    invariant guarantees.  Anything else is a build error, not a math error.
    """

    def __init__(self, coeffs: dict[str, list[QPolynomial]]):
        self.coeffs = coeffs
        self.cache: dict[tuple[str, str], list[QPolynomial]] = {}

    def at(self, a: str, b: str, j: int) -> QPolynomial:
        key = (a, b) if a <= b else (b, a)
        conv = self.cache.setdefault(key, [])
        xs, ys = self.coeffs[key[0]], self.coeffs[key[1]]
        while len(conv) <= j:
            n = len(conv)
            acc = QP_ZERO
            for i in range(n + 1):
                if i < len(xs) and n - i < len(ys):
                    acc = acc + xs[i] * ys[n - i]
                elif i < len(xs):
                    if not xs[i].is_zero():
                        raise RuntimeError(f"order {n} of {key[1]} needed too early")
                elif n - i < len(ys):
                    if not ys[n - i].is_zero():
                        raise RuntimeError(f"order {n} of {key[0]} needed too early")
                else:
                    raise RuntimeError(f"orders of {key} both missing at {n}")
            conv.append(acc)
        return conv[j]


def solve_series(system: EquationSystem, order: int) -> SeriesSolution:
    """Exact series solution to the given z-order, plus the assembled F.

    Equivalent to iterating the fixed point Y <- Phi(z, Y, q) from Y = 0 until
    stable, but organised so each coefficient is computed once: the invariant
    checked at build time means order n of every right side only needs data
    already present when unknowns are evaluated in system order.
    """
    system.check_invariant()
    coeffs: dict[str, list[QPolynomial]] = {u: [] for u in system.unknowns}
    pairs = _PairCache(coeffs)
    for n in range(order + 1):
        for u in system.unknowns:
            acc = QP_ZERO
            for t in system.equations[u]:
                j = n - t.z_pow
                if j < 0:
                    continue
                if not t.factors:
                    if j == 0:
                        acc = acc + QPolynomial.q_power(t.q_pow, t.coeff)
                    continue
                if len(t.factors) == 1:
                    fac = coeffs[t.factors[0]]
                    if j >= len(fac):
                        raise RuntimeError(
                            f"order {j} of {t.factors[0]} needed too early"
                        )
                    val = fac[j]
                else:
                    val = pairs.at(t.factors[0], t.factors[1], j)
                if val.is_zero():
                    continue
                if t.coeff != 1:
                    val = val.scale(t.coeff)
                acc = acc + val.shift(t.q_pow)
            coeffs[u].append(acc)
    series = {u: QZSeries(order, cs) for u, cs in coeffs.items()}

    primitive: dict[int, QZSeries] = {}
    if system.main:
        F = series[system.main]
    else:
        # returns decompose into primitive returns per facet:
        # L0 = 1/(1 - P_i) one-sided, F = 1/(1 - sum P_i) overall
        total = QZSeries(order)
        for facet, name in system.facet_roots.items():
            if facet in system.facet_primitives:
                P = series[system.facet_primitives[facet]]
            else:
                P = series_sub(QZSeries.one(order), series_reciprocal(series[name]))
            primitive[facet] = P
            total = series_add(total, P)
        F = series_reciprocal(series_sub(QZSeries.one(order), total))
    return SeriesSolution(system, order, series, primitive, F)


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
        system.spec,
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
