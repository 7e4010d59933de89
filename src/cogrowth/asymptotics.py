"""Growth rates, winding moments, and profile diagnostics.

Everything here is plain float64 numerics layered over the polynomial
equation systems: locating the dominant singularity z_c(q) as the branch
point where the system Jacobian loses invertibility, differencing z_c(q)
to get the drift and variance of the winding of a long closed walk, and
fitting or checking the subexponential factors predicted for coefficient
sequences.  Exact coefficient inputs arrive as big integers, so logarithms
go through a shifted-mantissa helper instead of float(x).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebraic import PolynomialEquation
from .qseries import QPolynomial
from .systems import EquationSystem

LN2 = math.log(2.0)
_VALUE_ITERATIONS = 5000  # _value_iterate gives up after this many steps


def log_int(x: int) -> float:
    """log of a positive integer too large for float conversion."""
    if x <= 0:
        raise ValueError("positive values only")
    shift = max(0, x.bit_length() - 64)
    return math.log(x >> shift) + shift * LN2


@dataclass(frozen=True)
class CriticalPoint:
    q: float
    z_c: float
    Y_c: dict[str, float]
    residuals: tuple[float, float]  # (fixed point, determinant)


@dataclass(frozen=True)
class LimitLaw:
    mu: float
    lam: float
    sigma2: float


def _phi(system: EquationSystem, z: float, Y: dict[str, float], q: float) -> dict[str, float]:
    out = {}
    for u in system.unknowns:
        acc = 0.0
        for t in system.equations[u]:
            v = t.coeff * z**t.z_pow * q**t.q_pow
            for f in t.factors:
                v *= Y[f]
            acc += v
        out[u] = acc
    return out


def _jacobian(system: EquationSystem, z: float, Y: dict[str, float], q: float):
    """Analytic dPhi/dY and dPhi/dz; terms have at most two factors."""
    names = system.unknowns
    pos = {u: i for i, u in enumerate(names)}
    n = len(names)
    M = np.zeros((n, n))
    phi_z = np.zeros(n)
    for i, u in enumerate(names):
        for t in system.equations[u]:
            base = t.coeff * q**t.q_pow
            fvals = [Y[f] for f in t.factors]
            prod = math.prod(fvals)
            if t.z_pow:
                phi_z[i] += base * t.z_pow * z ** (t.z_pow - 1) * prod
            zc = base * z**t.z_pow
            if len(t.factors) == 1:
                M[i, pos[t.factors[0]]] += zc
            elif len(t.factors) == 2:
                M[i, pos[t.factors[0]]] += zc * fvals[1]
                M[i, pos[t.factors[1]]] += zc * fvals[0]
    return M, phi_z


def _value_iterate(system: EquationSystem, z: float, q: float) -> dict[str, float] | None:
    """Fixed point of Y <- Phi from Y = 0, or None when it blows up."""
    Y = {u: 0.0 for u in system.unknowns}
    for _ in range(_VALUE_ITERATIONS):
        nxt = _phi(system, z, Y, q)
        delta = 0.0
        big = 0.0
        for u, v in nxt.items():
            if not math.isfinite(v) or abs(v) > 1e12:
                return None
            delta = max(delta, abs(v - Y[u]))
            big = max(big, abs(v))
        Y = nxt
        if delta <= 1e-14 * (1.0 + big):
            return Y
    return None


def find_critical_point(system: EquationSystem, q: float) -> CriticalPoint:
    """Branch point z_c(q): Y = Phi(z_c, Y, q) with I - dPhi/dY singular.

    Brackets z_c by stepping z in 0.01 increments until the value iteration
    stops converging, then runs Newton on the augmented system in (z, Y).
    """
    names = system.unknowns
    n = len(names)
    z_lo, Y_lo = 0.0, None
    z = 0.0
    while z < 0.6:
        z += 0.01
        Y = _value_iterate(system, z, q)
        if Y is None:
            break
        z_lo, Y_lo = z, Y
    else:
        raise RuntimeError(f"no divergence bracket below z = 0.6 at q = {q}")
    if Y_lo is None:
        raise RuntimeError(f"value iteration already divergent at z = 0.01, q = {q}")

    x = np.empty(n + 1)
    x[0] = z_lo + 0.005
    x[1:] = [Y_lo[u] for u in names]

    def residual(vec):
        zz = vec[0]
        Y = dict(zip(names, vec[1:]))
        phi = _phi(system, zz, Y, q)
        M, phi_z = _jacobian(system, zz, Y, q)
        g = np.empty(n + 1)
        g[:n] = [Y[u] - phi[u] for u in names]
        g[n] = np.linalg.det(np.eye(n) - M)
        return g, M, phi_z

    g, M, phi_z = residual(x)
    for _ in range(80):
        J = np.zeros((n + 1, n + 1))
        J[:n, 0] = -phi_z
        J[:n, 1:] = np.eye(n) - M
        for col in range(n + 1):
            h = 1e-7 * (1.0 + abs(x[col]))
            xp = x.copy()
            xp[col] += h
            J[n, col] = (residual(xp)[0][n] - g[n]) / (2 * h)
            xp[col] -= 2 * h
            J[n, col] -= (residual(xp)[0][n] - g[n]) / (2 * h)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular Newton step at z = {x[0]}, q = {q}") from exc
        scale = 1.0
        norm0 = np.max(np.abs(g))
        for _ in range(25):
            trial = x + scale * step
            gt, Mt, pzt = residual(trial)
            if np.max(np.abs(gt)) < norm0:
                x, g, M, phi_z = trial, gt, Mt, pzt
                break
            scale /= 2
        else:
            break
        if np.max(np.abs(g)) < 1e-13:
            break
    fixed = float(np.max(np.abs(g[:n])))
    det_res = float(abs(g[n]))
    if fixed > 1e-12 or det_res > 1e-12:
        raise RuntimeError(
            f"Newton stalled at z = {x[0]!r}, q = {q}: residuals {fixed:g}, {det_res:g}"
        )
    Y_c = dict(zip(names, map(float, x[1:])))
    if x[0] <= 0 or any(v <= 0 for v in Y_c.values()):
        raise RuntimeError(f"nonpositive critical data at q = {q}")
    return CriticalPoint(q, float(x[0]), Y_c, (fixed, det_res))


def assembled_value(system: EquationSystem, Y: dict[str, float]) -> float:
    """F at a point, assembled the same way solve_series assembles series."""
    if system.main:
        return Y[system.main]
    total = 0.0
    for facet, name in system.facet_roots.items():
        if facet in system.facet_primitives:
            total += Y[system.facet_primitives[facet]]
        else:
            total += 1.0 - 1.0 / Y[name]
    return 1.0 / (1.0 - total)


def _qval(poly: QPolynomial, q: float) -> float:
    return sum(v * q**e for e, v in poly.pairs())


def _eq_data(eq: PolynomialEquation, F: float, z: float, q: float):
    """P, P_F, P_z, P_FF, P_Fz at a point, straight from the z-q tables."""
    P = P_F = P_z = P_FF = P_Fz = 0.0
    for k, zpoly in enumerate(eq.terms):
        c = cz = 0.0
        for zp, cq in zpoly:
            base = _qval(cq, q)
            c += base * z**zp
            if zp:
                cz += base * zp * z ** (zp - 1)
        fk = F ** (k - 2) if k >= 2 else 0.0
        P += c * (F**k)
        if k >= 1:
            P_F += k * c * F ** (k - 1)
            P_Fz += k * cz * F ** (k - 1)
        if k >= 2:
            P_FF += k * (k - 1) * c * fk
        P_z += cz * F**k
    return P, P_F, P_z, P_FF, P_Fz


def _roots_at(eq: PolynomialEquation, z: float, q: float) -> np.ndarray:
    cs = []
    for zpoly in eq.terms:
        cs.append(sum(_qval(cq, q) * z**zp for zp, cq in zpoly))
    return np.roots(cs[::-1])


def algebraic_critical_point(eq: PolynomialEquation, q: float) -> CriticalPoint:
    """Branch point of the series root of P(F, z, q) = 0: P = P_F = 0.

    Tracks the root branch through F(0) = 1 by nearest-root continuation and
    brackets the z where that branch turns complex, which is where it collides
    with its conjugate partner.  A two-variable Newton then polishes (F, z).
    Y_c carries the single entry "F".
    """
    def nearest(z: float, guess: float) -> complex:
        roots = _roots_at(eq, z, q)
        return roots[np.argmin(np.abs(roots - guess))]

    z_lo, F_lo = 0.0, 1.0
    dz = 0.01
    while z_lo < 0.6 and dz > 1e-11:
        r = nearest(z_lo + dz, F_lo)
        # a fold makes the branch walk off or go complex; refuse and shrink
        if abs(r.imag) > 1e-9 * (1 + abs(r)) or abs(r - F_lo) > 0.15 * (1 + abs(F_lo)):
            dz /= 2
            continue
        z_lo, F_lo = z_lo + dz, r.real
        dz = min(0.01, dz * 1.25)
    if dz > 1e-11:
        raise RuntimeError(f"no branch point found below z = 0.6 at q = {q}")

    x = np.array([F_lo, z_lo])
    for _ in range(100):
        P, P_F, P_z, P_FF, P_Fz = _eq_data(eq, x[0], x[1], q)
        g = np.array([P, P_F])
        if np.max(np.abs(g)) < 1e-13:
            break
        J = np.array([[P_F, P_z], [P_FF, P_Fz]])
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular step at z = {x[1]}, q = {q}") from exc
        limit = 1.0 + np.max(np.abs(x))
        big = np.max(np.abs(step))
        if big > 0.25 * limit:
            step *= 0.25 * limit / big
        x = x + step
    P, P_F, *_ = _eq_data(eq, x[0], x[1], q)
    if abs(P) > 1e-10 or abs(P_F) > 1e-10 or x[1] <= 0 or x[0] <= 0:
        raise RuntimeError(
            f"branch-point Newton stalled at (F, z) = {tuple(x)}, q = {q}"
        )
    return CriticalPoint(q, float(x[1]), {"F": float(x[0])}, (abs(P), abs(P_F)))


def _moments_at_step(zc_of_q, h: float, z1: float) -> tuple[float, float]:
    zs = {k: zc_of_q(1.0 + k * h) for k in (-2, -1, 1, 2)}
    d1 = (zs[-2] - 8 * zs[-1] + 8 * zs[1] - zs[2]) / (12 * h)
    d2 = (-zs[-2] + 16 * zs[-1] - 30 * z1 + 16 * zs[1] - zs[2]) / (12 * h * h)
    lam = -d1 / z1
    sigma2 = -d2 / z1 + lam * lam + lam
    return lam, sigma2


def _moments(zc_of_q) -> LimitLaw:
    zc_of_q = functools.cache(zc_of_q)  # both steps' stencils read q = 1 +- h: 7 solves
    z1 = zc_of_q(1.0)
    h = 1e-3
    lam_a, sig_a = _moments_at_step(zc_of_q, h, z1)
    lam_b, sig_b = _moments_at_step(zc_of_q, h / 2, z1)
    if abs(lam_a - lam_b) > 1e-4 or abs(sig_a - sig_b) > 1e-4:
        raise RuntimeError(
            f"derivative estimates disagree: lam {lam_a} vs {lam_b}, "
            f"sigma2 {sig_a} vs {sig_b}"
        )
    mu = 1.0 / z1
    if mu <= 1.0:
        raise RuntimeError(f"growth rate {mu} not > 1")
    return LimitLaw(mu, lam_b, sig_b)


def growth_and_moments(system: EquationSystem) -> LimitLaw:
    """Drift and variance of winding per step, from z_c(q) near q = 1.

    lam = -z_c'(1)/z_c(1) and sigma2 = -z_c''(1)/z_c(1) + lam^2 + lam, with
    the derivatives taken by five-point central differences at h = 1e-3 and
    validated against the halved step.
    """
    return _moments(lambda q: find_critical_point(system, q).z_c)


def algebraic_moments(eq: PolynomialEquation) -> LimitLaw:
    """growth_and_moments for a series defined by one polynomial equation."""
    return _moments(lambda q: algebraic_critical_point(eq, q).z_c)


@dataclass(frozen=True)
class PolyCheck:
    residual: float
    real_roots: tuple[float, ...]
    largest_positive: float | None
    is_largest_positive: bool


def minimal_poly_check(value: float, coeffs: list[int]) -> PolyCheck:
    """Evaluate sum(coeffs[i] * value**i) and rank value among the real roots.

    The real roots are the eigenvalue roots (np.roots) with a negligible
    imaginary part, each polished by three Newton steps; this finds all simple
    real roots of the minimal polynomials used here.
    """
    def p(x, cs=coeffs):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    slope = [i * c for i, c in enumerate(coeffs)][1:]
    roots = []
    for r in np.roots(coeffs[::-1]):
        if abs(r.imag) > 1e-7 * (1 + abs(r)):
            continue
        x = float(r.real)
        for _ in range(3):
            d = p(x, slope)
            if d == 0.0:
                break
            x -= p(x) / d
        roots.append(x)
    roots.sort()
    positives = [r for r in roots if r > 0]
    largest = max(positives) if positives else None
    matches = largest is not None and abs(value - largest) <= 1e-6 * (1 + abs(largest))
    return PolyCheck(p(value), tuple(roots), largest, matches)


def exponent_fit(coeffs: list[int], mu: float) -> tuple[float, float]:
    """Fit log f_n - n log mu = alpha log n + c + beta/n on n in [N/2, N].

    Zero entries (parity holes) are skipped; returns (alpha, exp(c)).
    """
    N = len(coeffs) - 1
    rows = [(n, f) for n, f in enumerate(coeffs) if n >= N // 2 and f > 0]
    if len(rows) < 100:
        raise ValueError("too few terms for a stable exponent fit")
    A = np.array([[math.log(n), 1.0, 1.0 / n] for n, _ in rows])
    y = np.array([log_int(f) - n * math.log(mu) for n, f in rows])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(math.exp(sol[1]))


def gaussian_profile_check(row: QPolynomial, sigma2: float, n: int) -> float:
    """Worst relative deviation of f_{n,m}/f_{n,0} from exp(-m^2/(2 sigma2 n)).

    Only |m| <= sqrt(n) is inspected, and parity holes are skipped.
    """
    f0 = row.coeff(0)
    if f0 <= 0:
        raise ValueError("center entry must be positive")
    lf0 = log_int(f0)
    worst = 0.0
    for m in range(1, math.isqrt(n) + 1):
        v = row.coeff(m)
        if v == 0:
            continue
        ratio = math.exp(log_int(v) - lf0)
        pred = math.exp(-m * m / (2 * sigma2 * n))
        worst = max(worst, abs(ratio - pred) / pred)
    return worst


def expected_returns(f: list[int], k: int) -> list[float]:
    """Expected visits to the origin of an n-step closed walk, per n.

    v_n = sum_i P(i) P(n-i) / P(n) with P(n) = f_n / (2k)^n; the (2k) powers
    cancel, so only the integer convolution matters.  Indices with f_n = 0
    report 0.
    """
    out = []
    for n in range(len(f)):
        if f[n] == 0:
            out.append(0.0)
            continue
        s = sum(f[i] * f[n - i] for i in range(n + 1))
        out.append(float((s * 10**18) // f[n]) / 1e18)
    return out


@dataclass(frozen=True)
class VarianceReport:
    values: list[float]
    upper_ok: bool  # V[W_n] <= n everywhere
    ratio_min: float  # min over n >= 20 of V[W_n]/n
    ratio_max: float


def variance_sequence(rows: list[QPolynomial]) -> VarianceReport:
    """Winding variance V[W_n] per order, with the Theta(n) bound checks."""
    values = []
    ratios = []
    upper_ok = True
    for n, row in enumerate(rows):
        if not row.is_symmetric():
            raise ValueError(f"asymmetric winding table at order {n}")
        mass = row.eval_at_one()
        if mass == 0:
            values.append(0.0)
            continue
        num = sum(m * m * v for m, v in row.pairs())
        v = float((num * 10**18) // mass) / 1e18
        values.append(v)
        if n and v > n:
            upper_ok = False
        if n >= 20:
            ratios.append(v / n)
    return VarianceReport(
        values, upper_ok, min(ratios, default=0.0), max(ratios, default=0.0)
    )


def growth_rate_compare(rows: list[QPolynomial], n: int) -> tuple[float, float]:
    """(f_{n,0}^(1/n), (sum_m f_{n,m})^(1/n)) from exact winding rows."""
    center = rows[n].coeff(0)
    mass = rows[n].eval_at_one()
    return math.exp(log_int(center) / n), math.exp(log_int(mass) / n)
