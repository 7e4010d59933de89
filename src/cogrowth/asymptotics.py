"""Growth rates, winding moments, and profile diagnostics.

Everything here is plain float64 numerics layered over the polynomial
equation systems.  The dominant singularity z_c(q) is the branch point where
the system Jacobian loses invertibility: a Newton continuation in z along the
branch through Y(0) brackets it, and Newton on the regular augmented system
(Y = Phi, (I - Phi_Y) v = 0, sum(v) = 1) polishes it with an analytic
Jacobian.  A single polynomial equation P(F, z, q) = 0 runs as its lowered
system F = 1 + z*H (fastseries.equation_system), so both kinds of input take
the one route, report every unknown in Y_c and the same residuals, and share
the moment code.  The drift and variance of the winding of a long
closed walk come from z_c'(1) and z_c''(1), which implicit differentiation
of that system at q = 1 gives exactly: the right-hand sides come from
evaluating it over jets in R[eps]/(eps^3).  The rest fits or
checks the subexponential factors predicted for coefficient sequences.
Exact coefficient inputs arrive as big integers, so logarithms go through a
shifted-mantissa helper instead of float(x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebraic import PolynomialEquation
from .fastseries import EquationSystem, equation_system
from .qseries import QPolynomial

LN2 = math.log(2.0)


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
    residuals: tuple[float, float]  # (max |Y - Phi|, |det(I - Phi_Y)|) on both routes


@dataclass(frozen=True)
class LimitLaw:
    mu: float
    lam: float
    sigma2: float


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in R[eps]/(eps^K), with the K coefficients along the last axis."""
    out = a[..., :1] * b
    for k in range(1, a.shape[-1]):
        out[..., k:] += a[..., k : k + 1] * b[..., :-k]
    return out


def _jet_pow(x: np.ndarray, e: int) -> np.ndarray:
    """x^e for one jet x and an integer e; a negative e inverts x first."""
    if e < 0:
        inv = np.zeros_like(x)
        inv[0] = 1.0 / x[0]
        for k in range(1, len(x)):
            inv[k] = -(x[1 : k + 1] @ inv[k - 1 :: -1]) / x[0]
        x, e = inv, -e
    out = np.zeros_like(x)
    out[0] = 1.0
    for _ in range(e):
        out = _jet_mul(out, x)
    return out


def _jet_powers(x: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """x^e for every integer e in exps, one row each."""
    lo = int(exps.min())
    return np.stack([_jet_pow(x, e) for e in range(lo, int(exps.max()) + 1)])[exps - lo]


@dataclass(frozen=True)
class _Terms:
    """A system's terms as flat arrays, for the augmented system below.

    Term j adds coeff[j] * z^z_pow[j] * q^q_pow[j] * Y[f1[j]] * Y[f2[j]] to
    equation rows[j], where the factor index n stands for the constant 1.
    """

    n: int
    rows: np.ndarray
    coeff: np.ndarray
    z_pow: np.ndarray
    q_pow: np.ndarray
    f1: np.ndarray
    f2: np.ndarray


def _terms(system: EquationSystem) -> _Terms:
    n = len(system.unknowns)
    pos = {u: i for i, u in enumerate(system.unknowns)}
    table = []
    for i, u in enumerate(system.unknowns):
        for t in system.equations[u]:
            f1, f2 = [pos[f] for f in t.factors] + [n] * (2 - len(t.factors))
            table.append((i, float(t.coeff), t.z_pow, t.q_pow, f1, f2))
    return _Terms(n, *map(np.array, zip(*table)))


def _augmented(tab: _Terms, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """G = (Y - Phi, v - Phi_Y v, sum(v) - 1) at x = (z, Y, v), over jets.

    x has shape (2n + 1, K) and q shape (K,): coefficients in R[eps]/(eps^K)
    run along the last axis, so K = 1 is plain evaluation.  At the branch
    point v is a Perron vector of the nonnegative Phi_Y, so its entries have
    one sign and sum(v) = 1 fixes its scale.
    """
    n, K = tab.n, x.shape[-1]
    one = np.zeros((1, K))
    one[0, 0] = 1.0
    Y = np.vstack([x[1 : n + 1], one])
    v = np.vstack([x[n + 1 :], np.zeros((1, K))])
    w = tab.coeff[:, None] * _jet_mul(_jet_powers(q, tab.q_pow), _jet_powers(x[0], tab.z_pow))
    y1, y2 = Y[tab.f1], Y[tab.f2]
    phi = np.zeros((n, K))
    np.add.at(phi, tab.rows, _jet_mul(w, _jet_mul(y1, y2)))
    phi_v = np.zeros((n, K))
    np.add.at(phi_v, tab.rows, _jet_mul(w, _jet_mul(y1, v[tab.f2]) + _jet_mul(v[tab.f1], y2)))
    return np.vstack([Y[:n] - phi, v[:n] - phi_v, v[:n].sum(axis=0) - one])


def _augmented_jacobian(tab: _Terms, x: np.ndarray, q: float) -> np.ndarray:
    """dG/d(z, Y, v) at a float point x, analytic.

    Terms have at most two factors, so Phi_YY v is the sparse table that puts
    w * v[f2] at (row, f1) and w * v[f1] at (row, f2).
    """
    n = tab.n
    z = x[0]
    Y = np.append(x[1 : n + 1], 1.0)
    v = np.append(x[n + 1 :], 0.0)
    w = tab.coeff * q**tab.q_pow
    wz = w * z**tab.z_pow
    wd = w * tab.z_pow * z ** np.maximum(tab.z_pow - 1, 0)
    y1, y2, v1, v2 = Y[tab.f1], Y[tab.f2], v[tab.f1], v[tab.f2]

    def table(at_f1, at_f2):  # column n, the constant factor, is dropped
        out = np.zeros((n, n + 1))
        np.add.at(out, (tab.rows, tab.f1), at_f1)
        np.add.at(out, (tab.rows, tab.f2), at_f2)
        return out[:, :n]

    A = np.eye(n) - table(wz * y2, wz * y1)  # I - Phi_Y
    J = np.zeros((2 * n + 1, 2 * n + 1))
    J[:n, 0] = -np.bincount(tab.rows, wd * y1 * y2, n)
    J[:n, 1 : n + 1] = A
    J[n : 2 * n, 0] = -np.bincount(tab.rows, wd * (y2 * v1 + y1 * v2), n)
    J[n : 2 * n, 1 : n + 1] = -table(wz * v2, wz * v1)
    J[n : 2 * n, n + 1 :] = A
    J[2 * n, n + 1 :] = 1.0
    return J


def _with_null_vector(tab: _Terms, z: float, Y: list[float], q: float) -> np.ndarray:
    """(z, Y, v) with A v = -s (1, ..., 1) and sum(v) = 1, where A = I - Phi_Y.

    This bordered system stays regular where A is singular, and there s = 0
    and v is A's null vector; near such a point v is close to it.
    """
    n = tab.n
    x = np.concatenate([[z], Y, np.zeros(n)])
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = _augmented_jacobian(tab, x, q)[:n, 1 : n + 1]
    bordered[n, n] = 0.0
    x[n + 1 :] = np.linalg.solve(bordered, np.eye(n + 1)[n])[:n]
    return x


def _fixed_point(tab: _Terms, z: float, Y: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Y - Phi and its Jacobian (-Phi_z, I - Phi_Y) in (z, Y)."""
    n = tab.n
    Y1 = np.append(Y, 1.0)
    w = tab.coeff * q**tab.q_pow * z**tab.z_pow
    g = Y - np.bincount(tab.rows, w * Y1[tab.f1] * Y1[tab.f2], n)
    x = np.concatenate([[z], Y, np.zeros(n)])
    return g, _augmented_jacobian(tab, x, q)[:n, : n + 1]


def _corrected(
    tab: _Terms, z: float, Y: np.ndarray, q: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """(Y, Jacobian) with Y = Phi at this z, by at most 6 Newton steps from Y.

    Returns None when the steps do not bring max |Y - Phi| to 1e-12 (1 + max |Y|).
    """
    g, J = _fixed_point(tab, z, Y, q)
    for _ in range(6):
        try:
            Y = Y + np.linalg.solve(J[:, 1:], -g)
        except np.linalg.LinAlgError:
            return None
        g, J = _fixed_point(tab, z, Y, q)
        if not np.all(np.isfinite(g)):
            return None
        if np.max(np.abs(g)) <= 1e-12 * (1.0 + np.max(np.abs(Y))):
            return Y, J
    return None


def _branch_bracket(tab: _Terms, q: float) -> tuple[float, np.ndarray]:
    """A point (z, Y) on the branch through Y(0), just below its fold z_c.

    Newton continuation in z: the tangent dY/dz = (I - Phi_Y)^-1 Phi_z
    predicts, _corrected corrects, and a step of h is taken only when the
    corrector converges with det(I - Phi_Y) > 0; h then doubles, and
    otherwise it is divided by 4.  det^2 falls about linearly to 0 at the
    fold, so the last two accepted points predict the gap to z_c: h is held
    to half of it, and the walk stops once it is below 1e-3 z.  Raises when
    z reaches 0.6 with det > 0 or when h underflows.
    """
    start = _corrected(tab, 0.0, np.zeros(tab.n), q)
    if start is None:
        raise RuntimeError(f"no fixed point at z = 0, q = {q}")
    z, (Y, J) = 0.0, start
    h, prev = 0.01, None
    while True:
        det2 = np.linalg.det(J[:, 1:]) ** 2
        if prev is not None and prev[1] > det2:
            gap = det2 * (z - prev[0]) / (prev[1] - det2)
            if gap < 1e-3 * z:
                return z, Y
            h = min(h, gap / 2)
        if z >= 0.6:
            raise RuntimeError(f"no branch point found below z = 0.6 at q = {q}")
        tangent = np.linalg.solve(J[:, 1:], -J[:, 0])
        while True:
            step = min(h, 0.6 - z)
            if z + step == z:
                raise RuntimeError(f"branch continuation stalled at z = {z!r}, q = {q}")
            new = _corrected(tab, z + step, Y + step * tangent, q)
            if new is not None and np.linalg.det(new[1][:, 1:]) > 0:
                break
            h /= 4
        prev, z, (Y, J), h = (z, det2), z + step, new, 2 * h


def _polish(tab: _Terms, names: list[str], z: float, Y: np.ndarray, q: float) -> CriticalPoint:
    """Newton from (z, Y) to the branch point on the augmented system.

    The unknowns are (z, Y, v): Y = Phi, (I - Phi_Y) v = 0 and sum(v) = 1,
    with v started from a bordered solve (_with_null_vector).  The Jacobian
    is analytic and every step is a full one, at most 30 of them: damping
    shrinks the basin.  The residuals max |Y - Phi| and |det(I - Phi_Y)| must
    both end at or below 1e-12, and z and every Y must end positive.
    """
    n = tab.n
    x = _with_null_vector(tab, z, Y, q)
    q_jet = np.array([q])
    g = _augmented(tab, x[:, None], q_jet)[:, 0]
    for _ in range(30):
        try:
            x = x + np.linalg.solve(_augmented_jacobian(tab, x, q), -g)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular Newton step at z = {x[0]}, q = {q}") from exc
        g = _augmented(tab, x[:, None], q_jet)[:, 0]
        if np.max(np.abs(g)) < 1e-13:
            break
    fixed = float(np.max(np.abs(g[:n])))
    A = _augmented_jacobian(tab, x, q)[:n, 1 : n + 1]
    det_res = float(abs(np.linalg.det(A)))
    if not (fixed <= 1e-12 and det_res <= 1e-12):  # a full step can leave NaN
        raise RuntimeError(
            f"Newton stalled at z = {x[0]!r}, q = {q}: residuals {fixed:g}, {det_res:g}"
        )
    Y_c = dict(zip(names, map(float, x[1 : n + 1])))
    if x[0] <= 0 or any(v <= 0 for v in Y_c.values()):
        raise RuntimeError(f"nonpositive critical data at q = {q}")
    return CriticalPoint(float(q), float(x[0]), Y_c, (fixed, det_res))


def find_critical_point(system: EquationSystem, q: float) -> CriticalPoint:
    """Branch point z_c(q): Y = Phi(z_c, Y, q) with I - dPhi/dY singular.

    _branch_bracket follows the branch through Y(0) up to just below its
    fold, and _polish refines the augmented system from there.
    """
    tab = _terms(system)
    return _polish(tab, system.unknowns, *_branch_bracket(tab, q), q)


def algebraic_critical_point(eq: PolynomialEquation, q: float) -> CriticalPoint:
    """Branch point of the series root of P(F, z, q) = 0: P = P_F = 0.

    This is find_critical_point on eq's lowered system F = 1 + z*H
    (fastseries.equation_system), so Y_c holds every lowered unknown, F
    included.
    """
    return find_critical_point(equation_system(eq), q)


def _limit_law(system: EquationSystem, cp: CriticalPoint) -> LimitLaw:
    """mu, lam and sigma2 from z_c and its first two q-derivatives at q = 1.

    cp is system's branch point at q = 1, and x = (z, Y, v) solves the
    augmented system G(x, 1) = 0 there, with v from _with_null_vector and J
    its Jacobian in x.  Write x(1 + eps) = x + x1 eps + x2 eps^2.  The eps^k
    coefficient of G(x(1 + eps), 1 + eps), evaluated over jets in
    R[eps]/(eps^3), is J x_k plus terms in x and x1 only, so the implicit
    function theorem gives x1, then x2, from two solves with J.  Then
    z_c'(1) = x1[0], z_c''(1) = 2 x2[0], lam = -z_c'/z_c and
    sigma2 = -z_c''/z_c + lam^2 + lam.  Raises if a solve is singular or
    leaves an eps or eps^2 residual above 1e-12.
    """
    tab = _terms(system)
    x = _with_null_vector(tab, cp.z_c, [cp.Y_c[u] for u in system.unknowns], 1.0)
    J = _augmented_jacobian(tab, x, 1.0)
    q = np.array([1.0, 1.0, 0.0])
    X = np.zeros((len(x), 3))
    X[:, 0] = x
    for k in (1, 2):
        try:
            X[:, k] = np.linalg.solve(J, -_augmented(tab, X, q)[:, k])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular derivative solve at z_c = {cp.z_c!r}") from exc
    left = float(np.max(np.abs(_augmented(tab, X, q)[:, 1:])))
    if not left <= 1e-12:
        raise RuntimeError(f"derivative solve at z_c = {cp.z_c!r} leaves residual {left:g}")
    z, d1, half_d2 = X[0]
    mu = 1.0 / z
    if mu <= 1.0:
        raise RuntimeError(f"growth rate {mu} not > 1")
    lam = -d1 / z
    sigma2 = -2 * half_d2 / z + lam * lam + lam
    return LimitLaw(float(mu), float(lam), float(sigma2))


def growth_and_moments(system: EquationSystem) -> LimitLaw:
    """Growth rate and the drift and variance of winding per step.

    mu = 1/z_c(1), lam = -z_c'(1)/z_c(1) and
    sigma2 = -z_c''(1)/z_c(1) + lam^2 + lam.  One find_critical_point call at
    q = 1 locates (z_c, Y_c); the derivatives of z_c(q) come from implicit
    differentiation of the augmented system there (see _limit_law).
    """
    return _limit_law(system, find_critical_point(system, 1.0))


def algebraic_moments(eq: PolynomialEquation) -> LimitLaw:
    """growth_and_moments for a series defined by one polynomial equation.

    The moments are those of eq's lowered system (fastseries.equation_system).
    """
    return growth_and_moments(equation_system(eq))


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


def expected_returns(f: list[int]) -> list[float]:
    """Expected visits to the origin of an n-step closed walk, per n.

    v_n = sum_i P(i) P(n-i) / P(n) with P(n) = f_n / (2k)^n for k generators;
    the (2k) powers cancel, so only the integer convolution matters.  Indices
    with f_n = 0 report 0.
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
