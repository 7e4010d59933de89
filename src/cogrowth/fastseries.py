"""Exact series expansion on NTT/CRT lanes, for equation systems and single equations.

The q-variable is evaluated at the L-th roots of unity modulo a stack of
26-bit primes p = 1 (mod L).  An EquationSystem is one ordered map from each
unknown to its equation, evaluated in the map's order.  One kernel,
_run_system, expands it order by order on every (prime, lane) pair with
numpy; its one backend operation is dot, a sum of products.  One entry,
system_rows, brings back the rows of the unknowns its caller names,
and of no other: an inverse transform over the lanes, a check that no
residue lies outside the winding window, and CRT with a signed lift, checked
against one more prime.  Products of two residues stay below 2^52, so a sum
of fewer than 2^11 of them (one power-series convolution at order < 2^11)
fits an int64 unreduced.  The same kernel run on (interval, log2 mass)
triples instead of residues gives each series a provable q-exponent window
per order and a bound on its coefficients; L is the widest window that is
lifted plus one, any integer, and the CRT bound is the largest mass lifted,
or the caller's bound if that is smaller.  The inverse transform is one
dense DFT matrix per prime, applied as one exact product
(_inverse_dft, algebraic._matmul_mod).
A system that q -> 1/q fixes (EquationSystem.symmetric) has symmetric rows,
so only lanes 0..L//2 are solved and the transform folds the mirrored lanes
into its matrix; one-sided series are not symmetric and take all L lanes.
high_order_rows solves one polynomial equation P(F) = 0 as its lowered
system F = 1 + z*H (equation_system), which is symmetric, and bounds its
coefficients by the 4^n words of length n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, log2, prod

import numpy as np

from .algebraic import (
    _MAX_INNER,
    PolynomialEquation,
    _is_prime,
    _matmul_mod,
    series_solve_polynomial,
)
from .qseries import QP_ZERO, QPolynomial, QZSeries

# sums of fewer than this many products below p^2 < 2^52 fit an int64
_MAX_UNREDUCED = 1 << 11
# primes are solved side by side, as many as fill this many solved lanes
_BLOCK_COLUMNS = 1024


@dataclass(frozen=True)
class Term:
    """coeff * z^z_pow * q^q_pow * product(factors); at most two factors.

    coeff is an int, or a Fraction in the systems that high_order_rows builds.
    """

    coeff: int | Fraction
    z_pow: int
    q_pow: int
    factors: tuple[str, ...] = ()


@dataclass
class EquationSystem:
    equations: dict[str, list[Term]]  # by unknown, in evaluation order
    facet_roots: dict[int, str] = field(default_factory=dict)  # facet -> L0 name
    main: str = ""  # the unknown that is F, "" for star assembly

    @property
    def unknowns(self) -> list[str]:
        """The unknowns in evaluation order."""
        return list(self.equations)

    def grouped(self, u: str) -> dict[tuple[int, tuple[str, ...]], list]:
        """u's terms that share z_pow and factors, as one group each: its
        (coeff, q_pow) pairs, the terms of one q-Laurent coefficient."""
        grouped: dict[tuple, list] = {}
        for t in self.equations[u]:
            grouped.setdefault((t.z_pow, tuple(sorted(t.factors))), []).append((t.coeff, t.q_pow))
        return grouped

    def symmetric(self) -> bool:
        """Whether q -> 1/q fixes every equation: each group's coefficient is
        symmetric under q -> 1/q.  Then it fixes the solution too, so every
        unknown's rows are symmetric."""
        return all(
            QPolynomial.from_pairs([(e, c) for c, e in pairs]).is_symmetric()
            for u in self.unknowns
            for pairs in self.grouped(u).values()
        )

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
        """Every non-constant monomial must gain at least one z-order, and a
        term without z may read coefficient n of a factor not yet evaluated
        (itself or a later unknown) only if its other factor has no constant.
        """
        safe = self.guarded()
        position = {u: i for i, u in enumerate(self.unknowns)}
        for u, terms in self.equations.items():
            for t in terms:
                if len(t.factors) > 2:
                    raise ValueError(f"{u}: more than two factors in a term")
                if t.factors and t.z_pow == 0 and not any(f in safe for f in t.factors):
                    raise ValueError(f"{u}: term {t} never gains a z-order")
                for i, f in enumerate(t.factors):
                    if f not in self.equations:
                        raise ValueError(f"{u}: unknown factor {f!r}")
                    other = t.factors[1 - i] if len(t.factors) == 2 else None
                    if not t.z_pow and position[f] >= position[u] and other not in safe:
                        raise RuntimeError(f"{u}: order n of {f} needed too early")


def equation_system(eq: PolynomialEquation) -> EquationSystem:
    """The root of eq with f0 = 1 as the system F = 1 + z*H.

    Substituting F = 1 + G into sum_k c_k F^k gives sum A[zp, j] z^zp G^j with
    A[zp, j] = sum_k binom(k, j) c_k[zp], Laurent in q.  A[0, 0] = 0 says f0 =
    1 is a root, and d0 = A[0, 1] must be a nonzero integer; then G = z*H with
    H = sum -(A[zp, j] / d0) z^(zp+j-1) H^j over the other (zp, j), and every
    term with a factor carries z.  H^j enters as H * K_(j-1), with K_1 = H and
    auxiliaries K_m = z^(m-1) H^m = z * H * K_(m-1), so no term has more than
    two factors.  F is the system's main unknown.  Raises ValueError if some
    A[zp, j] is not symmetric under q -> 1/q (so the system is symmetric()),
    if d0 is not a nonzero integer, or if f0 = 1 is not a root.
    """
    A: dict[tuple[int, int], QPolynomial] = {}
    for k, zpoly in enumerate(eq.terms):
        for zp, cq in zpoly:
            for j in range(k + 1):
                A[zp, j] = A.get((zp, j), QP_ZERO) + cq.scale(comb(k, j))
    for (zp, _), a in A.items():
        if not a.is_symmetric():
            raise ValueError(f"a coefficient of z^{zp} is not symmetric under q -> 1/q")
    d0 = A.pop((0, 1), QP_ZERO)
    if d0.is_zero() or d0.max_exp:
        raise ValueError("the z^0 coefficient of dP/dF at F = 1 is not a nonzero integer")
    d0 = d0.coeff(0)
    if not A.pop((0, 0), QP_ZERO).is_zero():
        raise ValueError(f"f0 = 1 is not a root of {eq.name} at z^0")

    def power(m: int) -> str:
        return "H" if m == 1 else f"K{m}"

    H = []
    for (zp, j), a in A.items():
        # z^(zp+j-1) H^j as z^(zp-1), z^zp * H, or z^(zp+1) * H * K_(j-1)
        if j == 0:
            z_pow, factors = zp - 1, ()
        elif j == 1:
            z_pow, factors = zp, ("H",)
        else:
            z_pow, factors = zp + 1, ("H", power(j - 1))
        H += [Term(Fraction(-c, d0), z_pow, e, factors) for e, c in a.pairs()]
    equations = {"H": H}
    for m in range(2, eq.degree):
        equations[power(m)] = [Term(1, 1, 0, ("H", power(m - 1)))]
    equations["F"] = [Term(1, 0, 0), Term(1, 1, 0, ("H",))]
    return EquationSystem(equations, main="F")


def _ntt_primes(bound: int, lanes: int) -> list[int]:
    """Primes p = 1 (mod lanes) just under 2^26 whose product exceeds bound,
    and one more after them that checks the CRT lift."""
    out = []
    modulus = 1
    m = ((1 << 26) - 2) // lanes
    while not out or modulus // out[-1] <= bound:
        p = m * lanes + 1
        if _is_prime(p):
            out.append(p)
            modulus *= p
        m -= 1
    return out


def _root_of_unity(p: int, lanes: int) -> int:
    """A primitive lanes-th root of unity mod p, for p = 1 (mod lanes):
    w^(lanes/r) != 1 for each prime factor r of lanes."""
    factors = [r for r in range(2, lanes + 1) if lanes % r == 0 and _is_prime(r)]
    for a in range(2, 1000):
        w = pow(a, (p - 1) // lanes, p)
        if all(pow(w, lanes // r, p) != 1 for r in factors):
            return w
    raise ArithmeticError(f"no primitive {lanes}-th root mod {p}")


def _powers(p: int, w: int, count: int) -> np.ndarray:
    """w^0, w^1, ..., w^(count-1) modulo p."""
    out = [1] * count
    for t in range(1, count):
        out[t] = out[t - 1] * w % p
    return np.array(out, dtype=np.int64)


def _inverse_dft(mat: np.ndarray, p: int, w: int, lanes: int) -> np.ndarray:
    """Inverse DFT mod p along axis 1 of mat, the values at q = w^t.

    mat holds lanes t < L, or t <= L//2 of rows mirrored as v_(L-t) = v_t;
    their coefficients are mirrored too, and only those of exponents
    0..L//2 come back.  The folded matrix adds w^(tk) to row t wherever t
    and L - t are distinct lanes.  The matrix, scaled by 1/L, is applied by
    _matmul_mod, exact for fewer than 2^14 lanes.
    """
    t = np.arange(mat.shape[1])
    inverse = _powers(p, pow(w, -1, p), lanes) * pow(lanes, -1, p) % p
    m = inverse[np.outer(t, t) % lanes]
    if len(t) < lanes:
        twin = (t > 0) & (2 * t < lanes)
        m[twin] = (m[twin] + inverse[np.outer(-t[twin], t) % lanes]) % p
    return _matmul_mod(mat, m, p)


def system_rows(
    system: EquationSystem, order: int, names: list[str], bound: int | None = None
) -> dict[str, QZSeries]:
    """Exact rows 0..order of the named unknowns of system, and of no other.

    The bounds pass gives each named series' q-window per row; L is the
    widest window plus one, so every window leaves a slot outside it for the
    leak check.  A system that q -> 1/q fixes (system.symmetric()) has
    mirrored rows, v_(L-t) = v_t, and runs on lanes 0..L//2 only; any other
    runs on lanes 0..L-1.  Every prime block runs _run_system on those
    lanes, and blocks fill _BLOCK_COLUMNS with solved lanes.  Only the named
    series are transformed back (_inverse_dft, folded when mirrored), and
    mirrored rows keep and lift exponents 0..hi only.  Unknowns that are not
    named may wrap around the lanes: evaluation at a root of unity is a ring
    map, so the named values stay exact.  The CRT takes |coefficients| <
    bound / 2, with bound the smaller of the caller's and the bounds pass's
    mass bound over the named series.  Raises ValueError for L >=
    _MAX_INNER, before the lane solve, what system.check_invariant raises
    (RuntimeError for a coefficient read before it is computed), and
    ArithmeticError on a residue outside a window or a check-prime mismatch.
    """
    windows, mass = _bounds(system, order, names)
    mass_bound = 1 << (ceil(mass) + 1)  # > 2 * |coefficient|
    bound = mass_bound if bound is None else min(bound, mass_bound)
    mirrored = system.symmetric()
    lanes = int(max((hi - lo).max() + 1 for lo, hi in windows.values())) + 1
    if lanes >= _MAX_INNER:
        raise ValueError(f"{lanes} lanes: the float64 transform is exact below {_MAX_INNER}")
    *primes, check = _ntt_primes(bound, lanes)
    solved = lanes // 2 + 1 if mirrored else lanes
    slots = np.arange(solved)
    first, outside, at, stacked = {}, {}, {}, {}
    for k, (lo, hi) in windows.items():
        first[k] = np.zeros_like(lo) if mirrored else lo
        outside[k] = (slots - lo[:, None]) % lanes > hi[:, None] - lo[:, None]
        if mirrored:  # slot s also stands for slot L - s
            outside[k] |= (-slots - lo[:, None]) % lanes > hi[:, None] - lo[:, None]
        kept = np.arange(max(int((hi - first[k]).max()) + 1, 0))
        at[k] = (first[k][:, None] + kept) % lanes  # slot of exponent first[n] + s
        stacked[k] = np.empty((order + 1, len(kept), len(primes) + 1), dtype=np.int32)
    block = max(1, _BLOCK_COLUMNS // solved)
    for start in range(0, len(primes) + 1, block):
        ps = (primes + [check])[start : start + block]
        ws = [_root_of_unity(p, lanes) for p in ps]
        values = _run_system(system, order, _Residues(ps, ws, lanes, solved))
        for i, (p, w) in enumerate(zip(ps, ws)):
            mat = np.concatenate([values[k][:, i] for k in names])
            rows = _inverse_dft(mat, p, w, lanes)
            for k, part in zip(names, np.split(rows, len(names))):
                leaked = np.any(part, axis=1, where=outside[k])
                if leaked.any():
                    n = int(np.argmax(leaked))
                    raise ArithmeticError(
                        f"winding support of {k} leaked outside window at {n} mod {p}"
                    )
                stacked[k][:, :, start + i] = np.take_along_axis(part, at[k], 1)
        del values  # every unknown's lane values: not kept through the next block's solve

    # CRT weights: x = sum(r_i * w_i) mod M, with w_i = 1 mod p_i and 0 mod the others
    modulus = prod(primes)
    weights = np.array(
        [modulus // p * pow(modulus // p, -1, p) for p in primes], dtype=object
    )
    out = {}
    for k, (_, hi) in windows.items():
        coeffs = []
        for n, (lo, width) in enumerate(zip(first[k].tolist(), (hi - first[k] + 1).tolist())):
            res = stacked[k][n, : max(width, 0)]
            lifted = (res[:, :-1].astype(object).dot(weights) % modulus).tolist()
            vals = [v - modulus if 2 * v >= modulus else v for v in lifted]
            if [v % check for v in vals] != res[:, -1].tolist():
                raise ArithmeticError(f"CRT lift of {k} at {n} disagrees with check prime {check}")
            if mirrored:
                lo, vals = 1 - len(vals), vals[:0:-1] + vals
            coeffs.append(QPolynomial(lo, vals))
        out[k] = QZSeries(order, coeffs)
    return out


class _Residues:
    """Series coefficients as their values at q = w^t, t < count, modulo p,
    for several primes p and their L-th roots w; a coefficient is
    (primes, count)."""

    def __init__(self, primes: list[int], roots: list[int], lanes: int, count: int):
        self.primes = primes
        self.p = np.array(primes, dtype=np.int64)[:, None]
        self.powers = np.array([_powers(p, w, lanes) for p, w in zip(primes, roots)])
        self.slots = np.arange(count)
        self.lanes = lanes
        self.one = np.ones((len(primes), count), dtype=np.int64)

    def rows(self, order: int) -> np.ndarray:
        return np.zeros((order + 1, *self.one.shape), dtype=np.int64)

    def coefficients(self, groups) -> np.ndarray:
        """The sum of c * q^e over each group's (c, e) pairs; c / d is c * d^-1."""
        out = np.zeros((len(groups), *self.one.shape), dtype=np.int64)
        for acc, pairs in zip(out, groups):
            for c, e in pairs:
                c = Fraction(c)
                scalar = np.array([c.numerator * pow(c.denominator, -1, p) % p for p in self.primes])
                acc += scalar[:, None] * self.powers[:, e * self.slots % self.lanes] % self.p
            acc %= self.p
        return out

    def dot(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The sum of xs[i] * ys[i]."""
        return np.einsum("ipl,ipl->pl", xs, ys) % self.p


# added to every log2 sum; far above the float error of a sum of < 2^11 terms
_SLACK = 2.0**-20


class _Bounds:
    """Series coefficients as (lo, hi, log2 mass): q-support inside [lo, hi],
    absolute values summing to at most 2^mass; zero is (inf, -inf, -inf)."""

    one = np.zeros(3)

    def rows(self, order: int) -> np.ndarray:
        return np.tile([np.inf, -np.inf, -np.inf], (order + 1, 1))

    @staticmethod
    def _sum(s: np.ndarray) -> np.ndarray:
        return np.array([s[:, 0].min(), s[:, 1].max(), np.logaddexp2.reduce(s[:, 2]) + _SLACK])

    def coefficients(self, groups) -> np.ndarray:
        out = []
        for pairs in groups:
            mass = sum(abs(Fraction(c)) for c, _ in pairs)
            exps = [e for _, e in pairs]
            out.append((min(exps), max(exps), log2(mass.numerator) - log2(mass.denominator)))
        return np.array(out)

    def dot(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self._sum(xs + ys)


def _run_system(system: EquationSystem, order: int, alg) -> dict:
    """Rows 0..order of every unknown in alg; coefficients not computed yet
    read as zero.

    An unknown's terms that share z_pow and factors form one group with a
    q-Laurent coefficient, so each unknown costs one alg.dot of the group
    coefficients with their factor values per order; a two-factor value is
    itself one alg.dot, the convolution of the factors' rows.  The product
    coefficients of each factor pair are kept across orders until no
    term reads them again: one computed before a factor's current
    coefficient lacks only products with the other factor's constant term,
    which check_invariant makes zero.
    """
    rows = {u: alg.rows(order) for u in system.unknowns}
    groups = {}
    for u in system.unknowns:
        grouped = system.grouped(u)
        groups[u] = list(grouped), alg.coefficients(list(grouped.values()))
    products = {}
    reach = max(t.z_pow for terms in system.equations.values() for t in terms)
    for n in range(order + 1):
        for u in system.unknowns:
            keys, coeffs = groups[u]
            used, vals = [], []
            for i, (z_pow, factors) in enumerate(keys):
                j = n - z_pow
                if j < 0 or (j and not factors):
                    continue
                if not factors:
                    vals.append(alg.one)
                elif len(factors) == 1:
                    vals.append(rows[factors[0]][j])
                else:
                    key = (*factors, j)
                    if key not in products:
                        a, b = (rows[f] for f in factors)
                        products[key] = alg.dot(a[: j + 1], b[j::-1])
                    vals.append(products[key])
                used.append(i)
            if used:
                rows[u][n] = alg.dot(coeffs[used], np.array(vals))
        for key in [k for k in products if k[-1] <= n - reach]:
            del products[key]  # later orders read j > n - reach only
    return rows


def _bounds(system: EquationSystem, order: int, names: list[str]):
    """The bounds pass: each named unknown's q-exponent window per row, as
    integer arrays (lo, hi), and log2 of a bound on the l1 mass of any of
    their rows.

    Raises ValueError for an order or an equation too long for unreduced
    int64 sums, and what system.check_invariant raises.
    """
    if order >= _MAX_UNREDUCED:
        raise ValueError(f"order must be below {_MAX_UNREDUCED}")
    if max(map(len, system.equations.values())) >= _MAX_UNREDUCED:
        raise ValueError("too many terms in an equation for an unreduced int64 sum")
    system.check_invariant()
    bounds = _run_system(system, order, _Bounds())
    picked = [bounds[u] for u in names]
    windows = {
        u: (np.nan_to_num(b[:, 0], posinf=0).astype(int), np.nan_to_num(b[:, 1], neginf=-1).astype(int))
        for u, b in zip(names, picked)
    }
    return windows, max(b[:, 2].max() for b in picked)


def high_order_rows(eq: PolynomialEquation, order: int) -> QZSeries:
    """Exact coefficient rows of eq's counting-series root up to z^order.

    The root with f0 = 1 is the unknown F of eq's lowered system F = 1 + z*H
    (equation_system), which q -> 1/q fixes, so system_rows solves lanes
    0..L//2 only; F's coefficients are bounded by the number of 4-letter
    words.  Raises ValueError if eq is not q -> 1/q symmetric, its dP/dF at
    (z, F) = (0, 1) is not a nonzero integer or f0 = 1 is not a root, and
    ArithmeticError from the lift's checks.
    """
    return system_rows(equation_system(eq), order, ["F"], 2 * 4**order)["F"]


def series_at_q1(eq: PolynomialEquation, order: int) -> list[int]:
    """Row sums (q = 1) of the counting series, exactly, via big integers."""
    collapsed = tuple(
        tuple(
            (zp, QPolynomial.constant(cq.eval_at_one()))
            for zp, cq in zpoly
        )
        for zpoly in eq.terms
    )
    flat = PolynomialEquation(eq.name + "-q1", collapsed)
    series = series_solve_polynomial(flat, 1, order)
    return [series.coeffs[n].coeff(0) for n in range(order + 1)]
