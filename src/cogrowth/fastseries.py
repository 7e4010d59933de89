"""Exact series expansion on NTT/CRT lanes, for single equations and systems.

The q-variable is evaluated at all L-th roots of unity modulo a stack of
26-bit primes p = 1 (mod L), the series is expanded order by order on every
(prime, lane) pair with numpy, and one driver brings the rows back: an inverse
transform over the lanes, a check that no residue lies outside the winding
window, and CRT with a signed lift, checked against one more prime.  Products
of two residues stay below 2^52, so a sum of fewer than 2^11 of them (one
power-series convolution at order < 2^11) fits an int64 unreduced.
high_order_rows solves one polynomial equation whose rows are q -> 1/q
symmetric, which halves the lanes; row n has q-degree at most slope * n.
system_rows solves an EquationSystem on all lanes, since one-sided series are
not symmetric; the same order-by-order loop run on (interval, log2 mass)
pairs instead of residues gives each series a provable q-exponent window per
order and a bound on its coefficients.  L is the smallest power of two above
the widest window.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, log2, prod

import numpy as np

from .algebraic import PolynomialEquation, _is_prime, series_solve_polynomial
from .qseries import QPolynomial, QZSeries

# sums of fewer than this many products below p^2 < 2^52 fit an int64
_MAX_UNREDUCED = 1 << 11
# primes are solved side by side, as many as fill this many lanes
_BLOCK_COLUMNS = 1024


def _winding_window(eq: PolynomialEquation, order: int) -> int:
    """max_w with f(n, m) = 0 for |m| > max_w and n <= order.

    With slope = max |e| / zp over eq's q^e z^zp terms with zp >= 1, row n
    has q-degree at most slope * n, by induction on n: a z^zp term times rows
    whose orders sum to n - zp has q-degree at most slope * n, and f_n is
    divided out by the z^0 coefficients, which carry no q.  Raises ValueError
    if a coefficient depends on q at z^0 or is not symmetric under q -> 1/q,
    which the rows need for the lane mirroring.
    """
    slope = Fraction(0)
    for zpoly in eq.terms:
        for zp, cq in zpoly:
            if not cq.is_symmetric():
                raise ValueError(f"coefficient of z^{zp} is not symmetric under q -> 1/q")
            if zp == 0:
                if cq.max_exp > 0:
                    raise ValueError("a z^0 coefficient depends on q")
            else:
                slope = max(slope, Fraction(cq.max_exp, zp))
    return slope.numerator * order // slope.denominator


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
    for a in range(2, 1000):
        w = pow(a, (p - 1) // lanes, p)
        if pow(w, lanes // 2, p) == p - 1:
            return w
    raise ArithmeticError(f"no primitive {lanes}-th root mod {p}")


def _powers(p: int, w: int, count: int) -> np.ndarray:
    """w^0, w^1, ..., w^(count-1) modulo p."""
    out = [1] * count
    for t in range(1, count):
        out[t] = out[t - 1] * w % p
    return np.array(out, dtype=np.int64)


def _bit_reverse(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _intt_rows(mat: np.ndarray, p: int, w: int) -> np.ndarray:
    """Inverse transform along axis 1; mat holds values at powers of w's inverse."""
    rows, n = mat.shape
    out = mat[:, _bit_reverse(n)].copy()
    root = pow(w, p - 2, p)  # evaluate at inverse powers
    length = 2
    while length <= n:
        wlen = pow(root, n // length, p)
        half = length // 2
        wp = _powers(p, wlen, half)
        view = out.reshape(rows, n // length, length)
        a = view[:, :, :half].copy()  # the in-place write below must not alias it
        b = view[:, :, half:] * wp % p
        view[:, :, :half] = (a + b) % p
        view[:, :, half:] = (a - b) % p
        length *= 2
    inv_n = pow(n, p - 2, p)
    return out * inv_n % p


def _lane_coefficients(eq: PolynomialEquation, p: int, w: int, lanes: int):
    """eq's terms evaluated at q = w^t for t = 0..lanes/2.

    Returns the F-power k and the z-power zp of each term, and a (terms, half)
    matrix of the term's coefficient on every lane.
    """
    at = np.arange(lanes // 2 + 1)
    powers = _powers(p, w, lanes)
    ks, zps, rows = [], [], []
    for k, zpoly in enumerate(eq.terms):
        for zp, cq in zpoly:
            ks.append(k)
            zps.append(zp)
            rows.append(sum(v % p * powers[e * at % lanes] % p for e, v in cq.pairs()) % p)
    return np.array(ks), np.array(zps), np.array(rows, dtype=np.int64)


def _solve_lanes(eq: PolynomialEquation, order: int, p: int, w: int, lanes: int) -> np.ndarray:
    """Series root with f0 = 1 on lanes q = w^t, t = 0..lanes/2; shape (order+1, half).

    The powers F^k are pulled one coefficient at a time: the z^n coefficient
    of F^k is the convolution of F^(k-1) with F, summed over at most order
    products below p^2 < 2^52 and reduced once.  The residual at order n is
    one gather of F^k[n - zp] for every term and one reduction.
    """
    half = lanes // 2 + 1
    deg = eq.degree
    ks, zps, coeffs = _lane_coefficients(eq, p, w, lanes)
    if len(ks) * (p - 1) ** 2 >= 1 << 63:
        raise ArithmeticError("too many equation terms for an unreduced int64 residual")
    at_origin = zps == 0
    a0 = coeffs[at_origin].sum(axis=0) % p
    d0 = (ks[at_origin, None] * coeffs[at_origin]).sum(axis=0) % p
    if a0.any():
        raise ArithmeticError("f0 = 1 is not a root on some lane")
    inv_d0 = np.array([pow(int(x), p - 2, p) for x in d0], dtype=np.int64)

    # pows[k, pad + i] = F^k[i]; the zero rows below pad serve terms with zp > n
    pad = int(zps.max())
    pows = np.zeros((deg + 1, pad + order + 1, half), dtype=np.int64)
    pows[:, pad] = 1
    base = pad - zps
    rev = np.zeros((order + 1, half), dtype=np.int64)  # rev[order - i] = F[i]
    rev[order] = 1
    for n in range(1, order + 1):
        # F^k[n] = conv + F^(k-1)[n] + f_n (f_0 = 1); leave out every term
        # that carries f_n, which together add k * f_n
        for k in range(2, deg + 1):
            conv = np.einsum(
                "ij,ij->j", pows[k - 1, pad + 1 : pad + n], rev[order - n + 1 : order]
            )
            pows[k, pad + n] = (conv + pows[k - 1, pad + n]) % p
        r = np.einsum("th,th->h", coeffs, pows[ks, base + n]) % p
        fn = (p - r) * inv_d0 % p
        pows[1, pad + n] = fn
        rev[order - n] = fn
        for k in range(2, deg + 1):
            pows[k, pad + n] = (pows[k, pad + n] + k * fn) % p
    return pows[1, pad:]


def _lift(order: int, bound: int, windows: dict, residues, mirrored: bool = False) -> dict:
    """Exact rows 0..order of every series in windows, from its lane values.

    windows maps a key to integer arrays (lo, hi) that hold row n's q-support
    ([lo, hi] empty when lo > hi); |coefficients| < bound / 2.  residues(ps,
    ws, L) gives each series' values at q = w^t, t < L, modulo each prime p
    with its root w, as an (order+1, primes, L) array.  Mirrored rows are
    q -> 1/q symmetric, so only their exponents 0..hi are kept and lifted.
    Raises ArithmeticError on a residue outside a window or a check-prime
    mismatch.
    """
    keys = list(windows)
    lanes = 1 << int(max((hi - lo).max() + 1 for lo, hi in windows.values())).bit_length()
    *primes, check = _ntt_primes(bound, lanes)
    slots = np.arange(lanes)
    first, outside, at, stacked = {}, {}, {}, {}
    for k, (lo, hi) in windows.items():
        first[k] = np.zeros_like(lo) if mirrored else lo
        outside[k] = (slots - lo[:, None]) % lanes > hi[:, None] - lo[:, None]
        kept = np.arange(max(int((hi - first[k]).max()) + 1, 0))
        at[k] = (first[k][:, None] + kept) % lanes  # slot of exponent first[n] + s
        stacked[k] = np.empty((order + 1, len(kept), len(primes) + 1), dtype=np.int32)
    block = max(1, _BLOCK_COLUMNS // lanes)
    for start in range(0, len(primes) + 1, block):
        ps = (primes + [check])[start : start + block]
        ws = [_root_of_unity(p, lanes) for p in ps]
        values = residues(ps, ws, lanes)
        for i, (p, w) in enumerate(zip(ps, ws)):
            rows = _intt_rows(np.concatenate([values[k][:, i] for k in keys]), p, w)
            for k, part in zip(keys, np.split(rows, len(keys))):
                leaked = np.any(part, axis=1, where=outside[k])
                if leaked.any():
                    n = int(np.argmax(leaked))
                    raise ArithmeticError(
                        f"winding support of {k} leaked outside window at {n} mod {p}"
                    )
                stacked[k][:, :, start + i] = np.take_along_axis(part, at[k], 1)

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


def high_order_rows(eq: PolynomialEquation, order: int) -> QZSeries:
    """Exact coefficient rows of eq's counting-series root up to z^order.

    Row n's window is [-w_n, w_n] with w_n = _winding_window(eq, n); raises
    ValueError if eq is not q -> 1/q symmetric or has a q-dependent z^0
    coefficient, and ArithmeticError from the lift's checks.
    """
    if order >= _MAX_UNREDUCED:
        raise ValueError(f"order must be below {_MAX_UNREDUCED}")
    reach = np.array([_winding_window(eq, n) for n in range(order + 1)])

    def residues(primes, roots, lanes):
        # the rows are symmetric: solve lanes 0..L/2 and mirror the rest
        half = lanes // 2 + 1
        mirror = np.concatenate([np.arange(half), np.arange(half - 2, 0, -1)])
        values = np.empty((order + 1, len(primes), lanes), dtype=np.int64)
        for i, (p, w) in enumerate(zip(primes, roots)):
            values[:, i] = _solve_lanes(eq, order, p, w, lanes)[:, mirror]
        return {"F": values}

    # coefficients are bounded by the number of 4-letter words
    return _lift(order, 2 * 4**order, {"F": (-reach, reach)}, residues, mirrored=True)["F"]


class _Residues:
    """Series coefficients as their values at q = w^t, t = 0..L-1, modulo p,
    for several primes p and their roots w; a coefficient is (primes, L)."""

    def __init__(self, primes: list[int], roots: list[int], lanes: int):
        self.lanes = lanes
        self.p = np.array(primes, dtype=np.int64)[:, None]
        self.powers = np.array([_powers(p, w, lanes) for p, w in zip(primes, roots)])
        self.one = np.ones_like(self.powers)
        self.scalars: dict[tuple[int, int], np.ndarray] = {}

    def rows(self, order: int) -> np.ndarray:
        return np.zeros((order + 1, *self.one.shape), dtype=np.int64)

    def conv(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.einsum("ipl,ipl->pl", xs, ys) % self.p

    def combine(self, vals, terms) -> np.ndarray:
        """The sum of c * q^e * v over vals and the (c, e) of terms."""
        acc = 0
        for v, (c, e) in zip(vals, terms):
            if (c, e) not in self.scalars:
                at = e * np.arange(self.lanes) % self.lanes
                self.scalars[c, e] = c % self.p * self.powers[:, at] % self.p
            acc = acc + self.scalars[c, e] * v
        return acc % self.p


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

    def conv(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self._sum(xs + ys)

    def combine(self, vals, terms) -> np.ndarray:
        return self._sum(np.array([v + (e, e, log2(abs(c))) for v, (c, e) in zip(vals, terms)]))


def _run_system(system, order: int, alg) -> dict:
    """Rows 0..order of every unknown in alg; coefficients not computed yet
    read as zero."""
    rows = {u: alg.rows(order) for u in system.unknowns}
    for n in range(order + 1):
        convs = {}
        for u in system.unknowns:
            vals, terms = [], []
            for t in system.equations[u]:
                j = n - t.z_pow
                if j < 0 or (j and not t.factors):
                    continue
                if not t.factors:
                    vals.append(alg.one)
                elif len(t.factors) == 1:
                    vals.append(rows[t.factors[0]][j])
                else:
                    key = (*sorted(t.factors), j)
                    if key not in convs:
                        a, b = (rows[f] for f in t.factors)
                        convs[key] = alg.conv(a[: j + 1], b[j::-1])
                    vals.append(convs[key])
                terms.append((t.coeff, t.q_pow))
            if vals:
                rows[u][n] = alg.combine(vals, terms)
    return rows


def system_rows(system, order: int) -> dict[str, QZSeries]:
    """Exact rows up to z^order of every unknown of an EquationSystem.

    Raises what system.check_invariant raises (RuntimeError for a coefficient
    read before it is computed) and ArithmeticError from the lift's checks.
    """
    if order >= _MAX_UNREDUCED:
        raise ValueError(f"order must be below {_MAX_UNREDUCED}")
    if max(map(len, system.equations.values())) >= _MAX_UNREDUCED:
        raise ValueError("too many terms in an equation for an unreduced int64 sum")
    system.check_invariant()
    bounds = _run_system(system, order, _Bounds())
    windows = {
        u: (np.nan_to_num(b[:, 0], posinf=0).astype(int), np.nan_to_num(b[:, 1], neginf=-1).astype(int))
        for u, b in bounds.items()
    }
    bound = 1 << (ceil(max(b[:, 2].max() for b in bounds.values())) + 1)  # > 2 * |coefficient|
    return _lift(
        order,
        bound,
        windows,
        lambda primes, roots, lanes: _run_system(system, order, _Residues(primes, roots, lanes)),
    )


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
