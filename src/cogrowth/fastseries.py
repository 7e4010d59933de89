"""High-order exact expansion of the cubic/quintic return equations.

The per-order solver in systems.py is exact but its Laurent arithmetic is too
slow past a few hundred orders.  Here the q-variable is evaluated at all L-th
roots of unity modulo a stack of 26-bit primes p = 1 (mod L), the equation is
expanded order by order independently on every (prime, lane) pair with numpy,
and coefficients are recovered by an inverse transform over lanes followed by
CRT and a signed lift.  L is the smallest power of two above 2 * max_w + 1,
where the winding window max_w follows from the equation: every q-exponent of
a z^zp coefficient is at most slope * zp, and the z^0 coefficients carry no q,
so row n has q-degree at most slope * n.  Products of two residues stay below
2^52, so a sum of fewer than 2^11 of them (one power-series convolution at
order < 2^11) fits an int64 unreduced and plain int64 arithmetic is exact
throughout.  Winding symmetry f(q) = f(1/q) halves the lanes that need
solving.  The engine checks its own assumptions: a coefficient that is not
q -> 1/q symmetric or a z^0 coefficient that depends on q is rejected, and a
nonzero residue in any slot outside the window raises.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np

from .algebraic import PolynomialEquation, _is_prime, series_solve_polynomial
from .qseries import QPolynomial, QZSeries

# sums of fewer than this many products below p^2 < 2^52 fit an int64
_MAX_UNREDUCED = 1 << 11


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
    """Primes p = 1 (mod lanes) just under 2^26 whose product exceeds bound."""
    out = []
    modulus = 1
    m = ((1 << 26) - 2) // lanes
    while modulus <= bound:
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
        wp = np.empty(half, dtype=np.int64)
        acc = 1
        for i in range(half):
            wp[i] = acc
            acc = acc * wlen % p
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
    half = lanes // 2 + 1
    ks, zps, rows = [], [], []
    for k, zpoly in enumerate(eq.terms):
        for zp, cq in zpoly:
            vals = np.zeros(half, dtype=np.int64)
            for e, v in cq.pairs():
                we = pow(w, e % lanes, p)
                acc = 1
                powers = np.empty(half, dtype=np.int64)
                for t in range(half):
                    powers[t] = acc
                    acc = acc * we % p
                vals = (vals + v % p * powers) % p
            ks.append(k)
            zps.append(zp)
            rows.append(vals)
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


def high_order_rows(eq: PolynomialEquation, order: int) -> QZSeries:
    """Exact coefficient rows of eq's counting-series root up to z^order.

    The winding window max_w and the lane count L (the smallest power of two
    above 2 * max_w + 1) follow from eq; raises ValueError if eq is not
    q -> 1/q symmetric or has a q-dependent z^0 coefficient, and
    ArithmeticError if any prime's transform leaves a nonzero residue
    outside the window.
    """
    if order >= _MAX_UNREDUCED:
        raise ValueError(f"order must be below {_MAX_UNREDUCED}")
    max_w = _winding_window(eq, order)
    lanes = 1 << (2 * max_w + 1).bit_length()
    # coefficients are bounded by the number of 4-letter words
    primes = _ntt_primes(2 * 4**order, lanes)
    nprimes = len(primes)
    half = lanes // 2 + 1
    mirror = np.concatenate(
        [np.arange(half), np.arange(half - 2, 0, -1)]
    )

    stacked = np.empty((order + 1, max_w + 1, nprimes), dtype=np.int32)
    for i, p in enumerate(primes):
        w = _root_of_unity(p, lanes)
        values = _solve_lanes(eq, order, p, w, lanes)
        rows = _intt_rows(values[:, mirror], p, w)
        # rows are mirror-symmetric, so slots max_w+1..L/2 cover every
        # slot outside the window
        leaked = rows[:, max_w + 1 : half].any(axis=1)
        if leaked.any():
            n = int(np.argmax(leaked))
            raise ArithmeticError(f"winding support leaked outside window at {n} mod {p}")
        stacked[:, :, i] = rows[:, : max_w + 1]

    # CRT weights: x = sum(r_i * w_i) mod M, with w_i = 1 mod p_i and 0 mod the others
    modulus = prod(primes)
    weights = np.array(
        [modulus // p * pow(modulus // p, -1, p) for p in primes], dtype=object
    )
    coeffs = [QPolynomial.constant(1)]
    for n in range(1, order + 1):
        lifted = stacked[n, : min(n, max_w) + 1].astype(object).dot(weights) % modulus
        pairs = []
        for m, v in enumerate(lifted.tolist()):
            if not v:
                continue
            if 2 * v >= modulus:
                v -= modulus
            pairs.append((m, v))
            if m:
                pairs.append((-m, v))
        coeffs.append(QPolynomial.from_pairs(pairs))
    return QZSeries(order, coeffs)


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
