"""Explicit polynomial equations for return series, and P-recurrence guessing.

Eliminating the finite systems leaves a single polynomial P(F, z, q) = 0 per
group; the three used here are stored with exact integer Laurent coefficients.
Such an equation determines its counting-series root order by order once the
constant term is fixed, so no elimination machinery is needed at runtime.
Recurrence guessing runs nullspace searches on shifted, index-weighted copies
of a sequence: candidates are found modulo primes below 2^26 with numpy
elimination, lifted by CRT plus rational reconstruction over as many primes as
the coefficients need (up to the Hadamard bound of the fitting matrix), and
only believed after exact integer verification on the whole attested prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, isqrt, log2

import numpy as np

from .qseries import (
    QP_ZERO,
    QPolynomial,
    QZSeries,
    series_add,
    series_mul,
)

ZPoly = tuple[tuple[int, QPolynomial], ...]  # sorted (z_pow, coefficient)


@dataclass(frozen=True)
class PolynomialEquation:
    """0 = sum_k terms[k] * F^k with z-polynomial Laurent-in-q coefficients."""

    name: str
    terms: tuple[ZPoly, ...]

    def __post_init__(self):
        if not self.terms or all(not zp for zp in self.terms):
            raise ValueError("empty equation")
        if not self.terms[-1]:
            raise ValueError("zero leading coefficient")
        for zpoly in self.terms:
            zpows = [zp for zp, _ in zpoly]
            if any(zp < 0 for zp in zpows) or sorted(set(zpows)) != zpows:
                raise ValueError("malformed z-polynomial")

    @property
    def degree(self) -> int:
        return len(self.terms) - 1

    def coefficient_at_origin(self, k: int) -> QPolynomial:
        for zp, cq in self.terms[k]:
            if zp == 0:
                return cq
        return QP_ZERO

    def evaluate(self, series: QZSeries) -> QZSeries:
        """P(series) truncated to the series' own order."""
        order = series.order
        total = QZSeries(order)
        power = QZSeries.one(order)
        for k, zpoly in enumerate(self.terms):
            if k:
                power = series_mul(power, series)
            ck = QZSeries(order)
            for zp, cq in zpoly:
                if zp <= order:
                    ck.coeffs[zp] = ck.coeffs[zp] + cq
            total = series_add(total, series_mul(ck, power))
        return total


def _zpoly(entries: dict[int, QPolynomial | int]) -> ZPoly:
    out = []
    for zp in sorted(entries):
        cq = entries[zp]
        if isinstance(cq, int):
            cq = QPolynomial.constant(cq)
        if not cq.is_zero():
            out.append((zp, cq))
    return tuple(out)


def trefoil_equation() -> PolynomialEquation:
    """Cubic for the winding-tracked return series of the (2,3) star group."""
    c = QPolynomial.constant
    Q = QPolynomial.from_pairs([(1, 1), (-1, 1)])  # q + 1/q
    j1 = _zpoly({0: 1, 2: -(Q + c(3)), 3: Q, 4: -Q})
    j2 = _zpoly({
        0: -1,
        2: Q.scale(2) + c(8),
        3: Q,
        4: -(Q * Q + Q.scale(4) + c(7)),
        5: (Q + c(1)) * Q,
    })
    j3 = _zpoly({
        0: -1,
        2: Q.scale(3) + c(12),
        3: Q.scale(2),
        4: -((Q * Q).scale(3) + Q.scale(12) + c(21)),
        5: ((Q + c(1)) * Q).scale(6),
        6: (Q - c(2)) * (Q * Q + Q - c(1)),
    })
    constant = _zpoly({0: 1, 2: -1})
    return PolynomialEquation("trefoil-return", (constant, j1, j2, j3))


def braid_equation() -> PolynomialEquation:
    """Cubic for the winding-tracked return series of the braid presentation."""
    Q = QPolynomial.from_pairs([(1, 1), (-1, 1)])
    return PolynomialEquation(
        "braid-return",
        (
            _zpoly({0: 1}),
            _zpoly({0: 1}),
            _zpoly({0: -1, 2: 4}),
            _zpoly({0: -1, 2: 12, 3: Q.scale(8)}),
        ),
    )


def _zmul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def axa_q1_equation() -> PolynomialEquation:
    """Quintic for the length-only return series of the axa presentation."""
    def lin(c1, c0):
        return {1: c1, 0: c0}

    f5 = lin(2, 1)
    for factor in (lin(1, -1), lin(3, 1), lin(4, -1), lin(4, -1), lin(4, 1)):
        f5 = _zmul(f5, factor)
    f4 = _zmul(lin(4, -1), {5: 16, 4: -28, 3: -50, 2: -5, 1: 6, 0: 1})
    f1 = _zmul(_zmul({1: 1}, lin(1, -2)), {2: 4, 1: 2, 0: -1})
    return PolynomialEquation(
        "axa-return-q1",
        (
            _zpoly({3: -2, 2: -3}),
            _zpoly(f1),
            _zpoly({4: 12, 3: -12, 2: -18, 1: 2, 0: 1}),
            _zpoly({4: 52, 3: 20, 2: -18, 1: -2, 0: 1}),
            _zpoly(f4),
            _zpoly(f5),
        ),
    )


def _divide_monomial(poly: QPolynomial, value: int, shift: int) -> QPolynomial:
    pairs = []
    for e, v in poly.pairs():
        if v % value:
            raise ArithmeticError("coefficient not divisible; wrong root branch?")
        pairs.append((e - shift, v // value))
    return QPolynomial.from_pairs(pairs)


def series_solve_polynomial(eq: PolynomialEquation, f0: int, order: int) -> QZSeries:
    """The unique series root of eq with constant term f0, to the given order.

    The exact Laurent-arithmetic reference for the lane engine: the tests,
    fastseries.series_at_q1 and the lanes benchmark's check compare against
    it.  Requires a simple root at z = 0 whose F-derivative there is a
    monomial in q, so each new coefficient comes from one exact division.
    Powers of the partial solution are maintained incrementally: appending
    f_n z^n updates F^k through the binomial cross terms against the old
    lower powers.
    """
    deg = eq.degree
    at0 = QP_ZERO
    deriv = QP_ZERO
    for k in range(deg + 1):
        ck = eq.coefficient_at_origin(k)
        at0 = at0 + ck.scale(f0 ** k)
        if k:
            deriv = deriv + ck.scale(k * f0 ** (k - 1))
    if not at0.is_zero():
        raise ValueError(f"f0={f0} is not a root of {eq.name} at z=0")
    monomial = deriv.pairs()
    if len(monomial) != 1:
        raise ValueError("root is not simple with monomial derivative")
    d_exp, d_val = monomial[0]

    pows: list[list[QPolynomial]] = []
    for k in range(deg + 1):
        row = [QP_ZERO] * (order + 1)
        row[0] = QPolynomial.constant(f0 ** k)
        pows.append(row)
    coeffs = [QPolynomial.constant(f0)]
    for n in range(1, order + 1):
        residual = QP_ZERO
        for k in range(deg + 1):
            for zp, cq in eq.terms[k]:
                if zp <= n:
                    val = pows[k][n - zp]
                    if not val.is_zero():
                        residual = residual + cq * val
        fn = _divide_monomial(-residual, d_val, d_exp)
        coeffs.append(fn)
        if fn.is_zero():
            continue
        fp = [QPolynomial.constant(1), fn]
        for _ in range(2, deg + 1):
            fp.append(fp[-1] * fn)
        for k in range(deg, 0, -1):
            for j in range(1, k + 1):
                start = n * j
                if start > order:
                    break
                weight = fp[j].scale(comb(k, j))
                base = pows[k - j]
                for t in range(order - start + 1):
                    if not base[t].is_zero():
                        pows[k][t + start] = pows[k][t + start] + weight * base[t]
    return QZSeries(order, coeffs)


@dataclass(frozen=True)
class ResidualReport:
    ok: bool
    first_failure: int | None


def residual_check(eq: PolynomialEquation, series: QZSeries, order: int) -> ResidualReport:
    """Does P(series) vanish identically mod z^(order+1)?  Exact."""
    if series.order < order:
        raise ValueError("series too short for requested residual order")
    trimmed = QZSeries(order, series.coeffs[: order + 1])
    value = eq.evaluate(trimmed)
    for n in range(order + 1):
        if not value.coeffs[n].is_zero():
            return ResidualReport(False, n)
    return ResidualReport(True, None)


@dataclass(frozen=True)
class Recurrence:
    """sum over stored (shift j, power d, value): value * n^d * seq(n+j) = 0."""

    order: int
    degree: int
    coeffs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.order < 1 or self.degree < 0:
            raise ValueError("bad recurrence shape")
        seen = set()
        top = False
        for j, d, v in self.coeffs:
            if not (0 <= j <= self.order and 0 <= d <= self.degree) or v == 0:
                raise ValueError(f"bad coefficient entry ({j},{d},{v})")
            if (j, d) in seen:
                raise ValueError("duplicate coefficient entry")
            seen.add((j, d))
            top = top or j == self.order
        if not top:
            raise ValueError("leading shift has zero polynomial")

    def defect(self, seq, n: int) -> int:
        return sum(v * n ** d * seq[n + j] for j, d, v in self.coeffs)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "coeffs": [[j, d, str(v)] for j, d, v in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Recurrence":
        return cls(
            int(data["order"]),
            int(data["degree"]),
            tuple((int(j), int(d), int(v)) for j, d, v in data["coeffs"]),
        )


def verify_recurrence(rec: Recurrence, seq) -> bool:
    if len(seq) <= rec.order:
        raise ValueError("sequence shorter than recurrence order")
    return all(rec.defect(seq, n) == 0 for n in range(len(seq) - rec.order))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(start: int, count: int) -> list[int]:
    out = []
    n = start - 1 if start % 2 == 0 else start
    while len(out) < count:
        n -= 2
        if _is_prime(n):
            out.append(n)
    return out


_FILTER_PRIMES = _primes_below(1 << 26, 2)
# terms guess_recurrence needs beyond the largest shape's unknown count
_GUESS_MARGIN = 50


def _columns(order: int, degree: int) -> list[tuple[int, int]]:
    return [(j, d) for j in range(order + 1) for d in range(degree + 1)]


def _matrix_mod(seq, order, degree, rows, p) -> np.ndarray:
    """Fitting matrix modulo p: row n, column (j, d) holds n^d * seq[n + j]."""
    seqmod = np.array([s % p for s in seq[: rows + order]], dtype=np.int64)
    npow = np.ones((rows, degree + 1), dtype=np.int64)
    ns = np.arange(rows, dtype=np.int64) % p
    for d in range(1, degree + 1):
        npow[:, d] = npow[:, d - 1] * ns % p
    blocks = [npow * seqmod[j : j + rows, None] % p for j in range(order + 1)]
    return np.concatenate(blocks, axis=1)


def _nullvector_numpy(data, p):
    """Gauss-Jordan modulo p < 2^26: (nullvector or None, pivot columns).

    Only the pivot column and the pivot row are reduced at each step; the
    rest of the matrix takes the update unreduced.  Each update subtracts
    less than p^2 < 2^52, so 2^10 of them stay inside an int64 and the whole
    matrix is reduced once after every 2^10 pivots.  Columns left of the
    pivot are already zero, so each step only updates the columns from the
    pivot on.
    """
    M = np.array(data, dtype=np.int64)
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        M[r:, c] %= p
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r, c:] = M[r, c:] % p * pow(int(M[r, c]), -1, p) % p
        col = M[:, c] % p
        col[r] = 0
        M[:, c:] -= np.outer(col, M[r, c:])
        pivots.append(c)
        r += 1
        if r == rows:
            break
        if r % 1024 == 0:
            M %= p
    M %= p
    return _extract_nullvector(M[: len(pivots)].tolist(), pivots, cols, p)


def _extract_nullvector(reduced, pivots, cols, p):
    pivot_set = set(pivots)
    free = next((c for c in range(cols) if c not in pivot_set), None)
    if free is None:
        return None, pivots
    vec = [0] * cols
    vec[free] = 1
    for i, pc in enumerate(pivots):
        vec[pc] = -reduced[i][free] % p
    return vec, pivots


def _crt(residues: list[int], mods: list[int]) -> tuple[int, int]:
    x, m = residues[0], mods[0]
    for r, p in zip(residues[1:], mods[1:]):
        h = (r - x) * pow(m % p, -1, p) % p
        x += m * h
        m *= p
    return x % m, m


def _rational_reconstruct(u: int, m: int) -> tuple[int, int] | None:
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
    if s1 == 0:
        return None
    p, q = (r1, s1) if s1 > 0 else (-r1, -s1)
    if q > bound or gcd(abs(p), q) != 1 or (p - u * q) % m:
        return None
    return p, q


def guess_recurrence(seq, max_order: int, max_degree: int) -> Recurrence | None:
    """Smallest-matrix recurrence with poly coefficients annihilating seq.

    Candidate shapes (order, degree) are tried by ascending unknown count so
    genuinely short recurrences are found first.  The modular stages use a
    capped window of rows; the survivor must then annihilate the entire
    sequence exactly, which also leaves every trailing term as held-out
    validation for free.
    """
    seq = [int(s) for s in seq]
    need = (max_order + 1) * (max_degree + 1) + _GUESS_MARGIN
    if len(seq) < need:
        raise ValueError(f"insufficient terms: have {len(seq)}, need {need}")
    shapes = sorted(
        ((r, d) for r in range(1, max_order + 1) for d in range(max_degree + 1)),
        key=lambda rd: ((rd[0] + 1) * (rd[1] + 1), rd[0], rd[1]),
    )
    for r, d in shapes:
        cells = (r + 1) * (d + 1)
        if len(seq) - r < cells + 8:
            continue
        rows = min(len(seq) - r, cells + 32)
        images = {}
        for p in _FILTER_PRIMES:
            vec, pivots = _nullvector_numpy(_matrix_mod(seq, r, d, rows, p), p)
            if vec is None:
                break
            images[p] = vec, pivots
        else:
            rec = _reconstruct(seq, r, d, rows, images)
            if rec is not None and verify_recurrence(rec, seq):
                return rec
    return None


def _reconstruct(seq, order, degree, rows, images) -> Recurrence | None:
    """Lift the modular nullvector of the (order, degree) fitting matrix to Q.

    Primes below 2^26 are added one at a time until the CRT image, rationally
    reconstructed, annihilates every fitting row exactly; images maps a prime
    to the (nullvector, pivots) an earlier elimination found modulo it, which
    the lift uses instead of eliminating again.  Modulo p the rank of each
    leading block of columns can only drop, so the true rank profile has the
    most pivots and, among equals, the earliest ones; a prime with a better
    profile than the best seen restarts the accumulation, and one with a
    worse profile is skipped.  No cap on the primes is needed: once the
    modulus exceeds twice the square of the Hadamard bound, every numerator
    and denominator fits the reconstruction window, so a failure there proves
    that the matrix has no rational nullvector.
    """
    best: tuple[int, list[int]] | None = None
    prime = 1 << 26
    while True:
        (prime,) = _primes_below(prime, 1)
        if prime in images:
            vec, pivots = images[prime]
        else:
            vec, pivots = _nullvector_numpy(_matrix_mod(seq, order, degree, rows, prime), prime)
        if vec is None:
            return None  # full rank modulo p implies full rank over Q
        profile = (-len(pivots), pivots)
        if best is None or profile < best:
            best = profile
            image, modulus = vec, prime
            limit = 2 * _hadamard_bits(seq, order, degree, rows, len(pivots)) + 1
        elif profile != best:
            continue  # unlucky prime saw a lower rank
        else:
            image = [_crt([u, v], [modulus, prime])[0] for u, v in zip(image, vec)]
            modulus *= prime
        entries = _rational_vector(image, modulus)
        if entries is not None:
            rec = _normalize(entries, order, degree)
            if rec is None or all(rec.defect(seq, n) == 0 for n in range(rows)):
                return rec
        if modulus.bit_length() > limit:
            return None


def _rational_vector(image: list[int], modulus: int) -> list[tuple[int, int]] | None:
    """Rational reconstruction of a vector against a running common denominator.

    Each entry is reconstructed after scaling by the product of the
    denominators found so far, so once the common denominator is known the
    remaining entries reconstruct as integers in a single Euclid step.
    """
    denom = 1
    entries = []
    for u in image:
        pq = _rational_reconstruct(denom * u % modulus, modulus)
        if pq is None:
            return None
        denom *= pq[1]
        entries.append((pq[0], denom))
    return entries


def _hadamard_bits(seq, order, degree, rows, rank) -> float:
    """log2 of a bound on every rank x rank minor of the fitting matrix.

    Row n has entries n^d * seq[n+j], so its Euclidean norm is below
    sqrt(cols) * max(n, 1)^degree * 2^max_j bitlen(seq[n+j]).  By Hadamard's
    inequality no minor exceeds the product of the rank largest of these.
    """
    cols = (order + 1) * (degree + 1)
    norms = sorted(
        0.5 * log2(cols)
        + degree * log2(max(n, 1))
        + max(abs(seq[n + j]).bit_length() for j in range(order + 1))
        for n in range(rows)
    )
    return sum(norms[len(norms) - rank:])


def _normalize(entries, order, degree) -> Recurrence | None:
    denom = 1
    for _, q in entries:
        denom = denom * q // gcd(denom, q)
    values = [p * (denom // q) for p, q in entries]
    content = 0
    for v in values:
        content = gcd(content, v)
    if content == 0:
        return None
    values = [v // content for v in values]
    first = next(v for v in values if v)
    if first < 0:
        values = [-v for v in values]
    cols = _columns(order, degree)
    by_shift: dict[int, list[tuple[int, int]]] = {}
    for (j, d), v in zip(cols, values):
        if v:
            by_shift.setdefault(j, []).append((d, v))
    top = max(by_shift)
    if top == 0:
        return None
    coeffs = tuple(
        (j, d, v)
        for j in sorted(by_shift)
        for d, v in sorted(by_shift[j])
    )
    real_degree = max(d for _, d, _ in coeffs)
    return Recurrence(top, real_degree, coeffs)
