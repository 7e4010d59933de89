"""Exact truncated series in z whose coefficients are Laurent polynomials in q.

The walk generating functions tracked here live in Z[q,q^-1][[z]]: the z-order
is the walk length, the q-exponent the winding number.  Everything is exact
integer arithmetic; counts grow like 4^n so coefficients must be big ints.
QPolynomial is dense with an exponent offset because walk polynomials fill
almost the whole interval [-n, n].
"""
from __future__ import annotations

from math import comb


class QPolynomial:
    """Laurent polynomial in q with integer coefficients, dense from min_exp."""

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):  # normalizes zero margins
        coeffs = tuple(coeffs)
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        self.min_exp = min_exp + lo if hi > lo else 0
        self.coeffs = coeffs[lo:hi]

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial()

    @staticmethod
    def constant(c: int) -> "QPolynomial":
        return QPolynomial(0, (c,))

    @staticmethod
    def q_power(m: int, c: int = 1) -> "QPolynomial":
        return QPolynomial(m, (c,))

    @staticmethod
    def from_pairs(pairs) -> "QPolynomial":
        pairs = [(m, c) for m, c in pairs if c]
        if not pairs:
            return QPolynomial()
        lo = min(m for m, _ in pairs)
        hi = max(m for m, _ in pairs)
        dense = [0] * (hi - lo + 1)
        for m, c in pairs:
            dense[m - lo] += c
        return QPolynomial(lo, dense)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, m: int) -> int:
        j = m - self.min_exp
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (self.min_exp + j, c) for j, c in enumerate(self.coeffs) if c
        ]

    def mass(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def is_symmetric(self) -> bool:
        return self.coeffs == self.coeffs[::-1] and (
            self.is_zero() or self.min_exp == -self.max_exp
        )

    def conjugate(self) -> "QPolynomial":
        """q -> 1/q."""
        if self.is_zero():
            return self
        return QPolynomial(-self.max_exp, self.coeffs[::-1])

    def shift(self, m: int) -> "QPolynomial":
        """Multiply by q^m."""
        if self.is_zero():
            return self
        return QPolynomial(self.min_exp + m, self.coeffs)

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPolynomial)
            and self.min_exp == other.min_exp
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.min_exp, self.coeffs))

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(self.min_exp, tuple(-c for c in self.coeffs))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        dense = [0] * (hi - lo + 1)
        for j, c in enumerate(self.coeffs):
            dense[self.min_exp - lo + j] += c
        for j, c in enumerate(other.coeffs):
            dense[other.min_exp - lo + j] += c
        return QPolynomial(lo, dense)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def scale(self, c: int) -> "QPolynomial":
        if c == 0:
            return QPolynomial()
        return QPolynomial(self.min_exp, tuple(c * v for v in self.coeffs))

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.is_zero() or other.is_zero():
            return QPolynomial()
        dense = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    dense[i + j] += ai * bj
        return QPolynomial(self.min_exp + other.min_exp, dense)

    def __repr__(self) -> str:
        if self.is_zero():
            return "QPolynomial(0)"
        terms = " + ".join(f"{c}*q^{m}" for m, c in self.pairs())
        return f"QPolynomial({terms})"


QP_ZERO = QPolynomial.zero()
QP_ONE = QPolynomial.constant(1)


class QZSeries:
    """Series in z up to a truncation order, one QPolynomial per z-power."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        if coeffs is None:
            self.coeffs = [QP_ZERO] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list does not match order")
            self.coeffs = coeffs

    @staticmethod
    def one(order: int) -> "QZSeries":
        s = QZSeries(order)
        s.coeffs[0] = QP_ONE
        return s

    @staticmethod
    def from_counts(counts: dict[tuple[int, int], int], order: int) -> "QZSeries":
        """Assemble from a walk-count map (n, m) -> f."""
        rows: dict[int, list[tuple[int, int]]] = {}
        for (n, m), f in counts.items():
            if n <= order:
                rows.setdefault(n, []).append((m, f))
        s = QZSeries(order)
        for n, pairs in rows.items():
            s.coeffs[n] = QPolynomial.from_pairs(pairs)
        return s

    def coeff(self, n: int, m: int) -> int:
        return self.coeffs[n].coeff(m) if 0 <= n <= self.order else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QZSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"QZSeries(order={self.order})"

    def rows_json(self) -> list[dict]:
        return [
            {"n": n, "q": [[m, str(c)] for m, c in p.pairs()]}
            for n, p in enumerate(self.coeffs)
        ]


def _check_orders(a: QZSeries, b: QZSeries) -> None:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")


def series_add(a: QZSeries, b: QZSeries) -> QZSeries:
    _check_orders(a, b)
    return QZSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_sub(a: QZSeries, b: QZSeries) -> QZSeries:
    _check_orders(a, b)
    return QZSeries(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def series_mul(a: QZSeries, b: QZSeries) -> QZSeries:
    _check_orders(a, b)
    out = QZSeries(a.order)
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero():
            continue
        for j in range(a.order - i + 1):
            bj = b.coeffs[j]
            if not bj.is_zero():
                out.coeffs[i + j] = out.coeffs[i + j] + ai * bj
    return out


def series_reciprocal(a: QZSeries) -> QZSeries:
    c0 = a.coeffs[0]
    if c0.coeffs not in ((1,), (-1,)) or c0.min_exp != 0:
        raise ValueError("constant term must be 1 or -1")
    unit = c0.coeffs[0]
    out = QZSeries(a.order)
    out.coeffs[0] = QPolynomial.constant(unit)
    for n in range(1, a.order + 1):
        acc = QP_ZERO
        for i in range(1, n + 1):
            ai = a.coeffs[i]
            if not ai.is_zero():
                acc = acc + ai * out.coeffs[n - i]
        out.coeffs[n] = acc.scale(-unit)
    return out


def q_constant_term(a: QZSeries) -> list[int]:
    return [p.coeff(0) for p in a.coeffs]


def q_evaluate_at_one(a: QZSeries) -> list[int]:
    return [p.eval_at_one() for p in a.coeffs]


def parity_transform(a: QZSeries, mode: str) -> QZSeries:
    """Re-index a parity-locked series onto its dense support.

    even: all odd z-orders vanish; keep d_n = c_{2n}.
    odd: c_{n,m} = 0 unless n = m (mod 2); d_{n,m'} = c_{n,2m'-n}, folding the
    q-support of order n from {-n,...,n} onto {0,...,n}.
    """
    if mode == "even":
        for n in range(1, a.order + 1, 2):
            if not a.coeffs[n].is_zero():
                raise ValueError(f"odd z-order {n} is nonzero")
        return QZSeries(a.order // 2, [a.coeffs[2 * n] for n in range(a.order // 2 + 1)])
    if mode == "odd":
        out = QZSeries(a.order)
        for n, p in enumerate(a.coeffs):
            pairs = []
            for m, c in p.pairs():
                if (n - m) % 2:
                    raise ValueError(f"coefficient (n={n}, m={m}) breaks parity")
                pairs.append(((m + n) // 2, c))
            out.coeffs[n] = QPolynomial.from_pairs(pairs)
        return out
    raise ValueError(f"unknown mode {mode!r}")


def parity_inverse(a: QZSeries, mode: str, order: int) -> QZSeries:
    if mode == "even":
        out = QZSeries(order)
        for n in range(order // 2 + 1):
            if n <= a.order:
                out.coeffs[2 * n] = a.coeffs[n]
        return out
    if mode == "odd":
        out = QZSeries(order)
        for n in range(min(order, a.order) + 1):
            out.coeffs[n] = QPolynomial.from_pairs(
                (2 * m - n, c) for m, c in a.coeffs[n].pairs()
            )
        return out
    raise ValueError(f"unknown mode {mode!r}")


def loop_basis(p: QPolynomial, n: int) -> list[int]:
    """Write a symmetric polynomial as sum of d_l * (q + 1/q)^l, l = 0..n."""
    if not p.is_symmetric():
        raise ValueError("polynomial is not symmetric under q -> 1/q")
    if not p.is_zero() and p.max_exp > n:
        raise ValueError(f"q-support exceeds degree {n}")
    work = {m: c for m, c in p.pairs()}
    d = [0] * (n + 1)
    for level in range(n, -1, -1):
        top = work.get(level, 0)
        if top:
            d[level] = top
            # (q + 1/q)^level = sum_i C(level, i) q^(level - 2i)
            for i in range(level + 1):
                m = level - 2 * i
                work[m] = work.get(m, 0) - top * comb(level, i)
    if any(work.values()):
        raise ValueError("residue left after change of basis")
    return d
