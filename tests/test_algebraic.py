import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.algebraic import (
    PolynomialEquation,
    Recurrence,
    ResidualReport,
    _FILTER_PRIME,
    _MAX_INNER,
    _PANEL,
    _crt,
    _matmul_mod,
    _matrix_mod,
    _nullvector_numpy,
    _prefix_ranks,
    _rational_reconstruct,
    _reconstruct,
    _zpoly,
    axa_q1_equation,
    braid_equation,
    guess_recurrence,
    residual_check,
    series_solve_polynomial,
    trefoil_equation,
    verify_recurrence,
)
from cogrowth.groups import parse_group_spec
from cogrowth.oracle import count_closed_walks
from cogrowth.qseries import QPolynomial, QZSeries
from cogrowth.systems import solve_group


def catalan_equation() -> PolynomialEquation:
    return PolynomialEquation(
        "catalan", (_zpoly({0: 1}), _zpoly({0: -1}), _zpoly({1: 1}))
    )


def as_constant_series(values) -> QZSeries:
    return QZSeries(len(values) - 1, [QPolynomial.constant(v) for v in values])


class TestSeriesSolve:
    def test_catalan(self):
        sol = series_solve_polynomial(catalan_equation(), 1, 6)
        assert [sol.coeffs[n].coeff(0) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_trefoil_z2(self):
        sol = series_solve_polynomial(trefoil_equation(), 1, 2)
        assert sol.coeffs[2] == QPolynomial.from_pairs([(1, 1), (0, 4), (-1, 1)])

    def test_trefoil_matches_system(self):
        sol = series_solve_polynomial(trefoil_equation(), 1, 12)
        system = solve_group(parse_group_spec("G(2,3)"), 12)
        assert sol == system.F

    def test_braid_z2_center(self):
        sol = series_solve_polynomial(braid_equation(), 1, 2)
        assert sol.coeffs[2].coeff(0) == 4

    def test_braid_matches_oracle(self):
        table = count_closed_walks(parse_group_spec("B3-standard"), 12)
        assert series_solve_polynomial(braid_equation(), 1, 12) == table

    def test_braid_parity_vanishing(self):
        sol = series_solve_polynomial(braid_equation(), 1, 20)
        for n in range(21):
            for m, v in sol.coeffs[n].pairs():
                assert (n + m) % 2 == 0 and v != 0

    def test_braid_center_matches_33_star(self):
        braid = series_solve_polynomial(braid_equation(), 1, 60)
        star = solve_group(parse_group_spec("G(3,3)"), 60)
        assert [p.coeff(0) for p in braid.coeffs] == [p.coeff(0) for p in star.F.coeffs]

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError):
            series_solve_polynomial(catalan_equation(), 2, 4)

    def test_non_monomial_derivative_rejected(self):
        eq = PolynomialEquation(
            "bad",
            (
                _zpoly({0: QPolynomial.from_pairs([(1, 1), (0, -2), (-1, 1)])}),
                _zpoly({0: QPolynomial.from_pairs([(1, -1), (0, 2), (-1, -1)])}),
                _zpoly({1: 1}),
            ),
        )
        with pytest.raises(ValueError):
            series_solve_polynomial(eq, 1, 4)


class TestResiduals:
    def test_trefoil_on_system_solution(self):
        sol = solve_group(parse_group_spec("G(2,3)"), 40)
        assert residual_check(trefoil_equation(), sol.F, 40) == ResidualReport(True, None)

    def test_axa_q1_on_system_solution(self):
        sol = solve_group(parse_group_spec("B3-axa"), 40)
        at_one = as_constant_series([p.eval_at_one() for p in sol.F.coeffs])
        assert residual_check(axa_q1_equation(), at_one, 40) == ResidualReport(True, None)

    def test_own_solution_always_passes(self):
        for eq in (catalan_equation(), trefoil_equation(), braid_equation(),
                   axa_q1_equation()):
            sol = series_solve_polynomial(eq, 1, 25)
            assert residual_check(eq, sol, 25).ok, eq.name

    def test_failure_locates_first_order(self):
        sol = series_solve_polynomial(catalan_equation(), 1, 8)
        sol.coeffs[5] = sol.coeffs[5] + QPolynomial.constant(1)
        report = residual_check(catalan_equation(), sol, 8)
        assert not report.ok and report.first_failure == 5

    def test_short_series_rejected(self):
        sol = series_solve_polynomial(catalan_equation(), 1, 8)
        with pytest.raises(ValueError):
            residual_check(catalan_equation(), sol, 9)


FIB = [1, 1]
while len(FIB) < 160:
    FIB.append(FIB[-1] + FIB[-2])

CATALAN = [1]
while len(CATALAN) < 160:
    n = len(CATALAN) - 1
    CATALAN.append(CATALAN[-1] * (4 * n + 2) // (n + 2))


class TestGuessing:
    def test_fibonacci(self):
        rec = guess_recurrence(FIB, 3, 1)
        assert rec is not None and (rec.order, rec.degree) == (2, 0)
        assert verify_recurrence(rec, FIB)

    def test_catalan(self):
        rec = guess_recurrence(CATALAN, 3, 2)
        assert rec is not None and (rec.order, rec.degree) == (1, 1)
        assert verify_recurrence(rec, CATALAN)

    def test_holds_on_unseen_terms(self):
        rec = guess_recurrence(CATALAN[:80], 2, 2)
        tail_start = len(CATALAN) - rec.order - 50
        assert all(rec.defect(CATALAN, n) == 0 for n in range(tail_start, len(CATALAN) - rec.order))

    def test_insufficient_terms(self):
        with pytest.raises(ValueError):
            guess_recurrence(FIB[:20], 5, 5)

    def test_no_recurrence_for_noise(self):
        seq = [pow(3, n * n, 10**9 + 7) for n in range(90)]
        assert guess_recurrence(seq, 2, 1) is None

    def test_verify_rejects_perturbation(self):
        rec = guess_recurrence(FIB, 3, 1)
        bad = FIB[:]
        bad[90] += 1
        assert not verify_recurrence(rec, bad)

    def test_verify_needs_enough_terms(self):
        rec = guess_recurrence(FIB, 3, 1)
        with pytest.raises(ValueError):
            verify_recurrence(rec, FIB[: rec.order])

    def test_json_round_trip(self):
        rec = guess_recurrence(CATALAN, 2, 2)
        again = Recurrence.from_json(rec.to_json())
        assert again == rec

    def test_coefficients_beyond_fixed_modulus(self):
        # a 200-digit coefficient needs a modulus of about 1330 bits, some 52
        # primes below 2^26
        c = 3**419 + 2
        seq = [c**n for n in range(60)]
        rec = guess_recurrence(seq, 1, 0)
        assert rec == Recurrence(1, 0, ((0, 0, c), (1, 0, -1)))
        assert verify_recurrence(rec, seq)

    def test_unlucky_first_prime_restarts(self):
        # modulo the first lift prime the sequence is 2^n, whose fitting
        # matrix has lower rank than over Q; the lift must drop that prime
        p = _FILTER_PRIME
        seq = [2**n + p * 3**n for n in range(80)]
        rec = guess_recurrence(seq, 2, 0)
        assert rec == Recurrence(2, 0, ((0, 0, 6), (1, 0, -5), (2, 0, 1)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(-5, 5),
        st.integers(-5, 5).filter(lambda v: v != 0),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_cfinite_sequences_recovered(self, u, v, a, b):
        seq = [a, b if (a, b) != (0, 0) else 1]
        while len(seq) < 80:
            seq.append(u * seq[-1] + v * seq[-2])
        rec = guess_recurrence(seq, 2, 1)
        assert rec is not None
        assert verify_recurrence(rec, seq)


class TestModularHelpers:
    def test_crt(self):
        assert _crt([2, 3], [5, 7]) == (17, 35)

    def test_rational_reconstruction(self):
        m = (1 << 62) - 57
        val = -355 * pow(113, -1, m) % m
        assert _rational_reconstruct(val, m) == (-355, 113)

    def test_reconstruction_failure(self):
        assert _rational_reconstruct(2, 4) is None


def plain_echelon(rows, p):
    """Pivot columns and nullvector modulo p by textbook Gauss-Jordan on
    Python integers; the nullvector is 1 at the first free column, 0 at the
    other free columns, or None when every column has a pivot."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        pivot = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k][c:] = [x * inv % p for x in rows[k][c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != k and f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], rows[k][c:])]
        pivots.append(c)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return pivots, None
    vec = [0] * ncols
    vec[free] = 1
    for i, c in enumerate(pivots):
        vec[c] = -rows[i][free] % p
    return pivots, vec


def planted_matrix(rng, nrows, ncols, p, zero, fresh, dependent=range(0)):
    """Rows of a matrix whose columns are zero (probability zero), random
    (probability fresh), or else combinations of up to three earlier
    columns; columns in dependent are never random once one column exists."""
    cols = []
    for c in range(ncols):
        kind = rng.random()
        if kind < zero:
            cols.append([0] * nrows)
        elif cols and (kind < 1 - fresh or c in dependent):
            picks = rng.sample(range(len(cols)), rng.randint(1, min(3, len(cols))))
            weights = [rng.randrange(1, p) for _ in picks]
            cols.append([sum(w * cols[j][i] for w, j in zip(weights, picks)) % p
                         for i in range(nrows)])
        else:
            cols.append([rng.randrange(p) for _ in range(nrows)])
    return [[col[i] for col in cols] for i in range(nrows)]


class TestRankProfile:
    @pytest.mark.parametrize("seed", range(12))
    def test_pivots_below_k_are_prefix_rank(self, seed):
        # columns are random, zero, or combinations of earlier columns
        rng = random.Random(seed)
        p = _FILTER_PRIME
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        matrix = planted_matrix(rng, nrows, ncols, p, zero=0.15, fresh=0.45)
        _, pivots = _nullvector_numpy(matrix, p)
        for k in range(ncols + 1):
            prefix = [row[:k] for row in matrix]
            assert sum(1 for c in pivots if c < k) == len(plain_echelon(prefix, p)[0])

    @pytest.mark.parametrize("nrows, ncols, zero, fresh, dependent, panels", [
        # more columns than rows: all 40 rows have pivots within two panels
        (40, 200, 0.1, 0.3, range(0), {0, 1}),
        # the middle panel's columns all depend on earlier ones
        (260, 240, 0.1, 0.2, range(_PANEL, 2 * _PANEL), {0, 2}),
        (300, 275, 0.1, 0.12, range(0), {0, 1, 2}),
        # every row has a pivot at the first panel's end; the next column is free
        (_PANEL, 2 * _PANEL + 8, 0.0, 1.0, range(0), {0}),
    ])
    def test_panels_match_plain_elimination(self, nrows, ncols, zero, fresh, dependent, panels):
        # three panels or more, so rows below pivots take the trailing product
        assert ncols > 2 * _PANEL
        rng = random.Random(nrows * ncols)
        p = _FILTER_PRIME
        matrix = planted_matrix(rng, nrows, ncols, p, zero, fresh, dependent)
        pivots, vec = plain_echelon(matrix, p)
        assert _nullvector_numpy(matrix, p) == (vec, pivots)
        assert vec is not None and {c // _PANEL for c in pivots} == panels

    def test_prefix_ranks_match_each_shape(self):
        # one (3, 1) relation, times 1, n, ..., n^(d-1): nullity d at degree d
        seq = [1, 2, 3]
        while len(seq) < 90:
            n = len(seq) - 3
            seq.append((n + 1) * seq[-1] - 2 * seq[-2] + (3 * n - 1) * seq[-3])
        ranks = _prefix_ranks(seq, 3, 3)
        p = _FILTER_PRIME
        rows = min(len(seq) - 3, 4 * 4 + 32)
        for d, rank in enumerate(ranks):
            assert rank == len(plain_echelon(_matrix_mod(seq, 3, d, rows, p).tolist(), p)[0])
        assert ranks == [4, 7, 10, 13]


class TestExactProduct:
    @pytest.mark.parametrize("inner", [_PANEL, _MAX_INNER - 1])
    def test_largest_residues(self, inner):
        # every entry p - 1 puts the largest term in every partial sum
        p = 1 << 26
        a = np.full((3, inner), p - 1, dtype=np.int64)
        b = np.full((inner, 2), p - 1, dtype=np.int64)
        assert _matmul_mod(a, b, p).tolist() == [[inner * (p - 1) ** 2 % p] * 2] * 3

    def test_random_residues_match_python_ints(self):
        p = _FILTER_PRIME
        rng = np.random.default_rng(7)
        a, b = rng.integers(0, p, (5, _PANEL)), rng.integers(0, p, (_PANEL, 4))
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        assert _matmul_mod(a, b, p).tolist() == want

    @pytest.mark.parametrize("a, b, p", [
        (np.ones((1, _MAX_INNER), dtype=np.int64), np.ones((_MAX_INNER, 1), dtype=np.int64), 7),
        (np.full((1, 1), 7), np.ones((1, 1), dtype=np.int64), 7),
        (np.ones((1, 1), dtype=np.int64), np.full((1, 1), -1), 7),
        (np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), (1 << 26) + 1),
    ])
    def test_preconditions_raise(self, a, b, p):
        with pytest.raises(ValueError):
            _matmul_mod(a, b, p)


def per_shape_guess(seq, max_order, max_degree):
    """guess_recurrence without the per-order prefilter: each shape on its own."""
    seq = [int(s) for s in seq]
    shapes = sorted(
        ((r, d) for r in range(1, max_order + 1) for d in range(max_degree + 1)),
        key=lambda rd: ((rd[0] + 1) * (rd[1] + 1), rd[0], rd[1]),
    )
    for r, d in shapes:
        cells = (r + 1) * (d + 1)
        if len(seq) - r < cells + 8:
            continue
        rows = min(len(seq) - r, cells + 32)
        rec = _reconstruct(seq, r, d, rows)
        if rec is not None and verify_recurrence(rec, seq):
            return rec
    return None


@st.composite
def p_recursive(draw):
    """Terms of a(n+r) = sum_j p_j(n) a(n+j) with small integer polynomials p_j."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    polys = [draw(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1))
             for _ in range(r)]
    seq = draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
    while len(seq) < 100:
        n = len(seq) - r
        seq.append(sum(sum(c * n**e for e, c in enumerate(poly)) * seq[n + j]
                       for j, poly in enumerate(polys)))
    return seq


class TestGuessMatchesPerShape:
    @settings(max_examples=40, deadline=None)
    @given(p_recursive(), st.integers(1, 3), st.integers(0, 3))
    def test_planted_recurrences(self, seq, max_order, max_degree):
        assert guess_recurrence(seq, max_order, max_degree) == per_shape_guess(
            seq, max_order, max_degree)

    @pytest.mark.parametrize("seq, max_order, max_degree", [
        (FIB, 3, 1), (FIB, 6, 12), (FIB[:80], 1, 4),
        (CATALAN, 3, 2), (CATALAN, 5, 14), (CATALAN[:70], 1, 5),
        ([pow(3, n * n, 10**9 + 7) for n in range(160)], 5, 10),
    ])
    def test_known_sequences(self, seq, max_order, max_degree):
        assert guess_recurrence(seq, max_order, max_degree) == per_shape_guess(
            seq, max_order, max_degree)
