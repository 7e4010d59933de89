import random

import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.algebraic import (
    PolynomialEquation,
    Recurrence,
    ResidualReport,
    _FILTER_PRIME,
    _crt,
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


def plain_rank(rows, p) -> int:
    """Rank modulo p by textbook elimination on Python integers."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRankProfile:
    @pytest.mark.parametrize("seed", range(12))
    def test_pivots_below_k_are_prefix_rank(self, seed):
        # columns are random, zero, or combinations of earlier columns
        rng = random.Random(seed)
        p = _FILTER_PRIME
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        cols = []
        for _ in range(ncols):
            kind = rng.random()
            if kind < 0.15:
                cols.append([0] * nrows)
            elif kind < 0.55 and cols:
                picks = rng.sample(range(len(cols)), rng.randint(1, min(3, len(cols))))
                weights = [rng.randrange(1, p) for _ in picks]
                cols.append([sum(w * cols[c][i] for w, c in zip(weights, picks)) % p
                             for i in range(nrows)])
            else:
                cols.append([rng.randrange(p) for _ in range(nrows)])
        matrix = [[cols[c][i] for c in range(ncols)] for i in range(nrows)]
        _, pivots = _nullvector_numpy(matrix, p)
        for k in range(ncols + 1):
            prefix = [row[:k] for row in matrix]
            assert sum(1 for c in pivots if c < k) == plain_rank(prefix, p)

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
            assert rank == plain_rank(_matrix_mod(seq, 3, d, rows, p).tolist(), p)
        assert ranks == [4, 7, 10, 13]


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
