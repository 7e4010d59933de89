import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.groups import GroupSpec, STAR_POLYGON
from cogrowth.oracle import count_closed_walks
from cogrowth.qseries import (
    QPolynomial,
    QZSeries,
    loop_basis,
    parity_inverse,
    parity_transform,
    q_constant_term,
    series_add,
    series_mul,
    series_reciprocal,
)


def qp(*pairs):
    return QPolynomial.from_pairs(pairs)


def zseries(order, *rows):
    """rows: (n, [(m, c), ...])"""
    s = QZSeries(order)
    for n, pairs in rows:
        s.coeffs[n] = QPolynomial.from_pairs(pairs)
    return s


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial(3, (0, 0, 0)).is_zero()
        p = QPolynomial(-2, (0, 1, 2, 0))
        assert p.min_exp == -1 and p.coeffs == (1, 2)

    def test_addition_cancels(self):
        assert (qp((1, 3)) + qp((1, -3))).is_zero()

    def test_mul_small(self):
        # (q + 1)(1/q + 1) = q + 2 + 1/q
        assert qp((1, 1), (0, 1)) * qp((-1, 1), (0, 1)) == qp((1, 1), (0, 2), (-1, 1))

    def test_conjugate(self):
        assert qp((2, 5), (-1, 3)).conjugate() == qp((-2, 5), (1, 3))

    def test_symmetry(self):
        assert qp((1, 2), (0, 7), (-1, 2)).is_symmetric()
        assert not qp((1, 2), (0, 7)).is_symmetric()


class TestSeriesOps:
    def test_mul_example(self):
        a = zseries(2, (0, [(0, 1)]), (1, [(1, 1)]))  # 1 + zq
        b = zseries(2, (0, [(0, 1)]), (1, [(-1, 1)]))  # 1 + z/q
        expect = zseries(2, (0, [(0, 1)]), (1, [(1, 1), (-1, 1)]), (2, [(0, 1)]))
        assert series_mul(a, b) == expect

    def test_mul_identity(self):
        a = zseries(3, (0, [(0, 1)]), (2, [(1, 5), (-1, 5)]))
        assert series_mul(a, QZSeries.one(3)) == a

    def test_geometric_square(self):
        geo = QZSeries(8, [QPolynomial.constant(1)] * 9)
        sq = series_mul(geo, geo)
        assert [p.coeff(0) for p in sq.coeffs] == [n + 1 for n in range(9)]

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            series_add(QZSeries.one(3), QZSeries.one(4))

    def test_reciprocal_geometric(self):
        one_minus_z = zseries(6, (0, [(0, 1)]), (1, [(0, -1)]))
        inv = series_reciprocal(one_minus_z)
        assert all(p == QPolynomial.constant(1) for p in inv.coeffs)

    def test_reciprocal_q_geometric(self):
        a = zseries(5, (0, [(0, 1)]), (1, [(1, -1), (-1, -1)]))
        inv = series_reciprocal(a)
        expect = QPolynomial.constant(1)
        step = qp((1, 1), (-1, 1))
        for n in range(6):
            assert inv.coeffs[n] == expect
            expect = expect * step

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ValueError):
            series_reciprocal(zseries(2, (0, [(0, 2)])))
        with pytest.raises(ValueError):
            series_reciprocal(zseries(2, (0, [(1, 1)])))

    def test_q_constant_term_drops_pure_q(self):
        assert q_constant_term(zseries(1, (1, [(1, 1)]))) == [0, 0]

    def test_q_constant_term_g22(self):
        # cross-checked against the walk oracle rather than any closed form
        table = count_closed_walks(GroupSpec(STAR_POLYGON, (2, 2)), 6)
        series = QZSeries.from_counts(table.counts, 6)
        assert q_constant_term(series) == [1, 0, 4, 0, 36, 0, 400]


class TestParity:
    def test_even_example(self):
        a = zseries(2, (0, [(0, 1)]), (2, [(1, 1), (0, 2), (-1, 1)]))
        out = parity_transform(a, "even")
        assert out.order == 1
        assert out.coeffs[1] == qp((1, 1), (0, 2), (-1, 1))

    def test_even_rejects_odd_terms(self):
        with pytest.raises(ValueError):
            parity_transform(zseries(1, (1, [(0, 1)])), "even")

    def test_odd_example(self):
        a = zseries(1, (1, [(1, 1), (-1, 1)]))
        out = parity_transform(a, "odd")
        assert out.coeffs[1] == qp((1, 1), (0, 1))

    def test_odd_rejects_parity_break(self):
        with pytest.raises(ValueError):
            parity_transform(zseries(2, (1, [(0, 1)])), "odd")

    def test_round_trips(self):
        a = zseries(4, (0, [(0, 1)]), (2, [(2, 3), (0, 1), (-2, 3)]), (4, [(0, 7)]))
        assert parity_inverse(parity_transform(a, "even"), "even", 4) == a
        b = zseries(3, (1, [(1, 2), (-1, 5)]), (3, [(3, 1), (-1, 4)]))
        assert parity_inverse(parity_transform(b, "odd"), "odd", 3) == b

    def test_mass_preserved(self):
        b = zseries(3, (1, [(1, 2), (-1, 5)]), (3, [(3, 1), (-1, -4)]))
        out = parity_transform(b, "odd")
        assert sum(p.mass() for p in out.coeffs) == sum(p.mass() for p in b.coeffs)


class TestLoopBasis:
    def test_constant(self):
        assert loop_basis(QPolynomial.constant(5), 3) == [5, 0, 0, 0]

    def test_g22_row(self):
        table = count_closed_walks(GroupSpec(STAR_POLYGON, (2, 2)), 2)
        poly = QZSeries.from_counts(table.counts, 2).coeffs[2]
        assert poly == qp((1, 2), (0, 4), (-1, 2))
        assert loop_basis(poly, 2) == [4, 2, 0]

    def test_g23_row(self):
        table = count_closed_walks(GroupSpec(STAR_POLYGON, (2, 3)), 2)
        poly = QZSeries.from_counts(table.counts, 2).coeffs[2]
        assert loop_basis(poly, 2) == [4, 1, 0]

    def test_reconstruction(self):
        d = [3, 0, 7, 1]
        poly = QPolynomial.zero()
        base = qp((1, 1), (-1, 1))
        power = QPolynomial.constant(1)
        for c in d:
            poly = poly + power.scale(c)
            power = power * base
        assert loop_basis(poly, 3) == d

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            loop_basis(qp((1, 1)), 2)


@st.composite
def small_qpoly(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-9, 9)), min_size=0, max_size=5
        )
    )
    return QPolynomial.from_pairs(pairs)


@st.composite
def small_series(draw, order=5, unit_lead=False):
    s = QZSeries(order)
    for n in range(order + 1):
        s.coeffs[n] = draw(small_qpoly())
    if unit_lead:
        s.coeffs[0] = QPolynomial.constant(draw(st.sampled_from([1, -1])))
    return s


class TestRingProperties:
    @settings(max_examples=60)
    @given(small_series(), small_series(), small_series())
    def test_mul_associative(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    @settings(max_examples=60)
    @given(small_series(), small_series(), small_series())
    def test_distributive(self, a, b, c):
        lhs = series_mul(a, series_add(b, c))
        rhs = series_add(series_mul(a, b), series_mul(a, c))
        assert lhs == rhs

    @settings(max_examples=60)
    @given(small_series(), small_series())
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @settings(max_examples=40)
    @given(small_series(unit_lead=True))
    def test_reciprocal_inverts(self, a):
        inv = series_reciprocal(a)
        assert series_mul(a, inv) == QZSeries.one(a.order)
        assert series_reciprocal(inv) == a
