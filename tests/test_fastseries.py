"""Cross-validation of the lane/CRT engine against the exact solvers."""

import pytest

from cogrowth import fastseries
from cogrowth.algebraic import PolynomialEquation, braid_equation, trefoil_equation
from cogrowth.fastseries import high_order_rows, series_at_q1
from cogrowth.groups import parse_group_spec
from cogrowth.qseries import QPolynomial
from cogrowth.systems import build_star_system, solve_series


def test_trefoil_rows_match_star_system():
    sol = solve_series(build_star_system(parse_group_spec("G(2,3)")), 60)
    fast = high_order_rows(trefoil_equation(), 60)
    assert fast.coeffs == sol.F.coeffs


def test_braid_rows_match_direct_expansion():
    from cogrowth.algebraic import series_solve_polynomial

    slow = series_solve_polynomial(braid_equation(), 1, 60)
    fast = high_order_rows(braid_equation(), 60)
    assert fast.coeffs == slow.coeffs


def test_q1_masses_agree_with_rows():
    eq = trefoil_equation()
    rows = high_order_rows(eq, 150)
    masses = series_at_q1(eq, 150)
    assert [rows.coeffs[n].eval_at_one() for n in range(151)] == masses


def test_braid_q1_masses():
    eq = braid_equation()
    rows = high_order_rows(eq, 150)
    masses = series_at_q1(eq, 150)
    assert [rows.coeffs[n].eval_at_one() for n in range(151)] == masses
    # winding parity: the center column vanishes at odd orders
    assert all(rows.coeffs[n].coeff(0) == 0 for n in range(1, 151, 2))


def test_rows_agree_across_lane_sizes():
    # trefoil 254 and braid 190 are the last orders on 256 and 128 lanes
    for eq, small, large in ((trefoil_equation(), 254, 256), (braid_equation(), 190, 192)):
        assert high_order_rows(eq, small).coeffs == high_order_rows(eq, large).coeffs[: small + 1]


def test_lowest_orders():
    from cogrowth.algebraic import series_solve_polynomial

    for eq in (trefoil_equation(), braid_equation()):
        for order in range(4):
            slow = series_solve_polynomial(eq, 1, order)
            assert high_order_rows(eq, order).coeffs == slow.coeffs


def test_braid_winding_within_a_third_of_the_order():
    rows = high_order_rows(braid_equation(), 120)
    assert all(p.max_exp <= n // 3 for n, p in enumerate(rows.coeffs))
    assert rows.coeffs[120].max_exp == 40


def _with_term(eq, k, zp, extra):
    terms = [dict(zpoly) for zpoly in eq.terms]
    terms[k][zp] = terms[k].get(zp, QPolynomial.zero()) + extra
    return PolynomialEquation(eq.name + "-edited", tuple(tuple(sorted(t.items())) for t in terms))


def test_asymmetric_equation_rejected():
    eq = _with_term(trefoil_equation(), 1, 3, QPolynomial.q_power(1))
    with pytest.raises(ValueError, match="symmetric"):
        high_order_rows(eq, 10)


def test_q_dependent_origin_coefficient_rejected():
    Q = QPolynomial.from_pairs([(1, 1), (-1, 1)])
    eq = _with_term(braid_equation(), 2, 0, Q)
    with pytest.raises(ValueError, match="z\\^0"):
        high_order_rows(eq, 10)


def test_narrow_window_leaks(monkeypatch):
    eq = trefoil_equation()
    monkeypatch.setattr(fastseries, "_winding_window", lambda eq, order: order // 2 - 1)
    with pytest.raises(ArithmeticError, match="leaked"):
        high_order_rows(eq, 40)


def test_order_past_unreduced_int64_bound_rejected():
    with pytest.raises(ValueError, match="order"):
        high_order_rows(braid_equation(), 1 << 11)
