"""Cross-validation of the lane/CRT engine against the exact solvers."""

import pytest

from cogrowth import fastseries
from cogrowth.algebraic import (
    PolynomialEquation,
    axa_q1_equation,
    braid_equation,
    series_solve_polynomial,
    trefoil_equation,
)
from cogrowth.fastseries import high_order_rows, series_at_q1
from cogrowth.groups import parse_group_spec
from cogrowth.qseries import QPolynomial
from cogrowth.systems import build_axa_system, build_star_system, solve_series


def test_trefoil_rows_match_star_system():
    # at order 130 both paths need windows wider than 128 slots: 256 lanes
    sol = solve_series(build_star_system(parse_group_spec("G(2,3)")), 130)
    fast = high_order_rows(trefoil_equation(), 130)
    assert fast.coeffs == sol.F.coeffs


def test_axa_masses_match_quintic():
    F = solve_series(build_axa_system(), 120).F
    assert [p.eval_at_one() for p in F.coeffs] == series_at_q1(axa_q1_equation(), 120)


def test_braid_rows_match_direct_expansion():
    slow = series_solve_polynomial(braid_equation(), 1, 60)
    fast = high_order_rows(braid_equation(), 60)
    assert fast.coeffs == slow.coeffs


def test_quintic_rows_match_direct_expansion():
    # degree 5: H^5 enters through the auxiliaries K2, K3 and K4
    slow = series_solve_polynomial(axa_q1_equation(), 1, 60)
    assert high_order_rows(axa_q1_equation(), 60).coeffs == slow.coeffs


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


def test_f0_not_a_root_rejected():
    eq = _with_term(braid_equation(), 0, 0, QPolynomial.constant(1))
    with pytest.raises(ValueError, match="not a root"):
        high_order_rows(eq, 10)


def test_narrow_window_leaks(monkeypatch):
    lift = fastseries._lift

    def narrow(order, bound, windows, residues, mirrored=False):
        windows = {k: (lo + 1, hi - 1) for k, (lo, hi) in windows.items()}
        return lift(order, bound, windows, residues, mirrored)

    monkeypatch.setattr(fastseries, "_lift", narrow)
    with pytest.raises(ArithmeticError, match="leaked"):
        high_order_rows(trefoil_equation(), 40)


def test_system_narrow_window_leaks(monkeypatch):
    lift = fastseries._lift

    def narrow(order, bound, windows, residues):
        windows = {k: (lo, hi - 1) for k, (lo, hi) in windows.items()}
        return lift(order, bound, windows, residues)

    monkeypatch.setattr(fastseries, "_lift", narrow)
    with pytest.raises(ArithmeticError, match="leaked"):
        solve_series(build_star_system(parse_group_spec("G(2,3)")), 20)


def _too_few_crt_primes(monkeypatch):
    primes = fastseries._ntt_primes
    monkeypatch.setattr(fastseries, "_ntt_primes", lambda bound, lanes: primes(1 << 30, lanes))


def test_too_few_crt_primes_caught_by_check_prime(monkeypatch):
    _too_few_crt_primes(monkeypatch)
    with pytest.raises(ArithmeticError, match="check prime"):
        high_order_rows(trefoil_equation(), 60)


def test_system_too_few_crt_primes_caught_by_check_prime(monkeypatch):
    _too_few_crt_primes(monkeypatch)
    with pytest.raises(ArithmeticError, match="check prime"):
        solve_series(build_axa_system(), 40)


def test_order_past_unreduced_int64_bound_rejected():
    with pytest.raises(ValueError, match="order"):
        high_order_rows(braid_equation(), 1 << 11)
