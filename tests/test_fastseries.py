"""Cross-validation of the lane/CRT engine against the exact solvers."""

import numpy as np
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
from cogrowth.systems import build_axa_system, build_star_system, group_series, solve_series


def test_trefoil_rows_match_star_system():
    # at order 130 both paths lift windows of 131 slots: 132 lanes
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
    # trefoil 254, 256 and 230 take 256, 258 and 232 lanes; braid 190 and 192
    # take 128 and 130; trefoil 260 takes 262
    trefoil, braid = trefoil_equation(), braid_equation()
    for eq, small, large in ((trefoil, 254, 256), (braid, 190, 192), (trefoil, 230, 260)):
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


def _narrow_windows(monkeypatch, low, high):
    bounds = fastseries._bounds

    def narrow(system, order, names):
        windows, mass = bounds(system, order, names)
        return {k: (lo + low, hi - high) for k, (lo, hi) in windows.items()}, mass

    monkeypatch.setattr(fastseries, "_bounds", narrow)


def test_narrow_window_leaks(monkeypatch):
    _narrow_windows(monkeypatch, 1, 1)
    # narrowed to |e| < n/2: 40 and 230 lanes, and the one slot outside the
    # window is L/2, the fold's unpaired lane
    for order in (40, 230):
        with pytest.raises(ArithmeticError, match="leaked"):
            high_order_rows(trefoil_equation(), order)


def test_system_narrow_window_leaks(monkeypatch):
    _narrow_windows(monkeypatch, 0, 1)
    with pytest.raises(ArithmeticError, match="leaked"):
        solve_series(build_star_system(parse_group_spec("G(2,3)")), 20)


# not 2^a * 3^b: odd, even and prime lane counts
_UNSMOOTH_LANES = [5, 7, 11, 101, 102, 262, 613]


def _direct_inverse_dft(mat, p, w, lanes):
    """Coefficients 0..L-1 by the O(L^2) sum (1/L) sum_t v_t w^(-tk) mod p."""
    inverse = [pow(w, -t, p) for t in range(lanes)]
    scale = pow(lanes, -1, p)
    return [
        [sum(int(v) * inverse[t * k % lanes] for t, v in enumerate(row)) * scale % p
         for k in range(lanes)]
        for row in mat
    ]


@pytest.mark.parametrize("lanes", [2, 3, 4, 6, 9, 12, 27, 108, 243, 288, 1] + _UNSMOOTH_LANES)
def test_intt_rows_is_inverse_dft(lanes):
    p = fastseries._ntt_primes(1, lanes)[0]
    w = fastseries._root_of_unity(p, lanes)
    mat = np.random.default_rng(lanes).integers(0, p, (3, lanes))
    assert fastseries._inverse_dft(mat, p, w, lanes).tolist() == _direct_inverse_dft(mat, p, w, lanes)
    # folded: lanes 0..L//2 in, v_(L-t) = v_t implied; coefficients 0..L//2 out
    half = mat[:, : lanes // 2 + 1]
    full = np.concatenate([half, half[:, 1 : (lanes + 1) // 2][:, ::-1]], axis=1)
    direct = _direct_inverse_dft(full, p, w, lanes)
    assert all(row[1:] == row[:0:-1] for row in direct)  # mirrored coefficients
    folded = fastseries._inverse_dft(half, p, w, lanes).tolist()
    assert folded == [row[: lanes // 2 + 1] for row in direct]


def test_folded_inverse_dft_exact_at_largest_residues():
    # the widest windows of the built-in presentations (trefoil, G(2,3),
    # G(2,2,2)) are n + 1 slots at order n, so a run below the order cap
    # takes at most 2^11 + 1 lanes; every value p - 1 = -1 puts the largest
    # residue in every product, and its transform is -1 at k = 0
    lanes = fastseries._MAX_UNREDUCED + 1
    p = fastseries._ntt_primes(1, lanes)[0]
    w = fastseries._root_of_unity(p, lanes)
    mat = np.full((3, lanes // 2 + 1), p - 1, dtype=np.int64)
    expected = np.zeros_like(mat)
    expected[:, 0] = p - 1
    assert np.array_equal(fastseries._inverse_dft(mat, p, w, lanes), expected)


@pytest.mark.parametrize("lanes", [2, 3, 4, 6, 9, 12, 27, 108, 243, 288, 729, 1024] + _UNSMOOTH_LANES)
def test_root_of_unity_has_order_lanes(lanes):
    for p in fastseries._ntt_primes(1 << 60, lanes):
        w = fastseries._root_of_unity(p, lanes)
        assert pow(w, lanes, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, lanes) if lanes % d == 0)


def test_lanes_are_widest_window_plus_one(monkeypatch):
    # trefoil rows at order n span exponents -n/2..n/2: n + 1 slots
    seen = []
    inverse_dft = fastseries._inverse_dft

    def recorded(mat, p, w, lanes):
        seen.append((lanes, mat.shape[1]))
        return inverse_dft(mat, p, w, lanes)

    monkeypatch.setattr(fastseries, "_inverse_dft", recorded)
    for order, lanes in ((40, 42), (41, 42), (260, 262)):
        seen.clear()
        high_order_rows(trefoil_equation(), order)
        assert set(seen) == {(lanes, lanes // 2 + 1)}


def test_lanes_past_float_bound_rejected(monkeypatch):
    # widened to 2^14 - 1 slots: L = 2^14 fails before any solve or matrix
    _narrow_windows(monkeypatch, -8186, -8186)

    def unreachable(*args):
        raise AssertionError("solved or transformed past the float bound")

    monkeypatch.setattr(fastseries, "_Residues", unreachable)
    monkeypatch.setattr(fastseries, "_inverse_dft", unreachable)
    with pytest.raises(ValueError, match="16384 lanes"):
        high_order_rows(trefoil_equation(), 10)


def test_only_read_series_are_transformed(monkeypatch):
    # G(2,3) has 5 unknowns; its U_i and P_i are solved on the lanes but not lifted
    transformed = []
    inverse_dft = fastseries._inverse_dft

    def counted(mat, p, w, lanes):
        transformed.append(len(mat))
        return inverse_dft(mat, p, w, lanes)

    monkeypatch.setattr(fastseries, "_inverse_dft", counted)
    solve_series(build_star_system(parse_group_spec("G(2,3)")), 20)
    assert transformed and set(transformed) == {6 * 21}
    transformed.clear()
    group_series(parse_group_spec("G(2,3)"), 20, None)
    assert transformed and set(transformed) == {21}


def test_group_series_solves_half_the_lanes_of_symmetric_systems(monkeypatch):
    # B3-standard's lowered cubic is fixed by q -> 1/q, the G(2,3) system is not
    seen = []
    inverse_dft = fastseries._inverse_dft

    def recorded(mat, p, w, lanes):
        seen.append((lanes, mat.shape[1]))
        return inverse_dft(mat, p, w, lanes)

    monkeypatch.setattr(fastseries, "_inverse_dft", recorded)
    for text, mirrored in (("B3-standard", True), ("G(2,3)", False)):
        seen.clear()
        group_series(parse_group_spec(text), 30, None)
        assert len({lanes for lanes, _ in seen}) == 1, text
        lanes = seen[0][0]
        assert set(seen) == {(lanes, lanes // 2 + 1 if mirrored else lanes)}, text


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
