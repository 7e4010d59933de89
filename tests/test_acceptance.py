"""Acceptance suite: every advertised constant, identity, and bound.

Each test computes its inputs from scratch; nothing is read from disk.  The
heavy series (orders 700 and 920) are built once per module and shared.
"""

import math
import time
from math import comb

import pytest

from cogrowth.algebraic import (
    axa_q1_equation,
    braid_equation,
    guess_recurrence,
    residual_check,
    series_solve_polynomial,
    trefoil_equation,
    verify_recurrence,
)
from cogrowth.asymptotics import (
    algebraic_moments,
    expected_returns,
    exponent_fit,
    find_critical_point,
    growth_and_moments,
    growth_rate_compare,
    minimal_poly_check,
    variance_sequence,
)
from cogrowth.cli import AXA_GROWTH_POLY, TREFOIL_GROWTH_POLY, TREFOIL_VARIANCE_POLY
from cogrowth.fastseries import high_order_rows
from cogrowth.groups import parse_group_spec
from cogrowth.oracle import count_closed_walks
from cogrowth.qseries import QPolynomial, QZSeries, loop_basis, parity_transform
from cogrowth.systems import (
    build_axa_system,
    build_star_system,
    cone_positivity_check,
    forget_winding,
    ktree_closed_form,
    solve_series,
)

pytestmark = pytest.mark.acceptance

STAR_SPECS = ("G(2,2)", "G(2,3)", "G(3,3)", "G(3,4)", "G(2,2,2)")


def star(name: str):
    return build_star_system(parse_group_spec(name))


def center_column(rows: QZSeries, upto: int) -> list[int]:
    return [rows.coeffs[n].coeff(0) for n in range(upto + 1)]


def oracle_rows(table) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (n, m), c in table.counts.items():
        if c:
            out.setdefault(n, {})[m] = c
    return out


def assert_table_matches(spec_name: str, series: QZSeries, upto: int):
    spec = parse_group_spec(spec_name)
    got = oracle_rows(count_closed_walks(spec, upto))
    for n in range(upto + 1):
        want = dict(series.coeffs[n].pairs())
        assert got.get(n, {}) == want, f"{spec_name}: row {n} differs"


def residual_mod_prime(eq, series: QZSeries, q: int, p: int) -> list[int]:
    """eq(series) with q fixed, reduced mod p: one residue per order of series."""
    order = series.order
    q_inv = pow(q, -1, p)

    def at_q(poly: QPolynomial) -> int:
        return sum(v * pow(q if e >= 0 else q_inv, abs(e), p) for e, v in poly.pairs()) % p

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * b[j]
        return [v % p for v in out]

    f = [at_q(c) for c in series.coeffs]
    power = [1] + [0] * order
    total = [0] * (order + 1)
    for k, zpoly in enumerate(eq.terms):
        if k:
            power = mul(power, f)
        for zp, cq in zpoly:
            c = at_q(cq)
            for n in range(zp, order + 1):
                total[n] += c * power[n - zp]
    return [v % p for v in total]


@pytest.fixture(scope="module")
def trefoil_high():
    t0 = time.monotonic()
    rows = high_order_rows(trefoil_equation(), 700)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def braid_high():
    t0 = time.monotonic()
    rows = high_order_rows(braid_equation(), 920)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def one_sided_q1():
    """Length-only one-sided return counts of G(2,3), facet 1, to order 400."""
    t0 = time.monotonic()
    flat = solve_series(forget_winding(star("G(2,3)")), 400)
    masses = [p.eval_at_one() for p in flat.series["L0_1"].coeffs]
    return masses, time.monotonic() - t0


@pytest.fixture(scope="module")
def trefoil_law():
    return growth_and_moments(star("G(2,3)"))


@pytest.fixture(scope="module")
def braid_law():
    return algebraic_moments(braid_equation())


@pytest.mark.fastsuite
def test_c01_oracle_matches_series():
    t0 = time.monotonic()
    for name in STAR_SPECS:
        sol = solve_series(star(name), 12)
        assert sol.residual_ok()
        assert_table_matches(name, sol.F, 12)
    assert_table_matches("B3-standard", series_solve_polynomial(braid_equation(), 1, 12), 12)
    assert_table_matches("B3-axa", solve_series(build_axa_system(), 12).F, 12)
    assert time.monotonic() - t0 < 300


@pytest.mark.fastsuite
def test_c02_all_two_periods_closed_form():
    for k in (2, 3, 4, 5):
        name = "G(" + ",".join(["2"] * k) + ")"
        F = solve_series(star(name), 60).F
        _, cogrowth = ktree_closed_form(k, 30)
        for n in range(61):
            want = cogrowth[n // 2] if n % 2 == 0 else 0
            assert F.coeffs[n].coeff(0) == want, f"k={k}, order {n}"
        if k == 2:
            assert cogrowth == [comb(2 * n, n) ** 2 for n in range(31)]


def test_c03_equation_residuals():
    # the degree-3 relation annihilates the full winding-tracked G(2,3) series
    sol23 = solve_series(star("G(2,3)"), 40)
    assert residual_check(trefoil_equation(), sol23.F, 40).ok

    # the braid relation reproduces its own walk counts and shares its
    # winding-free column with G(3,3)
    assert_table_matches("B3-standard", series_solve_polynomial(braid_equation(), 1, 12), 12)
    braid60 = series_solve_polynomial(braid_equation(), 1, 60)
    sol33 = solve_series(star("G(3,3)"), 60)
    assert center_column(braid60, 60) == center_column(sol33.F, 60)

    # the length-only quintic annihilates the collapsed axa series
    axa = solve_series(build_axa_system(), 40)
    collapsed = QZSeries(
        40, [QPolynomial.constant(p.eval_at_one()) for p in axa.F.coeffs]
    )
    assert residual_check(axa_q1_equation(), collapsed, 40).ok


def test_c04_growth_constants(trefoil_law, braid_law):
    assert abs(trefoil_law.mu - 3.950630994) < 1e-8
    quartic = minimal_poly_check(trefoil_law.mu, TREFOIL_GROWTH_POLY)
    assert abs(quartic.residual) < 1e-8

    assert abs(braid_law.mu - (1 + 2 * math.sqrt(2))) < 1e-8

    axa_law = growth_and_moments(build_axa_system())
    assert abs(axa_law.mu - 3.9076667) < 1e-6
    deg11 = minimal_poly_check(axa_law.mu, AXA_GROWTH_POLY)
    assert abs(deg11.residual) < 1e-6
    assert deg11.is_largest_positive

    for k in (2, 3, 4):
        name = "G(" + ",".join(["2"] * k) + ")"
        law = growth_and_moments(star(name))
        assert abs(law.mu - 4 * math.sqrt(k - 1)) < 1e-10, f"k={k}"


def test_c05_winding_variance_constants(trefoil_law, braid_law):
    roots = minimal_poly_check(0.18, TREFOIL_VARIANCE_POLY).real_roots
    smallest_positive = min(r for r in roots if r > 0)
    assert abs(trefoil_law.sigma2 - smallest_positive) < 1e-6

    assert abs(braid_law.sigma2 - (5 - 3 * math.sqrt(2)) / 7) < 1e-6

    assert abs(trefoil_law.lam) < 1e-8
    for name in STAR_SPECS:
        if name == "G(2,3)":
            continue
        assert abs(growth_and_moments(star(name)).lam) < 1e-8, name


def test_c06_subexponential_exponents(trefoil_high, braid_high, one_sided_q1, trefoil_law, braid_law):
    tre_rows, tre_secs = trefoil_high
    bra_rows, bra_secs = braid_high
    one_sided, one_secs = one_sided_q1
    assert tre_secs + bra_secs + one_secs < 1800

    # winding-free columns decay like n^-2 on the even subsequence
    tre_center = center_column(tre_rows, 400)
    tre_even = [c if n % 2 == 0 else 0 for n, c in enumerate(tre_center)]
    alpha, _ = exponent_fit(tre_even, trefoil_law.mu)
    assert abs(alpha + 2) <= 0.25

    bra_center = center_column(bra_rows, 400)  # odd orders vanish already
    alpha, _ = exponent_fit(bra_center, braid_law.mu)
    assert abs(alpha + 2) <= 0.25

    # one-sided returns at q = 1 decay like n^-3/2
    mu1 = 1.0 / find_critical_point(star("G(2,3)"), 1.0).z_c
    alpha, _ = exponent_fit(one_sided, mu1)
    assert abs(alpha + 1.5) <= 0.25

    # and the k = 2 closed form like n^-1
    square = [comb(n, n // 2) ** 2 if n % 2 == 0 else 0 for n in range(401)]
    alpha, _ = exponent_fit(square, 4.0)
    assert abs(alpha + 1) <= 0.1


def test_c07_structural_invariants():
    deep = {}
    for name in ("G(2,3)", "G(3,4)", "G(4,6)", "G(3,5)"):
        deep[name] = solve_series(star(name), 60).F
    shallow = {name: solve_series(star(name), 40).F for name in ("G(2,2)", "G(3,3)", "G(2,2,2)")}

    for name, F in {**deep, **shallow}.items():
        for n, row in enumerate(F.coeffs):
            assert row.is_symmetric(), f"{name}: asymmetric at order {n}"

    # parity classes: all-even periods kill odd lengths, all-odd lock n = m (mod 2)
    parity_transform(deep["G(4,6)"], "even")
    parity_transform(shallow["G(2,2)"], "even")
    parity_transform(shallow["G(2,2,2)"], "even")
    parity_transform(deep["G(3,5)"], "odd")

    for name in ("G(2,3)", "G(3,4)"):
        for n in range(61):
            d = loop_basis(deep[name].coeffs[n], n)
            assert min(d, default=0) >= 0, f"{name}: negative loop weight at order {n}"

    for name in ("G(4,6)", "G(3,5)", "G(3,4)"):
        report = cone_positivity_check(deep[name], parse_group_spec(name))
        assert report.ok, f"{name}: first violation {report.first_violation}"


def test_c08_bounded_return_visits(trefoil_high, trefoil_law):
    rows, _ = trefoil_high
    # visit counts for identity-returning walks; the q = 1 variant converges
    # too slowly (~ c/sqrt(n)) for a window this short
    v = expected_returns(center_column(rows, 400), 2)
    assert v[400] - v[200] <= 0.5
    assert max(v) <= max(v[:201]) + 1

    report = variance_sequence(rows.coeffs[:401])
    assert report.upper_ok
    for n in range(50, 401):
        ratio = report.values[n] / n
        assert 0.5 * trefoil_law.sigma2 <= ratio <= 1.0, f"n={n}: ratio {ratio:.4f}"


def test_c09_recurrence_discovery(trefoil_high, braid_high):
    bra_rows, _ = braid_high
    even = [bra_rows.coeffs[n].coeff(0) for n in range(0, 921, 2)]
    rec = guess_recurrence(even[:361], max_order=9, max_degree=30)
    assert rec is not None and rec.order <= 9 and rec.degree <= 30
    assert verify_recurrence(rec, even)  # 100 terms beyond the fitting window

    tre_rows, _ = trefoil_high
    # the rows the shapes below are read from satisfy the trefoil cubic
    assert not any(residual_mod_prime(trefoil_equation(), tre_rows, 987654321, (1 << 61) - 1))
    seq = center_column(tre_rows, 699)
    # no recurrence of order <= 13 and degree <= 30 exists: each such fitting
    # matrix has full rank modulo a prime
    assert guess_recurrence(seq[:600], max_order=13, max_degree=30) is None
    # the true frontier: nothing smaller within order 15 and degree 23, and
    # the (15, 23) relation lifts exactly (coefficients of 886 digits)
    rec = guess_recurrence(seq[:600], max_order=15, max_degree=23)
    assert rec is not None and (rec.order, rec.degree) == (15, 23)
    assert verify_recurrence(rec, seq)  # 100 terms beyond the fitting window


def test_c10_growth_rate_gap(trefoil_high, trefoil_law):
    rows, _ = trefoil_high
    n = 400
    center_rate, mass_rate = growth_rate_compare(rows.coeffs, n)
    # local limit of the Gaussian winding law: center ~ mass / sqrt(2 pi sigma^2 n),
    # so the plain n-th roots differ by a factor that only decays like log(n)/n
    gaussian = 0.5 * math.log(2 * math.pi * trefoil_law.sigma2 * n)
    gap = abs(center_rate * math.exp(gaussian / n) - mass_rate)
    assert gap < 0.02, f"rate gap at order {n} is {gap:.4f}"
    log_ratio = n * math.log(mass_rate / center_rate)
    assert abs(log_ratio - gaussian) < 0.01, f"log(mass/center) {log_ratio:.4f} vs {gaussian:.4f}"
