import math

import pytest

from cogrowth import asymptotics
from cogrowth.algebraic import axa_q1_equation, braid_equation, trefoil_equation
from cogrowth.asymptotics import (
    algebraic_critical_point,
    algebraic_moments,
    assembled_value,
    expected_returns,
    exponent_fit,
    find_critical_point,
    gaussian_profile_check,
    growth_and_moments,
    growth_rate_compare,
    log_int,
    minimal_poly_check,
    variance_sequence,
)
from cogrowth.cli import (
    AXA_GROWTH_POLY,
    BRAID_GROWTH_POLY,
    TREFOIL_GROWTH_POLY,
    TREFOIL_VARIANCE_POLY,
)
from cogrowth.groups import parse_group_spec
from cogrowth.qseries import QPolynomial
from cogrowth.systems import (
    EquationSystem,
    Term,
    build_axa_system,
    build_star_system,
    ktree_closed_form,
    solve_series,
)


def star(spec: str) -> EquationSystem:
    return build_star_system(parse_group_spec(spec))


@pytest.fixture(scope="module")
def g22_rows():
    return solve_series(star("G(2,2)"), 160).F.coeffs


class TestCriticalPoints:
    def test_regular_tree_subsystem(self):
        # A = 1 + (k-1) z^2 A^2 with k = 3 loses its real branch at 1/(2 sqrt 2)
        tree = EquationSystem(["A"], {"A": [Term(1, 0, 0), Term(2, 2, 0, ("A", "A"))]})
        cp = find_critical_point(tree, 1.0)
        assert abs(cp.z_c - 1 / (2 * math.sqrt(2))) < 1e-12
        assert max(cp.residuals) < 1e-12
        assert all(v > 0 for v in cp.Y_c.values())

    def test_g22_quarter(self):
        cp = find_critical_point(star("G(2,2)"), 1.0)
        assert abs(cp.z_c - 0.25) < 1e-12

    def test_trefoil_point(self):
        sys23 = star("G(2,3)")
        cp = find_critical_point(sys23, 1.0)
        assert abs(cp.z_c - 0.2531241216) < 1e-9
        assert abs(assembled_value(sys23, cp.Y_c) - 6.744148958) < 1e-7

    def test_system_and_cubic_routes_agree(self):
        for q in (1.0, 1.3):
            a = find_critical_point(star("G(2,3)"), q).z_c
            b = algebraic_critical_point(trefoil_equation(), q).z_c
            assert abs(a - b) < 1e-11

    def test_no_branch_point_reported(self):
        # purely linear growth keeps the iteration convergent past the scan roof
        tame = EquationSystem(["A"], {"A": [Term(1, 0, 0), Term(1, 1, 0, ("A",))]})
        with pytest.raises(RuntimeError):
            find_critical_point(tame, 1.0)


class TestMoments:
    def test_trefoil_variance_constant(self):
        law = growth_and_moments(star("G(2,3)"))
        assert abs(law.lam) < 1e-8
        assert abs(law.sigma2 - 0.1801879352) < 1e-6
        root = min(r for r in minimal_poly_check(0.18, TREFOIL_VARIANCE_POLY).real_roots if r > 0)
        assert abs(law.sigma2 - root) < 1e-7

    def test_braid_moments(self):
        law = algebraic_moments(braid_equation())
        assert abs(law.mu - (1 + 2 * math.sqrt(2))) < 1e-10
        assert abs(law.sigma2 - (5 - 3 * math.sqrt(2)) / 7) < 1e-8

    def test_g33_agrees_with_braid_equation(self):
        law = growth_and_moments(star("G(3,3)"))
        assert abs(law.sigma2 - (5 - 3 * math.sqrt(2)) / 7) < 1e-6

    def test_star_drift_vanishes(self):
        for spec in ("G(2,3)", "G(3,4)", "G(2,2,2)"):
            assert abs(growth_and_moments(star(spec)).lam) < 1e-8

    def test_all_two_periods_growth(self):
        for k in (2, 3, 4):
            system = star("G(" + ",".join("2" * k) + ")")
            mu = growth_and_moments(system).mu
            assert abs(mu - 4 * math.sqrt(k - 1)) < 1e-10

    def test_each_q_solved_once(self, monkeypatch):
        # the stencils at h and h/2 share q = 1 +- h: 7 distinct points, not 9
        calls = []
        find = asymptotics.find_critical_point

        def counted(system, q):
            calls.append(q)
            return find(system, q)

        monkeypatch.setattr(asymptotics, "find_critical_point", counted)
        growth_and_moments(star("G(2,2)"))
        assert len(calls) == len(set(calls)) == 7

    def test_axa_growth_both_routes(self):
        mu_sys = 1.0 / find_critical_point(build_axa_system(), 1.0).z_c
        assert abs(mu_sys - 3.9076667) < 1e-6
        mu_eq = 1.0 / algebraic_critical_point(axa_q1_equation(), 1.0).z_c
        assert abs(mu_sys - mu_eq) < 1e-9


class TestMinimalPoly:
    def test_trefoil_quartic(self):
        mu = (1 + math.sqrt(25 + 16 * math.sqrt(2))) / 2
        check = minimal_poly_check(mu, TREFOIL_GROWTH_POLY)
        assert abs(check.residual) < 1e-8
        assert check.is_largest_positive
        assert abs(mu - 3.950630994) < 1e-8

    def test_braid_quadratic(self):
        check = minimal_poly_check(1 + 2 * math.sqrt(2), BRAID_GROWTH_POLY)
        assert abs(check.residual) < 1e-12
        assert check.is_largest_positive

    def test_axa_degree_eleven(self):
        mu = 1.0 / find_critical_point(build_axa_system(), 1.0).z_c
        check = minimal_poly_check(mu, AXA_GROWTH_POLY)
        assert abs(check.residual) < 1e-6
        assert check.is_largest_positive
        assert len(check.real_roots) == 5

    def test_smaller_root_not_ranked_largest(self):
        check = minimal_poly_check(0.0656404510, AXA_GROWTH_POLY)
        assert abs(check.residual) < 1e-6
        assert not check.is_largest_positive


class TestExponentFit:
    def test_central_binomial_squares(self):
        seq = [math.comb(n, n // 2) ** 2 if n % 2 == 0 else 0 for n in range(401)]
        alpha, amp = exponent_fit(seq, 4.0)
        assert abs(alpha + 1) < 0.1
        assert abs(amp - 2 / math.pi) < 0.1 * 2 / math.pi

    def test_three_tree_closed_form(self):
        _, cog = ktree_closed_form(3, 200)
        seq = [cog[n // 2] if n % 2 == 0 else 0 for n in range(401)]
        alpha, _ = exponent_fit(seq, 4 * math.sqrt(2))
        assert abs(alpha + 2) < 0.1

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            exponent_fit([1, 2, 3, 4], 1.0)


class TestProfileAndReturns:
    def test_gaussian_profile_sharpens(self, g22_rows):
        devs = [gaussian_profile_check(g22_rows[n], 0.25, n) for n in (40, 80, 160)]
        assert devs[0] < 0.05
        assert devs[2] < devs[1] < devs[0]
        assert devs[2] < 0.01

    def test_profile_needs_positive_center(self):
        with pytest.raises(ValueError):
            gaussian_profile_check(QPolynomial.from_pairs([(1, 3), (-1, 3)]), 0.2, 10)

    def test_expected_returns_examples(self):
        masses = [c.eval_at_one() for c in solve_series(star("G(2,3)"), 12).F.coeffs]
        v = expected_returns(masses, 2)
        assert v[0] == 1.0
        assert v[1] == 0.0  # odd orders have no closed walks here
        assert v[2] == 2.0

    def test_variance_small_orders(self, g22_rows):
        rep = variance_sequence(g22_rows[:40])
        assert rep.values[2] == 0.5
        assert rep.upper_ok
        rep23 = variance_sequence(solve_series(star("G(2,3)"), 12).F.coeffs)
        assert abs(rep23.values[2] - 1 / 3) < 1e-12
        assert rep23.upper_ok

    def test_variance_rejects_asymmetry(self):
        bad = [QPolynomial.constant(1), QPolynomial.from_pairs([(1, 1)])]
        with pytest.raises(ValueError):
            variance_sequence(bad)

    def test_growth_rate_compare(self, g22_rows):
        center, total = growth_rate_compare(g22_rows, 160)
        assert abs(center - total) < 0.1
        assert abs(total - 4.0) < 0.2

    def test_log_int_matches_float(self):
        assert abs(log_int(12345) - math.log(12345)) < 1e-12
        big = 3**4000
        assert abs(log_int(big) - 4000 * math.log(3)) < 1e-9
        with pytest.raises(ValueError):
            log_int(0)
