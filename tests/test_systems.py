import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.groups import GroupSpec, STAR_POLYGON, parse_group_spec
from cogrowth.oracle import count_closed_walks, count_one_sided_walks
from cogrowth.qseries import QPolynomial, QZSeries, q_constant_term
from cogrowth.systems import (
    EquationSystem,
    Term,
    build_axa_system,
    build_star_system,
    cone_positivity_check,
    ktree_closed_form,
    l_name,
    solve_group,
    solve_series,
)


def conj(series: QZSeries) -> QZSeries:
    return QZSeries(series.order, [p.conjugate() for p in series.coeffs])


class TestBuildStar:
    def test_unknown_counts(self):
        assert len(build_star_system(parse_group_spec("G(3,4)")).unknowns) == 7
        assert len(build_star_system(parse_group_spec("G(2,2)")).unknowns) == 4
        bands = [
            u
            for u in build_star_system(parse_group_spec("G(3,4,5)")).unknowns
            if u.startswith("L")
        ]
        assert len(bands) == 12

    def test_root_equation_shape(self):
        system = build_star_system(parse_group_spec("G(3,4)"))
        eq = system.equations[l_name(0, 1)]
        assert Term(1, 0, 0) in eq
        assert Term(1, 1, 0, (l_name(1, 1),)) in eq
        assert Term(1, 1, 1, (l_name(2, 1),)) in eq

    def test_rejects_braid(self):
        with pytest.raises(ValueError):
            build_star_system(parse_group_spec("B3-standard"))

    def test_solve_group_rejects_braid_standard(self):
        with pytest.raises(ValueError, match="B3-standard"):
            solve_group(parse_group_spec("B3-standard"), 6)

    def test_invariant_catches_bad_term(self):
        bad = EquationSystem(["A"], {"A": [Term(1, 0, 0, ("A", "A"))]})
        with pytest.raises(ValueError):
            bad.check_invariant()


class TestSolveStar:
    def test_order_zero(self):
        sol = solve_group(parse_group_spec("G(3,4)"), 0)
        for facet in (1, 2):
            assert sol.series[l_name(0, facet)].coeffs[0] == QPolynomial.constant(1)
        assert sol.F.coeffs[0] == QPolynomial.constant(1)

    def test_g22_z2(self):
        sol = solve_group(parse_group_spec("G(2,2)"), 2)
        assert sol.F.coeffs[2] == QPolynomial.from_pairs([(1, 2), (0, 4), (-1, 2)])

    def test_g23_z2(self):
        sol = solve_group(parse_group_spec("G(2,3)"), 2)
        assert sol.F.coeffs[2] == QPolynomial.from_pairs([(1, 1), (0, 4), (-1, 1)])

    def test_matches_oracle_with_winding(self):
        for text in ["G(2,2)", "G(2,3)", "G(3,3)", "G(3,4)", "G(2,2,2)"]:
            spec = parse_group_spec(text)
            table = count_closed_walks(spec, 10)
            sol = solve_group(spec, 10)
            assert sol.F == QZSeries.from_counts(table.counts, 10), text

    def test_one_sided_matches_oracle(self):
        for text, facets in [("G(3,4)", (1, 2)), ("G(2,3,4)", (1, 2, 3))]:
            spec = parse_group_spec(text)
            sol = solve_group(spec, 10)
            for facet in facets:
                table = count_one_sided_walks(spec, facet, 10)
                got = sol.series[l_name(0, facet)]
                assert got == QZSeries.from_counts(table.counts, 10), (text, facet)

    def test_winding_symmetry(self):
        sol = solve_group(parse_group_spec("G(3,4)"), 12)
        assert conj(sol.F) == sol.F

    def test_residuals_and_primitive_identity(self):
        from cogrowth.qseries import series_add, series_mul, series_reciprocal, series_sub

        one = QZSeries.one(20)
        sol = solve_group(parse_group_spec("G(2,2,2)"), 20)
        assert sol.residual_ok()
        for facet in (1, 2, 3):
            # L0_i (1 - P_i) = 1
            L0, P = sol.series[l_name(0, facet)], sol.series[f"P{facet}"]
            assert series_mul(L0, series_sub(one, P)) == one, facet
        # with two facets, F = 1/(1 - P_1 - P_2) and P_i = 1 - 1/L0_i
        sol = solve_group(parse_group_spec("G(3,4)"), 20)
        assert sol.residual_ok()
        inverses = [series_reciprocal(sol.series[l_name(0, facet)]) for facet in (1, 2)]
        assert series_mul(sol.F, series_sub(series_add(*inverses), one)) == one


class TestSolveAxa:
    def test_low_orders(self):
        sol = solve_series(build_axa_system(), 4)
        assert sol.F.coeffs[0] == QPolynomial.constant(1)
        assert sol.F.coeffs[1].is_zero()
        assert sol.F.coeffs[2].coeff(0) == 4

    def test_matches_oracle_with_winding(self):
        spec = parse_group_spec("B3-axa")
        table = count_closed_walks(spec, 10)
        sol = solve_group(spec, 10)
        assert sol.F == QZSeries.from_counts(table.counts, 10)

    def test_symmetries(self):
        sol = solve_series(build_axa_system(), 16)
        assert sol.series["G10"] == conj(sol.series["G01"])
        assert sol.series["G20"] == conj(sol.series["G02"])
        assert sol.series["L10"] == conj(sol.series["L01"])
        # F02 walks sit one negative winding step from F01's mirror
        shifted = QZSeries(16, [p.shift(-1) for p in conj(sol.series["F01"]).coeffs])
        assert sol.series["F02"] == shifted

    def test_residual(self):
        assert solve_series(build_axa_system(), 16).residual_ok()


def test_facet_root_without_unit_constant_raises():
    system = build_star_system(parse_group_spec("G(2,3)"))
    root = system.equations["L0_1"]
    system.equations["L0_1"] = [Term(2, 0, 0)] + [t for t in root if t != Term(1, 0, 0)]
    with pytest.raises(ValueError, match="constant term"):
        solve_series(system, 5)


def test_ill_ordered_system_raises():
    # A = 1 + B reads B at order n before B = z*A computes it
    system = EquationSystem(
        ["A", "B"],
        {"A": [Term(1, 0, 0), Term(1, 0, 0, ("B",))], "B": [Term(1, 1, 0, ("A",))]},
    )
    with pytest.raises(RuntimeError, match="needed too early"):
        solve_series(system, 5)


class TestKTree:
    def test_small_values(self):
        tree, cogrowth = ktree_closed_form(2, 3)
        assert cogrowth == [1, 4, 36, 400]
        _, cogrowth3 = ktree_closed_form(3, 1)
        assert cogrowth3 == [1, 6]

    def test_matches_assembled_series(self):
        for k in (2, 3):
            spec = GroupSpec(STAR_POLYGON, (2,) * k)
            sol = solve_group(spec, 12)
            got = q_constant_term(sol.F)
            _, expect = ktree_closed_form(k, 6)
            assert got[0::2] == expect
            assert all(c == 0 for c in got[1::2])

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            ktree_closed_form(1, 3)


class TestConeChecks:
    def test_even_class(self):
        spec = parse_group_spec("G(4,6)")
        report = cone_positivity_check(solve_group(spec, 20).F, spec)
        assert report.parity_class == "even" and report.ok

    def test_odd_class(self):
        spec = parse_group_spec("G(3,5)")
        report = cone_positivity_check(solve_group(spec, 20).F, spec)
        assert report.parity_class == "odd" and report.ok

    def test_mixed_class(self):
        spec = parse_group_spec("G(3,4)")
        report = cone_positivity_check(solve_group(spec, 20).F, spec)
        assert report.parity_class == "mixed" and report.ok

    def test_violation_reported(self):
        spec = parse_group_spec("G(3,5)")
        F = solve_group(spec, 8).F
        F.coeffs[6] = F.coeffs[6] - QPolynomial.from_pairs(
            [(0, F.coeffs[6].coeff(0))]
        )
        report = cone_positivity_check(F, spec)
        assert not report.ok and report.first_violation == (6, 0)


class TestStarFamily:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    def test_rows_match_oracle_with_invariants(self, periods):
        spec = GroupSpec(STAR_POLYGON, tuple(periods))
        length = 8 if len(periods) == 2 else 6
        F = solve_group(spec, length).F
        assert F == QZSeries.from_counts(count_closed_walks(spec, length).counts, length)
        assert all(row.is_symmetric() for row in F.coeffs)
        assert cone_positivity_check(F, spec).ok
