import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.algebraic import axa_q1_equation, braid_equation, trefoil_equation
from cogrowth.fastseries import equation_system, high_order_rows
from cogrowth.groups import GroupSpec, STAR_POLYGON, parse_group_spec
from cogrowth.oracle import count_closed_walks, count_one_sided_walks
from cogrowth import systems
from cogrowth.qseries import QPolynomial, QZSeries
from cogrowth.systems import (
    EquationSystem,
    Term,
    build_axa_system,
    build_star_system,
    cone_positivity_check,
    forget_winding,
    group_series,
    ktree_closed_form,
    l_name,
    solve_group,
    solve_series,
    system_for,
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

    def test_solve_group_braid_standard_runs_its_lowered_cubic(self):
        sol = solve_group(parse_group_spec("B3-standard"), 40)
        assert list(sol.series) == ["H", "K2", "F"]
        assert sol.F == sol.series["F"] == high_order_rows(braid_equation(), 40)
        assert sol.residual_ok()

    def test_symmetric_systems(self):
        # one-sided systems carry a lone q or 1/q; the lowered cubics and
        # quintic, and every system without winding marks, are fixed by q -> 1/q
        stars = [system_for(parse_group_spec(text))
                 for text in ("G(2,2)", "G(2,3)", "G(3,4)", "G(2,2,2)", "G(2,3,4)")]
        for system in stars + [build_axa_system()]:
            assert not system.symmetric()
            assert forget_winding(system).symmetric()
        for eq in (trefoil_equation(), braid_equation(), axa_q1_equation()):
            assert equation_system(eq).symmetric()

    def test_invariant_catches_bad_term(self):
        bad = EquationSystem({"A": [Term(1, 0, 0, ("A", "A"))]})
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
            sol = solve_group(spec, 10)
            assert sol.F == count_closed_walks(spec, 10), text

    def test_one_sided_matches_oracle(self):
        for text, facets in [("G(3,4)", (1, 2)), ("G(2,3,4)", (1, 2, 3))]:
            spec = parse_group_spec(text)
            sol = solve_group(spec, 10)
            for facet in facets:
                got = sol.series[l_name(0, facet)]
                assert got == count_one_sided_walks(spec, facet, 10), (text, facet)

    def test_winding_symmetry(self):
        sol = solve_group(parse_group_spec("G(3,4)"), 12)
        assert conj(sol.F) == sol.F

    def test_residuals_and_primitive_identity(self):
        from cogrowth.qseries import series_add, series_mul, series_reciprocal

        one = QZSeries.one(20)
        sol = solve_group(parse_group_spec("G(2,2,2)"), 20)
        assert sol.residual_ok()
        for facet in (1, 2, 3):
            # L0_i (1 - P_i) = 1
            L0, P = sol.series[l_name(0, facet)], sol.series[f"P{facet}"]
            assert series_add(one, series_mul(L0, P)) == L0, facet
        # with two facets, F = 1/(1 - P_1 - P_2) and P_i = 1 - 1/L0_i
        sol = solve_group(parse_group_spec("G(3,4)"), 20)
        assert sol.residual_ok()
        inverses = [series_reciprocal(sol.series[l_name(0, facet)]) for facet in (1, 2)]
        assert series_mul(sol.F, series_add(*inverses)) == series_add(one, sol.F)


class TestSolveAxa:
    def test_low_orders(self):
        sol = solve_series(build_axa_system(), 4)
        assert sol.F.coeffs[0] == QPolynomial.constant(1)
        assert sol.F.coeffs[1].is_zero()
        assert sol.F.coeffs[2].coeff(0) == 4

    def test_matches_oracle_with_winding(self):
        spec = parse_group_spec("B3-axa")
        sol = solve_group(spec, 10)
        assert sol.F == count_closed_walks(spec, 10)

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
        {"A": [Term(1, 0, 0), Term(1, 0, 0, ("B",))], "B": [Term(1, 1, 0, ("A",))]},
        main="A",
    )
    with pytest.raises(RuntimeError, match="needed too early"):
        solve_series(system, 5)


def test_system_without_f_raises():
    # A = 1 + z*A has no main unknown and no facets to assemble F from
    system = EquationSystem({"A": [Term(1, 0, 0), Term(1, 1, 0, ("A",))]})
    with pytest.raises(ValueError, match="assemble F"):
        solve_series(system, 3)


def test_solves_leave_their_system_unchanged(monkeypatch):
    for text in ("G(2,3)", "G(2,3,4)"):
        system = system_for(parse_group_spec(text))
        equations, main = {u: list(ts) for u, ts in system.equations.items()}, system.main
        solve_series(system, 6)
        monkeypatch.setattr(systems, "system_for", lambda spec: system)
        group_series(parse_group_spec(text), 6, None)
        assert system.equations == equations and system.main == main == "", text


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
            got = [p.coeff(0) for p in sol.F.coeffs]
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
    @given(st.lists(st.integers(2, 7), min_size=2, max_size=4))
    def test_rows_match_oracle_with_invariants(self, periods):
        spec = GroupSpec(STAR_POLYGON, tuple(periods))
        length = {2: 12, 3: 10, 4: 8}[len(periods)]
        F = solve_group(spec, length).F
        assert F == count_closed_walks(spec, length)
        assert group_series(spec, length, None) == F
        assert all(row.is_symmetric() for row in F.coeffs)
        assert cone_positivity_check(F, spec).ok


def test_braid_rows_match_oracle_at_length_14():
    for text in ("B3-standard", "B3-axa"):
        spec = parse_group_spec(text)
        assert solve_group(spec, 14).F == count_closed_walks(spec, 14), text
