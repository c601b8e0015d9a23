"""Equilibrium measure: coefficient solve, map geometry, density, cache."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import conj, im, log, mp, mpc, mpf, pi, sqrt

from biorthlab.equilibrium import (
    BranchEscape,
    OnBranchCut,
    Potential,
    build_density_table,
    build_equilibrium,
    density,
    determinant_identity_residual,
    edge_constants,
    effective_potential,
    endpoint_derivatives,
    endpoints,
    F_function,
    g_functions,
    inverse_map,
    lagrange_constant,
    load_equilibrium,
    map_J,
    reflect_potential,
    save_equilibrium,
    solve_coefficients,
)
from biorthlab.mpnum import PrecisionContext

from conftest import QUAD, QUARTIC


@pytest.fixture(scope="module")
def table(eq_unit, ctx96):
    return build_density_table(eq_unit, ctx96)


# --- potential validation -------------------------------------------------

def test_potential_rejects_odd_degree():
    with pytest.raises(ValueError):
        Potential(("0", "0", "1/2", "1"))


def test_potential_rejects_negative_leading():
    with pytest.raises(ValueError):
        Potential(("0", "0", "-1"))


def test_potential_rejects_nonconvex():
    with pytest.raises(ValueError):
        Potential(("0", "0", "-1", "0", "1/20"))


def test_potential_rejects_nonconvex_far_from_origin():
    # V'' = x^2 + 20x + 99 is -1 at x = -10 and positive on [-5, 95]
    with pytest.raises(ValueError):
        Potential(("0", "0", "99/2", "10/3", "1/12"))


def test_potential_exact_coefficients():
    V = Potential(("1/3", "0", "1/2"))
    assert V.coeff_strings() == ("1/3", "0", "1/2")
    assert V.degree == 2
    with mp.workdps(50):
        x = mpf("0.123456789")
        assert abs(V.V(x) - (mpf(1) / 3 + x * x / 2)) < mpf(10) ** -45
        assert abs(V.Vp(x) - x) < mpf(10) ** -45
        assert abs(V.Vpp(x) - 1) < mpf(10) ** -45


def test_potential_argmin_with_slope(quad, ctx64):
    x = quad.argmin(ctx64, slope=1)
    with mp.workdps(70):
        assert abs(x - 1) < mpf(10) ** -60


# --- coefficient solve ----------------------------------------------------

@pytest.mark.parametrize("t", ["1/2", "1", "2"])
def test_quadratic_coefficients_closed_form(quad, ctx64, t):
    c1, c0 = solve_coefficients(quad, t, ctx64)
    with mp.workdps(80):
        fr = Fraction(t)
        tv = mpf(fr.numerator) / fr.denominator
        assert abs(c1 - tv) < mpf(10) ** -40
        assert abs(c0 - tv / 2) < mpf(10) ** -40


def test_quartic_coefficients_frozen(quartic, ctx64):
    c1, c0 = solve_coefficients(quartic, 1, ctx64)
    with mp.workdps(80):
        assert abs(c1 - mpf("0.67923637034460458202")) < mpf(10) ** -18
        assert abs(c0 - mpf("0.26341227382278362449")) < mpf(10) ** -18


def test_support_collapses_at_small_t(quad, ctx64):
    c1, c0 = solve_coefficients(quad, "1/100", ctx64)
    with mp.workdps(80):
        s_b = sqrt(mpf("0.25") + 1 / c1)
        width = map_J(c1, c0, s_b, ctx64) - map_J(c1, c0, -s_b, ctx64)
        assert 0 < width < mpf("0.5")


# --- J map ------------------------------------------------------------------

def test_map_j_branch_cut_guard(ctx64):
    with pytest.raises(OnBranchCut):
        map_J(1, 0.5, 0.3, ctx64)


def test_map_j_real_off_cut(ctx64):
    with mp.workdps(70):
        v = map_J(mpf(1), mpf("0.5"), mpf("0.8"), ctx64)
        assert not isinstance(v, mpc)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.51, 50), st.floats(-3, 3))
def test_map_j_odd_symmetry(re_s, im_s):
    with mp.workdps(60):
        s = mpc(re_s, im_s)
        v1 = map_J(1, mpf("0.5"), s)
        v2 = map_J(1, mpf("0.5"), -s)
        assert abs(v1 + v2 - 1) < mpf(10) ** -12


# --- solved data at t = 1 ---------------------------------------------------

def test_unit_time_fields(eq_unit):
    with mp.workdps(110):
        s_b = sqrt(mpf(5)) / 2
        assert abs(eq_unit.c1 - 1) < mpf(10) ** -80
        assert abs(eq_unit.c0 - mpf("0.5")) < mpf(10) ** -80
        assert abs(eq_unit.s_b - s_b) < mpf(10) ** -80
        assert abs(eq_unit.x_min) < mpf(10) ** -80
        assert abs(eq_unit.x_hat_min - 1) < mpf(10) ** -80
        a, b = endpoints(eq_unit)
        assert abs(a - eq_unit.a) < mpf(10) ** -80
        assert abs(b - eq_unit.b) < mpf(10) ** -80
        assert abs(eq_unit.a + eq_unit.b - 2 * eq_unit.c0) < mpf(10) ** -80
        # b = phi + 2 log phi for the quadratic field at t = 1
        phi = (1 + sqrt(mpf(5))) / 2
        assert abs(eq_unit.b - (phi + 2 * log(phi))) < mpf(10) ** -80
        assert abs(eq_unit.b - mpf("2.5804576388691017432")) < mpf(10) ** -19


def test_edge_constants_quadratic(eq_unit, ctx96):
    with mp.workdps(110):
        closed = 1 / (pi * sqrt(eq_unit.s_b))
        assert abs(eq_unit.alpha - closed) < mpf(10) ** -60
        assert abs(eq_unit.beta - closed) < mpf(10) ** -60
        assert abs(eq_unit.alpha - mpf("0.3010389039")) < mpf(10) ** -9
    al, be = edge_constants(eq_unit, ctx96)
    with mp.workdps(110):
        assert abs(al - eq_unit.alpha) < mpf(10) ** -60
        assert abs(be - eq_unit.beta) < mpf(10) ** -60


def test_determinant_identity(eq_unit):
    with mp.workdps(110):
        assert abs(determinant_identity_residual(eq_unit)) < mpf(10) ** -70


def test_lagrange_constant_closed_form(eq_unit, ctx96):
    ell = lagrange_constant(eq_unit, ctx96)
    with mp.workdps(110):
        assert abs(ell + mpf("0.5")) < mpf(10) ** -40
        assert abs(eq_unit.ell + mpf("0.5")) < mpf(10) ** -40


def test_endpoint_derivatives_golden(eq_unit, ctx96):
    ap, bp = endpoint_derivatives(eq_unit, ctx96)
    with mp.workdps(110):
        s5 = sqrt(mpf(5)) / 2
        assert abs(ap - (mpf("0.5") - s5)) < mpf(10) ** -40
        assert abs(bp - (mpf("0.5") + s5)) < mpf(10) ** -40


def test_endpoint_derivatives_match_differences(eq_unit, quad, ctx64):
    ap, bp = endpoint_derivatives(eq_unit, ctx64)
    with mp.workdps(80):
        h = mpf(10) ** -6
        ab = {}
        for sgn in (1, -1):
            c1, c0 = solve_coefficients(quad, 1 + sgn * h, ctx64)
            s_b = sqrt(mpf("0.25") + 1 / c1)
            ab[sgn] = (map_J(c1, c0, -s_b, ctx64), map_J(c1, c0, s_b, ctx64))
        fd_a = (ab[1][0] - ab[-1][0]) / (2 * h)
        fd_b = (ab[1][1] - ab[-1][1]) / (2 * h)
        assert abs(fd_a - ap) < mpf(10) ** -9 * (1 + abs(ap))
        assert abs(fd_b - bp) < mpf(10) ** -9 * (1 + abs(bp))


# --- density and variational structure -------------------------------------

def test_density_mass(table):
    with mp.workdps(110):
        assert abs(table.mass_check - 1) < mpf(10) ** -40
    assert all(v >= 0 for v in table.values)


def test_density_dual_route(eq_unit, ctx96):
    # interpolating the engine values is not independent; recompute two
    # points through the principal-value route and compare
    eng = eq_unit._engine
    with mp.workdps(110):
        for x in (mpf("0.2"), mpf("1.1")):
            direct = density(eq_unit, x, ctx96)
            assert abs(direct - eng.psi(x)) < mpf(10) ** -40


def test_effective_potential_negative_outside(eq_unit, ctx96):
    with mp.workdps(110):
        assert effective_potential(eq_unit, eq_unit.b + mpf("0.5"), ctx96) < 0
        assert effective_potential(eq_unit, eq_unit.a - mpf("0.5"), ctx96) < 0


def test_inverse_map_round_trip(eq_unit, ctx96):
    with mp.workdps(110):
        for x in (mpf("-0.5"), mpf("0.5"), mpf("1.5")):
            s = inverse_map(eq_unit, x, "upper", ctx96)
            assert im(s) > 0
            back = map_J(eq_unit.c1, eq_unit.c0, s, ctx96)
            assert abs(back - x) < mpf(10) ** -80
            s_low = inverse_map(eq_unit, x, "lower", ctx96)
            assert abs(s_low - conj(s)) < mpf(10) ** -80


def test_inverse_map_rejects_outside(eq_unit, ctx96):
    with pytest.raises(ValueError):
        inverse_map(eq_unit, eq_unit.b + 1, "upper", ctx96)
    with pytest.raises(ValueError):
        inverse_map(eq_unit, 0.5, "sideways", ctx96)


def test_g_functions_asymptotics(eq_unit, ctx96):
    with mp.workdps(110):
        z = mpf(50)
        g, g_tilde = g_functions(eq_unit, z, ctx96)
        mid = (eq_unit.a + eq_unit.b) / 2
        assert abs(g - log(z - mid)) < mpf("0.01")
        # second transform grows like z itself
        assert abs(g_tilde - z) < mpf(2)
    with pytest.raises(ValueError):
        g_functions(eq_unit, 0, ctx96)


def test_f_function_strip(eq_unit, ctx96):
    with mp.workdps(110):
        v = F_function(eq_unit, mpf("0.7"), ctx96)
        assert not isinstance(v, mpc)
        vc = F_function(eq_unit, mpc("0.7", "1.0"), ctx96)
        assert isinstance(vc, mpc)
    with pytest.raises(ValueError):
        F_function(eq_unit, mpc(0, "3.2"), ctx96)


# --- reflection -------------------------------------------------------------

def test_reflect_potential_quadratic(quad):
    vhat = reflect_potential(quad, 4)
    assert vhat.coeff_strings() == ("0", "3/4", "1/2")


def test_reflect_potential_quartic(quartic):
    vhat = reflect_potential(quartic, 2)
    assert vhat.coeff_strings() == ("0", "1/2", "1/2", "0", "1/20")


# --- cache ------------------------------------------------------------------

def test_cache_round_trip(eq_unit, quad, ctx96, tmp_path):
    save_equilibrium(eq_unit, quad, str(tmp_path))
    back = load_equilibrium(quad, 1, ctx96, str(tmp_path))
    assert back is not None
    for name in ("t", "c0", "c1", "s_b", "a", "b", "alpha", "beta",
                 "P", "Q", "ell", "x_min", "x_hat_min"):
        assert getattr(back, name) == getattr(eq_unit, name), name
    assert back.digits == eq_unit.digits


def test_cache_keys_on_digits_and_t(eq_unit, quad, ctx96, ctx64, tmp_path):
    save_equilibrium(eq_unit, quad, str(tmp_path))
    assert load_equilibrium(quad, 1, ctx64, str(tmp_path)) is None
    assert load_equilibrium(quad, 2, ctx96, str(tmp_path)) is None


def test_warm_build_matches(quad, ctx64, tmp_path):
    first = build_equilibrium(quad, "1/2", ctx64, cache_dir=str(tmp_path))
    again = build_equilibrium(quad, "1/2", ctx64, cache_dir=str(tmp_path))
    assert again.a == first.a and again.ell == first.ell
