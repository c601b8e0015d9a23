"""Equilibrium measure: coefficient solve, map geometry, density, cache."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import conj, exp, expm1, im, log, mp, mpc, mpf, pi, sqrt

from biorthlab.biortho import construct

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
from biorthlab import equilibrium
from biorthlab.kernel import KernelRequest, evaluate_request
from biorthlab.mpnum import NonConvergent, PrecisionContext

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


# a sextic with odd terms: V'(J) has degree 5, so the residues use J's
# series down to s^-5
SEXTIC = ("1", "-1/3", "1", "1/5", "1/10", "0", "1/30")


@pytest.mark.parametrize("coeffs", [QUARTIC, SEXTIC],
                         ids=["quartic", "sextic"])
@pytest.mark.parametrize("c1, c0", [("0.68", "0.26"), ("2.3", "-0.7")])
def test_contour_integrals_match_quadrature(coeffs, c1, c0):
    # the residues at infinity against mpmath's own quadrature over theta
    # on |s| = 1, where (1/2 pi i) ds = s dtheta / (2 pi)
    V = Potential(coeffs)
    digits = 48
    with mp.workdps(digits + 10):
        c1, c0 = mpf(c1), mpf(c0)
        exact = equilibrium._contour_integrals(V, c1, c0)
        half = mpf("0.5")
        seen = {}

        def integrands(th):
            # the four quadratures share their nodes; evaluate each once
            if th not in seen:
                s = mp.expj(th)
                j = map_J(c1, c0, s)
                vp, vpp = V.Vp(j), V.Vpp(j)
                seen[th] = [g * s / (2 * pi) for g in (
                    vp, vp / (s - half), vpp / (s - half), vpp / (s + half))]
            return seen[th]

        for k, value in enumerate(exact):
            ref = mp.quad(lambda th: integrands(th)[k],
                          [0, pi / 2, pi, 3 * pi / 2, 2 * pi])
            assert abs(ref - value) < mpf(10) ** -digits * (1 + abs(value))


@pytest.mark.parametrize("coeffs", [QUARTIC, SEXTIC],
                         ids=["quartic", "sextic"])
def test_coefficients_reach_full_precision(coeffs):
    # the solve stops once its residual is within 10^-(digits-12) and
    # takes the step that residual allows, which lands within the
    # working precision's rounding of a 200-digit solve
    V = Potential(coeffs)
    for t in ("1/2", "1", "2"):
        ref = solve_coefficients(V, t, PrecisionContext.for_digits(200))
        for digits in (36, 48, 64):
            got = solve_coefficients(V, t, PrecisionContext.for_digits(digits))
            with mp.workdps(210):
                for c, r in zip(got, ref):
                    assert abs(c - r) < mpf(10) ** -(digits + 5), (t, digits)


def test_sextic_equilibrium_identities():
    digits = 48
    eq = build_equilibrium(Potential(SEXTIC), 1, PrecisionContext.for_digits(
        digits))
    with mp.workdps(digits + 10):
        assert abs(determinant_identity_residual(eq)) < mpf(10) ** -(
            digits // 2)
        assert abs(eq._engine.mass - 1) < mpf(10) ** -(digits // 2)


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
    # the engine's density is the closed form Im Pol(I_+(x)) / (pi t) at
    # its nodes; the defining double-log integral, density(), is the
    # independent route.  The quadratic at 96 digits, and two fields whose
    # V'(J) has degree 3 and 5 at both ends of the t range, at 48 digits;
    # at t = 1/2 the quartic's tanh-sinh nodes reach within 1e-62 of a
    ctx48 = PrecisionContext.for_digits(48)
    cases = [(eq_unit, ctx96)] + [
        (build_equilibrium(Potential(c), t, ctx48), ctx48)
        for c in (QUARTIC, SEXTIC) for t in ("1/2", "2")]
    for eq, ctx in cases:
        with mp.workdps(ctx.digits + 10):
            for f in ("0.3", "0.8"):
                x = eq.a + (eq.b - eq.a) * mpf(f)
                direct = density(eq, x, ctx)
                assert abs(direct - eq._engine.psi(x)) < \
                    mpf(10) ** -(ctx.digits + 5), (eq.P, eq.t, f)


def test_engine_inverts_next_to_the_edges(eq_unit, monkeypatch):
    # density() runs tanh-sinh at 2 digits + 20, and next to an edge J'
    # vanishes: a tolerance read from that precision is never met there,
    # while the engine's own one is met within the Newton budget
    steps = []
    j_prime = equilibrium._J_prime

    def counted(c1, s):
        steps[-1] += 1
        return j_prime(c1, s)

    monkeypatch.setattr(equilibrium, "_J_prime", counted)
    eng = eq_unit._engine
    with mp.workdps(2 * 96 + 20):
        for x in (eq_unit.a + mpf(10) ** -100, eq_unit.b - mpf(10) ** -107):
            steps.append(0)
            s = eng.iplus(x)
            assert steps[-1] <= PrecisionContext.newton_max_iter
            back = map_J(eq_unit.c1, eq_unit.c0, s)
            assert abs(back - x) <= mpf(10) ** -96


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


# --- F, F', g and g~ in closed form ------------------------------------------

def _node_sums(eng, points, digits):
    """(F, F') at each point as integrals over the measure, in one call of
    the engine's trapezoid: F = (t/2) int [x + log((e^(z-x) - 1)/(z -
    x))] dmu, and F' its derivative in z.  The integrands are analytic
    within 2 pi of the support, so the trapezoid is spectrally accurate at
    every z of the strip; it runs 20 digits above the engine."""
    # d/dw log((e^w - 1)/w) = 1/(1 - e^-w) - 1/w.  Its cancellation costs
    # log10(1/|w|) digits, which the extra precision covers down to
    # |w| = 10^-20; below, where a node meets the test point (theta =
    # pi/2 puts one at the midpoint), the series 1/2 + w/12 takes over
    def dlog(w):
        if abs(w) < mpf(10) ** -20:
            return mpf(1) / 2 + w / 12
        return -1 / expm1(-w) - 1 / w

    vals = eng.integrate(
        lambda x: [x + log(equilibrium._phi_ratio(z - x)) for z in points]
        + [dlog(z - x) for z in points],
        PrecisionContext.for_digits(digits + 20))
    vals = [eng.t / 2 * v for v in vals]
    return vals[:len(points)], vals[len(points):]


@pytest.mark.parametrize("t", ["1/2", "1", "2"])
@pytest.mark.parametrize("coeffs", [QUAD, QUARTIC, SEXTIC],
                         ids=["quad", "quartic", "sextic"])
def test_closed_F_matches_node_sum(coeffs, t):
    digits = 48
    ctx = PrecisionContext.for_digits(digits)
    eq = build_equilibrium(Potential(coeffs), t, ctx)
    eng = eq._engine
    with mp.workdps(digits + 30):
        a, b = eq.a, eq.b
        tiny = mpf(10) ** -6
        real = (a, b, b + tiny, a - tiny, b + mpf("0.05"), b + 3, a - 3,
                b + 10, a - 10, a + mpf("0.01"), b - mpf("0.01"),
                (a + b) / 2)
        cplx = (mpc((a + b) / 2, "0.7"), mpc(b + mpf("0.3"), "-1.2"),
                mpc(a - 1, "2.5"), mpc(b, "0.4"), mpc(b + tiny, 1))
        refs, refs_p = _node_sums(eng, real + cplx, digits)
        for z, ref, ref_p in zip(real + cplx, refs, refs_p):
            with mp.workdps(digits + 10):
                got, got_p = eng.F(z), eng.F_prime(z)
            assert isinstance(got, mpc) == (z in cplx)
            assert abs(got - ref) < mpf(10) ** -digits * (1 + abs(ref)), z
            assert abs(got_p - ref_p) < mpf(10) ** -digits * (1 + abs(ref_p)), z


def test_g_functions_match_quadrature(quartic):
    # g and g~ against mp.quad of the log-transforms of the engine's density;
    # next to the support the integrand is all but singular at x = z
    digits = 48
    ctx = PrecisionContext.for_digits(digits)
    eq = build_equilibrium(quartic, 1, ctx)
    eng = eq._engine
    with mp.workdps(digits + 10):
        a, b = eq.a, eq.b
        points = (b + mpf("0.01"), b + mpf(10) ** -6, b + mpf("0.5"),
                  mpc(b - 1, "0.8"), mpc(a - 1, -2), mpc(b + mpf("0.5"), 7),
                  mpc((a + b) / 2, pi))
        cuts = [a, (a + b) / 2, b - mpf("0.01"), b - mpf(10) ** -4, b]
    psi = {}

    def dmu(x):
        # the quadratures share their nodes; evaluate the density once
        if x not in psi:
            psi[x] = eng.psi(x)
        return psi[x]

    for z in points:
        g, g_tilde = g_functions(eq, z, ctx)
        with mp.workdps(digits + 5):
            if im(z) == pi:
                # e^z = -e^Re(z): the principal log's imaginary part is pi
                tilde = lambda x: log(exp(z.real) + exp(x)) + mpc(0, pi)
            else:
                tilde = lambda x: log(exp(z) - exp(x))
            ref = mp.quad(lambda x: log(z - x) * dmu(x), cuts)
            ref_tilde = mp.quad(lambda x: tilde(x) * dmu(x), cuts)
            assert abs(g - ref) < mpf(10) ** -45, z
            assert abs(g_tilde - ref_tilde) < mpf(10) ** -45, z


def test_f_function_strip(eq_unit, ctx96):
    with mp.workdps(110):
        v = F_function(eq_unit, mpf("0.7"), ctx96)
        assert not isinstance(v, mpc)
        vc = F_function(eq_unit, mpc("0.7", "1.0"), ctx96)
        assert isinstance(vc, mpc)
    with pytest.raises(ValueError):
        F_function(eq_unit, mpc(0, "3.2"), ctx96)


# --- closed forms without an integral over the measure -----------------------

def test_cold_build_and_kernel_never_build_the_series(quartic, monkeypatch):
    # a cold build and the kernel's bulk, edge and raw requests need
    # nothing but the closed forms: no integral over the measure
    def refuse(eng, f, ctx):
        raise AssertionError("an integral over the measure was taken")

    monkeypatch.setattr(equilibrium._SigmaSeries, "integrate", refuse)
    ctx = PrecisionContext.for_digits(36)
    eq = build_equilibrium(quartic, 1, ctx)
    sys3 = construct(quartic, 3, 4, ctx)
    for regime, x_star in (("bulk", (eq.a + eq.b) / 2), ("edge_right", None),
                           ("raw", None)):
        req = KernelRequest(n=3, regime=regime, grid=(("0", "0"), ("0.5", "1")),
                            x_star=x_star)
        assert len(evaluate_request(sys3, eq, req, ctx).values) == 2


@pytest.mark.parametrize("t", ["1/2", "1", "2"])
@pytest.mark.parametrize("coeffs", [QUAD, QUARTIC, SEXTIC],
                         ids=["quad", "quartic", "sextic"])
def test_closed_ell_and_psi_match_series(coeffs, t):
    # ell = Re(C + C~) against lagrange_constant, which integrates the
    # log potential over the closed psi by its Chebyshev moments; psi
    # itself is checked against density() in test_density_dual_route
    digits = 48
    ctx = PrecisionContext.for_digits(digits)
    eq = build_equilibrium(Potential(coeffs), t, ctx)
    ell = lagrange_constant(eq, ctx)
    with mp.workdps(digits + 10):
        assert abs(eq.ell - ell) < mpf(10) ** -55


@pytest.mark.parametrize("coeffs", [QUAD, QUARTIC, SEXTIC],
                         ids=["quad", "quartic", "sextic"])
def test_seeds_hold_next_to_edges_and_far_out(coeffs):
    # the double-precision seeds, the edge model that replaces them next
    # to an edge, and the far field where s_in - 1/2 underflows a float
    digits = 48
    eq = build_equilibrium(Potential(coeffs), 1,
                           PrecisionContext.for_digits(digits))
    eng = eq._engine
    # the same field's engine 20 digits up: the reference psi
    fine = build_equilibrium(Potential(coeffs), 1, PrecisionContext.for_digits(
        digits + 20))._engine
    with mp.workdps(digits + 10):
        a, b, rad = eq.a, eq.b, eng.rad
        inside = []
        for k in (2, 6, 12, 30):
            gap = mpf(10) ** -k * rad
            inside += [a + gap, b - gap]
            # I_+ next to an edge resolves only to about eps / J', and J'
            # falls like sqrt(gap)
            bound = mpf(10) ** -(digits + 8) * sqrt(rad / gap)
            for x in (a + gap, b - gap):
                with mp.workdps(digits + 30):
                    ref = fine.psi(x)
                assert abs(eng.psi(x) - ref) < bound, (k, x)
        cplx = [mpc(x, "3.1") for x in (a - 2, eng.mid, b + 1)]
        points = inside + [b + 60, a - 60] + cplx + [conj(z) for z in cplx]
        refs, _ = _node_sums(eng, points, digits)
        for z, ref in zip(points, refs):
            got = eng.F(z)
            assert abs(got - ref) < mpf(10) ** -digits * (1 + abs(ref)), z


def test_newton_steps_from_float_seeds(monkeypatch):
    # mpmath Newton evaluations (float ones not counted): from 16 digits,
    # 48 take three; F outside [a, b] solves for two real roots
    counts = [0]
    newton = equilibrium.newton

    def counted(step, z, tol):
        def wrapped(w):
            counts[-1] += isinstance(w, (mp.mpf, mp.mpc))
            return step(w)
        return newton(wrapped, z, tol)

    monkeypatch.setattr(equilibrium, "newton", counted)
    digits = 48
    for coeffs in (QUAD, QUARTIC, SEXTIC):
        eq = build_equilibrium(Potential(coeffs), 1,
                               PrecisionContext.for_digits(digits))
        eng = eq._engine
        with mp.workdps(digits + 10):
            a, b = eq.a, eq.b
            for f in range(1, 20):
                counts.append(0)
                eng.iplus(a + (b - a) * mpf(f) / 20)
                assert counts[-1] <= 3, (coeffs, f)
            for k in range(1, 9):
                for z in (b + k * mpf("0.1"), a - k * mpf("0.1")):
                    counts.append(0)
                    eng.F(z)
                    assert counts[-1] <= 6, (coeffs, z)


# --- integrals over the measure ---------------------------------------------

@pytest.mark.parametrize("t", ["1/2", "1", "2"])
@pytest.mark.parametrize("coeffs", [QUAD, QUARTIC, SEXTIC],
                         ids=["quad", "quartic", "sextic"])
def test_mass_is_one(coeffs, t):
    # the trapezoid over the closed psi; the coefficient conditions make
    # the mass 1
    digits = 48
    eq = build_equilibrium(Potential(coeffs), t,
                           PrecisionContext.for_digits(digits))
    with mp.workdps(digits + 10):
        assert abs(eq._engine.mass - 1) < mpf(10) ** -(digits - 8)


def test_engine_node_cap_raises(quad, monkeypatch):
    # the trapezoid's halving cap binds at the first mass read: at 48
    # digits the mass needs two halvings from 16 intervals
    monkeypatch.setattr(PrecisionContext, "max_panel_doublings", 1)
    eq = build_equilibrium(quad, 1, PrecisionContext.for_digits(48))
    with pytest.raises(NonConvergent, match="trapezoid stalled"):
        eq._engine.mass


# --- reflection -------------------------------------------------------------

def test_reflect_potential_quadratic(quad):
    vhat = reflect_potential(quad, 4)
    assert vhat.coeff_strings() == ("0", "3/4", "1/2")


def test_reflect_potential_quartic(quartic):
    vhat = reflect_potential(quartic, 2)
    assert vhat.coeff_strings() == ("0", "1/2", "1/2", "0", "1/20")


# --- cache ------------------------------------------------------------------

def _closed_forms(eq):
    # F and F' outside and inside the support, psi and ell: every value a
    # warm build must reproduce to the bit
    eng = eq._engine
    with mp.workdps(eq.digits + 10):
        points = (eq.b + mpf("0.3"), eq.a - mpf("0.2"), eng.mid + eng.rad / 3)
        return ([eng.F(z) for z in points], [eng.F_prime(z) for z in points],
                eng.psi(points[2]), eq.ell)


def test_cache_round_trip(eq_unit, quad, ctx96, tmp_path):
    save_equilibrium(eq_unit, quad, str(tmp_path))
    entry, = tmp_path.glob("eq_*.json")
    assert set(json.loads(entry.read_text())) == {
        "version", "digits", "t", "c0", "c1"}
    back = load_equilibrium(quad, 1, ctx96, str(tmp_path))
    assert back == (eq_unit.c1, eq_unit.c0)


def test_cache_keys_on_digits_and_t(eq_unit, quad, ctx96, ctx64, tmp_path):
    save_equilibrium(eq_unit, quad, str(tmp_path))
    assert load_equilibrium(quad, 1, ctx64, str(tmp_path)) is None
    assert load_equilibrium(quad, 2, ctx96, str(tmp_path)) is None


def test_warm_build_matches(tmp_path):
    for i, (coeffs, digits) in enumerate(
            (c, d) for c in (QUAD, QUARTIC) for d in (36, 64)):
        V, ctx = Potential(coeffs), PrecisionContext.for_digits(digits)
        cache = str(tmp_path / str(i))
        first = build_equilibrium(V, "1/2", ctx, cache_dir=cache)
        again = build_equilibrium(V, "1/2", ctx, cache_dir=cache)
        # a hit reads (c1, c0) back to the bit and derives the rest from
        # them as a cold build does
        assert again == first
        assert (first.cache, again.cache) == ("miss", "hit")
        assert _closed_forms(again) == _closed_forms(first), (coeffs, digits)
        # the entry holds the solve alone
        entry, = (tmp_path / str(i)).glob("eq_*.json")
        assert set(json.loads(entry.read_text())) == {
            "version", "digits", "t", "c0", "c1"}


@pytest.mark.parametrize("key", ["c1", "c0"])
def test_cache_hit_check_raises(eq_unit, quad, ctx96, tmp_path, key):
    # a coefficient nudged by 10^-(digits/2) fails the coefficient
    # conditions, which a hit checks to newton_tol = 10^-(digits - 12)
    save_equilibrium(eq_unit, quad, str(tmp_path))
    entry, = tmp_path.glob("eq_*.json")
    doc = json.loads(entry.read_text())
    with mp.workdps(130):
        doc[key] = mp.nstr(mpf(doc[key]) + mpf(10) ** -48, 120)
    entry.write_text(json.dumps(doc))
    with pytest.raises(NonConvergent, match="cached coefficients"):
        build_equilibrium(quad, 1, ctx96, cache_dir=str(tmp_path))
