"""Kernel evaluation, scaling limits, and the degree-window diagnostics."""

import random
from dataclasses import replace

import pytest
from mpmath import exp, im, mp, mpc, mpf, pi, sinpi, sqrt

from biorthlab.biortho import construct
from biorthlab.equilibrium import Potential, density
from biorthlab.kernel import (
    KernelRequest,
    OutsideBulk,
    airy_kernel,
    airy_kernel_integral,
    alpha_limit,
    bulk_scaled,
    cd_coefficients,
    cd_decomposition,
    edge_scaled,
    error_summary,
    evaluate_request,
    exp_trunc,
    kernel_conjugated,
    kernel_raw,
    kernel_split,
    result_rows,
    sine_kernel,
    _f_prime,
)
from biorthlab.mpnum import PrecisionContext, integrate_gauss_legendre

from conftest import ctx_for

X_STAR = mpf("0.5")


@pytest.fixture(scope="module")
def sys1():
    return construct(Potential(("0", "0", "1/2")), 1, 2,
                     PrecisionContext.for_digits(64))


@pytest.fixture(scope="module")
def sys4():
    return construct(Potential(("0", "0", "1/2")), 4, 5,
                     PrecisionContext.for_digits(64))


@pytest.fixture(scope="module")
def psi_star(eq_unit, ctx96):
    return density(eq_unit, X_STAR, ctx96)


def _bulk_points(n, psi, xi, eta):
    with mp.workdps(120):
        u = X_STAR + mpf(xi) / (psi * n)
        v = X_STAR + mpf(eta) / (psi * n)
    return u, v


@pytest.fixture(scope="module")
def cd16(sys16, eq_unit, psi_star):
    ctx = ctx_for(16)
    diag = cd_coefficients(sys16, "0.15", 6, ctx, eq=eq_unit)
    u, v = _bulk_points(16, psi_star, "0.25", "-0.25")
    dec = cd_decomposition(sys16, diag, u, v, ctx, eq=eq_unit)
    return diag, dec


# --- closed forms and primitives -------------------------------------------

def test_rank_one_kernel_closed_form(sys1):
    with mp.workdps(80):
        x, y = mpf("0.3"), mpf("-0.8")
        got = kernel_raw(sys1, x, y)
        want = exp(-(x * x + y * y) / 4) / sqrt(2 * pi)
        assert abs(got - want) < mpf(10) ** -50


def test_kernel_raw_complex_and_real_types(sys4):
    assert not isinstance(kernel_raw(sys4, mpf("0.2"), mpf("0.4")), mpc)
    val = kernel_raw(sys4, mpc("0.2", "0.3"), mpf("0.4"))
    assert isinstance(val, mpc) and im(val) != 0


def test_sine_kernel_forms():
    with mp.workdps(60):
        assert sine_kernel(mpf("0.3"), mpf("0.3")) == 1
        a = sine_kernel(mpf("0.1"), mpf("0.7"))
        b = sine_kernel(mpf("0.7"), mpf("0.1"))
        assert abs(a - b) < mpf(10) ** -50
        # integer separation sits at a zero
        assert abs(sine_kernel(mpf("-0.5"), mpf("0.5"))) < mpf(10) ** -50
        near = sine_kernel(mpf("0.3"), mpf("0.3") + mpf(10) ** -25)
        assert abs(near - 1) < mpf(10) ** -40


def test_airy_kernel_forms(ctx96):
    with mp.workdps(120):
        xi = mpf("0.4")
        diag = airy_kernel(xi, xi, ctx96)
        want = mp.airyai(xi, derivative=1) ** 2 - xi * mp.airyai(xi) ** 2
        assert abs(diag - want) < mpf(10) ** -80
        off = airy_kernel(mpf(0), mpf(1), ctx96)
        ai0, ai1 = mp.airyai(mpf(0)), mp.airyai(mpf(1))
        aip0 = mp.airyai(mpf(0), derivative=1)
        aip1 = mp.airyai(mpf(1), derivative=1)
        assert abs(off - (ai0 * aip1 - ai1 * aip0) / (0 - 1)) < mpf(10) ** -80
        assert abs(off - airy_kernel(mpf(1), mpf(0), ctx96)) < mpf(10) ** -80


@pytest.mark.parametrize("pair", [("0", "1"), ("-1", "0.5"), ("1", "1.000001")])
def test_airy_kernel_integral_identity(pair, ctx96):
    xi, eta = mpf(pair[0]), mpf(pair[1])
    with mp.workdps(120):
        got = airy_kernel_integral(xi, eta, 12, ctx96)
        want = airy_kernel(xi, eta, ctx96)
        assert abs(got - want) < mpf(10) ** -8 * abs(want)


def test_exp_trunc_partial_sums():
    with mp.workdps(60):
        z = mpc("1.3", "-2.1")
        for k in (5, 11):
            diff = exp_trunc(z, k) - exp_trunc(z, k - 1)
            assert abs(diff - z ** k / mp.factorial(k)) < mpf(10) ** -45


@pytest.mark.parametrize("k", [20, 40])
def test_exp_trunc_tail_bound(k):
    # uniform bound C^{k+1} e^C / (k+1)! on |z| <= C = 5; the max sits on
    # the boundary circle
    with mp.workdps(60):
        C = mpf(5)
        bound = C ** (k + 1) * exp(C) / mp.factorial(k + 1)
        worst = mpf(0)
        for idx in range(24):
            z = C * exp(mpc(0, 2 * pi * idx / 24))
            worst = max(worst, abs(exp(z) - exp_trunc(z, k)))
        assert worst <= bound
        assert abs(exp(mpf(3)) - exp_trunc(mpf(3), k)) <= bound


def test_alpha_limit_multiples_of_e(eq_unit):
    with mp.workdps(120):
        e1 = exp(mpf(1))
        for l, mult in [(-1, 1), (0, 2), (1, mpf(3) / 2), (2, mpf(2) / 3)]:
            got = alpha_limit(l, eq_unit)
            assert abs(got - mult * e1) < mpf(10) ** -40, l
        # the factorial tail: alpha_l * l! approaches e
        big = alpha_limit(50, eq_unit) * mp.factorial(50)
        assert abs(big - e1) < mpf("0.06")


# --- raw kernel structure ----------------------------------------------------

def test_trace_matches_rank(sys4):
    ctx = PrecisionContext.for_digits(64)
    with mp.workdps(80):
        val = integrate_gauss_legendre(lambda s: kernel_raw(sys4, s, s),
                                       sys4.support_window, ctx)
        assert abs(val - 4) < mpf(10) ** -40


def test_projection_identity(sys4):
    ctx = PrecisionContext.for_digits(64)
    with mp.workdps(80):
        x, y = mpf("0.1"), mpf("0.3")
        val = integrate_gauss_legendre(
            lambda s: kernel_raw(sys4, x, s) * kernel_raw(sys4, s, y),
            sys4.support_window, ctx)
        assert abs(val - kernel_raw(sys4, x, y)) < mpf(10) ** -40


def test_gauge_invariant_determinants(sys8, eq_unit, ctx96):
    rng = random.Random(71)
    with mp.workdps(110):
        for _ in range(5):
            x1, x2 = sorted(mpf(str(rng.uniform(-1.2, 2.2))) for _ in range(2))
            raw = (kernel_raw(sys8, x1, x1) * kernel_raw(sys8, x2, x2)
                   - kernel_raw(sys8, x1, x2) * kernel_raw(sys8, x2, x1))
            conj = (kernel_conjugated(sys8, eq_unit, x1, x1, ctx96)
                    * kernel_conjugated(sys8, eq_unit, x2, x2, ctx96)
                    - kernel_conjugated(sys8, eq_unit, x1, x2, ctx96)
                    * kernel_conjugated(sys8, eq_unit, x2, x1, ctx96))
            assert abs(raw - conj) < mpf(10) ** -60 * (1 + abs(raw))


# --- scaling limits -----------------------------------------------------------

def test_bulk_matches_sine_n12(sys12, eq_unit, psi_star, ctx96):
    with mp.workdps(120):
        assert abs(psi_star - mpf("0.3056376111")) < mpf(10) ** -9
        worst = mpf(0)
        for xi in ("-0.5", "0", "0.5"):
            for eta in ("-0.5", "0", "0.5"):
                val, ref = bulk_scaled(sys12, eq_unit, X_STAR, mpf(xi),
                                       mpf(eta), ctx96)
                assert abs(ref - sine_kernel(mpf(xi), mpf(eta))) \
                    < mpf(10) ** -60
                worst = max(worst, abs(val - ref))
        assert worst < mpf("0.05")
        assert abs(worst - mpf("0.041560")) < mpf("0.002")


def test_bulk_literal_prefactor_plateau(sys12, eq_unit, ctx96):
    with mp.workdps(120):
        val, _ref = bulk_scaled(sys12, eq_unit, X_STAR, mpf(0), mpf(0), ctx96,
                                literal_prefactor=True)
        assert abs(val * pi - 1) < mpf("0.02")


def test_bulk_outside_support_raises(sys12, eq_unit, ctx96):
    for x in (eq_unit.b + mpf("0.1"), eq_unit.a - mpf("0.1")):
        with pytest.raises(OutsideBulk):
            bulk_scaled(sys12, eq_unit, x, mpf(0), mpf(0), ctx96)


def test_f_prime_consistency(eq_unit, ctx96):
    from biorthlab.equilibrium import F_function
    with mp.workdps(120):
        fp = _f_prime(eq_unit, X_STAR, ctx96)
        h = mpf(10) ** -10
        fd = (F_function(eq_unit, X_STAR + h, ctx96)
              - F_function(eq_unit, X_STAR - h, ctx96)) / (2 * h)
        assert abs(fp - fd) < mpf(10) ** -12
        assert abs(fp - mpf("0.25")) < mpf("0.01")


def test_edge_right_decays_along_diagonal(sys12, eq_unit, ctx96):
    with mp.workdps(120):
        vals = [edge_scaled(sys12, eq_unit, "right", mpf(s), mpf(s), ctx96)[0]
                for s in ("0", "1", "2")]
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]


def test_edge_left_is_finite_and_positive(sys12, eq_unit, ctx96):
    with mp.workdps(120):
        val, ref = edge_scaled(sys12, eq_unit, "left", mpf("0.5"), mpf("0.5"),
                               ctx96)
        assert abs(ref - airy_kernel(mpf("0.5"), mpf("0.5"), ctx96)) \
            < mpf(10) ** -60
        assert val > 0
        assert abs(val - ref) < 2 * ref + mpf("0.05")


def test_edge_scaled_is_conjugated_kernel(sys12, eq_unit, ctx96):
    xi, eta = mpf("0.5"), mpf("1")
    for side, edge, const, sign in (("right", eq_unit.b, eq_unit.beta, 1),
                                    ("left", eq_unit.a, eq_unit.alpha, -1)):
        val, _ = edge_scaled(sys12, eq_unit, side, xi, eta, ctx96)
        with mp.workdps(ctx96.digits + 10):
            c = (pi * const * 12) ** (mpf(2) / 3)
            u, v = edge + sign * xi / c, edge + sign * eta / c
            want = kernel_conjugated(sys12, eq_unit, u, v, ctx96) / c
            assert abs(val - want) < mpf(10) ** -90 * abs(want)


def test_edge_rejects_unknown_side(sys12, eq_unit, ctx96):
    with pytest.raises(ValueError):
        edge_scaled(sys12, eq_unit, "top", mpf(0), mpf(0), ctx96)


# --- degree-window diagnostics ------------------------------------------------

def test_cd_needs_degree_room(sys8):
    # delta = 0.3 asks for K = 2 but sys8 stops at m = 9
    with pytest.raises(ValueError):
        cd_coefficients(sys8, "0.3", 6, ctx_for(8))


def test_cd_tables_frozen_spots(cd16):
    diag, _dec = cd16
    a, b = diag.a_coeffs, diag.b_coeffs
    assert diag.K == 2
    with mp.workdps(120):
        assert abs(a[(15, 16)] - mpf("2.63464909")) < mpf(10) ** -6
        assert abs(a[(15, 15)] - mpf("5.02902887")) < mpf(10) ** -6
        assert abs(a[(15, 14)] - mpf("3.63718053")) < mpf(10) ** -6
        assert abs(b[(15, 16)] - mpf(63) / 32) < mpf(10) ** -6
        assert abs(b[(15, 17)] - mpf("0.5")) < mpf(10) ** -6
        assert abs(b[(14, 16)] - mpf("0.5")) < mpf(10) ** -6
        # the top boundary pair approaches e at rate 1/n
        assert abs(a[(15, 16)] - exp(mpf(1))) < mpf("0.15")


def test_cd_vanishing_patterns(cd16):
    diag, _dec = cd16
    a, b = diag.a_coeffs, diag.b_coeffs
    with mp.workdps(120):
        worst_a = max(abs(a[(j, k)]) for j in range(17) for k in range(17)
                      if k > j + 1)
        worst_b = max(abs(b[(j, k)]) for j in range(16) for k in range(17)
                      if k > j + diag.K)
        assert worst_a < mpf(10) ** -60
        assert worst_b < mpf(10) ** -60


def test_cd_alpha_table(cd16, eq_unit):
    diag, _dec = cd16
    assert set(diag.alpha_limits) == set(range(-1, 7))
    with mp.workdps(120):
        for l, val in diag.alpha_limits.items():
            assert abs(val - alpha_limit(l, eq_unit)) < mpf(10) ** -60


def test_cd_identity_residual(cd16):
    diag, dec = cd16
    with mp.workdps(120):
        assert dec.identity_residual < mpf(10) ** -48
        assert dec.identity_residual < mpf(10) ** -180
        assert diag.J1_value == dec.J1 and diag.J2_value == dec.J2
        # conjugated main term sits on the sine prediction
        target = exp(X_STAR) / pi * sinpi(mpf("0.5"))
        assert abs(dec.conj_main_term - target) < mpf("0.01") * target
        assert abs(dec.conj_main_term - mpf("0.525278")) < mpf(10) ** -5


def test_cd_identity_complex_points(sys16, cd16, eq_unit):
    diag, _dec = cd16
    ctx = ctx_for(16)
    u = mpc("0.52", "0.05")
    v = mpc("0.48", "-0.03")
    dec = cd_decomposition(sys16, diag, u, v, ctx, eq=eq_unit)
    with mp.workdps(120):
        assert dec.identity_residual < mpf(10) ** -40
        assert isinstance(dec.conj_J1, mpc)


def test_conj_j1_decreases(sys12, sys24, eq_unit, psi_star):
    vals = {}
    for n, sys in ((12, sys12), (24, sys24)):
        ctx = ctx_for(n)
        diag = cd_coefficients(sys, "0.15", 6, ctx, eq=eq_unit)
        u, v = _bulk_points(n, psi_star, "0.25", "-0.25")
        dec = cd_decomposition(sys, diag, u, v, ctx, eq=eq_unit)
        vals[n] = abs(dec.conj_J1)
    with mp.workdps(60):
        assert abs(vals[12] - mpf("0.517864")) < mpf("0.002")
        assert abs(vals[24] - mpf("0.054374")) < mpf("0.002")
        assert vals[24] < vals[12]


def test_main_term_matches_sine_n24(sys24, eq_unit, psi_star):
    ctx = ctx_for(24)
    diag = cd_coefficients(sys24, "0.15", 6, ctx, eq=eq_unit)
    rels = []
    with mp.workdps(ctx.digits + 10):
        for xi, eta in (("0.25", "-0.25"), ("0.4", "-0.1"), ("0.5", "0.2")):
            u, v = _bulk_points(24, psi_star, xi, eta)
            dec = cd_decomposition(sys24, diag, u, v, ctx, eq=eq_unit)
            target = exp(X_STAR) / pi * sinpi(mpf(xi) - mpf(eta))
            rels.append(abs(dec.conj_main_term - target) / abs(target))
        assert all(r < mpf("0.2") for r in rels)
        assert rels[0] < mpf("0.01")
        assert max(rels) < mpf("0.1")


# --- degree blocks near the edge ----------------------------------------------

def _edge_pair(eq, n, xi, eta):
    with mp.workdps(120):
        c = (pi * eq.beta * n) ** (mpf(2) / 3)
        return eq.b + mpf(xi) / c, eq.b + mpf(eta) / c


def test_split_windows(sys8, sys32, eq_unit, ctx96):
    u, v = _edge_pair(eq_unit, 32, "0.5", "1")
    split = kernel_split(sys32, eq_unit, "0.1", "0.2", 4, u, v, ctx96)
    assert split.windows == ((0, 3), (4, 19), (20, 19), (20, 31))
    u8, v8 = _edge_pair(eq_unit, 8, "0.5", "1")
    split8 = kernel_split(sys8, eq_unit, "0.1", "0.2", 4, u8, v8, ctx96)
    assert split8.windows == ((0, 0), (1, 0), (1, 0), (1, 7))


def test_split_sums_to_kernel(sys32, eq_unit, ctx96):
    u, v = _edge_pair(eq_unit, 32, "0.5", "1")
    split = kernel_split(sys32, eq_unit, "0.1", "0.2", 4, u, v, ctx96)
    with mp.workdps(120):
        total = sum(split.blocks)
        assert abs(total - kernel_raw(sys32, u, v)) \
            < mpf(10) ** -100 * (1 + abs(total))


def test_split_rejects_other_time(sys32, eq_unit, ctx96):
    u, v = _edge_pair(eq_unit, 32, "0.5", "1")
    with pytest.raises(ValueError):
        kernel_split(sys32, replace(eq_unit, t=mpf(2)), "0.1", "0.2", 4,
                     u, v, ctx96)


def test_split_low_block_is_negligible(sys32, eq_unit, ctx96):
    frozen = {("0.5", "1"): ("2.209e-41", "7.916e-2"),
              ("0", "0.5"): ("1.349e-39", "2.640e-1")}
    with mp.workdps(120):
        for (xi, eta), (k1f, k4f) in frozen.items():
            u, v = _edge_pair(eq_unit, 32, xi, eta)
            split = kernel_split(sys32, eq_unit, "0.1", "0.2", 4, u, v, ctx96)
            k1, k4 = split.conjugated[0], split.conjugated[3]
            assert k1 < k4
            assert k1 < mpf(10) ** -30
            assert abs(k1 - mpf(k1f)) < mpf("0.01") * mpf(k1f)
            assert abs(k4 - mpf(k4f)) < mpf("0.01") * mpf(k4f)


@pytest.mark.xfail(strict=False,
                   reason="top-block error decays like n^(-1/3); still above "
                          "the 25 percent band at n = 32 (measured 28 to 37 "
                          "percent on these points)")
def test_split_top_block_tracks_airy(sys32, eq_unit, ctx96):
    with mp.workdps(120):
        c = (pi * eq_unit.beta * 32) ** (mpf(2) / 3)
        for xi, eta in (("0.5", "1"), ("0", "0.5")):
            u, v = _edge_pair(eq_unit, 32, xi, eta)
            split = kernel_split(sys32, eq_unit, "0.1", "0.2", 4, u, v, ctx96)
            ref = airy_kernel(mpf(xi), mpf(eta), ctx96)
            assert abs(split.conjugated[3] * c - ref) < mpf("0.25") * abs(ref)


# --- request driver -------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError):
        KernelRequest(n=8, regime="sideways", grid=((0, 0),))
    with pytest.raises(ValueError):
        KernelRequest(n=8, regime="raw", grid=())
    with pytest.raises(ValueError):
        KernelRequest(n=8, regime="bulk", grid=((0, 0),))
    with pytest.raises(ValueError):
        KernelRequest(n=0, regime="raw", grid=((0, 0),))


def test_evaluate_bulk_request(sys8, eq_unit, ctx96):
    req = KernelRequest(n=8, regime="bulk",
                        grid=(("0", "0"), ("0", "1"), ("0.5", "-0.5")),
                        x_star="0.5")
    res = evaluate_request(sys8, eq_unit, req, ctx96)
    assert len(res.values) == len(res.reference) == 3
    with mp.workdps(60):
        assert abs(res.reference[0] - 1) < mpf(10) ** -40
        # reference vanishes at unit separation; rel falls back to abs
        assert abs(res.reference[1]) < mpf(10) ** -40
        assert res.rel_err[1] == res.abs_err[1]
        assert all(e < mpf("0.1") for e in res.abs_err)
    rows = result_rows(req, res)
    assert len(rows) == 3 and all(len(r) == 8 for r in rows)
    summary = error_summary(res)
    for key in ("max_abs_err", "median_abs_err", "max_rel_err",
                "median_rel_err"):
        assert isinstance(summary[key], float)


def test_evaluate_raw_request(sys8, eq_unit, ctx96):
    req = KernelRequest(n=8, regime="raw", grid=(("0.1", "0.2"),))
    res = evaluate_request(sys8, eq_unit, req, ctx96)
    assert res.reference == (mpf(0),)
    assert res.abs_err == (mpf(0),)
    with mp.workdps(60):
        want = kernel_conjugated(sys8, eq_unit, mpf("0.1"), mpf("0.2"), ctx96)
        assert abs(res.values[0] - want) < mpf(10) ** -40
