"""Numerics substrate: quadratures, Newton solver, LDU, Airy."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, mpc, binomial, exp, log, sqrt, gamma

from biorthlab.mpnum import (
    NonConvergent,
    PrecisionContext,
    RealInterval,
    SingularJacobian,
    SingularMinor,
    airy,
    complex_newton,
    gauss_legendre_nodes,
    integrate_circle,
    integrate_gauss_legendre,
    integrate_tanh_sinh,
    invert_unit_lower,
    ldu_bidiagonalize,
)

CTX = PrecisionContext.for_digits(48)


def test_context_fields():
    ctx = PrecisionContext.for_digits(64)
    assert ctx.digits == 64
    with mp.workdps(80):
        assert abs(ctx.quad_rel_tol / mpf(10) ** -56 - 1) < mpf(10) ** -10
        assert abs(ctx.newton_tol / mpf(10) ** -52 - 1) < mpf(10) ** -10


def test_context_rejects_low_digits():
    with pytest.raises(ValueError):
        PrecisionContext.for_digits(16)


def test_interval_ordering():
    RealInterval(-1, 1)
    with pytest.raises(ValueError):
        RealInterval(2, 2)


def test_gl_nodes_weights():
    with mp.workdps(60):
        xs, ws = gauss_legendre_nodes(12)
        assert abs(sum(ws) - 2) < mpf(10) ** -55
        # node set is symmetric about the origin
        assert all(abs(x + y) < mpf(10) ** -55 for x, y in zip(xs, reversed(xs)))
        # order-12 rule integrates monomials through degree 23
        for k in (2, 10, 22):
            got = sum(w * x ** k for x, w in zip(xs, ws))
            assert abs(got - mpf(2) / (k + 1)) < mpf(10) ** -52


def test_gl_integrates_exp():
    val = integrate_gauss_legendre(exp, RealInterval(0, 1), CTX)
    with mp.workdps(60):
        assert abs(val - (exp(1) - 1)) < mpf(10) ** -45


def test_gl_nonconvergent_on_jump():
    ctx = replace(PrecisionContext.for_digits(48), max_panel_doublings=2)
    f = lambda x: mpf(1) if x > mpf('0.1234567') else mpf(0)
    with pytest.raises(NonConvergent):
        integrate_gauss_legendre(f, RealInterval(0, 1), ctx)


def test_tanh_sinh_endpoint_singularities():
    with mp.workdps(60):
        v1 = integrate_tanh_sinh(lambda x: 1 / sqrt(x), RealInterval(0, 1), CTX)
        v2 = integrate_tanh_sinh(log, RealInterval(0, 1), CTX)
        assert abs(v1 - 2) < mpf(10) ** -40
        assert abs(v2 + 1) < mpf(10) ** -40


def test_circle_residues():
    with mp.workdps(60):
        one = integrate_circle(lambda s: 1 / s, 1, CTX)
        shifted = integrate_circle(lambda s: 1 / (s - mpf('0.6')), 1, CTX)
        assert abs(one - 1) < mpf(10) ** -40
        assert abs(shifted - 1) < mpf(10) ** -40


def test_circle_radius_guard():
    with pytest.raises(ValueError):
        integrate_circle(lambda s: 1 / s, 0.4, CTX)


def test_complex_newton_finds_i():
    z = complex_newton(lambda w: w * w + 1, mpc(0.5, 0.5), CTX)
    with mp.workdps(60):
        assert abs(z - mpc(0, 1)) < mpf(10) ** -40


def test_complex_newton_flat_start():
    with pytest.raises(SingularJacobian):
        complex_newton(lambda w: w * w + 1, mpc(0), CTX)


def _pascal(m):
    return [[binomial(i + j, i) for j in range(m)] for i in range(m)]


def test_ldu_pascal():
    with mp.workdps(40):
        L, D, U = ldu_bidiagonalize(_pascal(5))
        for k in range(5):
            assert abs(D[k] - 1) < mpf(10) ** -30
        for i in range(5):
            for j in range(5):
                assert abs(L[i][j] - binomial(i, j)) < mpf(10) ** -30
                assert abs(U[i][j] - binomial(j, i)) < mpf(10) ** -30


def test_ldu_reconstructs():
    with mp.workdps(40):
        M = [[mpf(1) / (i + j + 1) for j in range(4)] for i in range(4)]
        L, D, U = ldu_bidiagonalize(M)
        for i in range(4):
            for j in range(4):
                got = sum(L[i][k] * D[k] * U[k][j] for k in range(4))
                assert abs(got - M[i][j]) < mpf(10) ** -30


def test_ldu_singular_minor_index():
    with mp.workdps(40):
        with pytest.raises(SingularMinor) as err:
            ldu_bidiagonalize([[1, 1, 1], [1, 1, 2], [1, 2, 3]])
        assert err.value.k == 1


def test_unit_lower_inverse():
    with mp.workdps(40):
        L = [[binomial(i, j) if j <= i else mpf(0) for j in range(6)]
             for i in range(6)]
        inv = invert_unit_lower(L)
        for i in range(6):
            for j in range(6):
                expect = (-1) ** (i - j) * binomial(i, j) if j <= i else mpf(0)
                assert abs(inv[i][j] - expect) < mpf(10) ** -30
                prod = sum(L[i][k] * inv[k][j] for k in range(6))
                assert abs(prod - (1 if i == j else 0)) < mpf(10) ** -30


def test_airy_at_zero():
    ai, aip = airy(0, CTX)
    with mp.workdps(60):
        assert abs(ai - mpf(3) ** (mpf(-2) / 3) / gamma(mpf(2) / 3)) < mpf(10) ** -40
        assert abs(aip + mpf(3) ** (mpf(-1) / 3) / gamma(mpf(1) / 3)) < mpf(10) ** -40


@pytest.mark.parametrize("x", ["-3.25", "-1", "1.5", "4.75", "8"])
def test_airy_against_reference(x):
    ai, aip = airy(mpf(x), CTX)
    with mp.workdps(70):
        ref = mp.airyai(mpf(x))
        refp = mp.airyai(mpf(x), derivative=1)
        assert abs(ai - ref) < mpf(10) ** -36 * (1 + abs(ref))
        assert abs(aip - refp) < mpf(10) ** -36 * (1 + abs(refp))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_gl_exact_on_cubics(coeffs):
    with mp.workdps(60):
        c = [mpf(v) for v in coeffs]
        f = lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        got = integrate_gauss_legendre(f, RealInterval(-1, 2), CTX)
        anti = lambda x: ((c[3] * x / 4 + c[2] / 3) * x + c[1] / 2) * x ** 2 + c[0] * x
        assert abs(got - (anti(mpf(2)) - anti(mpf(-1)))) < mpf(10) ** -35
