"""Numerics substrate: quadratures, Newton's iteration, LDU, Airy."""

from dataclasses import fields, replace

import pytest
from mpmath import mp, mpf, mpc, binomial, exp, log, sqrt, gamma

from biorthlab.mpnum import (
    NonConvergent,
    PrecisionContext,
    RealInterval,
    SingularMinor,
    airy,
    integrate_tanh_sinh,
    integrate_trapezoid,
    invert_unit_lower,
    ldu_bidiagonalize,
    newton,
)

CTX = PrecisionContext.for_digits(48)


def test_context_fields():
    ctx = PrecisionContext.for_digits(64)
    assert ctx.digits == 64
    # the digit count is the whole state: tolerances and budgets derive
    assert [f.name for f in fields(PrecisionContext)] == ["digits"]
    with pytest.raises(TypeError):
        replace(ctx, max_panel_doublings=2)
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


def _counted(f):
    # f, and a one-item list that counts its evaluations
    count = [0]

    def g(x):
        count[0] += 1
        return f(x)
    return g, count


def _confirming_evals(f, lo, hi, tol):
    # nodes the stop on two agreeing levels needs, each level summed afresh
    with mp.workdps(CTX.digits + 10):
        lo, hi = mpf(lo), mpf(hi)
        prev, intervals = None, 16
        while True:
            h = (hi - lo) / intervals
            cur = h * (sum(f(lo + k * h) for k in range(1, intervals))
                       + (f(lo) + f(hi)) / 2)
            if prev is not None and abs(cur - prev) <= tol:
                return intervals + 1
            prev, intervals = cur, 2 * intervals


def test_trapezoid_integrates_gaussian_moments():
    f, count = _counted(
        lambda x: (exp(-x * x), x * x * exp(-x * x), mpc(0, 1) * exp(-x * x)))
    got = integrate_trapezoid(f, RealInterval(-12, 12), CTX)
    # the gains per halving grow from 6 to 23 digits, so the rule returns
    # at 128 intervals; two agreeing levels would take 256
    assert count[0] == 129
    with mp.workdps(60):
        root_pi = sqrt(mp.pi)
        assert abs(got[0] - root_pi) < mpf(10) ** -45
        assert abs(got[1] - root_pi / 2) < mpf(10) ** -45
        assert abs(got[2] - mpc(0, root_pi)) < mpf(10) ** -45


@pytest.mark.parametrize("e", [3, 4, 5, 6])
@pytest.mark.parametrize("f,lo,hi,exact", [
    # O(h^2) error with a steady constant
    (exp, 0, 1, lambda: exp(1) - 1),
    # the kink's place in its cell cycles, so the gains alternate between
    # about 0.9 and 0.3 digits: a doubling with no acceleration behind it
    (lambda x: abs(x - mpf("0.3")), -1, 1, lambda: mpf("1.09")),
], ids=["exp", "kink"])
def test_trapezoid_algebraic_error_takes_the_confirming_exit(
        f, lo, hi, exact, e):
    tol = mpf(10) ** -e
    g, count = _counted(lambda x: (f(x),))
    got, = integrate_trapezoid(g, RealInterval(lo, hi), CTX,
                               lambda vals: [tol])
    assert count[0] == _confirming_evals(f, lo, hi, tol)
    with mp.workdps(60):
        assert abs(got - exact()) <= tol


def test_trapezoid_nonconvergent_on_jump(monkeypatch):
    monkeypatch.setattr(PrecisionContext, "max_panel_doublings", 2)
    f = lambda x: (mpf(1) if x > mpf('0.1234567') else mpf(0),)
    with pytest.raises(NonConvergent):
        integrate_trapezoid(f, RealInterval(0, 1), CTX)


def test_trapezoid_jump_spends_the_whole_budget():
    # O(h) error with an erratic constant never passes for acceleration
    step = mpf("0.1234567")
    f, count = _counted(lambda x: (mpf(1) if x > step else mpf(0),))
    with pytest.raises(NonConvergent):
        integrate_trapezoid(f, RealInterval(0, 1), CTX)
    assert count[0] == 16 * 2 ** PrecisionContext.max_panel_doublings + 1


def test_trapezoid_waits_for_its_slowest_component():
    # e^{-x^2} alone returns at 128 intervals; the narrow e^{-400x^2} is
    # still pre-asymptotic there and keeps the vector rule going
    iv = RealInterval(-12, 12)
    wide, n_wide = _counted(lambda x: (exp(-x * x),))
    narrow, n_narrow = _counted(lambda x: (exp(-400 * x * x),))
    both, n_both = _counted(lambda x: (exp(-x * x), exp(-400 * x * x)))
    integrate_trapezoid(wide, iv, CTX)
    integrate_trapezoid(narrow, iv, CTX)
    got = integrate_trapezoid(both, iv, CTX)
    assert n_wide[0] == 129
    assert n_both[0] == n_narrow[0] > 1000
    with mp.workdps(60):
        assert abs(got[0] - sqrt(mp.pi)) < mpf(10) ** -45
        assert abs(got[1] - sqrt(mp.pi / 400)) < mpf(10) ** -45


def test_tanh_sinh_endpoint_singularities():
    with mp.workdps(60):
        v1 = integrate_tanh_sinh(lambda x: 1 / sqrt(x), RealInterval(0, 1), CTX)
        v2 = integrate_tanh_sinh(log, RealInterval(0, 1), CTX)
        assert abs(v1 - 2) < mpf(10) ** -40
        assert abs(v2 + 1) < mpf(10) ** -40


def _square_plus_one_step(w):
    return (w * w + 1) / (2 * w)


def test_newton_finds_i():
    with mp.workdps(60):
        z = newton(_square_plus_one_step, mpc(0.5, 0.5), mpf(10) ** -50)
        assert abs(z - mpc(0, 1)) < mpf(10) ** -40


def test_newton_nonconvergent_from_real_start():
    # real iterates of z^2 + 1 never leave the real line, so never reach i
    with mp.workdps(60):
        with pytest.raises(NonConvergent):
            newton(_square_plus_one_step, mpf("0.3"), mpf(10) ** -50)


def test_newton_returns_at_double_root():
    # at a double root the residual of the expanded square cancels to
    # rounding noise within about sqrt(eps) of the root, so the step
    # never meets the tolerance; the iteration must still return
    def double_root_step(r, steps):
        def step(w):
            d = (w * w - 2 * r * w + r * r) / (2 * w - 2 * r)
            steps.append(d)
            return d
        return step

    with mp.workdps(60):
        tol = mpf(10) ** -50
        steps = []
        z = newton(double_root_step(1, steps), 1 + mpf(10) ** -20, tol)
        assert abs(z - 1) < mpf(10) ** -25
        # here the noise never cancels to an exact zero step, so the stall
        # rule, not the step test, ends the iteration
        r = mpc(1, 1) / 3
        steps = []
        z = newton(double_root_step(r, steps), r + mpf(10) ** -20, tol)
        assert abs(z - r) < mpf(10) ** -25
        assert abs(steps[-1]) >= tol * (1 + abs(z))


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
