"""Biorthogonal pairs: bimoments, LDU construction, zeros, transforms."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import binomial, conj, exp, fac2, mp, mpc, mpf, pi, sqrt

from biorthlab import biortho
from biorthlab.biortho import (
    NonPositiveMinor,
    _moment_rect,
    bimoments,
    cauchy_transform_q,
    conjugated_pair,
    construct,
    load_system,
    save_system,
    zeros,
)
from biorthlab.equilibrium import Potential
from biorthlab.mpnum import (NonConvergent, PrecisionContext, _horner,
                             integrate_trapezoid, num_to_str)

from conftest import QUARTIC, ctx_for


def _gauss_moment(r, s, n):
    # int x^r e^{sx} e^{-n x^2/2} dx = sqrt(2 pi/n) e^{s^2/(2n)} E[X^r],
    # X ~ N(s/n, 1/n)
    mean, var = mpf(s) / n, mpf(1) / n
    raw = sum(binomial(r, k) * mean ** (r - k) * var ** (k // 2) * fac2(k - 1)
              for k in range(0, r + 1, 2))
    return sqrt(2 * pi / n) * exp(mpf(s) ** 2 / (2 * n)) * raw


def test_bimoments_guards(quad, ctx64):
    with pytest.raises(ValueError):
        bimoments(quad, 0, 2, ctx64)
    with pytest.raises(ValueError):
        bimoments(quad, 2, 11, ctx64)


def test_bimoments_quadratic_closed_forms(quad, ctx64):
    bm = bimoments(quad, 4, 2, ctx64)
    with mp.workdps(80):
        for (r, s) in [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]:
            want = _gauss_moment(r, s, 4)
            assert abs(bm.entries[r][s] - want) < mpf(10) ** -50 * want


def test_degree_one_system_closed_form(ctx64):
    sys1 = construct(Potential(("0", "0", "1/2")), 1, 2, ctx64)
    with mp.workdps(80):
        assert abs(sys1.h[0] - sqrt(2 * pi)) < mpf(10) ** -50
        # p_1 is odd; q_1(y) = y - e^{1/2}
        assert abs(sys1.p_coeffs[1][0]) < mpf(10) ** -50
        assert abs(sys1.p_coeffs[1][1] - 1) < mpf(10) ** -50
        assert abs(sys1.q_coeffs[1][0] + exp(mpf("0.5"))) < mpf(10) ** -50
        assert abs(sys1.q_coeffs[1][1] - 1) < mpf(10) ** -50


def test_h_positive_and_leading(sys8):
    assert all(v > 0 for v in sys8.h)
    with mp.workdps(110):
        # h_0 is the plain Gaussian mass
        assert abs(sys8.h[0] - sqrt(2 * pi / 8)) < mpf(10) ** -80


def test_defect_against_fresh_quadrature(sys8, quad):
    ctx = ctx_for(8)
    with mp.workdps(ctx.digits + 10):
        rect, _ = _moment_rect(quad, 8, 10, 10, ctx)
        hmax = max(sys8.h)
        for i, j in [(0, 0), (3, 3), (9, 9), (5, 2), (2, 7), (9, 0)]:
            got = mpf(0)
            for r in range(i + 1):
                for s in range(j + 1):
                    got += sys8.p_coeffs[i][r] * sys8.q_coeffs[j][s] * rect[r][s]
            if i == j:
                got -= sys8.h[i]
            assert abs(got) < mpf(10) ** -60 * hmax, (i, j)


def test_moment_rect_matches_quadrature(quartic):
    # an independent rule on the same window: mpmath's own quadrature
    n, ctx = 6, ctx_for(6)
    rect, win = _moment_rect(quartic, n, 8, 8, ctx)
    with mp.workdps(ctx.digits + 10):
        for i, j in [(0, 0), (1, 0), (3, 4), (7, 7), (0, 7), (6, 2)]:
            want = mp.quad(
                lambda x: x ** i * exp(j * x - n * quartic.V(x)),
                [win.lo, win.hi])
            assert abs(rect[i][j] - want) < mpf(10) ** -60 * rect[0][j], (i, j)


@pytest.mark.parametrize("n", [8, 16])
def test_moment_recurrence_quadratic_exact(quad, n):
    # every entry, including the rows the recurrence fills, is exact here
    ctx = ctx_for(n)
    rect, _ = _moment_rect(quad, n, n + 2, n + 2, ctx)
    with mp.workdps(ctx.digits + 10):
        tol = mpf(10) ** (-(ctx.digits - 5))
        for j in range(n + 2):
            mass = _gauss_moment(0, j, n)
            for i in range(n + 2):
                want = _gauss_moment(i, j, n)
                assert abs(rect[i][j] - want) <= tol * mass, (i, j)


SEXTIC = ("1", "-1/3", "1", "1/5", "1/10", "0", "1/30")


def _full_quadrature_rect(V, n, rows, cols, win, ctx):
    # every row by the trapezoid: the table before integration by parts
    rel = mpf(10) ** (-(ctx.digits - 4))

    def f(x):
        out, col = [], exp(-n * V.V(x))
        for j in range(cols):
            out.extend(col * x ** i for i in range(rows))
            col *= exp(x)
        return out

    def tol(vals):
        return [rel * max(abs(v), abs(vals[k - k % rows]))
                for k, v in enumerate(vals)]

    flat = integrate_trapezoid(f, win, ctx, tol)
    return [[flat[j * rows + i] for j in range(cols)] for i in range(rows)]


@pytest.mark.parametrize("coeffs", [QUARTIC, SEXTIC],
                         ids=["quartic", "sextic"])
@pytest.mark.parametrize("rows,cols", [(10, 10), (10, 11), (13, 9)],
                         ids=["square", "cd_shape", "tall"])
def test_moment_recurrence_matches_full_quadrature(coeffs, rows, cols):
    V, n, ctx = Potential(coeffs), 8, ctx_for(8)
    rect, win = _moment_rect(V, n, rows, cols, ctx)
    with mp.workdps(ctx.digits + 10):
        want = _full_quadrature_rect(V, n, rows, cols, win, ctx)
        tol = mpf(10) ** (-(ctx.digits - 4))
        for i in range(rows):
            for j in range(cols):
                assert abs(rect[i][j] - want[i][j]) <= tol * max(
                    abs(want[i][j]), want[0][j]), (i, j)


@pytest.mark.parametrize("coeffs", [QUARTIC, SEXTIC],
                         ids=["quartic", "sextic"])
def test_moment_recurrence_keeps_its_guard_digits(coeffs):
    # the forward recurrence amplifies the rounding of its start rows; the
    # table must still hold 8 digits past nominal, against a build at 40
    # more digits
    V, n, ctx = Potential(coeffs), 16, ctx_for(16)
    rect, _ = _moment_rect(V, n, n + 2, n + 2, ctx)
    ref, _ = _moment_rect(V, n, n + 2, n + 2,
                          PrecisionContext.for_digits(ctx.digits + 40))
    with mp.workdps(ctx.digits + 60):
        tol = mpf(10) ** (-(ctx.digits + 8))
        for i in range(n + 2):
            for j in range(n + 2):
                assert abs(rect[i][j] - ref[i][j]) <= tol * ref[0][j], (i, j)


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("coeffs", [QUARTIC, SEXTIC],
                         ids=["quartic", "sextic"])
def test_moment_rect_matches_fixed_step_trapezoid(coeffs, n, monkeypatch):
    # an oracle with no stop rule: one fixed step, half the one at which
    # the rule stopped, summed here at 40 more digits
    V, ctx, size = Potential(coeffs), ctx_for(n), n + 2
    real = integrate_trapezoid
    nodes = []

    def counted(f, iv, ctx, tol=None):
        def g(x):
            nodes.append(x)
            return f(x)
        return real(g, iv, ctx, tol)

    monkeypatch.setattr(biortho, "integrate_trapezoid", counted)
    rect, win = _moment_rect(V, n, size, size, ctx)
    intervals = 2 * (len(nodes) - 1)
    with mp.workdps(ctx.digits + 40):
        lo, hi = mpf(win.lo), mpf(win.hi)
        h = (hi - lo) / intervals
        want = [[mpf(0)] * size for _ in range(size)]
        for k in range(intervals + 1):
            x = lo + k * h
            col = (h / 2 if k in (0, intervals) else h) * exp(-n * V.V(x))
            ex = exp(x)
            for j in range(size):
                power = col
                for i in range(size):
                    want[i][j] += power
                    power *= x
                col *= ex
        tol = mpf(10) ** (-(ctx.digits + 8))
        for i in range(size):
            for j in range(size):
                assert abs(rect[i][j] - want[i][j]) <= tol * want[0][j], (i, j)


def test_moment_recurrence_certificate_fires(quad, ctx64, monkeypatch):
    # a row 0 off by 10^-(digits/2) propagates to the recurrence's top row,
    # which must then disagree with the top row's own quadrature
    real = integrate_trapezoid
    cols = 6

    def skewed(f, iv, ctx, tol=None):
        vals = real(f, iv, ctx, tol)
        scale = 1 + mpf(10) ** (-(ctx.digits // 2))
        return [v * scale for v in vals[:cols]] + vals[cols:]

    monkeypatch.setattr(biortho, "integrate_trapezoid", skewed)
    with pytest.raises(NonConvergent):
        _moment_rect(quad, 4, 6, cols, ctx64)


def test_support_window_brackets(sys8):
    lo, hi = mpf(sys8.support_window.lo), mpf(sys8.support_window.hi)
    assert lo < 0 < hi
    assert hi - lo < 50


def _strictly_interlaced(inner, outer):
    assert len(outer) == len(inner) + 1
    for k in range(len(inner)):
        if not (outer[k] < inner[k] < outer[k + 1]):
            return False
    return True


def test_zero_interlacing(sys8):
    for j in range(1, 8):
        zs = zeros(sys8, j)
        zs_next = zeros(sys8, j + 1)
        assert _strictly_interlaced(zs.zeros_p, zs_next.zeros_p), ("p", j)
        assert _strictly_interlaced(zs.zeros_qx, zs_next.zeros_qx), ("q", j)


def test_zero_degree_bounds(sys8):
    with pytest.raises(ValueError):
        zeros(sys8, 0)
    with pytest.raises(ValueError):
        zeros(sys8, sys8.m + 1)


def test_cauchy_transform_oracle(sys8):
    ctx = ctx_for(8)
    j, z = 3, mpc("0.4", "1.1")
    got = cauchy_transform_q(sys8, j, z, ctx)
    with mp.workdps(ctx.digits + 10):
        win = sys8.support_window
        f = lambda s: (_horner(sys8.q_coeffs[j], exp(s))
                       * exp(-8 * sys8.V.V(s)) / (s - z))
        want = mp.quad(f, [mpf(win.lo), mpf(win.hi)]) / (2 * pi * mpc(0, 1))
        assert abs(got - want) < mpf(10) ** -50 * (1 + abs(want))


def test_cauchy_transform_anticonjugate(sys8):
    ctx = ctx_for(8)
    z = mpc("-0.3", "0.8")
    with mp.workdps(110):
        plus = cauchy_transform_q(sys8, 4, z, ctx)
        minus = cauchy_transform_q(sys8, 4, conj(z), ctx)
        assert abs(minus + conj(plus)) < mpf(10) ** -60 * (1 + abs(plus))
    with pytest.raises(ValueError):
        cauchy_transform_q(sys8, 4, mpf("0.5"), ctx)


def test_conjugated_pair_gauge_cancels(sys8, eq_unit):
    ctx = ctx_for(8)
    x = mpf("0.375")
    pt, qt = conjugated_pair(sys8, eq_unit, 8, x, ctx)
    with mp.workdps(110):
        damp2 = exp(-8 * sys8.V.V(x))
        direct = (damp2 * _horner(sys8.p_coeffs[8], x)
                  * _horner(sys8.q_coeffs[8], exp(x)) / sys8.h[8])
        assert abs(pt * qt - direct) < mpf(10) ** -70 * (1 + abs(direct))


def test_conjugated_pair_time_mismatch(sys8, eq_unit):
    with pytest.raises(ValueError):
        conjugated_pair(sys8, eq_unit, 3, mpf("0.5"), ctx_for(8))


def test_save_load_round_trip(sys8, tmp_path):
    path = str(tmp_path / "sys8.json")
    save_system(sys8, path)
    back = load_system(path, ctx_for(8))
    assert (back.n, back.m, back.digits) == (sys8.n, sys8.m, sys8.digits)
    assert back.h == sys8.h
    assert back.p_coeffs == sys8.p_coeffs
    assert back.q_coeffs == sys8.q_coeffs
    assert back.V.coeff_strings() == sys8.V.coeff_strings()


def test_load_rejects_corrupted_h(sys8, tmp_path):
    path = str(tmp_path / "sys8.json")
    save_system(sys8, path)
    with open(path) as f:
        doc = json.load(f)
    # the loader samples the top-degree pairings
    doc["h"][9] = str(mpf(doc["h"][9]) * mpf("1.00001"))
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(NonConvergent):
        load_system(path, ctx_for(8))


@pytest.mark.parametrize("m", [0, 1])
def test_save_load_round_trip_small_m(quad, tmp_path, m):
    # at m = 0 there is no sub-diagonal pairing to check
    ctx = PrecisionContext.for_digits(36)
    sys_ = construct(quad, 2, m, ctx)
    path = str(tmp_path / "sys.json")
    save_system(sys_, path)
    back = load_system(path, ctx)
    assert back.h == sys_.h
    assert back.q_coeffs == sys_.q_coeffs


@pytest.mark.parametrize("factor,loads", [(10, False), (mpf(1) / 10, True)],
                         ids=["ten_bounds", "tenth_of_bound"])
def test_load_check_decides_at_its_bound(sys8, tmp_path, factor, loads):
    # the defect bound is 10^-(digits//3) max(h), and the loader's looser
    # quadrature must still tell 10 bounds from a tenth of one
    ctx, m, digits = ctx_for(8), sys8.m, sys8.digits
    path = str(tmp_path / "sys8.json")
    save_system(sys8, path)
    with open(path) as f:
        doc = json.load(f)
    with mp.workdps(digits + 10):
        bound = mpf(10) ** (-(digits // 3)) * max(sys8.h)
        doc["h"][m] = num_to_str(sys8.h[m] + factor * bound, digits)
    with open(path, "w") as f:
        json.dump(doc, f)
    if loads:
        assert load_system(path, ctx).m == m
    else:
        with pytest.raises(NonConvergent):
            load_system(path, ctx)


def test_construct_insufficient_digits_raises(quad):
    # 32 digits cannot resolve the small-time minors at n = 64
    with pytest.raises(NonPositiveMinor):
        construct(quad, 64, 65, PrecisionContext.for_digits(32))


def test_construct_rejects_weight_peak_outside_window_search(ctx64):
    # V = (x - 60)^2 / 2 puts the weight's peak at x = 60, past the [-50, 50]
    # box the support-window search scans
    with pytest.raises(NonConvergent):
        construct(Potential(("1800", "-60", "1/2")), 2, 3, ctx64)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=6),
       st.floats(-3, 3))
def test_horner_matches_naive(coeffs, x):
    with mp.workdps(40):
        row = [mpf(c) for c in coeffs]
        xv = mpf(x)
        want = sum(c * xv ** k for k, c in enumerate(row))
        got = _horner(row, xv)
        assert abs(got - want) <= mpf(10) ** -25 * (1 + abs(want))