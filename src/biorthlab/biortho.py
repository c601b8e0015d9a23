"""Monic biorthogonal polynomial families for the weight e^{-nV(x)} on R.

p_j is a polynomial in x, q_j a polynomial in y = e^x, normalized monic,
with int p_i(x) q_j(e^x) e^{-nV(x)} dx = h_i delta_ij.  There is no short
recurrence for this pairing, so construction goes through the bimoment
matrix M[i][j] = int x^i e^{jx} e^{-nV(x)} dx and its LDU factorization:
the p coefficients invert the unit lower factor, the q coefficients invert
the transposed unit upper factor, and the pivots are the norming constants.
"""

import math
import os
from dataclasses import dataclass, field
from mpmath import mp, mpf, mpc, log, exp, pi, im, re, polyroots

from .mpnum import (RealInterval, NonConvergent, PrecisionContext, _horner,
                    newton, SingularMinor, ldu_bidiagonalize,
                    invert_unit_lower, integrate_trapezoid, num_to_str,
                    str_to_num, json_int, save_json, load_json)

# construct builds degrees up to n + MAX_EXTRA_DEGREES, no further
MAX_EXTRA_DEGREES = 8


class NonPositiveMinor(Exception):
    """A leading principal minor of the bimoment matrix came out <= 0.

    The matrix is totally positive in exact arithmetic, so this means the
    quadrature noise floor has swallowed a pivot; retry with more digits.
    """


class ComplexRootDetected(Exception):
    pass


@dataclass(frozen=True)
class BimomentMatrix:
    entries: tuple
    n: int
    m: int
    support_window: RealInterval
    digits: int


@dataclass(frozen=True)
class BiorthoSystem:
    n: int
    m: int
    p_coeffs: tuple
    q_coeffs: tuple
    h: tuple
    support_window: RealInterval
    digits: int
    V: object = field(repr=False, compare=False)

    def p(self, j, x):
        return _horner(self.p_coeffs[j], x)

    def q(self, j, y):
        return _horner(self.q_coeffs[j], y)


@dataclass(frozen=True)
class ZeroSet:
    degree: int
    zeros_p: tuple
    zeros_qx: tuple


def _window(V, n, m, digits):
    """Integration window wide enough for every x^i e^{jx} e^{-nV} tail.

    The left tail is governed by j = 0 and the right tail by j = m; the
    m*log(1+|x|) term covers the polynomial factor.  Each side brackets the
    target drop and bisects, in floats from V's exact coefficients: the
    ends come out within about 1e-15 of the bisection's limit, and the
    0.25 pad added to each covers that.  Raises NonConvergent when an
    envelope peaks at an end of the search box [-50, 50], so the true peak
    lies outside.
    """
    targ = (digits + 20) * math.log(10)
    cf = [float(c) for c in V.frac]

    def envelope(x, slope):
        return m * math.log1p(abs(x)) + slope * x - n * _horner(cf, x)

    def side(slope, direction):
        # global coarse peak of this side's envelope, then walk outward
        best, x0 = None, None
        for k in range(401):
            x = -50 + k / 4
            v = envelope(x, slope)
            if best is None or v > best:
                best, x0 = v, x
        if abs(x0) == 50:
            raise NonConvergent("weight envelope peaks at x = %s, the end of "
                                "the search box [-50, 50]" % x0)
        lo = x0
        hi = x0 + direction
        while envelope(hi, slope) > best - targ:
            hi += (hi - x0)
        for _ in range(80):
            mid = (lo + hi) / 2
            if envelope(mid, slope) > best - targ:
                lo = mid
            else:
                hi = mid
        return mpf(hi) + direction * mpf('0.25')

    return side(0, -1), side(m, 1)


def _moment_rect(V, n, rows, cols, ctx):
    """Rectangular moment table M[i][j], 0 <= i < rows, 0 <= j < cols.

    Only rows 0 .. d-2 (d = V.degree) and the top row come from
    quadrature: one trapezoidal rule over the common window, where each
    node evaluates e^{-nV(x)}, e^x and x^top once.  The step halves until
    every such entry agrees across two levels to
    10^-(digits-4) * max(|M[i][j]|, M[0][j]), its column's mass, or until
    the digits gained per halving have doubled enough to predict that
    agreement one level ahead: the integrand is entire, so the trapezoid's
    error falls like e^{-2 pi a/h} and each halving doubles its gain.
    The rows from d-1 up follow by integration by parts, since the
    derivative of x^i e^{jx} e^{-nV} integrates to zero over R:
        i M[i-1][j] + j M[i][j] = n sum_k V'_k M[i+k][j].
    A forward recurrence can lose digits as i grows, so the quadrature's
    top row certifies it: the two must agree entry by entry to the same
    tolerance, or NonConvergent is raised.
    """
    digits = ctx.digits
    mtop = max(rows, cols) - 1
    d = V.degree
    top = rows - 1
    # the rows taken by quadrature, in the order f returns them
    qrows = list(range(min(rows, d - 1)))
    if top >= d - 1:
        qrows.append(top)
    # the recurrence amplifies the rounding of its start rows: on the
    # quartic it loses about a third of a digit per row, so the table is
    # built with rows // 2 digits more than its callers' guard of 10
    wctx = PrecisionContext.for_digits(digits + rows // 2)
    with mp.workdps(wctx.digits + 10):
        win = RealInterval(*_window(V, n, mtop, digits))
        rel = mpf(10) ** (-(digits - 4))

        def f(x):
            ex = exp(x)
            col = [exp(-n * V.V(x))]
            for _ in range(cols - 1):
                col.append(col[-1] * ex)
            return [v * p for p in [x ** i for i in qrows] for v in col]

        def tol(vals):
            return [rel * max(abs(v), abs(vals[k % cols]))
                    for k, v in enumerate(vals)]

        flat = integrate_trapezoid(f, win, wctx, tol)
        M = [flat[k * cols:(k + 1) * cols] for k in range(len(qrows))]
        if top < d - 1:
            return M, win
        certificate = M.pop()
        # n V'_k at the working precision, from V's exact rationals
        nvp = [n * mpf(c.numerator) / c.denominator for c in V.dfrac]
        lead = nvp[-1]
        for i in range(d - 1, rows):
            r = i - (d - 1)
            row = []
            for j in range(cols):
                s = j * M[r][j]
                if r:
                    s += r * M[r - 1][j]
                for k in range(d - 1):
                    s -= nvp[k] * M[r + k][j]
                row.append(s / lead)
            M.append(row)
        for j, (got, want) in enumerate(zip(M[top], certificate)):
            if abs(got - want) > rel * max(abs(want), M[0][j]):
                raise NonConvergent(
                    "moment recurrence drifted from quadrature at (%d, %d)"
                    % (top, j))
        return M, win


def _factored_bimoments(V, n, m, ctx):
    """The bimoment matrix, its window and its LDU, every pivot positive."""
    if not 1 <= n:
        raise ValueError("n must be a positive integer")
    if m > n + MAX_EXTRA_DEGREES:
        raise ValueError("m exceeds n + %d" % MAX_EXTRA_DEGREES)
    M, win = _moment_rect(V, n, m + 1, m + 1, ctx)
    with mp.workdps(ctx.digits + 10):
        try:
            L, D, U = ldu_bidiagonalize(M)
        except SingularMinor as exc:
            raise NonPositiveMinor(
                "minor %d underflowed; raise digits" % exc.k) from exc
        for k, d in enumerate(D):
            if not d > 0:
                raise NonPositiveMinor(
                    "leading principal minor %d is not positive; "
                    "raise digits" % k)
    return M, win, (L, D, U)


def bimoments(V, n, m, ctx):
    """Bimoment matrix M[i][j] = int x^i e^{jx} e^{-nV} dx, 0 <= i,j <= m."""
    M, win, _ = _factored_bimoments(V, n, m, ctx)
    return BimomentMatrix(entries=tuple(tuple(r) for r in M), n=n, m=m,
                          support_window=win, digits=ctx.digits)


def construct(V, n, m, ctx):
    """Build the biorthogonal system of degrees 0..m for weight e^{-nV}.

    NonPositiveMinor means the working precision cannot resolve a pivot;
    retry with a larger ctx.digits.
    """
    _, win, (L, D, U) = _factored_bimoments(V, n, m, ctx)
    with mp.workdps(ctx.digits + 10):
        pc = invert_unit_lower(L)
        Ut = [[U[j][i] for j in range(len(U))] for i in range(len(U))]
        qc = invert_unit_lower(Ut)
    return BiorthoSystem(
        n=n, m=m,
        p_coeffs=tuple(tuple(row[:j + 1]) for j, row in enumerate(pc)),
        q_coeffs=tuple(tuple(row[:j + 1]) for j, row in enumerate(qc)),
        h=tuple(D), support_window=win,
        digits=ctx.digits, V=V)


def _polish_roots(row, deg, raw, digits):
    # newton refinement of simple roots at full precision; a vanishing
    # derivative leaves the root where it stands
    drow = [r * row[r] for r in range(1, deg + 1)]
    tol = mpf(10) ** (-digits + 8)

    def step(z):
        fp = _horner(drow, z)
        return _horner(row, z) / fp if fp != 0 else 0

    return [newton(step, mpc(z), tol) for z in raw]


def zeros(sys, j):
    """All j zeros of p_j and of q_j(e^x), companion-stage then polished."""
    if not 1 <= j <= sys.m:
        raise ValueError("degree out of range")
    digits = sys.digits
    with mp.workdps(digits + 10):
        tol = mpf(10) ** (-digits // 4)

        def real_roots(row, label):
            ce = list(row[:j + 1])[::-1]
            with mp.workdps(min(digits, 80)):
                raw = polyroots([mpc(c) for c in ce], maxsteps=200,
                                extraprec=160)
            pol = _polish_roots(row, j, raw, digits)
            vals = []
            for z in pol:
                if abs(im(z)) > tol * (1 + abs(z)):
                    raise ComplexRootDetected(
                        "%s root %s has a residual imaginary part; "
                        "raise digits" % (label, z))
                vals.append(re(z))
            vals.sort()
            for r1, r2 in zip(vals, vals[1:]):
                if r2 - r1 <= tol:
                    raise ComplexRootDetected(
                        "%s roots collide within tolerance" % label)
            return vals

        zp = real_roots(sys.p_coeffs[j], "p_%d" % j)
        zy = real_roots(sys.q_coeffs[j], "q_%d" % j)
        for y in zy:
            if y <= 0:
                raise ComplexRootDetected(
                    "q_%d has a nonpositive root in y = e^x; raise digits"
                    % j)
        zqx = [log(y) for y in zy]
        return ZeroSet(degree=j, zeros_p=tuple(zp), zeros_qx=tuple(zqx))


def cauchy_transform_q(sys, j, z, ctx):
    """Cauchy transform of q_j against the weight, z off the real axis."""
    z = mpc(z)
    if im(z) == 0:
        raise ValueError("z must be off the real axis")
    n, V = sys.n, sys.V
    row = sys.q_coeffs[j]
    win = sys.support_window
    with mp.workdps(ctx.digits + 10):
        def f(s):
            return (_horner(row, exp(s)) / (1 - s / z)
                    * exp(-n * V.V(s)),)
        val, = integrate_trapezoid(f, win, ctx)
        return -val / (2 * pi * mpc(0, 1) * z)


def conjugated_pair(sys, eq_t, j, x, ctx):
    """The exponentially balanced pair at scale t = j/n.

    ptilde_j = e^{-(j/2) ell_t} e^{-nV/2} p_j and
    qtilde_j = (e^{(j/2) ell_t}/h_j) e^{-nV/2} q_j(e^x); the ell factors
    cancel inside any p-q pairing, so biorthonormality is preserved.
    """
    n, V = sys.n, sys.V
    with mp.workdps(ctx.digits + 10):
        if j >= 1 and abs(eq_t.t - mpf(j) / n) > mpf('1e-12'):
            raise ValueError("equilibrium data is for t = %s, expected "
                             "j/n = %s/%s" % (eq_t.t, j, n))
        gauge = exp(mpf(j) / 2 * eq_t.ell)
        damp = exp(-n * V.V(x) / 2)
        pt = damp / gauge * _horner(sys.p_coeffs[j], x)
        qt = damp * gauge * _horner(sys.q_coeffs[j], exp(x)) / sys.h[j]
        return +pt, +qt


# --- serialization ------------------------------------------------------

_SCHEMA_VERSION = 1


def save_system(sys, path):
    """Write sys to path as JSON, in one atomic step (mpnum.save_json)."""
    digits = sys.digits
    doc = {
        "version": _SCHEMA_VERSION, "n": sys.n, "m": sys.m,
        "digits": digits,
        "window": [num_to_str(sys.support_window.lo, digits),
                   num_to_str(sys.support_window.hi, digits)],
        "h": [num_to_str(v, digits) for v in sys.h],
        "p_coeffs": [[num_to_str(c, digits) for c in row]
                     for row in sys.p_coeffs],
        "q_coeffs": [[num_to_str(c, digits) for c in row]
                     for row in sys.q_coeffs],
        "potential": list(sys.V.coeff_strings()),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return save_json(path, doc)


def load_system(path, ctx, V=None):
    """Load a serialized system and spot-validate the defect invariant.

    Full revalidation would redo every pairing integral, so the loader
    samples the diagonal at the top degree and the off-diagonal pairings
    (m, m-1) and (0, m) that exist, all from one trapezoidal pass over the
    support window that evaluates the weight e^{-nV} and e^x once per
    node.  Each must lie within 10^-(digits//3) * max(h) of its exact
    value.  The trapezoid stops once two levels agree to a thousandth of
    that, or once doubling gains predict as much; a tolerance this loose
    is usually met at the first level that converges, before any doubling
    shows, so the early exit seldom saves a level here.  A
    malformed file, or one of the wrong shape (a missing key, a wrong
    type, a non-numeric string, h or a coefficient row of the wrong
    length), raises an OSError naming path (mpnum.load_json); a failed
    defect check raises NonConvergent.
    """
    from .equilibrium import Potential

    def parse(doc):
        digits, n, m = (json_int(doc[k]) for k in ("digits", "n", "m"))
        with mp.workdps(digits + 10):
            p, q = ([[str_to_num(c) for c in row] for row in doc[k]]
                    for k in ("p_coeffs", "q_coeffs"))
            h = [str_to_num(v) for v in doc["h"]]
            if not len(p) == len(q) == len(h) == m + 1 or any(
                    len(row) != j + 1 for rows in (p, q)
                    for j, row in enumerate(rows)):
                raise ValueError("h or a coefficient row disagrees with "
                                 "m = %d" % m)
            lo, hi = (str_to_num(v) for v in doc["window"])
            return BiorthoSystem(
                n=n, m=m, p_coeffs=tuple(tuple(row) for row in p),
                q_coeffs=tuple(tuple(row) for row in q), h=tuple(h),
                support_window=RealInterval(lo, hi), digits=digits,
                V=Potential(doc["potential"]) if V is None else V)

    sys = load_json(path, parse)
    digits, V = sys.digits, sys.V
    with mp.workdps(digits + 10):
        hmax = max(sys.h)
        bound = mpf(10) ** (-digits // 3) * hmax
        n, m = sys.n, sys.m
        # at m = 0 only (0, 0) exists: there is no q_{-1}
        pairs = [(m, m), (m, m - 1), (0, m)] if m else [(0, 0)]

        def f(s):
            w = exp(-n * V.V(s))
            y = exp(s)
            return [_horner(sys.p_coeffs[i], s)
                    * _horner(sys.q_coeffs[j], y) * w for i, j in pairs]

        # the check only decides |defect| > bound, so the rule need not
        # resolve each pairing further than a thousandth of that bound
        vals = integrate_trapezoid(f, sys.support_window, ctx,
                                   lambda vals: [bound / 1000] * len(vals))
        for (i, j), val in zip(pairs, vals):
            if i == j:
                val -= sys.h[i]
            if abs(val) > bound:
                raise NonConvergent(
                    "loaded system fails the defect check at (%d, %d)"
                    % (i, j))
    return sys
