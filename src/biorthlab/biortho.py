"""Monic biorthogonal polynomial families for the weight e^{-nV(x)} on R.

p_j is a polynomial in x, q_j a polynomial in y = e^x, normalized monic,
with int p_i(x) q_j(e^x) e^{-nV(x)} dx = h_i delta_ij.  There is no short
recurrence for this pairing, so construction goes through the bimoment
matrix M[i][j] = int x^i e^{jx} e^{-nV(x)} dx and its LDU factorization:
the p coefficients invert the unit lower factor, the q coefficients invert
the transposed unit upper factor, and the pivots are the norming constants.
"""

import json
import os
from dataclasses import dataclass, field
from mpmath import mp, mpf, mpc, log, exp, ln, pi, im, re, polyroots

from .mpnum import (RealInterval, NonConvergent,
                    SingularMinor, ldu_bidiagonalize, invert_unit_lower,
                    integrate_gauss_legendre, gauss_legendre_nodes,
                    num_to_str)


class NonPositiveMinor(Exception):
    """A leading principal minor of the bimoment matrix came out <= 0.

    The matrix is totally positive in exact arithmetic, so this means the
    quadrature noise floor has swallowed a pivot; retry with more digits.
    """


class ComplexRootDetected(Exception):
    pass


def _horner(row, deg, x):
    s = row[deg]
    for r in range(deg - 1, -1, -1):
        s = s * x + row[r]
    return s


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
        return _horner(self.p_coeffs[j], j, x)

    def q(self, j, y):
        return _horner(self.q_coeffs[j], j, y)


@dataclass(frozen=True)
class ZeroSet:
    degree: int
    zeros_p: tuple
    zeros_qx: tuple


def _window(V, n, m, digits):
    """Integration window wide enough for every x^i e^{jx} e^{-nV} tail.

    The left tail is governed by j = 0 and the right tail by j = m; the
    m*log(1+|x|) term covers the polynomial factor.  Each side brackets the
    target drop and bisects.  Raises NonConvergent when an envelope peaks
    at an end of the search box [-50, 50], so the true peak lies outside.
    """
    targ = (digits + 20) * ln(mpf(10))

    def envelope(x, slope):
        return m * ln(1 + abs(x)) + slope * x - n * V.V(x)

    def side(slope, direction):
        # global coarse peak of this side's envelope, then walk outward
        best, x0 = None, None
        for k in range(401):
            x = mpf(-50) + mpf(k) / 4
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
        return hi + direction * mpf('0.25')

    return side(0, mpf(-1)), side(m, mpf(1))


def _moment_rect(V, n, rows, cols, ctx):
    """Rectangular moment table M[i][j], 0 <= i < rows, 0 <= j < cols.

    Fixed-order Gauss-Legendre panels over the common window; a sentinel
    pass on the two extreme integrands picks the panel count so that the
    whole family is converged at once.
    """
    digits = ctx.digits
    mtop = max(rows, cols) - 1
    with mp.workdps(digits + 10):
        xlo, xhi = _window(V, n, mtop, digits)
        W = xhi - xlo
        korder = int(mpf('1.2') * digits) + 40
        S = n * max(abs(V.Vp(xlo)), abs(V.Vp(xhi))) + mtop
        P = max(6, int(W * S / (mpf('2.4') * korder)) + 2)
        xs, ws = gauss_legendre_nodes(korder)

        def sentinel(PP):
            s00 = mpf(0)
            smm = mpf(0)
            for p in range(PP):
                lo = xlo + W * p / PP
                hi = xlo + W * (p + 1) / PP
                c = (hi + lo) / 2
                rr = (hi - lo) / 2
                for qq in range(korder):
                    x = c + rr * xs[qq]
                    base = ws[qq] * rr * exp(-n * V.V(x))
                    s00 += base
                    smm += base * x ** mtop * exp(mtop * x)
            return s00, smm

        for _ in range(ctx.max_panel_doublings):
            a1 = sentinel(P)
            a2 = sentinel(P + 3)
            rel = max(abs(a1[0] - a2[0]) / abs(a2[0]),
                      abs(a1[1] - a2[1]) / abs(a2[1]))
            if rel < mpf(10) ** (-(digits - 4)):
                break
            P = int(P * 3 / 2) + 1
        else:
            raise NonConvergent("bimoment sentinel did not settle")

        M = [[mpf(0)] * cols for _ in range(rows)]
        for p in range(P):
            lo = xlo + W * p / P
            hi = xlo + W * (p + 1) / P
            c = (hi + lo) / 2
            rr = (hi - lo) / 2
            for qq in range(korder):
                x = c + rr * xs[qq]
                base = ws[qq] * rr * exp(-n * V.V(x))
                ex = exp(x)
                xp = [mpf(1)]
                for i in range(rows - 1):
                    xp.append(xp[-1] * x)
                ej = base
                for j in range(cols):
                    for i in range(rows):
                        M[i][j] += xp[i] * ej
                    ej *= ex
        return M, RealInterval(xlo, xhi)


def _factored_bimoments(V, n, m, ctx):
    """The bimoment matrix, its window and its LDU, every pivot positive."""
    if not 1 <= n:
        raise ValueError("n must be a positive integer")
    if m > n + 8:
        raise ValueError("m > n + 8 is outside the supported window")
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
    # newton refinement of simple roots at full precision
    drow = [r * row[r] for r in range(1, deg + 1)]
    out = []
    for z in raw:
        z = mpc(z)
        for _ in range(60):
            f = _horner(row, deg, z)
            fp = _horner(drow, deg - 1, z)
            if fp == 0:
                break
            step = f / fp
            z -= step
            if abs(step) < mpf(10) ** (-digits + 8) * (1 + abs(z)):
                break
        out.append(z)
    return out


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
            return _horner(row, j, exp(s)) / (1 - s / z) * exp(-n * V.V(s))
        val = integrate_gauss_legendre(f, win, ctx)
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
        pt = damp / gauge * _horner(sys.p_coeffs[j], j, x)
        qt = damp * gauge * _horner(sys.q_coeffs[j], j, exp(x)) / sys.h[j]
        return +pt, +qt


# --- serialization ------------------------------------------------------

_SCHEMA_VERSION = 1


def save_system(sys, path):
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
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path


def load_system(path, ctx, V=None):
    """Load a serialized system and spot-validate the defect invariant.

    Full revalidation would redo every pairing integral, so the loader
    samples the diagonal at the top degree and two off-diagonal pairings.
    """
    from .equilibrium import Potential
    with open(path) as f:
        doc = json.load(f)
    digits = doc["digits"]
    if V is None:
        V = Potential(doc["potential"])
    with mp.workdps(digits + 10):
        sys = BiorthoSystem(
            n=doc["n"], m=doc["m"],
            p_coeffs=tuple(tuple(mpf(c) for c in row)
                           for row in doc["p_coeffs"]),
            q_coeffs=tuple(tuple(mpf(c) for c in row)
                           for row in doc["q_coeffs"]),
            h=tuple(mpf(v) for v in doc["h"]),
            support_window=RealInterval(mpf(doc["window"][0]),
                                        mpf(doc["window"][1])),
            digits=digits, V=V)
        hmax = max(sys.h)
        bound = mpf(10) ** (-digits // 3) * hmax
        n = sys.n
        for (i, j) in [(sys.m, sys.m), (sys.m, sys.m - 1), (0, sys.m)]:
            def f(s):
                return (_horner(sys.p_coeffs[i], i, s)
                        * _horner(sys.q_coeffs[j], j, exp(s))
                        * exp(-n * V.V(s)))
            val = integrate_gauss_legendre(f, sys.support_window, ctx)
            if i == j:
                val -= sys.h[i]
            if abs(val) > bound:
                raise NonConvergent(
                    "loaded system fails the defect check at (%d, %d)"
                    % (i, j))
    return sys
