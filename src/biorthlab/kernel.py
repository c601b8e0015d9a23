"""Correlation kernel of the two-interaction ensemble and its scaling limits.

K_n(x, y) = sum_{j<n} p_j(x) q_j(e^y) e^{-n(V(x)+V(y))/2} / h_j, assembled
from the damped pair ptilde_j(x) = e^{-nV(x)/2} p_j(x) and qtilde_j(y) =
e^{-nV(y)/2} q_j(e^y) / h_j so every term stays bounded before any
conjugation enters.  Bulk windows are compared against the sine kernel,
edge windows against the Airy kernel.  A grid of (xi, eta) pairs is served
in two steps: the work that depends on one coordinate (its abscissa, F,
the damped vectors, Ai and Ai') is done once per distinct value, and each
point then costs one O(n) diagonal sum, its conjugation factor and its
reference.  bulk_scaled, edge_scaled and kernel_conjugated are one-point
grids of that same path.  Two diagnostic decompositions watch how the
limits emerge at finite n: a four-block split of the degree range near the
soft edge, and a Christoffel-Darboux style expansion of
(exp_K(u) - e^v) K_n(u, v) whose off-diagonal pieces J1, J2 must fade.
"""

import time
from dataclasses import dataclass
from statistics import median
from mpmath import (mp, mpf, mpc, mpmathify, exp, pi, sinpi, im,
                    factorial, floor, isfinite)

from .mpnum import NonConvergent, airy, _horner
from .biortho import _moment_rect
from .equilibrium import _require_engine


class OutsideBulk(ValueError):
    """Bulk rescaling was requested at a point not inside (a, b)."""


# ---------------------------------------------------------------------------
# pointwise kernel


def _damped_p(sys, x, degrees):
    """ptilde_j(x) for j in degrees, keyed by j; x may be complex.

    Every kernel sum below is assembled from these and _damped_q.
    """
    w = exp(-sys.n * sys.V.V(x) / 2)
    return {j: w * _horner(sys.p_coeffs[j], x) for j in degrees}


def _damped_q(sys, y, degrees):
    """qtilde_j(y) for j in degrees, keyed by j; y may be complex."""
    w = exp(-sys.n * sys.V.V(y) / 2)
    ey = exp(y)
    return {j: w * _horner(sys.q_coeffs[j], ey) / sys.h[j] for j in degrees}


def _diagonal_sum(pt, qt, lo, hi):
    # sum of ptilde_j qtilde_j over lo <= j <= hi; zero when lo > hi
    acc = mpf(0)
    for j in range(lo, hi + 1):
        acc += pt[j] * qt[j]
    return acc


def _conjugation(n, F_u, F_v):
    """e^{n(F(u) - F(v))} from F(u) and F(v); F extends to the strip
    |Im z| < pi."""
    return exp(n * (F_u - F_v))


def kernel_raw(sys, x, y):
    """K_n(x, y); real for real arguments, complex arguments allowed."""
    with mp.workdps(sys.digits + 10):
        x = mpmathify(x)
        y = mpmathify(y)
        degrees = range(sys.n)
        acc = _diagonal_sum(_damped_p(sys, x, degrees),
                            _damped_q(sys, y, degrees), 0, sys.n - 1)
        if isinstance(acc, mpc) and im(x) == 0 and im(y) == 0:
            return +acc.real
        return +acc


def kernel_conjugated(sys, eq, x, y, ctx):
    """e^{nF(x)} K_n(x, y) e^{-nF(y)}, for real x and y.

    On the diagonal this equals kernel_raw, and any 2x2 determinant of
    kernel values is unchanged; off the diagonal the conjugation removes
    the exponential growth that makes the raw kernel unwieldy at large n.
    A one-point raw grid of _grid_values.
    """
    values, _refs, _work = _grid_values(sys, eq, "raw", ((x, y),), ctx)
    return values[0]


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
        ai = {s: airy(s, ctx) for s in {xi, eta}}
        return _airy_from_table(xi, eta, ai)


def _airy_from_table(xi, eta, ai):
    # the Airy kernel from ai[s] = (Ai(s), Ai'(s)) at s = xi and s = eta
    ai_x, aip_x = ai[xi]
    if xi == eta:
        return +(aip_x ** 2 - xi * ai_x ** 2)
    ai_e, aip_e = ai[eta]
    return +((ai_x * aip_e - aip_x * ai_e) / (xi - eta))


def airy_kernel_integral(xi, eta, L, ctx):
    """int_0^L Ai(xi + y) Ai(eta + y) dy, for L > 0, in closed form.

    With f = Ai(xi + y) and g = Ai(eta + y), Ai'' = x Ai makes the
    Wronskian W = f g' - f' g satisfy W' = (eta - xi) f g, so the integral
    is W(0)/(xi - eta) - W(L)/(xi - eta) = K_Ai(xi, eta) - K_Ai(xi + L,
    eta + L); on the diagonal d/dy (f'^2 - (xi + y) f^2) = -f^2 does the
    same.  As L grows the second kernel vanishes and the integral tends to
    airy_kernel(xi, eta), the identity K_Ai(x, y) = int_0^inf Ai(x + z)
    Ai(y + z) dz (Tracy & Widom, Commun. Math. Phys. 159 (1994) 151-174).
    Like airy_kernel, the difference quotient loses about
    log10(1/|xi - eta|) digits when xi is near eta but not equal to it.
    """
    with mp.workdps(ctx.digits + 10):
        xi = mpf(xi)
        eta = mpf(eta)
        L = mpf(L)
        if not L > 0:
            raise ValueError("need L > 0")
        return +(airy_kernel(xi, eta, ctx)
                 - airy_kernel(xi + L, eta + L, ctx))


# ---------------------------------------------------------------------------
# scaled limits


def _f_prime(eq, x, ctx):
    # central difference; F has no closed-form derivative here
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        h = mpf(10) ** (-(ctx.digits // 4))
        return +((eng.F(x + h) - eng.F(x - h)) / (2 * h))


def _grid_values(sys, eq, regime, grid, ctx, x_star=None):
    """Values and references over grid, in grid order, and the work done.

    Step 1 maps every distinct xi and eta to its abscissa by the regime's
    affine map: x_star + xi/(n psi(x_star)) in the bulk, b + xi/c at the
    right edge, a - xi/c at the left, the identity for raw.  Each distinct
    abscissa gets F once (edge and raw), ptilde where it is a u and qtilde
    where it is a v; each distinct xi or eta gets Ai and Ai' once (edge).
    The bulk checks x_star, evaluates psi(x_star) and F'(x_star) and forms
    the scale once.  Step 2 costs a point one diagonal sum, its
    conjugation or linearized factor and its reference.  The kernel sum
    runs at sys.digits + 10 and the rest at ctx.digits + 10, with the same
    operations in the same order as a one-point grid, so a grid's numbers
    equal its points' one-point results.  Nothing is kept past the call.
    """
    eng = _require_engine(eq)
    n = sys.n
    degrees = range(n)
    with mp.workdps(ctx.digits + 10):
        if regime == "bulk":
            x_star = mpf(x_star)
            if not (eq.a < x_star < eq.b):
                raise OutsideBulk("x_star = %s is not inside (%s, %s)"
                                  % (x_star, eq.a, eq.b))
            dens = eng.psi(x_star)
            scale = dens * n
            fp = _f_prime(eq, x_star, ctx)

            def place(s):
                return x_star + s / scale
        elif regime == "edge_right":
            c = (pi * eq.beta * n) ** (mpf(2) / 3)

            def place(s):
                return eq.b + s / c
        elif regime == "edge_left":
            c = (pi * eq.alpha * n) ** (mpf(2) / 3)

            def place(s):
                return eq.a - s / c
        else:
            def place(s):
                return s
        pts = [(mpf(xi), mpf(eta)) for xi, eta in grid]
        u = {xi: place(xi) for xi, _ in pts}
        v = {eta: place(eta) for _, eta in pts}
        abscissae = set(u.values()) | set(v.values())
        with mp.workdps(sys.digits + 10):
            pt = {x: _damped_p(sys, x, degrees) for x in set(u.values())}
            qt = {y: _damped_q(sys, y, degrees) for y in set(v.values())}
        F = {} if regime == "bulk" else {x: eng.F(x) for x in abscissae}
        ai = ({s: airy(s, ctx) for s in set(u) | set(v)}
              if regime in ("edge_right", "edge_left") else {})
        values, refs = [], []
        for xi, eta in pts:
            x, y = u[xi], v[eta]
            with mp.workdps(sys.digits + 10):
                k = _diagonal_sum(pt[x], qt[y], 0, n - 1)
            if regime == "bulk":
                values.append(exp(fp * (xi - eta) / dens) * k / scale)
                refs.append(sine_kernel(xi, eta))
            elif regime == "raw":
                values.append(_conjugation(n, F[x], F[y]) * k)
                refs.append(mpf(0))
            else:
                values.append(_conjugation(n, F[x], F[y]) * k / c)
                refs.append(_airy_from_table(xi, eta, ai))
    # the bulk's F evaluations are _f_prime's two-point stencil
    work = {"abscissae": len(abscissae),
            "F_evals": 2 if regime == "bulk" else len(F),
            "airy_evals": len(ai)}
    return values, refs, work


def bulk_scaled(sys, eq, x_star, xi, eta, ctx):
    """Kernel in a bulk window around x_star against the sine kernel.

    The local mean spacing at x_star is 1/(n psi(x_star)): the trace
    identity int K_n(x, x) dx = n together with int psi = 1 forces the
    diagonal K_n(x, x) ~ n psi(x).  The window and prefactor therefore use
    the scale n psi(x_star), under which the limit is the unit-diagonal
    sine kernel; the scale n pi psi(x_star) would plateau the diagonal at
    1/pi instead.

    Returns (value, reference).  The residual conjugation across the
    window is applied in linearized form e^{F'(x_star)(xi - eta)/psi},
    F' by central difference.  Raises OutsideBulk unless a < x_star < b.
    A one-point bulk grid of _grid_values.
    """
    values, refs, _work = _grid_values(sys, eq, "bulk", ((xi, eta),), ctx,
                                       x_star=x_star)
    return values[0], refs[0]


def edge_scaled(sys, eq, side, xi, eta, ctx):
    """Kernel in an Airy window at the spectrum edge.

    side="right": window b + xi c, c = (pi beta n)^{-2/3}, value
    e^{n(F(u)-F(v))} K_n(u, v) c.  side="left": the mirror window
    a - xi c with c = (pi alpha n)^{-2/3}; reflecting x -> -x maps the
    left edge onto the right edge of the reflected field, and the
    conjugated, rescaled kernel transforms into the reflected one up to
    the factor e^{-(xi-eta)c/2}, so the same Airy limit applies.

    Returns (value, reference) with reference the Airy kernel.  A
    one-point edge grid of _grid_values.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    values, refs, _work = _grid_values(sys, eq, "edge_" + side, ((xi, eta),),
                                       ctx)
    return values[0], refs[0]


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
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        u = mpf(u)
        v = mpf(v)
        j1_end = int(floor(mpf(delta) * n))
        k4_start = int(floor((1 - mpf(M) * mpf(n) ** (mpf(-2) / 3)) * n)) + 1
        k2_end = min(int(floor((1 - mpf(delta_prime)) * n)), k4_start - 1)
        windows = ((0, j1_end), (j1_end + 1, k2_end),
                   (k2_end + 1, k4_start - 1), (k4_start, n - 1))
        pt, qt = _damped_p(sys, u, range(n)), _damped_q(sys, v, range(n))
        # for n < M^(3/2) the top window starts below degree 0; its j < 0
        # terms, the damped p_coeffs[j][j] and q_coeffs[j][j], are not kernel
        # terms and stay until perfbench/refs.json is redone
        for j in range(k4_start, 0):
            pt[j] = exp(-n * sys.V.V(u) / 2) * sys.p_coeffs[j][j]
            qt[j] = exp(-n * sys.V.V(v) / 2) * sys.q_coeffs[j][j] / sys.h[j]
        blocks = [+_diagonal_sum(pt, qt, lo, hi) for lo, hi in windows]
        cfac = _conjugation(n, eng.F(u), eng.F(v))
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


def cd_coefficients(sys, delta, M, ctx, eq):
    """Expansion coefficients of e^x qtilde_j and exp_K(x) ptilde_j.

    a_{j,k} expands e^x qtilde_j over the qtilde basis and vanishes for
    k > j + 1; b_{j,k} expands exp_K(x) ptilde_j, K = floor(delta n), over
    the ptilde basis and vanishes for k > j + K.  Both reduce to bimoment
    sums, so they are computed from one moment rectangle rather than by
    fresh quadrature per pair.  a is tabulated on all available degrees,
    b for j < n (row index) against all k.  M is the half-width of the
    near-diagonal window used later by cd_decomposition; alpha_limits
    tabulates alpha_limit(l, eq) for l = -1 .. M, eq being the t = 1
    equilibrium data.

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
        alphas = {l: alpha_limit(l, eq) for l in range(-1, M + 1)}
        return CDDiagnostics(delta=delta, M=M, a_coeffs=a, b_coeffs=b,
                             alpha_limits=alphas, K=K, n=n)


@dataclass(frozen=True)
class CDDecomposition:
    J1: object
    J2: object
    main_term: object
    identity_residual: object
    conj_J1: object
    conj_J2: object
    conj_main_term: object


def cd_decomposition(sys, diag, u, v, ctx, eq):
    """The pieces of (exp_K(u) - e^v) K_n(u, v) and their identity residual.

    The product expands exactly as J1 + J2 - a_{n-1,n} ptilde_{n-1}(u)
    qtilde_n(v), where J1 collects all degree pairs below n weighted by
    b_{k,j} - a_{j,k} and J2 the rectangle j in [n-K, n-1], k in [n, j+K].
    main_term is the near-diagonal a-window j in [n-M, n-1],
    k in [n, j+M] minus the same correction term; its inner window is
    clipped to the system's top degree when m < n + M - 1.  u, v may be
    complex (F extends to the strip |Im z| < pi, so the conjugation does
    too).  The three values are also returned with the e^{n(F(u)-F(v))}
    conjugation applied, F from eq's engine.  Raises ValueError when
    M > n, where the main-term window would start below degree 0.
    """
    n, m, K, M = diag.n, sys.m, diag.K, diag.M
    if n != sys.n:
        raise ValueError("diagnostics were built for n = %d, system has "
                         "n = %d" % (diag.n, sys.n))
    if M > n:
        raise ValueError("main-term window M = %d exceeds n = %d" % (M, n))
    a, b = diag.a_coeffs, diag.b_coeffs
    with mp.workdps(ctx.digits + 10):
        u = mpmathify(u)
        v = mpmathify(v)
        degrees = range(m + 1)
        pt, qt = _damped_p(sys, u, degrees), _damped_q(sys, v, degrees)
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
        eng = _require_engine(eq)
        cfac = _conjugation(n, eng.F(u), eng.F(v))
        return CDDecomposition(J1=+j1, J2=+j2, main_term=+main,
                               identity_residual=+residual,
                               conj_J1=+(cfac * j1), conj_J2=+(cfac * j2),
                               conj_main_term=+(cfac * main))


# ---------------------------------------------------------------------------
# grid driver and emission

REGIMES = ("bulk", "edge_right", "edge_left", "raw")


@dataclass(frozen=True)
class KernelRequest:
    n: int
    regime: str                 # one of REGIMES
    grid: tuple                 # ((xi, eta), ...)
    x_star: object = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError("unknown regime %r; expected one of %s"
                             % (self.regime, ", ".join(REGIMES)))
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

    The request is served in two steps (see _grid_values): F, the damped
    vectors and the Airy values are evaluated once per distinct abscissa
    or coordinate, and each point then costs one O(n) diagonal sum.
    Bulk requests check x_star, evaluate psi(x_star) and F'(x_star) once
    and raise OutsideBulk unless a < x_star < b.  runtime_meta records
    the work: the distinct abscissae among u and v, the F evaluations and
    the Airy evaluations, with the wall time in seconds.
    """
    t0 = time.perf_counter()
    values, refs, work = _grid_values(sys, eq, req.regime, req.grid, ctx,
                                      x_star=req.x_star)
    for (xi, eta), val, ref in zip(req.grid, values, refs):
        if not isfinite(val) or not isfinite(ref):
            raise NonConvergent("non-finite kernel value at (%s, %s)"
                                % (xi, eta))
    with mp.workdps(ctx.digits + 10):
        if req.regime == "raw":
            abs_err = tuple(mpf(0) for _ in values)
            rel_err = abs_err
        else:
            abs_err = tuple(abs(v - r) for v, r in zip(values, refs))
            rel_err = tuple(ae / abs(r) if r != 0 else ae
                            for ae, r in zip(abs_err, refs))
    meta = {"n": req.n, "regime": req.regime, "digits": ctx.digits,
            "points": len(req.grid), **work,
            "seconds": time.perf_counter() - t0}
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
