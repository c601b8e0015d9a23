"""Equilibrium measure for the two-interaction energy functional.

Solves the coefficient system for the conformal bookkeeping map J, locates
the support [a, b], evaluates the density, the edge constants, the
g-functions, the conjugation function F and the Lagrange constant, for a
strongly convex polynomial field V and any mass parameter t > 0.

The density carries unit mass here (the measure is a probability measure);
the edge constants alpha, beta are kept in the mass-t normalization that
makes the endpoint-derivative and Jacobian-determinant identities hold as
stated, so the square-root edge law reads t * psi(b - eps) ~ beta * sqrt(eps).
"""

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from mpmath import (mp, mpf, mpc, sqrt, log, exp, cos, sin, acos, expm1, pi,
                    conj, im, re)

from .mpnum import (RealInterval, NonConvergent,
                    integrate_circle, integrate_tanh_sinh, complex_newton,
                    num_to_str, cache_key)


class OnBranchCut(Exception):
    pass


class BranchEscape(Exception):
    """Inverse-map iterate left the expected half plane."""


class VariationalViolation(Exception):
    pass


def _to_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c) if "/" in c else Fraction(c)
    if isinstance(c, float):
        # floats go through their shortest decimal repr, so 0.05 means 1/20
        return Fraction(str(c))
    raise TypeError("potential coefficients must be int, Fraction, str or "
                    "float, got %r" % type(c).__name__)


def _real_root_count(c):
    """Distinct real roots of sum c[k] x^k (exact, ascending, c[-1] != 0).

    Sturm's theorem: the sign changes of the Sturm sequence at -inf minus
    those at +inf.
    """
    if len(c) == 1:
        return 0

    def neg_rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, bc in enumerate(b):
                a[len(a) - len(b) + i] -= q * bc
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return [-v for v in a]

    seq = [list(c), [k * c[k] for k in range(1, len(c))]]
    while len(seq[-1]) > 1:
        r = neg_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)

    def changes(signs):
        return sum(1 for u, w in zip(signs, signs[1:]) if (u > 0) != (w > 0))

    at_pos = [p[-1] for p in seq]
    at_neg = [p[-1] * (-1) ** (len(p) - 1) for p in seq]
    return changes(at_neg) - changes(at_pos)


class Potential:
    """Strongly convex polynomial field V.

    Coefficients are stored as exact rationals (ascending degree) and
    materialized as mpf lists per working precision, so V' and V'' are the
    exact derivatives of V at every precision.  Binary rounding of the
    coefficients at import time would make the coefficient solve and the
    density describe two slightly different fields.
    """

    def __init__(self, coeffs):
        self.frac = [_to_fraction(c) for c in coeffs]
        while len(self.frac) > 1 and self.frac[-1] == 0:
            self.frac.pop()
        deg = len(self.frac) - 1
        if deg < 2 or deg % 2 != 0:
            raise ValueError("V must have even degree >= 2")
        if self.frac[-1] <= 0:
            raise ValueError("leading coefficient of V must be positive")
        self.dfrac = [k * self.frac[k] for k in range(1, len(self.frac))]
        self.ddfrac = [k * self.dfrac[k] for k in range(1, len(self.dfrac))]
        self._mpf_cache = {}
        # V'' inherits the positive leading coefficient, so it is positive
        # on all of R exactly when it has no real root
        if _real_root_count(self.ddfrac) > 0:
            raise ValueError("V'' has a real root; only strongly convex "
                             "fields are supported")

    def _lists(self):
        key = mp.prec
        if key not in self._mpf_cache:
            conv = lambda fr: [mpf(f.numerator) / f.denominator for f in fr]
            self._mpf_cache[key] = (conv(self.frac), conv(self.dfrac),
                                    conv(self.ddfrac))
        return self._mpf_cache[key]

    @property
    def degree(self):
        return len(self.frac) - 1

    @staticmethod
    def _horner(c, x):
        s = c[-1]
        for k in range(len(c) - 2, -1, -1):
            s = s * x + c[k]
        return s

    def V(self, x):
        return self._horner(self._lists()[0], x)

    def Vp(self, x):
        return self._horner(self._lists()[1], x)

    def Vpp(self, x):
        return self._horner(self._lists()[2], x)

    def coeff_strings(self):
        return tuple(str(f) for f in self.frac)

    def argmin(self, ctx, slope=0):
        """Argmin of V(x) - slope*x (unique by convexity)."""
        with mp.workdps(ctx.digits + 10):
            x = mpf(0)
            target = mpf(slope)
            for _ in range(200):
                step = (self.Vp(x) - target) / self.Vpp(x)
                x -= step
                if abs(step) < mpf(10) ** (-ctx.digits - 2) * (1 + abs(x)):
                    return +x
        raise NonConvergent("argmin newton stalled")


@dataclass(frozen=True)
class EquilibriumData:
    t: object
    c0: object
    c1: object
    s_b: object
    s_a: object
    a: object
    b: object
    alpha: object
    beta: object
    P: object
    Q: object
    ell: object
    x_min: object
    x_hat_min: object
    digits: int = 0
    _engine: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("endpoint order violated")
        if not (self.x_min < self.b and self.a < self.x_hat_min):
            raise ValueError("argmin of the field fell outside the "
                             "expected endpoint brackets")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("edge constants must be positive")


def map_J(c1, c0, s, ctx=None):
    """The bookkeeping map c1*s + c0 - log((s-1/2)/(s+1/2)), principal log."""
    digits = ctx.digits if ctx is not None else mp.dps
    s = mpc(s)
    tol = mpf(10) ** (-digits + 8)
    if abs(im(s)) < tol and abs(re(s)) <= mpf('0.5') + tol:
        raise OnBranchCut("s = %s is on or next to the cut [-1/2, 1/2]" % s)
    val = c1 * s + c0 - log((s - mpf('0.5')) / (s + mpf('0.5')))
    return val if im(s) != 0 else val.real


def _J_real(c1, c0, s):
    # real axis outside the cut; the log argument is positive there
    return c1 * s + c0 - log((s - mpf('0.5')) / (s + mpf('0.5')))


def _J_prime(c1, s):
    return c1 - 1 / (s * s - mpf('0.25'))


def _s_b(c1):
    return sqrt(mpf('0.25') + 1 / c1)


def _contour_radius(c1):
    return max(mpf(1), mpf('0.75') * _s_b(c1) + mpf('0.5'))


def solve_coefficients(V, t, ctx, _depth=0):
    """Newton solve of the two contour conditions for (c1, c0).

    The Jacobian uses the closed contour-integral form; the initial guess
    (t, t/2) is exact for the pure quadratic.  Falls back to continuation
    from t/2 when the direct solve stalls.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
        if not t > 0:
            raise ValueError("t must be positive")
        guess = (t, t / 2)
        try:
            return _newton_coefficients(V, t, guess, ctx)
        except NonConvergent:
            if _depth >= 3:
                raise
            half = solve_coefficients(V, t / 2, ctx, _depth + 1)
            return _newton_coefficients(V, t, half, ctx)


def _newton_coefficients(V, t, guess, ctx):
    c1, c0 = mpf(guess[0]), mpf(guess[1])
    tol = mpf(ctx.newton_tol)
    for _ in range(ctx.newton_max_iter):
        r = _contour_radius(c1)
        cc1, cc0 = c1, c0
        U = cc1 * re(integrate_circle(
            lambda s: V.Vp(map_J(cc1, cc0, s)), r, ctx)) - t
        W = re(integrate_circle(
            lambda s: V.Vp(map_J(cc1, cc0, s)) / (s - mpf('0.5')), r,
            ctx)) - t
        if abs(U) <= tol and abs(W) <= tol:
            return +c1, +c0
        P = re(integrate_circle(
            lambda s: V.Vpp(map_J(cc1, cc0, s)) / (s - mpf('0.5')), r, ctx))
        Q = re(integrate_circle(
            lambda s: V.Vpp(map_J(cc1, cc0, s)) / (s + mpf('0.5')), r, ctx))
        j11 = (P + Q) / 2
        j12 = P - Q
        j21 = (P - Q) / c1 + P / 2
        j22 = P
        det = j11 * j22 - j12 * j21
        if det == 0:
            raise NonConvergent("degenerate jacobian in coefficient solve")
        c1 -= (U * j22 - j12 * W) / det
        c0 -= (j11 * W - j21 * U) / det
        if not c1 > 0:
            raise NonConvergent("c1 iterate left the positive axis")
    raise NonConvergent("coefficient newton exhausted its iterations")


def endpoints(eq):
    """Support endpoints from the critical values of J."""
    a = _J_real(eq.c1, eq.c0, -eq.s_b)
    b = _J_real(eq.c1, eq.c0, eq.s_b)
    return a, b


def _clenshaw(coeffs, c2):
    """b_1, b_2 of the recurrence b_k = coeffs[k] + c2 b_(k+1) - b_(k+2).

    With c2 = 2 cos(th), sum_k coeffs[k] cos(k th) is
    coeffs[0] + cos(th) b_1 - b_2 and sum_(k>=1) coeffs[k] sin(k th) is
    sin(th) b_1.
    """
    b1 = b2 = mpf(0)
    for k in range(len(coeffs) - 1, 0, -1):
        b1, b2 = coeffs[k] + c2 * b1 - b2, b1
    return b1, b2


class _SigmaSeries:
    """Fourier representation of the upper inverse branch on the support.

    sigma(theta) = I_+(mid + rad*cos(theta)) is analytic and periodic on the
    torus, so everything downstream (density, moments, log-potentials, the
    Lagrange constant) becomes a rapidly convergent trigonometric series.
    All heavy sums run once at construction.
    """

    def __init__(self, V, t, c1, c0, P, Q, nodes, digits):
        self.V = V
        self.t = t
        self.c1, self.c0 = c1, c0
        self.P, self.Q = P, Q
        self.digits = digits
        s_b = _s_b(c1)
        self.s_b = s_b
        self.a = _J_real(c1, c0, -s_b)
        self.b = _J_real(c1, c0, s_b)
        self.mid = (self.a + self.b) / 2
        self.rad = (self.b - self.a) / 2
        A_ = mpf('0.5') - s_b
        B_ = mpf('0.5') + s_b
        self.alpha = (A_ * P + B_ * Q) / (pi * sqrt(s_b))
        self.beta = (B_ * P + A_ * Q) / (pi * sqrt(s_b))
        N = nodes
        self.N = N
        # the nodes are th[i] = (2i+1) pi/(2N) and phi[j] = (2(j-N)+1) pi/(2N),
        # so every angle in the sums below is a multiple of pi/(2N): k*th[i]
        # is (2i+1)k of them, (phi[j] - th[i])/2 is j-N-i, and one table of
        # cos and sin on that lattice replaces the trigonometric calls
        M4 = 4 * N
        ct = [cos(j * pi / (2 * N)) for j in range(M4)]
        st = [sin(j * pi / (2 * N)) for j in range(M4)]
        sig = []
        s = None
        for i in range(N):
            x = self.mid + self.rad * ct[2 * i + 1]
            if s is None:
                # seed from the square-root edge expansion near b
                s = s_b + mpc(0, 1) * sqrt((self.b - x) / (s_b * c1 * c1))
            s = self._newton(x, s)
            if im(s) < 0:
                s = conj(s)
            sig.append(s)
        self.sig = sig
        sig_re = [re(v) for v in sig]
        sig_im = [im(v) for v in sig]
        self.Ak = []
        self.Bk = [mpf(0)]
        for k in range(N):
            sa = mp.fdot(sig_re, [ct[(2 * i + 1) * k % M4] for i in range(N)])
            self.Ak.append(sa * (1 if k == 0 else 2) / N)
        for k in range(1, N):
            sb_ = mp.fdot(sig_im, [st[(2 * i + 1) * k % M4] for i in range(N)])
            self.Bk.append(sb_ * 2 / N)
        self.sigf = [conj(sig[N - 1 - j]) if j < N else sig[j - N]
                     for j in range(2 * N)]
        # V'' as a cosine polynomial on the support: exact sine-series
        # pairing with the circular log kernel handles the smooth part
        D = max(1, len(V.ddfrac))
        NP = 4 * D + 8
        vph = [(i + mpf('0.5')) * pi / NP for i in range(NP)]
        vs = [V.Vpp(self.mid + self.rad * cos(p)) for p in vph]
        vm = []
        for k2 in range(D):
            sa = mpf(0)
            for i in range(NP):
                sa += vs[i] * cos(k2 * vph[i])
            vm.append(sa * (1 if k2 == 0 else 2) / NP)
        bw = [mpf(0)] * (D + 2)
        bw[1] += self.rad * vm[0]
        for m2 in range(1, D):
            bw[m2 + 1] += self.rad * vm[m2] / 2
            if m2 - 1 >= 1:
                bw[m2 - 1] -= self.rad * vm[m2] / 2
        phi_idx = [(2 * (j - N) + 1) % M4 for j in range(2 * N)]
        wf = [V.Vpp(self.mid + self.rad * ct[q]) * self.rad * st[q]
              for q in phi_idx]
        # log|sigf[j] - sig[i]| is symmetric in i and the node of sig that
        # sigf[j] carries, so each pair's logarithm is taken once and added
        # to both rows; log|2 sin((phi[j] - th[i])/2)| is split off by table
        lsin = {m: log(abs(2 * st[m % M4])) for m in range(-2 * N + 1, N)
                if m != 0}
        T = [mpf(0)] * N
        for i in range(N):
            sgi = sig[i]
            for l in range(i, N):
                dl = log(abs(self.sigf[N - 1 - l] - sgi))
                T[i] += wf[N - 1 - l] * dl
                if l != i:
                    T[l] += wf[N - 1 - i] * dl
                    du = log(abs(sig[l] - sgi))
                    T[i] += wf[N + l] * du
                    T[l] += wf[N + i] * du
        kA = [k * self.Ak[k] for k in range(1, N)]
        kB = [k * self.Bk[k] for k in range(1, N)]
        self.psi_v = []
        for i in range(N):
            q = 2 * i + 1
            L = mpf(0)
            for k in range(1, len(bw)):
                if bw[k] != 0:
                    L += bw[k] * (-pi / k) * st[q * k % M4]
            # sigma'(th[i]) for the diagonal term
            sp_re = -mp.fdot(kA, [st[q * k % M4] for k in range(1, N)])
            sp_im = mp.fdot(kB, [ct[q * k % M4] for k in range(1, N)])
            Ti = T[i] + wf[N + i] * log(abs(mpc(sp_re, sp_im)))
            Ti -= mp.fdot((wf[j], lsin[j - N - i])
                          for j in range(2 * N) if j - N != i)
            Ti *= pi / N
            self.psi_v.append(-(L + Ti) / (2 * pi * pi * t))
        # Chebyshev coefficients of psi/(rad sin) and of the measure itself
        self.hval = [self.psi_v[i] / (self.rad * st[2 * i + 1])
                     for i in range(N)]
        self.hc = []
        for k in range(N):
            sa = mp.fdot(self.hval,
                         [ct[(2 * i + 1) * k % M4] for i in range(N)])
            self.hc.append(sa * (1 if k == 0 else 2) / N)
        r2 = self.rad * self.rad
        g = [mpf(0)] * (N + 2)
        for k in range(N):
            g[k] += self.hc[k] / 2
            g[k + 2] -= self.hc[k] / 4
            g[abs(k - 2)] -= self.hc[k] / 4
        self.gam = [r2 * v for v in g]
        self.mass = self.gam[0] * pi
        self.Gw = [self.psi_v[i] * self.rad * st[2 * i + 1]
                   for i in range(N)]
        self.gx = [self.mid + self.rad * ct[2 * i + 1] for i in range(N)]
        self.ell = self.ell_at(self.mid)

    def _newton(self, x, s0):
        s = s0
        for _ in range(300):
            step = (map_J(self.c1, self.c0, s) - x) / _J_prime(self.c1, s)
            s = s - step
            if abs(step) < mpf(10) ** (-mp.dps + 6) * (1 + abs(s)):
                break
        return s

    def sigma(self, th):
        # the cosine and the sine series by Clenshaw: two trigonometric
        # calls in all instead of one per coefficient
        c = cos(th)
        a1, a2 = _clenshaw(self.Ak, 2 * c)
        b1, _ = _clenshaw(self.Bk, 2 * c)
        return mpc(self.Ak[0] + c * a1 - a2, b1 * sin(th))

    def theta_of(self, x):
        c = (x - self.mid) / self.rad
        c = max(mpf(-1), min(mpf(1), c))
        return acos(c)

    def iplus(self, x):
        s = self._newton(x, self.sigma(self.theta_of(x)))
        if im(s) < 0:
            s = conj(s)
        return s

    def _clenshaw_h(self, th):
        c = cos(th)
        b1, b2 = _clenshaw(self.hc, 2 * c)
        return self.hc[0] + c * b1 - b2

    def psi(self, x):
        th = self.theta_of(x)
        return self._clenshaw_h(th) * self.rad * sin(th)

    def log_abs_moment(self, y):
        # int log|y - x| dmu for y inside the support, by the series
        phv = self.theta_of(y)
        s = log(self.rad / 2) * self.gam[0] * pi
        for k in range(1, len(self.gam)):
            s -= (self.gam[k] / k) * cos(k * phv) * pi
        return s

    def mu_int(self, f):
        tot = mpf(0)
        for i in range(self.N):
            tot += f(self.gx[i]) * self.Gw[i]
        return tot * pi / self.N

    def ell_at(self, y):
        f1 = self.log_abs_moment(y)
        f2 = self.mu_int(lambda x: x + log(_phi_ratio(y - x)))
        return 2 * f1 + f2 - self.V.V(y) / self.t

    def variational_slack(self, y):
        f1 = self.mu_int(lambda x: log(abs(y - x)))
        f2 = self.mu_int(lambda x: x + log(_phi_ratio(y - x)))
        return 2 * f1 + f2 - self.V.V(y) / self.t - self.ell

    def F(self, z):
        return self.t / 2 * self.mu_int(lambda s: s + log(_phi_ratio(z - s)))


def _phi_ratio(w):
    # (e^w - 1)/w, stable through w = 0; works for real and complex w
    if abs(w) < mpf('1e-8'):
        return 1 + w / 2 + w * w / 6 + w ** 3 / 24
    if isinstance(w, mpc):
        return (exp(w) - 1) / w
    return expm1(w) / w


def build_equilibrium(V, t, ctx, cache_dir=None):
    """Solve the full equilibrium problem, returning EquilibriumData.

    The attached series engine, on max(96, 4*digits) Fourier nodes, powers
    the density table, g-functions, F and the Lagrange constant.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    cached = None
    if cache_dir is not None:
        cached = load_equilibrium(V, t, ctx, cache_dir)
    if cached is not None:
        c1, c0, P, Q = cached.c1, cached.c0, cached.P, cached.Q
    else:
        c1, c0 = solve_coefficients(V, t, ctx)
    with mp.workdps(ctx.digits + 10):
        if cached is None:
            r = _contour_radius(c1)
            P = re(integrate_circle(
                lambda s: V.Vpp(map_J(c1, c0, s)) / (s - mpf('0.5')), r,
                ctx))
            Q = re(integrate_circle(
                lambda s: V.Vpp(map_J(c1, c0, s)) / (s + mpf('0.5')), r,
                ctx))
        nodes = max(96, 4 * ctx.digits)
        eng = _SigmaSeries(V, t, c1, c0, P, Q, nodes, ctx.digits)
        eq = EquilibriumData(
            t=t, c0=c0, c1=c1, s_b=eng.s_b, s_a=-eng.s_b,
            a=eng.a, b=eng.b, alpha=eng.alpha, beta=eng.beta,
            P=P, Q=Q, ell=eng.ell,
            x_min=V.argmin(ctx),
            x_hat_min=V.argmin(ctx, slope=t),
            digits=ctx.digits, _engine=eng)
    if cache_dir is not None and cached is None:
        save_equilibrium(eq, V, cache_dir)
    return eq


def _require_engine(eq):
    if eq._engine is None:
        raise ValueError("this EquilibriumData has no attached series "
                         "engine (loaded from cache?); rebuild with "
                         "build_equilibrium")
    return eq._engine


@dataclass(frozen=True)
class DensityTable:
    nodes: tuple
    values: tuple
    mass_check: object


def build_density_table(eq, ctx, n_nodes=512):
    """Density on a Chebyshev grid of the support, plus its own mass check."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        N = n_nodes
        th = [(i + mpf('0.5')) * pi / N for i in range(N)]
        nodes = [eng.mid + eng.rad * cos(t_) for t_ in th]
        values = [eng.psi(x) for x in nodes]
        mass = sum(v * eng.rad * sin(t_)
                   for v, t_ in zip(values, th)) * pi / N
        floor = -10 * mpf(ctx.quad_rel_tol)
        if any(v < floor for v in values):
            raise VariationalViolation("density negative beyond tolerance")
        if abs(mass - 1) > mpf(10) ** (-ctx.digits // 2):
            raise NonConvergent("density mass check failed: %s" % mass)
        return DensityTable(nodes=tuple(nodes), values=tuple(values),
                            mass_check=mass)


def inverse_map(eq, x, branch, ctx):
    """Inverse of J on the support; branch 'upper' lands on gamma_1."""
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    if not (eq.a < x < eq.b):
        raise ValueError("x outside the open support interval")
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        seed = eng.sigma(eng.theta_of(x))
        c1, c0 = eq.c1, eq.c0
        s = complex_newton(lambda w: map_J(c1, c0, w) - x, seed, ctx,
                           dF=lambda w: _J_prime(c1, w))
        edge_gap = min(abs(x - eq.a), abs(x - eq.b))
        if im(s) <= 0 and edge_gap > mpf(10) ** (-ctx.digits // 2):
            raise BranchEscape("inverse-map iterate crossed the real axis "
                               "at x = %s" % x)
        if im(s) < 0:
            s = conj(s)
        return +s if branch == "upper" else conj(+s)


def density(eq, x, ctx):
    """Density at one interior point by the defining double-log integral.

    This is the direct quadrature route (split at u = x, tanh-sinh on each
    half against the log singularity); the series engine behind
    build_density_table is the fast path, and the two are cross-checked in
    the test suite.
    """
    if not (eq.a < x < eq.b):
        raise ValueError("x outside the open support interval")
    eng = _require_engine(eq)
    V = eng.V
    with mp.workdps(ctx.digits + 10):
        ix_u = eng.iplus(x)
        ix_l = conj(ix_u)
        cache = {}

        def integrand(u):
            s = cache.get(u)
            if s is None:
                s = eng.iplus(u)
                cache[u] = s
            return V.Vpp(u) * log(abs((s - ix_l) / (s - ix_u)))

        left = integrate_tanh_sinh(integrand, RealInterval(eq.a, x), ctx)
        right = integrate_tanh_sinh(integrand, RealInterval(x, eq.b), ctx)
        # the defining formula carries mass t; the probability density
        # divides it out
        return +((left + right) / (2 * pi * pi * eq.t))


def edge_constants(eq, ctx):
    """Edge coefficients alpha, beta from the contour integrals P, Q.

    Cross-checked against a square-root fit of the density near b; the
    mass-t convention means the fit target is t * psi.
    """
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        s_b = eq.s_b
        A_ = mpf('0.5') - s_b
        B_ = mpf('0.5') + s_b
        alpha = (A_ * eq.P + B_ * eq.Q) / (pi * sqrt(s_b))
        beta = (B_ * eq.P + A_ * eq.Q) / (pi * sqrt(s_b))
        eps = mpf(10) ** -4
        fit = eq.t * eng.psi(eq.b - eps) / sqrt(eps)
        if abs(fit / beta - 1) > mpf('0.01'):
            raise NonConvergent("square-root edge fit disagrees with the "
                                "contour formula for beta")
        return +alpha, +beta


def determinant_identity_residual(eq):
    """P*Q - (P-Q)^2/c1 - pi^2 * s_b * alpha * beta; zero in exact arithmetic.

    The pi-squared factor is the one consistent with the contour formulas
    for alpha and beta; see the cross-check in the test suite.
    """
    return eq.P * eq.Q - (eq.P - eq.Q) ** 2 / eq.c1 \
        - pi ** 2 * eq.s_b * eq.alpha * eq.beta


def endpoint_derivatives(eq, ctx):
    """d a/dt and d b/dt at the solved t, from the edge constants."""
    with mp.workdps(ctx.digits + 10):
        a_prime = (mpf('0.5') - eq.s_b) / (pi * eq.alpha * sqrt(eq.s_b))
        b_prime = (mpf('0.5') + eq.s_b) / (pi * eq.beta * sqrt(eq.s_b))
        return +a_prime, +b_prime


def g_functions(eq, z, ctx):
    """The two log-transforms of the measure at z off (-inf, b]."""
    eng = _require_engine(eq)
    z = mpc(z)
    if im(z) == 0 and re(z) <= eq.b:
        raise ValueError("g functions need z off the half line up to b")
    with mp.workdps(ctx.digits + 10):
        g = eng.mu_int(lambda s: log(z - s))
        g_tilde = eng.mu_int(lambda s: log(exp(z) - exp(s)))
        if im(z) == 0:
            g, g_tilde = g.real, g_tilde.real
        return +g, +g_tilde


def F_function(eq, z, ctx):
    """Conjugation function F_t, analytic on the strip |Im z| < pi."""
    eng = _require_engine(eq)
    z = mpc(z)
    if not abs(im(z)) < pi:
        raise ValueError("F is only defined on the strip |Im z| < pi")
    with mp.workdps(ctx.digits + 10):
        val = eq.t / 2 * eng.mu_int(lambda s: s + log(_phi_ratio(z - s)))
        if im(z) == 0:
            return +val.real
        return +val


def lagrange_constant(eq, ctx):
    """The variational constant, evaluated at the midpoint and verified
    to be flat across the support."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        y0 = (eq.a + eq.b) / 2
        probes = [y0, y0 - mpf('0.37') * eng.rad, y0 + mpf('0.41') * eng.rad]
        vals = [eng.ell_at(y) for y in probes]
        spread = max(vals) - min(vals)
        if spread > mpf(10) ** (-ctx.digits // 4):
            raise VariationalViolation(
                "Lagrange constant spread %s across the support" % spread)
        return +vals[0]


def effective_potential(eq, x, ctx):
    """Variational slack at a point outside the support (negative there)."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        return +eng.variational_slack(mpf(x))


def reflect_potential(V, n):
    """The reflected field V(-x) + ((n-1)/n) x; exact on coefficients."""
    kappa = Fraction(n - 1, n)
    ref = [f if k % 2 == 0 else -f for k, f in enumerate(V.frac)]
    while len(ref) < 2:
        ref.append(Fraction(0))
    ref[1] += kappa
    return Potential(ref)


# --- JSON cache ---------------------------------------------------------

_CACHE_VERSION = 1


def _cache_path(cache_dir, V, t, digits):
    with mp.workdps(digits + 15):
        tstr = mp.nstr(mpf(t), digits + 12, strip_zeros=True)
    key = cache_key({"coeffs": V.coeff_strings(), "t": tstr,
                     "digits": digits, "version": _CACHE_VERSION})
    return os.path.join(cache_dir, "eq_%s.json" % key)


def save_equilibrium(eq, V, cache_dir):
    os.makedirs(cache_dir, exist_ok=True)
    digits = eq.digits
    doc = {"version": _CACHE_VERSION, "digits": digits,
           "t": num_to_str(eq.t, digits)}
    for name in ("c0", "c1", "a", "b", "alpha", "beta", "ell",
                 "s_b", "P", "Q", "x_min", "x_hat_min"):
        doc[name] = num_to_str(getattr(eq, name), digits)
    path = _cache_path(cache_dir, V, eq.t, digits)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path


def load_equilibrium(V, t, ctx, cache_dir):
    """Cached solve, or None.  Loaded data carries no series engine."""
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    path = _cache_path(cache_dir, V, t, ctx.digits)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        doc = json.load(f)
    with mp.workdps(ctx.digits + 10):
        num = {k: mpf(doc[k]) for k in
               ("c0", "c1", "a", "b", "alpha", "beta", "ell",
                "s_b", "P", "Q", "x_min", "x_hat_min", "t")}
    return EquilibriumData(
        t=num["t"], c0=num["c0"], c1=num["c1"], s_b=num["s_b"],
        s_a=-num["s_b"], a=num["a"], b=num["b"], alpha=num["alpha"],
        beta=num["beta"], P=num["P"], Q=num["Q"], ell=num["ell"],
        x_min=num["x_min"], x_hat_min=num["x_hat_min"],
        digits=doc["digits"])
