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

import os
from math import gcd
from dataclasses import dataclass, field
from fractions import Fraction
from mpmath import (mp, mpf, mpc, sqrt, log, exp, cos, sin, acos, expm1, pi,
                    conj, im, re)

from .mpnum import (RealInterval, NonConvergent, _horner, newton,
                    integrate_tanh_sinh, num_to_str, str_to_num, json_int,
                    cache_key, save_json, load_json)


class OnBranchCut(Exception):
    pass


class BranchEscape(Exception):
    """Inverse-map iterate left the expected half plane."""


class VariationalViolation(Exception):
    pass


def _to_fraction(c):
    if isinstance(c, (Fraction, int, str)):
        return Fraction(c)
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

    def V(self, x):
        return _horner(self._lists()[0], x)

    def Vp(self, x):
        return _horner(self._lists()[1], x)

    def Vpp(self, x):
        return _horner(self._lists()[2], x)

    def coeff_strings(self):
        return tuple(str(f) for f in self.frac)

    def argmin(self, ctx, slope=0):
        """Argmin of V(x) - slope*x (unique by convexity)."""
        with mp.workdps(ctx.digits + 10):
            target = mpf(slope)
            return +newton(lambda x: (self.Vp(x) - target) / self.Vpp(x),
                           mpf(0), mpf(10) ** (-ctx.digits - 2))


@dataclass(frozen=True)
class EquilibriumData:
    t: object
    c0: object
    c1: object
    s_b: object
    a: object
    b: object
    alpha: object
    beta: object
    P: object
    Q: object
    ell: object
    x_min: object
    x_hat_min: object
    digits: int
    _engine: object = field(repr=False, compare=False)
    # how build_equilibrium met its cache: "hit", "miss" or "off"
    cache: str = field(default="off", compare=False)

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


def _V_of_J(V, c1, c0, order):
    """The Laurent series at infinity of V'(J(s)) (order 1) or V''(J(s))
    (order 2), as {e: [s^e]}, exact for every e >= -1.

    Off the cut J = c1 s + c0 + sum_(k odd) 2^(1-k) s^-k / k.  Horner's
    products drop exponents below -(deg V + 1), which keeps the
    coefficients from s^-1 up exact: in a product of p <= deg V - 1
    factors J a term s^e meets at most s^(p-1), so only e >= -p reaches
    s^-1, and a dropped term rises by at most deg V - 1, to below s^-2.
    """
    low = -(V.degree + 1)
    J = {1: c1, 0: c0}
    J.update((-k, mpf(2) ** (1 - k) / k) for k in range(1, 1 - low, 2))
    coeffs = V._lists()[order]
    h = {0: coeffs[-1]}
    for c in reversed(coeffs[:-1]):
        prod = {0: c}
        for e, a in h.items():
            for f, b in J.items():
                if e + f >= low:
                    prod[e + f] = prod.get(e + f, 0) + a * b
        h = prod
    return h


def _pol_at(h, s):
    """The part of the Laurent series h with nonnegative powers, at s."""
    return sum(a * s ** e for e, a in h.items() if e >= 0)


def _contour_integrals(V, c1, c0):
    """(U, W, P, Q): (1/2 pi i) times the integrals of V'(J),
    V'(J)/(s - 1/2), V''(J)/(s - 1/2) and V''(J)/(s + 1/2) around the cut.

    Each is a residue at infinity of a Laurent series (_V_of_J).  U is
    [s^-1] V'(J); as 1/(s -+ 1/2) = sum_(m>=0) (+-1/2)^m s^(-m-1), W and P
    are the nonnegative parts of V'(J) and V''(J) at 1/2 (_pol_at), and Q
    that of V''(J) at -1/2.
    """
    vp, vpp = _V_of_J(V, c1, c0, 1), _V_of_J(V, c1, c0, 2)
    half = mpf('0.5')
    return vp[-1], _pol_at(vp, half), _pol_at(vpp, half), _pol_at(vpp, -half)


def solve_coefficients(V, t, ctx, _depth=0):
    """Newton solve of the two contour conditions for (c1, c0).

    The conditions and the Jacobian are exact contour integrals (see
    _contour_integrals); the initial guess (t, t/2) is exact for the pure
    quadratic.  Falls back to continuation from t/2 when the direct solve
    stalls.  Returns (c1, c0).
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
        if not t > 0:
            raise ValueError("t must be positive")
        try:
            return _newton_coefficients(V, t, (t, t / 2), ctx)
        except NonConvergent:
            if _depth >= 3:
                raise
            half = solve_coefficients(V, t / 2, ctx, _depth=_depth + 1)
            return _newton_coefficients(V, t, half, ctx)


def _newton_coefficients(V, t, guess, ctx):
    # the step that a residual within newton_tol allows squares the
    # iterate's error, so it is taken before returning
    c1, c0 = mpf(guess[0]), mpf(guess[1])
    tol = mpf(ctx.newton_tol)
    for _ in range(ctx.newton_max_iter):
        U, W, P, Q = _contour_integrals(V, c1, c0)
        U = c1 * U - t
        W -= t
        done = abs(U) <= tol and abs(W) <= tol
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
        if done:
            return +c1, +c0
    raise NonConvergent("coefficient newton exhausted its iterations")


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


# The engine sizes its node count N from the decay of its own series
# (Chebyshev chopping, Aurentz & Trefethen, ACM TOMS 43 (2017) 33).  Each
# level solves sigma at N nodes, seeded from the previous level's series,
# and grows N until every Fourier coefficient of sigma at index >= 4N/5 is
# below 10^-(digits + _CHOP_GUARD) of the largest; then the density's
# Chebyshev coefficients, from its closed form at the nodes, must pass the
# same test at 10^-digits.  The guard sits above the working precision's
# rounding floor, about 10^-(digits + 10).
_PILOT_NODES = 32
_CHOP_GUARD = 5


def _max_nodes(digits):
    # the fixed node count of the unsized engine; no build exceeds it
    return max(96, 4 * digits)


def _chop(coeffs, tol):
    """(tail, next) for a coefficient list on N nodes.

    tail is the largest |c_k| at k >= 4N/5.  next is None when tail is at
    most tol times the largest |c_k|; otherwise it is the node count at
    which the geometric decay seen from 2N/5 on would bring the tail
    there, and at least N + 4 (2N when no decay shows).
    """
    N = len(coeffs)
    K = -(-4 * N // 5)
    mag = [abs(c) for c in coeffs]
    tail = max(mag[K:])
    goal = tol * max(mag)
    if tail <= goal:
        return tail, None
    # the envelope's decay rate between its peaks past K/2 and past K,
    # shaded by a tenth: the early coefficients of these series fall
    # faster than the late ones, so the plain rate undershoots
    i = max(range(K // 2, N), key=mag.__getitem__)
    j = max(range(K, N), key=mag.__getitem__)
    if j <= i:
        return tail, 2 * N
    rate = 0.9 * float(log(mag[i] / tail)) / (j - i)
    reach = j + float(log(tail / goal)) / rate
    return tail, max(N + 4, int(1.25 * reach) + 2)


class _SigmaSeries:
    """Fourier representation of the upper inverse branch on the support.

    sigma(theta) = I_+(mid + rad*cos(theta)) is analytic and periodic on the
    torus, so everything downstream (density, moments, log-potentials, the
    Lagrange constant) becomes a rapidly convergent trigonometric series.
    The engine is its solved series: sigma's Fourier coefficients Ak, Bk
    on N nodes, the density psi_v at those nodes and its Chebyshev
    coefficients hc.  Every other array derives from these (_measure).

    Cold (series None), sigma is solved at N nodes sized by _chop from
    _PILOT_NODES up, and the density follows from it in closed form
    (_density); the certified tail of sigma's coefficients is tail.
    Raises NonConvergent when the series needs more than _max_nodes(digits)
    nodes.  Restored (series the dict of Ak, Bk, hc and psi_v that
    load_equilibrium returns), no inversion runs and psi_v is not
    recomputed: the stored series must pass the same chop tests, which
    also recompute tail, and a spot check at one node (_restore), or
    NonConvergent is raised.

    invert solves J(s) = x to the engine's own tolerance
    10^-(digits + 4), fixed here, whatever precision its caller runs at:
    c1 and c0 carry digits + 10 digits, so a tighter tolerance buys
    nothing, and next to an edge, where J' vanishes, it is never met.
    """

    def __init__(self, V, t, c1, c0, P, Q, digits, series=None):
        self.V = V
        self.t = t
        self.c1, self.c0 = c1, c0
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
        self.tol = mpf(10) ** -(digits + 4)
        if series is None:
            cn, sn = self._solve(digits)
        else:
            cn, sn = self._restore(digits, **series)
        self._measure(cn, sn)

    def _sigma_grow(self, digits):
        """The node count _chop asks of sigma's series, None once it has
        settled; sets tail."""
        self.tail, grow = _chop(
            [max(abs(u), abs(v)) for u, v in zip(self.Ak, self.Bk)],
            mpf(10) ** -(digits + _CHOP_GUARD))
        return grow

    def _density_grow(self, digits):
        """The node count _chop asks of the density's series, or None."""
        return _chop(self.hc, mpf(10) ** -digits)[1]

    def _solve(self, digits):
        """The cold route; returns cos and sin at the N nodes."""
        cap = _max_nodes(digits)
        N = min(_PILOT_NODES, cap)
        self.Ak = self.Bk = None
        while True:
            ct, st, sig = self._fourier(N)
            grow = self._sigma_grow(digits)
            if grow is None:
                self._density(sig, ct, st)
                grow = self._density_grow(digits)
                if grow is None:
                    return ct[1:2 * N:2], st[1:2 * N:2]
            if N >= cap:
                raise NonConvergent("Fourier engine needs more than %d "
                                    "nodes" % cap)
            N = min(grow, cap)

    def _restore(self, digits, Ak, Bk, hc, psi_v):
        """The loaded route; returns cos and sin at the N nodes.

        Beyond the chop tests, at one node x0 the restored sigma must
        solve J(s) = x0 to 10^-digits (1 + |x0|), and the density's
        Chebyshev series must give psi_v there to 10^-digits of the
        largest psi_v.  A cold engine's series meets both at the working
        precision's rounding level, about 10^-(digits + 10).  The node's
        angle (2i+1) pi/(2N), with 2i+1 prime to N, is no multiple of
        pi/(2N) times an index below N, so no term of either series
        vanishes there; i starts at N/3, away from the edge at b, where
        J' vanishes.
        """
        self.N = N = len(Ak)
        self.Ak, self.Bk, self.hc, self.psi_v = Ak, Bk, hc, psi_v
        if self._sigma_grow(digits) is not None or \
                self._density_grow(digits) is not None:
            raise NonConvergent("cached Fourier series fails its chop test")
        cn = [cos((2 * i + 1) * pi / (2 * N)) for i in range(N)]
        sn = [sin((2 * i + 1) * pi / (2 * N)) for i in range(N)]
        i = next(i for i in range(N // 3, N) if gcd(2 * i + 1, N) == 1)
        th0 = (2 * i + 1) * pi / (2 * N)
        x0 = self.mid + self.rad * cn[i]
        J_err = abs(map_J(self.c1, self.c0, self.sigma(th0)) - x0)
        psi_err = abs(self._clenshaw_h(th0) * self.rad * sn[i] - psi_v[i])
        bound = mpf(10) ** -digits
        if J_err > bound * (1 + abs(x0)) or \
                psi_err > bound * max(abs(v) for v in psi_v):
            raise NonConvergent("cached Fourier series fails the spot "
                                "check at x = %s" % mp.nstr(x0, 8))
        return cn, sn

    def _fourier(self, N):
        """sigma at N nodes and its coefficients Ak, Bk; returns the
        cos and sin tables of the lattice and sigma at the nodes."""
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
            if self.Ak is not None:
                # the previous level's series is close to the root
                s = self.sigma((2 * i + 1) * pi / (2 * N))
            elif s is None:
                s = self._edge_seed(x)
            s = self.invert(x, s)
            if im(s) < 0:
                s = conj(s)
            sig.append(s)
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
        return ct, st, sig

    def _density(self, sig, ct, st):
        """psi at the nodes, Im Pol(sigma) / (pi t), then its Chebyshev
        coefficients hc; Pol is V'(J(s))'s nonnegative part (_pol_at).

        The gluing of Claeys & Romano (Nonlinearity 27 (2014) 2419-2444):
        G(z) = int dnu(y)/(z - y) and G~(z) = int e^z dnu(y)/(e^z - e^y),
        nu = t psi dx, both jump by -2 pi i psi_nu across (a, b), where the
        derivative of the variational condition reads
        G_+ + G_- + G~_+ + G~_- = 2 V'; so G_+ + G~_- = V' there.  J maps
        the outside of the curve gamma through +-s_b onto C minus [a, b],
        and its inside, cut along [-1/2, 1/2], onto the strip |Im z| < pi
        minus [a, b]; crossing gamma's upper arc inwards crosses (a, b)
        downwards.  So V'(J) - G(J) outside gamma and G~(J) inside glue
        into one function Phi.  G~ is 2 pi i periodic, so Phi does not see
        J's jump across the cut, and it tends to t and 0 at s = 1/2 and
        -1/2, where Re J runs to +-infinity.  Phi is entire and, as
        G(J(s)) = O(1/s), it is Pol; on the upper arc
        Im Pol(I_+(x)) = Im G~_-(x) = pi t psi(x).  Phi(1/2) = t and
        G(J(s)) ~ t/(c1 s) are the two coefficient conditions.  The
        argument takes J's mapping of gamma as given; density(), the
        double-log integral, checks the identity in the tests.
        """
        N, M4 = self.N, 4 * self.N
        pol = _V_of_J(self.V, self.c1, self.c0, 1)
        self.psi_v = [im(_pol_at(pol, s)) / (pi * self.t) for s in sig]
        # Chebyshev coefficients of psi/(rad sin)
        hval = [self.psi_v[i] / (self.rad * st[2 * i + 1])
                for i in range(N)]
        self.hc = []
        for k in range(N):
            sa = mp.fdot(hval, [ct[(2 * i + 1) * k % M4] for i in range(N)])
            self.hc.append(sa * (1 if k == 0 else 2) / N)

    def _measure(self, cn, sn):
        """From hc and psi_v, with cn, sn the cos and sin at the nodes: the
        moments gam, the mass, the quadrature weights Gw at the nodes gx,
        and the Lagrange constant ell."""
        N = self.N
        r2 = self.rad * self.rad
        g = [mpf(0)] * (N + 2)
        for k in range(N):
            g[k] += self.hc[k] / 2
            g[k + 2] -= self.hc[k] / 4
            g[abs(k - 2)] -= self.hc[k] / 4
        self.gam = [r2 * v for v in g]
        self.mass = self.gam[0] * pi
        self.Gw = [self.psi_v[i] * self.rad * sn[i] for i in range(N)]
        self.gx = [self.mid + self.rad * cn[i] for i in range(N)]
        self.ell = self.ell_at(self.mid)

    def invert(self, x, s0):
        """The root of J(s) = x that Newton's iteration reaches from s0."""
        c1, c0 = self.c1, self.c0
        return newton(lambda s: (map_J(c1, c0, s) - x) / _J_prime(c1, s),
                      s0, self.tol)

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

    def _edge_seed(self, x):
        # I_+ at the nearer edge, from J(+-s_b + d) = b or a +- s_b c1^2 d^2
        gap = min(x - self.a, self.b - x)
        edge = self.s_b if gap == self.b - x else -self.s_b
        return edge + mpc(0, 1) * sqrt(gap / (self.s_b * self.c1 * self.c1))

    def iplus(self, x):
        # next to an edge the series seed comes out real (theta_of clamps
        # at the precision of mid and rad), and Newton from it stays real
        near = min(x - self.a, self.b - x) < self.rad * sqrt(self.tol)
        s = self.invert(x, self._edge_seed(x) if near else
                        self.sigma(self.theta_of(x)))
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

    The attached series engine powers the density table, g-functions, F
    and the Lagrange constant.  It sizes its Fourier node count from the
    decay of its own coefficients (see _SigmaSeries), never above the
    max(96, 4*digits) nodes of the unsized engine.  The cache entry holds
    the solve (c1, c0) and the engine's solved series: a hit skips the
    coefficient solve and every heavy sum of the engine, restoring the
    series after a spot check, and rebuilds only the cheap rest (the
    contour integrals P and Q, the moments, ell and the argmins), to the
    same bits as a cold build.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    cached = (load_equilibrium(V, t, ctx, cache_dir)
              if cache_dir is not None else None)
    c1, c0, series = cached or solve_coefficients(V, t, ctx) + (None,)
    with mp.workdps(ctx.digits + 10):
        _, _, P, Q = _contour_integrals(V, c1, c0)
        eng = _SigmaSeries(V, t, c1, c0, P, Q, ctx.digits, series)
        eq = EquilibriumData(
            t=t, c0=c0, c1=c1, s_b=eng.s_b,
            a=eng.a, b=eng.b, alpha=eng.alpha, beta=eng.beta,
            P=P, Q=Q, ell=eng.ell,
            x_min=V.argmin(ctx),
            x_hat_min=V.argmin(ctx, slope=t),
            digits=ctx.digits, _engine=eng,
            cache="off" if cache_dir is None else
            "miss" if cached is None else "hit")
    if cache_dir is not None and cached is None:
        save_equilibrium(eq, V, cache_dir)
    return eq


def _require_engine(eq):
    return eq._engine


@dataclass(frozen=True)
class DensityTable:
    nodes: tuple
    values: tuple
    mass_check: object


def build_density_table(eq, ctx):
    """Density on a 512-node Chebyshev grid of the support, plus its own
    mass check."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        N = 512
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
    """Inverse of J on the support; branch 'upper' lands on gamma_1.

    The engine's inversion from its series seed, to the engine's own
    tolerance (see _SigmaSeries).  Raises BranchEscape when the root
    lands on or below the real axis away from the edges.
    """
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    if not (eq.a < x < eq.b):
        raise ValueError("x outside the open support interval")
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        s = eng.invert(x, eng.sigma(eng.theta_of(x)))
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
    """Edge coefficients alpha, beta, the engine's contour formula in P, Q.

    Cross-checked against a square-root fit of the density near b; the
    mass-t convention means the fit target is t * psi.
    """
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        eps = mpf(10) ** -4
        fit = eq.t * eng.psi(eq.b - eps) / sqrt(eps)
        if abs(fit / eq.beta - 1) > mpf('0.01'):
            raise NonConvergent("square-root edge fit disagrees with the "
                                "contour formula for beta")
        return +eq.alpha, +eq.beta


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
        val = eng.F(z)
        return +(val.real if im(z) == 0 else val)


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

_CACHE_VERSION = 5
_CACHED = ("c1", "c0")
# the engine's solved series (see _SigmaSeries), each a list of N values
_SERIES = ("Ak", "Bk", "hc", "psi_v")


def _cache_path(cache_dir, V, t, digits):
    key = cache_key({"coeffs": V.coeff_strings(), "t": num_to_str(t, digits),
                     "digits": digits, "version": _CACHE_VERSION})
    return os.path.join(cache_dir, "eq_%s.json" % key)


def save_equilibrium(eq, V, cache_dir):
    """Write eq as the entry {version, digits, t, c1, c0, N, Ak, Bk, hc,
    psi_v}, in one atomic step (mpnum.save_json).

    The numbers are decimal strings with 15 guard digits (num_to_str), so
    they read back to the same bits at digits + 10.
    """
    os.makedirs(cache_dir, exist_ok=True)
    digits = eq.digits
    eng = _require_engine(eq)
    doc = {k: num_to_str(getattr(eq, k), digits) for k in ("t",) + _CACHED}
    doc.update((k, [num_to_str(v, digits) for v in getattr(eng, k)])
               for k in _SERIES)
    doc.update(version=_CACHE_VERSION, digits=digits, N=eng.N)
    return save_json(_cache_path(cache_dir, V, eq.t, digits), doc)


def load_equilibrium(V, t, ctx, cache_dir):
    """The cached (c1, c0, series) for V, t and ctx.digits, or None.

    series maps each of Ak, Bk, hc and psi_v to its list of N values, for
    _SigmaSeries to restore.  A malformed entry, or one of the wrong shape
    (a missing key, a wrong type, a non-numeric string, a list whose
    length is not N), raises an OSError naming its path
    (mpnum.load_json); the engine spot-checks the numbers themselves.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    path = _cache_path(cache_dir, V, t, ctx.digits)
    if not os.path.exists(path):
        return None

    def parse(doc):
        N = json_int(doc["N"])
        with mp.workdps(ctx.digits + 10):
            c1, c0 = (str_to_num(doc[k]) for k in _CACHED)
            series = {k: [str_to_num(v) for v in doc[k]] for k in _SERIES}
        # every engine's N lies in this range; _chop needs N >= 5
        if not _PILOT_NODES <= N <= _max_nodes(ctx.digits):
            raise ValueError("N = %d is outside [%d, %d]" % (
                N, _PILOT_NODES, _max_nodes(ctx.digits)))
        if any(len(v) != N for v in series.values()):
            raise ValueError("series lengths disagree with N = %d" % N)
        return c1, c0, series

    return load_json(path, parse)
