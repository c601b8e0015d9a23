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

import cmath
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from mpmath import (mp, mpf, mpc, sqrt, log, exp, cos, sin, expm1, pi, conj,
                    im, re, ceil)

from .mpnum import (RealInterval, NonConvergent, PrecisionContext, _horner,
                    newton, integrate_trapezoid, integrate_tanh_sinh,
                    num_to_str, str_to_num, cache_key, save_json, load_json)


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


def _J(c1, c0, s):
    # J off the cut [-1/2, 1/2], principal log; on the real axis outside
    # the cut the log argument is positive
    return c1 * s + c0 - log((s - mpf('0.5')) / (s + mpf('0.5')))


def _J_prime(c1, s):
    return c1 - 1 / (s * s - mpf('0.25'))


def _s_b(c1):
    return sqrt(mpf('0.25') + 1 / c1)


def _V_of_J(V, c1, c0, order):
    """The Laurent series at infinity of V(J(s)) (order 0), V'(J(s))
    (order 1) or V''(J(s)) (order 2), as {e: [s^e]}, exact for every
    e >= -1.

    Off the cut J = c1 s + c0 + sum_(k odd) 2^(1-k) s^-k / k.  Horner's
    products drop exponents below -(deg V + 1), which keeps the
    coefficients from s^-1 up exact: in a product of p <= deg V factors
    J a term s^e meets at most s^(p-1), so only e >= -p reaches s^-1, and
    a dropped term, with at most deg V - 1 products left, rises to below
    s^-2.
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


# Next to an edge J' vanishes and a root of J(s) = z in double precision
# keeps only about half its digits; within _EDGE_SEED * rad of an edge the
# square-root model of J there seeds mpmath's Newton instead
# (_SigmaSeries._edge_seed).  _FLOAT_TOL is the double-precision Newton
# tolerance, a few units in the last place.
_EDGE_SEED = 1e-4
_FLOAT_TOL = 1e-15


class _FloatRoots:
    """The roots of J(s) = z in double precision (math, cmath), for c1 and
    c0 rounded to floats: the seeds of every mpmath root of J.

    They run mpnum.newton and _bracketed, which work at the precision of
    their arguments, floats included; a seed costs microseconds, and from
    its 16 digits mpmath's Newton doubles the digits per step.
    """

    def __init__(self, c1, c0):
        self.c1, self.c0 = c1, c0 = float(c1), float(c0)
        self.s_b = s_b = math.sqrt(0.25 + 1 / c1)
        self.b = self.J(s_b)
        self.u_b = math.log(s_b - 0.5)
        # gamma's top i y_top: _arc2 falls from 1/4 + 1/c1 at y = 0 to
        # -oo at y = pi/c1, as y cot(c1 y) falls there
        self.y_top = _bracketed(self._arc2, self._arc2_prime, 0.0, 0.0,
                                math.pi / c1, False, 1 / c1, _FLOAT_TOL)

    def J(self, s):
        log_ = cmath.log if isinstance(s, complex) else math.log
        return self.c1 * s + self.c0 - log_((s - 0.5) / (s + 0.5))

    def J_prime(self, s):
        return self.c1 - 1 / (s * s - 0.25)

    def _arc2(self, y):
        """(Re s)^2 at the point s of gamma at height y > 0.

        Im J(s) = c1 y - arg((s - 1/2)/(s + 1/2)) vanishes on gamma, so s
        sees the cut under the angle c1 y: it lies on the circle through
        +-1/2 with centre i cot(c1 y)/2, where (Re s)^2 = 1/4 +
        y cot(c1 y) - y^2.
        """
        u = self.c1 * y
        return 0.25 + y * math.cos(u) / math.sin(u) - y * y

    def _arc2_prime(self, y):
        u = self.c1 * y
        sin_u = math.sin(u)
        return math.cos(u) / sin_u - u / (sin_u * sin_u) - 2 * y

    def iplus(self, x):
        """I_+(x) for a < x < b, the root of J(s) = x on gamma's upper arc.

        Right of c0 = J(i y_top) it lies on the arc's right half, s = X +
        i y with X^2 = _arc2(y), where Re J falls from b at y = 0 to c0 at
        y_top: a bracketed solve in y, then Newton in s, since next to the
        top X = sqrt(_arc2) is ill-conditioned in y.  Left of c0, J(-conj
        s) = 2 c0 - conj J(s) mirrors it.
        """
        if x < self.c0:
            return -self.iplus(2 * self.c0 - x).conjugate()

        def arc(y):
            return complex(math.sqrt(max(self._arc2(y), 0.0)), y)

        def re_J_prime(y):
            s = arc(y)
            if s.real == 0:
                return -math.inf
            jp = self.J_prime(s)
            return jp.real * self._arc2_prime(y) / (2 * s.real) - jp.imag

        y0 = math.sqrt(max(self.b - x, 0.0) / (self.s_b * self.c1 ** 2))
        y = _bracketed(lambda y: self.J(arc(y)).real, re_J_prime, x, 0.0,
                       self.y_top, False, min(y0, self.y_top / 2),
                       _FLOAT_TOL)
        return newton(lambda s: (self.J(s) - x) / self.J_prime(s), arc(y),
                      _FLOAT_TOL)

    def real_roots(self, x):
        """(log(s_in - 1/2), s_out) for x > b (see _SigmaSeries._real_roots).

        Far right of b, s_in - 1/2 ~ e^(c1/2 + c0 - x) falls below the
        resolution of 1/2, so s_in is solved for in u = log(s - 1/2),
        where J = c1 (1/2 + e^u) + c0 - u + log(1 + e^u) is convex and
        falls left of u_b; J > c1/2 + c0 - u puts the root right of lo.
        J > c1 s + c0 puts s_out left of far.
        """
        c1, c0 = self.c1, self.c0
        lo = min(c1 / 2 + c0 - x, self.u_b - 1)
        u = _bracketed(
            lambda u: c1 * (0.5 + math.exp(u)) + c0 - u
            + math.log1p(math.exp(u)),
            lambda u: c1 * math.exp(u) - 1 / (1 + math.exp(u)),
            x, lo, self.u_b, False, lo, _FLOAT_TOL)
        far = max(self.s_b, (x - c0) / c1) + 1
        s = _bracketed(self.J, self.J_prime, x, self.s_b, far, True, far,
                       _FLOAT_TOL)
        return u, s

    def pair(self, x):
        """(s_in, s_out) at real x, or about them: +-s_b within _EDGE_SEED
        rad of an edge."""
        a = 2 * self.c0 - self.b
        near = _EDGE_SEED * (self.b - a) / 2
        if abs(x - self.b) < near or abs(x - a) < near:
            s = self.s_b if abs(x - self.b) < near else -self.s_b
            return s, s
        if a < x < self.b:
            s = self.iplus(x)
            return s.conjugate(), s
        u, s = self.real_roots(max(x, 2 * self.c0 - x))
        sign = 1 if x > self.b else -1
        return sign * (0.5 + math.exp(u)), sign * s

    def track(self, x, y, s, side):
        """The root of J = x + iy, y > 0, with sign(Im s) = side, from s
        near a root of J = x (pair).  Each step seeds Newton from J's
        quadratic model at the last root, taking the model's root on the
        right side of the axis; a step whose root fails the sign test is
        halved.  Raises NonConvergent after 4 newton_max_iter steps and
        halvings."""
        done, h = 0.0, y
        for _ in range(4 * PrecisionContext.newton_max_iter):
            last = h >= y - done
            target = complex(x, y if last else done + h)
            # J(s + e) = J(s) + J'e + J''e^2/2 through target
            gap = target - self.J(complex(s))
            j1 = self.J_prime(s)
            j2 = 2 * s / (s * s - 0.25) ** 2
            root = cmath.sqrt(j1 * j1 + 2 * j2 * gap)
            q = -(j1 + root if abs(j1 + root) >= abs(j1 - root)
                  else j1 - root) / 2
            try:
                seeds = [s + e for e in (2 * q / j2, -gap / q)
                         if side * (s + e).imag > 0]
                new = newton(lambda w: (self.J(w) - target) / self.J_prime(w),
                             min(seeds, key=lambda w: abs(w - s)), _FLOAT_TOL)
            except (ValueError, ZeroDivisionError, NonConvergent):
                new = None
            if new is None or not side * new.imag > 0:
                h = (y - done if last else h) / 2
                continue
            if last:
                return new
            s, done = new, done + h
        raise NonConvergent("no root of J(s) = %r on its side of the real "
                            "axis" % complex(x, y))


class _SigmaSeries:
    """The equilibrium engine: the closed forms in the roots of J(s) = z.

    Built from (c1, c0) and the contour integrals P, Q, it holds s_b, the
    support [a, b], the edge constants alpha and beta, Pol (the
    nonnegative part of V'(J)), Pi (the positive part of V(J), so Pi(0) =
    0), the constants C and C~ of g and g~ (see g_functions) and ell =
    Re(C + C~) (see effective_potential).  The density psi(x) =
    Im Pol(I_+(x)) / (pi t), and F, F' and the g-functions, are closed
    forms in the two roots s_in, s_out of J(s) = z inside and outside
    gamma (_roots), through Phi = Pi - t log(s - 1/2).

    Every root starts from its double-precision value (_FloatRoots),
    next to an edge from J's square-root model there (_edge_seed), and
    mpmath's Newton refines it to the engine's own tolerance 10^-(digits
    + 4), fixed here whatever precision its caller runs at: c1 and c0
    carry digits + 10 digits, so a tighter tolerance buys nothing, and
    next to an edge, where J' vanishes, it is never met.

    Every integral over the measure, the mass included, is one trapezoid
    in theta over the closed psi (integrate).  The name is historical: the
    engine once held the Fourier series of sigma(theta) = I_+(mid + rad
    cos(theta)), which psi in closed form made redundant.
    """

    def __init__(self, V, t, c1, c0, P, Q, digits):
        self.V = V
        self.t = t
        self.c1, self.c0 = c1, c0
        self.digits = digits
        s_b = _s_b(c1)
        self.s_b = s_b
        self.a = _J(c1, c0, -s_b)
        self.b = _J(c1, c0, s_b)
        self.mid = (self.a + self.b) / 2
        self.rad = (self.b - self.a) / 2
        A_ = mpf('0.5') - s_b
        B_ = mpf('0.5') + s_b
        self.alpha = (A_ * P + B_ * Q) / (pi * sqrt(s_b))
        self.beta = (B_ * P + A_ * Q) / (pi * sqrt(s_b))
        self.tol = mpf(10) ** -(digits + 4)
        self.pol = _V_of_J(V, c1, c0, 1)
        vj = _V_of_J(V, c1, c0, 0)
        self.pi_c = [mpf(0)] + [vj[e] for e in range(1, V.degree + 1)]
        self.C = log(c1) - vj[0] / t
        self.C_tilde = c1 / 2 + c0 - _horner(self.pi_c, mpf('0.5')) / t
        self.ell = self.C + self.C_tilde
        self._float = _FloatRoots(c1, c0)

    def integrate(self, f, ctx):
        """int f dmu for a vector-valued f: the trapezoid (mpnum) in theta
        on [0, pi] over rad sin(theta) psi(x) f(x), x = mid + rad
        cos(theta), to ctx's quad_rel_tol.

        psi vanishes like a square root at both edges, so sin(theta)
        psi(x) is sin(theta)^2 times a function analytic on the support:
        the integrand is even, periodic and analytic in theta, and the
        trapezoid converges geometrically (Trefethen & Weideman, SIAM Rev.
        56 (2014) 385-458).  Raises NonConvergent when it does not settle.
        """
        def weighted(th):
            x = self.mid + self.rad * cos(th)
            w = self.rad * sin(th) * self.psi(x)
            return [w * v for v in f(x)]

        with mp.workdps(ctx.digits + 10):
            return integrate_trapezoid(weighted, RealInterval(0, pi), ctx)

    @cached_property
    def mass(self):
        # at the engine's precision, whatever its first caller runs at
        return self.integrate(lambda x: (1,),
                              PrecisionContext(self.digits))[0]

    def invert(self, x, s0):
        """The root of J(s) = x that Newton's iteration reaches from s0."""
        c1, c0 = self.c1, self.c0
        return newton(lambda s: (map_J(c1, c0, s) - x) / _J_prime(c1, s),
                      s0, self.tol)

    def _near_edge(self, z):
        return min(abs(z - self.a), abs(z - self.b)) < _EDGE_SEED * self.rad

    def _edge_seed(self, z, side=1):
        """The root of J's square-root model at the nearer edge e = +-s_b,
        J(e + w) = J(e) + e c1^2 w^2, with sign(Im) = side."""
        e = self.s_b if abs(z - self.b) <= abs(z - self.a) else -self.s_b
        w = sqrt((z - (self.b if e > 0 else self.a)) / (e * self.c1 ** 2))
        return e + w if side * im(w) > 0 else e - w

    def iplus_seed(self, x):
        """The seed of I_+(x) for a < x < b."""
        if self._near_edge(x):
            return self._edge_seed(x)
        return mpc(self._float.iplus(float(x)))

    def iplus(self, x):
        s = self.invert(x, self.iplus_seed(x))
        if im(s) < 0:
            s = conj(s)
        return s

    def psi(self, x):
        """The density, Im Pol(I_+(x)) / (pi t) on (a, b) and 0 off it.

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
        if not self.a < x < self.b:
            return mpf(0)
        return im(_pol_at(self.pol, self.iplus(x))) / (pi * self.t)

    def _real_roots(self, x):
        """(s_in, s_out), the roots of J(s) = x inside and outside gamma,
        for real x.

        Inside (a, b) they are I_- and I_+ (iplus); at b or a the double
        root +-s_b.  Right of b, J is convex on (1/2, oo), falls on
        (1/2, s_b) and rises on (s_b, oo): safeguarded Newton takes s_in on
        the first and s_out on the second, from their double-precision
        values (_FloatRoots.real_roots), or next to b from the edge's
        square-root model, kept right of the bound J(s) > c1 s + c0 -
        log(s - 1/2) gives.  Left of a, J(-s) = 2 c0 - J(s) mirrors them.
        """
        if self.a < x < self.b:
            s = self.iplus(x)
            return conj(s), s
        if x == self.b or x == self.a:
            s = self.s_b if x == self.b else -self.s_b
            return s, s
        if x < self.a:
            s_in, s_out = self._real_roots(2 * self.c0 - x)
            return -s_in, -s_out
        c1, c0, s_b = self.c1, self.c0, self.s_b
        half = mpf('0.5')
        far = max(s_b, (x - c0) / c1) + 1
        if self._near_edge(x):
            d = sqrt((x - self.b) / (s_b * c1 * c1))
            seeds = max(half + exp(c1 / 2 + c0 - x), s_b - d), s_b + d
        else:
            u, s = self._float.real_roots(float(x))
            seeds = half + exp(mpf(u)), mpf(s)
        J = lambda s: _J(c1, c0, s)
        dJ = lambda s: _J_prime(c1, s)
        return (_bracketed(J, dJ, x, half, s_b, False, seeds[0], self.tol),
                _bracketed(J, dJ, x, s_b, far, True, seeds[1], self.tol))

    def _roots(self, z, sides=(-1, 1)):
        """The roots of J(s) = z that sides names, -1 for s_in and 1 for
        s_out, at z off [a, b] when complex; s_in needs the strip
        |Im z| < pi.

        For 0 < Im z < pi, J maps the part of gamma's outside above the
        real axis onto the upper half plane and the part of its inside
        below the axis onto the upper half strip, so s_out is the one root
        with Im s > 0 and s_in the one with Im s < 0 (mirrored below the
        axis).  That sign certifies a root whatever path found it.  Each
        is seeded by tracking it in double precision up the vertical
        segment from the real roots at Re z (_FloatRoots.track), or next
        to an edge from J's square-root model there.
        """
        x, y = re(z), im(z)
        if y < 0:
            # J(conj s) = conj J(s), and gamma is symmetric about the axis
            return tuple(conj(s) for s in self._roots(conj(z), sides))
        if -1 in sides and y >= pi:
            raise ValueError("s_in exists only in the strip |Im z| < pi")
        if y == 0:
            pair = self._real_roots(x)
            return tuple(pair[side > 0] for side in sides)
        c1, c0 = self.c1, self.c0
        roots = []
        for side in sides:
            if self._near_edge(z):
                s = self._edge_seed(z, side)
            else:
                fl = self._float
                s = mpc(fl.track(float(x), float(y),
                                 fl.pair(float(x))[side > 0], side))
            s = newton(lambda w: (_J(c1, c0, w) - z) / _J_prime(c1, w), s,
                       self.tol)
            if not side * im(s) > 0:
                raise NonConvergent("no root of J(s) = %s on its side of "
                                    "the real axis" % mp.nstr(z, 8))
            roots.append(s)
        return tuple(roots)

    def Phi_in(self, z):
        """Phi(s_in) at z off [a, b], continued 2 pi i periodically in z as
        g~ is: Im z is first reduced to (-pi, pi].  On the line Im z = pi,
        s_in is the root on the cut [-1/2, 1/2] approached from below, where
        J(s) = c1 s + c0 - log((1/2 - s)/(1/2 + s)) + i pi rises from -oo to
        oo and log(s - 1/2) = log(1/2 - s) - i pi."""
        y = +im(z)
        y -= 2 * pi * ceil((y - pi) / (2 * pi))
        if y != pi:
            z = mpc(re(z), y)
            return self.Phi(self._roots(z, (-1,))[0], z)
        c1, c0, half = self.c1, self.c0, mpf('0.5')
        s = _bracketed(lambda s: c1 * s + c0 - log((half - s) / (half + s)),
                       lambda s: c1 + 1 / (half * half - s * s), re(z),
                       -half, half, True, mpf(0), self.tol)
        return (_horner(self.pi_c, s) - self.t * log(half - s)
                + mpc(0, pi) * self.t)

    def Phi(self, s, z=None):
        """Pi(s) - t log(s - 1/2), principal log: the one function that the
        gluing of psi makes of V(J) - t g(J) outside gamma and of t g~(J)
        inside.

        Given z, s is the root s_in of J(s) = z.  Right of the imaginary
        axis arg(s - 1/2) - arg(s + 1/2) stays in (-pi, pi), so there
        log(s - 1/2) = log(s + 1/2) + c1 s + c0 - z.  That keeps the digits
        that s_in - 1/2 ~ e^(c1/2 + c0 - Re z), next to 1/2 far right of b,
        has lost.
        """
        half = mpf('0.5')
        if z is not None and re(s) > 0:
            log_gap = log(mpc(s) + half) + self.c1 * s + self.c0 - z
        else:
            log_gap = log(mpc(s) - half)
        return _horner(self.pi_c, s) - self.t * log_gap

    def F(self, z):
        """F(z) = [Phi(s_in) + Phi(s_out) - V(z)]/2 + t (C~ - C)/2 on the
        strip |Im z| < pi, real on the real axis.

        F = t (g~ - g)/2, and g = (V - Phi(s_out))/t + C, g~ =
        Phi(s_in)/t + C~ (g_functions).  On each half strip both sides are
        continuous with principal logs and meet on (b, oo), so they agree.
        On the real axis the imaginary parts cancel (s_in and s_out are
        real, or a conjugate pair) and only real parts are kept.
        """
        s_in, s_out = self._roots(z)
        val = ((self.Phi(s_in, z) + self.Phi(s_out) - self.V.V(z)) / 2
               + self.t * (self.C_tilde - self.C) / 2)
        return val if im(z) != 0 else re(val)

    def F_prime(self, z):
        """F'(z) = [Pol(s_in) + Pol(s_out) - V'(z)]/2, since d Phi/ds =
        J' Pol; on (a, b) it is Re Pol(I_+(x)) - V'(x)/2."""
        s_in, s_out = self._roots(z)
        val = (_pol_at(self.pol, s_in) + _pol_at(self.pol, s_out)
               - self.V.Vp(z)) / 2
        return val if im(z) != 0 else re(val)


def _bracketed(J, dJ, x, lo, hi, rising, s, tol):
    """The real root of J(s) = x on (lo, hi), where J rises (rising) or
    falls, by Newton from s; a step that leaves the bracket, which every
    iterate narrows, bisects it instead."""

    def step(s):
        nonlocal lo, hi
        f = J(s) - x
        if (f > 0) == rising:
            hi = s
        else:
            lo = s
        new = s - f / dJ(s)
        # a root met to the last bit is an end of the bracket itself
        return s - (new if lo < new < hi or new == s else (lo + hi) / 2)

    return newton(step, min(max(s, lo), hi), tol)


def _phi_ratio(w):
    # (e^w - 1)/w, stable through w = 0; works for real and complex w
    if abs(w) < mpf('1e-8'):
        return 1 + w / 2 + w * w / 6 + w ** 3 / 24
    if isinstance(w, mpc):
        return (exp(w) - 1) / w
    return expm1(w) / w


def build_equilibrium(V, t, ctx, cache_dir=None):
    """Solve the full equilibrium problem, returning EquilibriumData.

    Beyond the coefficient solve (c1, c0), everything is a closed form
    (see _SigmaSeries), and an integral over the measure is a trapezoid
    over the closed density, taken only when asked for (the mass,
    lagrange_constant).  The cache entry holds
    (c1, c0): a hit skips the solve after checking that the entry still
    meets both coefficient conditions to newton_tol, or raises
    NonConvergent, and gives the same bits as a cold build.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    cached = (load_equilibrium(V, t, ctx, cache_dir)
              if cache_dir is not None else None)
    c1, c0 = cached or solve_coefficients(V, t, ctx)
    with mp.workdps(ctx.digits + 10):
        U, W, P, Q = _contour_integrals(V, c1, c0)
        tol = mpf(ctx.newton_tol)
        if cached and not (abs(c1 * U - t) <= tol and abs(W - t) <= tol):
            raise NonConvergent("cached coefficients fail the coefficient "
                                "conditions")
        eng = _SigmaSeries(V, t, c1, c0, P, Q, ctx.digits)
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
    """Density on a 512-node Chebyshev grid of the support, by the
    engine's closed form psi, plus its own mass check."""
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

    The engine's inversion from its double-precision seed, to the engine's
    own tolerance (see _SigmaSeries).  Raises BranchEscape when the root
    lands on or below the real axis away from the edges.
    """
    if branch not in ("upper", "lower"):
        raise ValueError("branch must be 'upper' or 'lower'")
    if not (eq.a < x < eq.b):
        raise ValueError("x outside the open support interval")
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        s = eng.invert(x, eng.iplus_seed(x))
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
    half against the log singularity); the engine's closed form psi is the
    fast path, and the two are cross-checked in the test suite.
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
    """The two log-transforms g = int log(z - x) dmu and g~ = int log(e^z -
    e^x) dmu at z off (-inf, b], principal logs.

    From the roots of J(s) = z outside and inside gamma (see
    _SigmaSeries.F): g = (V(z) - Phi(s_out))/t + C and g~ = Phi(s_in)/t +
    C~, with C = log c1 - [V(J)]_0/t and C~ = c1/2 + c0 - Pi(1/2)/t.
    """
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        z = mpc(z)
        if im(z) == 0 and re(z) <= eq.b:
            raise ValueError("g functions need z off the half line up to b")
        g = (eng.V.V(z) - eng.Phi(eng._roots(z, (1,))[0])) / eq.t + eng.C
        g_tilde = eng.Phi_in(z) / eq.t + eng.C_tilde
        if im(z) == 0:
            g, g_tilde = g.real, g_tilde.real
        return +g, +g_tilde


def F_function(eq, z, ctx):
    """Conjugation function F_t, analytic on the strip |Im z| < pi: in
    closed form from the two roots of J(s) = z (_SigmaSeries.F)."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        z = mpc(z)
        if not abs(im(z)) < pi:
            raise ValueError("F is only defined on the strip |Im z| < pi")
        val = eng.F(z)
        return +(val.real if im(z) == 0 else val)


def _ell_at(eq, probes, ctx):
    """The variational constant 2 int log|y - x| dmu + int (x + log
    phi(y - x)) dmu - V(y)/t at each probe y in (a, b), from one integral
    over the measure (_SigmaSeries.integrate).

    With x = mid + rad c, log|y - x| = log(rad/2) - 2 sum_(k>=1) T_k(c)
    T_k(c_y)/k, so the log potential is a sum over the Chebyshev moments
    m_k = int T_k(c) dmu, k <= K = 2 digits.  They fall geometrically;
    raises NonConvergent unless m_K and m_(K-1) are below 10^-digits m_0.
    The smooth part takes one component per probe.
    """
    eng = _require_engine(eq)
    K = 2 * ctx.digits

    def cheb(c):
        T = [mpf(1), c]
        for _ in range(K - 1):
            T.append(2 * c * T[-1] - T[-2])
        return T

    with mp.workdps(ctx.digits + 10):
        vals = eng.integrate(
            lambda x: cheb((x - eng.mid) / eng.rad)
            + [x + log(_phi_ratio(y - x)) for y in probes], ctx)
        m = vals[:K + 1]
        if max(abs(m[K]), abs(m[K - 1])) >= mpf(10) ** -ctx.digits * m[0]:
            raise NonConvergent("Chebyshev moments of the measure still "
                                "above 10^-%d at degree %d" % (ctx.digits, K))
        ells = []
        for y, smooth in zip(probes, vals[K + 1:]):
            T = cheb((y - eng.mid) / eng.rad)
            log_pot = log(eng.rad / 2) * m[0] - 2 * sum(
                m[k] * T[k] / k for k in range(1, K + 1))
            ells.append(2 * log_pot + smooth - eng.V.V(y) / eng.t)
        return ells


def lagrange_constant(eq, ctx):
    """The variational constant by integrals over the measure (_ell_at),
    evaluated at the midpoint and verified to be flat across the support."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        y0 = (eq.a + eq.b) / 2
        probes = [y0, y0 - mpf('0.37') * eng.rad, y0 + mpf('0.41') * eng.rad]
        vals = _ell_at(eq, probes, ctx)
        spread = max(vals) - min(vals)
        if spread > mpf(10) ** (-ctx.digits // 4):
            raise VariationalViolation(
                "Lagrange constant spread %s across the support" % spread)
        return +vals[0]


def effective_potential(eq, x, ctx):
    """Variational slack at a real point, negative outside the support and
    zero on it: Re g + Re g~ - V/t - ell = Re[Phi(s_in) - Phi(s_out)]/t,
    as ell = Re(C + C~) (see g_functions)."""
    eng = _require_engine(eq)
    with mp.workdps(ctx.digits + 10):
        x = mpf(x)
        s_in, s_out = eng._roots(x)
        return +(re(eng.Phi(s_in, x) - eng.Phi(s_out)) / eq.t)


def reflect_potential(V, n):
    """The reflected field V(-x) + ((n-1)/n) x; exact on coefficients."""
    kappa = Fraction(n - 1, n)
    ref = [f if k % 2 == 0 else -f for k, f in enumerate(V.frac)]
    while len(ref) < 2:
        ref.append(Fraction(0))
    ref[1] += kappa
    return Potential(ref)


# --- JSON cache ---------------------------------------------------------

_CACHE_VERSION = 6
_CACHED = ("c1", "c0")


def _cache_path(cache_dir, V, t, digits):
    key = cache_key({"coeffs": V.coeff_strings(), "t": num_to_str(t, digits),
                     "digits": digits, "version": _CACHE_VERSION})
    return os.path.join(cache_dir, "eq_%s.json" % key)


def save_equilibrium(eq, V, cache_dir):
    """Write eq as the entry {version, digits, t, c1, c0}, in one atomic
    step (mpnum.save_json).

    The numbers are decimal strings with 15 guard digits (num_to_str), so
    they read back to the same bits at digits + 10.
    """
    os.makedirs(cache_dir, exist_ok=True)
    digits = eq.digits
    doc = {k: num_to_str(getattr(eq, k), digits) for k in ("t",) + _CACHED}
    doc.update(version=_CACHE_VERSION, digits=digits)
    return save_json(_cache_path(cache_dir, V, eq.t, digits), doc)


def load_equilibrium(V, t, ctx, cache_dir):
    """The cached (c1, c0) for V, t and ctx.digits, or None.

    A malformed entry, or one of the wrong shape (a missing key, a wrong
    type, a non-numeric string), raises an OSError naming its path
    (mpnum.load_json); build_equilibrium checks the numbers themselves.
    """
    with mp.workdps(ctx.digits + 10):
        t = mpf(t)
    path = _cache_path(cache_dir, V, t, ctx.digits)
    if not os.path.exists(path):
        return None

    def parse(doc):
        with mp.workdps(ctx.digits + 10):
            return tuple(str_to_num(doc[k]) for k in _CACHED)

    return load_json(path, parse)
