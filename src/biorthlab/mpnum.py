"""Arbitrary-precision numerical substrate.

Quadrature (panel-doubled Gauss-Legendre, tanh-sinh, circle contours),
a complex Newton solver, LDU factorization, the Airy function and the
decimal serializer and cache key shared by the JSON caches, all on top of
mpmath reals.  Every routine takes a PrecisionContext and runs at a guarded
working precision derived from it, so callers never have to touch mp.dps.
"""

import hashlib
import json
from dataclasses import dataclass
from mpmath import mp, mpf, mpc, cos, cosh, sinh, exp, pi, gamma


class NonConvergent(Exception):
    """Iteration budget exhausted before the tolerance was met."""


class SingularJacobian(Exception):
    pass


class SingularMinor(Exception):
    """Pivot k underflowed during LDU; carries the offending index."""

    def __init__(self, k):
        super().__init__("leading principal minor ratio %d underflowed" % k)
        self.k = k


@dataclass(frozen=True)
class PrecisionContext:
    digits: int
    quad_rel_tol: object
    max_panel_doublings: int
    newton_tol: object
    newton_max_iter: int

    def __post_init__(self):
        if self.digits < 32:
            raise ValueError("digits must be >= 32")
        floor = mpf(10) ** (-self.digits + 8)
        if mpf(self.quad_rel_tol) < floor:
            raise ValueError("quad_rel_tol tighter than representable at "
                             "%d digits" % self.digits)

    @classmethod
    def for_digits(cls, digits):
        digits = int(digits)
        return cls(digits=digits,
                   quad_rel_tol=mpf(10) ** (-digits + 8),
                   max_panel_doublings=12,
                   newton_tol=mpf(10) ** (-digits + 12),
                   newton_max_iter=60)


@dataclass(frozen=True)
class RealInterval:
    lo: object
    hi: object

    def __post_init__(self):
        if not mpf(self.lo) < mpf(self.hi):
            raise ValueError("need lo < hi")


_GUARD = 10

_gl_cache = {}


def gauss_legendre_nodes(order):
    """Nodes and weights on [-1, 1], cached per (order, precision)."""
    key = (order, mp.prec)
    if key in _gl_cache:
        return _gl_cache[key]
    xs, ws = [], []
    stop = mpf(10) ** (-mp.dps + 3)
    for i in range(1, order + 1):
        x = cos(pi * (i - mpf('0.25')) / (order + mpf('0.5')))
        for _ in range(100):
            p0, p1 = mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x -= dx
            if abs(dx) < stop:
                break
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    _gl_cache[key] = (xs, ws)
    return xs, ws


def _panel_sum(f, lo, hi, panels, xs, ws):
    total = mpf(0)
    width = (hi - lo) / panels
    for p in range(panels):
        c = lo + width * (p + mpf('0.5'))
        r = width / 2
        for x, w in zip(xs, ws):
            total += w * f(c + r * x)
        # weights sum to 2 on [-1,1]; scale once per panel
    return total * width / 2


def integrate_gauss_legendre(f, iv, ctx):
    """Panel-doubling Gauss-Legendre on a finite interval.

    Doubles the panel count until two successive refinements agree to
    quad_rel_tol * (1 + |I|).  Raises NonConvergent when the doubling
    budget runs out.
    """
    lo, hi = mpf(iv.lo), mpf(iv.hi)
    order = max(32, int(mpf('0.8') * ctx.digits))
    with mp.workdps(ctx.digits + _GUARD):
        xs, ws = gauss_legendre_nodes(order)
        panels = 1
        prev = _panel_sum(f, lo, hi, panels, xs, ws)
        for _ in range(ctx.max_panel_doublings):
            panels *= 2
            cur = _panel_sum(f, lo, hi, panels, xs, ws)
            if abs(cur - prev) <= mpf(ctx.quad_rel_tol) * (1 + abs(cur)):
                return +cur
            prev = cur
    raise NonConvergent("gauss-legendre stalled at %d panels" % panels)


def integrate_tanh_sinh(f, iv, ctx):
    """Double-exponential quadrature; tolerates endpoint singularities.

    The substitution x = tanh((pi/2) sinh(u)) pushes endpoint blowups into
    super-exponentially small weights.  Levels halve the step until two
    successive levels agree.
    """
    lo, hi = mpf(iv.lo), mpf(iv.hi)
    half = (hi - lo) / 2
    mid = (lo + hi) / 2
    # nodes merge with the endpoints at one working ulp, leaving a tail of
    # roughly sqrt(ulp) for inverse-square-root blowups; doubling the
    # working precision keeps that tail below the target tolerance
    with mp.workdps(2 * ctx.digits + 2 * _GUARD):
        cutoff = mpf(10) ** (-(ctx.digits + _GUARD))
        prev = None
        for level in range(2, ctx.max_panel_doublings + 4):
            h = mpf(1) / (1 << level)
            total = mpf(0)
            k = 0
            kmax = int(8 / h)
            while k <= kmax:
                u = k * h
                s = sinh(u)
                w = (pi / 2) * cosh(u) / cosh((pi / 2) * s) ** 2
                if k == 0:
                    total += w * f(mid)
                else:
                    # 1 - tanh(z) = 2/(e^{2z}+1): nodes held as offsets from
                    # the endpoints so log-singular integrands stay accurate
                    off = half * 2 / (exp(pi * s) + 1)
                    if hi - off == hi or lo + off == lo:
                        # node indistinguishable from the endpoint at this
                        # precision; the remaining tail is below one ulp
                        break
                    term = w * (f(hi - off) + f(lo + off))
                    total += term
                    # the weight alone is not enough: singular integrands
                    # shrink the term far slower than w
                    if w < cutoff and abs(term) <= cutoff * (1 + abs(total)):
                        break
                k += 1
            val = total * h * half
            if prev is not None and \
                    abs(val - prev) <= mpf(ctx.quad_rel_tol) * (1 + abs(val)):
                return +val
            prev = val
    raise NonConvergent("tanh-sinh stalled at level %d" % level)


def integrate_circle(g, radius, ctx):
    """(1/2 pi i) of the contour integral of g over |s| = radius.

    Equispaced trapezoid, node count doubled to agreement; spectrally
    accurate for integrands analytic in an annulus around the circle.
    """
    r = mpf(radius)
    if not r > mpf('0.5'):
        raise ValueError("radius must exceed 1/2")
    with mp.workdps(ctx.digits + _GUARD):
        nodes = 16
        prev = None
        for _ in range(ctx.max_panel_doublings + 2):
            acc = mpc(0)
            for k in range(nodes):
                s = r * exp(mpc(0, 2 * pi * k / nodes))
                acc += g(s) * s
            val = acc / nodes
            if prev is not None and \
                    abs(val - prev) <= mpf(ctx.quad_rel_tol) * (1 + abs(val)):
                return +val
            prev = val
            nodes *= 2
    raise NonConvergent("circle quadrature stalled at %d nodes" % nodes)


def complex_newton(F, z0, ctx, dF=None):
    """One-variable Newton in the complex plane.

    dF defaults to a central difference with step 10^(-digits/2), which is
    plenty for the analytic maps this package inverts.
    """
    with mp.workdps(ctx.digits + _GUARD):
        z = mpc(z0)
        if dF is None:
            hstep = mpf(10) ** (-ctx.digits // 2)

            def dF(w):
                return (F(w + hstep) - F(w - hstep)) / (2 * hstep)

        for _ in range(ctx.newton_max_iter):
            fz = F(z)
            if abs(fz) <= mpf(ctx.newton_tol):
                return +z
            d = dF(z)
            if abs(d) == 0:
                raise SingularJacobian("vanishing derivative in complex_newton")
            z = z - fz / d
    raise NonConvergent("complex_newton: no convergence after %d iterations"
                        % ctx.newton_max_iter)


def ldu_bidiagonalize(M):
    """Doolittle LDU of a square matrix given as nested lists.

    Returns (L, D, U) with L unit lower, U unit upper, D the list of pivot
    values; D[k] equals the ratio of consecutive leading principal minors.
    Raises SingularMinor(k) when a pivot underflows the working precision.
    """
    m = len(M)
    a = [[mpf(v) for v in row] for row in M]
    scale = max((abs(v) for row in a for v in row), default=mpf(1))
    if scale == 0:
        scale = mpf(1)
    tiny = scale * mpf(10) ** (-mp.dps + 6)
    L = [[mpf(1) if i == j else mpf(0) for j in range(m)] for i in range(m)]
    U = [[mpf(1) if i == j else mpf(0) for j in range(m)] for i in range(m)]
    D = [mpf(0)] * m
    for k in range(m):
        piv = a[k][k]
        if abs(piv) <= tiny:
            raise SingularMinor(k)
        D[k] = piv
        for j in range(k + 1, m):
            U[k][j] = a[k][j] / piv
        for i in range(k + 1, m):
            L[i][k] = a[i][k] / piv
        for i in range(k + 1, m):
            lik = a[i][k]
            if lik == 0:
                continue
            for j in range(k + 1, m):
                a[i][j] -= lik * a[k][j] / piv
    return L, D, U


def invert_unit_lower(L):
    """Inverse of a unit lower triangular matrix (forward substitution)."""
    m = len(L)
    inv = [[mpf(1) if i == j else mpf(0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            s = mpf(0)
            for k in range(j, i):
                s += L[i][k] * inv[k][j]
            inv[i][j] = -s
    return inv


def airy(x, ctx):
    """Airy Ai and Ai' from the Maclaurin series alone.

    The two power series both grow like exp((2/3)|x|^{3/2}) while Ai decays,
    so the sum cancels about (4/3)|x|^{3/2}/ln 10 digits; the working
    precision is boosted by that much before summing.  Accurate to relative
    10^(-digits+12) on the ranges this package touches.
    """
    x = mpf(x)
    boost = int(mpf('0.62') * abs(x) ** mpf('1.5')) + 15
    with mp.workdps(ctx.digits + boost + _GUARD):
        x = +x
        c1 = mpf(3) ** mpf(-2 / mpf(3)) / gamma(mpf(2) / 3)
        c2 = mpf(3) ** mpf(-1 / mpf(3)) / gamma(mpf(1) / 3)
        x3 = x ** 3
        # f, g solve w'' = x w with w(0)=1,w'(0)=0 and w(0)=0,w'(0)=1
        tf, tg = mpf(1), x          # current terms of f and g
        tfp, tgp = x * x / 2, mpf(1)  # current terms of f' and g'
        f, g, fp, gp = tf, tg, tfp, tgp
        peak = mpf(1)
        k = 0
        while True:
            tf *= x3 / ((3 * k + 2) * (3 * k + 3))
            tg *= x3 / ((3 * k + 3) * (3 * k + 4))
            tfp *= x3 / ((3 * k + 3) * (3 * k + 5))
            tgp *= x3 / ((3 * k + 1) * (3 * k + 3))
            f += tf
            g += tg
            fp += tfp
            gp += tgp
            peak = max(peak, abs(tf), abs(tg))
            k += 1
            if max(abs(tf), abs(tg), abs(tfp), abs(tgp)) < \
                    peak * mpf(10) ** (-(ctx.digits + boost)) and k > 4:
                break
            if k > 100000:
                raise NonConvergent("airy series did not terminate")
        ai = c1 * f - c2 * g
        aip = c1 * fp - c2 * gp
    with mp.workdps(ctx.digits):
        return +ai, +aip


# --- JSON caches --------------------------------------------------------


def num_to_str(v, digits):
    """Decimal string carrying digits + 15 significant digits of v."""
    # mpf(v) on an mpf would re-round to the ambient precision
    if not isinstance(v, mp.mpf):
        with mp.workdps(digits + 20):
            v = mpf(v)
    return mp.nstr(v, digits + 15, strip_zeros=True)


def cache_key(fields):
    """24 hex digits of the SHA-256 of the fields as sorted-key JSON."""
    blob = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]
