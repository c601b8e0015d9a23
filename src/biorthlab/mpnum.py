"""Arbitrary-precision numerical substrate.

Quadrature, one rule per kind of integrand:
- integrate_trapezoid: entire, rapidly decaying integrands on the line
  (vector-valued and nested, so every node is evaluated once);
- integrate_tanh_sinh: finite intervals with endpoint singularities.
Two integrals need no rule, since they have exact forms: the coefficient
solve's contour integrals are residues at infinity
(equilibrium._contour_integrals), and the truncated Airy overlap is a
difference of two Airy kernels (kernel.airy_kernel_integral).

Also Newton's iteration, LDU, Airy (from mpmath) and the JSON caches'
serializer, key and atomic file I/O, on mpmath reals.  Every routine takes
a PrecisionContext and runs at a guarded working precision derived from
it; callers never touch mp.dps.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from mpmath import mp, mpf, cosh, sinh, exp, pi, airyai


class NonConvergent(Exception):
    """Iteration budget exhausted before the tolerance was met."""


class SingularMinor(Exception):
    """Pivot k underflowed during LDU; carries the offending index."""

    def __init__(self, k):
        super().__init__("leading principal minor ratio %d underflowed" % k)
        self.k = k


@dataclass(frozen=True)
class PrecisionContext:
    """The working digit count.  The tolerances derive from it; the
    iteration budgets are class constants, the same at every precision."""

    digits: int
    max_panel_doublings = 12
    newton_max_iter = 60

    def __post_init__(self):
        if self.digits < 32:
            raise ValueError("digits must be >= 32")

    @classmethod
    def for_digits(cls, digits):
        return cls(digits=int(digits))

    @property
    def quad_rel_tol(self):
        return mpf(10) ** (-self.digits + 8)

    @property
    def newton_tol(self):
        return mpf(10) ** (-self.digits + 12)


@dataclass(frozen=True)
class RealInterval:
    lo: object
    hi: object

    def __post_init__(self):
        if not mpf(self.lo) < mpf(self.hi):
            raise ValueError("need lo < hi")


_GUARD = 10


def _horner(c, x):
    """sum c[k] x^k for the ascending coefficient list c."""
    s = c[-1]
    for k in range(len(c) - 2, -1, -1):
        s = s * x + c[k]
    return s


def integrate_trapezoid(f, iv, ctx, tol=None):
    """Trapezoidal rule for a vector-valued f negligible outside iv.

    f(x) returns a sequence of real or complex values.  The step halves
    from 16 intervals, each halving evaluating only the new odd nodes.
    Level L is returned when levels L and L-1 agree in every component k
    to tol(values)[k], by default quad_rel_tol * (1 + |value_k|); or,
    with R_L the worst component's |I_L - I_{L-1}| / tol_k, when over the
    last three levels the digits gained per halving have at least doubled,
    the earlier halving gained a digit, and doubling the last gain once
    more takes R below 1.  On an integrand analytic in a strip the error
    falls like e^{-2 pi a/h} (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385-458), so each halving doubles the digits gained and the next
    level's agreement can be predicted instead of computed; algebraic
    error gains a steady or erratic fraction of a digit per halving and is
    left to the first exit.  Returns the list of integrals.  Raises
    NonConvergent when max_panel_doublings halvings do not settle it.
    """
    lo, hi = mpf(iv.lo), mpf(iv.hi)
    with mp.workdps(ctx.digits + _GUARD):
        if tol is None:
            rel = mpf(ctx.quad_rel_tol)

            def tol(vals):
                return [rel * (1 + abs(v)) for v in vals]

        intervals = 16
        h = (hi - lo) / intervals
        # running sum of f over the current grid, end nodes at weight 1/2
        acc = [(a + b) / 2 for a, b in zip(f(lo), f(hi))]

        def add_nodes(first, step, count):
            for k in range(count):
                for i, v in enumerate(f(first + k * step)):
                    acc[i] += v

        add_nodes(lo + h, h, intervals - 1)
        prev = [h * s for s in acc]
        # R_{L-2}, R_{L-1}, R_L; the floor keeps an exact agreement finite
        floor = mpf(10) ** (-(ctx.digits + 10))
        ratios = []
        for _ in range(ctx.max_panel_doublings):
            add_nodes(lo + h / 2, h, intervals)
            intervals *= 2
            h /= 2
            cur = [h * s for s in acc]
            diffs = [abs(c - p) for c, p in zip(cur, prev)]
            tols = tol(cur)
            if all(e <= t for e, t in zip(diffs, tols)):
                return cur
            ratios = ratios[-2:] + [max(
                [floor] + [e / t if t else mp.inf
                           for e, t in zip(diffs, tols)])]
            if len(ratios) == 3:
                r2, r1, r0 = ratios
                # the gain doubled, the earlier gain was a digit, and one
                # more doubling predicts R_{L+1} = R_L^3 / R_{L-1}^2 <= 1
                if (r1 / r0 >= (r2 / r1) ** 2 >= 100
                        and r0 ** 3 <= r1 ** 2):
                    return cur
            prev = cur
    raise NonConvergent("trapezoid stalled at %d intervals" % intervals)


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


def newton(step, z, tol):
    """Newton's iteration z <- z - step(z), with step(z) = f(z)/f'(z).

    The one Newton loop for one unknown; it runs at the caller's
    precision, real or complex.  Returns z once |step| < tol (1 + |z|).
    Near a double root the step becomes rounding noise amplified by 1/f'
    and the root resolves only to about the square root of the working
    epsilon, so it also returns once a step below sqrt(tol) (1 + |z|) is
    no smaller than the one before.  Raises NonConvergent after
    PrecisionContext.newton_max_iter steps.
    """
    prev = None
    for _ in range(PrecisionContext.newton_max_iter):
        d = step(z)
        z = z - d
        size = abs(d)
        scale = 1 + abs(z)
        if size < tol * scale:
            return z
        # squares, so the stall test needs no square root
        if prev is not None and size >= prev and \
                size * size < tol * scale * scale:
            return z
        prev = size
    raise NonConvergent("newton: no convergence after %d steps"
                        % PrecisionContext.newton_max_iter)


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
    """Airy Ai(x) and Ai'(x), rounded to ctx.digits.

    mpmath's airyai, evaluated at _GUARD extra digits.
    """
    x = mpf(x)
    with mp.workdps(ctx.digits + _GUARD):
        ai, aip = airyai(x), airyai(x, derivative=1)
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


def save_json(path, doc):
    """Write doc to path as JSON (indent 1, sorted keys), atomically.

    The bytes go to a temporary file beside path, named so that no cache
    glob matches it, which then replaces path in one step; an interrupted
    or failed write leaves path as it was and removes the temporary file.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def str_to_num(s):
    """The mpf that the decimal string s denotes, at the working precision:
    the inverse of num_to_str.  Raises TypeError when s is not a string
    and ValueError when it names no finite number."""
    if not isinstance(s, str):
        raise TypeError("expected a decimal string, got %r" % (s,))
    v = mpf(s)
    if not mp.isfinite(v):
        raise ValueError("%r is not a finite number" % s)
    return v


def json_int(v):
    """v itself when it is a JSON integer (not a boolean), else TypeError."""
    if type(v) is not int:
        raise TypeError("expected an integer, got %r" % (v,))
    return v


def load_json(path, parse):
    """parse(doc) for the JSON document doc at path.

    A truncated or corrupt entry is an I/O failure: malformed JSON, and a
    document of the wrong shape, which parse refuses with KeyError,
    IndexError, TypeError or ValueError (a missing key, a wrong type, a
    non-numeric string, lists of the wrong length), raise an OSError
    naming path.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise OSError("malformed JSON in %s: %s" % (path, exc)) from None
    try:
        return parse(doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OSError("malformed entry %s: %s: %s"
                      % (path, type(exc).__name__, exc)) from None
