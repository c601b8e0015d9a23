"""The benchmark's three workloads: inputs drawn from a seed, set-up, one
timed pass, and the checks that decide whether each op's numbers are right.

Every op is checked against oracles the test suite already trusts (closed
forms for the quadratic field, the frozen quartic coefficients, mass and
determinant identities, positive pivots, zero interlacing) and against
reference values computed once at the seed commit (refs.json, written by
make_refs.py).  A wrong number fails its op; it does not stop the run.
"""

import contextlib
import csv
import glob
import io
import json
import os
import random
import time
import traceback

from mpmath import mp, mpf, pi, sqrt, exp, isfinite

# layer functions are called through their modules, so that the wrappers
# spans.install() puts on the modules see every call
from biorthlab import biortho, cli, equilibrium
from biorthlab import kernel as kernelmod
from biorthlab.equilibrium import (Potential, determinant_identity_residual,
                                   _require_engine)
from biorthlab.mpnum import PrecisionContext

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

QUAD = ("0", "0", "1/2")
QUARTIC = ("0", "0", "1/2", "0", "1/20")
FIELDS = {"quadratic": QUAD, "quartic": QUARTIC}

# frozen quartic coefficients at t = 1, as tests/test_equilibrium.py holds them
QUARTIC_C1 = "0.67923637034460458202"
QUARTIC_C0 = "0.26341227382278362449"
FROZEN_TOL = mpf("1e-18")

# values are compared with the seed's references at this relative tolerance
REL_TOL = mpf("1e-20")

REGIMES = ("bulk", "edge_right", "edge_left", "raw")
# bulk and raw grids: -1 .. 1, edge grids: 0 .. 2, both in steps of 1/4
CENTRED = tuple(format(k / 4, "g") for k in range(-4, 5))
EDGE = tuple(format(k / 4, "g") for k in range(0, 9))

# system-ladder: two fields on two rungs; 12n digits doubles from 36 to 72
LADDER = tuple((name, n) for name in ("quadratic", "quartic")
               for n in (3, 6))

# kernel-windows: one t = 1 engine for the quadratic field, two systems
KW_EQ_DIGITS = 32
KW_SIZES = (4, 6)
# requests per (regime, n) in one sweep: 3 grids of 3 values use each of
# the lattice's 9 values once
KW_PER_REGIME = 3
KW_DELTA, KW_DELTA_PRIME, KW_M_WINDOW = "0.15", "0.2", 4

# cli-sweep: the quartic field at n = 3, where the 12n floor (36) binds
CLI_N, CLI_DIGITS = 3, 32


def system_digits(n):
    """The CLI's working digits for a system at size n: 12n."""
    return 12 * n


def lattice(regime):
    return CENTRED if regime in ("bulk", "raw") else EDGE


def draw_grids(rng, regime, count):
    """`count` 3x3 grids, the CLI's default shape, from the regime's lattice.

    Each grid crosses 3 lattice values with themselves, and no value is in
    two grids.  Every grid therefore has 3 diagonal points, and the points
    cost about the same whatever the seed draws.  count is at most 3.
    """
    values = rng.sample(lattice(regime), 3 * count)
    grids = []
    for k in range(count):
        side = sorted(values[3 * k:3 * k + 3], key=float)
        grids.append(tuple((x, e) for x in side for e in side))
    return grids


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def close(got, want, tol=REL_TOL, floor=0):
    """|got - want| <= tol * (|want| + floor), at 60 digits."""
    with mp.workdps(60):
        w = mpf(want)
        return abs(mpf(got) - w) <= tol * (abs(w) + floor)


def all_close(got, want, tol=REL_TOL, floor=0):
    return len(got) == len(want) and all(
        close(g, w, tol, floor) for g, w in zip(got, want))


class Op:
    """One timed op: latency, its time in the workload's two kinds of work
    (cold_s and warm_s, see README.md), and the list of checks it failed.  Checked work that is not one of the
    workload's ops (kernel-windows' diagnostics) has counted = False: it is
    attempted and checked, but left out of the latency statistics."""

    def __init__(self, label, counted=True):
        self.label = label
        self.counted = counted
        self.latency = 0.0
        self.cold_s = 0.0
        self.warm_s = 0.0
        self.failures = []
        self.keep = None

    def fail(self, what):
        self.failures.append("%s: %s" % (self.label, what))

    def record_exception(self):
        self.fail("raised " + traceback.format_exc(limit=3).strip()
                  .splitlines()[-1])
        traceback.print_exc()

    def as_dict(self):
        return {"label": self.label, "counted": self.counted,
                "latency": self.latency,
                "cold_s": self.cold_s, "warm_s": self.warm_s,
                "failures": self.failures}


# ---------------------------------------------------------------------------
# system-ladder


def ladder_setup(seed, pass_index):
    """Potential objects and the seed's order of the (field, n) ops."""
    fields = {name: Potential(FIELDS[name]) for name in ("quadratic",
                                                         "quartic")}
    order = list(LADDER)
    random.Random("system-ladder:%s:%s" % (seed, pass_index)).shuffle(order)
    return fields, order


def ladder_pass(state, workdir, tracer):
    """construct, zeros at the top degree, save_system, load_system per op."""
    fields, order = state
    ops = []
    for name, n in order:
        op = Op("%s/n%d" % (name, n))
        V = fields[name]
        ctx = PrecisionContext.for_digits(system_digits(n))
        path = os.path.join(workdir, "%s_n%d.json" % (name, n))
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", label=op.label):
                sys_ = biortho.construct(V, n, n + 1, ctx)
                zs = biortho.zeros(sys_, n + 1)
                biortho.save_system(sys_, path)
                t1 = time.perf_counter()
                loaded = biortho.load_system(path, ctx, V=V)
            t2 = time.perf_counter()
            op.cold_s, op.warm_s, op.latency = t1 - t0, t2 - t1, t2 - t0
            op.keep = (name, n, sys_, zs, loaded)
        except Exception:
            op.latency = time.perf_counter() - t0
            op.record_exception()
        ops.append(op)
    return ops


def _inverse_unit_lower(A):
    m = len(A)
    inv = [[mpf(int(i == j)) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            inv[i][j] = -sum(A[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _gauss_moment(r, s, n):
    # int x^r e^{sx} e^{-n x^2/2} dx for r <= 2
    base = sqrt(2 * pi / n) * exp(mpf(s) ** 2 / (2 * n))
    mean = mpf(s) / n
    return base * (1, mean, mean ** 2 + mpf(1) / n)[r]


def _bimoment_rows(sys_, rows):
    """Rows 0..rows-1 of M = L D U rebuilt from the system's coefficients."""
    size = sys_.m + 1
    P = [list(row) + [mpf(0)] * (size - len(row)) for row in sys_.p_coeffs]
    Qm = [list(row) + [mpf(0)] * (size - len(row)) for row in sys_.q_coeffs]
    L = _inverse_unit_lower(P)
    Ut = _inverse_unit_lower(Qm)
    return [[sum(L[r][k] * sys_.h[k] * Ut[j][k] for k in range(r + 1))
             for j in range(size)] for r in range(rows)]


def _interlaced(inner, outer):
    return len(outer) == len(inner) + 1 and all(
        outer[k] < inner[k] < outer[k + 1] for k in range(len(inner)))


def ladder_check(op, refs):
    if op.keep is None:
        return
    name, n, sys_, zs, loaded = op.keep
    ref = refs["systems"]["%s/n%d" % (name, n)]
    with mp.workdps(sys_.digits + 10):
        if not all(h > 0 for h in sys_.h):
            op.fail("non-positive pivot")
        if not all_close(sys_.h, ref["h"]):
            op.fail("pivots differ from the references")
        if not all_close(loaded.h, ref["h"]):
            op.fail("loaded pivots differ from the references")
        if not (all_close(zs.zeros_p, ref["zeros_p"], floor=1)
                and all_close(zs.zeros_qx, ref["zeros_qx"], floor=1)):
            op.fail("top-degree zeros differ from the references")
        below_p = [mpf(v) for v in ref["zeros_p_below"]]
        below_q = [mpf(v) for v in ref["zeros_qx_below"]]
        if not (_interlaced(below_p, list(zs.zeros_p))
                and _interlaced(below_q, list(zs.zeros_qx))):
            op.fail("top-degree zeros do not interlace with degree m - 1")
        if name == "quadratic":
            rows = _bimoment_rows(sys_, 3)
            for r in range(3):
                for s in range(sys_.m + 1):
                    # M[1][0] is 0: measure against the column's mass
                    mass = _gauss_moment(0, s, n)
                    if not close(rows[r][s], _gauss_moment(r, s, n),
                                 floor=mass):
                        op.fail("bimoment (%d, %d) misses its Gaussian "
                                "closed form" % (r, s))
    op.keep = None


# ---------------------------------------------------------------------------
# kernel-windows


class KernelState:
    def __init__(self, eq, systems, setup_failures):
        self.eq = eq
        self.systems = systems
        self.setup_failures = setup_failures
        with mp.workdps(KW_EQ_DIGITS + 10):
            self.x_star = (eq.a + eq.b) / 2


def kernel_setup(sizes=KW_SIZES):
    """The t = 1 equilibrium and the systems, then the field's oracles."""
    V = Potential(QUAD)
    eq = equilibrium.build_equilibrium(
        V, 1, PrecisionContext.for_digits(KW_EQ_DIGITS))
    systems = {n: biortho.construct(
        V, n, n + 1, PrecisionContext.for_digits(system_digits(n)))
        for n in sizes}
    return KernelState(eq, systems, equilibrium_failures(eq, systems))


def equilibrium_failures(eq, systems):
    """Quadratic closed forms at t = 1, mass 1, the determinant identity
    and positive pivots."""
    bad = []
    with mp.workdps(KW_EQ_DIGITS + 10):
        edge = 1 / (pi * sqrt(eq.s_b))
        if not (close(eq.c1, 1) and close(eq.c0, mpf(1) / 2)):
            bad.append("c1, c0 miss the closed forms t, t/2")
        if not (close(eq.alpha, edge) and close(eq.beta, edge)):
            bad.append("alpha, beta miss 1/(pi sqrt(s_b))")
        if not close(_require_engine(eq).mass, 1):
            bad.append("density mass is not 1")
        if abs(determinant_identity_residual(eq)) > REL_TOL:
            bad.append("determinant identity residual too large")
    for n, sys_ in systems.items():
        if not all(h > 0 for h in sys_.h):
            bad.append("non-positive pivot at n = %d" % n)
    return bad


def kernel_batch(rng, sizes=KW_SIZES, per_regime=KW_PER_REGIME):
    """One sweep's requests, spread evenly over regimes and sizes."""
    batch = [(n, regime, grid) for n in sizes for regime in REGIMES
             for grid in draw_grids(rng, regime, per_regime)]
    rng.shuffle(batch)
    return batch


def _request(state, n, regime, grid):
    grid = tuple((mpf(x), mpf(e)) for x, e in grid)
    return kernelmod.KernelRequest(
        n=n, regime=regime, grid=grid,
        x_star=state.x_star if regime == "bulk" else None)


def kernel_pass(state, rng, tracer, sizes=KW_SIZES,
                per_regime=KW_PER_REGIME):
    """A sweep of fresh requests, then the diagnostics once per n as the
    `diagnostics` command calls them.  cold_s holds a request's time and
    warm_s a diagnostics run's: the two kinds of work of a pass."""
    ops = []
    for n, regime, grid in kernel_batch(rng, sizes, per_regime):
        op = Op("%s/n%d" % (regime, n))
        sys_ = state.systems[n]
        ctx = PrecisionContext.for_digits(sys_.digits)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", label=op.label):
                res = kernelmod.evaluate_request(
                    sys_, state.eq, _request(state, n, regime, grid), ctx)
            op.keep = ("request", n, regime, grid, res)
        except Exception:
            op.record_exception()
        op.latency = op.cold_s = time.perf_counter() - t0
        ops.append(op)
    for n in sizes:
        op = Op("diagnostics/n%d" % n, counted=False)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", label=op.label):
                op.keep = ("diagnostics", n) + diagnostics(state, n)
        except Exception:
            op.record_exception()
        op.latency = op.warm_s = time.perf_counter() - t0
        ops.append(op)
    return ops


def diagnostics(state, n):
    sys_, eq = state.systems[n], state.eq
    ctx = PrecisionContext.for_digits(sys_.digits)
    diag = kernelmod.cd_coefficients(sys_, mpf(KW_DELTA), KW_M_WINDOW, ctx,
                                     eq=eq)
    with mp.workdps(ctx.digits + 10):
        x_star = (eq.a + eq.b) / 2
        spacing = _require_engine(eq).psi(x_star) * n
        u = x_star + mpf("0.25") / spacing
        v = x_star - mpf("0.25") / spacing
        c = (pi * eq.beta * n) ** (mpf(2) / 3)
        ue = eq.b + mpf("0.5") / c
        ve = eq.b + mpf(1) / c
    dec = kernelmod.cd_decomposition(sys_, diag, u, v, ctx, eq=eq)
    split = kernelmod.kernel_split(sys_, eq, mpf(KW_DELTA),
                                   mpf(KW_DELTA_PRIME), KW_M_WINDOW, ue, ve,
                                   ctx)
    return diag, dec, split


def diagnostics_values(diag, dec, split, n):
    """The numbers the diagnostics CSV reports, keyed by column."""
    return {"conj_J1": abs(dec.conj_J1), "conj_J2": abs(dec.conj_J2),
            "conj_main": abs(dec.conj_main_term),
            "cK1": split.conjugated[0], "cK2": split.conjugated[1],
            "cK3": split.conjugated[2], "cK4": split.conjugated[3],
            "a_top": diag.a_coeffs[(n - 1, n)],
            "alpha_m1": diag.alpha_limits[-1]}


def kernel_check(op, state, refs):
    if op.keep is None:
        return
    for what in state.setup_failures:
        op.fail("set-up: " + what)
    if op.keep[0] == "diagnostics":
        _, n, diag, dec, split = op.keep
        ref = refs["diagnostics"]["n%d" % n]
        for key, val in diagnostics_values(diag, dec, split, n).items():
            if not close(val, ref[key]):
                op.fail("%s differs from the reference" % key)
        if not abs(dec.identity_residual) <= REL_TOL:
            op.fail("CD identity residual too large")
        op.keep = None
        return
    _, n, regime, grid, res = op.keep
    ref = refs["kernel"]["%s/n%d" % (regime, n)]
    sys_ = state.systems[n]
    for (xi, eta), val, kref in zip(grid, res.values, res.reference):
        want = ref["%s,%s" % (xi, eta)]
        if not (isfinite(val) and close(val, want[0])
                and close(kref, want[1])):
            op.fail("value at (%s, %s) differs from the reference"
                    % (xi, eta))
        if regime == "raw" and xi == eta:
            # gauge identity: the conjugation cancels on the diagonal
            if not close(val, kernelmod.kernel_raw(sys_, mpf(xi), mpf(xi))):
                op.fail("conjugated and raw kernels differ at x = %s" % xi)
    if len(res.values) != len(grid):
        op.fail("got %d values for %d points" % (len(res.values), len(grid)))
    op.keep = None


# ---------------------------------------------------------------------------
# cli-sweep


def cli_config(workdir, regime, grid, n=CLI_N, digits=CLI_DIGITS):
    return {"potential_coeffs": list(QUARTIC), "n_list": [n],
            "digits": digits, "regime": regime, "jobs": 1,
            "grid": [list(p) for p in grid],
            "cache_dir": os.path.join(workdir, "cache"),
            "output_dir": os.path.join(workdir, "out_" + regime)}


def cli_setup(seed, pass_index, workdir, n=CLI_N, digits=CLI_DIGITS):
    """Two configs sharing one empty cache: bulk (cold), edge_right (warm)."""
    rng = random.Random("cli-sweep:%s:%s" % (seed, pass_index))
    calls = []
    for regime in ("bulk", "edge_right"):
        cfg = cli_config(workdir, regime, draw_grids(rng, regime, 1)[0], n,
                         digits)
        path = os.path.join(workdir, "config_%s.json" % regime)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        calls.append((path, cfg))
    return calls


def cli_pass(calls, tracer):
    """`biorthlab universality` twice in this process: cold, then warm."""
    ops = []
    for path, cfg in calls:
        warm = cfg["regime"] != "bulk"
        op = Op("universality/%s" % cfg["regime"])
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", label=op.label, warm=warm), \
                    contextlib.redirect_stdout(out):
                code = cli.main(["--config", path, "universality"])
            if code != 0:
                op.fail("exit code %s" % code)
            op.keep = cfg
        except Exception:
            op.record_exception()
        op.latency = time.perf_counter() - t0
        if warm:
            op.warm_s = op.latency
        else:
            op.cold_s = op.latency
        ops.append(op)
    return ops


def cli_check(op, refs):
    if op.keep is None:
        return
    cfg = op.keep
    regime = cfg["regime"]
    ref = refs["cli"][regime]
    try:
        with open(os.path.join(cfg["output_dir"], "universality.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(cfg["output_dir"],
                               "universality_summary.json")) as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        op.fail("report unreadable: %s" % exc)
        op.keep = None
        return
    if len(rows) != len(cfg["grid"]):
        op.fail("%d CSV rows for %d grid points" % (len(rows),
                                                    len(cfg["grid"])))
    for row, (xi, eta) in zip(rows, cfg["grid"]):
        want = ref["%s,%s" % (xi, eta)]
        if not (close(row["xi"], xi) and close(row["eta"], eta)):
            op.fail("CSV row out of grid order at (%s, %s)" % (xi, eta))
        for col in ("value", "reference", "abs_err", "rel_err"):
            if not close(row[col], want[col]):
                op.fail("%s at (%s, %s) differs from the reference"
                        % (col, xi, eta))
    eq_files = glob.glob(os.path.join(cfg["cache_dir"], "eq_*.json"))
    sys_files = glob.glob(os.path.join(cfg["cache_dir"], "biortho_*.json"))
    if len(eq_files) != 1 or len(sys_files) != 1:
        op.fail("expected one equilibrium and one system cache entry")
    else:
        with open(eq_files[0]) as fh:
            doc = json.load(fh)
        if not (close(doc["c1"], QUARTIC_C1, FROZEN_TOL)
                and close(doc["c0"], QUARTIC_C0, FROZEN_TOL)):
            op.fail("quartic coefficients differ from the frozen values")
    op.keep = None
