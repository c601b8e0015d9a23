"""Spans and counters around the package's public functions, kept in memory.

Tracing lives in the benchmark only.  install() replaces each target, on
its defining module and on every biorthlab module that imported the name
(class methods on their class), with a wrapper that records a span: name,
start, end, parent and attributes.  The benchmark opens its own root spans,
bench.setup and bench.pass, and one bench.op span per op, so every layer
span belongs to a phase.  layer_metrics() turns the spans of a run into the
per-layer metrics listed in BENCHMARK.json.
"""

import contextlib
import functools
import importlib
import inspect
import math
import statistics
import sys
import time

from mpmath import mp, log10


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    missing = ()

    def span(self, name, start=None, **attrs):
        return contextlib.nullcontext(attrs)

    def paused(self):
        return contextlib.nullcontext()

    def add(self, name, start, end, **attrs):
        pass


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, attrs]
        self.missing = []        # targets that install() could not find
        self.gl_keys = set()     # (order, precision) pairs seen so far
        self._stack = []
        self._paused = False

    @contextlib.contextmanager
    def span(self, name, start=None, **attrs):
        """A span from now, or from an earlier perf_counter() start."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter() if start is None else start, None,
               parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, **attrs):
        """Record a span measured by the caller, under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs])

    @contextlib.contextmanager
    def paused(self):
        """Run checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def extend(self, spans):
        """Append another process's spans, re-indexing their parents."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, attrs])


# --- hooks: record what a call did, from its arguments and result ---------

def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_evals(argname):
    def before(tracer, fn, attrs, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        f = bound.arguments[argname]
        attrs["evals"] = 0

        def counted(x):
            attrs["evals"] += 1
            return f(x)

        bound.arguments[argname] = counted
        return bound.args, bound.kwargs
    return before


def _gl_new(tracer, fn, attrs, args, kwargs):
    key = (_arg(fn, "order", args, kwargs), mp.prec)
    attrs["new"] = key not in tracer.gl_keys
    tracer.gl_keys.add(key)
    return args, kwargs


def _ldu_order(tracer, fn, attrs, args, kwargs):
    attrs["order"] = len(_arg(fn, "M", args, kwargs))
    return args, kwargs


def _request_shape(tracer, fn, attrs, args, kwargs):
    req = _arg(fn, "req", args, kwargs)
    attrs["regime"] = req.regime
    attrs["points"] = len(req.grid)
    return args, kwargs


def _system_health(attrs, result):
    attrs["digits"] = result.digits
    attrs["order"] = result.m + 1
    with mp.workdps(result.digits + 10):
        attrs["h_min_log10"] = float(log10(min(result.h)))


def _engine_nodes(attrs, result):
    attrs["nodes"] = getattr(getattr(result, "_engine", None), "N", 0)


def _cache_hit(attrs, result):
    attrs["hit"] = result is not None


def _value(attrs, result):
    attrs["value"] = result


# (module, attribute, span name, before-hook, after-hook)
TARGETS = (
    ("biorthlab.mpnum", "gauss_legendre_nodes", "mpnum.gl_nodes",
     _gl_new, None),
    ("biorthlab.mpnum", "integrate_gauss_legendre", "mpnum.gl_integrate",
     _count_evals("f"), None),
    ("biorthlab.mpnum", "ldu_bidiagonalize", "mpnum.ldu", _ldu_order, None),
    ("biorthlab.mpnum", "invert_unit_lower", "mpnum.tri_inverse", None, None),
    ("biorthlab.mpnum", "integrate_circle", "mpnum.circle",
     _count_evals("g"), None),
    ("biorthlab.mpnum", "airy", "mpnum.airy", None, None),
    ("biorthlab.equilibrium", "solve_coefficients",
     "equilibrium.solve_coefficients", None, None),
    ("biorthlab.equilibrium", "build_equilibrium", "equilibrium.build",
     None, _engine_nodes),
    ("biorthlab.equilibrium", "_SigmaSeries.F", "equilibrium.F", None, None),
    ("biorthlab.equilibrium", "load_equilibrium", "equilibrium.cache.load",
     None, _cache_hit),
    ("biorthlab.equilibrium", "save_equilibrium", "equilibrium.cache.save",
     None, None),
    ("biorthlab.biortho", "construct", "biortho.construct",
     None, _system_health),
    ("biorthlab.biortho", "_moment_rect", "biortho.moment_rect", None, None),
    ("biorthlab.biortho", "zeros", "biortho.zeros", None, None),
    ("biorthlab.biortho", "save_system", "biortho.save", None, None),
    ("biorthlab.biortho", "load_system", "biortho.load",
     None, _system_health),
    ("biorthlab.kernel", "evaluate_request", "kernel.request",
     _request_shape, None),
    ("biorthlab.kernel", "kernel_raw", "kernel.kernel_raw", None, None),
    ("biorthlab.kernel", "cd_coefficients", "kernel.cd_coefficients",
     None, None),
    ("biorthlab.kernel", "cd_decomposition", "kernel.cd_decomposition",
     None, None),
    ("biorthlab.kernel", "kernel_split", "kernel.kernel_split", None, None),
    ("biorthlab.cli", "_effective_digits", "cli.effective_digits",
     None, _value),
    ("biorthlab.cli", "_get_system", "cli.get_system", None, None),
    ("biorthlab.cli", "_write_json", "cli.report", None, None),
    ("biorthlab.cli", "ReportWriter.__init__", "cli.report", None, None),
    ("biorthlab.cli", "ReportWriter.row", "cli.report", None, None),
    ("biorthlab.cli", "ReportWriter.close", "cli.report", None, None),
)


def _wrap(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer._paused:
            return fn(*args, **kwargs)
        with tracer.span(name) as attrs:
            if before is not None:
                args, kwargs = before(tracer, fn, attrs, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, result)
            return result
    return traced


def install(tracer):
    """Wrap every target; a target that no longer exists is recorded in
    tracer.missing and its metrics read zero."""
    for modname, attr, name, before, after in TARGETS:
        mod = importlib.import_module(modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            tracer.missing.append("%s.%s" % (modname, attr))
            continue
        traced = _wrap(tracer, name, fn, before, after)
        if owner_name:
            setattr(owner, leaf, traced)
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("biorthlab") and \
                    getattr(other, leaf, None) is fn:
                setattr(other, leaf, traced)


# --- per-layer metrics ------------------------------------------------------

PHASES = ("bench.setup", "bench.pass")


def layer_metrics(spans, pass_walls, missing=()):
    """Per-layer metrics of one run, whose passes took `pass_walls` seconds.

    Times and counts are per pass of the timed phase (the mean over passes),
    or per set-up for the setup.* and cli.import metrics.  Maxima and
    numerical health are over the whole run.  A time sums the spans of that
    name that have no ancestor of the same name; a self time subtracts the
    child spans.
    """
    count = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * count
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    root = [0] * count
    ancestry = [()] * count      # names of the ancestors, nearest first
    for i, s in enumerate(spans):   # parents always precede their children
        p = s[3]
        root[i] = root[p] if p >= 0 else i
        ancestry[i] = (spans[p][0],) + ancestry[p] if p >= 0 else ()

    def phase(i):
        return spans[root[i]][0]

    pass_spans = sum(dur[i] for i in range(count)
                     if spans[i][3] < 0 and spans[i][0] == "bench.pass")
    n_pass = max(1, len(pass_walls))
    n_setup = max(1, sum(1 for s in spans
                         if s[3] < 0 and s[0] == "bench.setup"))

    def select(name, ph="bench.pass"):
        return [i for i in range(count)
                if spans[i][0] == name and phase(i) == ph]

    def total(name, ph="bench.pass"):
        return sum(dur[i] for i in select(name, ph)
                   if name not in ancestry[i])

    def per_pass(name):
        return total(name) / n_pass

    def calls(name):
        return len(select(name)) / n_pass

    def self_time(name):
        return sum(dur[i] - child[i] for i in select(name)) / n_pass

    def attr_sum(name, key):
        return sum(spans[i][4].get(key, 0) for i in select(name)) / n_pass

    def attr_max(name, key, default=0):
        vals = [s[4][key] for s in spans if s[0] == name and key in s[4]]
        return max(vals) if vals else default

    def warm_calls(name):
        return sum(1 for i in select(name) if _under_warm_op(spans, i)) \
            / n_pass

    def under(name, ancestor):
        return sum(dur[i] for i in select(name) if ancestor in ancestry[i]
                   and name not in ancestry[i])

    def per_setup(name):
        return total(name, "bench.setup") / n_setup

    requests = select("kernel.request")
    request_s = sum(dur[i] for i in requests)
    points = sum(spans[i][4].get("points", 0) for i in requests)
    solves = [i for i in select("equilibrium.solve_coefficients")
              if "equilibrium.solve_coefficients" not in ancestry[i]]
    iters = 0
    for i in solves:
        inside = sum(1 for j in select("mpnum.circle")
                     if _descends(spans, j, i))
        iters += math.ceil(inside / 4)
    hits = [spans[i][4].get("hit") for i in select("equilibrium.cache.load")]
    gets = select("cli.get_system")
    get_hits = sum(1 for i in gets if any(
        spans[j][0] == "biortho.load" and spans[j][3] == i
        for j in range(i + 1, count)))
    h_mins = [s[4]["h_min_log10"] for s in spans if "h_min_log10" in s[4]]
    covered = sum(dur[i] - child[i] for i in range(count)
                  if phase(i) == "bench.pass"
                  and not spans[i][0].startswith("bench."))

    m = {
        "mpnum.gl_nodes.s": per_pass("mpnum.gl_nodes"),
        "mpnum.gl_nodes.new": attr_sum("mpnum.gl_nodes", "new"),
        "mpnum.gl_integrate.s": per_pass("mpnum.gl_integrate"),
        "mpnum.gl_integrate.calls": calls("mpnum.gl_integrate"),
        "mpnum.gl_integrate.evals": attr_sum("mpnum.gl_integrate", "evals"),
        "mpnum.ldu.s": per_pass("mpnum.ldu"),
        "mpnum.ldu.calls": calls("mpnum.ldu"),
        "mpnum.ldu.order_max": attr_max("mpnum.ldu", "order"),
        "mpnum.tri_inverse.s": per_pass("mpnum.tri_inverse"),
        "mpnum.circle.s": per_pass("mpnum.circle"),
        "mpnum.circle.calls": calls("mpnum.circle"),
        "mpnum.circle.evals": attr_sum("mpnum.circle", "evals"),
        "mpnum.circle.warm_calls": warm_calls("mpnum.circle"),
        "mpnum.airy.s": per_pass("mpnum.airy"),
        "mpnum.airy.calls": calls("mpnum.airy"),
        "equilibrium.solve_coefficients.s":
            per_pass("equilibrium.solve_coefficients"),
        "equilibrium.newton_iters": iters / n_pass,
        "equilibrium.build.s": per_pass("equilibrium.build"),
        "equilibrium.engine.self_s": self_time("equilibrium.build"),
        "equilibrium.fourier_nodes": attr_max("equilibrium.build", "nodes"),
        "equilibrium.F.s": per_pass("equilibrium.F"),
        "equilibrium.F.calls": calls("equilibrium.F"),
        "equilibrium.cache.hits": sum(1 for h in hits if h) / n_pass,
        "equilibrium.cache.misses": sum(1 for h in hits if not h) / n_pass,
        "equilibrium.cache.load_s": per_pass("equilibrium.cache.load"),
        "equilibrium.cache.save_s": per_pass("equilibrium.cache.save"),
        "biortho.construct.s": per_pass("biortho.construct"),
        "biortho.construct.self_s": self_time("biortho.construct"),
        "biortho.construct.warm_calls": warm_calls("biortho.construct"),
        "biortho.moment_rect.s": per_pass("biortho.moment_rect"),
        "biortho.moment_rect.calls": calls("biortho.moment_rect"),
        "biortho.digits": max(attr_max("biortho.construct", "digits"),
                              attr_max("biortho.load", "digits")),
        "biortho.bimoment_order": max(attr_max("biortho.construct", "order"),
                                      attr_max("biortho.load", "order")),
        "biortho.h_min_log10": min(h_mins) if h_mins else 0.0,
        "biortho.zeros.s": per_pass("biortho.zeros"),
        "biortho.save.s": per_pass("biortho.save"),
        "biortho.load.s": per_pass("biortho.load"),
        "kernel.point.s": request_s / points if points else 0.0,
        "kernel.kernel_raw.s": per_pass("kernel.kernel_raw"),
        "kernel.kernel_raw.calls": calls("kernel.kernel_raw"),
        "kernel.F_share": (under("equilibrium.F", "kernel.request")
                           / request_s if request_s else 0.0),
        "kernel.cd_coefficients.s": per_pass("kernel.cd_coefficients"),
        "kernel.cd_decomposition.s": per_pass("kernel.cd_decomposition"),
        "kernel.kernel_split.s": per_pass("kernel.kernel_split"),
        "cli.import.s": per_setup("cli.import"),
        "cli.effective_digits": attr_max("cli.effective_digits", "value"),
        "cli.get_system.s": per_pass("cli.get_system"),
        "cli.system_cache.hits": get_hits / n_pass,
        "cli.system_cache.misses": (len(gets) - get_hits) / n_pass,
        "cli.report.s": per_pass("cli.report"),
        "setup.equilibrium.build.s": per_setup("equilibrium.build"),
        "setup.biortho.construct.s": per_setup("biortho.construct"),
        "setup.mpnum.gl_nodes.s": per_setup("mpnum.gl_nodes"),
        "trace.run_s": statistics.median(pass_walls) if pass_walls else 0.0,
        "trace.coverage": covered / pass_spans if pass_spans else 0.0,
        "trace.missing_targets": len(missing),
    }
    for regime in ("bulk", "edge_right", "edge_left", "raw"):
        m["kernel.request.%s.s" % regime] = sum(
            dur[i] for i in requests
            if spans[i][4].get("regime") == regime) / n_pass
    return m


def _descends(spans, i, ancestor):
    p = spans[i][3]
    while p >= 0:
        if p == ancestor:
            return True
        p = spans[p][3]
    return False


def _under_warm_op(spans, i):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == "bench.op":
            return bool(spans[p][4].get("warm"))
        p = spans[p][3]
    return False
