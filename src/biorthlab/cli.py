"""Command line driver: configuration, orchestration, caching, reports.

One JSON config document drives every subcommand; all real numbers in it
are decimal (or fraction) strings so nothing depends on binary float
round-trips.  Reports are CSV with a header row plus a JSON summary, and
every CSV row carries the hash of the effective config, so mixed-up runs
are detectable after the fact.  Figures are rendered next to the CSV
only when matplotlib is installed (the ``plot`` extra); without it the
summary's ``"figures"`` list is empty.

Exit codes: 0 success, 2 invalid config, 3 numerics did not converge,
4 I/O failure.  A bulk x_star outside the support and a diagnostics
m_window, delta or delta_prime out of range are config errors.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, asdict, replace
from mpmath import mp, mpf, pi

from .mpnum import (PrecisionContext, NonConvergent, SingularMinor,
                    integrate_trapezoid, cache_key)
from .equilibrium import (Potential, build_equilibrium,
                          solve_coefficients, determinant_identity_residual,
                          OnBranchCut, BranchEscape, VariationalViolation,
                          _require_engine, _to_fraction)
from .biortho import (construct, save_system, load_system,
                      NonPositiveMinor, ComplexRootDetected, _SCHEMA_VERSION,
                      MAX_EXTRA_DEGREES)
from . import kernel as kernelmod
from . import _plotting

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_NUMERIC_ERRORS = (NonConvergent, SingularMinor, NonPositiveMinor,
                   ComplexRootDetected, OnBranchCut, BranchEscape,
                   VariationalViolation)

_DEFAULT_GRIDS = {
    "bulk": (("-0.5", "-0.5"), ("-0.5", "0"), ("-0.5", "0.5"),
             ("0", "-0.5"), ("0", "0"), ("0", "0.5"),
             ("0.5", "-0.5"), ("0.5", "0"), ("0.5", "0.5")),
    "edge_right": (("0", "0"), ("0", "0.5"), ("0", "1"),
                   ("0.5", "0"), ("0.5", "0.5"), ("0.5", "1"),
                   ("1", "0"), ("1", "0.5"), ("1", "1")),
}
_DEFAULT_GRIDS["edge_left"] = _DEFAULT_GRIDS["edge_right"]
_DEFAULT_GRIDS["raw"] = (("0", "0"), ("0.1", "0.3"))


class ConfigError(ValueError):
    pass


def _exact(key, v, integer=False):
    """v as an exact rational, or a ConfigError naming key."""
    # bool is an int subclass, and an integer must not truncate 2.5 to 2
    if isinstance(v, bool) or integer and not isinstance(v, int):
        raise ConfigError("%s must be an integer, got %r" % (key, v))
    try:
        return _to_fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError("%s must be a decimal or fraction, got %r"
                          % (key, v)) from None


@dataclass(frozen=True)
class RunConfig:
    potential_coeffs: tuple = ("0", "0", "1/2")
    n_list: tuple = (8,)
    t_list: tuple = ("1",)
    regime: str = "bulk"
    grid: tuple = ()
    digits: int = 64
    output_dir: str = "out"
    cache_dir: str = None
    x_star: str = None
    delta: str = "0.15"
    delta_prime: str = "0.2"
    m_window: int = 6
    jobs: int = 1

    def validate(self):
        """Check every value, without rewriting it, before any build."""
        for key in ("digits", "m_window", "jobs"):
            _exact(key, getattr(self, key), integer=True)
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")
        if any(_exact("n_list", n, integer=True) < 1 for n in self.n_list):
            raise ConfigError("n_list entries must be positive")
        if self.digits < 32:
            raise ConfigError("digits must be >= 32")
        if self.regime not in kernelmod.REGIMES:
            raise ConfigError("regime must be one of %s"
                              % ", ".join(kernelmod.REGIMES))
        if not self.t_list:
            raise ConfigError("t_list must be nonempty")
        if any(_exact("t_list", t) <= 0 for t in self.t_list):
            raise ConfigError("t_list entries must be positive")
        for pair in self.grid:
            if len(pair) != 2:
                raise ConfigError("grid entries must be (xi, eta) pairs")
            for v in pair:
                _exact("grid", v)
        for key in ("x_star", "delta", "delta_prime"):
            if getattr(self, key) is not None:
                _exact(key, getattr(self, key))
        try:
            pot = Potential(self.potential_coeffs)
        except ValueError as exc:
            raise ConfigError("potential fails the convexity/shape check: "
                              "%s" % exc)
        return pot

    def effective_grid(self):
        return self.grid or _DEFAULT_GRIDS[self.regime]


def load_config(path):
    """The RunConfig of the JSON object at path; any other JSON document
    (a list, a string, a number) is a ConfigError."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object, got %s"
                          % type(raw).__name__)
    known = {f for f in RunConfig.__dataclass_fields__}
    bad = set(raw) - known
    if bad:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(bad)))
    for key in ("potential_coeffs", "t_list", "n_list"):
        if key in raw:
            # a string is iterable too: "102" would read as 1, 0, 2
            if not isinstance(raw[key], list):
                raise ConfigError("%s must be a JSON list, got %r"
                                  % (key, raw[key]))
            raw[key] = tuple(v if key == "n_list" else str(v)
                             for v in raw[key])
    if "grid" in raw:
        if not all(isinstance(p, list) for p in raw["grid"]):
            raise ConfigError("grid entries must be [xi, eta] pairs")
        raw["grid"] = tuple(tuple(str(v) for v in p) for p in raw["grid"])
    for key in ("x_star", "delta", "delta_prime"):
        # a JSON number goes through its decimal repr, not a binary float
        if isinstance(raw.get(key), (int, float)):
            raw[key] = str(raw[key])
    return RunConfig(**raw)


def config_hash(cfg):
    return cache_key(asdict(cfg))[:12]


def _fmt(x):
    # fixed significant digits keep warm and cold CSVs byte-identical;
    # mpf(x) on an existing mpf would re-round to the ambient context, so
    # only non-mpf inputs are converted (under a wide context)
    if not isinstance(x, mp.mpf):
        with mp.workdps(40):
            x = mpf(x)
    return mp.nstr(x, 24)


class ReportWriter:
    """Serialized CSV writer; every row gets the config hash appended."""

    def __init__(self, path, header, tag):
        self.path = path
        self.tag = tag
        self.fh = open(path, "w", encoding="utf-8", newline="\n")
        self.fh.write(",".join(header + ("config_hash",)) + "\n")

    def row(self, cells):
        self.fh.write(",".join(tuple(cells) + (self.tag,)) + "\n")
        self.fh.flush()

    def close(self):
        self.fh.close()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.cache_dir:
        os.makedirs(cfg.cache_dir, exist_ok=True)


def _get_system(cfg, V, n, m, ctx):
    """The system and how the cache met it: "hit", "miss" or "off"."""
    if cfg.cache_dir:
        key = cache_key({"coeffs": V.coeff_strings(), "n": n, "m": m,
                         "digits": ctx.digits, "version": _SCHEMA_VERSION})
        path = os.path.join(cfg.cache_dir, "biortho_%s.json" % key)
        if os.path.exists(path):
            return load_system(path, ctx, V=V), "hit"
        sys_ = construct(V, n, m, ctx)
        save_system(sys_, path)
        return sys_, "miss"
    return construct(V, n, m, ctx), "off"


def _equilibrium_meta(eq):
    # engine size, its certified series tail and the cache outcome
    eng = _require_engine(eq)
    return {"fourier_nodes": eng.N, "fourier_tail": float(eng.tail),
            "equilibrium_cache": eq.cache}


def _delta_degrees(cfg, n):
    # K = floor(delta n): diagnostics build degrees through n + max(K, 1)
    return int(mpf(cfg.delta) * n)


def _effective_digits(cfg, n):
    # bimoment conditioning needs digits growing with n
    return max(cfg.digits, 12 * int(n))


# ---------------------------------------------------------------------------
# subcommands


def cmd_equilibrium(cfg):
    pot = cfg.validate()
    _ensure_out(cfg)
    tag = config_hash(cfg)
    ctx = PrecisionContext.for_digits(cfg.digits)
    path = os.path.join(cfg.output_dir, "equilibrium.csv")
    writer = ReportWriter(path, ("t", "c0", "c1", "a", "b", "alpha",
                                 "beta", "ell"), tag)
    rows, per_t = [], {}
    try:
        for t in cfg.t_list:
            eq = build_equilibrium(pot, t, ctx, cache_dir=cfg.cache_dir)
            per_t[str(t)] = _equilibrium_meta(eq)
            cells = tuple(_fmt(v) for v in (eq.t, eq.c0, eq.c1, eq.a, eq.b,
                                            eq.alpha, eq.beta, eq.ell))
            writer.row(cells)
            rows.append(cells)
    finally:
        writer.close()
    figures = _plotting.render_equilibrium(rows, cfg.output_dir)
    summary = {"config_hash": tag, "rows": len(rows), "csv": path,
               "figures": figures, "per_t": per_t}
    _write_json(os.path.join(cfg.output_dir, "equilibrium_summary.json"),
                summary)
    return summary


def cmd_biortho(cfg):
    pot = cfg.validate()
    _ensure_out(cfg)
    tag = config_hash(cfg)
    path = os.path.join(cfg.output_dir, "biortho.csv")
    writer = ReportWriter(path, ("n", "m", "digits", "h_min", "h_max",
                                 "window_lo", "window_hi"), tag)
    h_by_n, sys_cache = {}, {}
    try:
        for n in cfg.n_list:
            ctx = PrecisionContext.for_digits(_effective_digits(cfg, n))
            sys_, sys_cache[str(n)] = _get_system(cfg, pot, n, n + 1, ctx)
            h_by_n[n] = sys_.h
            writer.row((str(n), str(sys_.m), str(ctx.digits),
                        _fmt(min(sys_.h)), _fmt(max(sys_.h)),
                        _fmt(sys_.support_window.lo),
                        _fmt(sys_.support_window.hi)))
    finally:
        writer.close()
    figures = _plotting.render_biortho(h_by_n, cfg.output_dir)
    summary = {"config_hash": tag, "rows": len(h_by_n), "csv": path,
               "figures": figures, "system_cache": sys_cache}
    _write_json(os.path.join(cfg.output_dir, "biortho_summary.json"), summary)
    return summary


def _universality_one(cfg, pot, n):
    ctx = PrecisionContext.for_digits(_effective_digits(cfg, n))
    eq = build_equilibrium(pot, 1, ctx, cache_dir=cfg.cache_dir)
    sys_, outcome = _get_system(cfg, pot, n, n + 1, ctx)
    if cfg.regime == "bulk":
        x_star = (eq.a + eq.b) / 2 if cfg.x_star is None else mpf(cfg.x_star)
    else:
        x_star = None
    grid = tuple((mpf(a), mpf(b)) for a, b in cfg.effective_grid())
    req = kernelmod.KernelRequest(n=n, regime=cfg.regime, grid=grid,
                                  x_star=x_star)
    res = kernelmod.evaluate_request(sys_, eq, req, ctx)
    cells = [tuple([row[0], str(row[1])] + [_fmt(v) for v in row[2:]])
             for row in kernelmod.result_rows(req, res)]
    return n, cells, dict(kernelmod.error_summary(res),
                          **_equilibrium_meta(eq)), outcome


def cmd_universality(cfg):
    pot = cfg.validate()
    _ensure_out(cfg)
    tag = config_hash(cfg)
    path = os.path.join(cfg.output_dir, "universality.csv")
    writer = ReportWriter(path, ("regime", "n", "xi", "eta", "value",
                                 "reference", "abs_err", "rel_err"), tag)
    per_n_rows, summaries, sys_cache = {}, {}, {}
    try:
        if cfg.jobs > 1 and len(cfg.n_list) > 1:
            import multiprocessing
            with multiprocessing.Pool(min(cfg.jobs, len(cfg.n_list))) as pool:
                results = pool.starmap(
                    _universality_one,
                    [(cfg, pot, n) for n in cfg.n_list])
        else:
            results = [_universality_one(cfg, pot, n) for n in cfg.n_list]
        for n, cells, summ, outcome in results:
            for c in cells:
                writer.row(c)
            per_n_rows[n] = [(c[2], c[3], c[4], c[5], c[6]) for c in cells]
            summaries[str(n)] = summ
            sys_cache[str(n)] = outcome
    finally:
        writer.close()
    figures = _plotting.render_universality(per_n_rows, cfg.regime,
                                            cfg.output_dir)
    summary = {"config_hash": tag, "regime": cfg.regime, "per_n": summaries,
               "system_cache": sys_cache, "csv": path, "figures": figures}
    _write_json(os.path.join(cfg.output_dir, "universality_summary.json"),
                summary)
    return summary


def cmd_diagnostics(cfg):
    pot = cfg.validate()
    # the main-term window [n - m_window, n - 1] must not start below 0
    if cfg.m_window > min(cfg.n_list):
        raise ConfigError("m_window = %d exceeds n = %d; diagnostics need "
                          "m_window <= n" % (cfg.m_window, min(cfg.n_list)))
    for key in ("delta", "delta_prime"):
        if not 0 < _exact(key, getattr(cfg, key)) < 1:
            raise ConfigError("diagnostics need 0 < %s < 1" % key)
    K = _delta_degrees(cfg, max(cfg.n_list))
    if K > MAX_EXTRA_DEGREES:
        raise ConfigError("floor(delta n) = %d; diagnostics need at most %d"
                          % (K, MAX_EXTRA_DEGREES))
    _ensure_out(cfg)
    tag = config_hash(cfg)
    path = os.path.join(cfg.output_dir, "diagnostics.csv")
    writer = ReportWriter(path, ("n", "digits", "identity_residual",
                                 "conj_J1", "conj_J2", "conj_main",
                                 "cK1", "cK2", "cK3", "cK4",
                                 "a_top", "alpha_m1", "a_dev"), tag)
    fig_rows, per_n = [], {}
    alpha_rows = None
    try:
        for n in cfg.n_list:
            ctx = PrecisionContext.for_digits(_effective_digits(cfg, n))
            eq = build_equilibrium(pot, 1, ctx, cache_dir=cfg.cache_dir)
            per_n[str(n)] = _equilibrium_meta(eq)
            K = _delta_degrees(cfg, n)
            sys_, _ = _get_system(cfg, pot, n, n + max(K, 1), ctx)
            diag = kernelmod.cd_coefficients(sys_, mpf(cfg.delta),
                                             cfg.m_window, ctx, eq=eq)
            eng = _require_engine(eq)
            with mp.workdps(ctx.digits + 10):
                x_star = (eq.a + eq.b) / 2
                spacing = eng.psi(x_star) * n
                u = x_star + mpf("0.25") / spacing
                v = x_star - mpf("0.25") / spacing
                c = (pi * eq.beta * n) ** (mpf(2) / 3)
                ue = eq.b + mpf("0.5") / c
                ve = eq.b + mpf(1) / c
            dec = kernelmod.cd_decomposition(sys_, diag, u, v, ctx, eq=eq)
            split = kernelmod.kernel_split(sys_, eq, mpf(cfg.delta),
                                           mpf(cfg.delta_prime),
                                           cfg.m_window, ue, ve, ctx)
            a_top = diag.a_coeffs[(n - 1, n)]
            alpha_m1 = diag.alpha_limits[-1]
            a_dev = abs(a_top - alpha_m1)
            writer.row((str(n), str(ctx.digits),
                        # an exact identity's residual: magnitude, not noise
                        mp.nstr(dec.identity_residual, 3),
                        _fmt(abs(dec.conj_J1)), _fmt(abs(dec.conj_J2)),
                        _fmt(abs(dec.conj_main_term)),
                        _fmt(split.conjugated[0]), _fmt(split.conjugated[1]),
                        _fmt(split.conjugated[2]), _fmt(split.conjugated[3]),
                        _fmt(a_top), _fmt(alpha_m1), _fmt(a_dev)))
            fig_rows.append((n, dec.identity_residual, abs(dec.conj_J1),
                             a_dev))
            if alpha_rows is None:
                # cd_coefficients tabulates alpha_l for l = -1 .. m_window
                alpha_rows = [(l, diag.alpha_limits[l])
                              for l in range(-1, min(4, cfg.m_window) + 1)]
    finally:
        writer.close()
    apath = os.path.join(cfg.output_dir, "alpha_limits.csv")
    awriter = ReportWriter(apath, ("l", "alpha_l"), tag)
    try:
        for l, val in alpha_rows or ():
            awriter.row((str(l), _fmt(val)))
    finally:
        awriter.close()
    figures = _plotting.render_diagnostics(fig_rows, cfg.output_dir)
    summary = {"config_hash": tag, "csv": path, "alpha_csv": apath,
               "figures": figures, "per_n": per_n,
               "a_dev_by_n": {str(r[0]): float(r[3]) for r in fig_rows}}
    _write_json(os.path.join(cfg.output_dir, "diagnostics_summary.json"),
                summary)
    return summary


def cmd_verify(cfg):
    """Fast structural checklist: closed forms and exact identities.

    This is a smoke-level gate (seconds, not minutes); the full acceptance
    sweep lives in the test suite.
    """
    pot = cfg.validate()
    _ensure_out(cfg)
    ctx = PrecisionContext.for_digits(max(cfg.digits, 64))
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))
        print("[%s] %s%s" % ("PASS" if ok else "FAIL", name,
                             " (%s)" % detail if detail else ""))

    quad = Potential(("0", "0", "1/2"))
    with mp.workdps(ctx.digits + 10):
        for t in ("0.5", "1", "2"):
            c1, c0 = solve_coefficients(quad, t, ctx)
            dev = max(abs(c1 - mpf(t)), abs(c0 - mpf(t) / 2))
            check("quadratic coefficients t=%s" % t, dev < mpf("1e-20"),
                  "dev %.1e" % float(dev))
        eq = build_equilibrium(quad, 1, ctx)
        eng = _require_engine(eq)
        check("density mass = 1", abs(eng.mass - 1) < mpf("1e-20"),
              "dev %.1e" % float(abs(eng.mass - 1)))
        res = determinant_identity_residual(eq)
        check("determinant identity", abs(res) < mpf(10) ** (-ctx.digits // 2),
              "residual %.1e" % float(abs(res)))
        n0 = 4
        sctx = PrecisionContext.for_digits(max(64, 12 * n0))
        sys0 = construct(pot, n0, n0 + 1, sctx)
        tr, = integrate_trapezoid(
            lambda x: (kernelmod.kernel_raw(sys0, x, x),),
            sys0.support_window, sctx)
        check("kernel trace = n at n=4", abs(tr - n0) < mpf("1e-10"),
              "dev %.1e" % float(abs(tr - n0)))
        ai = kernelmod.airy_kernel_integral(0, 1, 12, ctx)
        ak = kernelmod.airy_kernel(0, 1, ctx)
        check("Airy overlap identity", abs(ai - ak) < mpf("1e-8") * abs(ak),
              "dev %.1e" % float(abs(ai - ak)))
        for k in (20, 40):
            worst = mpf(0)
            for j in range(-10, 11):
                z = mpf(5) * j / 10
                worst = max(worst, abs(mp.exp(z) - kernelmod.exp_trunc(z, k)))
            bound = mpf("1e12") * mp.exp(-mpf(k) / 2 * mp.log(k))
            check("exp truncation k=%d" % k, worst < bound,
                  "worst %.1e bound %.1e" % (float(worst), float(bound)))
    ok = all(c[1] for c in checks)
    summary = {"config_hash": config_hash(cfg),
               "checks": [{"name": c[0], "pass": c[1], "detail": c[2]}
                          for c in checks],
               "all_pass": ok}
    _write_json(os.path.join(cfg.output_dir, "verify_summary.json"), summary)
    if not ok:
        raise NonConvergent("verify checklist failed")
    return summary


# ---------------------------------------------------------------------------
# entry point


def _parser():
    p = argparse.ArgumentParser(
        prog="biorthlab",
        description="equilibrium measures, biorthogonal systems, and "
                    "kernel scaling limits for the e^x-interaction ensemble")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--digits", type=int, help="override working digits")
    p.add_argument("--out", help="override output directory")
    p.add_argument("--cache", help="cache directory")
    p.add_argument("--jobs", type=int, help="parallel workers across n_list")
    p.add_argument("command", choices=("equilibrium", "biortho",
                                       "universality", "diagnostics",
                                       "verify"))
    return p


_COMMANDS = {"equilibrium": cmd_equilibrium, "biortho": cmd_biortho,
             "universality": cmd_universality, "diagnostics": cmd_diagnostics,
             "verify": cmd_verify}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.digits is not None:
            cfg = replace(cfg, digits=args.digits)
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
        if args.cache is not None:
            cfg = replace(cfg, cache_dir=args.cache)
        if args.jobs is not None:
            cfg = replace(cfg, jobs=args.jobs)
        cfg.validate()
    except (ConfigError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    t0 = time.time()
    try:
        summary = _COMMANDS[args.command](cfg)
    except (ConfigError, kernelmod.OutsideBulk) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERIC_ERRORS as exc:
        print("numerical error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    print("%s finished in %.1f s; outputs in %s"
          % (args.command, time.time() - t0, cfg.output_dir))
    if "csv" in summary:
        print("  csv: %s" % summary["csv"])
    for fig in summary.get("figures", ()):
        print("  figure: %s" % fig)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
