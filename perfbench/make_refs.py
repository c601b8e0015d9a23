"""Compute refs.json: the reference values the benchmark checks against.

    python3 perfbench/make_refs.py

Run once, from the root of a checkout of the commit whose numbers are the
reference (the seed commit).  It evaluates every point of each workload's
lattice, not only the points one seed draws, so any seed can be checked.
It takes about two minutes.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from mpmath import mp  # noqa: E402

import workloads as wl  # noqa: E402
from biorthlab import cli  # noqa: E402
from biorthlab import kernel as kernelmod  # noqa: E402
from biorthlab.biortho import construct, zeros  # noqa: E402
from biorthlab.equilibrium import Potential  # noqa: E402
from biorthlab.mpnum import PrecisionContext  # noqa: E402


def dstr(v):
    return mp.nstr(v, 40)


def full_grid(regime):
    values = wl.lattice(regime)
    return tuple((x, e) for x in values for e in values)


def system_refs():
    out = {}
    for name, n in wl.LADDER:
        ctx = PrecisionContext.for_digits(wl.system_digits(n))
        sys_ = construct(Potential(wl.FIELDS[name]), n, n + 1, ctx)
        top, below = zeros(sys_, n + 1), zeros(sys_, n)
        with mp.workdps(sys_.digits + 10):
            out["%s/n%d" % (name, n)] = {
                "h": [dstr(v) for v in sys_.h],
                "zeros_p": [dstr(v) for v in top.zeros_p],
                "zeros_qx": [dstr(v) for v in top.zeros_qx],
                "zeros_p_below": [dstr(v) for v in below.zeros_p],
                "zeros_qx_below": [dstr(v) for v in below.zeros_qx]}
    return out


def kernel_refs(state):
    out = {}
    for n, sys_ in state.systems.items():
        ctx = PrecisionContext.for_digits(sys_.digits)
        for regime in wl.REGIMES:
            grid = full_grid(regime)
            res = kernelmod.evaluate_request(
                sys_, state.eq, wl._request(state, n, regime, grid), ctx)
            with mp.workdps(sys_.digits + 10):
                out["%s/n%d" % (regime, n)] = {
                    "%s,%s" % p: [dstr(v), dstr(r)]
                    for p, v, r in zip(grid, res.values, res.reference)}
    return out


def diagnostics_refs(state):
    out = {}
    for n, sys_ in state.systems.items():
        vals = wl.diagnostics_values(*wl.diagnostics(state, n), n)
        with mp.workdps(sys_.digits + 10):
            out["n%d" % n] = {k: dstr(v) for k, v in vals.items()}
    return out


def cli_refs():
    workdir = os.path.join(ROOT, ".bench_work", "refs")
    shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    try:
        for regime in ("bulk", "edge_right"):   # cold, then warm
            cfg = wl.cli_config(workdir, regime, full_grid(regime))
            path = os.path.join(workdir, "config_%s.json" % regime)
            os.makedirs(workdir, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--config", path, "universality"]) != 0:
                    raise SystemExit("universality failed for " + regime)
            with open(os.path.join(cfg["output_dir"],
                                   "universality.csv")) as fh:
                rows = list(csv.DictReader(fh))
            out[regime] = {
                "%s,%s" % tuple(p): {c: row[c] for c in ("value", "reference",
                                                   "abs_err", "rel_err")}
                for p, row in zip(cfg["grid"], rows)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main():
    state = wl.kernel_setup()
    if state.setup_failures:
        raise SystemExit("set-up oracles fail: %s" % state.setup_failures)
    refs = {"systems": system_refs(), "kernel": kernel_refs(state),
            "diagnostics": diagnostics_refs(state), "cli": cli_refs()}
    with open(wl.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
