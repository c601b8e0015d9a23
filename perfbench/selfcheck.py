"""Self-check of the trace wiring on a tiny configuration.

    python3 perfbench/selfcheck.py

Runs one op of each workload at the smallest sizes (system-ladder's
quadratic rung at n = 3 and 36 digits, one kernel request per regime at
n = 4 plus the diagnostics, one cold and one warm `universality` call) with
every wrapper installed.  It fails, naming what is wrong, when a wrapped
function no longer exists, when a span never fires, when the per-layer
metrics differ from BENCHMARK.json's list, when an op fails its checks, or
when the coefficient solve no longer spends two residual and two Jacobian
contour integrals per Newton iteration (equilibrium.newton_iters assumes
it).  A rename in the package therefore stops here instead of reading zero.
About 30 seconds.
"""

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def run_tiny(tracer, workdir):
    """One set-up and one pass covering every wrapped layer; returns ops."""
    refs = wl.load_refs()
    with tracer.span("bench.setup"):
        kstate = wl.kernel_setup(sizes=(4,))
        fields, _ = wl.ladder_setup(0, 0)
        calls = wl.cli_setup(0, 0, workdir)
    with tracer.span("bench.pass"):
        ladder = wl.ladder_pass((fields, [("quadratic", 3)]), workdir, tracer)
        kernel = wl.kernel_pass(kstate, random.Random(0), tracer, sizes=(4,),
                                per_regime=1)
        cli_ops = wl.cli_pass(calls, tracer)
    with tracer.paused():
        for op in ladder:
            wl.ladder_check(op, refs)
        for op in kernel:
            wl.kernel_check(op, kstate, refs)
        for op in cli_ops:
            wl.cli_check(op, refs)
    return ladder + kernel + cli_ops


def newton_structure_ok(all_spans):
    """Circle integrals inside each outermost coefficient solve number 4k + 2."""
    for i, s in enumerate(all_spans):
        if s[0] != "equilibrium.solve_coefficients" or s[3] >= 0 and \
                all_spans[s[3]][0] == s[0]:
            continue
        inside = sum(1 for j, c in enumerate(all_spans)
                     if c[0] == "mpnum.circle" and spans._descends(
                         all_spans, j, i))
        if inside % 4 != 2:
            return False
    return True


def main():
    tracer = spans.Tracer("selfcheck")
    spans.install(tracer)
    workdir = os.path.join(ROOT, ".bench_work", "selfcheck")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = run_tiny(tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = ["wrapped function missing: %s" % m for m in tracer.missing]
    fired = {s[0] for s in tracer.spans}
    problems += ["span never fired: %s" % name for name in
                 sorted({t[2] for t in spans.TARGETS} - fired)]
    problems += [f for op in ops for f in op.failures]
    if not newton_structure_ok(tracer.spans):
        problems.append("coefficient solve no longer makes 4k + 2 contour "
                        "integrals; revisit equilibrium.newton_iters")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    walls = [s[2] - s[1] for s in tracer.spans if s[0] == "bench.pass"]
    computed = spans.layer_metrics(tracer.spans, walls, tracer.missing)
    problems += ["metric listed but not computed: %s" % k
                 for k in sorted(listed - set(computed))]
    problems += ["metric computed but not listed: %s" % k
                 for k in sorted(set(computed) - listed)]
    for p in problems:
        print("FAIL %s" % p)
    if problems:
        sys.exit(1)
    print("trace wiring ok: %d spans, %d targets, %d metrics, %d ops"
          % (len(tracer.spans), len(spans.TARGETS), len(computed), len(ops)))


if __name__ == "__main__":
    main()
