"""biorthlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workloads are system-ladder, kernel-windows and cli-sweep (see README.md in
this directory).  Each run does the workload's set-up, then the workload's
fixed number of timed passes (PASSES below), checks every number the
package returned, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics, taken by wrapping the package's functions.

Exactly one process computes at a time.  system-ladder runs each op, and
cli-sweep each pass, in a fresh child process (this script with --child),
so each pays what a new process pays; kernel-windows builds its inputs once
in this process and runs its passes here.  Set-up time is the median of
several set-ups, each timed from the top of this script in its own process.
"""

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE_PATH = os.path.join(HERE, "baseline_seed.json")

WORKLOADS = ("system-ladder", "kernel-windows", "cli-sweep")
# Timed passes per run.  The count is fixed, so every commit does the same
# work and the op counts, and with them the tail percentile, match; a run
# reports medians over its passes.  --seconds is accepted and not used.
PASSES = {"system-ladder": 4, "kernel-windows": 4, "cli-sweep": 3}
SETUP_SAMPLES = {"system-ladder": 5, "kernel-windows": 3, "cli-sweep": 9}
# a run must end within 180 s; children are stopped after this many seconds
DEADLINE_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process doing one set-up, or one pass (one op of a
    # system-ladder pass)
    p.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    p.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--op-index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--run-id", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import the checkout's package; returns (workloads module, seconds)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import workloads
    import biorthlab
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(biorthlab.__file__)) != \
            os.path.join(SRC, "biorthlab"):
        raise ImportError("biorthlab imported from %s, not from %s"
                          % (biorthlab.__file__, SRC))
    return workloads, (t0, t0 + elapsed)


# ---------------------------------------------------------------------------
# environment


def environment():
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "commit": _commit(),
            "src_sha256": _src_digest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "biorthlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_backend(env):
    """Refuse to run against a baseline taken with another mpmath backend:
    gmpy2 would make every number faster without any change to the code."""
    if not os.path.exists(BASELINE_PATH):
        return
    with open(BASELINE_PATH) as fh:
        want = json.load(fh)["env"]["mpmath_backend"]
    if env["mpmath_backend"] != want:
        sys.exit("mpmath backend is %r but the baseline was measured with "
                 "%r; results would not be comparable"
                 % (env["mpmath_backend"], want))


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# statistics


def tail(latencies):
    """The highest percentile with at least 10 ops beyond it, as (value,
    percentile).  Below 21 ops that percentile would lie under the median,
    so the tail is then the maximum."""
    xs = sorted(latencies)
    if len(xs) < 21:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def latency_stats(per_pass):
    """op_p50_s, op_tail_s and the tail's percentile from each pass's list
    of op latencies.  Passes of at least 21 ops are pooled.  Smaller passes
    hold no tail percentile, and their pooled median would fall between ops
    of different sizes: each pass then gives its median and its slowest op,
    and the run reports the median of each over its passes."""
    if min(len(p) for p in per_pass) >= 21:
        pooled = [x for p in per_pass for x in p]
        return (statistics.median(pooled),) + tail(pooled)
    return (statistics.median(statistics.median(p) for p in per_pass),
            statistics.median(max(p) for p in per_pass), 100.0)


def per_pass_mean(passes, part):
    """Time spent per pass on one part of the work, over the whole run.
    kernel-windows' diagnostics take about a second a pass, too short for
    a median of four passes to settle."""
    return sum(o[part] for p in passes for o in p["ops"]) / len(passes)


def end_to_end(setups, passes):
    """passes: [{"wall", "ops": [Op.as_dict()]}] of the passes that ran.
    Latencies and op counts cover the counted ops only; cold_s and warm_s
    cover all checked work."""
    walls = [p["wall"] for p in passes]
    per_pass = [[o["latency"] for o in p["ops"] if o["counted"]]
                for p in passes]
    p50, tail_s, pct = latency_stats(per_pass)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(walls),
        "ops_per_s": statistics.median(len(lat) / w
                                       for lat, w in zip(per_pass, walls)),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "cold_s": per_pass_mean(passes, "cold_s"),
        "warm_s": per_pass_mean(passes, "warm_s"),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"op_tail_percentile": pct,
             "op_count": sum(len(lat) for lat in per_pass),
             "passes": len(passes), "setup_samples": len(setups)}
    return metrics, notes


# ---------------------------------------------------------------------------
# children


class Child:
    """One child process at a time, stopped if it outlives the deadline."""

    def __init__(self, args, run_id):
        self.args = args
        self.run_id = run_id

    def run(self, kind, pass_index=0, op_index=0):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--trace", str(self.args.trace), "--child", kind,
               "--pass-index", str(pass_index), "--op-index", str(op_index),
               "--run-id", self.run_id]
        left = DEADLINE_S - (time.perf_counter() - T0)
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            print("child %s %d stopped at the deadline" % (kind, pass_index),
                  file=sys.stderr)
            return None
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("child %s %d exited with %d" % (kind, pass_index,
                                                   out.returncode),
                  file=sys.stderr)
            return None
        return json.loads(lines[-1])


def make_tracer(enabled, run_id):
    import spans
    if not enabled:
        return spans.NullTracer()
    tracer = spans.Tracer(run_id)
    spans.install(tracer)
    return tracer


def child_main(args, wl, import_span):
    """Do one set-up (and one pass) in this process and print the result."""
    tracer = make_tracer(args.trace and args.child == "pass", args.run_id)
    workdir = os.path.join(work_root(args.run_id), "%s-%d-%d" % (
        args.child, args.pass_index, args.op_index))
    os.makedirs(workdir, exist_ok=True)
    with tracer.span("bench.setup", start=T0):
        tracer.add("cli.import", *import_span)
        state = _setup(args, wl, workdir)
    result = {"setup_s": time.perf_counter() - T0}
    if args.child == "pass":
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            ops = _pass(args, wl, state, workdir, tracer)
        result["wall"] = time.perf_counter() - t0
        with tracer.paused():
            refs = wl.load_refs()
            check = (wl.ladder_check if args.workload == "system-ladder"
                     else wl.cli_check)
            for op in ops:
                check(op, refs)
        result["ops"] = [op.as_dict() for op in ops]
        if args.trace:
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing
    print(json.dumps(result))


def _setup(args, wl, workdir):
    if args.workload == "system-ladder":
        fields, order = wl.ladder_setup(args.seed, args.pass_index)
        return fields, order[args.op_index:args.op_index + 1]
    if args.workload == "cli-sweep":
        return wl.cli_setup(args.seed, args.pass_index, workdir)
    return wl.kernel_setup()


def _pass(args, wl, state, workdir, tracer):
    if args.workload == "system-ladder":
        return wl.ladder_pass(state, workdir, tracer)
    return wl.cli_pass(state, tracer)


def work_root(run_id):
    """Scratch space of one run inside the checkout, removed at its end."""
    return os.path.join(ROOT, ".bench_work", run_id)


# ---------------------------------------------------------------------------
# parent


def timed_passes(run_pass, count):
    """Run `count` passes, fewer if the next one would pass the deadline.
    run_pass(k) returns a pass dict or None if it failed."""
    passes = []
    start = time.perf_counter()
    for k in range(count):
        now = time.perf_counter()
        if k and now - T0 + (now - start) / k > DEADLINE_S:
            print("stopped after %d of %d passes at the deadline"
                  % (k, count), file=sys.stderr)
            break
        p = run_pass(k)
        if p is not None:
            passes.append(p)
    return passes


def run_children(args, wl, run_id, tracer):
    """system-ladder: one child per op; cli-sweep: one child per pass.
    Returns the set-up samples, the passes and the count of lost ops."""
    child = Child(args, run_id)
    if args.workload == "system-ladder":
        children, ops_per_child = len(wl.LADDER), 1
    else:
        children, ops_per_child = 1, 2
    setups, lost = [], [0]

    def one(k):
        parts = []
        for i in range(children):
            res = child.run("pass", k, i)
            if res is None:
                lost[0] += ops_per_child
                continue
            setups.append(res["setup_s"])
            if args.trace:
                tracer.extend(res["spans"])
                tracer.missing[:] = res["missing"]
            parts.append(res)
        if not parts:
            return None
        return {"wall": sum(r["wall"] for r in parts),
                "ops": [o for r in parts for o in r["ops"]]}

    passes = timed_passes(one, PASSES[args.workload])
    more_setups(args, child, setups)
    return setups, passes, lost[0]


def more_setups(args, child, setups):
    """Add set-up-only children until the workload has its set-up samples."""
    if args.trace:
        return
    while len(setups) < SETUP_SAMPLES[args.workload]:
        res = child.run("setup", len(setups))
        if res is None:
            return
        setups.append(res["setup_s"])


def run_kernel_windows(args, wl, run_id, tracer, import_span):
    with tracer.span("bench.setup", start=T0):
        tracer.add("cli.import", *import_span)
        state = wl.kernel_setup()
    setups = [time.perf_counter() - T0]
    refs = wl.load_refs()
    rng = random.Random("kernel-windows:%s" % args.seed)

    def one(k):
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            ops = wl.kernel_pass(state, rng, tracer)
        wall = time.perf_counter() - t0
        with tracer.paused():
            for op in ops:
                wl.kernel_check(op, state, refs)
        return {"wall": wall, "ops": [op.as_dict() for op in ops]}

    passes = timed_passes(one, PASSES[args.workload])
    more_setups(args, Child(args, run_id), setups)
    return setups, passes, 0


def parent_main(args, wl, import_span, env):
    run_id = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    tracer = make_tracer(args.trace, run_id)
    try:
        _parent_run(args, wl, import_span, env, run_id, tracer)
    finally:
        shutil.rmtree(work_root(run_id), ignore_errors=True)


def _parent_run(args, wl, import_span, env, run_id, tracer):
    if args.workload == "kernel-windows":
        setups, passes, lost = run_kernel_windows(args, wl, run_id, tracer,
                                                  import_span)
    else:
        setups, passes, lost = run_children(args, wl, run_id, tracer)
    if not passes:
        sys.exit("no pass completed")
    ops = [o for p in passes for o in p["ops"]]
    failures = [f for o in ops for f in o["failures"]]
    attempted = len(ops) + lost
    failed = sum(1 for o in ops if o["failures"]) + lost
    for f in failures[:20]:
        print("FAILED %s" % f, file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        import spans
        computed = spans.layer_metrics(
            tracer.spans, [p["wall"] for p in passes], tracer.missing)
        listed = spec["per_layer"]
        for name in tracer.missing:
            print("trace target missing: %s" % name, file=sys.stderr)
        _write_trace(args, tracer, computed, env)
        notes = {"passes": len(passes)}
    else:
        computed, notes = end_to_end(setups, passes)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in listed}

    print("env %s" % json.dumps(env, sort_keys=True))
    print("notes %s" % json.dumps(notes, sort_keys=True))
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%-36s %16.6g (failed %d of %d ops)" % (
        "failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _write_trace(args, tracer, metrics, env):
    """Spans and metrics of a traced run, written when the run ends."""
    out = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({"run_id": tracer.run_id, "env": env, "metrics": metrics,
                   "spans": tracer.spans}, fh)


def main():
    args = parse_args()
    try:
        wl, import_span = import_package()
    except ImportError:
        traceback.print_exc()
        sys.exit("cannot import biorthlab from %s" % SRC)
    if args.child:
        child_main(args, wl, import_span)
        return
    env = environment()
    check_backend(env)
    parent_main(args, wl, import_span, env)


if __name__ == "__main__":
    main()
