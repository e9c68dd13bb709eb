"""nlts benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is importing nlts from ./src,
with every nlts module dropped from sys.modules first, and building the
seeded inputs and contexts.  Then rounds of jobs run back to back until
their summed job time reaches --seconds; each job is one call into the
public API, timed from outside, and its output is checked outside the
timed region.  The set-up is repeated SETUP_REPEATS - 1 more times,
spread evenly over the timed part, and the median of all of them is
``setup_s``.  Every time is scaled to a fixed reference speed of the
machine (see ``Speed``).  With --trace 1 the run instead replays every
job of the seeded rounds once untraced and once under the span tracer,
and prints the per-layer metrics (per round) plus the tracing overhead;
a first untraced pass warms the caches and is checked but not timed.
The last line of standard output is the JSON result.  See
perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 15
VARIANTS = 3

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}

# Per-layer metric -> unit.  Times are self times in seconds per round.
PER_LAYER = {}
for _d in (1, 3, 5):
    PER_LAYER["cohomology.assembly.deg%d.s" % _d] = "s"
    for _k in ("rows", "cols", "rank"):
        PER_LAYER["cohomology.matrix.deg%d.%s" % (_d, _k)] = "count"
PER_LAYER.update({
    "cohomology.complex_init.s": "s",
    "cohomology.complex_init.calls": "count",
    "cohomology.is_cocycle.s": "s",
    "cohomology.is_coboundary.s": "s",
    "linalg.rank.s": "s",
    "linalg.kernel_basis.s": "s",
    "linalg.solve_linear.s": "s",
    "linalg.entries": "count",
    "operators.nijenhuis_defect.s": "s",
    "operators.nijenhuis_defect.calls": "count",
    "operators.grid.candidates": "count",
    "operators.grid.hits": "count",
    "operators.grid.candidates_per_s": "1/s",
    "operators.induced_bracket.s": "s",
    "operators.classify_by_square.s": "s",
    "lts.bracket.calls": "count",
    "lts.check_lts.s": "s",
    "lts.check_lts.calls": "count",
    "lts.check_representation.s": "s",
    "nrep.check_nijenhuis_rep.s": "s",
    "nrep.deformed_theta.s": "s",
    "extensions.build_extension.s": "s",
    "extensions.validate_extension.s": "s",
    "extensions.extensions_equivalent.s": "s",
    "extensions.valid_ratio": "frac",
    "twosys.check_2system.s": "s",
    "twosys.check_nijenhuis_2system.s": "s",
    "twosys.check_crossed_module.s": "s",
    "twosys.convert.s": "s",
    "jsonio.load.s": "s",
    "jsonio.dump.s": "s",
    "jsonio.bytes": "B",
    "cli.run.self_s": "s",
    "cli.exit0": "count",
    "cli.exit1": "count",
    "cli.exit2": "count",
    "cli.tracebacks": "count",
    "trace.overhead_frac": "frac",
    "fail_frac": "frac",
})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one set-up, one seeded round: a quick self-test")
    p.add_argument("--spans-out", default=None,
                   help="where --trace 1 writes its spans (default "
                        "perfbench/out/spans-<workload>-<seed>.json)")
    return p.parse_args(argv)


def nlts_modules():
    return {m: mod for m, mod in sys.modules.items()
            if m == "nlts" or m.startswith("nlts.")}


def import_nlts():
    """A fresh import of nlts: every module-level cache starts cold."""
    for name in nlts_modules():
        del sys.modules[name]
    return importlib.import_module("nlts")


_PROBE_V = tuple(Fraction(i, 7) for i in range(1, 41))
# The probe's time at the reference speed: its usual time on the 2-vCPU VM
# (CPython 3.11.7) the benchmark was tuned on.
PROBE_REF_S = 1.2e-3


class Speed:
    """The machine's speed through a run, read by a fixed probe.

    A shared VM runs up to 1.5 times faster or slower for seconds to
    minutes at a time (seen on 2 vCPUs), so a run's times depend on what it
    catches.  The probe is a fixed piece of exact pure-Python arithmetic,
    run before and after every measurement with the garbage collector off.
    ``scaled`` turns each time t into the time it would take at the
    reference speed: t * PROBE_REF_S / local, where local is the median of
    the twelve probe times around it.
    """

    def __init__(self):
        self.samples = []

    def probe(self):
        gc.disable()
        t0 = time.perf_counter()
        acc = 0
        for k in range(1, 5):
            acc += sum(a * k - b for a, b in zip(_PROBE_V, _PROBE_V[1:]))
        d = {}
        for i in range(100):
            d[i % 7, i % 5] = d.get((i % 7, i % 5), 0) + i
        self.samples.append(time.perf_counter() - t0)
        gc.enable()
        return len(self.samples) - 1

    def scaled(self, times, probes):
        """Each time t, measured between probes lo and hi, at reference speed."""
        return [t * PROBE_REF_S / statistics.median(self.samples[max(0, lo - 5):hi + 6])
                for t, (lo, hi) in zip(times, probes)]


class Setup:
    """Timed set-ups of one workload and seed; the first one is kept."""

    def __init__(self, workload, seed, variants, workdir, speed):
        self.args = workload, seed, variants
        self.workdir = workdir
        self.speed = speed
        self.times = []
        self.probes = []
        self.nlts = self.rounds = None

    def __call__(self):
        workload, seed, variants = self.args
        kept = nlts_modules()
        workdir = os.path.join(self.workdir, "setup%d" % len(self.times))
        gc.collect()  # so a repeat does not pay for freeing an earlier one
        lo = self.speed.probe()
        t0 = time.perf_counter()
        nlts = import_nlts()
        rounds = workloads.build(workload, nlts, random.Random(seed),
                                 variants, workdir)
        self.times.append(time.perf_counter() - t0)
        self.probes.append((lo, self.speed.probe()))
        if self.rounds is None:
            self.nlts, self.rounds = nlts, rounds
        else:
            # A repeat is timed only: the jobs keep the first set-up's
            # modules, so the run never mixes two copies of nlts.
            for name in nlts_modules():
                del sys.modules[name]
            sys.modules.update(kept)
            shutil.rmtree(workdir, ignore_errors=True)


def commit():
    """HEAD of the checkout's git metadata, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Outcomes:
    """Per-job times and verdicts of one pass over some rounds.

    With a ``Speed``, the machine is probed before and after every job.
    """

    def __init__(self, speed=None):
        self.times = []
        self.probes = []
        self.speed = speed
        self.failed = 0
        self.unexpected = []
        self.raised = 0
        self.exits = Counter()

    def run(self, rounds, tracer=None):
        for job in (j for r in rounds for j in r):
            if self.speed is not None:
                lo = self.speed.probe()
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.job = len(self.times)
                root = tracer.open("bench.job")
            try:
                out = job.call()
                err = None
            except Exception as exc:  # a traceback is a failed job
                err = exc
            if tracer is not None:
                tracer.close(root)
                tracer.on = False
            dt = time.perf_counter() - t0
            self.times.append(dt)
            if self.speed is not None:
                self.probes.append((lo, self.speed.probe()))
            ok = err is None and self.check(job, out)
            if tracer is not None:
                tracer.on = True
            if err is not None:
                self.raised += 1
            elif job.kind.startswith("cli."):
                self.exits[out[0]] += 1
            if not ok:
                self.failed += 1
                if not job.known_defect:
                    detail = (traceback.format_exception_only(type(err), err)[-1]
                              if err is not None else "wrong output")
                    self.unexpected.append("%s: %s" % (job.kind, detail.strip()))

    @staticmethod
    def check(job, out):
        try:
            return bool(job.check(out))
        except Exception:
            return False


def run_timed(rounds, seconds, setup, repeats, speed):
    """Whole rounds, cycling the seeded variants, until job time >= seconds.

    The set-up is repeated ``repeats`` times between rounds, spread evenly
    over the job time, so its median is taken over the same mix of machine
    conditions as the jobs; a shared VM can run faster for some seconds.
    """
    res = Outcomes(speed)
    r = 0
    while r == 0 or sum(res.times) < seconds:
        res.run([rounds[r % len(rounds)]])
        r += 1
        done = len(setup.times) - 1
        if done < repeats and sum(res.times) >= seconds * (done + 1) / (repeats + 1):
            setup()
    while len(setup.times) - 1 < repeats:
        setup()
    return res


def layer_metrics(tracer, traced, untraced_s, nrounds):
    selfs = tracer.self_times()
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = Counter()
    for (name, start, end, _, _), s in zip(tracer.spans, selfs):
        self_s[name] += s
        incl_s[name] += end - start
        calls[name] += 1
    c = tracer.counts
    out = {}
    for d in (1, 3, 5):
        out["cohomology.assembly.deg%d.s" % d] = sum(
            self_s["cohomology.%s.deg%d" % (m, d)]
            for m in ("d_rank", "kernel_pairs", "cohomology_dim", "is_coboundary"))
        for k in ("rows", "cols", "rank"):
            key = "cohomology.matrix.deg%d.%s" % (d, k)
            out[key] = c[key]
    out["cohomology.complex_init.s"] = self_s["cohomology.complex_init"]
    out["cohomology.complex_init.calls"] = calls["cohomology.complex_init"]
    out["cohomology.is_cocycle.s"] = self_s["cohomology.is_cocycle"]
    out["cohomology.is_coboundary.s"] = sum(
        v for k, v in self_s.items() if k.startswith("cohomology.is_coboundary."))
    for name in ("linalg.rank", "linalg.kernel_basis", "linalg.solve_linear",
                 "operators.nijenhuis_defect", "operators.induced_bracket",
                 "operators.classify_by_square", "lts.check_lts",
                 "lts.check_representation", "nrep.check_nijenhuis_rep",
                 "nrep.deformed_theta", "extensions.build_extension",
                 "extensions.validate_extension",
                 "extensions.extensions_equivalent", "twosys.check_2system",
                 "twosys.check_nijenhuis_2system", "twosys.check_crossed_module",
                 "twosys.convert", "jsonio.load", "jsonio.dump"):
        out[name + ".s"] = self_s[name]
    out["cli.run.self_s"] = self_s["cli.run"]
    out["operators.nijenhuis_defect.calls"] = calls["operators.nijenhuis_defect"]
    out["lts.check_lts.calls"] = calls["lts.check_lts"]
    for key in ("linalg.entries", "operators.grid.candidates",
                "operators.grid.hits", "lts.bracket.calls", "jsonio.bytes"):
        out[key] = c[key]
    for code in (0, 1, 2):
        out["cli.exit%d" % code] = traced.exits[code]
    out["cli.tracebacks"] = traced.raised if any(
        name == "cli.run" for name in calls) else 0
    # Everything so far is a total over the replayed rounds: make it per round.
    out = {k: v / nrounds for k, v in out.items()}
    grid_s = incl_s["operators.grid"]
    out["operators.grid.candidates_per_s"] = (
        c["operators.grid.candidates"] / grid_s if grid_s else 0.0)
    builds = calls["extensions.build_extension"]
    out["extensions.valid_ratio"] = c["extensions.valid"] / builds if builds else 0.0
    traced_s = sum(traced.times)
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    out["fail_frac"] = traced.failed / len(traced.times)
    return out, selfs


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("NLTS_THREADS", None)
    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nlts", "__init__.py")):
        print("error: no nlts package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    # setup_s is reported by untraced full runs only.
    repeats = 0 if args.smoke or args.trace else SETUP_REPEATS - 1
    variants = 1 if args.smoke else VARIANTS
    workdir = os.path.join(HERE, "out", "%s-%d" % (args.workload, os.getpid()))
    try:
        workloads.precompute(args.workload, import_nlts())
        speed = Speed()
        setup = Setup(args.workload, args.seed, variants, workdir, speed)
        setup()
        nlts, rounds = setup.nlts, setup.rounds
        threads = threading.active_count()
        if args.trace:
            import spans
            warmup = Outcomes()
            warmup.run(rounds)
            tracer = spans.Tracer()
            untraced, traced = Outcomes(), Outcomes()
            for i, job in enumerate(j for r in rounds for j in r):
                # Each job runs untraced and traced back to back, in
                # alternating order, so both passes see the same conditions.
                # The untraced pass runs with the wrappers taken out.
                for traced_now in ((False, True) if i % 2 else (True, False)):
                    if traced_now:
                        tracer.install(nlts)
                        tracer.on = True
                        traced.run([[job]], tracer)
                        tracer.on = False
                        tracer.uninstall()
                    else:
                        untraced.run([[job]])
            metrics, selfs = layer_metrics(tracer, traced, sum(untraced.times),
                                           len(rounds))
            units = PER_LAYER
            passes = (warmup, untraced, traced)
            write_spans(args, tracer, selfs, traced)
        else:
            res = run_timed(rounds, 0 if args.smoke else args.seconds,
                            setup, repeats, speed)
            ms = [1000 * t for t in speed.scaled(res.times, res.probes)]
            setups = speed.scaled(setup.times, setup.probes)
            metrics = {
                "jobs_per_s": 1000 * len(ms) / sum(ms),
                "job_p50_ms": statistics.median(ms),
                "job_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
                "ok_frac": 1 - res.failed / len(res.times),
            }
            units = END_TO_END
            passes = (res,)

        threads = max(threads, threading.active_count())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    unexpected = [u for p in passes for u in p.unexpected]
    correct = not unexpected and threads == 1
    for line in unexpected[:20]:
        print("unexpected failure: %s" % line, file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "nproc": os.cpu_count(), "threads": threads,
        "setup_runs_s": setup.times, "jobs": attempted,
        "probe_median_ms": 1000 * statistics.median(speed.samples),
        "kinds": dict(Counter(j.kind for r in rounds for j in r)),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        extra = (" (over %d jobs)" % attempted if name.startswith("job_p") else "")
        print("%-40s %14.6g %s%s" % (name, value, units[name], extra))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(args, tracer, selfs, traced):
    path = args.spans_out or os.path.join(
        HERE, "out", "spans-%s-%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "self"],
                   "spans": [s + [t] for s, t in zip(tracer.spans, selfs)],
                   "job_s": traced.times}, fh)



if __name__ == "__main__":
    sys.exit(main())
