"""posring benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload dense_decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload dense_decide --seed 1 --seconds 25 --trace 1

Run from the repository root.  posring is imported from ``src/`` of the
checkout this file sits in, never from anywhere else.  Each instance
starts only after the previous one returned; there are no threads or
pools.  ``--trace 0`` passes over the seed's instance set until
``--seconds`` have elapsed (at least once; a set is sized for about
two passes) and prints the end-to-end metrics, taking each instance's
fastest call.  ``--trace 1`` makes one untraced pass, one pass with timing
wrappers on posring's public functions, times the kernel probes and the
pool entries too slow for the timed set, and prints the per-layer
metrics; its spans go to ``perfbench/_out/``.

Times are in reference seconds: each call's seconds are scaled by how
fast the host ran a fixed probe (``host_probe``) just before and just
after it, so the host's speed drifting over minutes does not read as a
change in posring.  The raw total is printed among the notes.

Every output is re-checked against the expected verdicts in
``expected.json`` and against its own evidence.  The last stdout line
is one JSON object; the exit code is 1 when any instance failed and 2
when the benchmark could not run at all.
"""

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

SETUP_REPS = 15
PROBE_DEGREES = (100, 400, 1000)
PROBE_REPS = 3
TAIL_SHARE = 0.2  # tail_s averages the slowest fifth of the instances
CALL_LIMIT_S = 20  # a call still running then fails its instance
LOOP_LIMIT_S = 120  # instances not started by then fail, so a run still ends
SLOW_LIMIT_S = 5  # cap per excluded pool entry in the traced run
PROBE_REF_S = 1e-3  # the probe time that makes a reference second
_MODULES = ("polyring", "realdec", "nxsolve", "wreath", "kernels", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, stale expected file)."""


def import_posring():
    """Import posring from SRC afresh: drop any loaded copy first."""
    for name in [n for n in sys.modules if n == "posring" or n.startswith("posring.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("posring")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError("posring resolved to %s, outside %s" % (pkg.__file__, SRC))
    mods = {m: importlib.import_module("posring." + m) for m in _MODULES}
    return types.SimpleNamespace(posring=pkg, **mods)


_PROBE_RNG = random.Random(11)
_PROBE_A = [_PROBE_RNG.getrandbits(40) - (1 << 39) for _ in range(60)]
_PROBE_B = [_PROBE_RNG.getrandbits(40) - (1 << 39) for _ in range(60)]


def host_probe():
    """Seconds a fixed piece of pure-Python work takes now, fastest of two.

    It never touches posring, so changes to posring cannot move it; it
    mixes what posring's time goes to: big-int convolution, dict updates
    and Fraction arithmetic.  About 1 ms on a 2-CPU x86-64 VM.
    """
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        prod = [0] * (2 * len(_PROBE_A) - 1)
        for i, x in enumerate(_PROBE_A):
            for j, y in enumerate(_PROBE_B):
                prod[i + j] += x * y
        d = {}
        for k in range(3000):
            d[k % 97] = d.get(k % 97, 0) + k
        v = Fraction(0)
        for c in _PROBE_A[:25]:
            v = v * Fraction(3, 7) + c
        best = min(best, perf_counter() - t0)
    return best


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout("still running at its time limit")


def setup(wl, indices, workdir):
    """Import posring and build the inputs SETUP_REPS times; keep the last.

    Returns (P, raws, instances, median set-up reference seconds).
    """
    times = []
    probe = host_probe()
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        P = import_posring()
        wl.start(P, workdir)
        raws = [wl.raw(i) for i in indices]
        insts = [wl.build(P, raw, i) for raw, i in zip(raws, indices)]
        dt = perf_counter() - t0
        before, probe = probe, host_probe()
        times.append(dt * 2 * PROBE_REF_S / (before + probe))
    return P, raws, insts, statistics.median(times)


class Run:
    """Timed calls over one instance set, checked as they come.

    Each instance's first output is checked at once, outside the timed
    call, and only a digest of its summary is kept: holding outputs
    (identity words run to 10^5 letters) would slow the garbage
    collector for every later instance.  Later calls must give the same
    digest.  A failed instance is not called again.  A call's time is
    scaled to reference seconds by the host probes around it.
    """

    def __init__(self, wl, P, insts, expected, digests=None, check=True):
        self.wl, self.P, self.insts, self.expected = wl, P, insts, expected
        k = len(insts)
        self.times = [[] for _ in range(k)]
        self.digests = list(digests) if digests else [None] * k
        self.errors = [None] * k
        self.overheads = []
        self.checking = check
        self.attempted = 0
        self.failed = 0
        self.raw_s = 0.0
        self.slow_errors = []  # (pool index, error) of entries outside the set
        self._probe = host_probe()

    def call(self, fn, k, limit_s=CALL_LIMIT_S):
        """One closed-loop call of fn on instance k; returns its output or None."""
        self.attempted += 1
        out = err = None
        signal.signal(signal.SIGALRM, _on_alarm)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            out = fn(self.P, self.insts[k])
        except Exception as exc:  # a failed instance is a result, not a crash
            err = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = perf_counter() - t0
        before, self._probe = self._probe, host_probe()
        self.raw_s += dt
        self.times[k].append(dt * 2 * PROBE_REF_S / (before + self._probe))
        if err:
            self._fail(k, err)
            return None
        self._settle(k, out)
        return out

    def _fail(self, k, err):
        self.failed += 1
        self.errors[k] = self.errors[k] or err

    def _settle(self, k, out):
        d = digest(self.wl.summary(out))
        if self.digests[k] is None:
            self.digests[k] = d
            if self.checking:
                err = self.wl.check(self.P, self.insts[k], out, self.expected[k])
                if err:
                    self._fail(k, err)
                    return
            if hasattr(self.wl, "process_overhead"):
                self.overheads.append(self.wl.process_overhead(out))
        elif d != self.digests[k]:
            self._fail(k, "output changed between calls")

    def passes(self, budget_s):
        """Closed loop over the set until budget_s has elapsed, at least once.

        Instances not yet started LOOP_LIMIT_S into the first pass fail.
        """
        t_start = perf_counter()
        while True:
            for k in range(len(self.insts)):
                elapsed = perf_counter() - t_start
                if self.times[-1] and elapsed >= budget_s:
                    return
                if not self.times[k] and elapsed >= LOOP_LIMIT_S:
                    self.attempted += 1
                    self._fail(k, "not started within %d s" % LOOP_LIMIT_S)
                elif not self.errors[k]:
                    self.call(self.wl.call, k)
            if perf_counter() - t_start >= budget_s:
                return

    def per_instance(self):
        """Each timed instance's fastest call.  Its calls lie whole passes
        apart, so this filters out the moments a shared host runs slow."""
        return [min(t) for t in self.times if t] or [0.0]


def end_to_end(run, setup_s):
    per = sorted(run.per_instance())
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": (sum(per), "s"),
        # the typical instance: costs spread over decades, so the median of
        # a few dozen moves with every seed while this average does not
        "gmean_s": (statistics.geometric_mean(per), "s"),
        "tail_s": (statistics.fmean(per[-math.ceil(len(per) * TAIL_SHARE):]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }


def kernel_probes(P):
    """Median of PROBE_REPS calls per kernel on fixed degree-d inputs."""
    rng = random.Random(13)
    out = {}
    for deg in PROBE_DEGREES:
        a, b = ([rng.getrandbits(64) - (1 << 63) for _ in range(deg)] + [1]
                for _ in range(2))
        cases = (("mul", (a, b)), ("shift1", (a,)),
                 ("gcd_mod", (a, b, (1 << 61) - 1)), ("eval_scaled", (a, 7, 2)))
        for fn, args in cases:
            f = getattr(P.kernels, fn)
            reps = []
            for _ in range(PROBE_REPS):
                t0 = perf_counter()
                f(*args)
                reps.append(perf_counter() - t0)
            out["kernels.%s.d%d_s" % (fn, deg)] = (statistics.median(reps), "s")
    return out


def _extra_pass(run, fn, tracer=None):
    """One more pass over the instances that have not failed; its calls
    and failures count in run.  Returns the pass's reference seconds."""
    extra = Run(run.wl, run.P, run.insts, run.expected, run.digests, check=False)
    for k in range(len(run.insts)):
        if not run.errors[k]:
            if tracer:
                tracer.instance = k
            extra.call(fn, k)
    run.attempted += extra.attempted
    run.failed += extra.failed
    run.errors = [a or b for a, b in zip(run.errors, extra.errors)]
    return sum(t[0] for t in extra.times if t)


def slow_entries(wl, P, pool, run):
    """The pool entries too slow for the timed set, each capped at SLOW_LIMIT_S.

    Returns (overruns, letters of the identity words found, reference
    seconds).  An output that arrives is checked against its own
    evidence; a bad one, or an exception other than the cap, fails run.
    """
    slow = [i for i, e in enumerate(pool) if "excluded" in e]
    insts = [wl.build(P, wl.raw(i), i) for i in slow]
    capped = Run(wl, P, insts, [None] * len(insts), check=False)
    overruns = letters = 0
    for k, i in enumerate(slow):
        out = capped.call(wl.inproc, k, SLOW_LIMIT_S)
        err = capped.errors[k]
        if out is not None:
            err = wl.check(P, insts[k], out, wl.verdict(wl.summary(out)))
            letters += wl.letters(out)
        elif err.startswith(CallTimeout.__name__):
            overruns += 1
            continue
        run.attempted += 1
        if err:
            run.failed += 1
            run.slow_errors.append((i, err))
    return overruns, letters, sum(t[0] for t in capped.times)


def per_layer(wl, P, run, pool, spans_path):
    """Traced pass over the set; returns the per-layer metrics."""
    if wl.in_process:
        base = sum(t[0] for t in run.times if t)
    else:
        # untraced in-process reference for the tracing overhead
        base = _extra_pass(run, wl.inproc)
    tracer = tracing.Tracer()
    with tracer:
        traced_wall = _extra_pass(run, wl.inproc, tracer)

    agg = tracer.aggregate()
    m = {}
    for mod, fn in tracing.TARGETS:
        calls, total, own = agg.get("%s.%s" % (mod, fn), (0, 0.0, 0.0))
        m["%s.%s.calls" % (mod, fn)] = (calls, "count")
        m["%s.%s.s" % (mod, fn)] = (total, "s")
        m["%s.%s.self_s" % (mod, fn)] = (own, "s")
    c = tracer.counters
    m["kernels.max_coeff_bits"] = (c["kernels.max_coeff_bits"], "bits")
    m["realdec.isolate_nonneg_roots.roots"] = (c["realdec.isolate_nonneg_roots.roots"], "count")
    m["nxsolve.normalize.early"] = (c["nxsolve.normalize.early"], "count")
    m["nxsolve.find_witness.found"] = (c["nxsolve.find_witness.found"], "count")
    m["wreath.decide.calls"] = (c["wreath.decide.calls"], "count")
    tries = c["wreath.decide.calls"]
    m["wreath.cover_hit_ratio"] = (c["wreath.decide.hits"] / tries if tries else 0.0, "ratio")
    m["wreath.word_letters"] = (c["wreath.word_letters"], "count")
    overheads = [o for o in run.overheads if o is not None]
    m["cli.process_overhead_s"] = (statistics.median(overheads) if overheads else 0.0, "s")
    m["trace.overhead_ratio"] = (traced_wall / base if base else 0.0, "ratio")
    overruns, letters, slow_s = (slow_entries(wl, P, pool, run) if hasattr(wl, "letters")
                                 else (0, 0, 0.0))
    m["wreath.slow_entries.overruns"] = (overruns, "count")
    m["wreath.slow_entries.word_letters"] = (letters, "count")
    m["wreath.slow_entries.s"] = (slow_s, "s")
    m.update(kernel_probes(P))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return m


def measure(wl, seed, seconds, trace, expected_pool, workdir, spans_path):
    """One benchmark run; returns (result, notes, [(pool index, error)])."""
    indices = wl.select(seed, expected_pool)
    try:
        P, raws, insts, setup_s = setup(wl, indices, workdir)
        for i, raw in zip(indices, raws):
            if digest(raw) != expected_pool[i]["digest"]:
                raise BenchError("%s pool entry %d differs from expected.json; "
                                 "regenerate it at the reference commit" % (wl.name, i))
        run = Run(wl, P, insts, [expected_pool[i]["verdict"] for i in indices])
        run.passes(0 if trace else seconds)
        metrics = (per_layer(wl, P, run, expected_pool, spans_path) if trace
                   else end_to_end(run, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = [len(t) for t in run.times]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    per = run.per_instance()
    slowest = max(range(len(insts)), key=lambda k: min(run.times[k], default=0.0))
    notes = {
        "instances": len(insts),
        "samples_per_instance": [min(samples), max(samples)],
        "fail_ratio": run.failed / run.attempted,
        "raw_wall_s": run.raw_s,
        "p50_s": statistics.median(per),
        "max_s": max(per),
        "slowest_pool_entry": indices[slowest],
    }
    errors = [(indices[k], e) for k, e in enumerate(run.errors) if e] + run.slow_errors
    return result, notes, errors


def load_expected(name):
    if not EXPECTED.is_file():
        raise BenchError("missing %s; run perfbench/make_expected.py" % EXPECTED)
    with open(EXPECTED) as fh:
        return json.load(fh)["workloads"][name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    try:
        if not (SRC / "posring" / "__init__.py").is_file():
            raise BenchError("no posring sources under %s" % SRC)
        pool = load_expected(wl.name)
        result, notes, errors = measure(
            wl, args.seed, args.seconds, args.trace, pool,
            BENCH / "_work" / ("%s-%d" % (wl.name, os.getpid())),
            BENCH / "_out" / ("%s.spans.tsv" % wl.name))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    for pool_index, err in errors:
        print("FAIL %s pool entry %d: %s" % (wl.name, pool_index, err))
    print("workload %s seed %d trace %d: %s" % (wl.name, args.seed, args.trace,
                                                json.dumps(notes)))
    for name, m in result["metrics"].items():
        print("  %-44s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
