"""Run the benchmark over fixed seeds and write BENCH_<label>.json.

    python3 perfbench/record.py --label baseline

Runs every workload listed in BENCHMARK.json for seeds 1-10 with its
``run_seconds``, plus one traced run on seed 1.  Runs are made one at a
time, each in its own process, exactly as ``run.py`` is invoked on its
own.  For every workload the file holds each
end-to-end metric's values over the seeds with their median, quartiles
and spread (quartile distance over median, the figure each bound in
BENCHMARK.json is checked against), plus the per-layer metrics of one
traced run.  The Python version, CPU count and git revision are recorded
alongside.  Exits 1 if any run failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT

SEEDS = list(range(1, 11))
TRACED_SEED = 1


def bench(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, time.perf_counter() - t0, proc.stderr


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip() or None
    doc = {"label": args.label, "rev": rev, "python": platform.python_version(),
           "cpus": os.cpu_count(), "cpu_model": _cpu_model(),
           "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        runs, values = [], {}
        for seed in SEEDS:
            code, res, took, err = bench(name, seed, seconds, 0)
            ok &= code == 0
            runs.append({"seed": seed, "exit": code, "run_s": took,
                         "attempted": res and res["attempted"],
                         "failed": res and res["failed"]})
            for metric, m in (res or {}).get("metrics", {}).items():
                values.setdefault(metric, []).append(m["value"])
            print("%s seed %d exit %d %.1fs %s" % (name, seed, code, took,
                                                  err.strip()[-200:]), flush=True)
        code, traced, took, err = bench(name, TRACED_SEED, seconds, 1)
        ok &= code == 0
        print("%s traced seed %d exit %d %.1fs" % (name, TRACED_SEED, code, took),
              flush=True)
        doc["workloads"][name] = {
            "runs": runs,
            "end_to_end": {k: summarize(v) for k, v in values.items() if len(v) > 1},
            "traced": {"seed": TRACED_SEED, "exit": code, "run_s": took,
                       "metrics": {k: m["value"] for k, m in
                                   (traced or {}).get("metrics", {}).items()}},
        }
        for k, s in doc["workloads"][name]["end_to_end"].items():
            print("  %-14s median %.6g spread %.3f" % (k, s["median"], s["spread"] or 0))
    out = BENCH / "results" / ("BENCH_%s.json" % args.label)
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
