"""Write expected.json: the digest and verdict of every pool entry.

    python3 perfbench/make_expected.py

Run it at the reference commit only; it records git HEAD as that
commit and rebuilds the pool of every workload.  Each entry is decided
once, in-process; its seconds are kept as ``ref_s``, which seeds use to
spread their picks over the range of cost, and its output must pass the same checks a benchmark
run makes (certificates, witnesses, words); a failing entry aborts the
write.  An entry still running after LIMIT_S seconds is stopped and
marked excluded, and so is one whose identity word is longer than
WORD_LIMIT letters: no timed run picks it, and the traced run reports
it under the ``wreath.slow_entries`` metrics.
"""

import json
import platform
import shutil
import signal
import subprocess
import sys
from time import perf_counter

from run import EXPECTED, ROOT, import_posring
from workloads import WORKLOADS, digest

LIMIT_S = 10
# Words this long take 1 s and more to synthesize, tens of seconds past
# 10^5 letters; one such entry would decide a timed run by itself.
WORD_LIMIT = 20000


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun()


def pool_entries(wl, P, workdir):
    wl.start(P, workdir)
    out = []
    signal.signal(signal.SIGALRM, _alarm)
    for i in range(wl.pool_size()):
        raw = wl.raw(i)
        inst = wl.build(P, raw, i)
        t0 = perf_counter()
        signal.alarm(LIMIT_S)
        try:
            res = wl.inproc(P, inst)
        except _Overrun:
            out.append({"digest": digest(raw),
                        "excluded": "ran past %d s at the reference commit" % LIMIT_S})
            print("%s %d excluded" % (wl.name, i), flush=True)
            continue
        finally:
            signal.alarm(0)
        dt = perf_counter() - t0
        verdict = wl.verdict(wl.summary(res))
        err = wl.check(P, inst, res, verdict)
        if err:
            raise SystemExit("%s pool entry %d: %s" % (wl.name, i, err))
        letters = wl.letters(res) if hasattr(wl, "letters") else 0
        if letters > WORD_LIMIT:
            out.append({"digest": digest(raw),
                        "excluded": "identity word of %d letters" % letters})
            print("%s %d excluded: %d letters" % (wl.name, i, letters), flush=True)
            continue
        out.append({"digest": digest(raw), "verdict": verdict, "ref_s": round(dt, 4)})
        print("%s %d %.3fs %s" % (wl.name, i, dt, json.dumps(verdict)), flush=True)
    return out


def main():
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    doc = {"workloads": {}}
    P = import_posring()
    workdir = ROOT / "perfbench" / "_work" / "expected"
    try:
        for name in sorted(WORKLOADS):
            doc["workloads"][name] = pool_entries(WORKLOADS[name], P, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["reference"] = {"rev": rev, "python": platform.python_version()}
    with open(EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
