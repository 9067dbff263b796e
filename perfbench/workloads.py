"""The four workloads: seeded instance pools, the call each makes, its checks.

Every workload draws from a fixed pool of POOL_FACTOR * per_class entries
per class.  Pool entry ``i`` is generated from
``random.Random("<workload>/<i>")`` and its size class is ``i % len(classes)``;
``expected.json`` holds each entry's digest, the verdict the reference
commit gave it and the seconds it took there, or marks it excluded when
it was too slow there.  A seed picks ``per_class`` entries from every
class, spread over the class's range of cost, so each run has the same
mix of sizes and costs and a different set of inputs.

Nothing here imports posring at module level: the runner imports it afresh
during set-up and hands the modules in as ``P``.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# A run uses five sixths of every class.  A larger pool makes seeds share
# fewer inputs, but the metrics then spread across seeds by more than
# their bounds allow (instance costs span two decades on wreath_grid).
POOL_FACTOR = 1.2

# ---------------------------------------------------------------- raw inputs


def _nonzero_top(rng, cs, c):
    if cs[-1] == 0:
        cs[-1] = rng.choice((-1, 1)) * rng.randint(1, c)
    return cs


def dense_raw(rng, deg, n=5):
    """Acceptance criterion 5's shape: 64-bit coefficients, mixed strict
    signs at 0, so normalize never settles the verdict."""
    hs = []
    for i in range(n):
        cs = [rng.getrandbits(64) - (1 << 63) for _ in range(deg + 1)]
        if cs[-1] == 0:
            cs[-1] = 1
        if i == 0:
            cs[0] = abs(cs[0]) + 1
        if i == 1:
            cs[0] = -abs(cs[0]) - 1
        hs.append(cs)
    return {"h": hs}


_PLANTED = (-2, 0, 1)  # X^2 - 2: an irrational root shared by many entries


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def wide_raw(rng, n, c=9, positive_at_1=False):
    """n entries of degree <= 6; even entries carry X^2 - 2, and one in
    three of those carries it squared, so multiplicity checks run too.

    With positive_at_1 every entry is made positive at X = 1, so the
    instance is Unsolvable and decide must return a sign certificate.
    """
    hs = []
    for i in range(n):
        if i % 2 == 0:
            q = _nonzero_top(rng, [rng.randint(-c, c) for _ in range(rng.randint(1, 3))], c)
            q[0] = q[0] or 1
            if i % 6 == 4:
                q = _conv(q[:1] if len(q) == 1 or not q[1] else q[:2], _PLANTED)
            if i == 0:
                q[0] = abs(q[0])  # h_0(0) = -2 q(0) < 0
            if positive_at_1 and sum(q) >= 0:
                q.append(-sum(q) - 1)  # q(1) = -1, so h(1) = 1
            hs.append(_conv(q, _PLANTED))
        else:
            cs = _nonzero_top(rng, [rng.randint(-c, c) for _ in range(rng.randint(2, 7))], c)
            if i == 1:
                cs[0] = abs(cs[0]) or 1  # h_1(0) > 0
            if positive_at_1 and sum(cs) <= 0:
                cs[0] += 1 - sum(cs)  # h(1) = 1
            hs.append(cs)
    return {"h": hs}


def _laurent(rng):
    # acceptance criterion 6's entries: 1-4 coefficients in [-3, 3]
    body = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    if not any(body):
        return [0, []]
    return [rng.randint(-2, 0), body]


def wreath_raw(rng, kind, rows, cols):
    """Random generators on a rows x cols grid, or criterion 6's planted
    2 x 2 group (h11 + h22 = h12 + h21 = 0)."""
    if kind == "planted":
        h1 = _laurent(rng)
        g1, g2 = _laurent(rng), _laurent(rng)
        return {"plus": [h1, None], "minus": [g1, g2]}
    return {"plus": [_laurent(rng) for _ in range(rows)],
            "minus": [_laurent(rng) for _ in range(cols)]}


def small_equation_raw(rng, c=9):
    n = rng.randint(2, 5)
    hs = []
    for _ in range(n):
        cs = [rng.randint(-c, c) for _ in range(rng.randint(1, 6))]
        hs.append(_nonzero_top(rng, cs, c))
    return {"h": hs}


def digest(raw):
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------- shared posring glue


def intpolys(P, hs):
    return [P.polyring.IntPoly(cs) for cs in hs]


def generator_set(P, raw):
    L = P.polyring.LaurentPoly
    plus = [L(body, low) if body else L.zero() for low, body in
            (e for e in raw["plus"] if e is not None)]
    minus = [L(body, low) if body else L.zero() for low, body in raw["minus"]]
    if None in raw["plus"]:
        # planted second row: h2 = -h1 - X (g1 + g2)
        plus.append(-plus[0] - L([0, 1]) * (minus[0] + minus[1]))
    return P.wreath.GeneratorSet(tuple(plus), tuple(minus))


def _conv_check(a, b):
    return _conv(a, b) if a and b else []


def _sgn(v):
    return (v > 0) - (v < 0)


def _horner(cs, t):
    v = Fraction(0)
    for c in reversed(cs):
        v = v * t + c
    return v


def check_certificate(P, hs, cert):
    """The certificate re-verifies and refers to these inputs: each
    original h_i is gcd_removed * hs'_i * X^k with k <= x_divisions."""
    if not P.nxsolve.verify_certificate(cert):
        return "certificate fails verify_certificate"
    if len(cert.hs) != len(hs):
        return "certificate covers %d of %d entries" % (len(cert.hs), len(hs))
    g = list(cert.gcd_removed.coeffs)
    for h, hn in zip(hs, cert.hs):
        prod = _conv_check(g, list(hn.coeffs))
        orig = list(h.coeffs)
        k = len(orig) - len(prod)
        if not (0 <= k <= cert.x_divisions) or any(orig[:k]) or orig[k:] != prod:
            return "certificate entries do not divide the input"
    return None


def _uniform(signs):
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def check_word(P, gens, word):
    if word is None:
        return "cap: no word synthesized"
    if P.wreath.word_product(gens, word) != P.wreath.WreathElement.identity():
        return "word does not multiply to the identity"
    return None


# ----------------------------------------------------------------- workloads


class Workload:
    """Pool layout plus the call, summary and check for one workload."""

    name = why = None
    classes = ()
    per_class = 1
    in_process = True  # False when ``call`` leaves the process

    def raw(self, index):
        rng = random.Random("%s/%d" % (self.name, index))
        return self.make(rng, self.classes[index % len(self.classes)])

    def pool_size(self):
        return len(self.classes) * int(self.per_class * POOL_FACTOR)

    def select(self, seed, pool):
        """Pool indices for one seed: per_class from each class, costliest first.

        A class's eligible entries are sorted by their time at the
        reference commit and cut into per_class runs of one or two
        neighbours, the costliest runs holding one; the seed picks one
        entry from each run.  Seeds then differ in their inputs but not
        in their mix of cheap and costly ones, which would otherwise
        move the tail with the seed.  Costliest first, because a run's
        last pass is cut short: the tail is what gets re-timed most.
        Entries ``pool`` (the expected.json list) marks as excluded are
        never picked.
        """
        rng = random.Random("%s:%d" % (self.name, seed))
        k = len(self.classes)
        picked = []
        for c in range(k):
            eligible = sorted((i for i in range(c, self.pool_size(), k)
                               if "excluded" not in pool[i]),
                              key=lambda i: (pool[i]["ref_s"], i))
            n = len(eligible)
            bounds = [-(-j * n // self.per_class) for j in range(self.per_class + 1)]
            picked += [rng.choice(eligible[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        return sorted(picked, key=lambda i: (-pool[i]["ref_s"], i))

    def start(self, P, workdir):
        """Per-run state the instances share (the CLI's problem files)."""

    def inproc(self, P, inst):
        """The call the traced run makes: ``call`` itself when in_process."""
        return self.call(P, inst)


class DecideWorkload(Workload):
    def build(self, P, raw, index):
        return intpolys(P, raw["h"])

    def call(self, P, hs):
        return P.nxsolve.decide(hs)

    def summary(self, out):
        cert = out.certificate
        if cert is None:
            return {"status": out.status}
        sample = cert.sign_vector.sample
        where = (str(sample.value) if hasattr(sample, "value")
                 else [str(sample.interval.lo), str(sample.interval.hi)])
        return {"status": out.status, "reason": out.unsolvable_reason,
                "sample": where, "signs": list(cert.sign_vector.signs)}

    def verdict(self, summary):
        return summary["status"]

    def check(self, P, hs, out, expected):
        if out.status != expected:
            return "verdict %s, expected %s" % (out.status, expected)
        if out.status == P.nxsolve.UNSOLVABLE:
            return check_certificate(P, hs, out.certificate)
        return None


class DenseDecide(DecideWorkload):
    name = "dense_decide"
    why = ("n=5 dense 64-bit polys of degree 80-100: Taylor shifts, modular gcd, "
           "scaled evaluation and per-root sign bisection dominate")
    classes = (80,)
    per_class = 36

    def make(self, rng, deg):
        return dense_raw(rng, deg + rng.randint(0, 20))


class WideDecide(DecideWorkload):
    name = "wide_decide"
    why = ("n=40-50 low-degree polys, half sharing X^2-2, half made Unsolvable: "
           "overlap resolution across hundreds of intervals dominates")
    # half the instances are made positive at X = 1: Unsolvable, certified
    classes = ("mixed", "positive_at_1")
    per_class = 20

    def make(self, rng, kind):
        return wide_raw(rng, 40 + rng.randint(0, 10), positive_at_1=kind == "positive_at_1")


class WreathGrid(Workload):
    name = "wreath_grid"
    why = ("is_group then identity_witness_word on 2x3 and 3x2 generator grids "
           "plus planted 2x2 groups: thousands of small decide calls")
    classes = (("random", 2, 3), ("random", 3, 2)) * 2 + (("planted", 2, 2),)
    per_class = 30

    def make(self, rng, shape):
        return wreath_raw(rng, *shape)

    def build(self, P, raw, index):
        return generator_set(P, raw)

    def call(self, P, gens):
        return P.wreath.is_group(gens), P.wreath.identity_witness_word(gens)

    def summary(self, out):
        (ok, info), (found, word) = out
        s = {"is_group": ok, "identity": found,
             "word": None if word is None else str(word)}
        if ok:
            cover, witness = info
            s["cover"] = [list(p) for p in cover.pairs]
            s["witness"] = None if witness is None else [list(f.coeffs) for f in witness.fs]
        return s

    def verdict(self, summary):
        return {"is_group": summary["is_group"], "identity": summary["identity"]}

    def check(self, P, gens, out, expected):
        (ok, info), (found, word) = out
        got = {"is_group": ok, "identity": found}
        if got != expected:
            return "verdict %s, expected %s" % (got, expected)
        if ok:
            cover, witness = info
            if witness is None:
                return "cap: NotFoundWithinCap on the group cover"
            rows = {i for i, _ in cover.pairs}
            cols = {j for _, j in cover.pairs}
            if rows != set(range(1, len(gens.plus) + 1)) or \
                    cols != set(range(1, len(gens.minus) + 1)):
                return "group cover lacks full projections"
            hij = P.wreath.build_hij(gens)
            hs, _ = P.polyring.laurent_normalize([hij[p] for p in cover.pairs])
            if not P.nxsolve.verify_witness(hs, list(witness.fs)):
                return "group witness fails verify_witness"
        if found:
            return check_word(P, gens, word)
        return None

    def letters(self, out):
        word = out[1][1]
        return 0 if word is None else len(word)


class CliWitness(Workload):
    name = "cli_witness"
    why = ("small equations via `python -m posring.cli solve --witness --json`, "
           "plus wreath word files, one subprocess each: startup, import, JSON")
    # seven equation files to one `wreath word` file
    classes = ("solve",) * 7 + ("word",)
    per_class = 6
    in_process = False

    def make(self, rng, kind):
        if kind == "word":
            return {"word": wreath_raw(rng, "planted", 2, 2)}
        return {"solve": small_equation_raw(rng)}

    def start(self, P, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        src = os.path.dirname(os.path.dirname(os.path.abspath(P.posring.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def build(self, P, raw, index):
        """Write the problem file; the instance is (argv, problem, env).

        The child's PYTHONHASHSEED is the pool index.  How long the CLI's
        LP takes depends on the hash seed (one entry took 0.09-0.17 s
        across random seeds), so a fixed one per entry keeps each
        entry's cost reproducible while the pool still spans many seeds.
        """
        path = os.path.join(self.workdir, "p%d.json" % index)
        if "solve" in raw:
            pf = P.cli.ProblemFile("equation", hs=tuple(intpolys(P, raw["solve"]["h"])))
            argv = ["solve", path, "--witness", "--json"]
        else:
            pf = P.cli.ProblemFile("wreath", generators=generator_set(P, raw["word"]))
            argv = ["wreath", "word", path, "--json"]
        with open(path, "w") as fh:
            json.dump(P.cli.problem_to_json(pf), fh)
        return argv, pf, dict(self.env, PYTHONHASHSEED=str(index))

    def call(self, P, inst):
        argv, _, env = inst
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "posring.cli"] + argv,
                              capture_output=True, env=env)
        wall = perf_counter() - t0
        report = json.loads(proc.stdout) if proc.returncode in (0, 1) else None
        return proc.returncode, report, wall, proc.stderr.decode(errors="replace")

    def inproc(self, P, inst):
        argv = inst[0]
        saved = sys.stdout
        sys.stdout = buf = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        try:
            code = P.cli.main(argv)
            buf.flush()
            text = buf.buffer.getvalue()
        finally:
            sys.stdout = saved
        report = json.loads(text) if code in (0, 1) else None
        return code, report, None, ""

    def summary(self, out):
        code, report = out[0], out[1]
        body = None if report is None else {k: v for k, v in report.items() if k != "timing"}
        return {"code": code, "report": body}

    def verdict(self, summary):
        report = summary["report"] or {}
        return report.get("status", "word" if report.get("word") else None)

    def check(self, P, inst, out, expected):
        code, report, _, err = out
        pf = inst[1]
        if report is None:
            return "exit %s: %s" % (code, err.strip()[-200:])
        if pf.kind == "wreath":
            if expected != "word":
                return "word file, expected %s" % expected
            if not report.get("verified"):
                return "report says the word is unverified"
            letters = tuple((tok[0], int(tok[1:])) for tok in report["word"].split())
            return check_word(P, pf.generators, P.wreath.Word(letters))
        status = report["status"]
        if status != expected:
            return "verdict %s, expected %s" % (status, expected)
        hs = list(pf.hs)
        if status == P.nxsolve.SOLVABLE:
            if report.get("witness_status") != P.nxsolve.WITNESS_FOUND:
                return "cap: %s" % report.get("witness_status")
            fs = [P.polyring.IntPoly([0] * w["lowest"] + [int(c) for c in w["coeffs"]])
                  for w in report["witness"]]
            if not (report.get("witness_verified") and P.nxsolve.verify_witness(hs, fs)):
                return "witness fails verify_witness"
            return None
        cert = report["certificate"]
        if not cert.get("verified"):
            return "report says the certificate is unverified"
        if isinstance(cert["sample"], str):
            t = Fraction(cert["sample"])
            if t < 0 or not _uniform([_sgn(_horner(list(h.coeffs), t)) for h in hs]):
                return "inputs have mixed signs at the certificate's sample"
        return None

    def process_overhead(self, out):
        code, report, wall, _ = out
        if report is None or wall is None:
            return None
        return wall - report["timing"]["seconds"]


WORKLOADS = {w.name: w for w in (DenseDecide(), WideDecide(), WreathGrid(), CliWitness())}
