"""Mutation checks: each mutant breaks src/ in one known way, and the
tests it names must catch it.

A mutant is (name, file under src/posring, an exact source snippet, its
replacement, the pytest ids that must fail).  The runner copies src/ to
a temporary directory once per mutant, replaces the snippet there, and
runs the named tests against the copy; a mutant is killed when pytest
reports a failing test.  ``tests/test_mutants.py`` checks on every run
that each snippet still occurs exactly once in src/, so a stale mutant
fails loudly instead of passing vacuously.  A change that claims a
mutation check adds its mutant here.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Exits 1 when a mutant survives.  Needs pytest and nothing else.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from time import perf_counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "posring")

Mutant = namedtuple("Mutant", "name file snippet replacement tests")

NX = "tests/test_nxsolve.py::"
RD = "tests/test_realdec.py::"
WR = "tests/test_wreath.py::"
CLI = "tests/test_cli.py::"

MUTANTS = (
    # normalize strips X^t with t the least order carrying a flipped sign
    Mutant("normalize-t-smallest-order", "nxsolve.py",
           "    t = min(flips, default=max(orders))\n",
           "    t = min(orders)\n",
           [NX + "test_normalize_matches_loop_reference",
            NX + "test_normalize_strips_differing_x_orders"]),
    # _plan's (1 + X)^m must also lift deg f_uv to ord f_yz
    Mutant("plan-m-without-order-term", "wreath.py",
           "    m = max(_zero_run(fd[uv]), _zero_run(fd[yz]),\n"
           "            order_at_zero(fd[yz]) - fd[uv].degree)\n",
           "    m = max(_zero_run(fd[uv]), _zero_run(fd[yz]))\n",
           [WR + "test_plan_scale_matches_scan_reference",
            WR + "test_plan_scale_lifts_gaps"]),
    # signs_at_root reads q strictly inside the interval, not at its end
    Mutant("sign-at-root-read-at-b", "realdec.py",
           "        signs.append(_sgn(_ev(cs, m)))\n",
           "        signs.append(_sgn(_ev(cs, b)))\n",
           [RD + "test_sign_at_root_sqrt2"]),
    # a stale leaving row is brought up to the current determinant
    Mutant("lp-no-leaving-row-refresh", "nxsolve.py",
           "        prow = rows[leave]\n"
           "        if scale[leave] != den:\n"
           "            prow = rows[leave] = _pivot_row(prow, prow, 0, den, scale[leave])\n",
           "        prow = rows[leave]\n",
           [NX + "test_stale_leaving_row_is_refreshed"]),
    # a key with members hands its row to a member: all members combine
    Mutant("lp-key-row-first-member-only", "nxsolve.py",
           "            for r in members:\n",
           "            for r in members[:1]:\n",
           [NX + "test_key_pivots_match_the_full_tableau"]),
    Mutant("lp-key-row-without-member-gain", "nxsolve.py",
           "                c = -gk * gain[basis[r]]\n",
           "                c = -gk\n",
           [NX + "test_key_pivots_match_the_full_tableau"]),
    # Bland's rule: ratio ties go to the least variable id
    Mutant("lp-ties-by-position", "nxsolve.py",
           "    return lhs < rhs or (lhs == rhs and a[2] < b[2])\n",
           "    return lhs < rhs or (lhs == rhs and a[3] < b[3])\n",
           [NX + "test_key_pivots_match_the_full_tableau"]),
    # a key without members leaves: its column takes the entering slot
    Mutant("lp-retired-key-column-zeroed", "nxsolve.py",
           "                        row[ep] = -f\n",
           "                        row[ep] = 0\n",
           [NX + "test_key_pivots_match_the_full_tableau"]),
    Mutant("degree-floor-plus-one", "nxsolve.py",
           "            floor = max(floor, min(gaps))\n    return floor\n",
           "            floor = max(floor, min(gaps))\n    return floor + 1\n",
           [NX + "test_degree_floor_examples",
            NX + "test_degree_floor_matches_linear_escalation"]),
    # h_ij are built once per generator set, through the memo
    Mutant("synthesis-rebuilds-hij", "wreath.py",
           '        raise InvalidWitness("empty cover")\n    hij = _hij(gens)\n',
           '        raise InvalidWitness("empty cover")\n    hij = build_hij(gens)\n',
           [WR + "test_hij_built_once_per_generator_set"]),
    # an input too large to read exits 2, never 1 ("no")
    Mutant("cli-too-large-exits-1", "cli.py",
           'deeply nested to read: %s" % exc, file=sys.stderr)\n        return 2\n',
           'deeply nested to read: %s" % exc, file=sys.stderr)\n        return 1\n',
           [CLI + "test_input_too_large_exits_2",
            CLI + "test_input_too_deeply_nested_exits_2"]),
    # an exact root is the point lo = hi = exact
    Mutant("exact-root-lo-below", "realdec.py",
           "IsolatingInterval(sorted(owners), r, r, mult_free, r, None)",
           "IsolatingInterval(sorted(owners), r - 1, r, mult_free, r, None)",
           [RD + "test_isolate_ordering_and_disjointness",
            RD + "test_isolation_invariants",
            RD + "test_integer_endpoints_match_fraction_reference"]),
    # a certificate carries one sign per entry
    Mutant("certificate-no-sign-count", "nxsolve.py",
           "    if len(sv.signs) != len(cert.hs):\n        return False\n",
           "",
           [NX + "test_forged_certificate_of_a_solvable_instance_is_rejected"]),
    # a solve child never loads wreath
    Mutant("cli-imports-wreath-eagerly", "cli.py",
           "from . import nxsolve\n",
           "from . import nxsolve, wreath\n",
           [CLI + "test_solve_imports_only_the_solve_path"]),
    # a record equals only a record of its exact class
    Mutant("record-eq-ignores-class", "_record.py",
           "        if type(other) is not type(self):\n",
           "        if not isinstance(other, Record):\n",
           ["tests/test_records.py::test_equality_needs_the_exact_class"]),
)


def killed(mutant):
    """Apply mutant to a copy of src/ and run its tests there: True when
    a test fails, False when all pass.  Raises on anything else (a stale
    snippet, tests that cannot be collected), which proves nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.dirname(SRC), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "posring", mutant.file)
        with open(path) as fh:
            text = fh.read()
        if text.count(mutant.snippet) != 1:
            raise RuntimeError("%s: snippet is not in %s exactly once"
                               % (mutant.name, mutant.file))
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        # run from the copy, so hypothesis keeps its example database there
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
            + [os.path.join(REPO, t) for t in mutant.tests],
            env=env, cwd=tmp, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError("%s: pytest exited %d\n%s"
                           % (mutant.name, proc.returncode, proc.stdout + proc.stderr))
    return proc.returncode == 1


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutant: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    survived = 0
    t_all = perf_counter()
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        t0 = perf_counter()
        ok = killed(m)
        survived += not ok
        print("%-8s %-34s %5.1f s" % ("killed" if ok else "SURVIVED", m.name,
                                      perf_counter() - t0), flush=True)
    print("%d survived, %.1f s" % (survived, perf_counter() - t_all))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
