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

Exits 1 when a mutant survives.  Needs pytest and hypothesis, whose
"mutants" profile (tests/conftest.py) skips the shrink phase: a kill
needs one failing example, not the smallest.
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
    # forcing rows: only a one-signed row pins its entries to 0
    Mutant("presolve-forces-mixed-rows", "nxsolve.py",
           "    todo = [k for k in range(m) if (pos[k] > 0) != (neg[k] > 0)]\n",
           "    todo = [k for k in range(m) if pos[k] or neg[k]]\n",
           [NX + "test_presolve_keeps_the_feasible_set"]),
    # a row that turns one-signed as its entries are forced forces too
    Mutant("presolve-one-sweep", "nxsolve.py",
           "                            todo.append(r)\n",
           "                            pass\n",
           [NX + "test_forcing_rows_settle_every_degree_below_the_floor",
            NX + "test_forcing_rows_drop_pinned_columns"]),
    Mutant("degree-floor-plus-one", "nxsolve.py",
           "            floor = max(floor, min(gaps))\n    return floor\n",
           "            floor = max(floor, min(gaps))\n    return floor + 1\n",
           [NX + "test_degree_floor_examples",
            NX + "test_degree_floor_matches_linear_escalation"]),
    # a letter enters at its suffix height: the pass runs right to left
    Mutant("word-product-prefix-height", "wreath.py",
           "    for entry in reversed(w.letters):\n",
           "    for entry in w.letters:\n",
           [WR + "test_word_product_of_powers_matches_expansion"]),
    # a power adds its loop count times
    Mutant("word-product-power-once", "wreath.py",
           "                acc[k] += count * c\n",
           "                acc[k] += c\n",
           [WR + "test_word_product_of_powers_matches_expansion"]),
    # the walk's level-k loops hang left of A_ik, where the suffix has height k
    Mutant("walk-loop-level-off", "wreath.py",
           "        downs.append((MINUS, j))\n"
           "        for li, lj, c in level:\n"
           "            loop = ((PLUS, li), (MINUS, lj))\n"
           "            if c > 1:\n"
           "                rest.append((loop, c))\n"
           "            elif c:\n"
           "                rest.extend(loop)\n"
           "        rest.append((PLUS, i))\n",
           "        downs.append((MINUS, j))\n"
           "        rest.append((PLUS, i))\n"
           "        for li, lj, c in level:\n"
           "            loop = ((PLUS, li), (MINUS, lj))\n"
           "            if c > 1:\n"
           "                rest.append((loop, c))\n"
           "            elif c:\n"
           "                rest.extend(loop)\n",
           [WR + "test_u_conservation_random",
            WR + "test_zero_sum_yields_identity_word"]),
    # (1 + X)^m must fill T's longest inner zero run, not one less
    Mutant("walk-gap-fill-short", "wreath.py",
           "    m = max((b - a - 1 for a, b in zip(nz, nz[1:])), default=0)\n",
           "    m = max([b - a - 2 for a, b in zip(nz, nz[1:])] + [0])\n",
           [WR + "test_walk_length_never_exceeds_the_figure_construction",
            WR + "test_u_conservation_random"]),
    # h_ij = X^-1 H_i + G_j: H_i's body one exponent lower
    Mutant("hij-without-x-inverse", "wreath.py",
           "    return {(i, j): hi.shifted(-1) + gj\n",
           "    return {(i, j): hi + gj\n",
           [WR + "test_hij_examples",
            WR + "test_hij_is_upper_right_of_product"]),
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
           "IsolatingInterval(sorted(payload), lo, lo, mult_free, lo, None)",
           "IsolatingInterval(sorted(payload), lo - 1, lo, mult_free, lo, None)",
           [RD + "test_isolate_ordering_and_disjointness",
            RD + "test_isolation_invariants",
            RD + "test_integer_endpoints_match_fraction_reference"]),
    # the local-max bound weighs a positive coefficient's t-th pairing 2^-t
    Mutant("lm-bound-unweighted", "realdec.py",
           "            t += 1\n",
           "            pass\n",
           [RD + "test_lm_bound_counts_each_use_of_a_positive_coefficient",
            RD + "test_lm_bound_is_above_every_positive_root"]),
    # the bound's K is the least sound one, not one below it
    Mutant("lm-bound-one-short", "realdec.py",
           "    return K\n",
           "    return K - 1\n",
           [RD + "test_lm_bound_counts_each_use_of_a_positive_coefficient",
            RD + "test_lm_bound_is_above_every_positive_root"]),
    # an owner of a root is signed again at the next root
    Mutant("sweep-owners-stay-zero", "realdec.py",
           "        prev = root.owners\n",
           "        prev = ()\n",
           [RD + "test_sweep_evaluates_each_input_once_plus_once_per_owned_root_but_the_last",
            RD + "test_sweep_matches_per_candidate_scan_on_seeded_families"]),
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
    # the Taylor shift keeps its last row, the leading coefficient's
    Mutant("shift1-last-row-dropped", "kernels.py",
           "    while len(r) > 1:\n",
           "    while len(r) > 2:\n",
           ["tests/test_kernels.py::test_shift1_matches_the_double_loop",
            "tests/test_kernels.py::test_shift1_is_taylor_shift"]),
    # a dyadic den's power at p_i is 2^(k j), j = deg p - i, not 2^(k (j - 1))
    Mutant("eval-scaled-dyadic-shift-one-short", "kernels.py",
           "        sh += k\n        acc = acc * num + (c << sh)\n",
           "        acc = acc * num + (c << sh)\n        sh += k\n",
           ["tests/test_kernels.py::test_eval_scaled_matches_the_running_power",
            "tests/test_kernels.py::test_eval_scaled_dyadic_examples"]),
    # c_0 takes a^0: the running power moves on only after its use; a
    # common factor a changes no sign variation count, so only the exact
    # image of the interval shows it
    Mutant("homog-power-advanced-early", "realdec.py",
           "        out.append(c * pa)\n        pa *= a\n",
           "        pa *= a\n        out.append(c * pa)\n",
           [RD + "test_to_unit_is_the_exact_image_of_the_interval"]),
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
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants"]
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
