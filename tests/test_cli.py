import json
import re
import subprocess
import sys

import pytest

from fractions import Fraction

from posring import cli, nxsolve, wreath
from posring.errors import NotDivisible, SchemaError
from posring.nxsolve import verify_witness
from posring.polyring import IntPoly, LaurentPoly, eval_at_rational, exact_div

REMARK = '{"equation": {"h": [[1], [-1, 2, -1]]}}'
TRIPLE = '{"equation": {"h": [[-1, 1], [1], [0, -1]]}}'
PAIR = ('{"wreath": {"generators": [{"H": [1], "b": 1},'
        ' {"H": {"coeffs": [-1], "lowest": -1}, "b": -1}]}}')
STUCK = '{"wreath": {"generators": [{"H": [1], "b": 1}, {"H": [1], "b": -1}]}}'
THREE = ('{"wreath": {"generators": [{"H": [1], "b": 1},'
         ' {"H": {"coeffs": [-1], "lowest": -1}, "b": -1},'
         ' {"H": [0, 0, 0, 0, 0, 1], "b": 1}]}}')


@pytest.fixture
def problem(tmp_path):
    def write(content, name="problem.json"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- parse


def test_parse_equation_poly_forms():
    pf = cli.parse_input(b'{"equation": {"h": [[1, 2], {"coeffs": [3], "lowest": 2}]}}')
    assert pf.kind == "equation"
    assert pf.hs == (IntPoly([1, 2]), IntPoly([0, 0, 3]))


def test_parse_equation_rejects_negative_lowest():
    with pytest.raises(SchemaError):
        cli.parse_input(b'{"equation": {"h": [{"coeffs": [1], "lowest": -1}]}}')


def test_parse_wreath_laurent_h():
    pf = cli.parse_input(PAIR.encode())
    assert pf.kind == "wreath"
    assert pf.generators.plus == (LaurentPoly([1]),)
    assert pf.generators.minus == (LaurentPoly([-1], -1),)


def test_parse_big_integer_strings():
    n = 123456789123456789123
    pf = cli.parse_input(('{"equation": {"h": [["%d"]]}}' % n).encode())
    assert pf.hs[0].coeffs == (n,)


def test_parse_rejects_non_integers():
    for bad in ('{"equation": {"h": [[1.5]]}}',
                '{"equation": {"h": [[true]]}}',
                '{"equation": {"h": [["12x"]]}}'):
        with pytest.raises(SchemaError):
            cli.parse_input(bad.encode())


def test_parse_rejects_bad_shapes():
    for bad in ("", "   ", "not json {",
                '{"equation": {"h": []}}',
                '{"equation": {}}',
                '{"equation": {"h": [[1]]}, "wreath": {"generators": []}}',
                '{"other": 1}',
                '{"equation": {"h": [{"coeffs": [1], "deg": 2}]}}',
                '{"wreath": {"generators": [{"H": [1]}]}}',
                '{"wreath": {"generators": [{"H": [1], "b": 2}]}}',
                '{"wreath": {"generators": [{"H": [1], "b": 1, "lowest": -1}]}}'):
        with pytest.raises(SchemaError):
            cli.parse_input(bad.encode())


def test_parse_rejects_unknown_keys():
    cases = {
        '{"equation": {"h": [[1, 2], [-1]]}, "x": 1}': "top level: unknown field 'x'",
        '{"equation": {"h": [[1, 2], [-1]], "x": 1}}': "equation: unknown field 'x'",
        '{"wreath": {"generators": [], "cap": 3}}': "wreath: unknown field 'cap'",
        '{"meta": 0, "wreath": {"generators": []}}': "top level: unknown field 'meta'",
        '{"equation": {"h": [{"coeffs": [1], "deg": 2}]}}': "unknown field 'deg'",
    }
    for bad, msg in cases.items():
        with pytest.raises(SchemaError, match=re.escape(msg)):
            cli.parse_input(bad.encode())


def test_parse_text_rows():
    pf = cli.parse_input(b"1\n-1 2 -1\n\n")
    assert pf.hs == (IntPoly([1]), IntPoly([-1, 2, -1]))
    with pytest.raises(SchemaError):
        cli.parse_input(b"1 two 3\n")


def test_problem_round_trip():
    big = 2 ** 60 + 7
    for pf in (
        cli.ProblemFile("equation", hs=(IntPoly([1, -big]), IntPoly([0, 2]))),
        cli.parse_input(THREE.encode()),
    ):
        again = cli.parse_input(cli.emit_output(cli.problem_to_json(pf)))
        assert again == pf


def test_poly_to_json_big_values_as_strings():
    enc = cli.poly_to_json(IntPoly([1, 2 ** 53]))
    assert enc == {"coeffs": [1, str(2 ** 53)], "lowest": 0}
    assert json.loads(cli.emit_output(enc))["coeffs"][1] == str(2 ** 53)


# ---------------------------------------------------------------- solve


def test_solve_remark_pair(problem, capsys):
    code, out, _ = run(["solve", problem(REMARK), "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "Unsolvable"
    assert report["certificate"]["sample"] == "1"
    assert report["certificate"]["signs"] == [1, 0]
    assert report["certificate"]["verified"] is True


def test_solve_triple_witness_reverifies(problem, capsys):
    code, out, _ = run(["solve", problem(TRIPLE), "--witness", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    fs = [cli._intpoly_from_json(w, "witness") for w in report["witness"]]
    assert fs == [IntPoly([1])] * 3
    pf = cli.parse_input(TRIPLE.encode())
    assert verify_witness(list(pf.hs), fs)
    assert report["witness_verified"] is True


def test_solve_text_output(problem, capsys):
    code, out, _ = run(["solve", problem(REMARK)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status: Unsolvable"
    assert "sample: t = 1" in lines
    assert "certificate verified: true" in lines


def test_solve_witness_text_output(problem, capsys):
    code, out, _ = run(["solve", problem(TRIPLE), "--witness"], capsys)
    assert code == 0
    assert out == "status: Solvable\nwitness: 1; 1; 1\nwitness verified: true\n"
    # (X + 1, -X - 2) needs degree 1, so cap 0 misses, and the verdict
    # stands on its own
    shift = '{"equation": {"h": [[1, 1], [-2, -1]]}}'
    code, out, _ = run(["solve", problem(shift), "--witness", "--degree-cap", "0"],
                       capsys)
    assert code == 0
    assert out == "status: Solvable\nwitness: not found within degree cap 0\n"
    # an Unsolvable verdict runs no witness search and reports none
    code, out, _ = run(["solve", problem(REMARK), "--witness"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "status: Unsolvable"
    assert not any(line.startswith("witness") for line in out.splitlines())
    code, out, _ = run(["solve", problem(REMARK), "--witness", "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert "witness" not in report and "witness_status" not in report


def test_solve_algebraic_sample(problem, capsys):
    src = '{"equation": {"h": [[-2, 0, 1], [2, 0, -1], [-1, 1]]}}'
    code, out, _ = run(["solve", problem(src), "--json"], capsys)
    assert code == 1
    cert = json.loads(out)["certificate"]
    assert "interval" in cert["sample"]
    assert cert["signs"] == [0, 0, 1]
    assert cert["verified"] is True
    # the defining polynomial re-checks the sample from the JSON alone
    lo, hi = (Fraction(x) for x in cert["sample"]["interval"])
    poly = cli._intpoly_from_json(cert["sample"]["poly"], "poly")
    assert eval_at_rational(poly, lo) * eval_at_rational(poly, hi) < 0
    normalized = nxsolve.decide(list(cli.parse_input(src.encode()).hs)).certificate.hs
    for h, sign in zip(normalized, cert["signs"]):
        if sign == 0:
            exact_div(h, poly)  # raises NotDivisible unless poly divides h
        else:
            with pytest.raises(NotDivisible):
                exact_div(h, poly)


def test_solve_text_input_file(problem, capsys):
    code, out, _ = run(["solve", problem("1\n-1 2 -1\n", "rows.txt")], capsys)
    assert code == 1
    assert "Unsolvable" in out


def test_solve_witness_cap_reported(problem, capsys):
    # (X+2, X+1) is the least witness here, so constants cannot work
    shift = '{"equation": {"h": [[1, 1], [-2, -1]]}}'
    code, out, _ = run(
        ["solve", problem(shift), "--witness", "--degree-cap", "0", "--json"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["witness"] is None
    assert report["witness_status"] == "NotFoundWithinCap"


def test_solve_errors(problem, capsys):
    code, _, err = run(["solve", problem("")], capsys)
    assert code == 2 and "empty" in err
    code, _, err = run(["solve", problem(PAIR)], capsys)
    assert code == 2 and "equation" in err
    code, _, err = run(["solve", "/nonexistent/problem.json"], capsys)
    assert code == 2
    code, out, err = run(["solve", problem('{"equation": {"h": [[1, 2], [-1]], "x": 1}}')],
                         capsys)
    assert code == 2 and out == "" and "equation: unknown field 'x'" in err


# --------------------------------------------------------------- wreath


def test_wreath_group_pair(problem, capsys):
    code, out, _ = run(["wreath", "group", problem(PAIR), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["is_group"] is True
    assert report["cover"] == [[1, 1]]
    assert report["witness"] == [{"coeffs": [1], "lowest": 0}]


def test_wreath_group_false(problem, capsys):
    code, out, _ = run(["wreath", "group", problem(STUCK)], capsys)
    assert code == 1
    assert out.splitlines()[0] == "is group: false"


def test_wreath_identity_word_output(problem, capsys):
    code, out, _ = run(["wreath", "identity", problem(THREE)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity in semigroup: true"
    assert lines[1] == "word: A1 B1"
    assert lines[2] == "product = identity: true"


def test_wreath_identity_false_and_single(problem, capsys):
    code, out, _ = run(["wreath", "identity", problem(STUCK)], capsys)
    assert code == 1
    single = '{"wreath": {"generators": [{"H": [1], "b": 1}]}}'
    code, out, _ = run(["wreath", "identity", problem(single)], capsys)
    assert code == 1


def test_wreath_word_output(problem, capsys):
    code, out, _ = run(["wreath", "word", problem(THREE)], capsys)
    assert code == 0
    assert out == "A1 B1\nproduct = identity: true\n"
    code, _, _ = run(["wreath", "word", problem(STUCK)], capsys)
    assert code == 1


def test_wreath_word_scale_override(problem, capsys):
    # zero-sum 2x2 family: H2 = -H1 - X*(G1+G2) with H1=1, G1=1, G2=-2
    src = ('{"wreath": {"generators": ['
           '{"H": [1], "b": 1}, {"H": [-1, 1], "b": 1},'
           ' {"H": [1], "b": -1}, {"H": [-2], "b": -1}]}}')
    code, out, _ = run(["wreath", "word", problem(src)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "product = identity: true"


def test_wreath_cap_diagnostics(problem, capsys):
    # nothing enumerates generator subsets, so no file is refused for size
    gens = ", ".join('{"H": [1], "b": 1}' for _ in range(13))
    code, out, _ = run(
        ["wreath", "identity", problem('{"wreath": {"generators": [%s]}}' % gens)],
        capsys)
    assert code == 1
    assert out.splitlines()[0] == "identity in semigroup: false"
    # 11 x 2: row H = 0 gives h = -1 and 2, so the maximal support is the
    # whole grid and the semigroup is a group
    big = problem('{"wreath": {"generators": [%s, {"H": [-1], "b": -1},'
                  ' {"H": [2], "b": -1}]}}'
                  % ", ".join('{"H": [%d], "b": 1}' % i for i in range(11)))
    code, out, _ = run(["wreath", "group", big, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["is_group"] is True
    assert len(report["cover"]) == 22 and report["witness"] is not None
    # the word comes from the witness on all 22 pairs; its text re-checks
    with open(big, "rb") as fh:
        pf = cli.parse_input(fh.read())
    code, out, _ = run(["wreath", "identity", big, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["identity_in_semigroup"] is True
    assert report["verified"] is True and "word_cap" not in report
    assert wreath.word_product(pf.generators, _parse_word(report["word"])) == \
        wreath.WreathElement.identity()
    code, out, _ = run(["wreath", "word", big], capsys)
    assert code == 0
    word, verdict = out.splitlines()
    assert word == report["word"] and verdict == "product = identity: true"


def _parse_word(text):
    # "A2 (A1 B2)^3 B1" -> Word entries, powers as (loop, count)
    entries = []
    for loop, count, side, index in re.findall(r"\(([^)]*)\)\^(\d+)|([AB])(\d+)", text):
        if loop:
            entries.append((_parse_word(loop).letters, int(count)))
        else:
            entries.append((side, int(index)))
    return wreath.Word(tuple(entries))


def test_wreath_word_out_of_memory(problem, capsys, monkeypatch):
    # a word too long to build must not exit 1, which means "no"
    def exhausted(pairs, fs):
        raise MemoryError()

    monkeypatch.setattr(wreath, "_walk", exhausted)
    src = ('{"wreath": {"generators": ['
           '{"H": [1], "b": 1}, {"H": [-1, 1], "b": 1},'
           ' {"H": [1], "b": -1}, {"H": [-2], "b": -1}]}}')
    code, out, err = run(["wreath", "word", problem(src)], capsys)
    assert code == 2
    assert out == ""
    assert "out of memory" in err


def test_wreath_rejects_equation_file(problem, capsys):
    code, _, err = run(["wreath", "group", problem(REMARK)], capsys)
    assert code == 2 and "wreath" in err
    code, _, err = run(["wreath", "group", problem('{"wreath": {"generators": [], "x": 1}}')],
                       capsys)
    assert code == 2 and "wreath: unknown field 'x'" in err


def test_input_too_large_exits_2(problem, capsys):
    # a lowest exponent past the index range: an equation fails on reading
    # it, a wreath generator in the kernels; neither may exit 1 ("no")
    big = '{"coeffs": [1], "lowest": 100000000000000000000}'
    code, out, err = run(
        ["solve", problem('{"equation": {"h": [%s, [-1]]}}' % big)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input too large or too deeply nested to read")
    gens = problem('{"wreath": {"generators": [{"H": %s, "b": 1},'
                   ' {"H": [-1], "b": -1}]}}' % big)
    for q in ("group", "identity", "word"):
        code, out, err = run(["wreath", q, gens], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input too large or too deeply nested to read")


def test_input_too_deeply_nested_exits_2(problem, capsys):
    depth = 100000
    code, out, err = run(
        ["solve", problem('{"equation": {"h": %s}}' % ("[" * depth + "]" * depth))],
        capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input too large or too deeply nested to read")
    assert len(err.splitlines()) == 1


CAPPED = ('{"wreath": {"generators": [{"H": [0], "b": 1},'
          ' {"H": [1, 1], "b": -1}, {"H": [-2, -1], "b": -1}]}}')


def test_wreath_degree_cap_zero_stops_the_witness(problem, capsys):
    # a group whose least witness has degree 1: at cap 0 each question
    # still answers from M, and only `word`, which owes a word, exits 2
    path = problem(CAPPED)
    cap = ["--degree-cap", "0"]
    code, out, _ = run(["wreath", "group", path] + cap, capsys)
    assert code == 0
    assert "witness: not found within degree cap 0" in out.splitlines()
    code, out, _ = run(["wreath", "group", path, "--json"] + cap, capsys)
    report = json.loads(out)
    assert code == 0 and report["is_group"] is True and report["witness"] is None
    code, out, _ = run(["wreath", "identity", path] + cap, capsys)
    assert code == 0
    assert "word: not synthesized (degree cap 0)" in out.splitlines()
    code, out, _ = run(["wreath", "identity", path, "--json"] + cap, capsys)
    report = json.loads(out)
    assert code == 0 and report["identity_in_semigroup"] is True
    assert report["word"] is None
    code, out, err = run(["wreath", "word", path] + cap, capsys)
    assert (code, out) == (2, "")
    assert err == "degree cap 0 exhausted before a witness; no word synthesized\n"
    # without the cap the word is found
    code, out, _ = run(["wreath", "word", path], capsys)
    assert code == 0 and out.splitlines()[1] == "product = identity: true"


# ------------------------------------------------------- flags and env


def test_degree_cap_env(problem, capsys, monkeypatch):
    # the flag alone sets the cap; the environment plays no part
    shift = '{"equation": {"h": [[1, 1], [-2, -1]]}}'
    monkeypatch.setenv("POSRING_DEGREE_CAP", "0")
    code, out, _ = run(["solve", problem(shift), "--witness", "--json"], capsys)
    assert json.loads(out)["witness"] is not None
    code, out, _ = run(
        ["solve", problem(shift), "--witness", "--degree-cap", "0", "--json"],
        capsys)
    assert json.loads(out)["witness"] is None


def test_negative_degree_cap_rejected(problem, capsys):
    shift = problem('{"equation": {"h": [[1, 1], [-2, -1]]}}')
    code, out, err = run(["solve", shift, "--witness", "--degree-cap", "-3"], capsys)
    assert code == 2 and out == ""
    assert "input error" in err and "--degree-cap" in err
    code, out, err = run(["wreath", "word", problem(THREE), "--degree-cap", "-1"],
                         capsys)
    assert code == 2 and out == "" and "input error" in err


def test_module_entry_point(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(REMARK)
    proc = subprocess.run(
        [sys.executable, "-m", "posring.cli", "solve", str(path), "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "Unsolvable"


def test_import_loads_no_process_pool():
    probe = ("import sys, posring.cli; print(sorted(m for m in "
             "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_FOOTPRINT = """
import sys
from posring.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in ("posring.wreath", "dataclasses", "inspect")
                   if m in sys.modules))
"""


def _footprint(argv):
    # exit code and heavy modules loaded by one fresh CLI run
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_solve_imports_only_the_solve_path(problem):
    path = problem(TRIPLE)
    assert _footprint(["solve", path, "--witness", "--json"]) == "0 []"
    assert _footprint(["solve", problem(REMARK, "remark.json")]) == "1 []"


def test_wreath_word_loads_wreath(problem):
    assert _footprint(["wreath", "word", problem(PAIR), "--json"]) == \
        "0 ['posring.wreath']"


def test_package_exports_are_lazy():
    import posring
    probe = "import sys, posring; print(sorted(m for m in sys.modules if 'posring' in m))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout.strip() == "['posring']", proc.stderr
    listing = dir(posring)
    star = {}
    exec("from posring import *", star)
    for name in posring.__all__:
        home = sys.modules["posring." + posring._HOME[name]]
        assert getattr(posring, name) is getattr(home, name) is star[name]
        assert name in listing and name not in vars(posring)
    assert set(star) - {"__builtins__"} == set(posring.__all__)
    with pytest.raises(AttributeError):
        posring.no_such_name
    with pytest.raises(ImportError):
        exec("from posring import no_such_name", {})


def test_stdin_input():
    proc = subprocess.run(
        [sys.executable, "-m", "posring.cli", "solve", "-", "--witness", "--json"],
        input=TRIPLE, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "Solvable"


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "posring.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
