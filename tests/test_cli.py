import json
import subprocess
import sys

import pytest

from posring import cli
from posring.errors import SchemaError
from posring.nxsolve import verify_witness
from posring.polyring import IntPoly, LaurentPoly

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
        again = cli.parse_input(cli.emit_output(cli.problem_to_json(pf), "json"))
        assert again == pf


def test_poly_to_json_big_values_as_strings():
    enc = cli.poly_to_json(IntPoly([1, 2 ** 53]))
    assert enc == {"coeffs": [1, str(2 ** 53)], "lowest": 0}
    assert json.loads(cli.emit_output(enc, "json"))["coeffs"][1] == str(2 ** 53)


def test_emit_text_lines():
    out = cli.emit_output({"status": "Solvable", "ok": True, "w": [1, 0]}, "text")
    assert out == b"status: Solvable\nok: true\nw: 1 0\n"


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


def test_solve_algebraic_sample(problem, capsys):
    src = '{"equation": {"h": [[-2, 0, 1], [2, 0, -1], [-1, 1]]}}'
    code, out, _ = run(["solve", problem(src), "--json"], capsys)
    assert code == 1
    cert = json.loads(out)["certificate"]
    assert "interval" in cert["sample"]
    assert cert["signs"] == [0, 0, 1]
    assert cert["verified"] is True


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
    gens = ", ".join('{"H": [1], "b": 1}' for _ in range(13))
    code, _, err = run(
        ["wreath", "identity", problem('{"wreath": {"generators": [%s]}}' % gens)],
        capsys)
    assert code == 2
    assert "cap" in err
    big = ('{"wreath": {"generators": [%s, {"H": [-1], "b": -1},'
           ' {"H": [2], "b": -1}]}}'
           % ", ".join('{"H": [%d], "b": 1}' % i for i in range(11)))
    code, _, err = run(["wreath", "group", problem(big)], capsys)
    assert code == 2
    assert "cap" in err


def test_wreath_rejects_equation_file(problem, capsys):
    code, _, err = run(["wreath", "group", problem(REMARK)], capsys)
    assert code == 2 and "wreath" in err


# ------------------------------------------------------- flags and env


def test_degree_cap_env(problem, capsys, monkeypatch):
    shift = '{"equation": {"h": [[1, 1], [-2, -1]]}}'
    monkeypatch.setenv("POSRING_DEGREE_CAP", "0")
    code, out, _ = run(["solve", problem(shift), "--witness", "--json"], capsys)
    assert json.loads(out)["witness"] is None
    # explicit flag beats the environment
    code, out, _ = run(
        ["solve", problem(shift), "--witness", "--degree-cap", "3", "--json"],
        capsys)
    assert json.loads(out)["witness"] is not None
    monkeypatch.setenv("POSRING_DEGREE_CAP", "zap")
    code, _, err = run(["solve", problem(shift)], capsys)
    assert code == 2 and "POSRING_DEGREE_CAP" in err


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
