"""Command line front end: problem files in, verdicts and certificates out.

Problem files are JSON: {"equation": {"h": [poly, ...]}} or
{"wreath": {"generators": [{"H": poly, "b": 1}, ...]}}, where poly is
{"coeffs": [c0, c1, ...], "lowest": k} or a bare coefficient list
(lowest 0).  No other key is allowed at any level.  Coefficients are
exact integers; decimal strings are accepted, and emitted, for values a
53-bit double cannot hold.  A terse text form also works for equation
inputs: one polynomial per line, ascending integer coefficients
separated by spaces.

A malformed file is a SchemaError.  Past the whole-file checks (empty
input, not UTF-8, not JSON, not exactly one top-level key, the wrong
kind for the command) its message starts with the place it names: "top
level", "equation", "wreath", "equation.h[i]", "generators[i]",
"generators[i].H", or one of their fields (".b", ".lowest",
".coeffs[j]"); a text row names its "line n".  An object of the wrong
shape reads "<place>: expected an object, got <type>", "<place>:
missing field '<key>'" or "<place>: unknown field '<key>'".

Wreath generators keep file order within each sign: the k-th "b": 1
entry is A_k, the k-th "b": -1 entry is B_k, and output words name them
that way ("A1 B2 ..."); a loop repeated c times prints as "(A1 B2)^c".

Exit codes: 0 = Solvable / yes, 1 = Unsolvable / no, 2 = bad input, an
input too large or too deeply nested to read, or the degree cap (for
`wreath word`) or memory exhaustion stopped the run before its answer.
Reports go to stdout (JSON with --json, line-oriented text otherwise),
diagnostics to stderr.
"""

import argparse
import json
import re
import sys
from time import perf_counter

from . import nxsolve
from ._record import Record
from .errors import PosringError, SchemaError
from .polyring import IntPoly, LaurentPoly
from .realdec import RationalPoint

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_BIG = 2 ** 53


class ProblemFile(Record):
    __slots__ = ("kind", "hs", "generators")
    _defaults = {"hs": None, "generators": None}


def _int_from_json(value, where):
    if isinstance(value, bool):
        raise SchemaError("%s: expected an integer, got a boolean" % where)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _INT_RE.match(value.strip()):
            return int(value)
        raise SchemaError("%s: %r is not a decimal integer" % (where, value))
    raise SchemaError("%s: expected an exact integer, got %r" % (where, value))


def _only(obj, fields, where):
    stray = set(obj).difference(fields)
    if stray:
        raise SchemaError("%s: unknown field %r" % (where, sorted(stray)[0]))


def _obj(value, where, need, allowed=()):
    """value, checked to be an object with every key of need and no key
    outside need + allowed."""
    if not isinstance(value, dict):
        raise SchemaError("%s: expected an object, got %s" % (where, type(value).__name__))
    for key in need:
        if key not in value:
            raise SchemaError("%s: missing field %r" % (where, key))
    _only(value, need + allowed, where)
    return value


def _poly_fields(value, where):
    if isinstance(value, list):
        coeffs, lowest = value, 0
    elif isinstance(value, dict):
        coeffs = _obj(value, where, ("coeffs",), ("lowest",))["coeffs"]
        lowest = _int_from_json(value.get("lowest", 0), where + ".lowest")
        if not isinstance(coeffs, list):
            raise SchemaError("%s: 'coeffs' must be a list" % where)
    else:
        raise SchemaError("%s: expected a polynomial, got %r" % (where, value))
    return [_int_from_json(c, "%s.coeffs[%d]" % (where, i))
            for i, c in enumerate(coeffs)], lowest


def _intpoly_from_json(value, where):
    coeffs, lowest = _poly_fields(value, where)
    if lowest < 0 and any(coeffs):
        raise SchemaError("%s: equation polynomials cannot have negative exponents"
                          % where)
    return IntPoly([0] * max(lowest, 0) + coeffs)


def _enc_int(n):
    return str(n) if abs(n) >= _BIG else n


def poly_to_json(p):
    """JSON object for an IntPoly or LaurentPoly, big values as strings."""
    if isinstance(p, LaurentPoly):
        return {"coeffs": [_enc_int(c) for c in p.body.coeffs], "lowest": p.lowest}
    return {"coeffs": [_enc_int(c) for c in p.coeffs], "lowest": 0}


def parse_input(data):
    """ProblemFile from JSON bytes, or terse text rows for equations."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("input is not UTF-8: %s" % exc) from None
    body = data.strip()
    if not body:
        raise SchemaError("empty input")
    if body.startswith("{"):
        return _parse_json(body)
    return _parse_text(body)


def _parse_json(body):
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise SchemaError("not valid JSON: %s" % exc) from None
    _only(doc, ("equation", "wreath"), "top level")
    if len(doc) != 1:
        raise SchemaError("need exactly one of 'equation' or 'wreath' at top level")
    if "equation" in doc:
        rows = _obj(doc["equation"], "equation", ("h",))["h"]
        if not isinstance(rows, list) or not rows:
            raise SchemaError("equation.h must be a nonempty list of polynomials")
        hs = tuple(_intpoly_from_json(x, "equation.h[%d]" % i)
                   for i, x in enumerate(rows))
        return ProblemFile("equation", hs=hs)
    entries = _obj(doc["wreath"], "wreath", ("generators",))["generators"]
    if not isinstance(entries, list):
        raise SchemaError("wreath.generators must be a list")
    sides = {1: [], -1: []}
    for i, entry in enumerate(entries):
        where = "generators[%d]" % i
        _obj(entry, where, ("H", "b"))
        b = _int_from_json(entry["b"], where + ".b")
        if b not in sides:
            raise SchemaError("%s.b must be 1 or -1, got %r" % (where, b))
        sides[b].append(LaurentPoly(*_poly_fields(entry["H"], where + ".H")))
    from . import wreath  # loaded for wreath files only, never by a solve
    return ProblemFile("wreath", generators=wreath.GeneratorSet(sides[1], sides[-1]))


def _parse_text(body):
    hs = []
    for lineno, line in enumerate(body.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        row = []
        for tok in line.split():
            if not _INT_RE.match(tok):
                raise SchemaError("line %d: %r is not an integer" % (lineno, tok))
            row.append(int(tok))
        hs.append(IntPoly(row))
    return ProblemFile("equation", hs=tuple(hs))


def problem_to_json(pf):
    """Dict form of a ProblemFile; parse_input inverts it exactly."""
    if pf.kind == "equation":
        return {"equation": {"h": [poly_to_json(h) for h in pf.hs]}}
    gens = pf.generators
    entries = [{"H": poly_to_json(h), "b": 1} for h in gens.plus]
    entries += [{"H": poly_to_json(h), "b": -1} for h in gens.minus]
    return {"wreath": {"generators": entries}}


def emit_output(report):
    """Serialize a report dict as indented ASCII JSON."""
    return (json.dumps(report, indent=2) + "\n").encode("ascii")


def _text_value(flag):
    return "true" if flag else "false"


# ------------------------------------------------------------- commands


def _problem(args, kind):
    # the ProblemFile at args.file, which must hold a kind problem
    if args.file == "-":
        pf = parse_input(sys.stdin.buffer.read())
    else:
        with open(args.file, "rb") as fh:
            pf = parse_input(fh.read())
    if pf.kind != kind:
        raise SchemaError("%s needs %r at top level, not %r" % (args.command, kind, pf.kind))
    return pf


def _sample_json(sample):
    if isinstance(sample, RationalPoint):
        return str(sample.value)
    iv = sample.interval
    return {"interval": [str(iv.lo), str(iv.hi)], "poly": poly_to_json(IntPoly(iv.s))}


def _sample_text(sample):
    if isinstance(sample, RationalPoint):
        return "t = %s" % sample.value
    iv = sample.interval
    return "t in (%s, %s]" % (iv.lo, iv.hi)


def cmd_solve(args):
    hs = list(_problem(args, "equation").hs)
    t0 = perf_counter()
    decision = nxsolve.decide(hs)
    witness = None
    if decision.status == nxsolve.SOLVABLE and args.witness:
        witness = nxsolve.find_witness(hs, args.degree_cap)
    elapsed = round(perf_counter() - t0, 6)

    report = {"status": decision.status}
    lines = ["status: %s" % decision.status]
    if decision.status == nxsolve.UNSOLVABLE:
        cert = decision.certificate
        sv = cert.sign_vector
        verified = nxsolve.verify_certificate(cert)
        report["reason"] = decision.unsolvable_reason
        report["certificate"] = {
            "sample": _sample_json(sv.sample),
            "signs": list(sv.signs),
            "x_divisions": cert.x_divisions,
            "gcd_removed": poly_to_json(cert.gcd_removed),
            "verified": verified,
        }
        lines.append("reason: %s" % decision.unsolvable_reason)
        lines.append("sample: %s" % _sample_text(sv.sample))
        lines.append("signs: %s" % " ".join("%+d" % s if s else "0" for s in sv.signs))
        lines.append("certificate verified: %s" % _text_value(verified))
    elif args.witness:
        if witness is not None:
            fs = witness.fs
            verified = nxsolve.verify_witness(hs, list(fs))
            report["witness"] = [poly_to_json(f) for f in fs]
            report["witness_verified"] = verified
            lines.append("witness: %s" % "; ".join(str(f) for f in fs))
            lines.append("witness verified: %s" % _text_value(verified))
        else:
            report["witness"] = None
            lines.append("witness: not found within degree cap %d" % args.degree_cap)
        report["witness_status"] = (nxsolve.WITNESS_NOT_FOUND if witness is None
                                    else nxsolve.WITNESS_FOUND)
    report["timing"] = {"seconds": elapsed}

    _write_report(args, report, lines)
    return 0 if decision.status == nxsolve.SOLVABLE else 1


def cmd_wreath(args):
    gens = _problem(args, "wreath").generators
    from . import wreath
    t0 = perf_counter()
    if args.question == "group":
        ok, info = wreath.is_group(gens, args.degree_cap)
    else:
        ok, word = wreath.identity_witness_word(gens, args.degree_cap)
    elapsed = round(perf_counter() - t0, 6)

    if args.question == "group":
        report = {"is_group": ok}
        lines = ["is group: %s" % _text_value(ok)]
        if ok:
            cover, witness = info
            report["cover"] = [list(p) for p in cover.pairs]
            lines.append("cover: %s" % " ".join("(%d,%d)" % p for p in cover.pairs))
            if witness is not None:
                report["witness"] = [poly_to_json(f) for f in witness.fs]
                lines.append("witness: %s" % "; ".join(str(f) for f in witness.fs))
            else:
                report["witness"] = None
                lines.append("witness: not found within degree cap %d"
                             % args.degree_cap)
    else:
        verified = (word is not None and
                    wreath.word_product(gens, word) == wreath.WreathElement.identity())
        if args.question == "identity":
            report = {"identity_in_semigroup": ok}
            lines = ["identity in semigroup: %s" % _text_value(ok)]
            if word is not None:
                report["word"] = str(word)
                report["verified"] = verified
                lines.append("word: %s" % word)
                lines.append("product = identity: %s" % _text_value(verified))
            elif ok:
                report["word"] = None
                lines.append("word: not synthesized (degree cap %d)" % args.degree_cap)
        elif not ok:
            report = {"identity_in_semigroup": False, "word": None}
            lines = ["identity in semigroup: false"]
        elif word is None:
            print("degree cap %d exhausted before a witness; no word synthesized"
                  % args.degree_cap, file=sys.stderr)
            return 2
        else:
            report = {"word": str(word), "verified": verified}
            lines = [str(word), "product = identity: %s" % _text_value(verified)]
    report["timing"] = {"seconds": elapsed}
    _write_report(args, report, lines)
    return 0 if ok else 1


def _write_report(args, report, lines):
    if args.fmt == "json":
        sys.stdout.buffer.write(emit_output(report))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------- entry point


def _add_common(p, func):
    p.add_argument("file", help="problem file path, or - for stdin")
    p.add_argument("--degree-cap", type=int, default=nxsolve.DEGREE_CAP, metavar="N",
                   help="max degree of each witness polynomial (default %d)"
                        % nxsolve.DEGREE_CAP)
    p.add_argument("--json", dest="fmt", action="store_const", const="json",
                   help="machine-readable report on stdout")
    p.add_argument("--text", dest="fmt", action="store_const", const="text",
                   help="line-oriented report (default)")
    p.set_defaults(fmt="text", func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posring",
        description="Exact decisions for sum f_i*h_i = 0 over nonzero "
                    "N[X] tuples, and group/identity problems for wreath "
                    "product generators of height +-1.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an equation problem file")
    solve.add_argument("--witness", action="store_true",
                       help="also search for an explicit witness tuple")
    _add_common(solve, cmd_solve)

    wre = sub.add_parser("wreath", help="group/identity questions for generators")
    wre.add_argument("question", choices=("group", "identity", "word"))
    _add_common(wre, cmd_wreath)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.degree_cap < 0:
        print("input error: --degree-cap must be nonnegative, got %d"
              % args.degree_cap, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, PosringError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory before the run finished; no answer", file=sys.stderr)
        return 2
    except (OverflowError, RecursionError) as exc:
        print("input too large or too deeply nested to read: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
