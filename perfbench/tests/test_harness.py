"""Tests for the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402


@pytest.fixture(scope="module")
def P():
    return run.import_posring()


def _pool(name):
    with open(run.EXPECTED) as fh:
        return json.load(fh)["workloads"][name]


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    wl = wk.WORKLOADS[name]
    pool = _pool(name)
    assert len(pool) == wl.pool_size()
    first = wl.select(7, pool)
    assert first == wl.select(7, pool)
    assert len(first) == len(wl.classes) * wl.per_class
    assert [wk.digest(wl.raw(i)) for i in first] == [pool[i]["digest"] for i in first]
    assert {wk.digest(wl.raw(i)) for i in first} != \
        {wk.digest(wl.raw(i)) for i in wl.select(8, pool)}
    assert not any("excluded" in pool[i] for i in first)


def test_wide_decide_pool_has_both_verdicts():
    verdicts = [e["verdict"] for e in _pool("wide_decide")]
    assert verdicts.count("Solvable") > 10 and verdicts.count("Unsolvable") > 10


def test_a_call_past_its_limit_fails_its_instance(P):
    wl = _TinyDense()
    r = run.Run(wl, P, [None], [None])
    assert r.call(lambda P, inst: time.sleep(5), 0, limit_s=0.2) is None
    assert r.failed == 1 and r.errors[0].startswith("CallTimeout")
    assert r.times[0][0] < 2


def _tiny_traffic(P, tmp_path):
    """One small instance down every code path the workloads take."""
    rng = random.Random(3)
    P.nxsolve.decide(wk.intpolys(P, wk.dense_raw(rng, 8)["h"]))
    P.nxsolve.decide(wk.intpolys(P, wk.wide_raw(rng, 8)["h"]))
    gens = wk.generator_set(P, wk.wreath_raw(random.Random(5), "planted", 2, 2))
    P.wreath.is_group(gens)
    P.wreath.identity_witness_word(gens)
    cli = wk.CliWitness()
    cli.start(P, str(tmp_path))
    problems = [{"solve": {"h": [[-1, 1], [1], [0, -1]]}},   # Solvable, witness
                {"solve": {"h": [[1], [-1, 2, -1]]}},         # Unsolvable
                {"word": wk.wreath_raw(random.Random(5), "planted", 2, 2)}]
    for i, raw in enumerate(problems):
        code, report, _, _ = cli.inproc(P, cli.build(P, raw, i))
        assert code in (0, 1) and report is not None


def test_every_wrapper_fires(P, tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        _tiny_traffic(P, tmp_path)
    agg = tracer.aggregate()
    silent = ["%s.%s" % t for t in tracing.TARGETS if agg.get("%s.%s" % t, [0])[0] == 0]
    assert silent == []
    assert tracer.counters["wreath.decide.calls"] > 0
    assert tracer.counters["wreath.word_letters"] > 0
    assert tracer.counters["kernels.max_coeff_bits"] >= 63


def _bindings():
    return {(n, a): v for n, m in list(sys.modules.items())
            if m is not None and (n == "posring" or n.startswith("posring."))
            for a, v in list(vars(m).items()) if callable(v)}


def test_wrappers_are_gone_after_a_traced_run(P, tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert P.nxsolve.decide is not before[("posring.nxsolve", "decide")]
        assert P.wreath.decide is not before[("posring.wreath", "decide")]
        _tiny_traffic(P, tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_subtracts_the_union_of_children():
    t = tracing.Tracer()
    root = t.add_span("root", 0.0, 10.0)
    a = t.add_span("a", 1.0, 4.0, root)
    t.add_span("leaf", 1.5, 2.0, a)
    t.add_span("b", 3.0, 6.0, root)       # overlaps a: union is [1, 6]
    t.add_span("late", 9.0, 12.0, root)   # runs past its parent: clipped
    t.add_span("root", 20.0, 25.0)
    agg = t.aggregate()
    assert agg["root"] == [2, 15.0, 5.0 + 4.0]
    assert agg["a"] == [1, 3.0, 2.5]
    assert agg["leaf"] == [1, 0.5, 0.5]
    assert agg["b"] == [1, 3.0, 3.0]
    assert agg["late"] == [1, 3.0, 3.0]


class _TinyDense(wk.DenseDecide):
    classes = (10,)
    per_class = 3


def _tiny_pool(P, wl):
    pool = []
    for i in range(wl.pool_size()):
        raw = wl.raw(i)
        status = P.nxsolve.decide(wl.build(P, raw, i)).status
        pool.append({"digest": wk.digest(raw), "verdict": status, "ref_s": i % 5})
    return pool


def test_a_flipped_expected_verdict_fails_the_run(P, tmp_path, monkeypatch):
    wl = _TinyDense()
    pool = _tiny_pool(P, wl)
    ok, _, errors = run.measure(wl, 1, 0.01, 0, pool, tmp_path / "w", tmp_path / "s.tsv")
    assert ok["correct"] and ok["failed"] == 0 and errors == []

    victim = wl.select(1, pool)[0]
    flip = {"Solvable": "Unsolvable", "Unsolvable": "Solvable"}
    pool[victim]["verdict"] = flip[pool[victim]["verdict"]]
    bad, notes, errors = run.measure(wl, 1, 0.01, 0, pool, tmp_path / "w", tmp_path / "s.tsv")
    assert not bad["correct"] and bad["failed"] >= 1 and notes["fail_ratio"] > 0
    assert [i for i, _ in errors] == [victim] and "verdict" in errors[0][1]

    monkeypatch.setitem(run.WORKLOADS, wl.name, wl)
    monkeypatch.setattr(run, "load_expected", lambda name: pool)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", wl.name, "--seed", "1", "--seconds", "0.01"])
    assert code == 1
    assert json.loads(out.getvalue().splitlines()[-1])["correct"] is False


def test_traced_run_reports_every_layer(P, tmp_path):
    wl = _TinyDense()
    pool = _tiny_pool(P, wl)
    res, _, errors = run.measure(wl, 1, 0.01, 1, pool, tmp_path / "w", tmp_path / "s.tsv")
    assert res["correct"] and errors == []
    m = res["metrics"]
    assert m["nxsolve.decide.calls"]["value"] == len(wl.select(1, pool))
    assert m["kernels.shift1.calls"]["value"] > 0
    assert m["wreath.decide.calls"]["value"] == 0
    assert m["wreath.slow_entries.overruns"]["value"] == 0
    assert m["trace.overhead_ratio"]["value"] > 0
    assert m["kernels.mul.d1000_s"]["value"] > 0
    assert (tmp_path / "s.tsv").read_text().startswith("id\tname\tstart")


def test_missing_sources_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dense_decide", "--seed", "1", "--seconds", "1"]) == 2
