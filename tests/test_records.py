"""Records (posring._record.Record subclasses): construction, equality,
hash, repr and immutability."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from posring import cli, nxsolve as nx, realdec, wreath as wr
from posring.polyring import IntPoly, LaurentPoly

# the signatures of the frozen dataclasses these records replaced
SIGNATURES = {
    nx.NormalizedInstance: "(hs, gcd_removed, x_divisions)",
    nx.SignCertificate: "(sign_vector, hs, gcd_removed, x_divisions)",
    nx.EarlyUnsolvable: "(sign_vector, hs, gcd_removed, x_divisions)",
    nx.WitnessTuple: "(fs)",
    nx.FeasibilitySystem: "(n, degree, cols, eq)",
    nx.Decision: "(status, certificate=None)",
    realdec.RationalPoint: "(value)",
    realdec.AlgebraicRoot: "(interval)",
    realdec.SignVector: "(sample, signs)",
    cli.ProblemFile: "(kind, hs=None, generators=None)",
    wr.WreathElement: "(f, b)",
    wr.GeneratorSet: "(plus, minus)",
    wr.Word: "(letters)",
    wr.CoverSubset: "(pairs)",
}


def _cert(cls):
    sv = realdec.SignVector(realdec.RationalPoint(Fraction(0)), (1, 1))
    return cls(sv, (IntPoly([1]), IntPoly([2])), IntPoly([1]), 0)


def test_signatures_match_the_dataclasses():
    for cls, sig in SIGNATURES.items():
        assert str(inspect.signature(cls)) == sig, cls
        assert cls._fields == cls.__match_args__ == tuple(
            inspect.signature(cls).parameters), cls


def test_positional_and_keyword_construction():
    assert nx.Decision(nx.SOLVABLE) == nx.Decision(status=nx.SOLVABLE, certificate=None)
    assert nx.Decision(nx.SOLVABLE).certificate is None
    hs = (IntPoly([1]), IntPoly([-1]))
    pf = cli.ProblemFile("equation", hs=hs)
    assert (pf.kind, pf.hs, pf.generators) == ("equation", hs, None)
    assert pf == cli.ProblemFile(kind="equation", hs=hs, generators=None)
    pf = cli.ProblemFile("wreath")
    assert (pf.hs, pf.generators) == (None, None)
    gens = wr.GeneratorSet(plus=(IntPoly([1]),), minus=[LaurentPoly([-1], -1)])
    assert gens == wr.GeneratorSet((LaurentPoly([1]),), (LaurentPoly([-1], -1),))
    # the old __post_init__ normalizations happen in __init__, on any iterable
    assert type(gens.plus) is type(gens.minus) is tuple
    assert isinstance(gens.plus[0], LaurentPoly)
    assert wr.GeneratorSet(iter([IntPoly([2, 3])]), ()).plus == (LaurentPoly([2, 3]),)
    with pytest.raises(TypeError):
        wr.GeneratorSet([[1]], [])
    assert wr.WreathElement(f=IntPoly([2]), b=1).f == LaurentPoly([2])
    assert wr.CoverSubset([[2, 1], (1, 1), (2, 1)]).pairs == ((1, 1), (2, 1))
    assert wr.CoverSubset(iter([(1, 2), [1, 1]])).pairs == ((1, 1), (1, 2))


def test_equality_needs_the_exact_class():
    plain, early = _cert(nx.SignCertificate), _cert(nx.EarlyUnsolvable)
    assert plain == _cert(nx.SignCertificate) and early == _cert(nx.EarlyUnsolvable)
    assert plain != early and early != plain
    assert not plain == early
    assert nx.WitnessTuple((1,)) != realdec.RationalPoint(1) != 1


def test_equal_records_hash_equal():
    a = wr.GeneratorSet((IntPoly([1]), IntPoly([0, 1])), (LaurentPoly([-1], -1),))
    b = wr.GeneratorSet([LaurentPoly([1]), LaurentPoly([0, 1])], [LaurentPoly([-1], -1)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({_cert(nx.SignCertificate), _cert(nx.SignCertificate)}) == 1
    # wreath's memo is an lru_cache keyed by the generator set
    wr.is_group(a)
    hits = wr._support.cache_info().hits
    wr.is_group(b)
    assert wr._support.cache_info().hits == hits + 1


def test_records_are_immutable():
    d = nx.Decision(nx.SOLVABLE)
    with pytest.raises(AttributeError):
        d.status = nx.UNSOLVABLE
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(AttributeError):
        del d.status
    assert d.status == nx.SOLVABLE


def test_repr_copy_and_pickle():
    d = nx.Decision(nx.SOLVABLE)
    assert repr(d) == "Decision(status='Solvable', certificate=None)"
    w = wr.Word(((wr.PLUS, 1), (wr.MINUS, 1)))
    assert repr(w) == "Word(letters=(('A', 1), ('B', 1)))"
    for rec in (d, w, _cert(nx.EarlyUnsolvable), cli.ProblemFile("equation", hs=(1,))):
        assert copy.copy(rec) == rec
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec)


def test_constructors_bind_exactly_their_fields():
    for cls in SIGNATURES:
        params = inspect.signature(cls).parameters
        need = sum(p.default is p.empty for p in params.values())
        for args, kw in (([None] * (need - 1), {}), ([None] * (len(params) + 1), {}),
                         ([None] * need, {"extra": 1})):
            with pytest.raises(TypeError, match=r"__init__\(\) (missing|takes|got an unex)"):
                cls(*args, **kw)

