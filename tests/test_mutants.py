import os
import re

from mutants import MUTANTS, REPO, SRC


def _sources():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name] = fh.read()
    return out


def test_every_snippet_occurs_once_in_src():
    texts = _sources()
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.snippet != m.replacement, m.name
        assert texts[m.file].count(m.snippet) == 1, m.name
        assert sum(t.count(m.snippet) for t in texts.values()) == 1, m.name


def test_every_named_test_exists():
    for m in MUTANTS:
        assert m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            with open(os.path.join(REPO, path)) as fh:
                assert re.search(r"^def %s\(" % name, fh.read(), re.M), (m.name, test)
