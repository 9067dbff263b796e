"""Immutable records, posring's one record idiom.

A record declares its fields once: their names, in order, in __slots__,
and the defaults of its trailing fields in a class-level ``_defaults``
dict.  For each class that adds fields and writes no __init__ of its
own, Record compiles __init__(self, <fields>) from that declaration,
as collections.namedtuple does, so inspect.signature reads the fields
and no module beyond this one loads.  wreath's WreathElement,
GeneratorSet and CoverSubset keep a hand-written __init__, because
they normalize their inputs; it fills each field through ``setfield``
(object.__setattr__), as a record's own __setattr__ refuses every
assignment.  A record equals only a record of the exact same class
with equal fields, hashes by its fields and prints as
Name(field=value, ...).  Plain classes keep ``dataclasses`` (and the
``inspect`` it pulls in) out of the import.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        # fields in declaration order, base classes' first
        cls._fields = cls.__match_args__ = tuple(
            n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ()))
        if vars(cls).get("__slots__") and "__init__" not in vars(cls):
            cls.__init__ = _compile_init(cls)

    def _values(self):
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__


def _compile_init(cls):
    # from source, so inspect.signature reads it as it reads a written one
    names = cls._fields
    body = "".join("    setfield(self, %r, %s)\n" % (n, n) for n in names)
    ns = {}
    exec("def __init__(self, %s):\n%s" % (", ".join(names), body), {"setfield": setfield}, ns)
    init = ns["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__module__ = cls.__module__
    init.__defaults__ = tuple(cls._defaults[n] for n in names[len(names) - len(cls._defaults):])
    return init
