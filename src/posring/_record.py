"""Immutable records, posring's one record idiom.

A record lists its fields in __slots__ and fills them in a hand-written
__init__ through ``setfield`` (object.__setattr__), as its own
__setattr__ refuses every assignment.  A record equals only a record of
the exact same class with equal fields, hashes by its fields and prints
as Name(field=value, ...).  Plain classes keep ``dataclasses`` (and the
``inspect`` it pulls in) out of the import.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # fields in declaration order, base classes' first
        cls._fields = cls.__match_args__ = tuple(
            n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ()))

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
