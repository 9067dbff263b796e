"""Exact decision procedures over the semiring N[X].

Decides whether f1*h1 + ... + fn*hn = 0 has a solution in nonzero
polynomials with nonnegative integer coefficients, with machine-checkable
certificates both ways, and applies the reduction to the Group and
Identity Problems for sub-semigroups of Z wr Z generated by height +-1
elements, including constructive identity-word synthesis.

The exports below are lazy (a PEP 562 module __getattr__): importing
the package, or posring.cli for a `solve`, loads no submodule, and a
name's home module loads on its first access.  Each access reads the
home module's binding afresh, so nothing is copied into this namespace
and a binding replaced in the home module is what every caller sees.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AllZero", "BadIndex", "InvalidWitness", "LengthMismatch", "NotDivisible",
        "PosringError", "PostconditionFailed", "SchemaError", "ZeroInput",
        "ZeroPolynomial",
    ),
    "polyring": ("IntPoly", "LaurentPoly", "laurent_normalize"),
    "nxsolve": (
        "DEGREE_CAP", "SOLVABLE", "UNSOLVABLE", "WITNESS_FOUND",
        "WITNESS_NOT_FOUND", "Decision", "WitnessTuple", "decide",
        "find_witness", "verify_certificate", "verify_witness",
    ),
    "wreath": (
        "CoverSubset", "GeneratorSet", "Word", "WreathElement", "build_hij",
        "identity_in_semigroup", "identity_witness_word", "is_group",
        "synthesize_identity_word", "word_product",
    ),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
