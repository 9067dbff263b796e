"""Exact decision procedures over the semiring N[X].

Decides whether f1*h1 + ... + fn*hn = 0 has a solution in nonzero
polynomials with nonnegative integer coefficients, with machine-checkable
certificates both ways, and applies the reduction to the Group and
Identity Problems for sub-semigroups of Z wr Z generated by height +-1
elements, including constructive identity-word synthesis.
"""

from .errors import (
    AllZero,
    BadIndex,
    InvalidWitness,
    LengthMismatch,
    NotDivisible,
    PosringError,
    PostconditionFailed,
    SchemaError,
    SearchSpaceTooLarge,
    TooLarge,
    ZeroInput,
    ZeroPolynomial,
)
from .polyring import IntPoly, LaurentPoly, laurent_normalize
from .nxsolve import (
    DEGREE_CAP,
    SOLVABLE,
    UNSOLVABLE,
    WITNESS_FOUND,
    WITNESS_NOT_FOUND,
    Decision,
    WitnessTuple,
    brute_force_oracle,
    decide,
    find_witness,
    verify_certificate,
    verify_witness,
)
from .wreath import (
    COVER_CAP,
    SUBSET_CAP,
    CoverSubset,
    GeneratorSet,
    Word,
    WreathElement,
    build_hij,
    enumerate_covers,
    exhaustive_identity_search,
    identity_in_semigroup,
    identity_witness_word,
    is_group,
    synthesize_identity_word,
    word_product,
)

__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadIndex", "InvalidWitness", "LengthMismatch", "NotDivisible",
    "PosringError", "PostconditionFailed", "SchemaError", "SearchSpaceTooLarge",
    "TooLarge", "ZeroInput", "ZeroPolynomial",
    "IntPoly", "LaurentPoly", "laurent_normalize",
    "DEGREE_CAP", "SOLVABLE", "UNSOLVABLE", "WITNESS_FOUND",
    "WITNESS_NOT_FOUND", "Decision", "WitnessTuple", "brute_force_oracle",
    "decide", "find_witness", "verify_certificate", "verify_witness",
    "COVER_CAP", "SUBSET_CAP", "CoverSubset", "GeneratorSet", "Word",
    "WreathElement", "build_hij", "enumerate_covers",
    "exhaustive_identity_search", "identity_in_semigroup",
    "identity_witness_word", "is_group", "synthesize_identity_word",
    "word_product",
]
