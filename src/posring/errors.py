"""Exception types shared across the package."""


class PosringError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(PosringError):
    """Exact polynomial division was requested but the divisor does not divide."""


class AllZero(PosringError):
    """An operation that needs at least one nonzero polynomial got none."""


class ZeroInput(PosringError):
    """The zero polynomial is outside this operation's domain."""


class ZeroPolynomial(PosringError):
    """A polynomial list contained a zero entry where none is allowed."""


class EndpointIsRoot(PosringError):
    """A root-counting endpoint is itself a root of the chain's polynomial."""


class LengthMismatch(PosringError):
    """Witness tuple length differs from the instance length."""


class SearchSpaceTooLarge(PosringError):
    """Brute-force enumeration would exceed the hard search-space cap."""


class TooLarge(PosringError):
    """Cover or subset enumeration would exceed its cap."""


class BadIndex(PosringError):
    """A word letter refers to a generator index that does not exist."""


class InvalidWitness(PosringError):
    """The supplied tuple is not a verified witness for the cover."""


class SchemaError(PosringError):
    """A problem file violates the input schema."""


class PostconditionFailed(PosringError):
    """A result failed the exact check made on it before it was returned."""
