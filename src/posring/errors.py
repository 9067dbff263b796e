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


class LengthMismatch(PosringError):
    """Witness tuple length differs from the instance length."""


class BadIndex(PosringError):
    """A word letter names no generator, or a power is not a height-0 loop."""


class InvalidWitness(PosringError):
    """The supplied tuple is not a verified witness for the cover."""


class SchemaError(PosringError):
    """A problem file violates the input schema."""


class PostconditionFailed(PosringError):
    """A result failed the exact check made on it before it was returned."""
