"""Exceptions shared across pgcone modules."""


class PgconeError(Exception):
    """Base class for all pgcone domain errors."""


class RejectedPolynomial(PgconeError):
    pass


class FieldMismatch(PgconeError):
    pass


class UnsupportedQ(PgconeError):
    pass


class DimensionTooLarge(PgconeError):
    pass


class LengthMismatch(PgconeError):
    pass


class NotInCone(PgconeError):
    pass


class NonInteger(PgconeError):
    pass


class ZeroVector(PgconeError):
    pass


class ZeroEta(PgconeError):
    pass


class BadM(PgconeError):
    pass


class EmptyFlips(PgconeError):
    pass


class TooManyPatterns(PgconeError):
    pass


class IncompleteRaySet(PgconeError):
    pass


class MalformedRaySet(PgconeError):
    """A ray-set file lacks its header fields or a ray."""


class MatrixMismatch(PgconeError):
    """A ray set was built for another parity-check matrix."""


class NoSuchPair(PgconeError):
    pass


class SearchExhausted(PgconeError):
    pass


class NoZeroLinePair(PgconeError):
    pass


class LpNotOptimal(PgconeError):
    """An LP that must have an optimum ended with another status."""
