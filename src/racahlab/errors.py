"""Exception types shared across the library."""


class RacahLabError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(RacahLabError):
    """Operands have incompatible shapes."""


class RootsMismatch(RacahLabError):
    """A supplied eigenvalue list is not exactly the distinct Gaussian-rational
    roots of the minimal polynomial: it repeats a value, holds a value that is
    not a root, or misses a root (checked in that order)."""


class NonSplitting(RacahLabError):
    """A minimal polynomial does not split over the Gaussian rationals, and no
    eigenvalue list was supplied (with one, the split reads not diagonalizable)."""


class NotIrreducible(RacahLabError):
    """An operation required an irreducible module and got a reducible one."""


class ClassMismatch(RacahLabError):
    """A certified isomorphism class disagrees with the expected one."""


class NonDiagonalizableH(RacahLabError):
    """The weight operator of a purported module is not diagonalizable."""


class DimMismatch(RacahLabError):
    """A semisimple block profile disagrees with the closure dimension."""


class ConfigError(RacahLabError, ValueError):
    """Malformed command-line or suite configuration, or an out-of-range size."""


class RelationFailure(RacahLabError, ValueError):
    """Operators fail a relation they were required to satisfy."""
