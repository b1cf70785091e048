"""Exception types shared across the library."""


class RacahLabError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(RacahLabError):
    """Operands have incompatible shapes."""


class RootsMismatch(RacahLabError):
    """A supplied eigenvalue list does not match the minimal polynomial."""


class NonSplitting(RacahLabError):
    """An eigenvalue lies outside the Gaussian rationals and no hint was given."""


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
