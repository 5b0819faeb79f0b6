"""Exception types shared across the package.

The CLI maps these onto exit codes: data problems -> 2, numerical
failures -> 3. Everything else is an ordinary ValueError/TypeError.
"""


class DataError(ValueError):
    """Bad input data: parse failures, shape mismatches, NaN/Inf entries."""


class RankError(DataError):
    """A full-rank precondition is violated (numerically rank deficient)."""


class DegreesOfFreedomError(DataError):
    """Too few observations for the requested estimate."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or gave a non-finite result."""
