"""Exception and warning types shared across the package."""


class EconomyError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularSystem(EconomyError):
    """A value-accounting linear system is numerically singular."""


class NotProductive(EconomyError):
    """Input matrix has spectral radius at or above one."""


class Decomposable(EconomyError):
    """Sector input graph is not strongly connected."""


class NonPositiveValue(EconomyError):
    """A bundle value that must be positive is zero or negative."""


class NoConvergence(EconomyError):
    """Eigen-solver failed to meet its tolerance within the iteration cap."""


class DegenerateNormalization(EconomyError):
    """Price normalization denominator collapsed to zero."""


class InvalidSector(EconomyError):
    """Sector index outside the economy's range."""


class NotInB(EconomyError):
    """Wage bundle fails the admissibility conditions required here."""


class InvalidFraction(EconomyError):
    """A tuning fraction lies outside the open unit interval."""


class Infeasible(EconomyError):
    """No admissible point: a wage region misses the orthant, or a synthesized
    change would not clear the strict margin of its own classifier."""


class SamplingExhausted(EconomyError):
    """A sampler's one proposal for a bundle failed its check; none is redrawn."""


class OracleLimit(EconomyError):
    """Brute-force oracle called outside its supported problem size."""


class NegativeExploitationWarning(UserWarning):
    """Bundle value exceeds one whole working day; exploitation is negative."""
