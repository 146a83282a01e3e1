"""Exception hierarchy shared by all solver modules.

Every error the package raises is a PortfolioError of one of three families,
and each family is one exit code of the command line (see ``cli``):

- ConfigError (exit 2): a configuration or sweep file that cannot be parsed
  or is inconsistent, or a file that cannot be read or written;
- ParameterError (exit 3): an input outside the model's domain, or the
  standing assumption delta > max(zeta(alpha*(1-gamma)), 0) violated;
- SolverError (exit 4): a solver that did not reach a trustworthy answer on
  a well-posed input.

A new error class takes its exit code from the family it derives from.
"""


class PortfolioError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PortfolioError):
    """Problem/sweep configuration could not be parsed or is inconsistent."""


class ParameterError(PortfolioError):
    """An input violates the model's domain or its well-posedness condition."""


class SolverError(PortfolioError):
    """A solver failed on an admissible input."""


class DimensionMismatch(ParameterError):
    """Vector/matrix shapes do not agree with the asset count."""


class SingularVolatility(ParameterError):
    """Volatility matrix is (numerically) singular."""


class Degenerate(ParameterError):
    """Minimum eigenvalue of sigma*sigma^T falls below the floor kappa0."""


class DomainError(ParameterError):
    """Argument outside the mathematical domain of the function."""


class ParameterOutOfRange(ParameterError):
    """Model or evaluation parameter outside its admissible range."""


class AssumptionViolated(ParameterError):
    """Well-posedness condition delta > max(zeta(alpha*(1-gamma)), 0) fails."""


class NonConvergence(SolverError):
    """Iterative solver hit its cap without meeting the tolerance."""


class QuadratureError(NonConvergence):
    """Order doubling of the quadrature never stabilized."""


class NonFinite(SolverError):
    """A function evaluation produced NaN or infinity."""


class NumericalFault(SolverError):
    """A quantity guaranteed by theory (e.g. nonnegativity) was violated numerically."""
