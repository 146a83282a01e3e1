"""Exception hierarchy shared by all solver modules."""


class PortfolioError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(PortfolioError):
    """Vector/matrix shapes do not agree with the asset count."""


class SingularVolatility(PortfolioError):
    """Volatility matrix is (numerically) singular."""


class Degenerate(PortfolioError):
    """Minimum eigenvalue of sigma*sigma^T falls below the floor kappa0."""


class DomainError(PortfolioError):
    """Argument outside the mathematical domain of the function."""


class ParameterOutOfRange(PortfolioError):
    """Model or evaluation parameter outside its admissible range."""


class AssumptionViolated(PortfolioError):
    """Well-posedness condition delta > max(zeta(alpha*(1-gamma)), 0) fails."""


class NonConvergence(PortfolioError):
    """Iterative solver hit its cap without meeting the tolerance."""


class QuadratureError(NonConvergence):
    """Order doubling of the quadrature never stabilized."""


class NonFinite(PortfolioError):
    """A function evaluation produced NaN or infinity."""


class NumericalFault(PortfolioError):
    """A quantity guaranteed by theory (e.g. nonnegativity) was violated numerically."""


class ConfigError(PortfolioError):
    """Problem/sweep configuration could not be parsed or is inconsistent."""
