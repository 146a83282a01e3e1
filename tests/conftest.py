import math

import numpy as np
import pytest

from periodic_portfolio import (
    EvaluationSpec,
    MarketModel,
    PowerProblem,
    budget_function,
    constrained_sharpe,
    fixed_point,
    marginal_inverse,
)
from periodic_portfolio import cli, mc
from periodic_portfolio.errors import ConfigError, ParameterError, SolverError
from reference import moderated_utility

# Benchmark two-stock market used throughout: mu = (0.1, 0.15),
# sigma = diag(0.2, 0.25), r = 0.12, so xi = (-0.1, 0.12) and the
# short-sale clamp gives xi_tilde = (0, 0.12).
TABLE_MU = (0.1, 0.15)
TABLE_SIGMA = ((0.2, 0.0), (0.0, 0.25))
TABLE_R = 0.12
TABLE_TAU = 1.0
TABLE_GAMMA = 0.8
TABLE_DELTA = 0.3
TABLE_X0 = 0.5
TABLE_ALPHA = 0.5

# A well-posed 4-asset power config (sigma row-major) whose a-priori lower bound
# on A*, 4.1e-20, is far below tol_fixed_point.
TINY_LOWER_BOUND = dict(
    mu=(0.04335325643224113, 0.07378403542680072, 0.05515197555359649, -0.15357125568089802),
    sigma=(
        1.9234759100968501, 0.0, 0.0, 0.0,
        -0.0065544645033205114, -0.001733502888638559, 0.0, 0.0,
        0.01861753945482601, 0.018688683026681287, 0.09462499751290283, 0.0,
        -0.2484409176376192, 0.020584806310570115, -0.10039977944115408, 0.9414191652731412,
    ),
    r=0.05487723032327442,
    tau=1.0505836575875487,
    gamma=0.38248512136531015,
    delta=2.5944570199318444,
    x0=3282.1147292070773,
    alpha=-1.8269518200464598,
)

# A well-posed 1-asset power config whose bond decay is delta itself (r = 0). The
# a-priori upper bound on A* is about 1 / (delta tau): inf here, where
# -expm1(-delta tau) rounds to 0, and finite but huge at delta = 1e-300 or 1e-200.
# A* = 59.1646573692 at each of these deltas.
TINY_DELTA = dict(mu=(0.5,), sigma=(1.0,), r=0.0, tau=0.4, gamma=0.5, delta=5e-324, x0=1.0, alpha=-1.0)

# A well-posed 3-asset power config (sigma row-major) whose first A* Newton step
# runs from the lower bound 1087.8 to 906962. On that step log y* grows about like
# log A: a y* start taken on the tangent in A lands at log y = 838.9, outside
# float64. The reference gives A* = 910846.8924410606 and log y* = 13.6558.
LONG_A_STEP = dict(
    mu=(0.31842912821934777, 0.08700572309360734, -0.01845359166736156),
    sigma=(
        0.3891782830127266, 0.0, 0.0,
        -0.0425195968116094, 0.19527196322400037, 0.0,
        -0.0986470405839888, -0.01841645453614213, 0.33112776518553017,
    ),
    r=0.12655673738521858,
    tau=0.006416989942901546,
    gamma=0.06548178845305594,
    delta=0.21161381250362998,
    x0=1.0,
    alpha=0.5784962157487078,
)

# A well-posed 2-asset power config (sigma row-major) whose A*, about 2.04e17, lies
# where the rounding of Psi exceeds the fixed point's 4-ulp floor allowance: its
# residual stalls at 416 = 13 ulp(A) against the 128 allowed.
STALLED_RESIDUAL = dict(
    mu=(0.24869602123135964, 0.3427959921477895),
    sigma=(0.25586764845009746, 0.0, 0.04562321353565729, 0.42067792319516806),
    r=0.03710916829317974,
    tau=89.62733334918866,
    gamma=0.1490774404532999,
    delta=0.8537895368979722,
    x0=1.0,
    alpha=0.7002260964749739,
)

# A well-posed 3-asset power config (sigma row-major) whose Monte Carlo values
# reach 1e290: their squares overflow float64.
HUGE_SAMPLES = dict(
    mu=(0.07046860609589845, 0.03116988552798257, 0.031169875527982567),
    sigma=(
        0.08172967430190886, 0.0, 0.0,
        -3.6026759155064944e-304, 0.13029880748240988, 0.0,
        7.558468004844603e-85, -6.1035156249999986e-05, 1.5719782021724664,
    ),
    r=0.031169875527982567,
    tau=30.79284602679835,
    gamma=0.8352538357440035,
    delta=0.7012134613170239,
    x0=10808.814395067413,
    alpha=-1e-300,
)

# A well-posed 3-asset power market (sigma row-major) with a steep alpha. With
# x0 = 1e-180, x0^beta = 1e329 leaves float64 where V(x0) = -2.6e278 does not
# (tau = 5); with x0 = 1e300, V(x0) = -2.3e-560 leaves it (tau = 1). From tau = 6
# on, its law of Z/B is too wide for the u-grid (s = 13.9 at tau = 6).
STEEP = dict(
    mu=(0.6555949929166196, 7.103515625e-05, -0.005031251995422818),
    sigma=(
        2.3485889505272284, 0.0, 0.0,
        -0.41553368066655455, 0.16267877102935308, 0.0,
        4.745451520955269e-243, -0.02655915095671707, 0.002461920274773414,
    ),
    r=6.1e-5,
    gamma=0.909,
    delta=7.389,
    alpha=-20.09,
)

# A config file that is not valid UTF-8
NOT_UTF8 = b"utility = log\nmu = 0.1\xff\n"

# Each error family's exit code and the prefix of the one line it writes to stderr
FAMILY_EXITS = {
    ConfigError: (cli.EXIT_CONFIG, "config error: "),
    ParameterError: (cli.EXIT_ASSUMPTION, "parameter/assumption error: "),
    SolverError: (cli.EXIT_NONCONVERGENCE, "solver error: "),
}


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps ``module.name`` for the rest of the test.

    Returns a list that grows by one entry per call, so a solver's work
    budget is asserted by deterministic call counts, not by timings.
    """

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def table_market():
    return MarketModel(mu=TABLE_MU, sigma=TABLE_SIGMA, r=TABLE_R)


@pytest.fixture(scope="session")
def table_cone(table_market):
    return constrained_sharpe(table_market)


@pytest.fixture(scope="session")
def table_eval():
    return EvaluationSpec(tau=TABLE_TAU, gamma=TABLE_GAMMA, delta=TABLE_DELTA)


@pytest.fixture(scope="session")
def power_problem(table_market, table_eval, table_cone):
    return PowerProblem(
        market=table_market, evaluation=table_eval, alpha=TABLE_ALPHA, cs=table_cone
    )


@pytest.fixture(scope="session")
def power_solution(power_problem):
    return fixed_point(power_problem)


@pytest.fixture(scope="session")
def power_problem_g1(table_market, table_cone):
    e = EvaluationSpec(tau=TABLE_TAU, gamma=1.0, delta=TABLE_DELTA)
    return PowerProblem(market=table_market, evaluation=e, alpha=TABLE_ALPHA, cs=table_cone)


@pytest.fixture(scope="session")
def power_solution_g1(power_problem_g1):
    return fixed_point(power_problem_g1)


def random_market(rng: np.random.Generator, n: int = 2) -> MarketModel:
    """A random well-posed market: lower-triangular sigma with solid diagonal."""
    diag = rng.uniform(0.15, 0.5, size=n)
    lower = rng.uniform(-0.1, 0.1, size=(n, n))
    sigma = np.tril(lower, k=-1) + np.diag(diag)
    mu = rng.uniform(-0.05, 0.35, size=n)
    r = rng.uniform(0.0, 0.2)
    return MarketModel(mu=mu, sigma=sigma, r=r)


def scaled_market(k: int, spread: float = 6.0) -> MarketModel:
    """Column-scaled market k: n = rng.integers(1, 60) assets of ``random_market``
    from ``rng = default_rng(10**6 + k)``, sigma's columns scaled by e^U(-spread, spread)."""
    rng = np.random.default_rng(10**6 + k)
    n = int(rng.integers(1, 60))
    m = random_market(rng, n)
    sigma = m.sigma * np.exp(rng.uniform(-spread, spread, size=n))[None, :]
    return MarketModel(mu=m.mu, sigma=sigma, r=m.r)


def h_expectation(p, sol, seed: int, n_paths: int, y_star=None) -> tuple[float, float]:
    """One-period Monte Carlo mean and standard error of alpha h_{A*}(X) from unit wealth.

    X = I(y Z/B) / norm over ``n_paths`` draws of Z/B, the first column of
    the normals of ``seed``. With ``y_star`` None, y = y* and norm = 1: the
    optimal policy, whose mean targets H(A*). Otherwise y = ``y_star`` and
    norm = F(y), so the perturbed policy spends exactly unit wealth.
    """
    alpha, gamma = p.alpha, p.evaluation.gamma
    y, norm = (sol.y_star, 1.0) if y_star is None else (y_star, budget_function(p, sol.a_star, y_star))
    ratios = np.exp(p.law.drift + p.law.s * mc._normals(mc._stream(seed, 0, 1), np.empty(n_paths)))
    wealth = marginal_inverse(sol.a_star, alpha, gamma, y * ratios) / norm
    values = alpha * moderated_utility(sol.a_star, alpha, gamma, wealth)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_paths))
