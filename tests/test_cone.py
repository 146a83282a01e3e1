import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import MarketModel, cli, solve_cone, verify_kkt
from periodic_portfolio import cone
from periodic_portfolio.errors import Degenerate, NonConvergence, SingularVolatility
from periodic_portfolio.market import validate_market

from conftest import random_market, scaled_market

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def brute_force_objective(xi, A, box, step):
    """Exhaustive grid search of |xi + A p|^2 over p in [0, box]^2."""
    grid = np.arange(0.0, box + step, step)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([p1.ravel(), p2.ravel()])
    vals = ((xi[:, None] + A @ pts) ** 2).sum(axis=0)
    return vals.min()


def test_diagonal_clamp_case():
    xi = np.array([-0.10, 0.12])
    A = np.diag([5.0, 4.0])
    cs = solve_cone(xi, A)
    np.testing.assert_allclose(cs.pi_tilde_star, [0.02, 0.0], atol=1e-12)
    np.testing.assert_allclose(cs.xi_tilde, [0.0, 0.12], atol=1e-12)
    assert cs.objective == pytest.approx(0.0144, abs=1e-14)
    # fine-grid brute force never beats the solver
    assert brute_force_objective(xi, A, 5 * np.linalg.norm(xi), 1e-3) >= cs.objective - 1e-12


def test_nonnegative_xi_keeps_zero_multiplier():
    xi = np.array([0.05, 0.12])
    cs = solve_cone(xi, np.diag([5.0, 4.0]))
    np.testing.assert_allclose(cs.pi_tilde_star, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(cs.xi_tilde, xi, atol=0)


def test_lower_triangular_case_against_stationarity_oracle():
    xi = np.array([-0.10, 0.14])
    A = np.array([[5.0, 0.0], [-1.0, 4.0]])
    cs = solve_cone(xi, A)
    # with p2 = 0 the stationarity equation in p1 reads 52 p1 = 1.28; solve by
    # bisection on the derivative of |xi + A (p1, 0)|^2
    lo, hi = 0.0, 0.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 52.0 * mid - 1.28 < 0:
            lo = mid
        else:
            hi = mid
    p1 = 0.5 * (lo + hi)
    np.testing.assert_allclose(cs.pi_tilde_star, [p1, 0.0], atol=1e-9)
    np.testing.assert_allclose(cs.xi_tilde, [0.023077, 0.115385], atol=1e-6)
    assert cs.objective == pytest.approx(0.013846, abs=1e-6)
    assert brute_force_objective(xi, A, 5 * np.linalg.norm(xi), 1e-3) >= cs.objective - 1e-12


def test_xi_tilde_never_longer_than_xi():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_market(rng)
        A = np.linalg.inv(m.sigma)
        xi = np.linalg.solve(m.sigma, m.mu - m.r)
        cs = solve_cone(xi, A)
        assert np.linalg.norm(cs.xi_tilde) <= np.linalg.norm(xi) + 1e-10


def test_verify_kkt_accepts_solver_output():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = random_market(rng)
        cs = solve_cone(np.linalg.solve(m.sigma, m.mu - m.r), np.linalg.inv(m.sigma))
        assert verify_kkt(cs)


def test_verify_kkt_rejects_negative_multiplier():
    cs = solve_cone(np.array([-0.10, 0.12]), np.diag([5.0, 4.0]))
    bad = dataclasses.replace(cs)
    bad.pi_tilde_star = np.array([-0.1, 0.0])
    assert not verify_kkt(bad)


def test_verify_kkt_rejects_perturbed_xi_tilde():
    cs = solve_cone(np.array([-0.10, 0.12]), np.diag([5.0, 4.0]))
    bad = dataclasses.replace(cs)
    bad.xi_tilde = cs.xi_tilde + np.array([0.1, 0.0])
    assert not verify_kkt(bad)


def kkt_support_by_enumeration(xi, A, tol=1e-10):
    """Every support S whose least-squares point is a KKT point of the projection.

    On S the multipliers solve the unconstrained least-squares problem and must
    be positive; off S the gradient A.T @ (xi + A p) must be nonnegative.
    Returns a list of (support mask, p) pairs.
    """
    n = xi.size
    hits = []
    for code in range(2**n):
        support = np.array([(code >> i) & 1 == 1 for i in range(n)])
        p = np.zeros(n)
        if support.any():
            p[support] = np.linalg.lstsq(A[:, support], -xi, rcond=None)[0]
        gradient = A.T @ (xi + A @ p)
        if (p[support] > 0).all() and (gradient[~support] >= -tol).all():
            hits.append((support, p))
    return hits


def scaled_market_cone(seed, n, spread):
    """xi and sigma^{-1} of a random market whose sigma columns are scaled by e^U(-spread, spread)."""
    rng = np.random.default_rng(seed)
    m = random_market(rng, n)
    sigma = m.sigma * np.exp(rng.uniform(-spread, spread, size=n))[None, :]
    return np.linalg.solve(sigma, m.mu - m.r), np.linalg.inv(sigma)


def test_unique_minimizer_matches_support_enumeration():
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for _ in range(6):
            m = random_market(rng, n)
            A = np.linalg.inv(m.sigma)
            xi = np.linalg.solve(m.sigma, m.mu - m.r)
            hits = kkt_support_by_enumeration(xi, A)
            assert len(hits) == 1
            support, p = hits[0]
            cs = solve_cone(xi, A)
            np.testing.assert_array_equal(cs.pi_tilde_star > 0, support)
            np.testing.assert_allclose(cs.pi_tilde_star, p, rtol=0, atol=1e-12)


def test_backup_rule_ends_a_cycling_exchange():
    # On this market, exchanging every infeasible index at each round cycles
    # for ever; the single-index backup must still reach the unique minimizer.
    xi, A = scaled_market_cone(1701, 4, 3.0)
    free = np.zeros(4, dtype=bool)
    seen = set()
    while free.tobytes() not in seen:
        seen.add(free.tobytes())
        p = np.zeros(4)
        if free.any():
            p[free] = np.linalg.lstsq(A[:, free], -xi, rcond=None)[0]
        gradient = A.T @ (xi + A @ p)
        infeasible = np.where(free, p < 0, gradient < -1e-10)
        assert infeasible.any()
        free = free ^ infeasible
    (support, p), = kkt_support_by_enumeration(xi, A)
    cs = solve_cone(xi, A)
    np.testing.assert_array_equal(cs.pi_tilde_star > 0, support)
    np.testing.assert_allclose(cs.pi_tilde_star, p, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [10, 30, 60])
def test_projection_at_size_matches_scipy_nnls(n):
    from scipy.optimize import nnls

    for k in range(10):
        m = random_market(np.random.default_rng(k), n)
        A = np.linalg.inv(m.sigma)
        xi = np.linalg.solve(m.sigma, m.mu - m.r)
        cs = solve_cone(xi, A)
        assert verify_kkt(cs)
        p, _ = nnls(A, -xi)
        reference = xi + A @ p
        assert cs.objective == pytest.approx(float(reference @ reference), rel=1e-12)


@pytest.mark.parametrize("n", [10, 30, 60])
def test_projection_takes_a_handful_of_solves(count_calls, n):
    # The add-one-index active set took about 22 least-squares solves per
    # projection at n = 50; block pivoting takes at most 6 on these markets,
    # one Gram-matrix solve per round and none through lstsq.
    solves = count_calls(np.linalg, "solve")
    fits = count_calls(np.linalg, "lstsq")
    for k in range(10):
        m = random_market(np.random.default_rng(k), n)
        xi, A = np.linalg.solve(m.sigma, m.mu - m.r), np.linalg.inv(m.sigma)
        before = len(solves)
        solve_cone(xi, A)
        assert 1 <= len(solves) - before <= 6
    assert not fits


def test_singular_design_raises_singular_volatility():
    # Both columns of sigma_inv are equal, so the free-set Gram matrix is
    # singular; no bare LinAlgError may leave the projection.
    with pytest.raises(SingularVolatility):
        solve_cone(np.array([-1.0, -1.0]), np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_column_scaled_markets_certify_and_match_scipy_nnls():
    # Normal equations refined on the certificate's residual certify 167 of
    # the first 200 column-scaled markets (an SVD fit per round certified 92),
    # and every certified projection is the nnls optimum.
    from scipy.optimize import nnls

    certified = 0
    for k in range(200):
        m = scaled_market(k)
        A = np.linalg.inv(m.sigma)
        xi = np.linalg.solve(m.sigma, m.mu - m.r)
        try:
            cs = solve_cone(xi, A)
        except NonConvergence:
            continue
        certified += 1
        p, _ = nnls(A, -xi, maxiter=50 * xi.size)
        reference = xi + A @ p
        q = float(reference @ reference)
        assert abs(cs.objective - q) <= 1e-12 * (1.0 + q)
    assert certified >= 167


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    scale=st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
)
def test_scaling_equivariance(seed, scale):
    m = random_market(np.random.default_rng(seed))
    A = np.linalg.inv(m.sigma)
    xi = np.linalg.solve(m.sigma, m.mu - m.r)
    base = solve_cone(xi, A)
    scaled = solve_cone(scale * xi, A)
    np.testing.assert_allclose(
        scaled.xi_tilde, scale * base.xi_tilde, rtol=1e-8, atol=1e-10
    )
    np.testing.assert_allclose(
        scaled.pi_tilde_star, scale * base.pi_tilde_star, rtol=1e-8, atol=1e-10
    )


def diagonal_market(*diagonal: float) -> MarketModel:
    return MarketModel(mu=np.full(len(diagonal), 0.1), sigma=np.diag(diagonal), r=0.05)


def certificate_markets():
    """(id, market) around and far from both caps of ``validate_market``."""
    for k in range(1000):
        yield f"scaled-{k}", scaled_market(k)
    rng = np.random.default_rng(5959)
    for n in range(1, 60):
        yield f"random-n{n}", random_market(rng, n)
    smin = 2e-5  # smin^2 = 4e-10 clears KAPPA0_DEFAULT = 1e-10
    for cond in (0.5e12, 0.99e12, 1.01e12, 2e12):
        yield f"cond-{cond:g}", diagonal_market(cond * smin, smin)
    for smin_sq in (0.9e-10, 1.1e-10, 2.5e-10):
        yield f"smin-sq-{smin_sq:g}", diagonal_market(1.0, math.sqrt(smin_sq))
    yield "singular", MarketModel(mu=[0.1, 0.15], sigma=[[0.2, 0.1], [0.4, 0.2]], r=0.05)
    yield "zero", MarketModel(mu=[0.1, 0.15], sigma=np.zeros((2, 2)), r=0.05)
    # squares of the entries, or of the inverse's, leave float64
    for exponent in (200, -200):
        m = random_market(rng, 3)
        yield f"entries-1e{exponent}", MarketModel(mu=m.mu, sigma=m.sigma * 10.0**exponent, r=m.r)
    yield "diagonal-1e200-1", diagonal_market(1e200, 1.0)
    yield "diagonal-1-1e-200", diagonal_market(1.0, 1e-200)


CERTIFICATE_MARKETS = list(certificate_markets())


def decision(check, m: MarketModel):
    """"pass", or the type and message of the error ``check(m)`` raises."""
    try:
        check(m)
    except (SingularVolatility, Degenerate) as error:
        return type(error), str(error)
    return "pass"


def test_certificate_never_passes_a_market_validate_market_rejects():
    certified = set()
    for name, m in CERTIFICATE_MARKETS:
        try:
            sigma_inv = np.linalg.inv(m.sigma)
        except np.linalg.LinAlgError:
            continue
        if cone._certified(m.sigma, sigma_inv):
            certified.add(name)
            assert decision(validate_market, m) == "pass", name
    # it passes the well-conditioned markets, and the smin^2 = 2.5e-10 one inside its margin
    assert "random-n59" in certified and "smin-sq-2.5e-10" in certified
    assert len(certified) > 500


def test_validated_inverse_decides_as_validate_market():
    decisions = set()
    for name, m in CERTIFICATE_MARKETS:
        want = decision(validate_market, m)
        assert decision(cone._validated_inverse, m) == want, name
        decisions.add(want if want == "pass" else want[0])
    assert decisions == {"pass", SingularVolatility, Degenerate}


@pytest.mark.parametrize("name", ["table1_log", "table2_power"])
def test_shipped_configs_run_no_svd(count_calls, capsys, name):
    svd = count_calls(np.linalg, "svd")
    assert cli.main(["solve", "--config", str(CONFIGS / f"{name}.cfg")]) == cli.EXIT_OK
    assert svd == []


def test_a_market_near_the_cap_runs_one_svd(count_calls):
    svd = count_calls(np.linalg, "svd")
    cs = cone.constrained_sharpe(diagonal_market(0.99e12 * 2e-5, 2e-5))
    assert len(svd) == 1 and verify_kkt(cs)
