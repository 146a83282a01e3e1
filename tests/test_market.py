import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_portfolio import EvaluationSpec, MarketModel, check_assumption, zeta
from periodic_portfolio.errors import (
    Degenerate,
    DimensionMismatch,
    DomainError,
    ParameterOutOfRange,
    SingularVolatility,
)
from periodic_portfolio.market import sharpe_ratio, validate_market

from conftest import random_market


def test_validate_diagonal_positive():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    validate_market(m)


def test_validate_zero_matrix_is_singular():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.zeros((2, 2)), r=0.12)
    with pytest.raises(SingularVolatility):
        validate_market(m)


def test_validate_triangular_by_characteristic_polynomial():
    # eigenvalues of sigma*sigma^T from the 2x2 characteristic polynomial
    sigma = np.array([[0.2, 0.0], [0.05, 0.25]])
    ssT = sigma @ sigma.T
    tr, det = ssT[0, 0] + ssT[1, 1], ssT[0, 0] * ssT[1, 1] - ssT[0, 1] * ssT[1, 0]
    lam_min = (tr - math.sqrt(tr**2 - 4 * det)) / 2.0
    assert lam_min > 1e-10
    validate_market(MarketModel(mu=[0.1, 0.15], sigma=sigma, r=0.12))


def test_validate_degenerate_floor():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([1e-6, 0.25]), r=0.12)
    with pytest.raises(Degenerate):
        validate_market(m)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MarketModel(mu=[0.1, 0.15, 0.2], sigma=np.diag([0.2, 0.25]), r=0.12)


def test_negative_rate_rejected():
    with pytest.raises(ParameterOutOfRange):
        MarketModel(mu=[0.1], sigma=[[0.2]], r=-0.01)


def test_sharpe_diagonal():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    np.testing.assert_allclose(sharpe_ratio(m), [-0.10, 0.12], atol=1e-14)


def test_sharpe_zero_excess():
    m = MarketModel(mu=[0.12, 0.12], sigma=np.diag([0.2, 0.25]), r=0.12)
    np.testing.assert_allclose(sharpe_ratio(m), [0.0, 0.0], atol=1e-15)


def test_sharpe_triangular_forward_substitution():
    sigma = np.array([[0.2, 0.0], [0.05, 0.25]])
    m = MarketModel(mu=[0.1, 0.15], sigma=sigma, r=0.12)
    # forward substitution oracle for the lower-triangular system
    b = m.mu - m.r
    xi0 = b[0] / sigma[0, 0]
    xi1 = (b[1] - sigma[1, 0] * xi0) / sigma[1, 1]
    assert xi0 == pytest.approx(-0.10) and xi1 == pytest.approx(0.14)
    np.testing.assert_allclose(sharpe_ratio(m), [xi0, xi1], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sharpe_multiply_back_residual(seed):
    m = random_market(np.random.default_rng(seed))
    xi = sharpe_ratio(m)
    resid = np.linalg.norm(m.sigma @ xi - (m.mu - m.r))
    assert resid <= 1e-12 * (1.0 + np.linalg.norm(m.mu))


def test_zeta_values():
    assert zeta(0.0, 0.12, 0.0144) == 0.0
    assert zeta(0.5, 0.12, 0.0144) == pytest.approx(0.0672, abs=1e-15)
    assert zeta(0.1, 0.12, 0.0144) == pytest.approx(0.0128, abs=1e-15)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0, 0.12, 0.0144)
    with pytest.raises(DomainError):
        zeta(0.5, 0.12, -1.0)


def test_zeta_increasing_and_convex_on_unit_interval():
    grid = np.linspace(0.01, 0.95, 80)
    vals = np.array([zeta(x, 0.12, 0.0144) for x in grid])
    first = np.diff(vals)
    assert np.all(first > 0)
    assert np.all(np.diff(first) > 0)  # convexity via second differences


def test_zeta_blows_up_at_one():
    assert zeta(1 - 1e-8, 0.12, 0.0144) > 1e6 * 0.0144


def test_check_assumption_table_power():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    rep = check_assumption(m, e, 0.5, 0.0144)
    assert rep.satisfied
    assert rep.zeta_at_alpha_one_minus_gamma == pytest.approx(0.0128, abs=1e-15)
    assert rep.margin == pytest.approx(0.3 - 0.0128, abs=1e-12)


def test_check_assumption_fails_for_small_delta():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.01)
    assert not check_assumption(m, e, 0.5, 0.0144).satisfied


def test_check_assumption_gamma_one_reduces_to_delta_positive():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=1.0, delta=1e-6)
    rep = check_assumption(m, e, 0.5, 0.0144)
    assert rep.zeta_at_alpha_one_minus_gamma == 0.0
    assert rep.satisfied


def test_check_assumption_rejects_bad_alpha():
    m = MarketModel(mu=[0.1, 0.15], sigma=np.diag([0.2, 0.25]), r=0.12)
    e = EvaluationSpec(tau=1.0, gamma=0.8, delta=0.3)
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ParameterOutOfRange):
            check_assumption(m, e, alpha, 0.0144)


def test_evaluation_spec_validation():
    with pytest.raises(ParameterOutOfRange):
        EvaluationSpec(tau=0.0, gamma=0.8, delta=0.3)
    with pytest.raises(ParameterOutOfRange):
        EvaluationSpec(tau=1.0, gamma=0.0, delta=0.3)
    with pytest.raises(ParameterOutOfRange):
        EvaluationSpec(tau=1.0, gamma=1.2, delta=0.3)
    with pytest.raises(ParameterOutOfRange):
        EvaluationSpec(tau=1.0, gamma=0.8, delta=0.0)
