import math

import numpy as np
import pytest

from periodic_portfolio import (
    DeflatorLaw,
    expect_deflator,
    expect_deflator_adaptive,
    make_rule,
)
from periodic_portfolio.errors import NonFinite, ParameterOutOfRange, QuadratureError


def lognormal_moment(drift, s, beta):
    # E[exp(beta*(drift + s*G))] for standard normal G
    return math.exp(beta * drift + 0.5 * beta**2 * s**2)


def test_order_one_rule():
    rule = make_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-14)
    np.testing.assert_allclose(rule.weights, [1.0], atol=1e-14)


def test_order_two_rule():
    rule = make_rule(2)
    np.testing.assert_allclose(sorted(rule.nodes), [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-14)


def test_rule_moment_invariants():
    for order in (2, 8, 20, 64, 512):
        rule = make_rule(order)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        assert abs(rule.weights @ rule.nodes) <= 1e-12
        assert abs(rule.weights @ rule.nodes**2 - 1.0) <= 1e-12
        assert np.all(rule.weights >= 0)
        if order <= 256:  # extreme-tail weights underflow beyond ~40 sigma
            assert np.all(rule.weights > 0)


def test_fourth_moment():
    rule = make_rule(20)
    assert rule.weights @ rule.nodes**4 == pytest.approx(3.0, abs=1e-10)


def test_rules_cached_and_readonly():
    rule = make_rule(64)
    assert make_rule(64) is rule
    assert not rule.nodes.flags.writeable


def test_bad_order():
    with pytest.raises(ParameterOutOfRange):
        make_rule(0)


def test_identity_with_pure_martingale_drift():
    s = 0.12
    law = DeflatorLaw(s=s, drift=-0.5 * s**2)  # no rate component
    val = expect_deflator(lambda z: z, law, make_rule(64))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_log_recovers_drift():
    law = DeflatorLaw(s=0.3, drift=-0.2)
    val = expect_deflator(np.log, law, make_rule(32))
    assert val == pytest.approx(law.drift, abs=1e-12)


def test_power_moment_closed_form():
    alpha = 0.5
    beta = alpha / (alpha - 1.0)
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    expected = lognormal_moment(law.drift, law.s, beta)
    val = expect_deflator(lambda z: z**beta, law, make_rule(64))
    assert val == pytest.approx(expected, rel=1e-12)
    assert expect_deflator_adaptive(lambda z: z**beta, law) == pytest.approx(
        expected, rel=1e-10
    )


def test_unit_mean_identity_grid():
    for r in (0.0, 0.05, 0.12):
        for q in (0.0, 0.0144, 0.09):
            for tau in (0.25, 1.0, 3.0):
                law = DeflatorLaw.for_horizon(q, r, tau)
                val = expect_deflator(lambda z: z, law, make_rule(64))
                assert val * math.exp(r * tau) == pytest.approx(1.0, abs=1e-8)


def test_non_finite_integrand_raises():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
        expect_deflator(lambda z: np.log(z - 10.0), law, make_rule(16))


def test_adaptive_escalation_fails_on_discontinuity():
    # an off-center step never stabilizes under order doubling
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    threshold = math.exp(law.drift + 0.37 * law.s)
    with pytest.raises(QuadratureError):
        expect_deflator_adaptive(
            lambda z: (z > threshold).astype(float), law, rel_tol=1e-12
        )


def test_stacked_integrand_matches_scalar_calls():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    betas = (-1.0, 0.5, 2.0)
    vals = expect_deflator_adaptive(lambda z: np.stack([z**b for b in betas]), law)
    assert vals.shape == (3,)
    for b, v in zip(betas, vals):
        assert v == pytest.approx(lognormal_moment(law.drift, law.s, b), rel=1e-10)
        assert v == pytest.approx(expect_deflator_adaptive(lambda z: z**b, law), rel=1e-12)


def test_stacked_integrand_escalates_on_any_component():
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    threshold = math.exp(law.drift + 0.37 * law.s)

    def f(z):
        return np.stack([z, (z > threshold).astype(float)])

    with pytest.raises(QuadratureError):
        expect_deflator_adaptive(f, law, rel_tol=np.array([1e-10, 1e-12]))
    # a loose enough tolerance on the step component accepts at the first check
    loose = expect_deflator_adaptive(f, law, rel_tol=np.array([1e-10, 1.0]))
    assert loose[0] == pytest.approx(math.exp(-0.12), rel=1e-10)


def test_law_validation():
    with pytest.raises(ParameterOutOfRange):
        DeflatorLaw(s=-0.1, drift=0.0)
    with pytest.raises(ParameterOutOfRange):
        DeflatorLaw.for_horizon(-1.0, 0.1, 1.0)
