import math
import warnings

import numpy as np
import pytest

from periodic_portfolio import DeflatorLaw, quadrature
from periodic_portfolio.errors import NonFinite, ParameterOutOfRange, QuadratureError
from periodic_portfolio.quadrature import MAX_ORDER, expect_deflator, expect_deflator_adaptive, make_rule


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


def test_an_infinite_value_raises_before_the_weights_meet_it():
    # an infinite node value must raise NonFinite before the weighted sum
    # meets it, where inf * 0 would warn (an error under this suite's filterwarnings)
    law = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
    threshold = math.exp(law.drift + 0.37 * law.s)
    with pytest.raises(NonFinite):
        expect_deflator_adaptive(lambda z: np.where(z > threshold, np.inf, z), law)


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
        expect_deflator_adaptive(f, law, rel_tol=1e-12)


def test_law_validation():
    with pytest.raises(ParameterOutOfRange):
        DeflatorLaw(s=-0.1, drift=0.0)
    with pytest.raises(ParameterOutOfRange):
        DeflatorLaw.for_horizon(-1.0, 0.1, 1.0)


# --- the adaptive driver against a one-order-per-pass reference cascade ---


def reference_cascade(f, law, order=64, rel_tol=1e-10, max_order=512):
    """The doubling loop with one pass per order; returns (value, accepted order)."""
    coarse = expect_deflator(f, law, make_rule(order))
    while 2 * order <= max_order:
        order *= 2
        fine = expect_deflator(f, law, make_rule(order))
        if np.all(np.abs(fine - coarse) <= rel_tol * (1.0 + np.abs(fine))):
            return fine, order
        coarse = fine
    raise QuadratureError("reference cascade did not stabilize")


TABLE_LAW = DeflatorLaw.for_horizon(0.0144, 0.12, 1.0)
WIDE_LAW = DeflatorLaw(s=4.0, drift=-8.0)
UNIT_LAW = DeflatorLaw(s=1.0, drift=0.0)  # log z = G


def oscillating(w):
    # E[2 + cos(w G)] = 2 + exp(-w^2/2); Gauss-Hermite needs ever more nodes as w grows
    return lambda z: 2.0 + np.cos(w * np.log(z))


FUSED_CASES = {
    "scalar": (lambda z: z**-1.0, TABLE_LAW, {}, 128),
    "stacked": (lambda z: np.stack([z**b for b in (-1.0, 0.5, 2.0)]), TABLE_LAW, {}, 128),
    "max-order-128": (lambda z: z**0.5, TABLE_LAW, {"max_order": 128}, 128),
    "wide-to-256": (lambda z: z**3.0, WIDE_LAW, {}, 256),
    "oscillating-to-256": (oscillating(12.0), UNIT_LAW, {}, 256),
    "oscillating-to-512": (oscillating(20.0), UNIT_LAW, {}, 512),
    "stacked-to-512": (
        lambda z: np.stack([z, oscillating(20.0)(z)]),
        UNIT_LAW,
        {"rel_tol": 1e-10},
        512,
    ),
    "start-at-4": (lambda z: z**0.5, TABLE_LAW, {"order": 4}, 8),
}


def split_max_order(monkeypatch, kwargs):
    """Set ``quadrature.MAX_ORDER`` to the case's ``max_order``; returns the other kwargs."""
    kwargs = dict(kwargs)
    monkeypatch.setattr(quadrature, "MAX_ORDER", kwargs.pop("max_order", MAX_ORDER))
    return kwargs


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_adaptive_matches_reference_cascade(monkeypatch, case):
    f, law, kwargs, accepted = FUSED_CASES[case]
    expected, order = reference_cascade(f, law, **kwargs)
    assert order == accepted
    got = expect_deflator_adaptive(f, law, **split_max_order(monkeypatch, kwargs))
    assert np.shape(got) == np.shape(expected)
    assert isinstance(got, float) == isinstance(expected, float)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "kwargs",
    [{"rel_tol": 1e-12}, {"order": 64, "max_order": 128}, {"order": 128, "max_order": 300}],
    ids=["never-stable", "pair-reaches-max-order", "no-room-to-double"],
)
def test_fused_adaptive_raises_where_the_cascade_does(monkeypatch, kwargs):
    threshold = math.exp(TABLE_LAW.drift + 0.37 * TABLE_LAW.s)

    def step(z):
        return (z > threshold).astype(float)

    with pytest.raises(QuadratureError):
        reference_cascade(step, TABLE_LAW, **kwargs)
    with pytest.raises(QuadratureError):
        expect_deflator_adaptive(step, TABLE_LAW, **split_max_order(monkeypatch, kwargs))


def test_fused_adaptive_sees_non_finite_at_fine_only_nodes():
    # NaN only beyond the outermost order-64 node, inside the order-128 range
    cut = 0.5 * (make_rule(64).nodes.max() + make_rule(128).nodes.max())

    def f(z):
        return np.where(np.log(z) > cut, np.nan, z)

    assert np.isfinite(expect_deflator(f, UNIT_LAW, make_rule(64)))
    with pytest.raises(NonFinite):
        reference_cascade(f, UNIT_LAW)
    with pytest.raises(NonFinite):
        expect_deflator_adaptive(f, UNIT_LAW)


def _scipy_rule(order):
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(order)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def test_rules_match_scipy_at_every_order():
    # scipy's rule is an independent construction (eigenvectors up to order
    # 150, asymptotic expansions above); weights it rounds near the float
    # floor are not compared
    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in [*range(1, MAX_ORDER + 1), 700, 1024]:
            rule = make_rule(order)
            nodes, weights = _scipy_rule(order)
            assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
            node_err = np.max(np.abs(rule.nodes - nodes))
            shown = weights > 1e-300
            weight_err = np.max(np.abs(rule.weights[shown] / weights[shown] - 1.0))
            if node_err > 5e-14 or weight_err > 1e-11 or not np.all(rule.weights[shown] > 0):
                misses.append((order, node_err, weight_err))
    assert misses == []


@pytest.mark.parametrize("order", [MAX_ORDER, 700, 1024])
def test_high_order_rule_is_a_symmetric_probability_rule(order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = make_rule(order)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)
    # weights below the float range round to 0, as scipy's do: only in the
    # outermost nodes, next to positive weights near the float floor
    positive = rule.weights > 0
    tail = int(np.argmax(positive))
    assert np.all(positive[tail : order - tail])
    assert np.all(rule.weights >= 0)
    if tail:
        assert rule.weights[tail] < 1e-300
    assert abs(rule.weights.sum() - 1.0) <= 1e-15


def test_order_512_rule_integrates_the_lognormal_moments():
    rule = make_rule(MAX_ORDER)
    for s in np.linspace(0.0, 8.0, 33):
        mgf = rule.weights @ np.exp(s * rule.nodes)
        assert mgf == pytest.approx(math.exp(0.5 * s * s), rel=1e-13)
