"""Identity sweep: properties that need no reference, over random models.

Each test draws (alpha, beta) log-uniform in [1e-3, 10] and (p, q)
log-uniform in [1e-3, 1e4] through hypothesis, derandomized with a fixed
example count, so a run is the same every time.  x comes from the model's
quantiles at u = 0.01, ..., 0.99 and from a log grid over four decades
about sqrt(beta/alpha), the x where w = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfw import (
    BFWParams,
    SaturationError,
    bfw_cdf,
    bfw_cumulative_hazard,
    bfw_hazard,
    bfw_log_pdf,
    bfw_pdf,
    bfw_quantile,
    bfw_survival,
    fw_cdf,
    fw_log_pdf,
    fw_pdf,
    fw_sf,
    reg_inc_beta,
)
from bfw.special import _LARGE_FROM

EPS = 2.0**-52
TINY = float(np.finfo(float).tiny)

SWEEP = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


rates = log_uniform(1e-3, 10.0)
shapes = log_uniform(1e-3, 1e4)
models = st.builds(BFWParams, rates, rates, shapes, shapes)


def points(params):
    u = np.linspace(0.01, 0.99, 50)
    scale = math.sqrt(params.beta / params.alpha)
    return np.concatenate([bfw_quantile(u, params), scale * np.geomspace(1e-2, 1e2, 50)])


@SWEEP
@given(models)
def test_cdf_plus_survival_is_one(params):
    x = points(params)
    assert np.abs(bfw_cdf(x, params) + bfw_survival(x, params) - 1.0).max() <= 4 * EPS


@SWEEP
@given(models)
def test_pdf_is_the_exp_of_the_log_pdf(params):
    x = points(params)
    assert np.array_equal(bfw_pdf(x, params), np.exp(bfw_log_pdf(x, params)))


@SWEEP
@given(models)
def test_hazard_times_survival_is_the_pdf(params):
    # where the survival is a normal double, so that pdf / survival is finite
    x = points(params)
    sf = bfw_survival(x, params)
    keep = sf >= TINY
    product = bfw_hazard(x[keep], params) * sf[keep]
    assert product == pytest.approx(bfw_pdf(x[keep], params), rel=4 * EPS, abs=0.0)


@SWEEP
@given(models)
def test_cumulative_hazard_is_minus_log_survival(params):
    # -ln S of a survival near 1 keeps only eps / (1 - S) of itself, hence abs
    x = points(params)
    sf = bfw_survival(x, params)
    keep = sf > 0.0
    minus_log = -np.log(sf[keep])
    assert bfw_cumulative_hazard(x[keep], params) == pytest.approx(minus_log, rel=8 * EPS, abs=4 * EPS)


@SWEEP
@given(rates, rates)
def test_unit_shapes_are_the_base_model(alpha, beta):
    params = BFWParams(alpha, beta, 1.0, 1.0)
    x = points(params)
    base = params.base
    assert np.array_equal(bfw_log_pdf(x, params), fw_log_pdf(x, base))
    assert np.array_equal(bfw_pdf(x, params), fw_pdf(x, base))
    # each tail reads the smaller of G and S_G, the other as its complement
    assert bfw_cdf(x, params) == pytest.approx(fw_cdf(x, base), rel=2 * EPS, abs=0.0)
    assert bfw_survival(x, params) == pytest.approx(fw_sf(x, base), rel=2 * EPS, abs=0.0)


@SWEEP
@given(shapes, shapes, st.floats(0.5, 1.0))
def test_incomplete_beta_reflection(a, b, y):
    # 1 - y is exact for y in [1/2, 1]; its partner covers [0, 1/2] at (b, a)
    total = reg_inc_beta(y, a, b) + reg_inc_beta(1.0 - y, b, a)
    assert abs(total - 1.0) <= 4 * EPS


def first_failure(check):
    """The first model of the sweep at which ``check`` is False, or None.
    The known failures below are found this way, not raised from inside
    hypothesis, which would write a patch file for each of them."""
    found = []

    @SWEEP
    @given(models)
    def sweep(params):
        if not found and not check(params):
            found.append(params)

    sweep()
    return found[0] if found else None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3, later step: the node series of batches "
                   "from 1024 points on and the continued fraction below differ by a few eps")
def test_values_are_the_same_in_every_batch():
    def same(params):
        x = points(params)
        large = np.resize(x, _LARGE_FROM)
        return all(np.array_equal(fn(large, params)[:x.size], fn(x, params))
                   for fn in (bfw_cdf, bfw_survival))

    assert first_failure(same) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3, log tails: the hazards are pdf / S and "
                   "-ln S, so they saturate where S underflows while their values are in range")
def test_hazards_do_not_saturate_in_range():
    def in_range(params):
        # up to w = 100 the hazard, about (alpha + beta/x^2) e^w q, is far below overflow
        x = points(params)
        x = x[(params.alpha * x - params.beta / x) <= 100.0]
        try:
            bfw_hazard(x, params)
            bfw_cumulative_hazard(x, params)
        except SaturationError:
            return False
        return True

    assert first_failure(in_range) is None
