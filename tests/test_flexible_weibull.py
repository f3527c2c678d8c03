import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bfw import DomainError, FWParams, fw_cdf, fw_pdf, fw_quantile, fw_sf
from bfw.flexible_weibull import _x_at_exponent

EPS = 2.0**-52


def naive_pdf(x, alpha, beta):
    # plain-arithmetic density, valid away from the extreme tails
    w = alpha * x - beta / x
    return (alpha + beta / x**2) * math.exp(w) * math.exp(-math.exp(w))


class TestParams:
    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_validation(self, bad):
        with pytest.raises(DomainError):
            FWParams(*bad)


class TestCdf:
    def test_zero_exponent_point(self):
        # at x = sqrt(beta/alpha) the exponent vanishes and F = 1 - 1/e
        params = FWParams(0.7, 1.3)
        x = math.sqrt(params.beta / params.alpha)
        assert fw_cdf(x, params) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_against_pdf_quadrature(self, published_fw):
        integral = quad(lambda t: naive_pdf(t, published_fw.alpha, published_fw.beta), 0.0, 1.0,
                        limit=500)[0]
        assert fw_cdf(1.0, published_fw) == pytest.approx(integral, abs=1e-10)
        # direct evaluation of the closed form at the same point (w = -2.5668)
        assert fw_cdf(1.0, published_fw) == pytest.approx(1.0 - math.exp(-math.exp(-2.5668)), rel=1e-12)

    def test_limits(self):
        params = FWParams(0.5, 0.5)
        assert fw_cdf(1e-12, params) == 0.0
        assert fw_cdf(1e9, params) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fw_cdf(0.0, FWParams(1.0, 1.0))
        with pytest.raises(DomainError):
            fw_cdf(-1.0, FWParams(1.0, 1.0))

    def test_strictly_increasing(self, rng):
        for _ in range(20):
            params = FWParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))
            xs = np.geomspace(1e-4, 1e3, 300)
            values = fw_cdf(xs, params)
            assert np.all(np.diff(values) >= 0.0)
            interior = (values > 1e-12) & (values < 1.0 - 1e-12)
            assert np.all(np.diff(values[interior]) > 0.0)

    def test_smallest_double_gives_the_limits_without_warning(self, published_fw):
        # beta/x overflows in w there; warnings are errors in this suite
        for x in (5e-324, np.array([5e-324, 1e-170, 1.0])):
            assert np.atleast_1d(fw_cdf(x, published_fw))[0] == 0.0
            assert np.atleast_1d(fw_sf(x, published_fw))[0] == 1.0

    @pytest.mark.parametrize("alpha, beta", [(0.052, 0.024), (0.5, 0.5)])
    def test_tiny_x_in_a_batch_leaves_the_other_elements_bit_identical(self, alpha, beta):
        params = FWParams(alpha, beta)
        x = np.geomspace(1e-150, 1e3, 20001)
        for fn in (fw_cdf, fw_sf):
            assert np.array_equal(fn(np.append(x, 5e-324), params)[:-1], fn(x, params))

    def test_survival_complement(self):
        params = FWParams(0.3, 1.1)
        for x in (0.1, 1.0, 5.0):
            assert fw_sf(x, params) == pytest.approx(1.0 - fw_cdf(x, params), abs=1e-15)


class TestPdf:
    def test_matches_cdf_derivative(self):
        params = FWParams(0.5, 0.8)
        x, h = 1.3, 1e-5
        fd = (fw_cdf(x + h, params) - fw_cdf(x - h, params)) / (2.0 * h)
        assert fw_pdf(x, params) == pytest.approx(fd, rel=1e-6)

    def test_integrates_to_one(self, published_fw):
        total = quad(lambda s: fw_pdf(s / (1 - s), published_fw) / (1 - s) ** 2, 0.0, 1.0,
                     limit=1000)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_exponent_value(self):
        params = FWParams(0.4, 0.9)
        x = math.sqrt(params.beta / params.alpha)
        # at w = 0 the density is (alpha + beta/x^2)/e = 2 alpha / e
        assert fw_pdf(x, params) == pytest.approx(2.0 * params.alpha / math.e, rel=1e-13)

    @pytest.mark.parametrize("alpha, beta", [
        (0.052, 0.024), (0.5, 0.5), (2.0, 3.0), (1e-3, 4.0), (0.0207, 2.5875),
    ])
    def test_against_mpmath_where_a_normal_double(self, alpha, beta):
        # on the band w in [-745, -700] e^w is subnormal or nearly so, and a
        # product with a subnormal factor would lose digits.  The bound is the
        # rounding of ln(alpha + beta/x^2), w and e^w, carried by the exp.
        params = FWParams(alpha, beta)
        band = _x_at_exponent(np.linspace(-745.0, -700.0, 200), params)
        wide = np.geomspace(1e-3, 1e3, 3000) * math.sqrt(beta / alpha)
        xs = np.concatenate([band, wide])
        checked = 0
        with mpmath.workdps(50):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            for x, got in zip(xs.tolist(), fw_pdf(xs, params).tolist()):
                xm = mpmath.mpf(x)
                w = a * xm - b / xm
                amp = a + b / xm**2
                expected = amp * mpmath.exp(w - mpmath.exp(w))
                if not np.finfo(float).tiny <= expected <= np.finfo(float).max:
                    continue
                unit = abs(mpmath.log(amp)) + abs(w) + mpmath.exp(w) + 1
                assert abs(got - expected) <= 5.0 * EPS * unit * expected, x
                checked += 1
        assert checked > 1000

    def test_nonnegative(self, rng):
        for _ in range(10):
            params = FWParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))
            xs = np.geomspace(1e-4, 1e3, 200)
            assert np.all(fw_pdf(xs, params) >= 0.0)


class TestQuantile:
    def test_zero_t_case(self):
        params = FWParams(0.6, 2.2)
        u = 1.0 - math.exp(-1.0)
        assert fw_quantile(u, params) == pytest.approx(math.sqrt(params.beta / params.alpha),
                                                       rel=1e-12)

    def test_roundtrip(self):
        params = FWParams(0.3, 1.1)
        assert fw_quantile(fw_cdf(2.2, params), params) == pytest.approx(2.2, abs=1e-9)

    def test_against_bisection(self, published_fw):
        root = brentq(lambda x: fw_cdf(x, published_fw) - 0.9, 1e-9, 1e6, xtol=1e-12)
        assert fw_quantile(0.9, published_fw) == pytest.approx(root, rel=1e-9)

    def test_forward_residual(self):
        params = FWParams(0.5, 0.5)
        for u in (1e-6, 1e-3, 0.4, 0.99, 1 - 1e-9):
            assert fw_cdf(fw_quantile(u, params), params) == pytest.approx(u, abs=1e-12)

    def test_roundtrip_randomized(self, rng):
        # u within ~1e-7 of an endpoint no longer caries enough double
        # precision in 1-u for a 1e-9 inversion, so stay clear of the edges
        for _ in range(200):
            params = FWParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))
            x = rng.uniform(0.01, 50.0)
            u = fw_cdf(x, params)
            if 1e-7 < u < 1.0 - 1e-7:
                assert fw_quantile(u, params) == pytest.approx(x, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            fw_quantile(bad, FWParams(1.0, 1.0))
