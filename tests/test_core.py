import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy import special as scipy_special
from scipy.special import gamma as gamma_fn

from bfw import (
    BFWParams,
    DomainError,
    FWParams,
    NoInteriorModeError,
    OrderIndex,
    SaturationError,
    bfw_cdf,
    bfw_cumulative_hazard,
    bfw_hazard,
    bfw_log_pdf,
    bfw_mode,
    bfw_pdf,
    bfw_quantile,
    bfw_reversed_hazard,
    bfw_sample,
    bfw_survival,
    fw_cdf,
    fw_log_pdf,
    fw_pdf,
    fw_quantile,
    fw_sf,
    inv_reg_inc_beta,
    ks_statistic,
    mode_equation,
    order_stat_pdf,
    raw_moment_quadrature,
)
from bfw._stable import log_amplitude, tiny_x
from bfw import core, special
from bfw.flexible_weibull import _x_at_exponent
from bfw.special import _LARGE_FROM, _beta_cdf, _beta_quantile, _cdf_plan
from bfw.inference import Dataset
from conftest import beta_side, moment_panel

PUBLISHED = (0.052, 0.024, 35.077, 20.328)


def naive_pdf(x, params):
    # plain-arithmetic density, usable away from the extreme tails
    a, b, p, q = params.alpha, params.beta, params.p, params.q
    w = a * x - b / x
    const = gamma_fn(p + q) / (gamma_fn(p) * gamma_fn(q))
    return const * (a + b / x**2) * math.exp(w) * math.exp(-q * math.exp(w)) * (
        1.0 - math.exp(-math.exp(w))
    ) ** (p - 1.0)


def mp_mode_equation(theta):
    """The mode equation at the current mpmath precision, in its sum form."""
    a, b, p, q = (mpmath.mpf(v) for v in theta)

    def equation(x):
        ew = mpmath.exp(a * x - b / x)
        return -2 * b / x**3 + (a + b / x**2) ** 2 * (1 - q * ew + (p - 1) * ew / mpmath.expm1(ew))

    return equation


def beta_cdf_finite_sum(y, p, q):
    """Finite-sum form of the Beta(p, q) CDF, valid for integer q only."""
    total = 0.0
    for i in range(int(q)):
        total += (-1.0) ** i * y ** (p + i) / (
            math.factorial(i) * gamma_fn(q - i) * (p + i)
        )
    return gamma_fn(p + q) / gamma_fn(p) * total


def quad_cdf(x, params):
    return quad(lambda t: naive_pdf(t, params), 0.0, x, limit=500)[0]


EPS = 2.0**-52
# survival and hazard in the right tail: the survival is about S_G^q with
# S_G = exp(-e^w), so the rounding of w (|w| eps) is multiplied by q e^w:
# about 3e-14 at x = 30
TAIL_RTOL = 1e-13


def mp_survival_hazard(x, theta):
    """Survival I_{S_G}(q, p) and hazard pdf / survival at 50 digits."""
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        x = mpmath.mpf(x)
        w = a * x - b / x
        ew = mpmath.exp(w)
        log_pdf = (-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / x**2) + w - q * ew
                   + (p - 1) * mpmath.log(-mpmath.expm1(-ew)))
        sf = mpmath.betainc(q, p, 0, mpmath.exp(-ew), regularized=True)
        return sf, mpmath.exp(log_pdf) / sf if sf else None


class TestParams:
    @pytest.mark.parametrize(
        "bad",
        [(0.0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, math.inf)],
    )
    def test_validation(self, bad):
        with pytest.raises(DomainError):
            BFWParams(*bad)

    def test_base_is_built_once(self, published_params):
        assert published_params.base is published_params.base
        assert published_params.base == FWParams(published_params.alpha, published_params.beta)


class TestCdf:
    def test_reduces_to_base_for_unit_shapes(self):
        params = BFWParams(0.5, 0.8, 1.0, 1.0)
        xs = np.geomspace(0.01, 20.0, 50)
        assert np.allclose(bfw_cdf(xs, params), fw_cdf(xs, params.base), atol=1e-12, rtol=0)

    def test_against_quadrature(self, published_params):
        assert bfw_cdf(1.0, published_params) == pytest.approx(quad_cdf(1.0, published_params), abs=1e-9)

    def test_integer_q_finite_sum(self, rng):
        cases = [(2.0, 3)] + [(rng.uniform(0.5, 8.0), q) for q in range(1, 7)]
        for p, q in cases:
            params = BFWParams(0.4, 0.7, p, float(q))
            for x in (0.5, 1.0, 2.0):
                y = fw_cdf(x, params.base)
                assert bfw_cdf(x, params) == pytest.approx(
                    beta_cdf_finite_sum(y, p, q), abs=1e-10
                )

    def test_monotone_limits(self, published_params):
        xs = np.geomspace(1e-3, 50.0, 200)
        vals = bfw_cdf(xs, published_params)
        assert np.all(np.diff(vals) >= 0.0)
        assert bfw_cdf(1e-6, published_params) == pytest.approx(0.0, abs=1e-12)
        assert bfw_cdf(1e3, published_params) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self, published_params):
        with pytest.raises(DomainError):
            bfw_cdf(-2.0, published_params)


class TestPdf:
    def test_reduces_to_base(self):
        params = BFWParams(0.5, 0.8, 1.0, 1.0)
        xs = np.geomspace(0.01, 20.0, 50)
        assert np.allclose(bfw_pdf(xs, params), fw_pdf(xs, params.base), atol=1e-12, rtol=1e-12)

    def test_integrates_to_one_at_paper_estimates(self, published_params):
        total = quad(
            lambda s: float(bfw_pdf(s / (1 - s), published_params)) / (1 - s) ** 2,
            0.0, 1.0, limit=1000,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_matches_cdf_derivative(self, published_params):
        x, h = 1.5, 1e-5
        fd = (bfw_cdf(x + h, published_params) - bfw_cdf(x - h, published_params)) / (2.0 * h)
        assert bfw_pdf(x, published_params) == pytest.approx(fd, rel=1e-5)

    def test_normalization_randomized(self, rng):
        for _ in range(20):
            params = BFWParams(
                rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0),
                rng.uniform(0.5, 40.0), rng.uniform(0.5, 40.0),
            )
            total = quad(
                lambda s: math.exp(bfw_log_pdf(s / (1 - s), params)) / (1 - s) ** 2,
                0.0, 1.0, limit=2000,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-7)


class TestLogPdf:
    def test_exp_consistency(self, published_params, rng):
        xs = rng.uniform(0.05, 8.0, size=100)
        lp = bfw_log_pdf(xs, published_params)
        assert np.allclose(np.exp(lp), bfw_pdf(xs, published_params), rtol=1e-12)

    def test_reduction(self):
        params = BFWParams(0.5, 0.8, 1.0, 1.0)
        for x in (0.2, 1.0, 4.0):
            assert bfw_log_pdf(x, params) == pytest.approx(
                math.log(fw_pdf(x, params.base)), rel=1e-12
            )

    def test_finite_at_smallest_observation(self, published_params):
        value = bfw_log_pdf(0.101, published_params)
        assert math.isfinite(value)
        # cross-check against plain arithmetic, which still works here
        assert value == pytest.approx(math.log(naive_pdf(0.101, published_params)), rel=1e-10)

    def test_finite_deep_in_left_tail(self, published_params):
        # naive arithmetic underflows here; the log form must survive
        assert math.isfinite(bfw_log_pdf(1e-3, published_params))

    @pytest.mark.parametrize("x", ["1e-160", "1e-200"])
    def test_tiny_x_against_mpmath(self, published_params, x):
        # beta/x^2 overflows (or x^2 underflows) here; 50-digit mpmath gives
        # -8.41848e159 at 1e-160, and the density and mode equation their limits
        with mpmath.workdps(50):
            a, b, p, q, xm = (mpmath.mpf(v) for v in (*PUBLISHED, x))
            w = a * xm - b / xm
            log_amp = mpmath.log(a + b / xm**2)
            expected = float(-mpmath.log(mpmath.beta(p, q)) + log_amp + w - q * mpmath.exp(w)
                             + (p - 1) * mpmath.log(-mpmath.expm1(-mpmath.exp(w))))
            fw_expected = float(log_amp + w - mpmath.exp(w))
        xf = float(x)
        assert bfw_log_pdf(xf, published_params) == pytest.approx(expected, rel=1e-15)
        assert bfw_log_pdf(np.array([xf, 1.0]), published_params)[0] == pytest.approx(
            expected, rel=1e-15)
        assert fw_log_pdf(xf, published_params.base) == pytest.approx(fw_expected, rel=1e-15)
        assert bfw_pdf(xf, published_params) == 0.0
        assert fw_pdf(xf, published_params.base) == 0.0
        assert mode_equation(xf, published_params) == math.inf  # beta^2 p / x^4 overflows

    @staticmethod
    def mp_log_pdfs(theta, x):
        """50-digit fw and bfw log densities at the double x (-inf past the
        range of doubles), and the relative rounding of w at x, divided by
        eps, that e^w carries into both."""
        with mpmath.workdps(50):
            a, b, p, q, xm = (mpmath.mpf(float(v)) for v in (*theta, x))
            w = a * xm - b / xm
            fw = mpmath.log(a + b / xm**2) + w - mpmath.exp(w)
            bfw = (-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / xm**2) + w
                   - q * mpmath.exp(w) + (p - 1) * mpmath.log(-mpmath.expm1(-mpmath.exp(w))))
            return float(fw), float(bfw), float(1 + a * xm + b / xm)

    @pytest.mark.parametrize("w", [702.0, 705.0, 709.0, 715.0])
    def test_past_the_overflow_of_e_w_against_mpmath(self, published_params, w):
        # q e^w overflows above w ~ 706.8 and e^w above ~ 709.78, where each
        # log density is -inf; below, both are exact (mpmath: fw -7.4942e304,
        # -1.5053e306, -8.2184e307; bfw -1.5234e306, -3.0599e307)
        x = float(_x_at_exponent(np.array(w), published_params.base))
        fw_expected, bfw_expected, w_rounding = self.mp_log_pdfs(PUBLISHED, x)
        tol = 4.0 * EPS * w_rounding
        for got, expected in [(fw_log_pdf(x, published_params.base), fw_expected),
                              (bfw_log_pdf(x, published_params), bfw_expected)]:
            if math.isinf(expected):
                assert got == expected
            else:
                assert got == pytest.approx(expected, rel=tol)
        batch = bfw_log_pdf(np.array([1.0, x]), published_params)
        assert batch.tolist() == [bfw_log_pdf(1.0, published_params),
                                  bfw_log_pdf(x, published_params)]

    @pytest.mark.parametrize("alpha, beta", [(0.052, 0.024), (0.5, 0.5), (2.0, 3.0), (1e-3, 4.0)])
    def test_p_q_one_is_the_base_log_density_bit_for_bit(self, alpha, beta):
        # one kernel: the base model is the p = q = 1, ln B = 0 case
        x = np.concatenate([np.geomspace(5e-324, 1.7e308, 20001),
                            np.geomspace(1e-160, 1e-150, 501)])
        bfw_params, fw_params = BFWParams(alpha, beta, 1.0, 1.0), FWParams(alpha, beta)
        assert bfw_params.log_beta == 0.0
        assert bfw_log_pdf(x, bfw_params).tobytes() == fw_log_pdf(x, fw_params).tobytes()
        for xf in x[::500].tolist():
            assert (np.float64(bfw_log_pdf(xf, bfw_params)).tobytes()
                    == np.float64(fw_log_pdf(xf, fw_params)).tobytes())

    def test_huge_x_batch_runs_without_warnings(self, published_params):
        # the smallest x squares past the largest double; warnings are errors here
        x = np.array([1e160, 1e200, 1.7e308])
        for fn, params in [(bfw_log_pdf, published_params), (bfw_pdf, published_params),
                           (fw_log_pdf, published_params.base), (fw_pdf, published_params.base)]:
            assert np.all(fn(x, params) == fn(1e200, params))
        assert fw_cdf(x, published_params.base).tolist() == [1.0] * 3
        assert fw_sf(x, published_params.base).tolist() == [0.0] * 3

    @pytest.mark.parametrize("w", [712.0, 715.0])
    def test_small_q_brings_q_e_w_back_into_range(self, w):
        # e^w is inf here, q e^w = e^(w + ln q) is not
        theta = (0.052, 0.024, 35.077, 1e-3)
        params = BFWParams(*theta)
        x = float(_x_at_exponent(np.array(w), params.base))
        _, expected, w_rounding = self.mp_log_pdfs(theta, x)
        assert math.isfinite(expected)
        # exp(w + ln q) rounds w + ln q once more
        assert bfw_log_pdf(x, params) == pytest.approx(expected, rel=4.0 * EPS * (w_rounding + w))
        batch = bfw_log_pdf(np.array([1.0, x]), params)
        assert batch.tolist() == [bfw_log_pdf(1.0, params), bfw_log_pdf(x, params)]

    def test_smallest_double_gives_the_ieee_limits(self, published_params):
        # warnings are errors in this suite, so each call is also warning-free
        def first(values):
            return np.atleast_1d(values)[0]

        for x in (5e-324, np.array([5e-324, 1e-170, 1.0])):
            assert first(bfw_log_pdf(x, published_params)) == -math.inf
            assert first(bfw_pdf(x, published_params)) == 0.0
            assert first(fw_log_pdf(x, published_params.base)) == -math.inf
            assert first(fw_pdf(x, published_params.base)) == 0.0
            assert first(mode_equation(x, published_params)) == math.inf
        # p <= 1 must not leave -inf + inf where w = -inf
        assert bfw_log_pdf(5e-324, BFWParams(0.5, 0.5, 0.5, 2.0)) == -math.inf
        assert bfw_log_pdf(5e-324, BFWParams(0.5, 0.5, 1.0, 2.0)) == -math.inf

    def test_amplitude_log_keeps_every_bit_from_1e_150(self, published_params):
        # the second form of ln(alpha + beta/x^2) takes over only below ~1.5e-154
        x = np.geomspace(1e-150, 1e4, 4001)
        for alpha, beta in [(0.052, 0.024), (0.5, 0.5), (3.0, 4.0), (1e-3, 1e-6)]:
            direct = np.log(alpha + beta / np.square(x))
            assert not tiny_x(x, beta)
            assert np.array_equal(log_amplitude(x, alpha, beta, False), direct)
            # a tiny x elsewhere in the batch leaves these elements as they are
            with np.errstate(all="ignore"):
                mixed = log_amplitude(np.append(x, 1e-170), alpha, beta, True)
            assert np.array_equal(mixed[:-1], direct)

    @pytest.mark.parametrize("x", [1e-155, 1e-158, 1e-162, 1e-170, 1e-250, 1e-320])
    def test_amplitude_log_against_mpmath_below_1e_154(self, x):
        # x^2 is subnormal or zero here, or beta/x^2 overflows
        for alpha, beta in [(0.052, 0.024), (2.0, 1e30)]:
            with mpmath.workdps(50):
                a, b, xm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
                expected = float(mpmath.log(a + b / xm**2))
            assert tiny_x(x, beta)
            with np.errstate(all="ignore"):
                got = log_amplitude(x, alpha, beta, True)
            assert got == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("theta, x", [
        # one shape swamps the other: gammaln(p + q) - gammaln(p) - gammaln(q)
        # is 2.2e-7 off in both, betaln is not
        ((0.1, 0.1, 1e8, 1.0), 30.0),
        ((1.0, 1.0, 1.0, 1e8), 1e-3),
        ((0.052, 0.024, 35.077, 20.328), 0.101),
        ((0.052, 0.024, 35.077, 20.328), 3.0),
        ((0.5, 0.8, 1.0, 1.0), 1.0),
        ((1e-3, 5.0, 0.1, 300.0), 2.0),
        ((2.0, 0.01, 1e-3, 1e-3), 0.5),
        ((0.3, 1.2, 1e3, 0.5), 10.0),
        ((3.7, 0.2, 12.5, 0.07), 1.0),
    ])
    def test_against_mpmath(self, theta, x):
        # 60-digit terms of the log-density at the double inputs.  The float
        # sum may round each by a few eps; ln B(p, q) is TOMS 708's, within
        # an eps or two of |ln B| (scipy's betaln, a gammaln difference at
        # some shapes, was ~3e-13 relative off at (0.1, 300) and (1e3, 0.5))
        with mpmath.workdps(60):
            a, b, p, q, xm = (mpmath.mpf(v) for v in (*theta, x))
            w = a * xm - b / xm
            terms = [
                -mpmath.log(mpmath.beta(p, q)),
                mpmath.log(a + b / xm**2),
                w,
                -q * mpmath.exp(w),
                (p - 1) * mpmath.log(-mpmath.expm1(-mpmath.exp(w))),
            ]
            expected = float(mpmath.fsum(terms))
            scale = float(mpmath.fsum(abs(t) for t in terms))
        tol = 8.0 * np.finfo(float).eps * scale
        assert abs(bfw_log_pdf(x, BFWParams(*theta)) - expected) <= tol


class TestSurvivalHazards:
    def test_complement_of_cdf(self, published_params):
        # the survival is I_{S_G}(q, p) by reflection, not 1 - cdf: the two
        # sum to one up to their errors, each the rounding of G or S_G times
        # y f(y) / I of the Beta(35, 20) cdf (up to ~8 here); 5.5 eps seen
        for x in (0.1, 0.75, 2.16, 6.0):
            total = bfw_survival(x, published_params) + bfw_cdf(x, published_params)
            assert abs(total - 1.0) <= 16.0 * EPS

    @pytest.mark.parametrize("x", [22.0, 25.0, 30.0])
    def test_right_tail_against_mpmath(self, published_params, x):
        # 1 - cdf was 2.2427e-14 at x = 22 (0.15% off) and 0 from x = 25 on
        sf, h = mp_survival_hazard(x, PUBLISHED)
        assert bfw_survival(x, published_params) == pytest.approx(float(sf), rel=TAIL_RTOL)
        assert bfw_hazard(x, published_params) == pytest.approx(float(h), rel=TAIL_RTOL)
        assert bfw_cumulative_hazard(x, published_params) == pytest.approx(
            float(-mpmath.log(sf)), rel=4 * EPS)

    def test_published_tail_values(self, published_params):
        assert bfw_survival(25.0, published_params) == pytest.approx(8.5773302e-19, rel=1e-7)
        assert bfw_survival(22.0, published_params) == pytest.approx(2.2460472e-14, rel=1e-7)

    def test_survival_underflow_matches_mpmath(self):
        # at x = 1e3 the survival is about exp(-2.8e217): the double nearest is 0,
        # and the hazards saturate there
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        sf, _ = mp_survival_hazard(1e3, (0.5, 0.5, 2.0, 2.0))
        assert float(sf) == 0.0
        assert bfw_survival(1e3, params) == 0.0
        with pytest.raises(SaturationError):
            bfw_hazard(1e3, params)
        with pytest.raises(SaturationError):
            bfw_cumulative_hazard(1e3, params)

    def test_survival_limit(self, published_params):
        assert bfw_survival(1e-8, published_params) == pytest.approx(1.0, abs=1e-14)

    def test_survival_at_observation(self, published_params):
        expected = 1.0 - quad_cdf(2.160, published_params)
        assert bfw_survival(2.160, published_params) == pytest.approx(expected, abs=1e-9)

    def test_hazard_identity(self, published_params, rng):
        xs = rng.uniform(0.05, 5.0, size=100)
        h = bfw_hazard(xs, published_params)
        s = bfw_survival(xs, published_params)
        f = bfw_pdf(xs, published_params)
        assert np.allclose(h * s, f, rtol=1e-10)
        # h is f / S with the same S, so h S returns f to rounding
        assert np.all(np.abs(h * s - f) <= 2.0 * EPS * f)

    def test_hazard_reduces_to_base(self):
        params = BFWParams(0.5, 0.8, 1.0, 1.0)
        for x in (0.3, 1.0, 3.0):
            w = params.alpha * x - params.beta / x
            expected = (params.alpha + params.beta / x**2) * math.exp(w)
            assert bfw_hazard(x, params) == pytest.approx(expected, rel=1e-12)

    def test_hazard_against_quadrature(self, published_params):
        num = naive_pdf(1.0, published_params)
        den = 1.0 - quad_cdf(1.0, published_params)
        assert bfw_hazard(1.0, published_params) == pytest.approx(num / den, rel=1e-8)

    def test_hazard_saturation(self, published_params):
        with pytest.raises(SaturationError):
            bfw_hazard(1e4, published_params)

    def test_cumulative_hazard_saturation_reports_the_largest_finite_value(self, published_params):
        # as the hazards report theirs: -ln S at the largest x whose survival
        # is still positive, and None where no survival is
        x = np.array([0.5, 12.0, 30.0, 1e4, 3.0])
        with pytest.raises(SaturationError) as info:
            bfw_cumulative_hazard(x, published_params)
        finite = bfw_cumulative_hazard(x[x < 1e4], published_params)
        assert info.value.last_value == finite.max() == finite[2]
        with pytest.raises(SaturationError) as info:
            bfw_cumulative_hazard(np.array([1e4, 2e4]), published_params)
        assert info.value.last_value is None

    def test_reversed_hazard_identity(self, published_params, rng):
        xs = rng.uniform(0.2, 5.0, size=50)
        r = bfw_reversed_hazard(xs, published_params)
        assert np.allclose(r * bfw_cdf(xs, published_params), bfw_pdf(xs, published_params), rtol=1e-10)

    def test_hazards_cross_at_median(self, published_params):
        median = bfw_quantile(0.5, published_params)
        assert bfw_reversed_hazard(median, published_params) == pytest.approx(
            bfw_hazard(median, published_params), rel=1e-8
        )

    def test_reversed_hazard_value(self, published_params):
        expected = naive_pdf(0.5, published_params) / quad_cdf(0.5, published_params)
        assert bfw_reversed_hazard(0.5, published_params) == pytest.approx(expected, rel=1e-8)

    def test_cumulative_hazard_identity(self, published_params):
        for x in (0.5, 1.0, 3.0):
            integral = quad(lambda t: float(bfw_hazard(t, published_params)), 1e-12, x,
                            limit=500)[0]
            assert bfw_cumulative_hazard(x, published_params) == pytest.approx(integral, abs=1e-6)

    def test_cumulative_hazard_limit_and_monotone(self, published_params):
        assert bfw_cumulative_hazard(1e-8, published_params) == pytest.approx(0.0, abs=1e-12)
        xs = np.geomspace(0.01, 20.0, 100)
        vals = bfw_cumulative_hazard(xs, published_params)
        assert np.all(np.diff(vals) >= 0.0)

    def test_smallest_double_gives_the_limits_without_warning(self, published_params):
        # beta/x overflows in w there; warnings are errors in this suite
        def first(values):
            return np.atleast_1d(values)[0]

        for x in (5e-324, np.array([5e-324, 1e-170, 1.0])):
            assert first(bfw_cdf(x, published_params)) == 0.0
            assert first(bfw_survival(x, published_params)) == 1.0
            assert first(bfw_hazard(x, published_params)) == 0.0
            assert first(bfw_cumulative_hazard(x, published_params)) == 0.0
            with pytest.raises(SaturationError):  # the cdf is 0 there
                bfw_reversed_hazard(x, published_params)

    @pytest.mark.parametrize("theta", [(0.052, 0.024, 35.077, 20.328), (0.5, 0.5, 2.0, 2.0)])
    def test_tiny_x_in_a_batch_leaves_the_other_elements_bit_identical(self, theta):
        params = BFWParams(*theta)
        x = np.geomspace(1e-150, 1e3, 20001)
        # the hazards up to x = 5, below where the survival underflows
        for fn, top in ((bfw_cdf, 1e3), (bfw_survival, 1e3), (bfw_hazard, 5.0),
                        (bfw_cumulative_hazard, 5.0)):
            grid = x[x <= top]
            assert np.array_equal(fn(np.append(grid, 5e-324), params)[:-1], fn(grid, params))

    def test_against_the_reference_near_zero(self):
        # -ln S = -log1p(-cdf) of the 50-digit reference, 1.7676408290e-43:
        # a survival formed as 1 - cdf there read 1.7676408257e-43
        theta, x = (1.0, 0.1, 40.0, 0.3), 0.0423
        cdf = mp_cdf_survival_hazard(x, theta)[0]
        with mpmath.workdps(50):
            expected = float(-mpmath.log1p(-cdf))
        assert expected == pytest.approx(1.7676408290e-43, rel=1e-10)
        assert bfw_cumulative_hazard(x, BFWParams(*theta)) == pytest.approx(expected, rel=1e-14)

    def test_matches_minus_log_survival(self, published_params):
        for x in (0.5, 2.0, 5.0):
            assert bfw_cumulative_hazard(x, published_params) == pytest.approx(
                -math.log(bfw_survival(x, published_params)), abs=1e-10
            )


# The Beta quantile on u from 1e-300 to 1 - 1e-15, geometric in both tails,
# at both benchmark anchors and three harder shape pairs
QUANTILE_SHAPES = [(35.077, 20.328), (2.0, 2.0), (0.3, 0.7), (300.0, 5.0), (0.05, 40.0)]
QUANTILE_GRID = np.concatenate([np.geomspace(1e-300, 0.5, 200),
                                1.0 - np.geomspace(1e-15, 0.5, 100)[:-1]])
BULK_U = (np.arange(50_000) + 0.5) / 50_000  # the benchmark's quantile grid
TINY = float(np.finfo(float).tiny)


def beta_quantile_reference(t, a, b, digits=50):
    """z with I_z(a, b) = t by Newton steps in ln z at ``digits`` digits."""
    with mpmath.workdps(digits):
        t, a, b = mpmath.mpf(float(t)), mpmath.mpf(float(a)), mpmath.mpf(float(b))
        log_beta = mpmath.log(mpmath.beta(a, b))
        z = mpmath.mpf(float(scipy_special.betaincinv(float(a), float(b), float(t))))
        if not z > 0:  # below the doubles, or NaN: the leading term of the series
            z = mpmath.exp((mpmath.log(t * a) + log_beta) / a)
        for _ in range(100):
            big_i = mpmath.betainc(a, b, 0, z, regularized=True)
            slope = mpmath.exp(a * mpmath.log(z) + (b - 1) * mpmath.log1p(-z) - log_beta) / big_i
            step = mpmath.log(big_i / t) / slope
            z *= mpmath.exp(-step)
            if abs(step) < mpmath.mpf(10) ** (5 - digits):
                return z
        raise AssertionError("reference Newton did not converge")


def quantile_reference(u, params):
    """x = Q(u) at 50 digits through the reference Beta quantile, or None
    where y lies below the doubles (x is then that of the clip to 5e-324)."""
    reflected = u > 0.5
    a, b = (params.q, params.p) if reflected else (params.p, params.q)
    z = beta_quantile_reference(1.0 - u if reflected else u, a, b)
    if not reflected and z < TINY:
        return None
    with mpmath.workdps(50):
        neg_log_sf = -mpmath.log(z) if reflected else -mpmath.log1p(-z)
        w = mpmath.log(neg_log_sf)
        return (w + mpmath.sqrt(w * w + 4 * params.alpha * params.beta)) / (2 * params.alpha)


class TestQuantile:
    def test_reduces_to_base(self):
        params = BFWParams(0.5, 0.8, 1.0, 1.0)
        for u in (0.1, 0.5, 0.9):
            assert bfw_quantile(u, params) == pytest.approx(
                fw_quantile(u, params.base), rel=1e-12
            )

    def test_roundtrip_at_paper_estimates(self, published_params):
        for u in (0.1, 0.5, 0.9):
            x = bfw_quantile(u, published_params)
            assert bfw_cdf(x, published_params) == pytest.approx(u, abs=1e-8)

    def test_roundtrip_tails(self, published_params):
        for u in (1e-4, 1e-2, 0.5, 1.0 - 1e-2, 1.0 - 1e-4):
            assert bfw_cdf(bfw_quantile(u, published_params), published_params) == pytest.approx(
                u, abs=1e-8
            )

    @pytest.mark.parametrize("a", [1e-3, 5e-4, 1e-5, 1e-8])
    def test_tiny_shapes_give_no_nan(self, a):
        # a NaN Beta quantile raised "u must be in (0, 1)" for a valid u
        u = np.linspace(0.01, 0.99, 99)
        for shapes in ((a, a), (a, 2.0), (2.0, a)):
            x = bfw_quantile(u, BFWParams(0.5, 0.5, *shapes))
            assert not np.isnan(x).any() and np.all(x > 0.0), shapes
            assert np.all(np.diff(x) >= 0.0), shapes

    def test_median_against_bisection(self, published_params):
        root = brentq(lambda x: bfw_cdf(x, published_params) - 0.5, 1e-6, 1e3, xtol=1e-13)
        assert bfw_quantile(0.5, published_params) == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_domain(self, bad, published_params):
        with pytest.raises(DomainError):
            bfw_quantile(bad, published_params)
        with pytest.raises(DomainError):  # the bracketed path checks alike
            bfw_quantile(np.append(BULK_U, bad), published_params)

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_beta_quantile_against_mpmath(self, shapes):
        # the Beta quantile of both paths of bfw_quantile: the bracketed one
        # from the size constant on, betaincinv below it, each with the
        # series root where z is small
        p, q = shapes
        u = QUANTILE_GRID
        reflected = u > 0.5
        a, b = np.where(reflected, q, p), np.where(reflected, p, q)
        t = np.where(reflected, 1.0 - u, u)
        ref = [beta_quantile_reference(*args) for args in zip(t, a, b)]
        normal = np.array([z >= TINY for z in ref])

        def worst(z):
            return max(float(abs(mpmath.mpf(zi) / ri - 1)) for zi, ri, ok in zip(z, ref, normal) if ok)

        own = np.array([scipy_special.betaincinv(*args) for args in zip(a, b, t)])
        bound = max(4.0 * EPS, worst(own))
        for batch in (u, np.concatenate([u, BULK_U[:_LARGE_FROM]])):
            v, upper = _beta_quantile(batch, p, q)
            v, upper = v[: u.size], upper[: u.size]
            # z of the reflected problem; a reflected element solved for y
            # directly has y < 1/2, so 1 - y loses nothing
            z = np.where(reflected & ~upper, 1.0 - v, v)
            assert worst(z) <= bound
            # below the normal range z is within one subnormal step of the
            # reference (betaincinv returned the smallest normal double there)
            assert all(abs(zi - float(ri)) <= 5e-324
                       for zi, ri, ok in zip(z, ref, normal) if not ok)
        # the public inverse is the kernel's: betaincinv above the series
        # top, and the series root, within the same bound, at or below it
        lower = ~reflected
        direct = np.asarray(inv_reg_inc_beta(u[lower], p, q))
        above = u[lower] > special._series_top(p, q)
        assert np.array_equal(direct[above], own[lower][above])
        z = own.copy()
        z[lower] = direct
        assert worst(z) <= bound

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (1.0, 0.1, 300.0, 5.0)])
    def test_bracketed_path_is_independent_of_the_batch(self, theta):
        params = BFWParams(*theta)
        assert BULK_U.size >= _LARGE_FROM
        x = bfw_quantile(BULK_U, params)
        assert np.array_equal(bfw_quantile(BULK_U[::-1], params), x[::-1])
        rng = np.random.default_rng(11)
        other = np.concatenate([rng.uniform(size=3000), np.geomspace(1e-300, 1e-3, 500)])
        superset = np.concatenate([other, BULK_U[::7]])
        order = rng.permutation(superset.size)
        mixed = np.empty(superset.size)
        mixed[order] = bfw_quantile(superset[order], params)
        assert np.array_equal(mixed[other.size:], x[::7])
        # and so is the Beta quantile it rests on
        v, upper = _beta_quantile(BULK_U, params.p, params.q)
        v_rev, upper_rev = _beta_quantile(BULK_U[::-1], params.p, params.q)
        assert np.array_equal(v_rev, v[::-1]) and np.array_equal(upper_rev, upper[::-1])

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (1.0, 0.1, 300.0, 5.0),
                                       (1.0, 0.1, 1.0, 1.0), (1.0, 0.1, 1.5, 3.0)])
    def test_subnormal_u_on_the_bracketed_path(self, theta):
        # a subnormal u is solved by the series root on both paths, where
        # betaincinv was NaN or off (5.4% at the published shapes at 1e-310)
        params = BFWParams(*theta)
        tiny = np.geomspace(5e-324, 2e-308, 64)
        grid = BULK_U[:: BULK_U.size // _LARGE_FROM]
        v, upper = _beta_quantile(np.append(tiny, grid), params.p, params.q)
        assert not upper[: tiny.size].any()
        for ti, zi in zip(tiny, v[: tiny.size]):
            ref = beta_quantile_reference(ti, params.p, params.q)
            if ref >= TINY:
                assert abs(zi / ref - 1) <= 8 * EPS
            else:
                assert abs(zi - float(ref)) <= 5e-324
        for ui in (1e-310, 5e-324):
            u = np.append(ui, grid)
            assert u.size >= _LARGE_FROM
            x = bfw_quantile(ui, params)
            assert bfw_quantile(u, params)[0] == x
            ref = quantile_reference(ui, params)
            if ref is not None:
                assert abs(x / ref - 1) <= 1e-13

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0)])
    def test_direct_path_below_the_size_constant(self, theta):
        # below the constant the lower half is betaincinv(p, q, u) bit for
        # bit; the upper half solves I_{1-y}(q, p) = 1 - u for 1 - y, or for
        # y where 1 - y would exceed 1/2
        params = BFWParams(*theta)
        p, q = params.p, params.q
        for u in (BULK_U[:: BULK_U.size // 99], BULK_U[: _LARGE_FROM - 1], 0.3):
            u = np.atleast_1d(u)
            x = np.atleast_1d(bfw_quantile(u, params))
            lower = u <= 0.5
            y = np.clip(scipy_special.betaincinv(p, q, u), 5e-324, 1.0 - 2.0**-53)
            assert np.array_equal(x[lower], fw_quantile(y[lower], params.base))
            z = np.clip(scipy_special.betaincinv(q, p, 1.0 - u), 5e-324, 1.0 - 2.0**-53)
            w = np.where(z > 0.5, np.log(-np.log1p(-y)), np.log(-np.log(z)))
            assert np.array_equal(x[~lower], _x_at_exponent(w, params.base)[~lower])

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (1.0, 0.1, 0.05, 40.0)])
    def test_bracketed_path_against_mpmath(self, theta):
        # x = Q(u) through the reference Beta quantile; the right tail keeps
        # its digits, as -ln(1 - y) is formed from 1 - y itself, and so does a
        # small y above u = 1/2 (at (0.05, 40) y is 1e-7 at u = 0.6).  Batches
        # below the size constant solve the same reflected problem.
        params = BFWParams(*theta)
        refs = [quantile_reference(ui, params) for ui in QUANTILE_GRID]
        for u in (np.concatenate([QUANTILE_GRID, BULK_U[: _LARGE_FROM]]), QUANTILE_GRID):
            x = bfw_quantile(u, params)[: QUANTILE_GRID.size]
            worst = max(float(abs(xi / ref - 1)) for xi, ref in zip(x, refs) if ref is not None)
            assert worst <= 1e-13


class TestPublicBetaInverse:
    """inv_reg_inc_beta, the Beta inverse of bfw_quantile behind validation."""

    @pytest.mark.parametrize("shapes", [*QUANTILE_SHAPES, (5.0, 300.0)])
    def test_no_nan_on_the_quantile_grid(self, shapes):
        # betaincinv is NaN at (5, 300) for every u below ~1e-170
        u = np.sort(QUANTILE_GRID)
        y = inv_reg_inc_beta(u, *shapes)
        assert not np.isnan(y).any()
        assert np.all(np.diff(y) >= 0.0)

    @pytest.mark.parametrize("a, b, u, root", [
        (5.0, 300.0, 1e-200, 8.6264889059801172e-43),  # betaincinv: nan
        (2.0, 2.0, 5e-324, 1.2833103623588054e-162),  # nan
        (35.077, 20.328, 1e-310, 5.6374978554004668e-10),  # 5.94e-10
        (35.077, 20.328, 5e-324, 2.3536580293159798e-10),  # 4.78e-10
        (300.0, 5.0, 1e-310, 0.086839092802896738),  # 0.0868391021
    ])
    def test_series_roots_against_mpmath(self, a, b, u, root):
        ref = beta_quantile_reference(u, a, b, digits=60)
        assert float(ref) == pytest.approx(root, rel=EPS)
        assert abs(inv_reg_inc_beta(u, a, b) / ref - 1) <= 4 * EPS

    @pytest.mark.parametrize("a", [1e-3, 5e-4, 1e-4, 1e-6, 1e-8])
    def test_tiny_shapes_give_no_nan(self, a):
        # the series root multiplied a 2^(e/a) that underflowed to 0 by a factor
        # that overflowed to inf: NaN at 28 of these u at 5e-4 and 46 at 1e-4
        u = np.linspace(0.01, 0.99, 99)
        for shapes in ((a, a), (a, 2.0), (2.0, a), (a, 0.5)):
            y = inv_reg_inc_beta(u, *shapes)
            assert not np.isnan(y).any(), shapes
            assert np.all(np.diff(y) >= 0.0), shapes

    @pytest.mark.parametrize("a, u", [(5e-4, 0.46), (5e-4, 0.49), (1e-4, 0.48), (1e-3, 0.3)])
    def test_tiny_shapes_against_mpmath(self, a, u):
        # z = (u a B)^(1/a) to leading order: one ulp of u moves z by 1/a ulps
        ref = beta_quantile_reference(u, a, a)
        assert TINY < ref < 1e-10
        assert abs(inv_reg_inc_beta(u, a, a) / ref - 1) <= 16 * EPS / a

    def test_shapes_broadcast_against_u(self):
        u = np.array([[0.0], [1e-300], [0.3], [1.0]])
        p, q = np.array([2.0, 300.0, 2.0]), 5.0
        y = inv_reg_inc_beta(u, p, q)
        assert y.shape == (4, 3)
        for (i, j), yi in np.ndenumerate(y):
            assert yi == inv_reg_inc_beta(float(u[i, 0]), float(p[j]), q)
        assert np.array_equal(y[[0, -1]], [[0.0] * 3, [1.0] * 3])


def mp_beta_cdf(y, a, b):
    """I_y(a, b) at 50 digits, from the tail below the mean or its complement."""
    with mpmath.workdps(50):
        y, a, b = mpmath.mpf(float(y)), mpmath.mpf(float(a)), mpmath.mpf(float(b))
        if y > a / (a + b):
            return 1 - mpmath.betainc(b, a, 0, 1 - y, regularized=True)
        return mpmath.betainc(a, b, 0, y, regularized=True)


def mp_cdf_survival_hazard(x, theta):
    """bfw cdf I_G(p, q), survival I_{S_G}(q, p) and hazard at 50 digits,
    the tail at the smaller of G and S_G from the incomplete beta and the
    other its complement (mpmath's betainc at an argument within ~1e-40 of
    1 is 1e-13 off).  A complement near 1 keeps only 50 digits of 1, so a
    -ln S near 0 is -log1p(-cdf), not -ln of the survival here."""
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        x = mpmath.mpf(float(x))
        w = a * x - b / x
        ew = mpmath.exp(w)
        g, s_g = -mpmath.expm1(-ew), mpmath.exp(-ew)
        log_pdf = (-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / x**2) + w - q * ew
                   + (p - 1) * mpmath.log(g))
        if g <= s_g:
            cdf = mpmath.betainc(p, q, 0, g, regularized=True)
            sf = 1 - cdf
        else:
            sf = mpmath.betainc(q, p, 0, s_g, regularized=True)
            cdf = 1 - sf
        return cdf, sf, mpmath.exp(log_pdf) / sf


def tail_grid(theta, points=1100):
    """A log-spaced x grid from where the cdf is ~1e-300 to where the
    survival is, each end held where G or S_G stays a normal double."""
    alpha, beta, p, q = theta
    ln_b = scipy_special.betaln(p, q)
    # cdf ~ G^p / (p B) and survival ~ S_G^q / (q B) in the tails
    ln_g = max((math.log(1e-300) + math.log(p) + ln_b) / p, math.log(1e-300))
    ln_s = max((math.log(1e-300) + math.log(q) + ln_b) / q, math.log(1e-300))
    lo = _x_at_exponent(np.array(ln_g), FWParams(alpha, beta))
    hi = _x_at_exponent(np.array(math.log(-ln_s)), FWParams(alpha, beta))
    return np.geomspace(float(lo), float(hi), points)


def betainc_paths(params):
    """(bfw function, the same through scipy's betainc) for the cdf, the
    survival and the hazard."""
    p, q, base = params.p, params.q, params.base
    survival = lambda x: scipy_special.betainc(q, p, fw_sf(x, base))  # noqa: E731
    return ((bfw_cdf, lambda x: scipy_special.betainc(p, q, fw_cdf(x, base))),
            (bfw_survival, survival),
            (bfw_hazard, lambda x: bfw_pdf(x, params) / survival(x)))


def worst_rel(values, refs):
    return max(float(abs(mpmath.mpf(float(v)) / r - 1)) for v, r in zip(values, refs) if r != 0)


class TestBetaCdfKernel:
    """special._beta_cdf, the large-batch path of bfw_cdf, bfw_survival and
    bfw_hazard (through the survival) and the cdf of the quantile's Halley step."""

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_bfw_functions_against_mpmath(self, shapes):
        # the kernel's worst error over the tails stays within twice that of
        # scipy's betainc on the same grid; both carry the rounding of G,
        # about p |w| eps / 2 in the left tail.  Compared where the
        # reference is above 1e-290 (below it the betainc path loses
        # digits), and the survival and hazard where the
        # survival is at most 1/2 (left of the median S_G = 1 - G rounds
        # away G's digits)
        theta = (PUBLISHED[0], PUBLISHED[1], *shapes)
        params = BFWParams(*theta)
        x = tail_grid(theta)
        assert x.size >= _LARGE_FROM
        check = np.arange(0, x.size, 10)
        refs = [mp_cdf_survival_hazard(xi, theta) for xi in x[check]]
        for col, (fn, ref_path) in enumerate(betainc_paths(params)):
            keep = [r[col] >= 1e-290 and (col == 0 or r[1] <= 0.5) for r in refs]
            large = np.asarray(fn(x, params))[check][keep]
            ref = [r[col] for r, k in zip(refs, keep) if k]
            assert len(ref) >= 10
            assert worst_rel(large, ref) <= 2.0 * max(worst_rel(ref_path(x[check][keep]), ref), 4 * EPS)

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_small_batches_against_mpmath(self, shapes):
        # the numpy fraction below the size constant: on the tail grid plus
        # 99 central points, its worst error in each tail is within twice
        # betainc's, kept where the reference is a normal double (no bar
        # at 1e-290 is needed: it does not lose digits near underflow)
        theta = (PUBLISHED[0], PUBLISHED[1], *shapes)
        params = BFWParams(*theta)
        grid = tail_grid(theta)
        central = bfw_quantile(np.linspace(0.01, 0.99, 99), params)
        x = np.concatenate([grid[::10], central])
        refs = [mp_cdf_survival_hazard(xi, theta) for xi in x]
        for col, (fn, ref_path) in enumerate(betainc_paths(params)):
            for tail in (False, True):  # the left tail where the cdf is below 1/2
                keep = [r[col] >= TINY and (r[0] < 0.5) != tail and (col == 0 or r[1] <= 0.5)
                        for r in refs]
                if not any(keep):
                    continue
                small = np.asarray(fn(x[keep], params))
                assert small.size < _LARGE_FROM
                ref = [r[col] for r, k in zip(refs, keep) if k]
                assert worst_rel(small, ref) <= 2.0 * max(worst_rel(ref_path(x[keep]), ref), 4 * EPS)

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (0.052, 0.024, 0.3, 0.7),
                                       (1.0, 0.1, 300.0, 5.0)])
    def test_small_batches_are_independent_of_the_batch(self, theta):
        params = BFWParams(*theta)
        x = bfw_sample(_LARGE_FROM - 1, params, seed=4)
        order = np.random.default_rng(6).permutation(x.size)
        for fn in (bfw_cdf, bfw_survival, bfw_hazard):
            out = fn(x, params)
            assert np.array_equal(fn(x[order], params), out[order])
            assert np.array_equal(fn(x[:100], params), out[:100])
            assert [fn(float(xi), params) for xi in x[:50]] == out[:50].tolist()

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_error_within_the_node_factor_rounding(self, shapes):
        # relative error <= (|phi| + 64) eps, phi the exponent of the node
        # factor f(y_k) z_k, taken at y (a node is within 2^-5 of it)
        a, b = shapes
        ln_b = scipy_special.betaln(a, b)
        y = np.concatenate([np.geomspace(1e-300, 0.5, 200), 1.0 - np.geomspace(2e-16, 0.5, 200),
                            np.linspace(0.01, 0.99, 99)])
        out = _beta_cdf(*beta_side(y), a, b)
        for yi, vi in zip(y, out):
            ref = mp_beta_cdf(yi, a, b)
            if ref < 1e-280:
                continue  # test_both_paths_against_mpmath goes down to underflow
            phi = ((a - 1) * math.log(yi) + (b - 1) * math.log1p(-yi)
                   + math.log(min(yi, 1.0 - yi)) - ln_b)
            assert abs(mpmath.mpf(float(vi)) / ref - 1) <= (abs(phi) + 64) * EPS

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (1.0, 0.1, 300.0, 5.0),
                                       (0.052, 0.024, 0.05, 40.0)])
    def test_independent_of_the_batch(self, theta):
        params = BFWParams(*theta)
        x = bfw_sample(50_000, params, seed=3)
        rng = np.random.default_rng(5)
        tails = tail_grid(theta, 500)
        other = np.concatenate([tails, rng.uniform(tails[0], tails[-1], 3000)])
        superset = np.concatenate([other, x[::7]])
        order = rng.permutation(superset.size)
        for fn in (bfw_cdf, bfw_survival, bfw_hazard):
            out = fn(x, params)
            assert np.array_equal(fn(x[::-1], params), out[::-1])
            mixed = np.empty(superset.size)
            mixed[order] = fn(superset[order], params)
            assert np.array_equal(mixed[other.size:], out[::7])

    @pytest.mark.parametrize("shapes", [
        (35.077, 20.328), (20.328, 35.077), (2.0, 2.0), (0.3, 0.7), (300.0, 5.0), (0.05, 40.0),
        (40.0, 0.05), (2.0, 1e-8), (5.0, 0.01), (0.5, 0.05), (1e4, 2.0), (3000.0, 0.5)])
    def test_both_paths_against_mpmath(self, shapes):
        # the series and the fraction on one y grid, wherever the reference is a
        # normal double: each node's I and density factor are the fraction's, so
        # the series keeps the fraction's error to a few eps (with betainc's
        # nodes and a node factor exp(phi) it was 488 eps at (2, 2), 349 at
        # (3000, 0.5) and 3.8e6 at (300, 5) near underflow)
        a, b = shapes
        y = np.concatenate([np.geomspace(1e-300, 0.5, 200), 1.0 - np.geomspace(2e-16, 0.5, 200),
                            np.linspace(0.01, 0.99, 99)])
        refs = [mp_beta_cdf(yi, a, b) for yi in y]
        keep = [ref >= TINY for ref in refs]
        refs = [ref for ref, k in zip(refs, keep) if k]
        assert worst_rel(_beta_cdf(*beta_side(y), a, b)[keep], refs) <= 8 * EPS
        assert worst_rel(special.reg_inc_beta(y, a, b)[keep], refs) <= 8 * EPS

    def test_large_batch_near_underflow(self):
        # at (300, 5) betainc, which gave the nodes' I, was up to 3.4e8 eps off
        # for I from 1e-295 down to 1e-307; a 1024-point batch now keeps 4 eps
        a, b = 300.0, 5.0
        ln_norm = math.log(a) + special.log_beta(a, b)
        # I ~ y^a (1 - y)^b / (a B): y from the leading term at each end
        ends = [math.exp((math.log(t) + ln_norm - b * math.log1p(-0.1)) / a) for t in (1e-307, 1e-295)]
        y = np.geomspace(*ends, _LARGE_FROM)
        refs = [mp_beta_cdf(yi, a, b) for yi in y[::8]]
        assert refs[0] < 1e-306 and refs[-1] > 1e-296
        assert worst_rel(special._beta_tails(*beta_side(y), a, b, sf=False)[0][::8], refs) <= 4 * EPS

    def test_published_point_near_underflow_at_both_batch_sizes(self):
        # 17 points of a 4,000-point grid lie in x in [1.084e-3, 1.129e-3],
        # where I_G is subnormal: all were 0 in one call (betainc underflowed
        # at the nodes) and nonzero in 500-point calls.  Both sizes now agree
        # with the 50-digit I at the argument read, the rounded G or, where
        # it is smaller, S_G: within 4 eps where it is a normal double, and to
        # the last subnormal unit below
        params = BFWParams(*PUBLISHED)
        p, q = params.p, params.q
        x = np.geomspace(1e-3, 10.0, 4000)
        band = (x >= 1.084e-3) & (x <= 1.129e-3)
        large = bfw_cdf(x, params)
        small = np.concatenate([bfw_cdf(chunk, params) for chunk in np.split(x, 8)])
        assert band.sum() >= 15
        assert np.all(large[band] > 0.0) and np.all(small[band] > 0.0)
        g, s_g = fw_cdf(x, params.base), fw_sf(x, params.base)
        check = np.flatnonzero(band | (np.arange(x.size) % 40 == 0))
        for i in check:
            ref = mp_beta_cdf(g[i], p, q) if g[i] <= s_g[i] else 1 - mp_beta_cdf(s_g[i], q, p)
            for value in (large[i], small[i]):
                if ref < TINY:
                    assert abs(mpmath.mpf(float(value)) - ref) <= 5e-324
                else:
                    assert abs(mpmath.mpf(float(value)) / ref - 1) <= 4 * EPS

    def test_concentrated_shapes_are_betaincs(self):
        # at (1e6, 1e6) nearly every point would need its own node; above
        # y = 1/2 scipy reads the exact 1 - y (betainc(a, b, y) was up to
        # 207 eps off there, betaincc(b, a, 1 - y) 0.28)
        a = b = 1e6
        assert _cdf_plan(a, b) is None
        y = 0.5 + np.linspace(-5e-3, 5e-3, 2000)
        scipy_cdf = np.where(y > 0.5, scipy_special.betaincc(b, a, 1.0 - y), scipy_special.betainc(a, b, y))
        assert np.array_equal(_beta_cdf(*beta_side(y), a, b), scipy_cdf)

    @pytest.mark.parametrize("shapes", [(2.0, 2.0), (35.077, 20.328), (0.3, 0.7)])
    def test_nodes_near_underflow_are_fractions(self, shapes):
        # a node that is subnormal, or whose I is below the floor, hands its
        # elements to the continued fraction, as do the ends 0 and 1
        a, b = shapes
        y = np.concatenate([[0.0, 1.0, 5e-324, 1e-310], np.geomspace(1e-300, 1e-100, 300)])
        cdf = special._fraction_tails(*beta_side(y), a, b, sf=False)[0]
        out = _beta_cdf(*beta_side(y), a, b)
        theirs = (y < TINY) | (cdf < TINY)
        theirs[1] = True
        assert np.array_equal(out[theirs], cdf[theirs])
        assert out[0] == 0.0 and out[1] == 1.0

    def test_series_bound_hands_nodes_to_the_fraction(self, monkeypatch):
        # with no room for the cut-off series every node fails its bound
        a, b = PUBLISHED[2:]
        y = np.linspace(0.01, 0.99, 2000)
        monkeypatch.setattr(special, "_SERIES_TOL", 0.0)
        assert np.array_equal(_beta_cdf(*beta_side(y), a, b), special._fraction_tails(*beta_side(y), a, b, sf=False)[0])


class TestOnePass:
    """Below the size constant the cdf, the survival and the log tails of
    the order statistics and the cumulative hazard are the two tails of one
    continued-fraction pass at (p, q)."""

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (0.052, 0.024, 0.3, 0.7),
                                       (1.0, 0.1, 300.0, 5.0), (0.5, 0.5, 0.05, 40.0),
                                       (1.0, 1.0, 163.57, 0.241)])
    def test_log_tails_are_the_logs_of_cdf_and_survival(self, theta):
        # each log tail is the log of the function's value, bit for bit,
        # where that tail is at most 1/2
        params = BFWParams(*theta)
        x = np.concatenate([tail_grid(theta, 400), bfw_quantile(np.linspace(0.01, 0.99, 99), params)])
        assert x.size < _LARGE_FROM
        cdf, sf = bfw_cdf(x, params), bfw_survival(x, params)
        log_cdf, log_sf = core._log_tails(x, params)
        for log_tail, tail in ((log_cdf, cdf), (log_sf, sf)):
            near = tail <= 0.5
            assert 0 < near.sum() < x.size
            assert np.array_equal(log_tail[near], np.log(tail[near]))


def mp_small_side_tails(x, theta):
    """bfw cdf, survival and density at 50 digits, from the incomplete beta
    at the smaller of G and S_G, the other tail its complement: mpmath's
    I_{S_G}(40, 0.05) at S_G = 1 - 3e-42 is 1e-13 off."""
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        x = mpmath.mpf(float(x))
        w = a * x - b / x
        ew = mpmath.exp(w)
        g, s_g = -mpmath.expm1(-ew), mpmath.exp(-ew)
        pdf = mpmath.exp(-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / x**2) + w - q * ew
                         + (p - 1) * mpmath.log(g))
        if g <= s_g:
            cdf = mpmath.betainc(p, q, 0, g, regularized=True)
            return cdf, 1 - cdf, pdf
        sf = mpmath.betainc(q, p, 0, s_g, regularized=True)
        return 1 - sf, sf, pdf


class TestSmallShapeTails:
    """Both tails read the smaller of G and S_G.  Where a shape is small,
    much of the Beta mass lies where G or S_G is within an ulp of 1, and the
    tail read from that rounded argument was off at O(1).  Each point is
    checked at both batch sizes against 50-digit mpmath at the exact x, to
    8 eps or the tail's condition number |x f / tail| times eps."""

    @staticmethod
    def check(fn, col, x, theta, expected):
        params = BFWParams(*theta)
        refs = [mp_small_side_tails(xi, theta) for xi in x]
        assert [float(ref[col]) for ref in refs] == pytest.approx(expected, rel=1e-6)
        for batch in (x, np.resize(x, _LARGE_FROM)):
            out = np.asarray(fn(batch, params))[:x.size]
            for xi, value, ref in zip(x, out, refs):
                tail = ref[col]
                cond = float(xi * ref[2] / tail)
                assert abs(float(mpmath.mpf(float(value)) / tail - 1)) <= max(8.0, cond) * EPS

    def test_cdf_where_g_rounds_near_one(self):
        # q = 0.05: bfw_cdf read G = 1 - 1.2e-16 and 1 - 5.3e-23 (1.0) and
        # returned 0.832714 and 1.0
        self.check(bfw_cdf, 0, np.array([7.34, 8.0]), (0.5, 0.5, 2.0, 0.05), [0.832130, 0.919195])

    def test_survival_where_s_g_rounds_near_one(self):
        # p = 0.05: 1.0, 1.0 and 0.4999999998814 at the 0.01, 0.1 and 0.5 quantiles
        theta = (0.5, 0.5, 0.05, 40.0)
        x = np.asarray(bfw_quantile(np.array([0.01, 0.1, 0.5]), BFWParams(*theta)))
        self.check(bfw_survival, 1, x, theta, [0.99, 0.9, 0.5])

    def test_survival_where_the_cdf_is_small(self):
        # the survival read S_G = 1 - 6.1e-20, which is 1.0, and returned 1.0
        self.check(bfw_survival, 1, np.array([5.425e-4]), (0.052, 0.024, 0.3, 0.7),
                   [0.999998521634356])

    def test_survival_at_a_tiny_first_shape(self):
        # p = 0.00205: 1.0 at the 0.9 quantile
        theta = (3.75, 0.00167, 0.00205, 6618.0)
        x = np.atleast_1d(bfw_quantile(0.9, BFWParams(*theta)))
        self.check(bfw_survival, 1, x, theta, [0.1])


class TestSample:
    def test_deterministic(self, published_params):
        a = bfw_sample(100, published_params, seed=7)
        b = bfw_sample(100, published_params, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a > 0.0)

    def test_empty(self, published_params):
        assert bfw_sample(0, published_params, seed=1).size == 0

    @pytest.mark.parametrize("n", [2.5, -1])
    def test_n_must_be_a_non_negative_integer(self, published_params, n):
        with pytest.raises(DomainError, match="n must be a non-negative integer"):
            bfw_sample(n, published_params, seed=1)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_negative_seed_is_a_domain_error(self, published_params, n, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            bfw_sample(n, published_params, seed=seed)

    @pytest.mark.parametrize("a", [2e-3, 1e-3, 1e-5, 1e-8])
    def test_tiny_shapes(self, a):
        # both gammas underflow to 0 in about a fifth of the rows at 1e-3 (in all
        # at 1e-8), where B = 0/0 raised "u must be in (0, 1)"; only those rows
        # take a second draw, and every other row is its first
        n, seed = 2000, 0
        params = BFWParams(0.5, 0.5, a, a)
        x = bfw_sample(n, params, seed=seed)
        assert not np.isnan(x).any() and np.all(x > 0.0)
        rng = np.random.default_rng(seed)
        g1, g2 = rng.gamma(a, size=n), rng.gamma(a, size=n)
        first = g1 + g2 > 0.0
        assert not first.all()
        b = np.clip(g1[first] / (g1 + g2)[first], 5e-324, 1.0 - 2.0**-53)
        assert np.array_equal(x[first], fw_quantile(b, params.base))
        # Beta(a, a) puts half its mass at each end as a -> 0
        below = np.sum(x < bfw_quantile(0.5, params))
        assert abs(below - n / 2) < 5 * math.sqrt(n / 4)

    def test_ks_against_model(self, published_params):
        n = 50_000
        draws = bfw_sample(n, published_params, seed=20240811)
        data = Dataset(times=draws, label="synthetic")
        stat = ks_statistic(data, lambda x: bfw_cdf(x, published_params))
        assert stat < 1.63 / math.sqrt(n)

    def test_mean_against_quadrature(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        n = 100_000
        draws = bfw_sample(n, params, seed=99)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert draws.mean() == pytest.approx(raw_moment_quadrature(1, params), abs=3.0 * se)


# x from the smallest double to 1.79e308 (index 20000), with a dense band
# from 1e307 up, where alpha x overflows for alpha > 1
NAN_SWEEP = np.concatenate([np.geomspace(5e-324, 1.79e308, 20001),
                            np.geomspace(1e307, 1.79e308, 3701)])


class TestNoNaN:
    @pytest.mark.parametrize("theta", [
        PUBLISHED, (0.0207, 2.5875, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0), (0.052, 0.024, 0.3, 0.7),
        (2.0, 3.0, 0.5, 1e-3), (1e-3, 4.0, 3.0, 1.0), (2.0, 3.0, 2.0, 2.0),
        (1e-200, 1.0, 2.0, 0.5)])
    def test_density_and_mode_functions_take_their_limits(self, theta):
        # w is -inf where beta/x overflows and +inf where alpha x does; the
        # mode equation's -2 beta/x^3 term overflowed from x ~ max/(2 beta) up,
        # and at alpha = 1e-200 its factor alpha^2 underflows where e^w overflows
        params = BFWParams(*theta)
        functions = {
            "fw_log_pdf": (lambda x: fw_log_pdf(x, params.base), -math.inf),
            "fw_pdf": (lambda x: fw_pdf(x, params.base), 0.0),
            "bfw_log_pdf": (lambda x: bfw_log_pdf(x, params), -math.inf),
            "bfw_pdf": (lambda x: bfw_pdf(x, params), 0.0),
            "mode_equation": (lambda x: mode_equation(x, params), -math.inf),
            "order_stat_pdf": (lambda x: order_stat_pdf(x, OrderIndex(3, 10), params), 0.0),
        }
        with np.errstate(over="ignore"):
            over = params.alpha * NAN_SWEEP == math.inf
        for name, (fn, limit) in functions.items():
            values = fn(NAN_SWEEP)
            assert not np.isnan(values).any(), name
            assert np.all(values[over] == limit), name
            # a scalar at either end gives the batch's value
            assert [fn(5e-324), fn(1.79e308)] == [values[0], values[20000]], name
        with np.errstate(over="ignore"):
            ew_over = np.exp(params.alpha * NAN_SWEEP - params.beta / NAN_SWEEP) == math.inf
        assert ew_over.any()
        assert np.all(mode_equation(NAN_SWEEP[ew_over], params) == -math.inf)


    @pytest.mark.parametrize("theta", [
        PUBLISHED, (0.0207, 2.5875, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0), (0.052, 0.024, 0.3, 0.7),
        (2.0, 3.0, 0.5, 1e-3), (1e-3, 4.0, 3.0, 1.0), (1e-200, 1.0, 2.0, 0.5),
        (0.5, 0.5, 1e-8, 1e-8), (0.5, 0.5, 300.0, 5.0)])
    def test_small_batch_tails_take_their_limits(self, theta):
        # the numpy fraction below the size constant, over the sweep in chunks
        params = BFWParams(*theta)
        for chunk in np.array_split(NAN_SWEEP, 25):
            assert chunk.size < _LARGE_FROM
            for fn in (bfw_cdf, bfw_survival):
                values = fn(chunk, params)
                assert np.all((values >= 0.0) & (values <= 1.0)), fn.__name__


class TestMode:
    def test_stationarity_by_finite_difference(self, published_params):
        x_star = bfw_mode(published_params)
        h = 1e-5 * x_star
        fd = (bfw_pdf(x_star + h, published_params) - bfw_pdf(x_star - h, published_params)) / (2 * h)
        scale = bfw_pdf(x_star, published_params) / x_star
        assert abs(fd) / scale < 1e-6

    def test_equation_residual_and_local_max(self, published_params):
        x_star = bfw_mode(published_params)
        assert abs(mode_equation(x_star, published_params)) <= 1e-10
        delta = 1e-4 * x_star
        peak = bfw_pdf(x_star, published_params)
        assert peak >= bfw_pdf(x_star - delta, published_params)
        assert peak >= bfw_pdf(x_star + delta, published_params)

    def test_matches_golden_section_for_unit_shapes(self):
        params = BFWParams(0.5, 0.5, 1.0, 1.0)
        res = minimize_scalar(
            lambda x: -fw_pdf(x, FWParams(0.5, 0.5)),
            bracket=(0.05, 0.5, 5.0),
            method="golden",
            options=dict(xtol=1e-12),
        )
        # golden section locates a flat maximum only to about sqrt(eps)
        assert bfw_mode(params) == pytest.approx(res.x, rel=1e-6)

    def test_single_sign_change_at_paper_estimates(self, published_params):
        xs = np.geomspace(1e-6, 1e4, 400)
        signs = np.sign(mode_equation(xs, published_params))
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1

    def test_mode_census_against_mpmath(self):
        # the benchmark's 64 moments sets and both pinned points: at most 20
        # modes beyond 1 ulp of the 60-digit root, the worst 2.80 ulp (set36);
        # the sum form -2 beta/x^3 + amp^2 bracket gave 31 and 3.08 (set17)
        sets = moment_panel() + [BFWParams(*PUBLISHED), BFWParams(0.5, 0.5, 2.0, 2.0)]
        errors = []
        for params in sets:
            mode = bfw_mode(params)
            with mpmath.workdps(60):
                equation = mp_mode_equation((params.alpha, params.beta, params.p, params.q))
                root = mpmath.findroot(equation, mpmath.mpf(mode))
                errors.append(float(abs(mode - root)) / math.ulp(mode))
        assert sum(error > 1.0 for error in errors) <= 20
        assert max(errors) <= 2.80

    @pytest.mark.parametrize("theta, bound", [
        (PUBLISHED, 115.1), ((0.5, 0.5, 2.0, 2.0), 122.5), ((0.052, 0.024, 0.3, 0.7), 38.8),
        ((2.0, 3.0, 2.0, 2.0), 223.4)])
    def test_equation_against_mpmath(self, theta, bound):
        # worst relative error in eps, bounded by what the sum form gave (the
        # grouped form gives 80.5, 122.4, 36.7 and 223.4); where the 50-digit
        # value is beyond the doubles, the equation is its limit -inf
        params = BFWParams(*theta)
        xs = np.geomspace(1e-3, 1e3, 400) * math.sqrt(params.beta / params.alpha)
        worst = 0.0
        with mpmath.workdps(50):
            equation = mp_mode_equation(theta)
            for x, got in zip(xs.tolist(), mode_equation(xs, params).tolist()):
                expected = equation(mpmath.mpf(x))
                if math.isinf(float(expected)):
                    assert got == float(expected)
                else:
                    worst = max(worst, float(abs(got - expected) / abs(expected)) / EPS)
        assert worst <= bound

    def test_no_interior_mode_error(self):
        # with sqrt(alpha beta) = 1e-8 the density peaks where q e^w ~ 1, at
        # w ~ -18, that is x ~ 5e-10 sqrt(beta/alpha): below the scan grid
        params = BFWParams(1e-8, 1e-8, 1.0, 1e8)
        with pytest.raises(NoInteriorModeError, match=r"on \[1e-05, 100000\]"):
            bfw_mode(params)

    @pytest.mark.parametrize("c", [1e-3, 1e3, 3.6e6])
    def test_mode_follows_the_time_unit(self, c):
        # c X is BFW(alpha/c, beta c, p, q); 3.6e6 turns thousands of hours into seconds
        base = bfw_mode(BFWParams(*PUBLISHED))
        scaled = bfw_mode(BFWParams(PUBLISHED[0] / c, PUBLISHED[1] * c, *PUBLISHED[2:])) / c
        assert abs(scaled - base) <= 2 * math.ulp(base)

    def test_scan_grid_has_no_nan_past_the_overflow_of_e_w(self, published_params):
        # the published grid ends at w ~ 3,500, where e^w is inf and the
        # equation its limit -inf
        from bfw.core import _MODE_GRID

        xs = _MODE_GRID * math.sqrt(published_params.beta / published_params.alpha)
        values = mode_equation(xs, published_params)
        assert not np.any(np.isnan(values))
        assert values[-1] == -math.inf

    def test_scan_grid_is_read_only(self):
        from bfw.core import _MODE_GRID

        with pytest.raises(ValueError):
            _MODE_GRID[0] = 1.0


# Values recorded as hex before ln B(p, q) was cached on the parameters; that
# may not move them by a bit.  The hazards were re-recorded when the survival
# became I_{S_G}(q, p): each new value is at least as close to 50-digit mpmath
# as the old pdf/(1 - cdf) (at x = 12 on the published point 1.5e-14 against
# 4.6e-13, at x = 4 on the second 5.8e-16 against 1.3e-12).  At the published
# point every log density, density and hazard was re-recorded when ln B
# became TOMS 708's (scipy's betaln(35.077, 20.328) is 1.7 units of
# eps |ln B| off, TOMS 708's 0.9) and the survival of small batches the
# numpy fraction: the log densities and densities moved closer to 60-digit
# values (pdf 1.3e-14 -> 8.4e-15 at x = 0.5), and so did each survival (at
# x = 2 3.1e-15 -> 1.2e-15); the hazard at x = 2 reads 9.85e-15 against
# 9.41e-15, where the old survival's error had offset part of the
# density's.  At (0.5, 0.5, 2, 2) ln B is the same, and the hazards moved
# with the survival: 1.2e-16 -> 1.6e-16 at x = 0.7 (its survival 1.7e-16 ->
# 5.1e-17), 3.2e-17 -> 1.9e-16 at x = 1.5 (its survival 3.6e-17 -> 1.5e-16,
# where betainc takes the closed form of integer shapes) and
# 5.8e-16 -> 3.3e-16 at x = 4.  The mode at
# (0.5, 0.5, 2, 2) moved up one ulp when bfw_mode began to return the end of
# its last bracket nearer the root, not the midpoint: from 1.29 to 0.29 ulp
# below the 60-digit root (test_mode_against_mpmath).  The published
# hazard at x = 0.5 moved up one ulp when the survival of small batches
# became the upper tail of the one continued-fraction pass at (p, q): the
# survival's error against 50-digit mpmath went 2.0e-16 -> 4.0e-16 and the
# hazard's 8.12e-15 -> 7.93e-15.
PIN_POINTS = {PUBLISHED: [0.5, 2.0, 6.0, 12.0], (0.5, 0.5, 2.0, 2.0): [0.1, 0.7, 1.5, 4.0]}
PINNED = {
    (PUBLISHED, "bfw_log_pdf"): ["-0x1.1e015765c34d0p+0", "-0x1.1049a3f1b08b0p+1",
                                 "-0x1.cffa69a0a5af0p+1", "-0x1.2596658b2c912p+3"],
    (PUBLISHED, "bfw_pdf"): ["0x1.4f0b6edce05d6p-2", "0x1.e8196accdcac7p-4",
                             "0x1.b4b179eb50eafp-6", "0x1.b2b02e403ebc2p-14"],
    (PUBLISHED, "bfw_hazard"): ["0x1.28775956dd803p-1", "0x1.859322d2198a1p-2",
                                "0x1.697baf040d084p-1", "0x1.69384cde3a7a5p+0"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_log_pdf"): ["-0x1.0d0de765724a0p+2", "-0x1.e054daad52c1cp-3",
                                            "-0x1.66023bd13fe1ap+0", "-0x1.4048b3f7bcc69p+3"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_pdf"): ["0x1.e96d2832e59f4p-7", "0x1.94f5b4cde318cp-1",
                                        "0x1.f9cd95f991c45p-3", "0x1.797a2c6407831p-15"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_hazard"): ["0x1.e97fcc5b9bf84p-7", "0x1.95e669220478cp+0",
                                           "0x1.006f01f467fc5p+1", "0x1.bb32a635dba8dp+2"],
}
PINNED_MODES = {PUBLISHED: "0x1.854923c1285ddp-4", (0.5, 0.5, 2.0, 2.0): "0x1.8d5e960cd3e86p-2"}
KERNELS = {"bfw_log_pdf": bfw_log_pdf, "bfw_pdf": bfw_pdf, "bfw_hazard": bfw_hazard}


class TestBitPins:
    @pytest.mark.parametrize("theta, name", sorted(PINNED, key=str))
    def test_kernels(self, theta, name):
        params, xs = BFWParams(*theta), PIN_POINTS[theta]
        expected = [float.fromhex(h) for h in PINNED[theta, name]]
        assert np.asarray(KERNELS[name](np.array(xs), params)).tolist() == expected
        assert KERNELS[name](xs[1], params) == expected[1]

    @pytest.mark.parametrize("theta", sorted(PINNED_MODES))
    def test_mode(self, theta):
        assert bfw_mode(BFWParams(*theta)) == float.fromhex(PINNED_MODES[theta])

    @pytest.mark.parametrize("theta", sorted(PINNED_MODES))
    def test_mode_against_mpmath(self, theta):
        # the 60-digit root of the mode equation; at the published point
        # 0.09504045454607231475...
        with mpmath.workdps(60):
            a, b, p, q = (mpmath.mpf(v) for v in theta)

            def equation(x):
                ew = mpmath.exp(a * x - b / x)
                return -2 * b / x**3 + (a + b / x**2) ** 2 * (
                    1 - q * ew + (p - 1) * ew / mpmath.expm1(ew))

            pin = float.fromhex(PINNED_MODES[theta])
            root = mpmath.findroot(equation, mpmath.mpf(pin))
            assert abs(pin - root) <= math.ulp(pin)

    def test_cached_normalizer_is_exact(self):
        # TOMS 708's betaln is 1.04 ulp from the 60-digit ln B here, scipy's
        # betaln(35.077, 20.328) 1.96 ulp
        params = BFWParams(*PUBLISHED)
        with mpmath.workdps(60):
            exact = mpmath.log(mpmath.beta(mpmath.mpf(PUBLISHED[2]), mpmath.mpf(PUBLISHED[3])))
        assert abs(params.log_beta - exact) <= 1.1 * math.ulp(params.log_beta)
        assert params.log_beta is params.log_beta
