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
    raw_moment_quadrature,
)
from bfw._stable import log_amplitude, tiny_x
from bfw import special
from bfw.flexible_weibull import _x_at_exponent
from bfw.special import _LARGE_FROM, _beta_cdf, _beta_quantile, _cdf_plan
from bfw.inference import Dataset

PUBLISHED = (0.052, 0.024, 35.077, 20.328)


def naive_pdf(x, params):
    # plain-arithmetic density, usable away from the extreme tails
    a, b, p, q = params.alpha, params.beta, params.p, params.q
    w = a * x - b / x
    const = gamma_fn(p + q) / (gamma_fn(p) * gamma_fn(q))
    return const * (a + b / x**2) * math.exp(w) * math.exp(-q * math.exp(w)) * (
        1.0 - math.exp(-math.exp(w))
    ) ** (p - 1.0)


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
        # sum may round each by a few eps, and scipy's betaln, which takes a
        # gammaln difference at some shapes, is ~3e-13 relative off at
        # (0.1, 300) and (1e3, 0.5): allow 1e-12 of |ln B(p, q)| for it
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
        tol = 8.0 * np.finfo(float).eps * scale + 1e-12 * abs(float(terms[0]))
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


def beta_quantile_reference(t, a, b):
    """z with I_z(a, b) = t by Newton steps in ln z at 50 digits."""
    with mpmath.workdps(50):
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
            if abs(step) < mpmath.mpf(10) ** -45:
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
            v, upper = _beta_quantile(batch, p, q, scipy_special.betaln(p, q))
            v, upper = v[: u.size], upper[: u.size]
            # z of the reflected problem; a reflected element solved for y
            # directly has y < 1/2, so 1 - y loses nothing
            z = np.where(reflected & ~upper, 1.0 - v, v)
            assert worst(z) <= bound
            # below the normal range z is within one subnormal step of the
            # reference (betaincinv returned the smallest normal double there)
            assert all(abs(zi - float(ri)) <= 5e-324
                       for zi, ri, ok in zip(z, ref, normal) if not ok)
        # the public inverse stays scipy's betaincinv
        lower = ~reflected
        direct = np.asarray(inv_reg_inc_beta(u[lower], p, q))
        assert np.array_equal(direct, own[lower])

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
        v, upper = _beta_quantile(BULK_U, params.p, params.q, params.log_beta)
        v_rev, upper_rev = _beta_quantile(BULK_U[::-1], params.p, params.q, params.log_beta)
        assert np.array_equal(v_rev, v[::-1]) and np.array_equal(upper_rev, upper[::-1])

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0), (1.0, 0.1, 300.0, 5.0),
                                       (1.0, 0.1, 1.0, 1.0), (1.0, 0.1, 1.5, 3.0)])
    def test_subnormal_u_on_the_bracketed_path(self, theta):
        # a subnormal u is solved by the series root on both paths, where
        # betaincinv was NaN or off (5.4% at the published shapes at 1e-310)
        params = BFWParams(*theta)
        tiny = np.geomspace(5e-324, 2e-308, 64)
        grid = BULK_U[:: BULK_U.size // _LARGE_FROM]
        v, upper = _beta_quantile(np.append(tiny, grid), params.p, params.q, params.log_beta)
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


def mp_beta_cdf(y, a, b):
    """I_y(a, b) at 50 digits, from the tail below the mean or its complement."""
    with mpmath.workdps(50):
        y, a, b = mpmath.mpf(float(y)), mpmath.mpf(float(a)), mpmath.mpf(float(b))
        if y > a / (a + b):
            return 1 - mpmath.betainc(b, a, 0, 1 - y, regularized=True)
        return mpmath.betainc(a, b, 0, y, regularized=True)


def mp_cdf_survival_hazard(x, theta):
    """bfw cdf, survival and hazard at 50 digits."""
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        x = mpmath.mpf(float(x))
        w = a * x - b / x
        ew = mpmath.exp(w)
        g, s_g = -mpmath.expm1(-ew), mpmath.exp(-ew)
        log_pdf = (-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / x**2) + w - q * ew
                   + (p - 1) * mpmath.log(g))
        if g > p / (p + q):
            sf = mpmath.betainc(q, p, 0, s_g, regularized=True)
            cdf = 1 - sf
        else:
            cdf = mpmath.betainc(p, q, 0, g, regularized=True)
            sf = 1 - cdf
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


def worst_rel(values, refs):
    return max(float(abs(mpmath.mpf(float(v)) / r - 1)) for v, r in zip(values, refs) if r != 0)


class TestBetaCdfKernel:
    """special._beta_cdf, the large-batch path of bfw_cdf, bfw_survival and
    bfw_hazard (through the survival) and the cdf of the quantile's Halley step."""

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_bfw_functions_against_mpmath(self, shapes):
        # the kernel's worst error over the tails stays within twice that of
        # the betainc path (chunks below the size constant) on the same grid;
        # both carry the rounding of G, about p |w| eps / 2 in the left tail.
        # Compared where the reference is above 1e-290 (below it betainc
        # loses digits and takes the elements on both paths), and the
        # survival and hazard where the survival is at most 1/2 (left of
        # the median S_G = 1 - G rounds away G's digits)
        theta = (PUBLISHED[0], PUBLISHED[1], *shapes)
        params = BFWParams(*theta)
        x = tail_grid(theta)
        assert x.size >= _LARGE_FROM
        check = np.arange(0, x.size, 10)
        refs = [mp_cdf_survival_hazard(xi, theta) for xi in x[check]]
        for col, fn in enumerate((bfw_cdf, bfw_survival, bfw_hazard)):
            keep = [r[col] >= 1e-290 and (col == 0 or r[1] <= 0.5) for r in refs]
            large = np.asarray(fn(x, params))[check][keep]
            small = np.concatenate([fn(chunk, params) for chunk in np.array_split(x, 2)])
            small = small[check][keep]
            ref = [r[col] for r, k in zip(refs, keep) if k]
            assert len(ref) >= 10
            assert worst_rel(large, ref) <= 2.0 * max(worst_rel(small, ref), 4 * EPS)

    @pytest.mark.parametrize("shapes", QUANTILE_SHAPES)
    def test_error_within_the_node_factor_rounding(self, shapes):
        # relative error <= (|phi| + 64) eps, phi the exponent of the node
        # factor f(y_k) z_k, taken at y (a node is within 2^-5 of it)
        a, b = shapes
        ln_b = scipy_special.betaln(a, b)
        y = np.concatenate([np.geomspace(1e-300, 0.5, 200), 1.0 - np.geomspace(2e-16, 0.5, 200),
                            np.linspace(0.01, 0.99, 99)])
        out = _beta_cdf(y, a, b, ln_b)
        for yi, vi in zip(y, out):
            ref = mp_beta_cdf(yi, a, b)
            if ref < 1e-280:
                continue  # betainc's own digits thin out near underflow
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

    @pytest.mark.parametrize("theta", [PUBLISHED, (0.5, 0.5, 2.0, 2.0)])
    def test_betainc_below_the_size_constant(self, theta):
        params = BFWParams(*theta)
        x = bfw_sample(_LARGE_FROM - 1, params, seed=4)
        g, s_g = fw_cdf(x, params.base), fw_sf(x, params.base)
        assert np.array_equal(bfw_cdf(x, params), scipy_special.betainc(params.p, params.q, g))
        assert np.array_equal(bfw_survival(x, params),
                              scipy_special.betainc(params.q, params.p, s_g))

    def test_concentrated_shapes_are_betaincs(self):
        # at (1e6, 1e6) nearly every point would need its own node
        a = b = 1e6
        assert _cdf_plan(a, b) is None
        y = 0.5 + np.linspace(-5e-3, 5e-3, 2000)
        assert np.array_equal(_beta_cdf(y, a, b, scipy_special.betaln(a, b)),
                              scipy_special.betainc(a, b, y))

    @pytest.mark.parametrize("shapes", [(2.0, 2.0), (35.077, 20.328), (0.3, 0.7)])
    def test_nodes_near_underflow_are_betaincs(self, shapes):
        # a node that is subnormal, or whose I is below the floor, hands its
        # elements to betainc, as do the ends 0 and 1
        a, b = shapes
        y = np.concatenate([[0.0, 1.0, 5e-324, 1e-310], np.geomspace(1e-300, 1e-100, 300)])
        cdf = scipy_special.betainc(a, b, y)
        out = _beta_cdf(y, a, b, scipy_special.betaln(a, b))
        theirs = (y < TINY) | (cdf < special._NODE_FLOOR)
        theirs[1] = True
        assert np.array_equal(out[theirs], cdf[theirs])
        assert out[0] == 0.0 and out[1] == 1.0

    def test_series_bound_hands_nodes_to_betainc(self, monkeypatch):
        # with no room for the cut-off series every node fails its bound
        a, b = PUBLISHED[2:]
        y = np.linspace(0.01, 0.99, 2000)
        monkeypatch.setattr(special, "_SERIES_TOL", 0.0)
        assert np.array_equal(_beta_cdf(y, a, b, scipy_special.betaln(a, b)),
                              scipy_special.betainc(a, b, y))


class TestSample:
    def test_deterministic(self, published_params):
        a = bfw_sample(100, published_params, seed=7)
        b = bfw_sample(100, published_params, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a > 0.0)

    def test_empty(self, published_params):
        assert bfw_sample(0, published_params, seed=1).size == 0

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

    def test_no_interior_mode_error(self):
        # within [1, 2] the density of this configuration has no stationary point
        params = BFWParams(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(NoInteriorModeError):
            bfw_mode(params, bracket=(5.0, 10.0), grid_points=50)


# Values recorded as hex before ln B(p, q) was cached on the parameters and
# the mode's scan grid was kept between calls; neither may move them by a bit.
# The hazards were re-recorded when the survival became I_{S_G}(q, p): each
# new value is at least as close to 50-digit mpmath as the old pdf/(1 - cdf)
# (at x = 12 on the published point 1.5e-14 against 4.6e-13, at x = 4 on the
# second 5.8e-16 against 1.3e-12).
PIN_POINTS = {PUBLISHED: [0.5, 2.0, 6.0, 12.0], (0.5, 0.5, 2.0, 2.0): [0.1, 0.7, 1.5, 4.0]}
PINNED = {
    (PUBLISHED, "bfw_log_pdf"): ["-0x1.1e015765c3470p+0", "-0x1.1049a3f1b0880p+1",
                                 "-0x1.cffa69a0a5ac0p+1", "-0x1.2596658b2c906p+3"],
    (PUBLISHED, "bfw_pdf"): ["0x1.4f0b6edce0654p-2", "0x1.e8196accdcb7ep-4",
                             "0x1.b4b179eb50f52p-6", "0x1.b2b02e403ec65p-14"],
    (PUBLISHED, "bfw_hazard"): ["0x1.28775956dd87bp-1", "0x1.859322d219925p-2",
                                "0x1.697baf040d0f1p-1", "0x1.69384cde3a82bp+0"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_log_pdf"): ["-0x1.0d0de765724a0p+2", "-0x1.e054daad52c1cp-3",
                                            "-0x1.66023bd13fe1ap+0", "-0x1.4048b3f7bcc69p+3"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_pdf"): ["0x1.e96d2832e59f4p-7", "0x1.94f5b4cde318cp-1",
                                        "0x1.f9cd95f991c45p-3", "0x1.797a2c6407831p-15"],
    ((0.5, 0.5, 2.0, 2.0), "bfw_hazard"): ["0x1.e97fcc5b9bf84p-7", "0x1.95e669220478ap+0",
                                           "0x1.006f01f467fc4p+1", "0x1.bb32a635dba8fp+2"],
}
PINNED_MODES = {  # default bracket, (1e-3, 1e3) on 97 points, np.array([1e-4, 50.0])
    PUBLISHED: ("0x1.854923c1285ddp-4", "0x1.854923c1285dep-4", "0x1.854923c1285dep-4"),
    (0.5, 0.5, 2.0, 2.0): ("0x1.8d5e960cd3e85p-2", "0x1.8d5e960cd3e86p-2", "0x1.8d5e960cd3e86p-2"),
}
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
        params = BFWParams(*theta)
        default, custom, ndarray = (float.fromhex(h) for h in PINNED_MODES[theta])
        for _ in range(2):  # the second call reads the kept grid
            assert bfw_mode(params) == default
            assert bfw_mode(params, bracket=(1e-3, 1e3), grid_points=97) == custom
            assert bfw_mode(params, bracket=np.array([1e-4, 50.0])) == ndarray

    def test_kept_grid_is_read_only(self):
        from bfw.core import _mode_grid

        grid = _mode_grid(1e-6, 1e4, 400)
        assert _mode_grid(1e-6, 1e4, 400) is grid
        with pytest.raises(ValueError):
            grid[0] = 1.0

    def test_cached_normalizer_is_betaln(self):
        from scipy.special import betaln

        params = BFWParams(*PUBLISHED)
        assert params.log_beta == betaln(PUBLISHED[2], PUBLISHED[3])
        assert params.log_beta is params.log_beta
