import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from bfw import (
    BFWParams,
    DomainError,
    MomentSummary,
    QuadratureAccuracyError,
    bfw_log_pdf,
    bfw_sample,
    central_moment_quadrature,
    mgf,
    moment_summary,
    raw_moment_quadrature,
)


class TestRawMomentQuadrature:
    def test_base_mean_against_monte_carlo(self):
        params = BFWParams(0.5, 0.5, 1.0, 1.0)
        mean = raw_moment_quadrature(1, params)
        n = 1_000_000
        draws = bfw_sample(n, params, seed=314)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert mean == pytest.approx(draws.mean(), abs=3.0 * se)

    def test_jensen_inequality(self, rng):
        for _ in range(5):
            params = BFWParams(
                rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0),
            )
            m1 = raw_moment_quadrature(1, params)
            m2 = raw_moment_quadrature(2, params)
            assert m2 >= m1 * m1

    def test_mean_vs_sample_mean_reported(self, published_params, pumps, capsys):
        # informational: the fitted-model mean against the data mean
        model_mean = raw_moment_quadrature(1, published_params)
        print(f"model mean at published estimates: {model_mean:.6f}; "
              f"data mean: {pumps.times.mean():.6f}")
        assert math.isfinite(model_mean)

    def test_monte_carlo_agreement_randomized(self, rng):
        for _ in range(5):
            params = BFWParams(
                rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5),
                rng.uniform(0.8, 6.0), rng.uniform(0.8, 6.0),
            )
            n = 1_000_000
            draws = bfw_sample(n, params, seed=int(rng.integers(1, 2**31)))
            for r in (1, 2):
                powered = draws**r
                se = powered.std(ddof=1) / math.sqrt(n)
                assert raw_moment_quadrature(r, params) == pytest.approx(
                    powered.mean(), abs=3.0 * se
                )

    def test_bad_order(self, published_params):
        with pytest.raises(DomainError):
            raw_moment_quadrature(0, published_params)


class TestMomentSummary:
    def test_skewness_matches_central_quadrature(self, rng):
        params = BFWParams(0.8, 0.6, 2.0, 3.0)
        summary = moment_summary(params)
        third = central_moment_quadrature(3, params, summary.mean)
        assert summary.skewness == pytest.approx(third / summary.variance**1.5, rel=1e-6)

    def test_variance_matches_central_quadrature(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        summary = moment_summary(params)
        second = central_moment_quadrature(2, params, summary.mean)
        assert summary.variance == pytest.approx(second, rel=1e-6)

    def test_pearson_inequality(self, rng):
        for _ in range(20):
            params = BFWParams(
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0),
            )
            summary = moment_summary(params)
            assert summary.kurtosis >= summary.skewness**2 + 1.0

    def test_raw_moments_against_quadrature(self, published_params):
        summary = moment_summary(published_params)
        for r, value in enumerate(summary.raw_moments, start=1):
            assert value == pytest.approx(raw_moment_quadrature(r, published_params), rel=1e-10)
        assert summary.variance == pytest.approx(
            summary.raw_moments[1] - summary.mean**2, rel=1e-12
        )


class TestMgf:
    def test_normalization(self, published_params):
        assert mgf(0.0, published_params) == pytest.approx(1.0, abs=1e-10)

    def test_derivative_at_zero_is_mean(self, published_params):
        h = 1e-4
        derivative = (mgf(h, published_params) - mgf(-h, published_params)) / (2.0 * h)
        assert derivative == pytest.approx(
            raw_moment_quadrature(1, published_params), rel=1e-5
        )

    def test_against_monte_carlo(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        n = 1_000_000
        draws = np.exp(0.5 * bfw_sample(n, params, seed=2718))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert mgf(0.5, params) == pytest.approx(draws.mean(), abs=3.0 * se)

    def test_log_convexity(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        ts = np.linspace(-1.0, 1.0, 21)
        values = np.log([mgf(t, params) for t in ts])
        second_difference = values[2:] - 2.0 * values[1:-1] + values[:-2]
        assert np.all(second_difference >= -1e-9)

    def test_domain(self, published_params):
        with pytest.raises(DomainError):
            mgf(math.inf, published_params)


class TestQuadratureInternals:
    def test_accuracy_error_when_budget_exhausted(self, published_params, monkeypatch):
        import bfw.moments as moments_module
        from bfw import QuadratureAccuracyError

        monkeypatch.setattr(moments_module, "_QUAD_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureAccuracyError) as excinfo:
            raw_moment_quadrature(4, published_params)
        assert math.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_bound > 0.0

    def test_tail_integrand_vanishes(self, published_params):
        # the transformed integrand must die out at both endpoints
        for x in (1e-9, 1e8):
            assert math.exp(bfw_log_pdf(x, published_params)) == 0.0

    def test_quadrature_consistency_with_plain_quad(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        reference = quad(
            lambda x: x * math.exp(bfw_log_pdf(x, params)), 0.0, 50.0, limit=500
        )[0]
        assert raw_moment_quadrature(1, params) == pytest.approx(reference, rel=1e-9)


# ---------------------------------------------------------------------------
# References that do not go through bfw: the density written from the model
# formula, in NumPy (for locating the bulk and for grid integrals) and in
# mpmath at 30 digits.

SET28 = (0.03880321042690374, 0.02168489133047946, 22.753463110414746, 48.15681427869608)
REFERENCE_POINTS = [(0.052, 0.024, 35.077, 20.328), (0.5, 0.5, 2.0, 2.0), SET28]


def _ref_log_pdf(x, theta):
    a, b, p, q = theta
    w = a * x - b / x
    u = np.exp(np.minimum(w, 700.0))
    with np.errstate(divide="ignore"):
        log_g = np.where(w < -30.0, w - u / 2.0, np.log(-np.expm1(-u)))
    return (
        gammaln(p + q) - gammaln(p) - gammaln(q) + np.log(a + b / x**2)
        + w - q * u + (p - 1.0) * log_g
    )


def _bulk(theta, log_weight, cut=80.0):
    """ln x range where the weighted integrand is above e^-cut of its peak."""
    t = np.linspace(math.log(1e-12), math.log(1e6), 4001)
    x = np.exp(t)
    lp = _ref_log_pdf(x, theta) + t + log_weight(x, t)
    alive = np.flatnonzero(lp > lp.max() - cut)
    return t[max(alive[0] - 1, 0)], t[min(alive[-1] + 1, t.size - 1)]


def _grid_integral(theta, log_weight, points=20001):
    """Trapezoid rule in ln x on a fixed fine grid over the bulk."""
    lo, hi = _bulk(theta, log_weight)
    t = np.linspace(lo, hi, points)
    x = np.exp(t)
    lp = _ref_log_pdf(x, theta) + t + log_weight(x, t)
    peak = lp.max()
    return math.exp(peak) * float(np.sum(np.exp(lp - peak))) * (t[1] - t[0])


def _mp_integral(theta, log_weight):
    """mpmath.quad at 30 digits in ln x over the bulk, in eight pieces."""
    lo, hi = _bulk(theta, log_weight)
    with mpmath.workdps(30):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        lnorm = mpmath.loggamma(p + q) - mpmath.loggamma(p) - mpmath.loggamma(q)

        def integrand(t):
            x = mpmath.exp(t)
            w = a * x - b / x
            u = mpmath.exp(w)
            return mpmath.exp(
                lnorm + mpmath.log(a + b / x**2) + w - q * u
                + (p - 1) * mpmath.log(-mpmath.expm1(-u)) + t + log_weight(x, t)
            )

        return float(mpmath.quad(integrand, mpmath.linspace(lo, hi, 9)))


def _power(r):
    return lambda x, t: r * t


def _exponential(s):
    return lambda x, t: s * x


class TestHighPrecisionReferences:
    @pytest.mark.parametrize("theta", REFERENCE_POINTS)
    def test_against_mpmath(self, theta):
        params = BFWParams(*theta)
        summary = moment_summary(params)
        for r, value in enumerate(summary.raw_moments, start=1):
            assert value == pytest.approx(_mp_integral(theta, _power(r)), rel=1e-10)
        for s in (-1.0, 0.5):
            assert mgf(s, params) == pytest.approx(_mp_integral(theta, _exponential(s)), rel=1e-10)

    def test_mgf_near_double_overflow(self, published_params):
        # e^(18 x) moves the integrand's peak past the scan's right end, which
        # widens until it holds it; from t ~ 19 on the integral exceeds the doubles
        theta = tuple(published_params.as_array())
        value = mgf(18.0, published_params)
        assert value == pytest.approx(1.7344e292, rel=1e-4)
        assert value == pytest.approx(_mp_integral(theta, _exponential(18.0)), rel=1e-10)
        assert mgf(20.0, published_params) == math.inf

    def test_seeded_panel_never_silently_wrong(self, rng):
        checked = 0
        for _ in range(25):
            theta = (
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0),
            )
            params = BFWParams(*theta)
            try:
                raw = moment_summary(params).raw_moments
                mgfs = [mgf(s, params) for s in (-1.0, 0.5)]
            except QuadratureAccuracyError:
                continue
            for r, value in enumerate(raw, start=1):
                assert value == pytest.approx(_grid_integral(theta, _power(r)), rel=1e-9), theta
            for s, value in zip((-1.0, 0.5), mgfs):
                assert value == pytest.approx(_grid_integral(theta, _exponential(s)), rel=1e-9), theta
            checked += 1
        assert checked >= 20

    def test_small_scale_fourth_moment(self):
        # E[X^4] ~ 8.5e-11: an absolute error floor would refuse this
        summary = moment_summary(BFWParams(200.0, 1e-3, 2.0, 2.0))
        assert summary.raw_moments[3] == pytest.approx(8.48680151161e-11, rel=1e-10)


# sigma is below 1e-3 of the mean: central moments formed from raw moments
# lose every digit here
CONCENTRATED = [(0.052, 0.024, 1e7, 1e7), (0.5, 0.5, 1e6, 1e6)]


def _mp_shape(theta, degree=5, pieces=8):
    """Skewness and kurtosis of the density written in mpmath at 50 digits:
    Gauss-Legendre in ln x (48 nodes on each of eight pieces of the bulk),
    every moment taken about the mean of the same nodes."""
    from mpmath.calculus.quadrature import GaussLegendre

    with np.errstate(over="ignore"):  # q e^w overflows to inf far in the right tail
        lo, hi = _bulk(theta, lambda x, t: 0.0 * t)
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        lnorm = mpmath.loggamma(p + q) - mpmath.loggamma(p) - mpmath.loggamma(q)
        rule = GaussLegendre(mpmath.mp)
        ends = mpmath.linspace(mpmath.mpf(lo), mpmath.mpf(hi), pieces + 1)
        xs, masses = [], []
        for left, right in zip(ends[:-1], ends[1:]):
            for t, node_weight in rule.get_nodes(left, right, degree, mpmath.mp.prec):
                x = mpmath.exp(t)
                w = a * x - b / x
                u = mpmath.exp(w)
                xs.append(x)
                masses.append(node_weight * mpmath.exp(
                    lnorm + mpmath.log(a + b / x**2) + w - q * u
                    + (p - 1) * mpmath.log(-mpmath.expm1(-u)) + t
                ))
        total = mpmath.fsum(masses)
        mean = mpmath.fsum(m * x for m, x in zip(masses, xs)) / total
        mu2, mu3, mu4 = (
            mpmath.fsum(m * (x - mean) ** k for m, x in zip(masses, xs)) / total for k in (2, 3, 4)
        )
        return float(mu3 / mu2**1.5), float(mu4 / mu2**2)


class TestShapeMeasures:
    @pytest.mark.parametrize("theta", CONCENTRATED)
    def test_concentrated_shapes_against_mpmath(self, theta):
        summary = moment_summary(BFWParams(*theta))
        skewness, kurtosis = _mp_shape(theta)
        assert summary.skewness == pytest.approx(skewness, abs=1e-6)
        assert summary.kurtosis == pytest.approx(kurtosis, rel=1e-6)

    def test_concentrated_shapes_are_normalized(self):
        # ln B(1e7, 1e7) is exact: scipy's betaln, 1.03e-7 off there, left
        # the density's mass at 1 - 1.034e-7
        import bfw.moments as moments_module

        params = BFWParams(0.052, 0.024, 1e7, 1e7)
        mass = moments_module._ln_x_quadrature(params, moments_module._powers([0.0])).values[0]
        assert abs(mass - 1.0) <= 1e-8

    def test_published_point_keeps_its_raw_moment_values(self, published_params):
        # skewness and kurtosis as the raw-moment formula gave them, which does
        # not cancel at this point
        summary = moment_summary(published_params)
        assert summary.skewness == pytest.approx(1.4921602493466923, abs=1e-10)
        assert summary.kurtosis == pytest.approx(4.892968298321172, abs=1e-10)


class TestScaleIdentity:
    # X ~ BFW(a, b, p, q) implies cX ~ BFW(a/c, b c, p, q)
    base = BFWParams(0.5, 0.5, 2.0, 2.0)

    @pytest.mark.parametrize("c", [1.0 / 400.0, 1.0, 50.0])
    def test_raw_moments_scale(self, c):
        scaled = moment_summary(BFWParams(0.5 / c, 0.5 * c, 2.0, 2.0)).raw_moments
        unscaled = moment_summary(self.base).raw_moments
        for r in range(1, 5):
            assert scaled[r - 1] == pytest.approx(c**r * unscaled[r - 1], rel=1e-10)

    @pytest.mark.parametrize("c", [1.0 / 400.0, 1.0, 50.0])
    def test_mgf_argument_scales(self, c):
        scaled = BFWParams(0.5 / c, 0.5 * c, 2.0, 2.0)
        for s in (-1.0, 0.5):
            assert mgf(s, scaled) == pytest.approx(mgf(c * s, self.base), rel=1e-10)


class TestCentralMoments:
    def test_binomial_expansion_of_raw_moments(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        m1, m2, m3, _ = moment_summary(params).raw_moments
        center = 1.0
        expected = m3 - 3 * center * m2 + 3 * center**2 * m1 - center**3
        assert central_moment_quadrature(3, params, center) == pytest.approx(expected, rel=1e-9)

    def test_first_central_moment_vanishes(self):
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        summary = moment_summary(params)
        value = central_moment_quadrature(1, params, summary.mean)
        assert abs(value) <= 1e-10 * math.sqrt(summary.variance)

    def test_accuracy_error_when_budget_exhausted(self, published_params, monkeypatch):
        import bfw.moments as moments_module

        monkeypatch.setattr(moments_module, "_QUAD_SUBDIVISIONS", 1)
        with pytest.raises(QuadratureAccuracyError) as excinfo:
            central_moment_quadrature(3, published_params, 1.0)
        assert math.isfinite(excinfo.value.estimate)
        assert excinfo.value.error_bound > 0.0

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_is_refused(self, published_params, center):
        with pytest.raises(DomainError):
            central_moment_quadrature(2, published_params, center)

    def test_scan_without_a_value_above_the_cut(self, published_params):
        # every scanned log-integrand NaN: a typed refusal, not an IndexError
        import bfw.moments as moments_module

        def weight(x, t):
            return np.full((1, x.size), math.nan), None

        with pytest.raises(QuadratureAccuracyError):
            moments_module._ln_x_quadrature(published_params, weight)


class TestQuadratureWork:
    def test_one_density_grid_per_level(self, published_params, monkeypatch):
        import bfw.moments as moments_module

        calls, points = [], []
        real = moments_module.bfw_log_pdf

        def counting(x, params):
            calls.append(1)
            points.append(np.size(x))
            return real(x, params)

        monkeypatch.setattr(moments_module, "bfw_log_pdf", counting)
        summary = moment_summary(published_params)
        assert len(calls) <= 50
        assert summary.evaluations == sum(points)

    @pytest.mark.parametrize("which", ["mgf", "summary"])
    def test_two_density_calls_at_published_point(self, published_params, monkeypatch, which):
        # the scan is the first level and the first halving converges
        import bfw.moments as moments_module

        points = []
        real = moments_module.bfw_log_pdf

        def counting(x, params):
            points.append(np.size(x))
            return real(x, params)

        monkeypatch.setattr(moments_module, "bfw_log_pdf", counting)
        if which == "mgf":
            mgf(0.5, published_params)
        else:
            assert moment_summary(published_params).evaluations == sum(points)
        assert len(points) == 2

    def test_no_convergence_test_below_64_intervals(self, monkeypatch):
        # p = q = 1e6 puts the mass within a few scan steps; with a target every
        # test meets, the quadrature stops at its first test, which must come
        # after the untested halvings have reached 64 intervals
        import bfw.moments as moments_module

        points = []
        real = moments_module.bfw_log_pdf

        def counting(x, params):
            points.append(np.size(x))
            return real(x, params)

        monkeypatch.setattr(moments_module, "bfw_log_pdf", counting)
        monkeypatch.setattr(moments_module, "_QUAD_REL_TARGET", math.inf)
        raw_moment_quadrature(1, BFWParams(0.5, 0.5, 1e6, 1e6))
        assert min(points) < 64 <= points[-1] < 128

    def test_summary_reports_work_and_error(self, published_params):
        summary = moment_summary(published_params)
        assert summary.evaluations > 0
        assert 0.0 <= summary.error_bound <= 1e-10

    def test_summary_constructor_defaults(self):
        summary = MomentSummary(1.0, 1.0, 0.0, 3.0, (1.0, 2.0, 1.0, 3.0))
        assert summary.evaluations == 0
        assert math.isnan(summary.error_bound)

    def test_mass_below_representable_range_is_refused(self):
        # with beta = 1e-160 part of the mass lies where x^2 underflows
        with pytest.raises(QuadratureAccuracyError):
            raw_moment_quadrature(1, BFWParams(1.0, 1e-160, 1.0, 1.0))
