import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bfw import (
    BFWParams,
    DomainError,
    ExpansionStabilityError,
    OrderIndex,
    bfw_cdf,
    bfw_log_pdf,
    bfw_pdf,
    order_stat_pdf,
    order_stat_pdf_expansion,
    special,
)
from bfw.order_stats import order_stat_log_pdf
from bfw.special import _LARGE_FROM


def mp_order_stat_pdf(x, idx, theta):
    """The r-th of n density at 50 digits, the Beta tail at the smaller of
    G and S_G from the incomplete beta and the other its complement:
    mpmath's betainc at an argument within ~1e-40 of 1 is 1e-13 off."""
    with mpmath.workdps(50):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        x = mpmath.mpf(x)
        w = a * x - b / x
        ew = mpmath.exp(w)
        g, s_g = -mpmath.expm1(-ew), mpmath.exp(-ew)
        pdf = mpmath.exp(-mpmath.log(mpmath.beta(p, q)) + mpmath.log(a + b / x**2) + w - q * ew
                         + (p - 1) * mpmath.log(g))
        if g <= s_g:
            cdf = mpmath.betainc(p, q, 0, g, regularized=True)
            sf = 1 - cdf
        else:
            sf = mpmath.betainc(q, p, 0, s_g, regularized=True)
            cdf = 1 - sf
        r, n = idx.r, idx.n
        return pdf * cdf ** (r - 1) * sf ** (n - r) / mpmath.beta(r, n - r + 1)


class TestOrderIndex:
    @pytest.mark.parametrize("r,n", [(0, 3), (4, 3), (-1, 5), (2.5, 5)])
    def test_validation(self, r, n):
        with pytest.raises(DomainError):
            OrderIndex(r, n)


class TestDirectForm:
    def test_single_observation_is_plain_density(self, published_params):
        idx = OrderIndex(1, 1)
        for x in (0.2, 1.0, 3.0):
            assert order_stat_pdf(x, idx, published_params) == pytest.approx(
                bfw_pdf(x, published_params), rel=1e-12
            )

    def test_integrates_to_one(self, published_params):
        idx = OrderIndex(2, 5)
        total = quad(
            lambda s: float(order_stat_pdf(s / (1 - s), idx, published_params)) / (1 - s) ** 2,
            0.0, 1.0, limit=1000,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_maximum_closed_form(self, published_params):
        n = 6
        idx = OrderIndex(n, n)
        x = 1.0
        expected = n * bfw_cdf(x, published_params) ** (n - 1) * bfw_pdf(x, published_params)
        assert order_stat_pdf(x, idx, published_params) == pytest.approx(expected, rel=1e-12)

    def test_minimum_closed_form(self, published_params):
        n = 6
        idx = OrderIndex(1, n)
        x = 1.0
        expected = n * (1.0 - bfw_cdf(x, published_params)) ** (n - 1) * bfw_pdf(x, published_params)
        assert order_stat_pdf(x, idx, published_params) == pytest.approx(expected, rel=1e-12)

    def test_sum_over_ranks_identity(self, published_params, rng):
        # sum_r f_{r:n}(x) = n f(x)
        xs = rng.uniform(0.05, 6.0, size=20)
        for n in (2, 3, 5):
            total = np.zeros_like(xs)
            for r in range(1, n + 1):
                total = total + np.asarray(order_stat_pdf(xs, OrderIndex(r, n), published_params))
            assert np.allclose(total, n * np.asarray(bfw_pdf(xs, published_params)), rtol=1e-10)

    def test_each_rank_integrates_to_one(self, published_params):
        n = 5
        for r in range(1, n + 1):
            idx = OrderIndex(r, n)
            total = quad(
                lambda s: float(order_stat_pdf(s / (1 - s), idx, published_params)) / (1 - s) ** 2,
                0.0, 1.0, limit=1000,
            )[0]
            assert total == pytest.approx(1.0, abs=1e-6)


class TestTails:
    @pytest.mark.parametrize("x, magnitude", [(20.0, 6.748e-87), (25.0, 3.919e-142),
                                              (30.0, 5.421e-217)])
    def test_right_tail_against_mpmath(self, published_params, x, magnitude):
        # ln(1 - F) as log1p(-cdf) gave 0 at x = 25 and 30 and was 3e-5 off at 20
        idx = OrderIndex(3, 10)
        ref = mp_order_stat_pdf(x, idx, tuple(published_params.as_array()))
        assert float(ref) == pytest.approx(magnitude, rel=1e-3)
        assert order_stat_pdf(x, idx, published_params) == pytest.approx(float(ref), rel=1e-10)
        batch = order_stat_pdf(np.array([1.0, x]), idx, published_params)
        assert batch[1] == order_stat_pdf(x, idx, published_params)

    @pytest.mark.parametrize("theta", [(0.052, 0.024, 0.002, 0.25), (0.052, 0.024, 0.01, 0.5)])
    def test_tiny_g_above_a_tinier_beta_median(self, theta):
        # at p = 0.002 the Beta median is ~1e-151: where G lies between it and
        # eps/2, S_G = exp(-e^w) rounds to 1, and the survival read from it
        # (the side of the median split) made ln F -inf and the density 0;
        # both batch sizes now match 50-digit mpmath
        params, idx = BFWParams(*theta), OrderIndex(3, 10)
        x = np.array([3.5e-4, 4e-4, 5e-4, 6e-4, 1e-3, 2e-3])  # G from 1.7e-30 to 6.1e-6
        refs = [mp_order_stat_pdf(xi, idx, theta) for xi in x]
        for batch in (x, np.resize(x, _LARGE_FROM)):
            out = order_stat_pdf(batch, idx, params)[:x.size]
            assert out.tolist() == pytest.approx([float(r) for r in refs], rel=1e-13)

    @pytest.mark.parametrize("theta", [(0.052, 0.024, 35.077, 20.328), (0.5, 0.5, 2.0, 2.0),
                                       (1.0, 0.1, 0.3, 40.0), (1.0, 0.1, 40.0, 0.3)])
    def test_left_of_the_median_is_the_cdf_form(self, theta):
        # where the cdf is at most 1/2 it is the evaluated tail, and
        # ln(1 - F) is log1p(-cdf), as before the survival side came in
        params = BFWParams(*theta)
        x = np.geomspace(1e-3, 40.0, 400)
        idx = OrderIndex(3, 10)
        near = bfw_cdf(x, params) <= 0.5
        assert 0 < near.sum() < x.size
        cdf = bfw_cdf(x[near], params)
        with np.errstate(divide="ignore"):
            direct = (-special.log_beta(3.0, 8.0) + bfw_log_pdf(x[near], params)
                      + 2 * np.log(cdf) + 7 * np.log1p(-cdf))
        assert np.array_equal(order_stat_log_pdf(x, idx, params)[near], direct)


class TestExpansionForm:
    def test_equivalence_at_paper_estimates(self, published_params):
        idx = OrderIndex(3, 7)
        for x in (0.3, 1.0, 4.0):
            direct = order_stat_pdf(x, idx, published_params)
            expansion = order_stat_pdf_expansion(x, idx, published_params)
            assert expansion == pytest.approx(direct, rel=1e-8)

    def test_maximum_collapses_to_single_term(self, published_params):
        n = 4
        idx = OrderIndex(n, n)
        x = 0.8
        expected = (
            math.factorial(n) / math.factorial(n - 1)
            * bfw_cdf(x, published_params) ** (n - 1)
            * bfw_pdf(x, published_params)
        )
        assert order_stat_pdf_expansion(x, idx, published_params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_two_term_minimum(self, published_params):
        idx = OrderIndex(1, 2)
        x = 1.4
        expected = 2.0 * (1.0 - bfw_cdf(x, published_params)) * bfw_pdf(x, published_params)
        assert order_stat_pdf_expansion(x, idx, published_params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_equivalence_randomized(self, published_params, rng):
        # wherever the expansion agrees to evaluate, it must match the
        # direct form; badly conditioned points refuse instead of lying
        evaluated = 0
        for _ in range(40):
            n = int(rng.integers(1, 31))
            r = int(rng.integers(1, n + 1))
            x = float(rng.uniform(0.05, 5.0))
            direct = order_stat_pdf(x, OrderIndex(r, n), published_params)
            try:
                expansion = order_stat_pdf_expansion(x, OrderIndex(r, n), published_params)
            except ExpansionStabilityError:
                continue
            evaluated += 1
            if direct > 1e-300:
                assert expansion == pytest.approx(direct, rel=1e-8)
        assert evaluated >= 20

    def test_stability_bound(self, published_params):
        with pytest.raises(ExpansionStabilityError):
            order_stat_pdf_expansion(1.0, OrderIndex(2, 31), published_params)

    def test_cancellation_refused(self, published_params):
        # F(3.27) ~ 0.82 with n - r = 17 cancels far past double precision
        with pytest.raises(ExpansionStabilityError):
            order_stat_pdf_expansion(3.27, OrderIndex(4, 21), published_params)
