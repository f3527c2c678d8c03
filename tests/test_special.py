import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bfw import special
from bfw import (
    DomainError,
    digamma,
    inv_reg_inc_beta,
    log_gamma,
    polygamma,
    reg_inc_beta,
    std_normal_quantile,
    trigamma,
)


class TestLogGamma:
    def test_gamma_of_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_of_five_is_factorial(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_recurrence_property(self):
        for x in np.linspace(0.5, 20.0, 40):
            lhs = math.exp(log_gamma(x + 1.0))
            rhs = x * math.exp(log_gamma(x))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPolygamma:
    def test_digamma_at_one(self):
        assert polygamma(0, 1.0) == pytest.approx(-np.euler_gamma, rel=1e-12)

    def test_trigamma_at_one(self):
        assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_digamma_at_two(self):
        assert polygamma(0, 2.0) == pytest.approx(1.0 - np.euler_gamma, rel=1e-12)

    def test_aliases(self):
        assert digamma(3.7) == polygamma(0, 3.7)
        assert trigamma(3.7) == polygamma(1, 3.7)

    def test_unsupported_order(self):
        with pytest.raises(DomainError):
            polygamma(2, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            polygamma(0, 0.0)

    def test_recurrence_property(self):
        for x in np.geomspace(0.1, 100.0, 50):
            assert polygamma(0, x + 1.0) - polygamma(0, x) == pytest.approx(1.0 / x, abs=1e-9)


class TestRegIncBeta:
    def test_uniform_case(self):
        for y in np.linspace(0.0, 1.0, 11):
            assert reg_inc_beta(y, 1.0, 1.0) == pytest.approx(y, abs=1e-14)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_quadrature(self):
        # direct numerical integration of the beta integrand
        p, q, y = 35.077, 20.328, 0.3
        norm = quad(lambda u: u ** (p - 1) * (1 - u) ** (q - 1), 0.0, 1.0)[0]
        partial = quad(lambda u: u ** (p - 1) * (1 - u) ** (q - 1), 0.0, y)[0]
        assert reg_inc_beta(y, p, q) == pytest.approx(partial / norm, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.2, 1.7) == 0.0
        assert reg_inc_beta(1.0, 3.2, 1.7) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, 0.0)

    def test_monotone_in_y(self, rng):
        grid = np.linspace(0.0, 1.0, 1000)
        for _ in range(10):
            p, q = rng.uniform(0.1, 50.0, size=2)
            vals = reg_inc_beta(grid, p, q)
            assert np.all(np.diff(vals) >= 0.0)

    def test_reflection_identity(self, rng):
        for _ in range(50):
            p, q = rng.uniform(0.1, 50.0, size=2)
            y = rng.uniform(0.0, 1.0)
            total = reg_inc_beta(y, p, q) + reg_inc_beta(1.0 - y, q, p)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestInvRegIncBeta:
    def test_symmetric_median(self):
        assert inv_reg_inc_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-13)

    def test_uniform_case(self):
        for u in np.linspace(0.05, 0.95, 10):
            assert inv_reg_inc_beta(u, 1.0, 1.0) == pytest.approx(u, abs=1e-13)

    def test_roundtrip(self):
        y = inv_reg_inc_beta(reg_inc_beta(0.37, 2.5, 4.1), 2.5, 4.1)
        assert y == pytest.approx(0.37, abs=1e-9)

    def test_forward_residual(self, rng):
        for _ in range(50):
            p, q = rng.uniform(0.2, 30.0, size=2)
            u = rng.uniform(1e-6, 1.0 - 1e-6)
            y = inv_reg_inc_beta(u, p, q)
            assert abs(reg_inc_beta(y, p, q) - u) <= 1e-10

    def test_endpoints_map(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            inv_reg_inc_beta(0.5, 0.0, 1.0)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_975(self):
        # root of Phi(z) - 0.975 via the error function, bisected
        target = 0.975
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < target:
                lo = mid
            else:
                hi = mid
        z = std_normal_quantile(0.975)
        assert z == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert z == pytest.approx(1.959964, abs=1e-6)

    def test_antisymmetry(self):
        assert std_normal_quantile(0.025) == pytest.approx(-std_normal_quantile(0.975), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)

    @pytest.mark.parametrize("bad", [math.nan, [0.3, 0.0], np.array([[0.5, math.inf]])])
    def test_domain_arrays_and_nan(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)

    @staticmethod
    def mp_quantile(u):
        """The 50-digit root of ncdf(z) = u, by Newton steps from the double."""
        with mpmath.workdps(50):
            t = min(mpmath.mpf(u), 1 - mpmath.mpf(u))  # both exact
            z = mpmath.mpf(-abs(std_normal_quantile(u)))
            for _ in range(4):
                z -= (mpmath.ncdf(z) - t) / mpmath.npdf(z)
            return z if u < 0.5 else -z

    def test_relative_error_against_mpmath(self):
        # every branch of AS241: the central rational, r <= 5 and r > 5
        us = np.concatenate([
            np.logspace(-300, np.log10(0.499), 160),
            0.5 + np.linspace(-0.425, 0.425, 41),
            1.0 - np.logspace(-16, np.log10(0.499), 60),
        ])
        worst = 0.0
        for u in us.tolist():
            ref = self.mp_quantile(u)
            if ref != 0:
                worst = max(worst, float(abs((std_normal_quantile(u) - ref) / ref)))
        assert worst <= 1e-15

    def test_exact_antisymmetry(self):
        # u = k / 2^20 and 1 - u are both exact, so both take the same steps
        u = np.arange(1, 2**19 + 1, 997) / 2.0**20
        assert np.array_equal(std_normal_quantile(1.0 - u), -std_normal_quantile(u))

    def test_scalar_and_array_returns(self):
        assert type(std_normal_quantile(0.975)) is float
        assert type(std_normal_quantile(np.float64(0.975))) is float
        grid = np.array([[0.025, 0.5], [0.975, 1e-300]])
        z = std_normal_quantile(grid)
        assert isinstance(z, np.ndarray) and z.shape == (2, 2)
        assert np.array_equal(z.ravel(), [std_normal_quantile(u) for u in grid.ravel().tolist()])
        assert std_normal_quantile(np.array([])).shape == (0,)


def mp_log_beta(p, q):
    """ln B(p, q) from 60 digits plus the digits the larger shape needs."""
    with mpmath.workdps(60 + int(max(0.0, math.log10(max(p, q))))):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        return float(mpmath.loggamma(p) + mpmath.loggamma(q) - mpmath.loggamma(p + q))


class TestLogBeta:
    @pytest.mark.parametrize("p, q", [
        (math.exp(-10.588), math.exp(74.351)),  # where pumps start 7 of the gammaln kernel stopped
        (1e-3, 1e10), (2.0, 1e20), (1e-40, 1e-38), (0.5, 0.5), (35.077, 20.328), (1e5, 1e5),
        (3.0, 1e300),
    ])
    def test_against_mpmath(self, p, q):
        assert special.log_beta(p, q) == pytest.approx(mp_log_beta(p, q), rel=1e-13)
        assert special.log_beta(q, p) == special.log_beta(p, q)

    def test_gammaln_difference_cancels_where_betaln_does_not(self):
        p, q = math.exp(-10.588), math.exp(74.351)
        exact = mp_log_beta(p, q)
        difference = log_gamma(p) + log_gamma(q) - log_gamma(p + q)
        assert abs(difference - exact) > 1.0  # every digit lost
        assert special.log_beta(p, q) == pytest.approx(exact, rel=1e-14)

    def test_array_and_domain(self):
        values = special.log_beta(np.array([1.0, 2.0]), 3.0)
        assert values == pytest.approx([math.log(1.0 / 3.0), math.log(1.0 / 12.0)], rel=1e-14)
        with pytest.raises(DomainError):
            special.log_beta(0.0, 1.0)


def mp_gaps(b, s):
    """psi(b + s) - psi(b) and psi'(b) - psi'(b + s) with enough digits that
    b + s does not round to b."""
    digits = 60 + int(max(0.0, math.log10(b))) + int(max(0.0, -math.log10(s / b)))
    with mpmath.workdps(digits):
        b, s = mpmath.mpf(b), mpmath.mpf(s)
        return (float(mpmath.digamma(b + s) - mpmath.digamma(b)),
                float(mpmath.polygamma(1, b) - mpmath.polygamma(1, b + s)))


class TestPolygammaGaps:
    def test_against_mpmath(self):
        rng = np.random.default_rng(7)
        b = np.exp(rng.uniform(math.log(1e-250), math.log(1e250), 120))
        s = b * np.exp(rng.uniform(math.log(1e-30), math.log(1.0 / 64.0), 120))
        edges_b = [0.999, 1.0, 1.0 - 1e-12, 16.0, 2.0**60, 2.0**60 * 0.999, math.exp(74.351), 1e-250]
        edges_s = [0.999 / 64, 1.0 / 64, 1.0 / 64, 0.25, 2.0**54, 2.0**54, math.exp(-10.588), 1e-252]
        b, s = np.concatenate([b, edges_b]), np.concatenate([s, edges_s])
        with np.errstate(over="ignore"):
            d_psi, d_tri = special.polygamma_gaps(b, s)
        for i in range(b.size):
            ref_psi, ref_tri = mp_gaps(b[i], s[i])
            assert d_psi[i] == pytest.approx(ref_psi, rel=1e-13), (b[i], s[i])
            if 1e-300 < abs(ref_tri) < 1e300:  # the second gap is ~2 s / b^3 for small b
                assert d_tri[i] == pytest.approx(ref_tri, rel=2e-13), (b[i], s[i])

    def test_direct_differences_lose_what_the_gaps_keep(self):
        b, s = math.exp(74.351), math.exp(-10.588)
        assert digamma(b + s) - digamma(b) == 0.0
        d_psi, d_tri = special.polygamma_gaps(np.array([b]), np.array([s]))
        ref_psi, ref_tri = mp_gaps(b, s)
        assert d_psi[0] == pytest.approx(ref_psi, rel=1e-14)
        assert d_tri[0] == pytest.approx(ref_tri, rel=1e-14)

    def test_each_element_is_the_same_alone_and_in_a_batch(self):
        # a matrix product over the Gauss nodes rounded differently with the
        # batch size, which moved single fitter starts run alone
        rng = np.random.default_rng(11)
        b = np.exp(rng.uniform(math.log(1e-3), math.log(1e8), 97))
        s = b * np.exp(rng.uniform(math.log(1e-12), math.log(1.0 / 64.0), 97))
        for size in (1, 2, 5, 16, 97):
            d_psi, d_tri = special.polygamma_gaps(b[:size], s[:size])
            for i in range(size):
                alone = special.polygamma_gaps(b[i : i + 1], s[i : i + 1])
                assert (d_psi[i], d_tri[i]) == (alone[0][0], alone[1][0])
