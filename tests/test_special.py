import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special as scipy_special
from scipy.integrate import quad

from bfw import special
from bfw import DomainError, inv_reg_inc_beta, reg_inc_beta, std_normal_quantile
from conftest import beta_side

EPS = 2.0**-52


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

    @pytest.mark.parametrize("p, q", [(1e-8, 1e-8), (1e-8, 300.0), (300.0, 1e-8), (0.5, 0.5),
                                      (35.077, 20.328), (1e4, 2.0), (0.05, 40.0), (5e3, 5e3)])
    def test_limits_without_nan(self, p, q):
        # the numpy fraction from the smallest double to 1 at tiny, skewed and
        # large shapes: exactly 0 and 1 at the ends, no NaN, no warning
        y = np.concatenate([[0.0, 5e-324, 1e-310], np.geomspace(1e-300, 0.5, 400),
                            1.0 - np.geomspace(0.5, 2.0**-53, 400), [1.0]])
        out = reg_inc_beta(y, p, q)
        assert out[0] == 0.0 and out[-1] == 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.diff(out) >= -2 * EPS * out[1:])

    def test_shapes_broadcast_against_y(self):
        y = np.array([[0.1], [0.5], [0.9]])
        p, q = np.array([0.5, 2.0, 35.077]), 3.0
        out = reg_inc_beta(y, p, q)
        assert out.shape == (3, 3)
        for (i, j), v in np.ndenumerate(out):
            assert v == reg_inc_beta(float(y[i, 0]), float(p[j]), q)

    def test_concentrated_shapes_are_betainc(self):
        # where the node series has no plan the fraction would need hundreds
        # of rows; scipy takes every point, as on the large-batch path, at
        # the exact 1 - y above y = 1/2
        y = 0.5 + np.linspace(-5e-3, 5e-3, 101)
        assert special._cdf_plan(1e6, 1e6) is None
        scipy_cdf = np.where(y > 0.5, scipy_special.betaincc(1e6, 1e6, 1.0 - y),
                             scipy_special.betainc(1e6, 1e6, y))
        assert np.array_equal(reg_inc_beta(y, 1e6, 1e6), scipy_cdf)

    @pytest.mark.parametrize("p, q", [(2.0, 1e-8), (2.0, 1e-4), (5.0, 0.01), (40.0, 0.05)])
    def test_above_x0_at_a_small_second_shape(self, p, q):
        # above x0 = (p + 1) / (p + q + 2) the fraction forms I = 1 - P r', and
        # I is small there when q is: it kept about eps / I of it (1.7e8 eps
        # at (2, 1e-8), 291 at (5, 0.01), 122 at (40, 0.05)); where P r' > 3/4
        # the points are betainc's
        x0 = (p + 1.0) / (p + q + 2.0)
        y = np.concatenate([x0 + (1.0 - x0) * np.linspace(0.0, 1.0, 101)[1:-1],
                            1.0 - np.geomspace(2.0**-53, 1.0 - x0, 100)[:-1]])
        assert np.all(y > x0)
        out = reg_inc_beta(y, p, q)
        with mpmath.workdps(50):
            refs = [1 - mpmath.betainc(q, p, 0, 1 - mpmath.mpf(float(v)), regularized=True) for v in y]
        assert min(refs) < 0.02
        assert max(abs(float(mpmath.mpf(float(v)) / r - 1)) for v, r in zip(out, refs)) <= 8 * EPS

    def test_near_underflow_at_least_as_close_as_betainc(self):
        # at (300, 5) betainc is 35 ulp off at I = 1e-300, 4.8e4 at 1e-303 and
        # 5e8 at 1e-307; from I = 1e-307 to 1e-250 the fraction is within
        # 4 eps everywhere and no farther from 50-digit values than betainc
        # wherever betainc is more than 4 eps off
        a, b = 300.0, 5.0
        ln_norm = math.log(a) + special.log_beta(a, b)
        # I ~ y^a (1 - y)^b / (a B): y from the leading term at I = 1e-307 and 1e-250
        ends = [math.exp((math.log(t) + ln_norm - b * math.log1p(-0.1)) / a) for t in (1e-307, 1e-250)]
        y = np.geomspace(*ends, 120)
        new, old = reg_inc_beta(y, a, b), scipy_special.betainc(a, b, y)
        with mpmath.workdps(50):
            refs = [mpmath.betainc(a, b, 0, mpmath.mpf(float(v)), regularized=True) for v in y]
        assert refs[0] < 1e-306 and refs[-1] > 1e-251
        errors = [(abs(float(mpmath.mpf(float(n)) / r - 1)), abs(float(mpmath.mpf(float(o)) / r - 1)))
                  for n, o, r in zip(new, old, refs)]
        assert max(n for n, _ in errors) <= 4 * EPS
        assert all(n <= max(o, 4 * EPS) for n, o in errors)


class TestFractionParts:
    """The double-double pieces the fraction builds I from: ln v as a split
    pair and the power P(y) = y^a (1 - y)^b / B(a, b)."""

    @pytest.mark.parametrize("v", [
        5e-324, 2.2250738585072014e-308, 1e-300, 1e-5, 0.5, math.sqrt(0.5),
        math.nextafter(math.sqrt(0.5), 0.0), 0.9990234375, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52,
        1.7976931348623157e308,
    ])
    def test_log_dd_against_mpmath(self, v):
        hi, lo = special._log_dd(np.array([v]))
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.mpf(v))
            error = abs(float(mpmath.mpf(float(hi[0])) + mpmath.mpf(float(lo[0])) - exact))
        assert error <= 2e-20
        assert error <= EPS * abs(float(exact))  # relative near v = 1 as well

    def test_log_dd_split_keeps_products_exact(self):
        # hi a multiple of 2^-24 below 2^10, so hi times an 18-bit weight is
        # exact; lo small, so a large shape times lo keeps its digits
        rng = np.random.default_rng(3)
        v = np.concatenate([np.exp(rng.uniform(-744.0, 709.0, 20000)), [5e-324, 1.0, 1.7976931348623157e308]])
        hi, lo = special._log_dd(v)
        assert np.array_equal(hi * 2.0**24, np.rint(hi * 2.0**24))
        assert np.abs(hi).max() < 2.0**10
        assert np.abs(lo).max() < 7e-5

    @pytest.mark.parametrize("shapes", [(2.0, 2.0), (0.5, 0.5), (300.0, 5.0), (1e4, 2.0), (0.05, 2.0),
                                        (1e-3, 1e-3)])
    def test_power_against_mpmath(self, shapes):
        a, b = shapes
        y = np.concatenate([np.geomspace(1e-300, 0.5, 60), 1.0 - np.geomspace(2.0**-53, 0.5, 60)[::-1]])
        power = special._fraction_tails(*beta_side(y), a, b)[2]
        checked = 0
        with mpmath.workdps(50):
            norm = mpmath.beta(a, b)
            for v, got in zip(y, power):
                v = mpmath.mpf(float(v))
                exact = v**a * (1 - v) ** b / norm
                if 1e-300 < exact < 1e300:
                    checked += 1
                    assert abs(float(mpmath.mpf(float(got)) / exact - 1)) <= 4 * EPS, (float(v), shapes)
        assert checked >= 50


TINY = float(np.finfo(float).tiny)
BOTH_TAIL_SHAPES = [(35.077, 20.328), (2.0, 2.0), (0.3, 0.7), (300.0, 5.0), (0.05, 40.0),
                    (40.0, 0.05), (2.0, 1e-8), (1e4, 2.0)]


def mp_beta_tails(y, a, b):
    """(I_y(a, b), I_{1-y}(b, a)) at 50 digits for a double y, the tail
    below the mean from the incomplete beta and the other its complement."""
    with mpmath.workdps(50):
        y, a, b = mpmath.mpf(float(y)), mpmath.mpf(a), mpmath.mpf(b)
        if y > a / (a + b):
            upper = mpmath.betainc(b, a, 0, 1 - y, regularized=True)
            return 1 - upper, upper
        lower = mpmath.betainc(a, b, 0, y, regularized=True)
        return lower, 1 - lower


def tail_y_grid():
    return np.concatenate([np.geomspace(1e-300, 0.5, 200), 1.0 - np.geomspace(2e-16, 0.5, 200),
                           np.linspace(0.01, 0.99, 99)])


class TestBothTails:
    """special._fraction_tails: I_y(a, b) and I_{1-y}(b, a) from one pass,
    the elements of both sides of x0 in one ratio loop."""

    @pytest.mark.parametrize("shapes", BOTH_TAIL_SHAPES)
    def test_mixed_sides_equal_each_side_alone(self, shapes):
        # the shorter fraction is padded with rows that leave it unchanged
        a, b = shapes
        y = tail_y_grid()
        z, upper = beta_side(y)
        right = np.where(upper, 1.0 - z, z) > special._fraction_center(a, b)[0]
        assert 0 < right.sum() < y.size
        both = special._fraction_tails(z, upper, a, b)
        for side in (right, ~right):
            alone = special._fraction_tails(z[side], upper[side], a, b)
            for value, value_alone in zip(both, alone):
                assert np.array_equal(value[side], value_alone)

    @pytest.mark.parametrize("shapes", [(0.05, 40.0), (40.0, 0.05)])
    def test_padded_ratio_loop_is_each_order_alone(self, shapes):
        # (0.05, 40) takes 8 rows and (40, 0.05) 45
        a, b = shapes
        x = np.concatenate([np.linspace(1e-6, 0.02, 50), np.linspace(1e-6, 0.97, 70)])
        reflected = np.arange(x.size) >= 50
        c = np.where(reflected, special._shift(x, b, a)[0], special._shift(x, a, b)[0])
        assert special._fraction_rows(a, b)[0].size != special._fraction_rows(b, a)[0].size
        both = special._fraction_ratio(x, c, a, b, reflected)
        for side in (reflected, ~reflected):
            alone = special._fraction_ratio(x[side], c[side], a, b, reflected[side])
            assert np.array_equal(both[side], alone)

    @pytest.mark.parametrize("shapes", BOTH_TAIL_SHAPES)
    def test_each_tail_against_mpmath(self, shapes):
        # the bar of TestBetaCdfKernel.test_both_paths_against_mpmath, for
        # each tail wherever its reference is a normal double
        a, b = shapes
        y = tail_y_grid()
        tails = special._fraction_tails(*beta_side(y), a, b)[:2]
        refs = [mp_beta_tails(v, a, b) for v in y]
        for col, values in enumerate(tails):
            keep = [ref[col] >= TINY for ref in refs]
            worst = max(abs(float(mpmath.mpf(float(v)) / ref[col] - 1))
                        for v, ref, k in zip(values, refs, keep) if k)
            assert worst <= 8 * EPS, (col, worst / EPS)

    @pytest.mark.parametrize("shapes", [(35.077, 20.328), (0.3, 0.7), (2.0, 1e-8), (1e6, 1e6)])
    def test_a_tail_read_alone_is_the_one_read_with_the_other(self, shapes):
        a, b = shapes
        y = tail_y_grid()
        cdf, sf, _ = special._fraction_tails(*beta_side(y), a, b)
        assert np.array_equal(special._fraction_tails(*beta_side(y), a, b, sf=False)[0], cdf)
        assert np.array_equal(special._fraction_tails(*beta_side(y), a, b, cdf=False)[1], sf)


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


def mp_log_beta_mpf(p, q):
    """ln B(p, q) from 60 digits plus the digits the larger shape needs."""
    with mpmath.workdps(60 + int(max(0.0, math.log10(max(p, q))))):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        return mpmath.loggamma(p) + mpmath.loggamma(q) - mpmath.loggamma(p + q)


def mp_log_beta(p, q):
    return float(mp_log_beta_mpf(p, q))


class TestGamln:
    """TOMS 708's ln Gamma, which :func:`special.log_beta` is built on."""

    def test_known_values(self):
        assert special._gamln(1.0) == 0.0
        assert special._gamln(2.0) == 0.0
        assert special._gamln(5.0) == pytest.approx(math.log(24.0), rel=2 * EPS)
        assert special._gamln(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=2 * EPS)

    def test_against_mpmath(self):
        # every branch: a <= 0.8, 0.8 < a <= 2.25, below 10 and from 10
        xs = np.concatenate([np.geomspace(1e-300, 1e300, 120), np.linspace(0.05, 20.0, 400)])
        with mpmath.workdps(40):
            for x in xs:
                exact = mpmath.loggamma(float(x))
                error = abs(float(special._gamln(float(x)) - exact))
                assert error <= 2 * EPS * max(1.0, abs(float(exact))), x

    def test_recurrence_property(self):
        # each term within 2 eps max(1, |ln Gamma|), so the difference within twice that
        for x in np.linspace(0.5, 20.0, 40):
            upper = special._gamln(x + 1.0)
            bound = 4 * EPS * max(1.0, abs(upper))
            assert upper - special._gamln(x) == pytest.approx(math.log(x), abs=bound)


class TestLogBeta:
    @pytest.mark.parametrize("p, q", [
        (math.exp(-10.588), math.exp(74.351)),  # where pumps start 7 of the gammaln kernel stopped
        (1e-3, 1e10), (2.0, 1e20), (1e-40, 1e-38), (0.5, 0.5), (35.077, 20.328), (1e5, 1e5),
        (3.0, 1e300),
    ])
    def test_against_mpmath(self, p, q):
        assert special.log_beta(p, q) == pytest.approx(mp_log_beta(p, q), rel=1e-13)
        assert special.log_beta(q, p) == special.log_beta(p, q)

    @pytest.mark.parametrize("p, q", [
        (35.077, 20.328), (2.0, 2.0), (0.3, 0.7), (300.0, 5.0), (1000.0, 3.0), (1e4, 2.0),
        (1e7, 1e7), (2.5e-5, 2e32), (1e-8, 1e-8),
    ])
    def test_exact_and_never_worse_than_betaln(self, p, q):
        # TOMS 708's betaln; scipy's is 79 eps max(1, |ln B|) off at (300, 5),
        # 2.1e3 at (1e4, 2) and 34 at (1e7, 1e7)
        exact = mp_log_beta_mpf(p, q)
        bound = max(1.0, abs(float(exact)))
        error = abs(float(special.log_beta(p, q) - exact)) / bound
        assert error <= 8 * EPS
        assert error <= abs(float(scipy_special.betaln(p, q) - exact)) / bound

    def test_gammaln_difference_cancels_where_betaln_does_not(self):
        p, q = math.exp(-10.588), math.exp(74.351)
        exact = mp_log_beta(p, q)
        difference = scipy_special.gammaln(p) + scipy_special.gammaln(q) - scipy_special.gammaln(p + q)
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
        assert scipy_special.psi(b + s) - scipy_special.psi(b) == 0.0
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


class TestLogBetaDerivatives:
    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (0.5, 0.5), (1e-3, 7.0), (1e4, 2.0), (2.0, 1e4),
                                      (1e6, 0.01)])
    def test_against_mpmath(self, p, q):
        # the digamma gaps psi(p+q) - (psi(p), psi(q)), the trigamma at p + q
        # and the trigamma gaps (psi'(p), psi'(q)) - psi'(p+q), the last two as
        # one (3, m) array (gaps first); the last two pairs are more than 64
        # times apart, where the gaps are integrated
        with np.errstate(all="ignore"):
            gaps, trigammas = special._log_beta_derivatives(np.array([p]), np.array([q]), 2)
        tri_gaps, tri = trigammas[:2], trigammas[2]
        assert special._log_beta_derivatives(np.array([p]), np.array([q]), 1)[1] is None
        with mpmath.workdps(50):
            s, shapes = mpmath.mpf(p) + mpmath.mpf(q), (mpmath.mpf(p), mpmath.mpf(q))
            exact_tri = mpmath.polygamma(1, s)
            for i, shape in enumerate(shapes):
                exact_gap = mpmath.digamma(s) - mpmath.digamma(shape)
                exact_tri_gap = mpmath.polygamma(1, shape) - exact_tri
                assert abs(float(mpmath.mpf(float(gaps[i][0])) / exact_gap - 1)) <= 4 * EPS
                assert abs(float(mpmath.mpf(float(tri_gaps[i][0])) / exact_tri_gap - 1)) <= 4 * EPS
            assert abs(float(mpmath.mpf(float(tri[0])) / exact_tri - 1)) <= 4 * EPS


class TestOneOwner:
    """``special`` is the one module that reaches ``scipy.special``, and the
    one that chooses between a batch's incomplete-beta paths."""

    SOURCES = sorted((Path(__file__).parent.parent / "src" / "bfw").glob("*.py"))

    def test_scipy_is_reached_only_from_special(self):
        callers = set()
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name == "_scipy":
                        callers.add(path.name)
        assert callers == {"special.py"}

    def test_betainc_is_called_from_the_fraction_only(self):
        # both incomplete-beta paths share the fraction's edge rules, and
        # scipy's upper tail betaincc is handed the same argument z
        callers = set()
        for path in self.SOURCES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    for call in ast.walk(node):
                        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                                and call.func.attr in ("betainc", "betaincc")):
                            callers.add((path.name, node.name, call.func.attr))
        assert callers == {("special.py", "_fraction_tails", "betainc"),
                           ("special.py", "_fraction_tails", "betaincc")}

    @pytest.mark.parametrize("theta", [(0.052, 0.024, 35.077, 20.328), (0.5, 0.5, 0.3, 0.7)])
    def test_log_tails_make_one_fraction_pass(self, monkeypatch, theta):
        # below the size constant both tails of every element come from one
        # fraction call with one ratio loop, elements on both sides of x0
        from bfw import BFWParams, core

        params = BFWParams(*theta)
        x = np.geomspace(1e-2, 1e2, 200) * math.sqrt(params.beta / params.alpha)
        z, upper = core._side(x, params)
        right = np.where(upper, 1.0 - z, z) > special._fraction_center(params.p, params.q)[0]
        assert 0 < right.sum() < x.size
        core._log_tails(x, params)  # the per-shape constants are cached from here on
        calls = dict.fromkeys(["_fraction_tails", "_fraction_ratio"], 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(special, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(special, name, counted)
        core._log_tails(x, params)
        assert calls == {"_fraction_tails": 1, "_fraction_ratio": 1}

    def test_special_owns_the_side_choice(self):
        # the Beta kernels take z = min(y, 1 - y) and a side; core computes
        # neither tail from fw_cdf or fw_sf, and no Beta median splits them
        from bfw import core

        assert not hasattr(special, "_median")
        called = {node.func.id for node in ast.walk(ast.parse(Path(core.__file__).read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called & {"fw_cdf", "fw_sf"}

    def test_core_keeps_no_batch_size_rule(self):
        from bfw import core

        assert not hasattr(core, "_inc_beta")
        assert "_LARGE_FROM" not in {
            node.attr for node in ast.walk(ast.parse(Path(core.__file__).read_text()))
            if isinstance(node, ast.Attribute)
        }
