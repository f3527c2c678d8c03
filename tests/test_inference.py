import dataclasses
import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from conftest import fit_or_error
from scipy import special as sp

from bfw import (
    BFWParams,
    ConvergenceError,
    Dataset,
    DomainError,
    FWParams,
    NumericError,
    OptimizerConfig,
    bfw_log_pdf,
    bfw_sample,
    confidence_intervals,
    covariance_from_information,
    fit_mle,
    fw_log_pdf,
    inference,
    interval_bounds,
    log_likelihood,
    model_selection,
    observed_information,
    score,
    std_normal_quantile,
)

# covariance matrix published for the pump data at the four-parameter
# estimates (0.052, 0.024, 35.077, 20.328)
PUBLISHED_COVARIANCE = np.array([
    [2.123e-3, 9.575e-4, -2.748, -1.6],
    [9.575e-4, 5.558e-4, -1.415, -0.81],
    [-2.748, -1.415, 3.912e3, 2.256e3],
    [-1.6, -0.81, 2.256e3, 1.304e3],
])


def random_instance(rng, n=20):
    params = BFWParams(
        rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
        rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0),
    )
    times = bfw_sample(n, params, seed=int(rng.integers(1, 2**31)))
    probe = BFWParams(
        rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
        rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0),
    )
    return Dataset(times=times, label="synthetic"), probe


def fd_score(data, params, rel_step=1e-6):
    theta = params.as_array()
    out = np.empty(4)
    for j in range(4):
        h = rel_step * theta[j]
        hi, lo = theta.copy(), theta.copy()
        hi[j] += h
        lo[j] -= h
        out[j] = (
            log_likelihood(data, BFWParams(*hi)) - log_likelihood(data, BFWParams(*lo))
        ) / (2.0 * h)
    return out


def fd_information(data, params, rel_step=1e-6):
    theta = params.as_array()
    out = np.empty((4, 4))
    for j in range(4):
        h = rel_step * max(1.0, theta[j])
        hi, lo = theta.copy(), theta.copy()
        hi[j] += h
        lo[j] -= h
        out[:, j] = -(score(data, BFWParams(*hi)) - score(data, BFWParams(*lo))) / (2.0 * h)
    return 0.5 * (out + out.T)


class TestDataset:
    def test_validation(self):
        with pytest.raises(DomainError):
            Dataset(times=np.array([]))
        with pytest.raises(DomainError):
            Dataset(times=np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            Dataset(times=np.array([1.0, math.nan]))

    def test_preserves_order_and_is_immutable(self):
        data = Dataset(times=np.array([3.0, 1.0, 2.0]), label="x")
        assert list(data.times) == [3.0, 1.0, 2.0]
        assert data.n == 3
        with pytest.raises(ValueError):
            data.times[0] = 5.0


class TestLogLikelihood:
    def test_single_point_is_log_density(self, published_params):
        data = Dataset(times=np.array([1.0]))
        assert log_likelihood(data, published_params) == pytest.approx(
            bfw_log_pdf(1.0, published_params), rel=1e-14
        )

    def test_base_reduction_on_pumps_as_recorded(self, pumps):
        # the two-parameter row of the published analysis is stated in hundreds
        # of hours; on the data as bundled (thousands) the same parameters
        # give a very different value, pinned here from direct evaluation
        value = log_likelihood(pumps, BFWParams(0.0207, 2.5875, 1.0, 1.0))
        assert value == pytest.approx(-159.35403793514084, abs=1e-8)
        by_sum = float(np.sum(bfw_log_pdf(pumps.times, BFWParams(0.0207, 2.5875, 1.0, 1.0))))
        assert value == pytest.approx(by_sum, rel=1e-12)

    def test_base_reduction_in_hundreds_units(self, pumps_hundreds):
        # in the units the published two-parameter analysis used
        value = log_likelihood(pumps_hundreds, BFWParams(0.0207, 2.5875, 1.0, 1.0))
        assert value == pytest.approx(-83.3424, abs=5e-4)

    def test_published_four_parameter_value(self, pumps, published_params):
        # the four-parameter row is stated in the bundled units and its
        # published log-likelihood reproduces directly
        assert log_likelihood(pumps, published_params) == pytest.approx(-30.768, abs=5e-4)

    def test_plain_tuple_is_the_params_call(self, pumps, published_params):
        p = published_params
        assert (log_likelihood(pumps, (p.alpha, p.beta, p.p, p.q))
                == log_likelihood(pumps, published_params))

    def test_unit_scaling_identity(self, pumps, pumps_hundreds):
        # scaling data by c and (alpha, beta) by (1/c, c) shifts the
        # log-likelihood by exactly -n log c
        a, b = 0.207, 0.25876
        direct = log_likelihood(pumps, BFWParams(a, b, 1.3, 2.1))
        scaled = log_likelihood(pumps_hundreds, BFWParams(a / 10.0, 10.0 * b, 1.3, 2.1))
        assert scaled == pytest.approx(direct - pumps.n * math.log(10.0), rel=1e-12)


class TestScore:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            data, probe = random_instance(rng)
            analytic = score(data, probe)
            numeric = fd_score(data, probe)
            scale = np.maximum(np.abs(analytic), 1.0)
            assert np.all(np.abs(analytic - numeric) / scale <= 1e-5)

    def test_q_component_identity_at_unit_shapes(self, pumps):
        # with p = q = 1 the shape component collapses to n - sum(e^w)
        params = BFWParams(0.4, 0.9, 1.0, 1.0)
        w = params.alpha * pumps.times - params.beta / pumps.times
        expected = pumps.n - np.sum(np.exp(w))
        assert score(pumps, params)[3] == pytest.approx(expected, rel=1e-12)

    def test_stationary_at_fit(self, pumps):
        fit = fit_mle(pumps)
        assert np.max(np.abs(fit.score_at_optimum)) < 1e-6


class TestObservedInformation:
    def test_symmetry(self, pumps, published_params):
        info = observed_information(pumps, published_params)
        assert np.array_equal(info, info.T)

    def test_pq_entry_is_trigamma(self, pumps, published_params):
        info = observed_information(pumps, published_params)
        expected = -pumps.n * sp.polygamma(1, published_params.p + published_params.q)
        assert info[2, 3] == pytest.approx(expected, rel=1e-14)

    def test_matches_finite_differences_randomized(self, rng):
        for _ in range(20):
            data, probe = random_instance(rng)
            analytic = observed_information(data, probe)
            numeric = fd_information(data, probe)
            scale = np.maximum(np.abs(analytic), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) <= 1e-4

    def test_inverse_reproduces_published_covariance(self, pumps, published_params):
        info = observed_information(pumps, published_params)
        cov, cond = covariance_from_information(info)
        assert cov is not None
        # printed to 4 significant figures; everything lands well inside 1%
        assert np.max(np.abs(cov - PUBLISHED_COVARIANCE) / np.abs(PUBLISHED_COVARIANCE)) < 0.01
        assert cond > 1e6  # badly conditioned, as the huge variance spread implies

    def test_numeric_error_names_entry(self):
        data = Dataset(times=np.array([1e-300, 1.0, 2.0, 3.0, 4.0]))
        params = BFWParams(1.0, 700.0, 2.0, 2.0)
        with pytest.raises((NumericError, DomainError)):
            observed_information(data, params)


# one-row evaluations at extreme points, (data, theta, ll, score, information),
# floats as hex and an information that raises as its NumericError message;
# each runs without a RuntimeWarning whichever function holds the error state
EXTREME_ONE_ROW = [
    # w = 787 at the largest failure time and q = e^-94
    ("pumps", (120.0, 1.0, 2.0, math.exp(-94)), "-inf",
     ["-inf", "inf", "-0x1.d27138ebb5906p+3", "-inf"],
     "observed information entry (alpha, alpha) is not finite"),
    # beta/x^2 overflows at x = 1e-160
    ("tiny", (0.052, 0.024, 35.077, 20.328), "-0x1.3294dd877a94ap+531",
     ["0x1.6574eecb31140p+4", "-0x1.8f31d5c8679c3p+536", "-0x1.17b0122e55dc5p+526",
      "0x1.2afd6c5653d60p-1"],
     ["0x1.195a4d317c5abp+11", "0x1.4b94a4c664db0p+7", "-0x1.534d04f85987cp+2",
      "0x1.730ab2fc5151cp+3", "0x1.4b94a4c664db0p+7", "0x1.ef39507b580c1p+10",
      "0x1.6c2d4256ffcc3p+531", "-0x1.22700bf997732p+1", "-0x1.534d04f85987cp+2",
      "0x1.6c2d4256ffcc3p+531", "0x1.b686537a1ca08p-5", "-0x1.74ff638b73eccp-4",
      "0x1.730ab2fc5151cp+3", "-0x1.22700bf997732p+1", "-0x1.74ff638b73eccp-4",
      "0x1.49d54debd3f36p-3"]),
    # every parameter at an end of double range
    ("pumps", (1e-300, 1e300, 1e-300, 1e300), "0x0.0p+0",
     ["0x0.0p+0", "0x0.0p+0", "-0x1.383ef48400618p+1002", "0x0.0p+0"],
     "observed information entry (p, p) is not finite"),
    # tiny shapes, where psi'(p) overflows
    ("pumps", (0.052, 0.024, 1.25e-158, 1.33e-79), "-0x1.062f9f68d9bb5p+13",
     ["0x1.e29978334f490p+7", "0x1.bed88051a2ebbp+8", "0x1.0c08bc1712487p+529",
      "-0x1.cbabcbbdf08c4p+2"],
     "observed information entry (p, p) is not finite"),
]


@pytest.mark.parametrize("name, theta, ll, grad, info", EXTREME_ONE_ROW)
def test_one_row_functions_pin_extreme_points_without_warnings(pumps, name, theta, ll, grad,
                                                                 info):
    data = pumps if name == "pumps" else Dataset(times=np.array([1e-160, 1.0, 2.0, 3.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert float(log_likelihood(data, theta)).hex() == ll
        assert [float(v).hex() for v in score(data, theta)] == grad
        if isinstance(info, str):
            with pytest.raises(NumericError) as excinfo:
                observed_information(data, theta)
            assert str(excinfo.value) == info
        else:
            assert [float(v).hex() for v in observed_information(data, theta).ravel()] == info


class TestCovarianceFromInformation:
    def test_identity_reproduction(self, pumps, published_params):
        info = observed_information(pumps, published_params)
        cov, _ = covariance_from_information(info)
        residual = np.max(np.abs(info @ cov - np.eye(4)))
        assert residual <= 1e-8

    def test_indefinite_returns_none(self):
        info = np.diag([1.0, -1.0, 2.0, 3.0])
        cov, cond = covariance_from_information(info)
        assert cov is None
        assert math.isfinite(cond)

    def test_singular_returns_none(self):
        info = np.diag([1.0, 0.0, 2.0, 3.0])
        cov, cond = covariance_from_information(info)
        assert cov is None
        assert math.isinf(cond)


class TestFitMle:
    def test_dominates_published_point(self, pumps, published_params):
        fit = fit_mle(pumps)
        reference = log_likelihood(pumps, published_params)
        assert fit.log_likelihood >= reference - 1e-6
        assert fit.converged
        assert fit.multistart_best_of == 16

    def test_monotone_trajectory(self, pumps):
        fit = fit_mle(pumps)
        assert np.all(np.diff(fit.trajectory) >= 0.0)

    def test_ridge_data_raises_convergence_error(self):
        # at this sample size the degenerate ridge (alpha, beta -> 0 with
        # p, q -> inf) dominates every interior stationary point for this
        # seed, so no start can satisfy the stationarity criterion
        truth = BFWParams(0.5, 0.5, 2.0, 2.0)
        times = bfw_sample(2000, truth, seed=1234)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_mle(Dataset(times=times, label="synthetic"))
        assert len(excinfo.value.diagnostics) == 16

    def test_small_sample_rejected(self):
        with pytest.raises(DomainError):
            fit_mle(Dataset(times=np.array([1.0, 2.0, 3.0, 4.0])))

    def test_convergence_error_carries_diagnostics(self, pumps, monkeypatch):
        monkeypatch.setattr(inference, "_MAX_ITER", 1)
        config = OptimizerConfig(starts=2, score_tol=1e-16)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_mle(pumps, config)
        assert len(excinfo.value.diagnostics) == 2

    def test_deterministic(self, pumps):
        a = fit_mle(pumps)
        b = fit_mle(pumps)
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.estimates.as_array(), b.estimates.as_array())

    def test_config_holds_the_two_settings_a_caller_varies(self):
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["starts", "score_tol"]

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_score_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(DomainError, match="score tolerance"):
            OptimizerConfig(score_tol=tol)

    def test_at_least_one_start(self):
        with pytest.raises(DomainError, match="at least one start"):
            OptimizerConfig(starts=0)

    @pytest.mark.parametrize("starts", [2.5, 3.0, np.float64(3.0), True, False, "3", None])
    def test_start_count_must_be_an_integer(self, starts):
        with pytest.raises(DomainError, match="at least one start"):
            OptimizerConfig(starts=starts)

    def test_numpy_integer_start_count_fits(self, pumps):
        fit = fit_mle(pumps, OptimizerConfig(starts=np.int64(3)))
        assert fit.multistart_best_of == 3


def weibull_reference(x, theta):
    """Scale-form Weibull log-likelihood, score and information, term by term."""
    k, s = theta
    n = x.size
    z = x / s
    lz = np.log(z)
    zk = z**k
    ll = np.sum(np.log(k / s) + (k - 1.0) * lz - zk)
    grad = np.array([n / k + np.sum(lz) - np.sum(zk * lz), k / s * (np.sum(zk) - n)])
    i_ks = (n - np.sum(zk) - k * np.sum(zk * lz)) / s
    info = np.array([[n / k**2 + np.sum(zk * lz**2), i_ks],
                     [i_ks, k * ((k + 1.0) * np.sum(zk) - n) / s**2]])
    return ll, grad, info


def bfw_reference(x, theta):
    data, params = Dataset(times=x), BFWParams(*theta)
    return log_likelihood(data, params), score(data, params), observed_information(data, params)


def fw_reference(x, theta):
    ll, grad, info = bfw_reference(x, (theta[0], theta[1], 1.0, 1.0))
    return ll, grad[:2], info[:2, :2]


def bfw_profiled(x, theta):
    """(theta, ll, grad, info) of four-parameter rows after the profile step."""
    return inference.BFW.kernel(x, theta, inference.BFW.workspace(x, len(theta)))[:4]


def kernel_rows(likelihood):
    """(ll, grad, info) from a family's kernel on one pass's own workspace."""
    return lambda x, theta: likelihood.kernel(x, theta, likelihood.workspace(x, len(theta)))[1:4]


BATCH_CASES = [
    ("bfw", inference._bfw_evaluate, bfw_reference),  # the rows as given, no profile step
    ("fw", kernel_rows(inference.FW), fw_reference),
    ("weibull", kernel_rows(inference.WEIBULL), weibull_reference),
]


class TestBatchKernels:
    @pytest.mark.parametrize("name, evaluate, reference", BATCH_CASES)
    @pytest.mark.parametrize("n", [23, 1000])
    def test_rows_match_the_one_point_kernels(self, name, evaluate, reference, n):
        x = bfw_sample(n, BFWParams(0.5, 0.5, 2.0, 2.0), seed=n)
        k = 4 if name == "bfw" else 2
        theta = np.exp(np.random.default_rng(n).uniform(-1.5, 1.5, (16, k)))
        ll, grad, info = evaluate(x, theta)
        assert ll.shape == (16,) and grad.shape == (16, k) and info.shape == (16, k, k)
        for row in range(16):
            ref_ll, ref_grad, ref_info = reference(x, theta[row])
            assert ll[row] == pytest.approx(ref_ll, rel=1e-13)
            assert np.all(np.abs(grad[row] - ref_grad) <= 1e-13 * np.abs(ref_grad))
            assert np.all(np.abs(info[row] - ref_info) <= 1e-13 * np.abs(ref_info))

    @pytest.mark.parametrize("name, evaluate, reference", BATCH_CASES)
    def test_unrepresentable_row_is_minus_inf_and_isolated(self, name, evaluate, reference,
                                                          pumps):
        x = pumps.times
        k = 4 if name == "bfw" else 2
        theta = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (4, k)))
        clean = evaluate(x, theta)
        theta[2, 0] = math.inf
        dirty = evaluate(x, theta)
        assert dirty[0][2] == -math.inf
        keep = [0, 1, 3]
        for got, want in zip(dirty, clean):
            assert np.array_equal(got[keep], want[keep])

    def test_row_blocks_leave_each_row_unchanged(self):
        # n = 5000 splits 16 rows into blocks; every row equals its own evaluation
        x = bfw_sample(5000, BFWParams(0.5, 0.5, 2.0, 2.0), seed=5)
        theta = np.exp(np.random.default_rng(5).uniform(-1.0, 1.0, (16, 4)))
        rows = inference._block_rows(x.size)
        assert rows < 16
        blocked = inference._evaluate(lambda x, rows, ws: inference._bfw_evaluate(x, rows), x,
                                      theta, None)
        for row in range(16):
            alone = inference._bfw_evaluate(x, theta[row : row + 1])
            for got, want in zip(blocked, alone):
                assert np.array_equal(got[row], want[0])
        # so does every profiled row, and every fw row, through one fit's
        # workspace while the active set shrinks from 16 rows to 5 and 1
        wide = np.exp(np.random.default_rng(6).uniform(-4.0, 4.0, (16, 4)))
        for likelihood, points in ((inference.BFW, wide), (inference.FW, wide[:, :2])):
            ws = likelihood.workspace(x, rows)
            for active in (np.arange(16), np.array([1, 4, 9, 12, 15]), np.array([7])):
                passed = inference._evaluate(likelihood.kernel, x, points[active], ws)
                for i, row in enumerate(active):
                    alone = likelihood.kernel(x, points[row : row + 1], likelihood.workspace(x, 1))
                    for got, want in zip(passed, alone):
                        if want is None:
                            assert got is None
                        else:
                            assert np.array_equal(got[i], want[0], equal_nan=True), (row, i)


class TestTinyObservations:
    # at x = 1e-160, x^2 is subnormal and beta/x^2 overflows: the data pass forms
    # ln(alpha + beta/x^2) as ln beta - 2 ln x + log1p(alpha x^2/beta) there
    X = np.array([1e-160, 1.0, 2.0])
    ROWS = np.array([[0.052, 0.024, 35.077, 20.328], [0.5, 5.0, 2.0, 2.0],
                     [3.0, 1e-300, 0.7, 1.5]])

    def test_log_likelihood_is_the_summed_log_density(self, published_params):
        value = log_likelihood(Dataset(self.X), published_params)
        summed = float(np.sum(bfw_log_pdf(self.X, published_params)))
        assert summed == pytest.approx(-8.41848e159, rel=1e-5)
        assert value == pytest.approx(summed, rel=1e-15)

    def test_amplitude_sum_matches_mpmath(self):
        with np.errstate(all="ignore"):  # the data pass runs under its caller's error state
            sums = inference._bfw_sums(self.X, self.ROWS[:, 0], self.ROWS[:, 1], 0)
        with mpmath.workdps(40):
            for row, (a, b) in enumerate(self.ROWS[:, :2]):
                exact = mpmath.fsum(mpmath.log(mpmath.mpf(a) + mpmath.mpf(b) / mpmath.mpf(v) ** 2)
                                    for v in self.X)
                assert sums["amp"][row] == pytest.approx(float(exact), rel=4e-16)

    def test_kernels_match_the_summed_log_density(self):
        ll = inference._bfw_evaluate(self.X, self.ROWS)[0]
        fw = inference.FW.kernel(self.X, self.ROWS[:, :2],
                                         inference._Workspace(self.X, len(self.ROWS)))[1]
        for row in range(len(self.ROWS)):
            summed = np.sum(bfw_log_pdf(self.X, BFWParams(*self.ROWS[row])))
            assert np.isfinite(summed) and ll[row] == pytest.approx(summed, rel=1e-15)
            alpha, beta = self.ROWS[row, :2]
            summed_fw = np.sum(fw_log_pdf(self.X, FWParams(alpha, beta)))
            assert np.isfinite(summed_fw) and fw[row] == pytest.approx(summed_fw, rel=1e-15)

    def test_ordinary_data_take_the_direct_form(self, pumps):
        # no x^2 is subnormal: the amplitude sum is the direct one, bit for bit
        x = pumps.times
        assert not inference._Workspace(x, 1).tiny
        rows = np.exp(np.random.default_rng(2).uniform(-8.0, 8.0, (8, 2)))
        with np.errstate(all="ignore"):
            sums = inference._bfw_sums(x, rows[:, 0], rows[:, 1], 0)
        direct = np.add.reduce(np.log(rows[:, :1] + rows[:, 1:] / (x * x)), axis=-1)
        assert np.array_equal(sums["amp"], direct)


def mp_reference(x, theta, dps=30):
    """Log-likelihood, score and information of one (alpha, beta, p, q) row,
    term by term in mpmath at ``dps`` digits, each with an error scale for
    a double-precision evaluation: eps times the sum of |terms| plus the
    rounding of w = alpha x - beta / x propagated through each term.

    Per observation, with u = e^w, S = e^{-u}, F = 1 - S, r = u S / F and
    c = dr/dw, the additive terms are ln(alpha + beta/x^2) + w - q u +
    (p - 1) ln F for the log-likelihood; x^2/D + x - q u x + (p - 1) x r,
    1/D - 1/x + q u/x - (p - 1) r/x, psi(p+q) - psi(p) + ln F and
    psi(p+q) - psi(q) - u for the score (D = beta + alpha x^2); and the
    negative second derivatives of those for the information.
    """
    with mpmath.workdps(dps):
        a, b, p, q = (mpmath.mpf(float(v)) for v in theta)
        ll = mpmath.mpf(0)
        grad = [mpmath.mpf(0)] * 4
        info = [[mpmath.mpf(0)] * 4 for _ in range(4)]
        ll_scale, grad_scale, info_scale = mpmath.mpf(0), [mpmath.mpf(0)] * 4, mpmath.mpf(0)
        psi = [mpmath.digamma(s) for s in (p + q, p, q)]
        tri = [mpmath.polygamma(1, s) for s in (p + q, p, q)]
        norm = mpmath.loggamma(p + q) - mpmath.loggamma(p) - mpmath.loggamma(q)
        for xi in x:
            xi = mpmath.mpf(float(xi))
            w = a * xi - b / xi
            w_err = abs(a * xi) + abs(b / xi)  # rounding scale of w, divided by eps
            u = mpmath.exp(w)
            s = mpmath.exp(-u)
            f = -mpmath.expm1(-u)
            ln_f = mpmath.log(f) if s > 0.5 else mpmath.log1p(-s)
            r = u * s / f
            if u < mpmath.mpf("1e-5"):
                c = -u / 2 + u**2 / 6 - u**4 / 180 + u**6 / 5040
            else:
                with mpmath.workdps(dps + 20):
                    c = r * (f - u) / f
            d = b + a * xi**2
            terms = [norm, mpmath.log(a + b / xi**2), w, -q * u, (p - 1) * ln_f]
            ll += mpmath.fsum(terms)
            ll_scale += mpmath.fsum(abs(t) for t in terms) + abs(1 - q * u + (p - 1) * r) * w_err
            score_terms = [
                [xi**2 / d, xi, -q * u * xi, (p - 1) * xi * r],
                [1 / d, -1 / xi, q * u / xi, -(p - 1) * r / xi],
                [psi[0], -psi[1], ln_f],
                [psi[0], -psi[2], -u],
            ]
            score_dw = [-q * u * xi + (p - 1) * xi * c, q * u / xi - (p - 1) * c / xi, r, -u]
            for k in range(4):
                grad[k] += mpmath.fsum(score_terms[k])
                grad_scale[k] += (mpmath.fsum(abs(t) for t in score_terms[k])
                                  + abs(score_dw[k]) * w_err)
            x2 = xi**2
            pieces = {
                (0, 0): [x2**2 / d**2, q * u * x2, -(p - 1) * x2 * c],
                (0, 1): [x2 / d**2, -q * u, (p - 1) * c],
                (0, 2): [-xi * r], (0, 3): [xi * u],
                (1, 1): [1 / d**2, q * u / x2, -(p - 1) * c / x2],
                (1, 2): [r / xi], (1, 3): [-u / xi],
                (2, 2): [tri[1], -tri[0]], (2, 3): [-tri[0]], (3, 3): [tri[2], -tri[0]],
            }
            for (j, k), part in pieces.items():
                info[j][k] += mpmath.fsum(part)
                info_scale += mpmath.fsum(abs(t) for t in part) * (1 + w_err)
        for j in range(4):
            for k in range(j):
                info[j][k] = info[k][j]
        return (float(ll), np.array([float(v) for v in grad]),
                np.array([[float(v) for v in row] for row in info]),
                float(ll_scale), np.array([float(v) for v in grad_scale]), float(info_scale))


# (alpha, beta, p, q) rows for the pump data: the published estimates; e^w
# below the 1e-2 series switch at the smallest times; e^w ~ 720 (survival
# subnormal) and ~ 1300 (survival zero) at the largest; p < 1
KERNEL_ROWS = [
    (0.052, 0.024, 35.077, 20.328),
    (0.5, 0.5, 2.0, 2.0),
    (1.0145, 0.5, 2.0, 0.5),
    (1.1, 0.5, 2.0, 0.5),
    (0.3, 2.0, 0.4, 3.0),
]
# where starts of fit_mle(pumps) stop on the iteration budget (ln theta),
# a row whose e^w terms overflow (log-likelihood -inf), and rows whose largest
# w is 705.05 (e^w finite, log-likelihood -1.5786e306) and 787 (e^w and the
# log-likelihood overflow)
EXTREME_ROWS = [
    tuple(np.exp([14.7264, 18.4884, -19.6947, -16.4752])),
    tuple(np.exp([14.9946, 18.7566, -19.971, -16.879])),
    tuple(np.exp([3.1828, 4.5339, -5.4687, -94.713])),
    tuple(np.exp([3.8543, -6.1362, 1.0074, -94.8592])),
    (3.0, 1.0, 2.0, 1e300),
    (107.5, 1.0, 2.0, 1.0),
    (120.0, 1.0, 2.0, 1.0),
]


class TestKernelAgainstMpmath:
    def test_rows_reach_the_tail_regimes(self, pumps):
        x = pumps.times
        ew = [np.exp(a * x - b / x) for a, b, _, _ in KERNEL_ROWS]
        assert np.any(ew[1] < 1e-2)
        assert np.any((ew[2] > 708.4) & (ew[2] < 745.0)) and np.any(ew[3] > 745.0)

    def test_reference_derivatives_match_mpmath_diff(self, pumps, published_params):
        x = pumps.times[::4]
        theta = published_params.as_array()
        _, grad, info, *_ = mp_reference(x, theta)
        with mpmath.workdps(30):
            point = [mpmath.mpf(float(v)) for v in theta]

            def loglik(a, b, p, q):
                total = len(x) * (mpmath.loggamma(p + q) - mpmath.loggamma(p)
                                  - mpmath.loggamma(q))
                for xi in x:
                    xi = mpmath.mpf(float(xi))
                    w = a * xi - b / xi
                    total += (mpmath.log(a + b / xi**2) + w - q * mpmath.exp(w)
                              + (p - 1) * mpmath.log(-mpmath.expm1(-mpmath.exp(w))))
                return total

            for j in range(4):
                order = tuple(int(i == j) for i in range(4))
                assert float(mpmath.diff(loglik, point, order)) == pytest.approx(grad[j],
                                                                                rel=1e-12)
                for k in range(j, 4):
                    order = tuple(int(i == j) + int(i == k) for i in range(4))
                    assert -float(mpmath.diff(loglik, point, order)) == pytest.approx(
                        info[j, k], rel=1e-10)

    @pytest.mark.parametrize("theta", KERNEL_ROWS)
    def test_kernel_matches_the_reference(self, pumps, theta):
        ll, grad, info = inference._bfw_evaluate(pumps.times, np.array([theta]))
        ref_ll, ref_grad, ref_info, ll_scale, grad_scale, info_scale = mp_reference(
            pumps.times, theta)
        eps = np.finfo(float).eps
        assert abs(ll[0] - ref_ll) <= 16 * eps * ll_scale
        assert np.all(np.abs(grad[0] - ref_grad) <= 16 * eps * grad_scale)
        assert np.all(np.abs(info[0] - ref_info) <= 16 * eps * info_scale)

    @pytest.mark.parametrize("theta", EXTREME_ROWS)
    def test_extreme_rows_are_finite_exactly_where_the_reference_is(self, pumps, theta):
        ll, grad, info = inference._bfw_evaluate(pumps.times, np.array([theta]))
        ref_ll, ref_grad, ref_info, ll_scale, grad_scale, info_scale = mp_reference(
            pumps.times, theta)
        assert np.isfinite(ll[0]) == np.isfinite(ref_ll)
        if np.isfinite(ref_ll):
            eps = np.finfo(float).eps
            assert abs(ll[0] - ref_ll) <= 16 * eps * ll_scale
            assert np.all(np.abs(grad[0] - ref_grad) <= 16 * eps * grad_scale)
            assert np.all(np.abs(info[0] - ref_info) <= 16 * eps * info_scale)
        else:
            assert ll[0] == -math.inf



class TestBetaNormalizerInKernel:
    # where start 7 of fit_mle(pumps) stopped at the gammaln-difference kernel (ln theta),
    # which reported log-likelihood +209.2 there
    START7 = tuple(np.exp([0.459, 9.404, -10.588, 74.351]))

    def test_start7_point_matches_mpmath(self, pumps):
        ll, grad, info = inference._bfw_evaluate(pumps.times, np.array([self.START7]))
        ref_ll, ref_grad, ref_info, ll_scale, grad_scale, info_scale = mp_reference(
            pumps.times, self.START7, dps=90)
        assert ref_ll == pytest.approx(-34.24, abs=5e-3)
        eps = np.finfo(float).eps
        assert abs(ll[0] - ref_ll) <= 16 * eps * ll_scale
        assert np.all(np.abs(grad[0] - ref_grad) <= 16 * eps * grad_scale)
        assert np.all(np.abs(info[0] - ref_info) <= 16 * eps * info_scale)


def gammaln_kernel(x, theta):
    """One row by the formulas of the gammaln-difference kernel: the
    normalizer gammaln(p+q) - gammaln(p) - gammaln(q), the shape terms as
    direct digamma and trigamma differences, each sum over the data in
    float; with the sum of |terms| of each output as its rounding scale."""
    a, b, p, q = theta
    n = x.size
    w = a * x - b / x
    u = np.exp(w)
    s = np.exp(-u)
    f = -np.expm1(-u)
    ln_f = np.where(u < math.log(2.0), np.log(f), np.log1p(-s))
    r = u * s / f
    c = np.where(u < 1e-2, -u / 2 + u**2 / 6 - u**4 / 180 + u**6 / 5040, r * ((1 - u) - s) / f)
    d = b + a * x * x
    norm = sp.gammaln(p + q) - sp.gammaln(p) - sp.gammaln(q)
    psi = sp.psi([p + q, p, q])
    tri = sp.polygamma(1, [p + q, p, q])
    ll_terms = [n * norm, np.log(a + b / x**2), w, -q * u, (p - 1) * ln_f]
    score_terms = [
        [x * x / d, x, -q * u * x, (p - 1) * x * r],
        [1 / d, -1 / x, q * u / x, -(p - 1) * r / x],
        [n * psi[0], -n * psi[1], ln_f],
        [n * psi[0], -n * psi[2], -u],
    ]
    x2 = x * x
    info_terms = {
        (0, 0): [x2 * x2 / d**2, q * u * x2, -(p - 1) * x2 * c],
        (0, 1): [x2 / d**2, -q * u, (p - 1) * c], (0, 2): [-x * r], (0, 3): [x * u],
        (1, 1): [1 / d**2, q * u / x2, -(p - 1) * c / x2], (1, 2): [r / x], (1, 3): [-u / x],
        (2, 2): [n * tri[1], -n * tri[0]], (2, 3): [-n * tri[0]], (3, 3): [n * tri[2], -n * tri[0]],
    }

    def total(terms):
        return sum(float(np.sum(t)) for t in terms), sum(float(np.sum(np.abs(t))) for t in terms)

    ll, ll_scale = total(ll_terms)
    grad, grad_scale = np.array([total(t) for t in score_terms]).T
    info, info_scale = np.zeros((4, 4)), np.zeros((4, 4))
    for (j, k), terms in info_terms.items():
        info[j, k], info_scale[j, k] = total(terms)
        info[k, j], info_scale[k, j] = info[j, k], info_scale[j, k]
    return ll, grad, info, ll_scale, grad_scale, info_scale


class TestSplitKernel:
    def test_public_functions_match_the_gammaln_kernel(self, rng):
        # 30 (data, probe) pairs with moderate shapes, where the gammaln normalizer is exact
        for _ in range(30):
            data, probe = random_instance(rng)
            ref_ll, ref_grad, ref_info, ll_scale, grad_scale, info_scale = gammaln_kernel(
                data.times, probe.as_array())
            assert abs(log_likelihood(data, probe) - ref_ll) <= 1e-13 * ll_scale
            assert np.all(np.abs(score(data, probe) - ref_grad) <= 1e-13 * grad_scale)
            assert np.all(np.abs(observed_information(data, probe) - ref_info)
                          <= 1e-13 * info_scale)

    @pytest.mark.parametrize("theta", KERNEL_ROWS + EXTREME_ROWS[:4])
    def test_one_pass_assembles_at_any_shapes(self, pumps, theta):
        # the sums of one data pass, assembled at other (p, q), give the evaluation there
        x = pumps.times
        sums = inference._bfw_sums(x, np.array([theta[0]]), np.array([theta[1]]), 2)
        for p, q in [(theta[2], theta[3]), (0.3, 7.0), (40.0, 1e-3), (2e-9, 3e5)]:
            assembled = inference._bfw_assemble(sums, np.array([p]), np.array([q]), 2)
            direct = inference._bfw_evaluate(x, np.array([[theta[0], theta[1], p, q]]))
            for got, want in zip(assembled, direct):
                assert np.array_equal(got, want, equal_nan=True)

    def test_profiled_rows_are_independent(self):
        # n = 5000 splits 16 rows into blocks; every profiled row equals its own evaluation
        x = bfw_sample(5000, BFWParams(0.5, 0.5, 2.0, 2.0), seed=5)
        theta = np.exp(np.random.default_rng(5).uniform(-4.0, 4.0, (16, 4)))
        blocked = inference._evaluate(inference.BFW.kernel, x, theta,
                                      inference.BFW.workspace(x, inference._block_rows(x.size)))
        assert len(blocked) == 5
        for row in range(16):
            alone = inference.BFW.kernel(x, theta[row : row + 1], inference.BFW.workspace(x, 1))
            for got, want in zip(blocked, alone):
                assert np.array_equal(got[row], want[0])


def beta_residuals(n, t, shapes):
    """The Beta likelihood equations n [psi(p+q) - psi(p)] + t1 and
    n [psi(p+q) - psi(q)] + t2 at (p, q) by 50-digit mpmath, relative to
    |t1| and |t2|."""
    with mpmath.workdps(50):
        p, q = (mpmath.mpf(float(v)) for v in shapes)
        s = mpmath.digamma(p + q)
        return (float((n * (s - mpmath.digamma(p)) + t[0]) / abs(t[0])),
                float((n * (s - mpmath.digamma(q)) + t[1]) / abs(t[1])))


class TestProfileStep:
    N = 23

    def profile(self, t, shapes):
        t = np.array(t, dtype=float).reshape(2, -1)
        shapes = np.array(shapes, dtype=float).reshape(2, -1)
        return inference._profile_shapes(self.N, t, shapes)[0]

    @pytest.mark.parametrize("a, b", [(1e6, 3e5), (1e8, 1e8), (1e4, 1e9), (3e3, 2e4)])
    def test_small_shape_solution_solves_the_likelihood_equations(self, a, b):
        # with -t/n = (a, b) large the shapes are small and psi(x) ~ -1/x - gamma is
        # exact up to terms of order p + q
        t = (-a * self.N, -b * self.N)
        p, q = self.profile(t, (1.0, 1.0))[:, 0]
        assert (p, q) == pytest.approx((1 / (a + math.sqrt(a * b)), 1 / (b + math.sqrt(a * b))))
        residuals = beta_residuals(self.N, t, (p, q))
        assert max(map(abs, residuals)) <= p + q

    @pytest.mark.parametrize("g1, g2", [(0.5, 0.49), (0.3, 0.6999), (0.9, 0.0999999)])
    def test_large_shape_solution_solves_the_likelihood_equations(self, g1, g2):
        # geometric means (g1, g2) of y and 1 - y summing to just under 1: both shapes
        # large, where psi(x) ~ ln(x - 1/2) is exact up to terms of order 1/x^2
        t = (self.N * math.log(g1), self.N * math.log(g2))
        p, q = self.profile(t, (1.0, 1.0))[:, 0]
        residuals = beta_residuals(self.N, t, (p, q))
        assert max(map(abs, residuals)) <= 1.0 / min(p, q) ** 2

    def test_rows_without_a_beta_maximum_keep_their_shapes(self):
        shapes = np.array([[0.7, 2.0, 3.0, 0.1], [1.3, 0.5, 0.2, 9.0]])
        t = np.array([[-0.01, -0.2, math.nan, -5.0], [-0.01, -0.1, -1.0, math.inf]]) * self.N
        # exp(t1/n) + exp(t2/n) >= 1 in the first two rows, sums not finite in the others
        with np.errstate(all="ignore"):  # the step runs under its caller's error state
            assert np.array_equal(inference._profile_shapes(self.N, t, shapes)[0], shapes)

    def test_never_lowers_the_log_likelihood(self, pumps, benchmark_panel):
        rng = np.random.default_rng(3)
        datasets = [pumps.times] + [data.times for label, data, _ in benchmark_panel
                                    if label.endswith("-0")]
        for x in datasets:
            theta = np.exp(rng.uniform(-8.0, 8.0, (64, 4)))
            moved, ll, _, _ = bfw_profiled(x, theta)
            before = inference._bfw_evaluate(x, theta)[0]
            assert np.array_equal(moved[:, :2], theta[:, :2])
            slack = 4 * np.finfo(float).eps * (1.0 + np.abs(before))
            assert np.all(ll >= before - slack)
            assert np.any(ll > before + 1.0)  # and it does move rows

    def test_ends_the_ln_q_crawl(self, pumps):
        # a row where -q sum e^w dominates: a Newton step in ln q is -1 per pass,
        # the profile step lands at q ~ n / sum e^w at once
        theta = np.exp([[3.1828, 4.5339, -5.4687, 5.0]])
        before = inference._bfw_evaluate(pumps.times, theta)[0][0]
        moved, ll, _, _ = bfw_profiled(pumps.times, theta)
        assert before < -1e60
        assert ll[0] > -1e4
        assert np.log(moved[0, 3]) < -80.0

    def test_two_parameter_families_unchanged(self, pumps, benchmark_panel):
        # (log-likelihood, natural parameters) of the fw and Weibull fits, as the
        # gammaln-difference kernel gave them; these families have no profile step
        pinned = {
            "pumps": ((-30.382906584468707, 0.20710404104962474, 0.25875975057135986),
                      (-32.51392123580808, 0.8077346872432372, 1.3915044911730003)),
            "anchor0-n50-0": ((-50.09020119344049, 0.2335164931069064, 0.18595701706652534),
                              (-63.73682302192745, 0.7315647053124348, 1.180582694301357)),
            "anchor1-n50-0": ((-33.98910678515614, 0.6790402629623882, 0.7434816828217875),
                              (-37.036309217275026, 1.6376805583373537, 1.027134487420465)),
            "anchor0-n200-0": ((-305.65558591779825, 0.19652424043508143, 0.27236260129017903),
                               (-327.47353893966397, 0.8510185612014594, 1.7809907417218305)),
            "anchor1-n200-0": ((-120.24744633803911, 0.7378378264395862, 0.6915975286378183),
                               (-129.3169990944265, 1.6540259826756574, 0.9429398741197246)),
            "anchor0-n1000-0": ((-1266.6849803004316, 0.2054031493116951, 0.2244600137878144),
                                (-1437.7841809516754, 0.7797966528773362, 1.4152927253617198)),
            "anchor1-n1000-0": ((-555.5903785402681, 0.80983506562856, 0.7409066021246191),
                                (-604.1553261306559, 1.7624640641695883, 0.9417497383284981)),
        }
        datasets = {"pumps": pumps}
        datasets.update({label: data for label, data, _ in benchmark_panel if label.endswith("-0")})
        for label, data in datasets.items():
            for family, want in zip(("fw", "weibull"), pinned[label]):
                fit = model_selection.get_family(family).fit(data)
                got = (fit.log_likelihood, *fit.estimates)
                assert got == pytest.approx(want, rel=1e-12), (label, family)


class TestCrawlRegression:
    def test_every_pumps_start_ends_near_the_data(self, pumps):
        # the gammaln kernel without the profile step left two starts at
        # -2.5e21 and -1.8e93 after the full 100 passes
        fit = fit_mle(pumps)
        assert min(d.log_likelihood for d in fit.starts) > -1e3

    def test_kernel_passes_stay_bounded(self, pumps, panel_fits):
        # summed kernel passes of all starts; 917 on pumps and 17957 on the panel
        # without the profile step, 485 and 12142 without retirement, 422 and 9517
        # without the ridge signatures.  The loop runs as long as its slowest
        # start: 95 passes on pumps without the signatures, whose ridge A walkers
        # (starts 13 and 15) outlasted every converging start by 57 passes
        starts = fit_mle(pumps).starts
        assert sum(d.evaluations for d in starts) <= 371
        assert max(d.evaluations for d in starts) <= 67
        total = 0
        for fit in panel_fits.values():
            starts = fit.diagnostics if isinstance(fit, ConvergenceError) else fit.starts
            total += sum(d.evaluations for d in starts)
        assert total <= 8289

    def test_far_shape_optimum_is_no_lower(self, benchmark_draws, panel_fits):
        # panel draw anchor1-n200-2 converges at q ~ 9e5, where betaln rounds by some
        # 1e-9 relative, below the kernel's own resolution: the fit's estimates must
        # be no lower by 60-digit mpmath than those of the gammaln kernel without the
        # profile step (its log-likelihood reads 8.0e-10 relative higher in floats)
        before = (1.0770496063902957, 33.376569801978306, 0.024385548138666835, 911429.2230166916)
        data = benchmark_draws["anchor1-n200-2"][0]
        fit = panel_fits["anchor1-n200-2"]
        after = mp_reference(data.times, fit.estimates.as_array(), dps=60)[0]
        assert after >= mp_reference(data.times, before, dps=60)[0]


class TestBatchedNewton:
    def test_panel_converges_above_the_truth_or_raises(self, benchmark_panel, panel_fits):
        outcomes = []
        for label, data, truth in benchmark_panel:
            fit = panel_fits[label]
            if isinstance(fit, ConvergenceError):
                exc = fit
                assert [d.index for d in exc.diagnostics] == list(range(16)), label
                outcomes.append("raised")
                continue
            assert np.max(np.abs(fit.score_at_optimum)) <= 1e-6, label
            assert fit.log_likelihood >= log_likelihood(data, truth) - 1e-6, label
            outcomes.append("converged")
        assert outcomes.count("converged") >= 12

    def test_start_diagnostics_explain_each_stop(self, pumps):
        config = OptimizerConfig()
        fit = fit_mle(pumps, config)
        reasons = {"converged", "iteration budget", "step rejected", "log-likelihood, score",
                   "retired"}
        for diag in fit.starts:
            assert any(diag.message.startswith(reason) for reason in reasons)
            assert diag.converged == diag.message.startswith("converged")
            assert diag.iterations < diag.evaluations <= inference._MAX_ITER + 1
        best = [d for d in fit.starts if d.converged and d.log_likelihood == fit.log_likelihood]
        assert fit.iterations == best[0].iterations

    def test_budget_bounds_kernel_passes(self, pumps, monkeypatch):
        monkeypatch.setattr(inference, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_mle(pumps)
        for diag in excinfo.value.diagnostics:
            assert diag.evaluations == 4
            assert diag.message == "iteration budget exhausted"

    def test_fresh_process_fit_is_bit_identical(self, pumps):
        fit = fit_mle(pumps)
        code = (
            "import bfw; f = bfw.fit_mle(bfw.ingest('pumps')); "
            "print(*(float(v).hex() for v in (*f.estimates.as_array(), f.log_likelihood)))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        expected = [float(v).hex() for v in (*fit.estimates.as_array(), fit.log_likelihood)]
        assert out.stdout.split() == expected


# Outcome of every fit (None: ConvergenceError) and its best log-likelihood,
# recorded before starts were retired: retirement changes neither
RECORDED_FITS = {
    "pumps": "-0x1.d5f9bc961a6c0p+4",
    "anchor0-n50-0": "-0x1.7ccd462ecb280p+5",
    "anchor0-n50-1": "-0x1.060429cb38a74p+6",
    "anchor0-n50-2": None,
    "anchor1-n50-0": None,
    "anchor1-n50-1": "-0x1.f66620207a6d8p+4",
    "anchor1-n50-2": "-0x1.89f068ed401f4p+4",
    "anchor0-n200-0": "-0x1.293c6557966c4p+8",
    "anchor0-n200-1": "-0x1.0905b4d676b58p+8",
    "anchor0-n200-2": None,
    "anchor1-n200-0": "-0x1.d348977a8d39cp+6",
    "anchor1-n200-1": None,
    "anchor1-n200-2": "-0x1.c3325173ec400p+6",
    "anchor0-n1000-0": "-0x1.379162981af00p+10",
    "anchor0-n1000-1": "-0x1.3e23cacfef4d8p+10",
    "anchor0-n1000-2": "-0x1.4a0ede9774400p+10",
    "anchor1-n1000-0": "-0x1.0df52c456d8e0p+9",
    "anchor1-n1000-1": "-0x1.1feae8dd781a5p+9",
    "anchor1-n1000-2": "-0x1.36f6d2b9ab9ccp+9",
    "fresh7-0": "-0x1.81b01c8cb5c35p+5",
    "fresh7-1": "-0x1.fc48ea927d920p+4",
    "fresh7-2": "-0x1.b5177a64ce664p+6",
    "fresh7-3": "-0x1.52738f91638d0p+5",
    "fresh7-4": "0x1.d39034aef9eacp+7",
    "fresh7-5": None,
    "fresh7-6": "-0x1.2b34a6b35ab98p+8",
    "fresh7-7": "-0x1.fd3dbd0381280p+7",
    "fresh7-8": "0x1.d1f6e50e57270p+10",
    "fresh7-9": "-0x1.8c0cb5794fe48p+10",
    "fresh7-10": "0x1.703e46c98b552p+3",
    "fresh7-11": None,
    "fresh7-12": None,
    "fresh7-13": "-0x1.dc391ec45d228p+5",
    "fresh7-14": "0x1.06022395eab00p+5",
    "fresh7-15": "-0x1.ce2e3fdc5a200p+4",
    "fresh7-16": "-0x1.d6122255b7990p+8",
    "fresh7-17": "-0x1.7691ab6f6ca70p+3",
    "fresh7-18": "0x1.eae353d83c4e0p+10",
    "fresh7-19": "-0x1.cd2948878136ap+9",
    "fresh7-20": None,
    "fresh7-21": "-0x1.7886fd8057532p+4",
    "fresh7-22": None,
    "fresh7-23": None,
}

# (draw, start, message) of one benchmark panel start per retirement trigger
RETIRED_STARTS = [
    # walks to beta ~ 1e21, where sum w and (p - 1) sum ln F cancel to ll = 0.0
    ("anchor1-n5000-0", 0, "retired: log-likelihood rounding error"),
    # -q sum e^w ~ -1e79 at the start, while every ln F rounds to nearly 0
    ("anchor1-n1000-2", 10, "retired: the ln q crawl cannot finish"),
    # ends at the fit's -111.38 "step rejected at the largest damping"
    ("anchor1-n200-1", 7, "retired: log-likelihood flat"),
    # the three boundary limits; 50, 34 and 101 kernel passes without their signatures
    ("anchor0-n50-3", 7, "retired: on ridge A"),
    ("anchor0-n50-2", 4, "retired: on ridge B"),
    ("anchor1-n50-2", 9, "retired: on the q -> inf limit"),
]


class TestRetirement:
    def test_each_start_alone_matches_the_batch(self, pumps, benchmark_draws):
        # rows never interact, so a start runs the same alone, diagnostics and all,
        # in every family and when the batch is evaluated in row blocks (n = 5000:
        # blocks of 6 rows); before the Gauss sums of the psi gaps were an explicit
        # node sum, pumps start 10 read -29.373470865574575 in the batch and
        # -29.37347086557469 alone
        large = benchmark_draws["anchor1-n5000-0"][0].times
        config = OptimizerConfig()
        for likelihood, x in ((inference.BFW, pumps.times), (inference.FW, pumps.times),
                              (inference.WEIBULL, pumps.times), (inference.BFW, large)):
            z0 = likelihood.starts(config)
            batch = inference._newton(likelihood, x, z0, config)
            for i in range(len(z0)):
                alone = inference._newton(likelihood, x, z0[i : i + 1], config)
                for got, want in zip(alone[:7], batch[:7]):  # theta, ll, ..., evaluations
                    assert np.array_equal(got[0], want[i]), (likelihood.kernel.__name__, x.size, i)
                assert alone[7][0] == batch[7][i]  # the trajectory
                assert alone[8][0] == batch[8][i]
        assert inference._block_rows(large.size) < len(inference.BFW.starts(config))

    def test_fits_match_the_record(self, pumps_fit, panel_fits, fresh_fits):
        fits = {"pumps": pumps_fit, **panel_fits, **fresh_fits}
        got = {label: None if isinstance(fit, ConvergenceError) else float(fit.log_likelihood).hex()
               for label, fit in fits.items()}
        assert got == RECORDED_FITS

    @pytest.mark.parametrize("label, start, message", RETIRED_STARTS)
    def test_trigger_retires_a_start_that_cannot_converge(self, benchmark_draws, monkeypatch,
                                                           label, start, message):
        x = benchmark_draws[label][0].times
        config = OptimizerConfig()
        z0 = inference.BFW.starts(config)[start : start + 1]
        retired = inference._newton(inference.BFW, x, z0, config)
        assert retired[4][0] == inference._RETIRED
        assert retired[8][0].startswith(message)
        # without retirement the same start runs to the budget or to rejection
        monkeypatch.setattr(inference, "_RETIRE_AFTER", inference._MAX_ITER + 1)
        kept = inference._newton(inference.BFW, x, z0, config)
        assert kept[4][0] in (inference._BUDGET, inference._REJECTED)
        assert retired[6][0] < kept[6][0]

    def test_budget_stop_wins_on_the_same_pass(self, benchmark_draws, monkeypatch):
        # the flat walker of RETIRED_STARTS retires on its last pass; a budget
        # one trial step smaller ends it on that same pass
        x = benchmark_draws["anchor1-n200-1"][0].times
        config = OptimizerConfig()
        z0 = inference.BFW.starts(config)[7:8]
        passes = inference._newton(inference.BFW, x, z0, config)[6][0]
        monkeypatch.setattr(inference, "_MAX_ITER", passes - 1)
        stop = inference._newton(inference.BFW, x, z0, config)[4][0]
        assert stop == inference._BUDGET

    def test_two_parameter_families_retire_nothing(self, pumps, panel_fits):
        # they report no walk terms, so their starts stop as before
        for family in ("fw", "weibull"):
            fit = model_selection.get_family(family).fit(pumps)
            assert not any(d.message.startswith("retired") for d in fit.starts)
        retired = sum(d.message.startswith("retired")
                      for fit in panel_fits.values() if not isinstance(fit, ConvergenceError)
                      for d in fit.starts)
        assert retired > 0


# every start of the two n = 5000 draws of the benchmark's fit panel, the only
# ones that split their 16 rows into kernel blocks: (log-likelihood, score
# sup-norm, accepted steps, kernel passes, message), recorded while every
# pass allocated fresh temporaries; anchor0-n5000-0 raises ConvergenceError.
# Its 13 starts retired on ridge B were re-recorded when the ridge signatures
# came in; before, 12 ended "step rejected" after 39-66 passes and start 1
# retired on rounding after 34.
CONVERGED, REJECTED, NONFINITE = (inference._STOP_MESSAGES[code] for code in (
    inference._CONVERGED, inference._REJECTED, inference._NONFINITE))
ROUNDING, CRAWL, FLAT, RIDGE_A, RIDGE_B, Q_LIMIT = inference._RETIRE_MESSAGES
LARGE_DRAW_STARTS = {
    "anchor0-n5000-0": [
        ("-0x1.8cf59f54b0000p+12", "0x1.d9a2c19800000p+7", 18, 19, RIDGE_B),
        ("-0x1.8cf5ad45f4000p+12", "0x1.abe6864c00000p+8", 17, 18, RIDGE_B),
        ("-0x1.8cf5a3d630000p+12", "0x1.c5a3df3e00000p+8", 31, 38, RIDGE_B),
        ("-0x1.8cf5aea470000p+12", "0x1.a5ed9b9400000p+8", 27, 35, RIDGE_B),
        ("-0x1.8cf5ad3248000p+12", "0x1.a637a85600000p+8", 17, 18, RIDGE_B),
        ("-0x1.c3b6f10000000p+12", "0x1.0ce75a9fbe000p+29", 20, 27, ROUNDING),
        ("-0x1.8cf5aa4020000p+12", "0x1.aff81c2400000p+8", 21, 25, RIDGE_B),
        ("-0x1.8cf5a33ad8000p+12", "0x1.bdcb73a000000p+8", 26, 33, RIDGE_B),
        ("-0x1.8cf5a42830000p+12", "0x1.8240daf500000p+9", 18, 19, RIDGE_B),
        ("-0x1.8cf59a5110000p+12", "0x1.0c6e9c9a00000p+11", 22, 23, RIDGE_B),
        ("-0x1.1309b4bf26e63p+21", "0x1.71cfbdd337c89p+15", 0, 1, NONFINITE),
        ("-0x1.8cf5a45ce8000p+12", "0x1.b5deddcc00000p+8", 24, 29, RIDGE_B),
        ("-0x1.8cf5ad2a78000p+12", "0x1.a42563c800000p+8", 17, 18, RIDGE_B),
        ("-0x1.2c8c580000000p+15", "0x1.11a6de72b1543p+57", 10, 19, ROUNDING),
        ("-0x1.8cf5abab20000p+12", "0x1.a8a83d5600000p+8", 19, 22, RIDGE_B),
        ("-0x1.8cf5a13608000p+12", "0x1.d614741800000p+8", 30, 40, RIDGE_B),
    ],
    "anchor1-n5000-0": [
        ("0x0.0p+0", "0x1.b62bf396ce3a2p+84", 26, 36, ROUNDING),
        ("-0x1.74bdf5d984558p+11", "0x1.6d70e00000000p-22", 11, 15, CONVERGED),
        ("-0x1.74bdf5d98455cp+11", "0x1.c000000000000p-38", 25, 34, CONVERGED),
        ("-0x1.74bdf5d984556p+11", "0x1.80ba000000000p-28", 23, 35, CONVERGED),
        ("-0x1.74bdf5d98455ap+11", "0x1.ed79000000000p-27", 19, 27, CONVERGED),
        ("-0x1.74bdf5d984556p+11", "0x1.efce000000000p-26", 18, 19, CONVERGED),
        ("-0x1.74bdf5d98455cp+11", "0x1.3f80000000000p-34", 19, 23, CONVERGED),
        ("-0x1.751cad2b58e40p+11", "0x1.01f2f6bde1600p+2", 29, 32, FLAT),
        ("-0x1.74bdf5d984558p+11", "0x1.bd00000000000p-33", 23, 32, CONVERGED),
        ("-0x1.74bdf5d984559p+11", "0x1.a382240000000p-21", 16, 20, CONVERGED),
        ("-0x1.4b1e1fdec13dep+242", "0x1.dc12ede0aaa6bp+255", 13, 14, CRAWL),
        ("-0x1.74bdf5d984558p+11", "0x1.4b9e000000000p-26", 10, 13, CONVERGED),
        ("-0x1.74bdf5d984558p+11", "0x1.6800000000000p-35", 27, 39, CONVERGED),
        ("-0x1.74bdf5d98455dp+11", "0x1.7100000000000p-31", 24, 31, CONVERGED),
        ("-0x1.74bdf5d984554p+11", "0x1.6580000000000p-32", 11, 14, CONVERGED),
        ("-0x1.751cad2b58dd0p+11", "0x1.01f2f68a3da00p+2", 28, 30, FLAT),
    ],
}


def start_records(fit):
    """(log-likelihood, score sup-norm, iterations, evaluations, message) of
    every start of a :func:`fit_or_error` result, floats as hex."""
    starts = fit.diagnostics if isinstance(fit, ConvergenceError) else fit.starts
    return [(float(d.log_likelihood).hex(), float(d.score_inf_norm).hex(), d.iterations,
             d.evaluations, d.message) for d in starts]


def fit_record(fit):
    """Everything a :func:`fit_or_error` result reports, floats as hex."""
    if isinstance(fit, ConvergenceError):
        return start_records(fit)
    arrays = (fit.estimates.as_array(), fit.score_at_optimum, fit.observed_information)
    return (float(fit.log_likelihood).hex(), [float(v).hex() for a in arrays for v in a.ravel()],
            start_records(fit))


class TestWorkspace:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_fewer_rows_after_a_full_pass_match_a_fresh_workspace(self, pumps, rows):
        # a pass writes the leading rows of the workspace's buffers and the sums
        # array of its row count: after a 16-row pass, a pass of fewer rows gives
        # what a fresh workspace gives whose buffers and sums hold NaN, so it
        # reads nothing the longer pass left and nothing it did not write itself
        x = pumps.times
        theta = np.exp(inference.BFW.starts(OptimizerConfig()))
        part = theta[-rows:]

        def fresh(tails):
            ws = inference._Workspace(x, rows)
            ws.floats.fill(np.nan)
            for order in range(3):
                ws.sums(rows, order, tails)
            ws.totals[rows].fill(np.nan)
            return ws

        used = inference._Workspace(x, len(theta))
        for tails in (True, False):
            with np.errstate(all="ignore"):
                inference._bfw_sums(x, theta[:, 0], theta[:, 1], 2, used, tails)
                got = {name: np.copy(value) for name, value in
                       inference._bfw_sums(x, part[:, 0], part[:, 1], 2, used, tails).items()
                       if name != "all"}
                want = inference._bfw_sums(x, part[:, 0], part[:, 1], 2, fresh(tails), tails)
            assert got.keys() == want.keys() - {"all"}
            for name in got:
                assert np.array_equal(got[name], want[name], equal_nan=True), (tails, name)
        for likelihood, params, tails in ((inference.BFW, theta, True),
                                          (inference.FW, theta[:, :2], False)):
            likelihood.kernel(x, params, used)
            got = likelihood.kernel(x, params[-rows:], used)
            want = likelihood.kernel(x, params[-rows:], fresh(tails))
            for a, b in zip(got, want):  # theta, ll, score, information, walk terms
                assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)

    def test_large_draws_match_the_record(self, large_fits):
        assert isinstance(large_fits["anchor0-n5000-0"], ConvergenceError)
        assert {label: start_records(fit) for label, fit in large_fits.items()} == LARGE_DRAW_STARTS

    def test_fits_in_two_threads_match_the_fits_one_after_the_other(self, benchmark_draws,
                                                                     large_fits):
        # each fit owns its workspace: nothing is shared between concurrent fits
        labels = list(large_fits)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(fit_or_error, benchmark_draws[k][0]) for k in labels]
            threaded = [future.result(timeout=120) for future in futures]
        for label, fit in zip(labels, threaded):
            assert fit_record(fit) == fit_record(large_fits[label]), label

    def test_fit_memory_stays_within_the_kernel_budget(self, benchmark_draws):
        # tracemalloc peak of one fit on an n = 5000 draw: 2,264,565 bytes while
        # every pass allocated fresh temporaries, 2.01e6 with the workspace of six
        # float buffers and one mask of 6 x 5000 elements; the bound is 2.1 MiB
        data = benchmark_draws["anchor1-n5000-0"][0]
        tracemalloc.start()
        try:
            fit_mle(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 2**20


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def diagnostics_record(d):
    """Every field of one :class:`StartDiagnostics`, floats as hex."""
    return (d.index, hexes(d.theta0), float(d.log_likelihood).hex(),
            float(d.score_inf_norm).hex(), d.converged, d.iterations, d.message, d.evaluations)


def whole_output(fit):
    """A digest of everything a fit reports: every field of the
    :class:`FitResult` and of each start's diagnostics, or the
    :class:`ConvergenceError` message with its diagnostics."""
    if isinstance(fit, ConvergenceError):
        record = (str(fit), [diagnostics_record(d) for d in fit.diagnostics])
    else:
        estimates = fit.estimates
        if isinstance(estimates, BFWParams):
            estimates = estimates.as_array()
        covariance = None if fit.covariance is None else hexes(fit.covariance)
        record = (hexes(estimates), float(fit.log_likelihood).hex(), hexes(fit.score_at_optimum),
                  hexes(fit.observed_information), covariance, float(fit.condition_number).hex(),
                  fit.converged, fit.iterations, fit.multistart_best_of, hexes(fit.trajectory),
                  [diagnostics_record(d) for d in fit.starts])
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def family_fit(data, likelihood):
    try:
        return inference.fit_family(data, likelihood)
    except ConvergenceError as exc:
        return exc


# whole_output of every fit of pumps and the benchmark's fit panel, by family
# and dataset: the four-parameter fits of the session's fixtures, the
# two-parameter fits of every draw; recorded before the Newton pass was
# trimmed of repeated work, which changes none of them
WHOLE_OUTPUTS = {
    "bfw pumps": "418ddba4128a14eb",
    "bfw anchor0-n50-0": "c72cdf1267d255f2",
    "bfw anchor0-n50-1": "dfa0de9ff2a6a6cc",
    "bfw anchor0-n50-2": "6e60d87e567bc5a8",
    "bfw anchor1-n50-0": "7275b969397093fe",
    "bfw anchor1-n50-1": "140b0cef38424482",
    "bfw anchor1-n50-2": "84ffa42d6091f461",
    "bfw anchor0-n200-0": "226ad17488a2e710",
    "bfw anchor0-n200-1": "dd20deca081ee2c6",
    "bfw anchor0-n200-2": "a6c9bb5a63350576",
    "bfw anchor1-n200-0": "3a11ccc27d637b53",
    "bfw anchor1-n200-1": "5e22eb1949c22c51",
    "bfw anchor1-n200-2": "3dde04983cd9eb59",
    "bfw anchor0-n1000-0": "8a5d7aba470bf9ff",
    "bfw anchor0-n1000-1": "0fb0632e5103d097",
    "bfw anchor0-n1000-2": "d22532979fb21712",
    "bfw anchor1-n1000-0": "dcc3877fb32e06d0",
    "bfw anchor1-n1000-1": "efaffa50b5051934",
    "bfw anchor1-n1000-2": "127483fbc84149cc",
    "bfw anchor0-n5000-0": "efa1f166e37d888f",
    "bfw anchor1-n5000-0": "2b3eb33f8a52911e",
    "fw pumps": "ad8c6dfd0816d850",
    "fw anchor0-n50-0": "13b23df7b70f6ed4",
    "fw anchor0-n50-1": "a19175e95ed793af",
    "fw anchor0-n50-2": "0764c3ffcb324aea",
    "fw anchor0-n50-3": "7f5bebb8c86fdc0a",
    "fw anchor1-n50-0": "09371f7ca93963cb",
    "fw anchor1-n50-1": "307a3751d119e2d4",
    "fw anchor1-n50-2": "8845eed97368e505",
    "fw anchor1-n50-3": "fa4c0a89b3c01313",
    "fw anchor0-n200-0": "418a27a96cc3d3bd",
    "fw anchor0-n200-1": "b5313fde4c3392b7",
    "fw anchor0-n200-2": "befb5eedeea05305",
    "fw anchor0-n200-3": "438d50168efd32f1",
    "fw anchor1-n200-0": "32f7afce08f34581",
    "fw anchor1-n200-1": "23a2e6aa6630f5e1",
    "fw anchor1-n200-2": "9509840fd17361f9",
    "fw anchor1-n200-3": "e328e39219dde30a",
    "fw anchor0-n1000-0": "bd596da710db879d",
    "fw anchor0-n1000-1": "9149f1ee23a3bf77",
    "fw anchor0-n1000-2": "e7e0bc0e91a06c68",
    "fw anchor0-n1000-3": "0be77940b78e74ec",
    "fw anchor1-n1000-0": "593bc8b5b15810d2",
    "fw anchor1-n1000-1": "7c4bf5925ca1a8c2",
    "fw anchor1-n1000-2": "7c7febe98b1b557c",
    "fw anchor1-n1000-3": "dcfe8e8b7657adff",
    "fw anchor0-n5000-0": "c90b66f24ad80eee",
    "fw anchor1-n5000-0": "210c766bd5fa4dfc",
    "weibull pumps": "7fe13f0a804e02a0",
    "weibull anchor0-n50-0": "ae367c2bbac15c6f",
    "weibull anchor0-n50-1": "d54b05064dd18eb8",
    "weibull anchor0-n50-2": "0bda96a2baa14fba",
    "weibull anchor0-n50-3": "bad852e9181bfce5",
    "weibull anchor1-n50-0": "f02b030a54752180",
    "weibull anchor1-n50-1": "9a91f447590b3c6a",
    "weibull anchor1-n50-2": "6c1b613cac0efa0f",
    "weibull anchor1-n50-3": "6b10caf724ea37a4",
    "weibull anchor0-n200-0": "628e9d4d31e96dff",
    "weibull anchor0-n200-1": "aa1d408958f24ec0",
    "weibull anchor0-n200-2": "b19715906392fec7",
    "weibull anchor0-n200-3": "737c4fe80c6126d1",
    "weibull anchor1-n200-0": "19a25f4915609c9b",
    "weibull anchor1-n200-1": "b46183bf76b5c18c",
    "weibull anchor1-n200-2": "1da3473b09fb9b62",
    "weibull anchor1-n200-3": "5764335dda8cfc13",
    "weibull anchor0-n1000-0": "68e34b08fd0050b2",
    "weibull anchor0-n1000-1": "bfe9ef57b7886432",
    "weibull anchor0-n1000-2": "4e5f45a7573bb4a0",
    "weibull anchor0-n1000-3": "c1ed0d494166edda",
    "weibull anchor1-n1000-0": "eaeab1db9897ca11",
    "weibull anchor1-n1000-1": "d0eed8419230aa47",
    "weibull anchor1-n1000-2": "50d23693c3792e91",
    "weibull anchor1-n1000-3": "26144d4950185763",
    "weibull anchor0-n5000-0": "196562099ff4bf6d",
    "weibull anchor1-n5000-0": "c1a922816154b9b1",
}


class TestWholeOutput:
    def test_every_fit_reports_what_was_recorded(self, pumps_fit, panel_fits, large_fits,
                                                 pumps, benchmark_draws):
        fits = {("bfw", label): fit for label, fit in
                {"pumps": pumps_fit, **panel_fits, **large_fits}.items()}
        datasets = {"pumps": pumps, **{label: data for label, (data, _) in benchmark_draws.items()}}
        for family, likelihood in (("fw", inference.FW), ("weibull", inference.WEIBULL)):
            fits.update({(family, label): family_fit(data, likelihood)
                         for label, data in datasets.items()})
        got = {f"{family} {label}": whole_output(fit) for (family, label), fit in fits.items()}
        assert got == WHOLE_OUTPUTS


def ridge_a_point(x_max, ln_p, a=0.00718, ratio=30.0, dps=50):
    """(alpha, beta, p, q) in mpmath on ridge A at ln p: alpha p = a,
    q/p = ``ratio`` and beta p = x_max (a x_max + p ln q), which puts the
    density's spike on the largest observation."""
    with mpmath.workdps(dps):
        p = mpmath.exp(ln_p)
        q = ratio * p
        x_max = mpmath.mpf(float(x_max))
        return a / p, x_max * (a * x_max + p * mpmath.log(q)) / p, p, q


def mp_log_likelihood(x, theta, dps=50):
    """The log-likelihood of one (alpha, beta, p, q) row in mpmath at ``dps``
    digits, from parameters given as mpmath numbers or floats."""
    with mpmath.workdps(dps):
        a, b, p, q = (mpmath.mpf(v) for v in theta)
        total = -len(x) * (mpmath.loggamma(p) + mpmath.loggamma(q) - mpmath.loggamma(p + q))
        for xi in x:
            xi = mpmath.mpf(float(xi))
            w = a * xi - b / xi
            u = mpmath.exp(w)
            total += (mpmath.log(a + b / xi**2) + w - q * u
                      + (p - 1) * mpmath.log(-mpmath.expm1(-u)))
        return total


def ridge_b_limit(x):
    """Maximum log-likelihood of ridge B's limit model a x - b/x ~ N(mu, 1),
    density phi(a x - b/x - mu) (a + b/x^2), without the fitter: mu is the
    mean of a x - b/x, and the profile in (a, b),
    sum ln(a + b/x^2) - ||a (x - mean x) - b (1/x - mean 1/x)||^2 / 2 + const,
    is concave, so Newton steps halved to stay positive and ascending reach
    its maximum.  Returns (log-likelihood, a, b)."""
    u = 1.0 / x
    v = u * u
    xc, uc = x - x.mean(), u - u.mean()
    sxx, suu, sxu = xc @ xc, uc @ uc, xc @ uc

    def profile(a, b):
        return (np.log(a + b * v).sum() - 0.5 * np.sum((a * xc - b * uc) ** 2)
                - 0.5 * x.size * math.log(2.0 * math.pi))

    ab = np.ones(2)
    for _ in range(100):
        d = ab[0] + ab[1] * v
        grad = np.array([np.sum(1 / d) - ab[0] * sxx + ab[1] * sxu,
                         np.sum(v / d) - ab[1] * suu + ab[0] * sxu])
        cross = np.sum(v / d**2) - sxu
        hess = -np.array([[np.sum(1 / d**2) + sxx, cross], [cross, np.sum(v * v / d**2) + suu]])
        step = -np.linalg.solve(hess, grad)
        t = 1.0
        while np.any(ab + t * step <= 0.0) or profile(*(ab + t * step)) < profile(*ab):
            t /= 2.0
        ab = ab + t * step
        if np.all(np.abs(t * step) <= 1e-14 * ab):
            break
    assert np.all(np.abs(grad) <= 1e-9 * x.size)
    return profile(*ab), *ab


# the benchmark panel's draws on which every start fails, with the maximum
# log-likelihood of ridge B's limit model as first measured
RIDGE_B_DRAWS = {
    "anchor0-n50-2": -61.53209,
    "anchor1-n50-0": -32.74363,
    "anchor0-n200-2": -240.8858,
    "anchor1-n200-1": -107.6519,
    "anchor0-n5000-0": -6351.3455,
}


class TestRidges:
    LN_P = (-10, -15, -20, -25, -30, -35, -40)

    def test_kernel_is_unbounded_along_ridge_a(self, pumps):
        # ln L = ln(1/p) + C along ridge A: slope 1 per unit of -ln p, by 50-digit
        # mpmath at the ridge's exact points; the kernel at the same points in
        # doubles agrees within its rounding bound, which grows as e^w does and
        # outgrows the slope near ln p = -33, where doubles run out
        x = pumps.times
        exact, kernel, bound = {}, {}, {}
        for ln_p in self.LN_P:
            point = ridge_a_point(x.max(), ln_p)
            exact[ln_p] = float(mp_log_likelihood(x, point))
            theta = np.array([[float(v) for v in point]])
            walk = np.empty((1, 5))
            with np.errstate(all="ignore"):
                sums = inference._bfw_sums(x, theta[:, 0], theta[:, 1], 0)
                kernel[ln_p] = inference._bfw_assemble(sums, theta[:, 2], theta[:, 3], 0,
                                                       walk=walk)[0][0]
            bound[ln_p] = walk[0, 0]
            at_doubles = float(mp_log_likelihood(x, theta[0]))
            assert abs(kernel[ln_p] - at_doubles) <= 16 * bound[ln_p], ln_p
        assert exact[-20] == pytest.approx(-16.65, abs=5e-3)
        assert exact[-40] == pytest.approx(3.35, abs=5e-3)
        assert exact[-40] - exact[-20] == pytest.approx(20.0, abs=1e-5)
        for ln_p in self.LN_P[2:]:
            assert exact[ln_p] - exact[ln_p + 5] == pytest.approx(5.0, abs=1e-3), ln_p
        resolved = [ln_p for ln_p in self.LN_P if bound[ln_p] < 1e-3]
        assert resolved == [-10, -15, -20, -25]
        assert bound[-35] > 5.0
        for ln_p in resolved[2:]:
            assert kernel[ln_p] - kernel[ln_p + 5] == pytest.approx(5.0, abs=1e-3), ln_p

    def test_ridge_b_walkers_reach_the_limit_model(self, benchmark_draws, panel_fits,
                                                   large_fits):
        # every start retired on ridge B ends below the limit model's maximum and
        # within 1e-3 of it, relative; the closest within 1.7e-3 absolute
        fits = {**panel_fits, **large_fits}
        for label, recorded in RIDGE_B_DRAWS.items():
            limit = ridge_b_limit(benchmark_draws[label][0].times)[0]
            assert limit == pytest.approx(recorded, abs=5e-5 * abs(recorded)), label
            fit = fits[label]
            assert isinstance(fit, ConvergenceError), label
            walkers = [d.log_likelihood for d in fit.diagnostics if d.message == RIDGE_B]
            assert len(walkers) >= 10, label
            for ll in walkers:
                assert limit - 1e-3 * abs(limit) <= ll <= limit, label

    def test_pumps_start_0_crosses_the_ridge_b_plateau(self, pumps, monkeypatch):
        # start 0 sits on ridge B's plateau (ll -30.824, ln p ~ 10.5) with the
        # ratio test met, then turns back to the interior maximum; the motion
        # term of the signature is what keeps it
        config = OptimizerConfig()
        z0 = inference.BFW.starts(config)[:1]
        kept = inference._newton(inference.BFW, pumps.times, z0, config)
        assert kept[4][0] == inference._CONVERGED
        assert kept[1][0] == pytest.approx(-29.3735, abs=1e-4)
        monkeypatch.setattr(inference, "_RIDGE_B_RISE", -math.inf)
        retired = inference._newton(inference.BFW, pumps.times, z0, config)
        assert retired[8][0] == RIDGE_B
        assert retired[1][0] == pytest.approx(-30.824, abs=1e-3)

class TestConfidenceIntervals:
    def test_intervals_from_fit_contain_estimates(self, pumps):
        fit = fit_mle(pumps)
        for estimate, interval in zip(fit.estimates.as_array(), confidence_intervals(fit)):
            low, high = interval
            assert low <= estimate <= high
            assert low >= 0.0

    def test_published_alpha_beta_endpoints(self):
        estimates = np.array([0.052, 0.024, 35.077, 20.328])
        intervals = interval_bounds(estimates, np.diag(PUBLISHED_COVARIANCE), 0.95)
        assert intervals[0][0] == 0.0
        assert intervals[0][1] == pytest.approx(0.142, abs=1e-3)
        assert intervals[1][0] == 0.0
        assert intervals[1][1] == pytest.approx(0.07, abs=1e-3)

    def test_width_ratio_between_levels(self):
        estimates = np.array([1.0, 1.0, 1.0, 1.0])
        variances = np.array([0.04, 0.04, 0.04, 0.04])
        w95 = np.diff(interval_bounds(estimates, variances, 0.95)[2])[0]
        w90 = np.diff(interval_bounds(estimates, variances, 0.90)[2])[0]
        assert w90 / w95 == pytest.approx(1.645 / 1.960, abs=1e-3)

    def test_degenerate_level_collapses(self):
        estimates = np.array([1.0, 2.0, 3.0, 4.0])
        variances = np.ones(4)
        intervals = interval_bounds(estimates, variances, 1e-12)
        for estimate, (low, high) in zip(estimates, intervals):
            assert high - low < 1e-9
            assert low == pytest.approx(estimate, abs=1e-9)

    def test_negative_variance_unavailable_per_parameter(self):
        intervals = interval_bounds(np.ones(4), np.array([1.0, -1.0, 1.0, 1.0]), 0.95)
        assert intervals[1] is None
        assert intervals[0] is not None

    def test_quantile_convention(self):
        # the level maps to the upper (lambda/2) percentile
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_fit_accessor(self, pumps):
        fit = fit_mle(pumps)
        expected = interval_bounds(fit.estimates.as_array(), np.diag(fit.covariance), 0.9)
        assert confidence_intervals(fit, 0.9) == expected

    @pytest.mark.parametrize("family", ["fw", "weibull"])
    def test_two_parameter_fits_take_array_estimates(self, pumps, family):
        # their estimates are the natural parameter array, not BFWParams
        fit = model_selection.get_family(family).fit(pumps)
        expected = interval_bounds(fit.estimates, np.diag(fit.covariance), 0.95)
        assert confidence_intervals(fit) == expected
        assert all(interval is not None for interval in expected)

    def test_fit_without_covariance_has_no_intervals(self, pumps):
        fit = dataclasses.replace(model_selection.get_family("weibull").fit(pumps), covariance=None)
        with pytest.raises(NumericError, match="covariance unavailable"):
            confidence_intervals(fit)

    def test_level_outside_the_unit_interval_rejected(self, pumps):
        fit = model_selection.get_family("weibull").fit(pumps)
        for level in (0.0, 1.0, 1.5, math.nan):
            with pytest.raises(DomainError, match="confidence level"):
                confidence_intervals(fit, level)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.5 s and 20 MB, and neither importing nor fitting needs it
    code = (
        "import sys, bfw; print('scipy.stats' in sys.modules); "
        "bfw.fit_mle(bfw.ingest('pumps')); print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_fitting_and_mode_leave_scipy_optimize_unloaded():
    # the fitter and the mode search are self-contained; scipy.optimize is not imported
    code = (
        "import sys, bfw; print('scipy.optimize' in sys.modules); "
        "bfw.fit_mle(bfw.ingest('pumps')); bfw.bfw_mode(bfw.BFWParams(0.5, 0.5, 2.0, 2.0)); "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_start_grid_is_the_unscrambled_sobol_sequence():
    import warnings

    from scipy.stats import qmc

    from bfw.inference import _sobol

    for n in range(1, 65):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # balance warning for counts that are not powers of 2
            expected = qmc.Sobol(d=4, scramble=False).random(n)
        assert np.array_equal(_sobol(n), expected)
