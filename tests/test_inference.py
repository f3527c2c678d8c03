import math
import subprocess
import sys

import numpy as np
import pytest

from bfw import (
    BFWParams,
    ConvergenceError,
    Dataset,
    DomainError,
    NumericError,
    OptimizerConfig,
    bfw_log_pdf,
    bfw_sample,
    confidence_intervals,
    covariance_from_information,
    fit_mle,
    inference,
    interval_bounds,
    log_likelihood,
    model_selection,
    observed_information,
    score,
    std_normal_quantile,
    trigamma,
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
        expected = -pumps.n * trigamma(published_params.p + published_params.q)
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

    def test_convergence_error_carries_diagnostics(self, pumps):
        config = OptimizerConfig(starts=2, max_iter=1, score_tol=1e-16)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_mle(pumps, config)
        assert len(excinfo.value.diagnostics) == 2

    def test_deterministic(self, pumps):
        a = fit_mle(pumps)
        b = fit_mle(pumps)
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.estimates.as_array(), b.estimates.as_array())


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


BATCH_CASES = [
    ("bfw", inference.BFW, bfw_reference),
    ("fw", model_selection._FW, fw_reference),
    ("weibull", model_selection._WEIBULL, weibull_reference),
]


class TestBatchKernels:
    @pytest.mark.parametrize("name, likelihood, reference", BATCH_CASES)
    @pytest.mark.parametrize("n", [23, 1000])
    def test_rows_match_the_one_point_kernels(self, name, likelihood, reference, n):
        x = bfw_sample(n, BFWParams(0.5, 0.5, 2.0, 2.0), seed=n)
        k = len(likelihood.names)
        theta = np.exp(np.random.default_rng(n).uniform(-1.5, 1.5, (16, k)))
        ll, grad, info = likelihood.evaluate(x, theta)
        assert ll.shape == (16,) and grad.shape == (16, k) and info.shape == (16, k, k)
        for row in range(16):
            ref_ll, ref_grad, ref_info = reference(x, theta[row])
            assert ll[row] == pytest.approx(ref_ll, rel=1e-13)
            assert np.all(np.abs(grad[row] - ref_grad) <= 1e-13 * np.abs(ref_grad))
            assert np.all(np.abs(info[row] - ref_info) <= 1e-13 * np.abs(ref_info))

    @pytest.mark.parametrize("name, likelihood, reference", BATCH_CASES)
    def test_unrepresentable_row_is_minus_inf_and_isolated(self, name, likelihood, reference,
                                                          pumps):
        x = pumps.times
        k = len(likelihood.names)
        theta = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (4, k)))
        clean = likelihood.evaluate(x, theta)
        theta[2, 0] = math.inf
        dirty = likelihood.evaluate(x, theta)
        assert dirty[0][2] == -math.inf
        keep = [0, 1, 3]
        for got, want in zip(dirty, clean):
            assert np.array_equal(got[keep], want[keep])

    def test_row_blocks_leave_each_row_unchanged(self):
        # n = 5000 splits 16 rows into blocks; every row equals its own evaluation
        x = bfw_sample(5000, BFWParams(0.5, 0.5, 2.0, 2.0), seed=5)
        theta = np.exp(np.random.default_rng(5).uniform(-1.0, 1.0, (16, 4)))
        assert inference._BLOCK_ELEMENTS // x.size < 16
        blocked = inference._evaluate(inference.BFW, x, theta)
        for row in range(16):
            alone = inference.BFW.evaluate(x, theta[row : row + 1])
            for got, want in zip(blocked, alone):
                assert np.array_equal(got[row], want[0])


def benchmark_panel(draws_per_cell=3):
    """The first draws of each (anchor, n) cell of the benchmark's fixed fit
    panel (perfbench/workloads.py: panel seed 20170316, four draws a cell)."""
    anchors = ((0.052, 0.024, 35.077, 20.328), (0.5, 0.5, 2.0, 2.0))
    panel = np.random.default_rng(20170316)
    for anchor, n in [(0, 50), (1, 50), (0, 200), (1, 200), (0, 1000), (1, 1000)]:
        for i in range(4):
            seed = int(panel.integers(2**63))
            if i < draws_per_cell:
                truth = BFWParams(*anchors[anchor])
                data = Dataset(times=bfw_sample(n, truth, seed=seed))
                yield f"anchor{anchor}-n{n}-{i}", data, truth


class TestBatchedNewton:
    def test_panel_converges_above_the_truth_or_raises(self):
        outcomes = []
        for label, data, truth in benchmark_panel():
            try:
                fit = fit_mle(data)
            except ConvergenceError as exc:
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
        reasons = {"converged", "iteration budget", "step rejected", "log-likelihood, score"}
        for diag in fit.starts:
            assert any(diag.message.startswith(reason) for reason in reasons)
            assert diag.converged == diag.message.startswith("converged")
            assert diag.iterations < diag.evaluations <= config.max_iter + 1
        best = [d for d in fit.starts if d.converged and d.log_likelihood == fit.log_likelihood]
        assert fit.iterations == best[0].iterations

    def test_budget_bounds_kernel_passes(self, pumps):
        config = OptimizerConfig(max_iter=3)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_mle(pumps, config)
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


class TestConfidenceIntervals:
    def test_intervals_from_fit_contain_estimates(self, pumps):
        fit = fit_mle(pumps)
        for estimate, interval in zip(fit.estimates.as_array(), fit.confidence_intervals):
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
        assert confidence_intervals(fit, 0.95) == fit.confidence_intervals


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
