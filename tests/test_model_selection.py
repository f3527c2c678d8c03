import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from bfw import (
    BFWParams,
    ConvergenceError,
    Dataset,
    DomainError,
    FWParams,
    bfw_cdf,
    bfw_sample,
    compare_models,
    ecdf,
    fit_model,
    fw_cdf,
    fw_quantile,
    get_family,
    inference,
    information_criteria,
    kaplan_meier,
    ks_statistic,
    model_selection,
)
from bfw.model_selection import weibull_loglik_grad


class TestInformationCriteria:
    def test_two_parameter_row_arithmetic(self):
        # published criteria for the two-parameter base fit (ll -83.3424, n 23)
        crit = information_criteria(-83.3424, 2, 23)
        assert crit.aic == pytest.approx(170.6848, abs=1e-3)
        assert crit.aicc == pytest.approx(171.2848, abs=1e-3)
        assert crit.bic == pytest.approx(172.9558, abs=1e-3)
        assert crit.hqic == pytest.approx(171.2559, abs=1e-3)

    def test_weibull_row_arithmetic(self):
        crit = information_criteria(-85.4734, 2, 23)
        assert crit.aic == pytest.approx(174.9468, abs=1e-3)
        assert crit.aicc == pytest.approx(175.5468, abs=1e-3)
        assert crit.bic == pytest.approx(177.2178, abs=1e-3)
        assert crit.hqic == pytest.approx(175.5179, abs=1e-3)

    def test_zero_parameters_degenerate(self):
        crit = information_criteria(-10.0, 0, 23)
        assert crit.aic == crit.bic == crit.hqic == crit.aicc == 20.0

    def test_aicc_undefined_flag(self):
        crit = information_criteria(-10.0, 5, 6)
        assert math.isnan(crit.aicc)
        assert math.isfinite(crit.aic)


class TestKsStatistic:
    def test_fw_at_published_parameters_in_hundreds_units(self, pumps_hundreds):
        # the two-parameter row's own units; value pinned by this
        # implementation (the published value for this configuration is 0.1342,
        # which no evaluation of these exact parameters reproduces)
        params = FWParams(0.0207, 2.5875)
        stat = ks_statistic(pumps_hundreds, lambda x: fw_cdf(x, params))
        assert stat == pytest.approx(0.138483, abs=5e-6)

    def test_bfw_at_published_parameters(self, pumps, published_params):
        # bundled units; the published value for these parameters is 0.1151
        stat = ks_statistic(pumps, lambda x: bfw_cdf(x, published_params))
        assert stat == pytest.approx(0.111074, abs=5e-6)

    def test_against_brute_force_supremum(self, pumps, published_params):
        curve = ecdf(pumps)
        model = lambda x: bfw_cdf(x, published_params)
        grid = np.concatenate([
            pumps.times,
            pumps.times - 1e-12,
            np.linspace(0.01, 8.0, 4001),
        ])
        grid = grid[grid > 0]
        brute = np.max(np.abs(curve.value_at(grid) - np.asarray(model(grid))))
        stat = ks_statistic(pumps, model)
        assert stat >= brute - 1e-12
        assert stat == pytest.approx(brute, abs=1e-6)

    def test_tie_handling(self):
        data = Dataset(times=np.array([1.0, 1.0, 2.0]))
        uniform3 = lambda x: np.clip(np.asarray(x, dtype=float) / 3.0, 0.0, 1.0)
        # ECDF jumps to 2/3 at the tied point: D = 2/3 - 1/3
        assert ks_statistic(data, uniform3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_near_perfect_fit(self):
        n = 40
        params = FWParams(0.7, 1.1)
        quantiles = fw_quantile(np.arange(1, n + 1) / (n + 1.0), params)
        data = Dataset(times=np.asarray(quantiles))
        stat = ks_statistic(data, lambda x: fw_cdf(x, params))
        assert stat < 1.0 / n + 1.0 / (n + 1.0)


class TestStepCurves:
    def test_ecdf_single_point(self):
        curve = ecdf(Dataset(times=np.array([2.0])))
        assert curve.value_at(1.999) == 0.0
        assert curve.value_at(2.0) == 1.0
        assert curve.value_at(5.0) == 1.0

    def test_ecdf_pumps(self, pumps):
        curve = ecdf(pumps)
        assert curve.times.size == 23  # no ties in the bundled data
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-15)
        jumps = np.diff(np.concatenate([[0.0], curve.values]))
        assert np.allclose(jumps, 1.0 / 23.0)
        # direct count: 0.614 is the 12th sorted observation (the median),
        # 0.746 the 13th
        assert curve.value_at(0.614) == pytest.approx(12.0 / 23.0, abs=1e-15)
        assert curve.value_at(0.746) == pytest.approx(13.0 / 23.0, abs=1e-15)

    def test_km_complement_identity(self, pumps):
        emp = ecdf(pumps)
        km = kaplan_meier(pumps)
        assert np.allclose(km.values, 1.0 - emp.values, atol=1e-15)
        assert km.initial_value == 1.0

    def test_km_boundaries(self, pumps):
        km = kaplan_meier(pumps)
        assert km.value_at(0.0) == 1.0
        assert km.value_at(6.560) == 0.0
        assert km.value_at(100.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            from bfw import StepCurve
            StepCurve(times=np.array([2.0, 1.0]), values=np.array([0.1, 0.2]),
                      initial_value=0.0)


class TestFamilies:
    def test_fw_fit_on_bundled_units(self, pumps):
        row = fit_model(get_family("fw"), pumps)
        # equals the published hundreds-of-hours estimates scaled by 10
        assert row.estimates["alpha"] == pytest.approx(0.20710, abs=2e-4)
        assert row.estimates["beta"] == pytest.approx(0.25876, abs=2e-4)
        assert row.log_likelihood == pytest.approx(-30.38291, abs=1e-4)
        assert row.ks == pytest.approx(0.13848, abs=1e-4)

    def test_fw_fit_reproduces_published_row_in_hundreds_units(self, pumps_hundreds):
        row = fit_model(get_family("fw"), pumps_hundreds)
        assert row.estimates["alpha"] == pytest.approx(0.0207, abs=2e-4)
        assert row.estimates["beta"] == pytest.approx(2.5875, abs=2e-3)
        assert row.log_likelihood == pytest.approx(-83.3424, abs=5e-4)

    def test_weibull_scale_fit(self, pumps):
        row = fit_model(get_family("weibull"), pumps)
        assert row.estimates["shape"] == pytest.approx(0.80773, abs=1e-4)
        assert row.estimates["scale"] == pytest.approx(1.39150, abs=1e-4)
        assert row.log_likelihood == pytest.approx(-32.51392, abs=1e-4)
        assert row.ks == pytest.approx(0.11839, abs=1e-4)

    def test_weibull_published_row_is_hundreds_units_scale_form(self, pumps_hundreds):
        # pre-build check result: the published (0.8077, 13.9148) pair is
        # (shape, scale) of the scale form on hundreds-of-hours data
        row = fit_model(get_family("weibull"), pumps_hundreds)
        assert row.estimates["shape"] == pytest.approx(0.8077, abs=2e-4)
        assert row.estimates["scale"] == pytest.approx(13.9148, abs=5e-3)
        assert row.log_likelihood == pytest.approx(-85.4734, abs=5e-4)

    def test_weibull_rate_form_same_distribution(self, pumps):
        scale_row = fit_model(get_family("weibull"), pumps)
        rate_row = fit_model(get_family("weibull", weibull_parameterization="rate"), pumps)
        assert rate_row.log_likelihood == pytest.approx(scale_row.log_likelihood, abs=1e-8)
        assert rate_row.ks == pytest.approx(scale_row.ks, abs=1e-8)
        shape, scale = scale_row.estimates["shape"], scale_row.estimates["scale"]
        assert rate_row.estimates["rate"] == pytest.approx(scale ** (-shape), rel=1e-6)

    def test_bfw_fit_row(self, pumps, published_params):
        from bfw import log_likelihood
        row = fit_model(get_family("bfw"), pumps)
        assert row.log_likelihood >= log_likelihood(pumps, published_params) - 1e-6
        assert row.ks == pytest.approx(
            ks_statistic(pumps, lambda x: bfw_cdf(x, BFWParams(**row.estimates))), abs=1e-12
        )

    def test_unknown_family(self):
        for name in ("gumbel", "wd", "weibull2p"):  # only the names the CLI offers resolve
            with pytest.raises(DomainError):
                get_family(name)

    def test_sampler_ks_per_family(self, rng):
        n = 50_000
        crit = 1.63 / math.sqrt(n)
        # four-parameter model via its own sampler
        params = BFWParams(0.5, 0.5, 2.0, 2.0)
        data = Dataset(times=bfw_sample(n, params, seed=11))
        assert ks_statistic(data, lambda x: bfw_cdf(x, params)) < crit
        # base model by inverse transform
        fw = FWParams(0.7, 1.3)
        draws = fw_quantile(rng.uniform(size=n), fw)
        assert ks_statistic(Dataset(times=np.asarray(draws)),
                            lambda x: fw_cdf(x, fw)) < crit
        # weibull by inverse transform
        shape, scale = 0.8, 1.4
        draws = scale * (-np.log1p(-rng.uniform(size=n))) ** (1.0 / shape)
        weibull_cdf = lambda x: -np.expm1(-((np.asarray(x) / scale) ** shape))
        assert ks_statistic(Dataset(times=draws), weibull_cdf) < crit


# (log-likelihood, estimates, K-S) of the fw and Weibull rows of
# compare_models as hex, recorded while the fw kernel assembled the full
# four-parameter score and information at p = q = 1
TWO_PARAMETER_ROWS = {
    "pumps": {
        "fw": ("-0x1.e62062a79b756p+4", "0x1.a82629d96baefp-3",
              "0x1.08f850e8e682bp-2", "0x1.1b9d034352b10p-3"),
        "weibull": ("-0x1.041c82bca41ffp+5", "0x1.9d8f66a31be66p-1",
                   "0x1.6439a369d33d8p+0", "0x1.e4f21572944b8p-4"),
    },
    "anchor1-n1000-0": {
        "fw": ("-0x1.15cb9186255b2p+9", "0x1.9ea2b3a40eaf0p-1",
              "0x1.7b581c33080cep-1", "0x1.c56d6f12135e8p-5"),
        "weibull": ("-0x1.2e13e1ba05b0dp+9", "0x1.c330d84bfbcf0p+0",
                   "0x1.e22d058e4660cp-1", "0x1.12c9f2f075064p-4"),
    },
}


class TestCompareModels:
    def test_two_parameter_rows_match_the_record(self, pumps, benchmark_draws):
        datasets = {"pumps": pumps, "anchor1-n1000-0": benchmark_draws["anchor1-n1000-0"][0]}
        families = [get_family(name) for name in ("fw", "weibull")]
        for label, data in datasets.items():
            got = {row.model: tuple(float(v).hex() for v in (row.log_likelihood,
                                                              *row.estimates.values(), row.ks))
                   for row in compare_models(data, families).rows}
            assert got == TWO_PARAMETER_ROWS[label], label

    def test_three_family_table(self, pumps):
        families = [get_family(name) for name in ("bfw", "fw", "weibull")]
        table = compare_models(pumps, families)
        assert len(table.rows) == 3
        aics = [row.aic for row in table.rows]
        assert aics == sorted(aics)
        # on the bundled data the two-parameter base wins the AIC race:
        # its four-parameter extension buys ~1.0 log-likelihood for 2 d.o.f.
        assert table.rows[0].model == "fw"
        assert {row.model for row in table.rows} == {"bfw", "fw", "weibull"}

    def test_single_family(self, pumps):
        table = compare_models(pumps, [get_family("fw")])
        assert len(table.rows) == 1

    def test_duplicate_family_deterministic(self, pumps):
        table = compare_models(pumps, [get_family("fw"), get_family("fw")])
        first, second = table.rows
        assert first.estimates == second.estimates
        assert first.log_likelihood == second.log_likelihood

    def test_permutation_invariance(self, pumps, rng):
        families = [get_family(name) for name in ("fw", "weibull")]
        table1 = compare_models(pumps, families)
        shuffled = Dataset(times=rng.permutation(pumps.times), label=pumps.label)
        table2 = compare_models(shuffled, families)
        for row1, row2 in zip(table1.rows, table2.rows):
            # summation order shifts the optimizer by a few ulps at most
            assert row1.model == row2.model
            assert row1.log_likelihood == pytest.approx(row2.log_likelihood, abs=1e-9)
            assert row1.ks == pytest.approx(row2.ks, abs=1e-8)

    def test_failure_recorded_in_row(self):
        # four observations cannot support a four-parameter fit
        data = Dataset(times=np.array([0.5, 1.0, 2.0, 4.0]))
        table = compare_models(data, [get_family("bfw"), get_family("weibull")])
        by_model = {row.model: row for row in table.rows}
        assert by_model["bfw"].error is not None
        assert math.isnan(by_model["bfw"].aic)
        assert by_model["weibull"].error is None
        # failed rows sort last
        assert table.rows[-1].model == "bfw"

    def test_empty_families_rejected(self, pumps):
        with pytest.raises(DomainError):
            compare_models(pumps, [])


class TestFamilyProtocol:
    @staticmethod
    def weibull_mp_info(x, shape, scale):
        with mpmath.workdps(30):
            xs = [mpmath.mpf(float(v)) for v in x]

            def loglik(k, s):
                return mpmath.fsum(mpmath.log(k / s) + (k - 1) * mpmath.log(v / s) - (v / s) ** k
                                   for v in xs)

            point = (mpmath.mpf(shape), mpmath.mpf(scale))
            return -np.array([
                [float(mpmath.diff(loglik, point, (2, 0))),
                 float(mpmath.diff(loglik, point, (1, 1)))],
                [float(mpmath.diff(loglik, point, (1, 1))),
                 float(mpmath.diff(loglik, point, (0, 2)))],
            ])

    @pytest.mark.parametrize("theta", [(0.8, 1.4), (0.80773, 1.3915), (2.5, 0.3)])
    def test_weibull_information(self, pumps, theta):
        x = pumps.times
        info = model_selection._weibull_evaluate(x, np.array([theta]))[2][0]
        numeric = np.empty((2, 2))
        for j in range(2):
            step = 1e-6 * theta[j]
            hi, lo = np.array(theta), np.array(theta)
            hi[j] += step
            lo[j] -= step
            numeric[:, j] = -(weibull_loglik_grad(x, *hi)[1] - weibull_loglik_grad(x, *lo)[1]) / (
                2.0 * step
            )
        assert np.all(np.abs(info - numeric) <= 1e-8 * np.max(np.abs(info)))
        reference = self.weibull_mp_info(x, *theta)
        assert np.all(np.abs(info - reference) <= 1e-8 * np.abs(reference))

    def test_fw_rows_are_the_four_parameter_block_at_unit_shapes(self, pumps):
        # the fw pass skips ln F, the ratio, the curvature and their sums, which
        # p - 1 = 0 multiplies: every row still equals the four-parameter kernel's
        # log-likelihood and (alpha, beta) block at p = q = 1, bit for bit, and is
        # finite exactly where that is, for alpha and beta from e^-700 to e^700
        rng = np.random.default_rng(11)
        for x in (pumps.times, bfw_sample(1000, BFWParams(0.5, 0.5, 2.0, 2.0), seed=2)):
            ab = np.exp(rng.uniform(-700.0, 700.0, (200, 2)))
            _, ll, grad, info, _ = model_selection._fw_kernel(x, ab, inference._Workspace(x))
            ll4, grad4, info4 = inference._bfw_evaluate(x, np.column_stack([ab, np.ones((200, 2))]))
            finite = np.isfinite(ll) & np.isfinite(grad).all(1) & np.isfinite(info).all((1, 2))
            finite4 = (np.isfinite(ll4) & np.isfinite(grad4[:, :2]).all(1)
                       & np.isfinite(info4[:, :2, :2]).all((1, 2)))
            assert np.array_equal(finite, finite4)
            assert 0 < finite.sum() < 200
            assert np.array_equal(ll[finite], ll4[finite])
            assert np.array_equal(grad[finite], grad4[finite, :2])
            assert np.array_equal(info[finite], info4[finite, :2, :2])

    def test_rate_form_covariance_is_inverse_rate_information(self, pumps):
        family = get_family("weibull", weibull_parameterization="rate")
        fit = family.fit(pumps)
        (rate, shape), covariance = family.output(fit.estimates, fit.covariance)
        x = pumps.times

        def rate_score(r, k):  # gradient of sum(ln r + ln k + (k - 1) ln x - r x^k)
            xk = x**k
            return np.array([x.size / r - xk.sum(),
                             x.size / k + np.log(x).sum() - r * np.sum(xk * np.log(x))])

        point = np.array([rate, shape])
        info = np.empty((2, 2))
        for j in range(2):
            step = 1e-6 * point[j]
            hi, lo = point.copy(), point.copy()
            hi[j] += step
            lo[j] -= step
            info[:, j] = -(rate_score(*hi) - rate_score(*lo)) / (2.0 * step)
        reference = np.linalg.inv(0.5 * (info + info.T))
        assert np.all(np.abs(covariance - reference) <= 1e-6 * np.abs(reference))

    @staticmethod
    def weibull_profile_root(x):
        lx = np.log(x)

        def profile(k):
            xk = (x / x.max()) ** k
            return float(np.sum(xk * lx) / np.sum(xk) - 1.0 / k - lx.mean())

        shape = brentq(profile, 1e-3, 1e3, xtol=1e-15, rtol=1e-15)
        return shape, float(np.mean(x**shape) ** (1.0 / shape))

    @pytest.mark.parametrize("n", [4, 23, 200, 5000])
    def test_two_parameter_fits_reach_stationarity(self, n):
        x = bfw_sample(n, BFWParams(0.5, 0.5, 2.0, 2.0), seed=1000 + n)
        data = Dataset(times=x)
        weibull = get_family("weibull").fit(data)
        shape, scale = self.weibull_profile_root(x)
        assert weibull.estimates == pytest.approx([shape, scale], rel=1e-9)
        fw = get_family("fw").fit(data)
        assert fw.converged
        assert np.max(np.abs(fw.score_at_optimum)) <= 1e-6
        assert fw.multistart_best_of == weibull.multistart_best_of == 4

    def test_unconverged_two_parameter_fit_is_an_error_row(self, pumps, monkeypatch):
        monkeypatch.setattr(inference, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            get_family("weibull").fit(pumps)
        table = compare_models(pumps, [get_family("fw")])
        assert table.rows[0].error.startswith("no optimizer start converged")
        assert math.isnan(table.rows[0].aic)

    @pytest.mark.parametrize("form", ["scale", "rate"])
    @pytest.mark.parametrize("values", [(1.0, math.nan), (math.inf, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_parameters_rejected_unless_positive_and_finite(self, form, values):
        with pytest.raises(DomainError):
            get_family("weibull", weibull_parameterization=form).parameters(values)

    def test_rate_parameters_map_to_the_scale_form(self):
        family = get_family("weibull", weibull_parameterization="rate")
        theta = family.parameters([0.25, 2.0])
        assert theta == pytest.approx([2.0, 2.0], rel=1e-15)
        assert family.output(theta)[0] == pytest.approx([0.25, 2.0], rel=1e-15)


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import bfw

    # __main__ runs the CLI on import; every other module is checked
    modules = [bfw] + [importlib.import_module(f"bfw.{info.name}")
                       for info in pkgutil.iter_modules(bfw.__path__) if info.name != "__main__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
