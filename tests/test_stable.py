"""The shared flexible-Weibull tail terms against mpmath at 110+ digits."""

import mpmath
import numpy as np
import pytest

from bfw._stable import fw_tail_terms

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

# Largest relative errors of the helpers the shared one replaced
# (log1mexp, expm1_curvature), measured on SWEEP against the same reference.
# The ratio helper (u_over_expm1) returned 0 once expm1(e^w) overflowed, a
# relative error of 1 wherever the true ratio was still a normal double.
REPLACED_MAX_ERROR = {"ln F": 5.317e-14, "curvature": 1.859e-11}


def _sweep():
    ln2_switch = np.log(np.log(2.0)) + np.linspace(-1e-3, 1e-3, 21)
    series_switch = np.log(1e-2) + np.linspace(-1e-3, 1e-3, 21)
    underflow = np.linspace(-746.0, -707.0, 79)  # e^w subnormal, then zero
    subnormal_survival = np.linspace(6.55, 6.62, 71)  # e^{-e^w} subnormal, then zero
    bulk = np.linspace(-750.0, 700.0, 581)
    middle = np.linspace(-40.0, 8.0, 241)
    return np.unique(np.concatenate(
        [ln2_switch, series_switch, underflow, subnormal_survival, bulk, middle]))


SWEEP = _sweep()


def reference(w):
    """ln F, ratio and curvature at the double w, with u = e^w exact: 110
    digits plus enough guard digits for the cancellation in F - u."""
    with mpmath.workdps(30):
        guard = int(2 * max(0, -mpmath.log10(mpmath.exp(mpmath.mpf(w))))) + 10
    with mpmath.workdps(110 + guard):
        u = mpmath.exp(mpmath.mpf(w))
        f = -mpmath.expm1(-u)
        s = mpmath.exp(-u)
        ln_f = mpmath.log(f) if s > 0.5 else mpmath.log1p(-s)
        ratio = u * s / f
        curvature = ratio * (f - u) / f
        return float(ln_f), float(ratio), float(curvature)


@pytest.fixture(scope="module")
def references():
    return np.array([reference(float(w)) for w in SWEEP])


def relative_error(got, want):
    """Relative error where the true value is a normal double, else 0."""
    normal = np.abs(want) >= TINY
    return np.where(normal, np.abs(got - want) / np.where(normal, np.abs(want), 1.0), 0.0)


class TestTailTerms:
    def test_sweep_covers_every_regime(self):
        ew = np.exp(SWEEP)
        assert np.any(ew == 0.0) and np.any((ew > 0.0) & (ew < TINY))
        assert np.any(ew < 1e-2) and np.any((ew > 1e-2) & (ew < np.log(2.0)))
        survival = np.exp(-ew)
        assert np.any((survival > 0.0) & (survival < TINY)) and np.any(survival == 0.0)

    @pytest.mark.parametrize("index, name", [(0, "ln F"), (1, "ratio"), (2, "curvature")])
    def test_relative_error_is_conditioned_by_e_w(self, references, index, name):
        # a term's sensitivity to a relative change in e^w is at most about
        # 1 + e^w; above the 1e-2 switch the curvature's (1 - u) - S cancels
        # to -u^2/2, which costs up to 2 eps / u^2
        ew = np.exp(SWEEP)
        got = fw_tail_terms(SWEEP, ew, ratio=True, curvature=True)[index]
        err = relative_error(got, references[:, index])
        bound = 2.0 * EPS * (1.0 + ew)
        if name == "curvature":
            bound += 2.0 * EPS / np.clip(ew, 1e-2, 1.0) ** 2 * (ew >= 1e-2)
        worst = np.argmax(err / bound)
        assert err[worst] <= bound[worst], (name, SWEEP[worst], err[worst])

    @pytest.mark.parametrize("index, name", [(0, "ln F"), (2, "curvature")])
    def test_no_worse_than_the_replaced_helpers(self, references, index, name):
        ew = np.exp(SWEEP)
        got = fw_tail_terms(SWEEP, ew, ratio=True, curvature=True)[index]
        assert relative_error(got, references[:, index]).max() <= REPLACED_MAX_ERROR[name]

    def test_ratio_alone_matches_the_reference(self, references):
        ew = np.exp(SWEEP)
        ln_f, ratio, curvature = fw_tail_terms(SWEEP, ew, log_cdf=False, ratio=True)
        assert ln_f is None and curvature is None
        err = relative_error(ratio, references[:, 1])
        assert np.all(err <= 2.0 * EPS * (1.0 + ew))

    def test_ratio_stays_positive_while_it_is_a_normal_double(self, references):
        # expm1(e^w) overflows at e^w ~ 709.8; e^w e^{-e^w} is normal up to ~745
        ew = np.exp(SWEEP)
        normal = references[:, 1] >= TINY
        assert np.any(normal & (ew > 709.8))
        for kwargs in ({"ratio": True}, {"log_cdf": False, "ratio": True}):
            ratio = fw_tail_terms(SWEEP, ew, **kwargs)[1]
            assert np.all(ratio[normal] > 0.0)

    def test_underflowed_exponent_limits(self):
        w = np.array([-800.0, -746.0, -720.0])
        ln_f, ratio, curvature = fw_tail_terms(w, np.exp(w), ratio=True, curvature=True)
        assert np.array_equal(ln_f, w)
        assert np.array_equal(ratio, np.ones(3))
        assert np.all(curvature <= 0.0) and np.all(curvature > -1e-300)

    def test_overflowed_exponent_limits(self):
        # e^w is inf past w ~ 709.78, where F = 1: ln F, the ratio and the curvature are 0
        w = np.array([710.0, 800.0])
        with np.errstate(over="ignore"):
            ew = np.exp(w)
        assert np.all(ew == np.inf)
        for kwargs in ({"ratio": True, "curvature": True}, {"log_cdf": False, "ratio": True}):
            for term in fw_tail_terms(w, ew, **kwargs):
                assert term is None or np.array_equal(term, np.zeros(2))

    def test_only_requested_terms_and_input_shape(self):
        assert fw_tail_terms(-1.0, np.exp(-1.0))[1:] == (None, None)
        ln_f, ratio, curvature = fw_tail_terms(-1.0, np.exp(-1.0), ratio=True, curvature=True)
        assert ln_f.shape == ratio.shape == curvature.shape == ()
        w = np.linspace(-900.0, 900.0, 12).reshape(3, 4)
        with np.errstate(over="ignore"):
            ew = np.exp(w)
        assert all(t.shape == (3, 4) for t in fw_tail_terms(w, ew, ratio=True, curvature=True))

    def test_each_element_is_independent_of_its_neighbours(self):
        # limits are patched only in blocks that need them; values must not change
        w = SWEEP
        ew = np.exp(w)
        together = fw_tail_terms(w, ew, ratio=True, curvature=True)
        for i in range(0, w.size, 37):
            alone = fw_tail_terms(w[i : i + 1], ew[i : i + 1], ratio=True, curvature=True)
            for got, want in zip(alone, together):
                assert np.array_equal(got, want[i : i + 1], equal_nan=True)
