"""One validator at the public boundary: every entry point rejects a value
outside its range with the same DomainError message."""

import math
import re

import numpy as np
import pytest

from bfw import (
    BFWParams,
    Dataset,
    DomainError,
    FWParams,
    OrderIndex,
    bfw_cdf,
    bfw_cumulative_hazard,
    bfw_hazard,
    bfw_log_pdf,
    bfw_pdf,
    bfw_quantile,
    bfw_reversed_hazard,
    bfw_survival,
    digamma,
    fw_cdf,
    fw_log_pdf,
    fw_pdf,
    fw_quantile,
    fw_sf,
    get_family,
    inv_reg_inc_beta,
    log_gamma,
    mode_equation,
    order_stat_pdf,
    order_stat_pdf_expansion,
    reg_inc_beta,
    std_normal_quantile,
    trigamma,
)
from bfw.special import log_beta

FW = FWParams(0.5, 0.8)
BFW = BFWParams(0.5, 0.8, 2.0, 3.0)
IDX = OrderIndex(2, 5)

POSITIVE = "strictly positive and finite"
OPEN_UNIT = "in (0, 1)"
CLOSED_UNIT = "in [0, 1]"

# (label, call with the value under test, name in the message, range text)
ENTRY_POINTS = [
    ("fw_cdf", lambda v: fw_cdf(v, FW), "x", POSITIVE),
    ("fw_sf", lambda v: fw_sf(v, FW), "x", POSITIVE),
    ("fw_pdf", lambda v: fw_pdf(v, FW), "x", POSITIVE),
    ("fw_log_pdf", lambda v: fw_log_pdf(v, FW), "x", POSITIVE),
    ("fw_quantile", lambda v: fw_quantile(v, FW), "u", OPEN_UNIT),
    ("bfw_cdf", lambda v: bfw_cdf(v, BFW), "x", POSITIVE),
    ("bfw_pdf", lambda v: bfw_pdf(v, BFW), "x", POSITIVE),
    ("bfw_log_pdf", lambda v: bfw_log_pdf(v, BFW), "x", POSITIVE),
    ("bfw_survival", lambda v: bfw_survival(v, BFW), "x", POSITIVE),
    ("bfw_hazard", lambda v: bfw_hazard(v, BFW), "x", POSITIVE),
    ("bfw_reversed_hazard", lambda v: bfw_reversed_hazard(v, BFW), "x", POSITIVE),
    ("bfw_cumulative_hazard", lambda v: bfw_cumulative_hazard(v, BFW), "x", POSITIVE),
    ("bfw_quantile", lambda v: bfw_quantile(v, BFW), "u", OPEN_UNIT),
    ("mode_equation", lambda v: mode_equation(v, BFW), "x", POSITIVE),
    ("order_stat_pdf", lambda v: order_stat_pdf(v, IDX, BFW), "x", POSITIVE),
    ("order_stat_pdf_expansion", lambda v: order_stat_pdf_expansion(v, IDX, BFW), "x", POSITIVE),
    ("log_gamma", log_gamma, "x", POSITIVE),
    ("digamma", digamma, "x", POSITIVE),
    ("trigamma", trigamma, "x", POSITIVE),
    ("log_beta.p", lambda v: log_beta(v, 2.0), "p", POSITIVE),
    ("log_beta.q", lambda v: log_beta(2.0, v), "q", POSITIVE),
    ("reg_inc_beta.y", lambda v: reg_inc_beta(v, 2.0, 3.0), "y", CLOSED_UNIT),
    ("reg_inc_beta.p", lambda v: reg_inc_beta(0.5, v, 3.0), "p", POSITIVE),
    ("reg_inc_beta.q", lambda v: reg_inc_beta(0.5, 2.0, v), "q", POSITIVE),
    ("inv_reg_inc_beta.u", lambda v: inv_reg_inc_beta(v, 2.0, 3.0), "u", CLOSED_UNIT),
    ("inv_reg_inc_beta.p", lambda v: inv_reg_inc_beta(0.5, v, 3.0), "p", POSITIVE),
    ("inv_reg_inc_beta.q", lambda v: inv_reg_inc_beta(0.5, 2.0, v), "q", POSITIVE),
    ("std_normal_quantile", std_normal_quantile, "u", OPEN_UNIT),
    ("Dataset", lambda v: Dataset(v), "all failure times", POSITIVE),
    ("weibull.parameters", lambda v: get_family("weibull").parameters(v),
     "weibull parameters", POSITIVE),
]

REJECTED = {
    POSITIVE: [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0],
    OPEN_UNIT: [math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 1.5],
    CLOSED_UNIT: [math.nan, math.inf, -math.inf, -0.5, 1.5, -1e-300, 1.0 + 2.0**-52],
}
# a valid companion so an array holds one bad element among good ones
GOOD = {POSITIVE: 1.5, OPEN_UNIT: 0.5, CLOSED_UNIT: 0.5}
# the two-parameter family takes a parameter pair
PAIRED = {"Dataset", "weibull.parameters"}


def _cases():
    for label, call, name, bounds in ENTRY_POINTS:
        for bad in REJECTED[bounds]:
            yield pytest.param(call, name, bounds, bad, label in PAIRED,
                               id=f"{label}-{bad!r}")


@pytest.mark.parametrize("call, name, bounds, bad, paired", list(_cases()))
def test_entry_point_rejects_with_the_shared_message(call, name, bounds, bad, paired):
    message = f"^{re.escape(f'{name} must be {bounds}')}$"
    forms = [[GOOD[bounds], bad]] if paired else [bad, np.float64(bad), [GOOD[bounds], bad]]
    for value in forms:
        with pytest.raises(DomainError, match=message):
            call(value)


@pytest.mark.parametrize("field", ["alpha", "beta", "p", "q"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_parameter_fields_reject_with_the_shared_message(field, bad):
    values = {"alpha": 0.5, "beta": 0.8, "p": 2.0, "q": 3.0, field: bad}
    message = f"^{field} must be strictly positive and finite$"
    with pytest.raises(DomainError, match=message):
        BFWParams(**values)
    if field in ("alpha", "beta"):
        with pytest.raises(DomainError, match=message):
            FWParams(**{k: values[k] for k in ("alpha", "beta")})


def test_closed_unit_interval_keeps_its_endpoints():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
    assert list(inv_reg_inc_beta([0.0, 1.0], 2.0, 3.0)) == [0.0, 1.0]


def test_parameter_fields_are_python_floats():
    params = BFWParams(1, np.float64(0.5), np.int64(3), 2.5)
    assert all(type(getattr(params, f)) is float for f in ("alpha", "beta", "p", "q"))


def test_checked_returns_floats_as_they_are_and_arrays_as_float_arrays():
    from bfw._stable import checked

    assert checked(2.5, "x") == 2.5 and type(checked(2.5, "x")) is float
    arr = checked([1, 2], "x")
    assert arr.dtype == float and list(arr) == [1.0, 2.0]
    assert checked(np.empty(0), "x").size == 0
