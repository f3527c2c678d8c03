import numpy as np
import pytest

from bfw import BFWParams, ConvergenceError, Dataset, FWParams, bfw_sample, fit_mle, ingest

# Estimates published for the bundled pump data.  The four-parameter row is
# stated in the data's own units (thousands of hours); the two-parameter
# rows of the same published analysis are stated in hundreds of hours.
PUBLISHED_BFW = (0.052, 0.024, 35.077, 20.328)
PUBLISHED_FW = (0.0207, 2.5875)

# the benchmark's fixed fit panel (perfbench/workloads.py): panel seed 20170316,
# four draws per (anchor, n) cell, then one n = 5000 draw per anchor
PANEL_SEED = 20170316
PANEL_ANCHORS = (PUBLISHED_BFW, (0.5, 0.5, 2.0, 2.0))
PANEL_CELLS = [(0, 50), (1, 50), (0, 200), (1, 200), (0, 1000), (1, 1000)]


def panel_plan():
    """(label, truth, n, seed) of every draw of the benchmark's fit panel."""
    panel = np.random.default_rng(PANEL_SEED)
    plan = [(a, n, i) for a, n in PANEL_CELLS for i in range(4)] + [(0, 5000, 0), (1, 5000, 0)]
    for anchor, n, i in plan:
        seed = int(panel.integers(2**63))
        yield f"anchor{anchor}-n{n}-{i}", BFWParams(*PANEL_ANCHORS[anchor]), n, seed


def moment_panel():
    """The benchmark's 64 ``moments`` parameter sets (perfbench/workloads.py),
    alternating between the anchors, each parameter scaled by e^(0.5 N(0, 1))."""
    rng = np.random.default_rng([PANEL_SEED, 3])
    return [BFWParams(*(np.array(PANEL_ANCHORS[i % 2]) * np.exp(0.5 * rng.standard_normal(4))))
            for i in range(64)]


def beta_side(y):
    """(z, upper) of an exact y in [0, 1]: z = min(y, 1 - y), exact, and
    ``upper`` where z is 1 - y, the arguments of the private Beta kernels."""
    y = np.asarray(y, dtype=float)
    return np.minimum(y, 1.0 - y), y > 0.5


def panel_draw(truth, n, seed):
    return Dataset(times=bfw_sample(n, truth, seed=seed))


def fresh_draws(seed, count):
    """``count`` seeded draws away from the panel: an anchor with each
    parameter scaled by e^(0.5 N(0, 1)), n cycling through 23 to 1000."""
    rng = np.random.default_rng(seed)
    sizes = (23, 50, 100, 200, 1000)
    for k in range(count):
        truth = BFWParams(*(np.array(PANEL_ANCHORS[k % 2]) * np.exp(0.5 * rng.standard_normal(4))))
        n = sizes[(k // 2) % len(sizes)]
        yield f"fresh{seed}-{k}", panel_draw(truth, n, int(rng.integers(2**63))), truth


def fit_or_error(data):
    """``fit_mle(data)``, or the :class:`ConvergenceError` it raises."""
    try:
        return fit_mle(data)
    except ConvergenceError as exc:
        return exc


@pytest.fixture(scope="session")
def pumps() -> Dataset:
    return ingest("pumps")


@pytest.fixture(scope="session")
def pumps_hundreds(pumps) -> Dataset:
    return Dataset(times=pumps.times * 10.0, label="pumps-hundreds-of-hours")


@pytest.fixture(scope="session")
def published_params() -> BFWParams:
    return BFWParams(*PUBLISHED_BFW)


@pytest.fixture(scope="session")
def published_fw() -> FWParams:
    return FWParams(*PUBLISHED_FW)


@pytest.fixture(scope="session")
def benchmark_draws():
    """label -> (data, truth) for every draw of the benchmark's fit panel."""
    return {label: (panel_draw(truth, n, seed), truth) for label, truth, n, seed in panel_plan()}


@pytest.fixture(scope="session")
def benchmark_panel(benchmark_draws):
    """(label, data, truth) of the first three draws of each (anchor, n) cell
    of the benchmark's fit panel, n = 5000 left out."""
    return [(label, data, truth) for label, (data, truth) in benchmark_draws.items()
            if not label.endswith("-3") and "-n5000-" not in label]


@pytest.fixture(scope="session")
def pumps_fit(pumps):
    """``fit_or_error`` of the pump data, fitted once per session."""
    return fit_or_error(pumps)


@pytest.fixture(scope="session")
def panel_fits(benchmark_panel):
    """label -> ``fit_or_error`` of each :func:`benchmark_panel` draw, fitted
    once per session and shared by every test that needs a panel fit."""
    return {label: fit_or_error(data) for label, data, _ in benchmark_panel}


@pytest.fixture(scope="session")
def large_fits(benchmark_draws):
    """label -> ``fit_or_error`` of the two n = 5000 draws of the benchmark's
    fit panel, fitted once per session."""
    return {label: fit_or_error(data) for label, (data, _) in benchmark_draws.items()
            if "-n5000-" in label}


@pytest.fixture(scope="session")
def fresh_fits():
    """label -> ``fit_or_error`` of 24 seeded draws off the panel."""
    return {label: fit_or_error(data) for label, data, _ in fresh_draws(7, 24)}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)
