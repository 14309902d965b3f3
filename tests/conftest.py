import pytest

from chaoswpt import _rk4
from chaoswpt.dynamics import LorenzParams, ScalingFactors
from chaoswpt.harvest import LinkBudget, RectennaParams, coefficients


@pytest.fixture(scope="session")
def std_params():
    """Reference operating point used throughout: sigma=10, r=12, beta=8/3."""
    return LorenzParams(sigma=10.0, r=12.0, beta=8.0 / 3.0)


@pytest.fixture(scope="session")
def eps6():
    return ScalingFactors(6.0, 6.0, 6.0)


@pytest.fixture(scope="session")
def std_coeff():
    """Coefficients for the default link budget (30 dBm, 20 m, alpha=4)."""
    return coefficients(LinkBudget(), RectennaParams())


@pytest.fixture
def numpy_rk4(monkeypatch):
    """Force the fallbacks: each system's textbook step, the block written once, and numpy block sums.

    The loader finds no compiled library, so neither of its functions runs.
    """
    monkeypatch.setattr(_rk4, "kernel", lambda: None)


@pytest.fixture(params=["compiled", "numpy"])
def rk4_path(request):
    """Run the test once on the compiled library and once on the numpy paths.

    The compiled run is skipped where the library cannot be built.
    """
    if request.param == "numpy":
        request.getfixturevalue("numpy_rk4")
    elif _rk4.kernel() is None:
        pytest.skip("the compiled RK4 kernel cannot be built here")
    return request.param
