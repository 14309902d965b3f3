import contextlib
import functools

import pytest

from chaoswpt import _rk4, montecarlo
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
    """Force the fallbacks: each system's textbook step, the block written once, numpy block sums
    and trajectory text printed by ``%``.

    The loader finds no compiled library, so none of its five functions runs.
    """
    monkeypatch.setattr(_rk4, "kernel", lambda: None)


def on_the_numpy_path(test):
    """``test`` once more, with ``numpy_rk4`` forcing the fallbacks.

    Bound under a name of its own, ``test_x_on_the_numpy_path =
    on_the_numpy_path(test_x)``, the twin keeps ``test``'s body and
    parametrizations, and each test keeps its id.
    """

    @functools.wraps(test)
    def twin(*args, **kwargs):
        return test(*args, **kwargs)

    return pytest.mark.usefixtures("numpy_rk4")(twin)


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


@contextlib.contextmanager
def _forced_chunk_width(width):
    grid = montecarlo._detection_grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_detection_grid", lambda *args: grid(*args)[:2] + (width,))
        yield


@pytest.fixture
def chunk_width():
    """``with chunk_width(w):`` integrates ensembles in chunks of ``w`` realizations, the last one narrower.

    It wraps the rule that sizes chunks by their detection buffer's bytes;
    the stride and row count of the detection grid stay the rule's.
    """
    return _forced_chunk_width
