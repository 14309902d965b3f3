import contextlib
import shutil

import pytest

from chaoswpt import _rk4, dynamics, montecarlo
from chaoswpt.dynamics import LorenzParams, ScalingFactors
from chaoswpt.harvest import LinkBudget, RectennaParams, coefficients

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


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

    The loader finds no compiled library, so none of its four functions runs.
    """
    monkeypatch.setattr(_rk4, "kernel", lambda: None)


@pytest.fixture(scope="session")
def kernel():
    """The compiled library, as ``_rk4.kernel()`` loads it; the test is skipped where it cannot be built."""
    found = _rk4.kernel()
    if found is None:
        pytest.skip("the compiled RK4 kernel cannot be built here")
    return found


@pytest.fixture(params=["compiled", "numpy"])
def rk4_path(request):
    """Run the test once on the compiled library and once on the numpy paths.

    The compiled run is skipped where the library cannot be built.
    """
    request.getfixturevalue("kernel" if request.param == "compiled" else "numpy_rk4")
    return request.param


def on_both_paths(argnames, cases):
    """``parametrize`` a test over ``rk4_path`` and ``cases``, each a ``pytest.param`` with an id.

    A case's compiled run keeps the case's own id, the one it had while the
    test ran on one path; its numpy run's id is ``numpy-`` and that id.
    """
    return pytest.mark.parametrize(
        ["rk4_path", *argnames],
        [pytest.param(path, *case.values, id=case.id if path == "compiled" else f"numpy-{case.id}")
         for path in ("compiled", "numpy") for case in cases],
        indirect=["rk4_path"],
    )


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


@pytest.fixture
def block_budget(monkeypatch):
    """``block_budget(n)`` sizes every block by ``n`` bytes of samples for the rest of the test.

    The rule stays the core's: as many rows as the bytes hold, at least two.
    """
    return lambda nbytes: monkeypatch.setattr(dynamics, "_BLOCK_BYTES", nbytes)
