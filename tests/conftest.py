import contextlib
import threading
import warnings

import numpy as np
import pytest

# A failing @given test imports hypothesis.extra._patching in hypothesis's
# report hook, where the DeprecationWarning of its libcst import is an error
# (pyproject's filterwarnings) and ends the session as an INTERNALERROR.
# Imported once here with that warning ignored, the hook finds it loaded.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_kernel_thread_outlives_the_test():
    """Every helper thread the kernels start is gone when its call returns."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("dualtsst")]
    assert not alive, f"threads left alive: {alive}"
