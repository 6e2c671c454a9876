import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# pyproject's ``pythonpath`` reaches this process only; child interpreters
# (``python -m oodgate.cli``) find the checkout's package through the env.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if a world draws a single cluster."""
    from oodgate import synthetic

    def refuse(*args, **kwargs):
        raise AssertionError("drew clusters before rejecting the input")

    monkeypatch.setattr(synthetic, "_draw_clusters", refuse)


@pytest.fixture
def block_rows(monkeypatch):
    """``block_rows(rows, width)`` sets the row-block budget to ``rows`` rows
    of ``width`` float64 values, for the rest of the test, and checks that
    blocks of ``width`` now get ``max(2, rows)`` rows."""
    from oodgate import data

    def set_rows(rows, width):
        monkeypatch.setattr(data, "BLOCK_BYTES", rows * 8 * width)
        assert data._block_rows(width) == max(2, rows)

    return set_rows


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` under ``tracemalloc`` and returns
    its result and the traced peak in bytes: of what the call allocates,
    not of what was allocated before it."""
    import tracemalloc

    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
