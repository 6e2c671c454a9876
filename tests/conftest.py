import ctypes
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


@pytest.fixture(scope="session")
def kernel_note():
    """The failure message of a test whose pinned bytes depend on the host's
    OpenBLAS kernel (mah's Cholesky factor and ``dtrtrs`` solves) or on
    numpy's SIMD dispatch (msp's and ebm's ``exp`` and ``log``): both, here
    and where the pins hold."""
    from oodgate.detectors import _numpy_blas

    lib = _numpy_blas()
    names = [f"{p}openblas_get_corename{s}" for p in ("scipy_", "") for s in ("64_", "")]
    name = next((n for n in names if hasattr(lib, n)), None)
    if name is None:
        core = "no OpenBLAS corename"
    else:
        get = getattr(lib, name)
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = f"{name}() = {get().decode()!r}"
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return (f"these bytes depend on the host's kernels; here {core}, numpy's "
            f"__cpu_baseline__ = {umath.__cpu_baseline__} and its enabled __cpu_dispatch__ "
            f"= {enabled}. They hold under scipy_openblas_get_corename64_() = "
            "'SkylakeX', with numpy's baseline ['X86_V2'] and dispatch to ['X86_V3', "
            "'X86_V4', 'AVX512_ICL', 'AVX512_SPR'] enabled")
