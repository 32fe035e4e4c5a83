"""Smoke test of ``tools/kernel_times.py``, which times the kernels of one step."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_times.py"


@pytest.fixture(scope="module")
def kernel_times():
    spec = importlib.util.spec_from_file_location("kernel_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_times_every_kernel_of_a_step(kernel_times):
    times = kernel_times.kernel_times("Z4", 4.0 / 3.0, 4.0)
    assert list(times) == ["spectrum", "direction", "apply", "adjoint", "ascent step"]
    assert all(t > 0 for k, t in times.items() if k != "ascent step")


def test_times_a_half_step_both_ways(kernel_times):
    times = kernel_times.half_step_times("M2")
    assert list(times) == [f"r={r} {path}" for r in (2, 3, 4) for path in ("closed", "spectrum")]
    assert all(t > 0 for t in times.values())
