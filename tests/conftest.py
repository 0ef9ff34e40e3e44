"""The benchmark's modules, loaded by path for the tests that read them."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def pool_bases():
    """The eleven generic_scaling base operators T(a) + K."""
    workloads = load_perfbench("workloads")
    return [workloads.generic_base(*key) for key in workloads.GENERIC_POOL]
