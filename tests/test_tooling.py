"""Checks that keep the benchmark's tooling in step with the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _timed_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TIMED


TIMED = _timed_targets()


@pytest.mark.parametrize("metric", sorted(TIMED))
def test_tracer_target_resolves(metric):
    # resolved as the tracer patches it: a module-level function, or a
    # method defined on the class itself (the tracer reads ``vars(owner)``)
    module_name, path = TIMED[metric]
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert callable(vars(getattr(module, owner_name)).get(attr)), f"{module_name}.{path}"
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{path}"
