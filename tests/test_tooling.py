"""Checks that keep the benchmark's tooling in step with the package."""

import importlib
import importlib.util
import json
import os
import pkgutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
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


ROOT = TRACER.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_self_consistent(path):
    # a committed record measures the declared benchmark, and its summary
    # statistics are those of its own runs
    record = json.loads(path.read_text())
    declared = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
                for m in BENCHMARK["end_to_end"]}
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, workload in record["workloads"].items():
        assert set(workload["metrics"]) == set(declared), name
        for metric, entry in workload["metrics"].items():
            where = f"{name}/{metric}"
            assert {k: entry[k] for k in ("unit", "better", "bound")} == declared[metric], where
            for side in ("parent", "change"):
                stats = entry[side]
                runs = stats["runs"]
                assert len(runs) == len(workload["seeds"]), (where, side)
                q1, q3 = np.percentile(runs, [25, 75])
                assert stats["median"] == pytest.approx(statistics.median(runs), rel=1e-5)
                assert stats["q1"] == pytest.approx(q1, rel=1e-5), (where, side)
                assert stats["q3"] == pytest.approx(q3, rel=1e-5), (where, side)
                assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"], rel=1e-5, abs=1e-6)


def test_package_imports_no_scipy():
    # the assignment solver is in the package: importing it and its command
    # line loads numpy only, not scipy's 500-odd modules
    code = ("import sys, knet, knet.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"



def test_only_layer_defines_params():
    # checkpoint keys are attribute paths: a layer orders them by its
    # assignments, never by a params() of its own
    import knet
    from knet.layers import Layer

    overrides = []
    for info in pkgutil.iter_modules(knet.__path__):
        module = importlib.import_module(f"knet.{info.name}")
        overrides += [f"{module.__name__}.{name}" for name, cls in vars(module).items()
                      if isinstance(cls, type) and issubclass(cls, Layer)
                      and cls.__module__ == module.__name__ and "params" in vars(cls)]
    assert overrides == ["knet.layers.Layer"]
