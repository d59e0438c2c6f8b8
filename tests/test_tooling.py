"""Checks that keep the benchmark's tooling in step with the package."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
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


def _kept_values(fn):
    """(name, value) of every cell a closure keeps, through the functions it
    calls by closure too."""
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        value = cell.cell_contents
        if inspect.isfunction(value):
            yield from _kept_values(value)
        else:
            yield name, value


def _plain(value, record_type) -> bool:
    """An array, a shape, a scalar or a graph record: never a Tensor."""
    if isinstance(value, (tuple, list)):
        return all(_plain(v, record_type) for v in value)
    return value is None or isinstance(
        value, (np.ndarray, np.generic, np.dtype, int, float, bool, record_type))


@pytest.mark.parametrize("mode", ["semantic", "instance", "panoptic"])
def test_graph_closures_keep_no_tensor(mode):
    # a record's closure keeps only what its gradient reads; a Tensor would
    # keep its whole value alive until the graph goes, read or not
    from knet import tensor as T
    from knet.data import SceneSpec, generate_sample
    from knet.model import ModelConfig, SegmentationModel

    spec = SceneSpec(seed=21, size=16, n_max=2, size_range=(5.0, 8.0))
    gts = [generate_sample(spec, i) for i in range(2)]
    cfg = ModelConfig(mode=mode, image_size=16, channels=8, num_instance_kernels=3, stages=1,
                      heads=2, min_area=1, keep_fraction=0.0)
    _, loss, _ = SegmentationModel(cfg, seed=8).forward(np.stack([g.image for g in gts]), gts)
    seen, stack, ops, kept = set(), list(loss._parents), set(), []
    while stack:
        record = stack.pop()
        if id(record) in seen:
            continue
        seen.add(id(record))
        stack.extend(record._parents)
        fn = record._backward
        if fn is not None and fn.__module__.startswith("knet."):
            op = fn.__qualname__.split(".")[0]
            ops.add(op)
            kept += [(op, name, type(v).__name__) for name, v in _kept_values(fn)
                     if not _plain(v, T._Record)]
    assert {"conv2d", "layer_norm", "matmul", "linear", "dice_loss"} <= ops
    assert kept == []


def test_package_imports_no_scipy():
    # the assignment solver is in the package: importing it and its command
    # line loads numpy only, not scipy's 500-odd modules
    code = ("import sys, knet, knet.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def _config_paths(d: dict, prefix: str = "") -> set:
    paths = set()
    for key, value in d.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _config_paths(value, f"{prefix}{key}.")
    return paths


@pytest.mark.parametrize("doc", ["README.md", "tools/byte_matrix.sh"])
def test_documented_overrides_name_config_keys(doc):
    # a `--set KEY=` in the docs or tools must name a key TrainConfig still has
    from dataclasses import asdict

    from knet.training import TrainConfig

    keys = re.findall(r"--set ([\w.]+)=", (ROOT / doc).read_text())
    assert keys
    assert sorted(set(keys) - _config_paths(asdict(TrainConfig()))) == []


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


def test_package_exports_resolve():
    # a removed name must leave __all__ with it
    import knet

    assert [name for name in knet.__all__ if not hasattr(knet, name)] == []


# defaulted parameters that no call in the package or the benchmark passes,
# each with the reason it stays a parameter
UNPASSED_DEFAULTS = {
    "main(argv)": "None reads sys.argv; tests pass an argument list",
    "focal_loss(alpha)": "tests check the op at alpha 0.5; the loss uses the paper's 0.25",
    "focal_loss(gamma)": "tests check the op at gamma 0, plain cross-entropy",
    "reduce_sum(keepdims)": "an engine op with numpy's reduction signature; tests keep dims",
    "reduce_mean(axes)": "an engine op with numpy's reduction signature; tests pick axes",
    "reduce_mean(keepdims)": "an engine op with numpy's reduction signature; tests keep dims",
    "grad_check(eps)": "exported in knet.__all__: another check may need another step",
    "load_checkpoint(with_optimizer)": "tests load the optimizer state to compare it bitwise",
    "train(max_epochs)": "tests train in time slices and resume",
}


def _defaulted_params() -> dict:
    """``{callee: [(param, positional index or None), ...]}`` for every function
    and method in the package; a constructor is called by its class name."""
    out = {}
    for path in sorted((ROOT / "src" / "knet").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owned = [(None, node)]
            elif isinstance(node, ast.ClassDef):
                owned = [(node.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for cls, fn in owned:
                name = cls if fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                skip = 1 if cls else 0          # self, not passed positionally
                first = len(positional) - len(fn.args.defaults)
                out.setdefault(name, []).extend(
                    (arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first)
                out[name].extend((arg.arg, None) for arg, d in
                                 zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)
    return out


def test_every_default_is_passed_or_listed():
    # a default that no caller overrides is a constant in disguise: make it
    # one, or list it with a reason; a listed one that is now passed, or gone,
    # leaves the list too
    defaults = _defaulted_params()
    passed = set()
    paths = sorted([*(ROOT / "src" / "knet").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}       # None: a **mapping
            for param, index in defaults.get(name, ()):
                if (param in keywords or None in keywords or starred
                        or (index is not None and index < len(call.args))):
                    passed.add(f"{name}({param})")
    unpassed = {f"{name}({param})" for name, params in defaults.items() for param, _ in params}
    assert sorted(unpassed - passed) == sorted(UNPASSED_DEFAULTS)
