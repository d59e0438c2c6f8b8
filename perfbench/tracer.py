"""Per-layer attribution by wrapping knet's public functions from outside.

While a ``Tracer`` is active, each function in ``TIMED`` is replaced, in
every knet module that binds it, by a wrapper that adds the call's wall
time to a running total.  Times are inclusive: a call nested inside
another traced call counts in both.  Three counts are taken at the same
boundaries: solver calls per ``hungarian_assign``, autograd nodes per
``Tensor.backward`` and segments per ``merge_panoptic``.  Leaving the
``with`` block restores the original functions, so untraced runs execute
the package exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric name -> (module, attribute path); the metric is busy ms per op
TIMED = {
    "data.read_dataset_ms": ("knet.data", "read_dataset"),
    "model.backbone_ms": ("knet.model", "BackboneLite.__call__"),
    "model.merge_panoptic_ms": ("knet.model", "merge_panoptic"),
    "head.run_iterative_ms": ("knet.head", "IterativeKernelHead.run_iterative"),
    "head.group_features_ms": ("knet.head", "assemble_group_features"),
    "head.kernel_update_ms": ("knet.head", "AdaptiveKernelUpdate.__call__"),
    "head.interaction_ms": ("knet.head", "KernelInteraction.__call__"),
    "head.predict_masks_ms": ("knet.head", "predict_masks"),
    "head.branch_ms": ("knet.head", "KernelMlp.__call__"),
    "matching.loss_ms": ("knet.matching", "set_prediction_loss"),
    "matching.cost_ms": ("knet.matching", "matching_cost"),
    "matching.assign_ms": ("knet.matching", "hungarian_assign"),
    "tensor.backward_ms": ("knet.tensor", "Tensor.backward"),
    "tensor.conv2d_ms": ("knet.tensor", "conv2d"),
    "tensor.matmul_ms": ("knet.tensor", "matmul"),
    "tensor.upsample_ms": ("knet.tensor", "bilinear_upsample"),
    "tensor.resize_ms": ("knet.tensor", "bilinear_resize_array"),
    "optim.step_ms": ("knet.optim", "AdamW.step"),
    "metrics.pq_update_ms": ("knet.metrics", "PqStats.update"),
    "training.evaluate_ms": ("knet.training", "evaluate"),
    "training.save_checkpoint_ms": ("knet.training", "save_checkpoint"),
    "training.load_checkpoint_ms": ("knet.training", "load_checkpoint"),
}


def graph_size(root) -> int:
    """Distinct tensors reachable from ``root`` through autograd parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)     # metric -> seconds
        self.counts = defaultdict(int)     # counter -> events
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever a knet module binds it."""
        for name, module in list(sys.modules.items()):
            if name != "knet" and not name.startswith("knet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _timed(self, metric: str, fn, after=None):
        busy = self.busy
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy[metric] += clock() - t0
            if after is not None:
                after(out)
            return out
        return wrapper

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def count_assign(out):
            counts["assign_calls"] += 1

        def count_segments(out):
            counts["merge_calls"] += 1
            counts["segments"] += len(out.segments)

        hooks = {"matching.assign_ms": count_assign, "model.merge_panoptic_ms": count_segments}
        for metric, (module_name, path) in TIMED.items():
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if not owner_name:
                original = getattr(module, attr)
                self._replace(original, self._timed(metric, original, hooks.get(metric)))
                continue
            owner = getattr(module, owner_name)
            timed = self._timed(metric, vars(owner)[attr])
            if metric == "tensor.backward_ms":
                def backward(loss, _timed_backward=timed):
                    counts["backward_calls"] += 1
                    counts["graph_nodes"] += graph_size(loss)
                    return _timed_backward(loss)
                timed = backward
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, timed)

        from scipy.optimize import linear_sum_assignment

        def lsap(*args, **kwargs):
            counts["lsap_calls"] += 1
            return linear_sum_assignment(*args, **kwargs)
        self._replace(linear_sum_assignment, lsap)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def metrics(self, ops: int, wall_s: float) -> dict[str, tuple[float, str]]:
        """Name -> (value, unit): busy ms per op of every traced function,
        the count ratios, and the share of ``wall_s`` spent in matching.

        ``graph_size`` walks the graph before the original backward runs,
        so its cost lands outside ``tensor.backward_ms`` but inside
        ``wall_s``.
        """
        c = self.counts

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out = {name: (1e3 * self.busy[name] / ops, "ms") for name in TIMED}
        out["model.segments_per_image"] = (ratio("segments", "merge_calls"), "count")
        out["matching.lsap_solves_per_assign"] = (ratio("lsap_calls", "assign_calls"), "count")
        out["tensor.graph_nodes_per_step"] = (ratio("graph_nodes", "backward_calls"), "count")
        matching_s = self.busy["matching.cost_ms"] + self.busy["matching.assign_ms"]
        out["matching.share_pct"] = (100.0 * matching_s / wall_s, "%")
        return out
