"""Training loop, checkpointing, evaluation, and the ablation driver.

Everything is deterministic for a fixed config and seed: parameter init
comes from one generator, the per-epoch sample order is derived from
(seed, epoch), and there is no other stochasticity, so two runs produce
byte-identical logs and metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .data import Dataset, dataclass_from_dict, read_dataset
from .errors import ConfigError, FormatError, TrainingError
from .matching import LossWeights
from .metrics import ApResult, ApStats, MiouStats, PqResult, PqStats
from .model import (
    ModelConfig, SegmentationModel, binarize_instances, merge_panoptic, semantic_raster,
)
from .optim import AdamW, lr_at, milestone_iterations

CHECKPOINT_FORMAT = "knet-checkpoint-v1"
# the best validation value before any epoch; every metric is >= 0
NO_BEST = -1.0


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 1e-4
    weight_decay: float | None = None   # per-mode default, see resolved_weight_decay
    betas: tuple[float, float] = (0.9, 0.999)
    epochs: int = 12
    milestones: tuple[float, ...] = (2.0 / 3.0, 11.0 / 12.0)
    lr_decay_factor: float = 0.1
    batch_size: int = 4
    seed: int = 0
    train_dir: str = "data/train"
    val_dir: str = "data/val"
    out_dir: str = "runs/default"
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError(f"batch size {self.batch_size} must be >= 1 "
                              f"and epochs {self.epochs} >= 0")

    def resolved_weight_decay(self) -> float:
        if self.weight_decay is not None:
            return self.weight_decay
        return 0.0005 if self.model.mode == "semantic" else 0.05

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return dataclass_from_dict(cls, d)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Apply ``a.b.c=value`` assignments to a nested config dict."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {d!r}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = d
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {k!r} is not an object")
        node[keys[-1]] = value
    return d


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, cfg: TrainConfig, model: SegmentationModel,
                    opt: AdamW | None, epoch: int, iteration: int,
                    best: float = NO_BEST) -> None:
    """Write the header line, then the parameters and optimizer state.

    ``best`` is the best validation value so far, so a resumed run keeps it.
    """
    params = model.params()
    opt_arrays = opt.state_arrays() if opt is not None else {}
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "epoch": epoch,
        "iteration": iteration,
        "opt_t": opt.t if opt is not None else 0,
        "best": best,
        "param_keys": list(params.keys()),
        "opt_keys": list(opt_arrays.keys()),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fp:
        fp.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for key in header["param_keys"]:
            T.write_tensor(fp, params[key])
        for key in header["opt_keys"]:
            T.write_tensor(fp, opt_arrays[key])


def load_checkpoint(path, with_optimizer: bool = False):
    """Returns (cfg, model, opt | None, epoch, iteration)."""
    header, cfg, model, opt = _load_checkpoint(path, with_optimizer)
    return cfg, model, opt, header["epoch"], header["iteration"]


def _load_checkpoint(path, with_optimizer: bool):
    """Returns (header, cfg, model, opt | None); the header's ``best`` is
    filled in as NO_BEST when a checkpoint predates it."""
    with open(path, "rb") as fp:
        line = fp.readline()
        try:
            header = json.loads(line)
        except ValueError:
            raise FormatError(f"{path}: not a checkpoint") from None
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise FormatError(f"{path}: unknown checkpoint format")
        for key in ("epoch", "iteration", "opt_t"):
            # bool is an int subclass; a negative count breaks resume later
            value = header.get(key)
            if type(value) is not int or value < 0:
                raise FormatError(
                    f"{path}: checkpoint header {key!r} is not a non-negative integer: {value!r}"
                )
        best = header.setdefault("best", NO_BEST)
        # an int is finite however large; bool is an int subclass, so compare types
        if not (type(best) is int or (type(best) is float and math.isfinite(best))):
            raise FormatError(f"{path}: checkpoint header 'best' is not a finite number: {best!r}")
        if not isinstance(header.get("config"), dict):
            raise FormatError(f"{path}: checkpoint header lacks a config object")
        cfg = TrainConfig.from_dict(header["config"])
        model = SegmentationModel(cfg.model, seed=cfg.seed)
        params = model.params()
        if list(params.keys()) != header.get("param_keys"):
            raise FormatError(f"{path}: parameter keys do not match the configured model")
        for key in header["param_keys"]:
            arr = T.read_tensor(fp)
            if arr.shape != params[key].data.shape:
                raise FormatError(f"{path}: shape mismatch for {key}")
            params[key].data = arr.astype(params[key].data.dtype)
        opt = None
        if with_optimizer:
            opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.resolved_weight_decay(),
                        betas=cfg.betas)
            expected = opt.state_arrays()
            if not header.get("opt_keys"):
                raise FormatError(f"{path}: checkpoint was saved without optimizer state")
            if header["opt_keys"] != list(expected.keys()):
                raise FormatError(f"{path}: optimizer keys do not match the configured model")
            arrays = {}
            for key in header["opt_keys"]:
                arrays[key] = T.read_tensor(fp)
                if arrays[key].shape != expected[key].shape:
                    raise FormatError(f"{path}: shape mismatch for {key}")
            opt.load_state_arrays(arrays, header["opt_t"])
    return header, cfg, model, opt


# ---------------------------------------------------------------------------
# evaluation

class EvalMode(NamedTuple):
    decode: Callable        # (StageOutput, ModelConfig, image index) -> that image's prediction
    stats: type             # per-stage accumulator: update(pred, truth), result()
    truth: str              # the GroundTruthSample field predictions are scored against
    report: Callable        # accumulator result -> report fields
    primary: str            # the report field that picks the best checkpoint


# the decoders are looked up at call time, so a wrapper installed on the
# module binding (as perfbench's tracer does) sees every call
EVAL_MODES = {
    "panoptic": EvalMode(lambda stage, cfg, i: merge_panoptic(stage, cfg, i), PqStats,
                         "panoptic", PqResult.to_dict, "pq"),
    "instance": EvalMode(lambda stage, cfg, i: binarize_instances(stage, cfg, i), ApStats,
                         "instances", ApResult.to_dict, "ap"),
    "semantic": EvalMode(lambda stage, cfg, i: semantic_raster(stage, cfg, i), MiouStats,
                         "semantic", lambda miou: {"miou": miou}, "miou"),
}

# images per forward in evaluate; the forward is batch-invariant, so this
# trades speed against peak memory and cannot change the report
EVAL_CHUNK = 16


def evaluate(model: SegmentationModel, dataset: Dataset, workers: int = 1) -> dict:
    """Per-stage metrics over a dataset; mode picked from the model config.

    The images are forwarded ``EVAL_CHUNK`` at a time, then decoded one by
    one; every stage's prediction goes straight into that stage's
    accumulator.  All images must share one shape.  ``workers`` is ignored
    and kept only because ``perfbench/bench.py`` still passes ``workers=1``.
    """
    cfg = model.cfg
    mode = EVAL_MODES[cfg.mode]
    stats = [mode.stats() for _ in range(cfg.stages + 1)]
    with T.no_grad():
        for chunk in _batches(dataset.samples, EVAL_CHUNK):
            stages = model.forward(np.stack([sample.image for sample in chunk]))
            for i, sample in enumerate(chunk):
                # decode all stages before scoring any: interleaving the two made malloc
                # return pages to the OS per stage, and eval ~25% slower on page faults
                preds = [mode.decode(stage, cfg, i) for stage in stages]
                for acc, pred in zip(stats, preds):
                    acc.update(pred, getattr(sample, mode.truth))
    per_stage = [{"stage": si, **mode.report(acc.result())} for si, acc in enumerate(stats)]
    return {
        "mode": cfg.mode,
        "primary_metric": mode.primary,
        "per_stage": per_stage,
        "final": per_stage[-1],
    }


def format_report(report: dict) -> str:
    """Fixed-width text table of the per-stage metrics."""
    keys = [k for k in report["per_stage"][0] if k != "stage"]
    lines = [" ".join(["stage"] + [f"{k:>10}" for k in keys])]
    for row in report["per_stage"]:
        cells = [f"{row['stage']:>5}"]
        for k in keys:
            v = row[k]
            cells.append(f"{v:>10.4f}" if isinstance(v, float) else f"{v:>10}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# training

def _batches(order: Sequence, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def read_fitting(path: str, cfg: ModelConfig) -> Dataset:
    """Read a non-empty dataset whose rasters are ``image_size`` square and
    whose segments all have a thing or stuff class of the model, as flagged."""
    dataset = read_dataset(path)
    if not dataset.samples:
        raise ConfigError(f"{path}: no samples to train or validate on")
    for i, pan in enumerate(s.panoptic for s in dataset.samples):
        if pan.segment_ids.shape != (cfg.image_size, cfg.image_size):
            raise ConfigError(f"{path} sample {i}: raster {pan.segment_ids.shape} does not "
                              f"match model.image_size {cfg.image_size}")
        for seg in pan.segments:
            kind = "thing" if seg.is_thing else "stuff"
            if seg.class_id not in getattr(cfg, f"{kind}_class_ids"):
                raise ConfigError(f"{path} sample {i}: {kind} class {seg.class_id} is not "
                                  f"in model.{kind}_class_ids")
    return dataset


def _resume_compatible(a: TrainConfig, b: TrainConfig) -> bool:
    da, db = a.to_dict(), b.to_dict()
    da.pop("out_dir")
    db.pop("out_dir")
    return da == db


def train(cfg: TrainConfig, resume: str | None = None,
          log_fn=None, max_epochs: int | None = None) -> dict:
    """Run the schedule; returns the metrics report dict.

    Writes ``log.jsonl`` (one loss record per iteration), ``metrics.json``
    (per-epoch validation history), and best/last checkpoints under
    ``cfg.out_dir``.  ``max_epochs`` caps how many epochs this invocation
    runs (time-sliced training); resume from ``last.ckpt`` to continue.
    A resumed run keeps the checkpoint's best value, while its
    ``metrics.json`` history holds only the epochs of this call.

    A step holds one autograd graph: its loss, and with it every stage
    output and activation, is dropped after the optimizer step.
    """
    train_set = read_fitting(cfg.train_dir, cfg.model)
    val_set = read_fitting(cfg.val_dir, cfg.model)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if resume:
        header, loaded_cfg, model, opt = _load_checkpoint(resume, with_optimizer=True)
        if not _resume_compatible(loaded_cfg, cfg):
            raise ConfigError("checkpoint config does not match the requested config")
        start_epoch, iteration, best_value = header["epoch"], header["iteration"], header["best"]
    else:
        model = SegmentationModel(cfg.model, seed=cfg.seed)
        opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.resolved_weight_decay(),
                    betas=cfg.betas)
        start_epoch, iteration, best_value = 0, 0, NO_BEST

    iters_per_epoch = math.ceil(len(train_set) / cfg.batch_size)
    total_iters = cfg.epochs * iters_per_epoch
    milestones = milestone_iterations(total_iters, cfg.milestones)
    end_epoch = cfg.epochs if max_epochs is None else min(cfg.epochs, start_epoch + max_epochs)

    primary = EVAL_MODES[cfg.model.mode].primary
    history: list[dict] = []
    log_mode = "a" if resume else "w"
    t0 = time.time()
    report = None

    with open(out / "log.jsonl", log_mode) as log:
        for epoch in range(start_epoch, end_epoch):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_set))
            for batch_idx in _batches(order, cfg.batch_size):
                gts = [train_set.samples[i] for i in batch_idx]
                images = np.stack([g.image for g in gts])
                lr = lr_at(cfg.lr, iteration, milestones, cfg.lr_decay_factor)
                loss, breakdown = model.forward(images, gts, cfg.loss)[1:]
                if not np.isfinite(loss.data):
                    raise TrainingError(
                        f"non-finite loss at iteration {iteration}: {breakdown.to_dict()}"
                    )
                opt.zero_grad()
                loss.backward()
                opt.step(lr)
                # free this step's graph before the next forward or evaluate
                del loss
                record = {"iter": iteration, "epoch": epoch, "lr": lr}
                record.update(breakdown.to_dict())
                log.write(json.dumps(record, sort_keys=True) + "\n")
                iteration += 1

            report = evaluate(model, val_set)
            entry = {"epoch": epoch, "iteration": iteration, **report["final"]}
            entry["per_stage"] = report["per_stage"]
            history.append(entry)
            if log_fn:
                log_fn(f"epoch {epoch}: {primary}={report['final'][primary]:.4f} "
                       f"loss={breakdown.total:.4f} ({time.time() - t0:.0f}s)")
            improved = report["final"][primary] > best_value
            if improved:
                best_value = report["final"][primary]
            save_checkpoint(out / "last.ckpt", cfg, model, opt, epoch + 1, iteration, best_value)
            if improved:
                # the same arguments as last.ckpt, so the same bytes
                shutil.copyfile(out / "last.ckpt", out / "best.ckpt")

    # the last epoch's report already covers the final model
    final_report = report if report is not None else evaluate(model, val_set)
    metrics = {
        "config_hash": cfg.config_hash(),
        "mode": cfg.model.mode,
        "primary_metric": primary,
        "history": history,
        "best": best_value,
        "final": final_report,
    }
    (out / "metrics.json").write_text(json.dumps(metrics, sort_keys=True, indent=1))
    (out / "report.txt").write_text(format_report(final_report) + "\n")
    return metrics


# ---------------------------------------------------------------------------
# ablations

# part -> cells, each a (name, ModelConfig overrides) pair; a cell trains
# under <out_dir>/<part>_<name without a leading "<part>=">
ABLATIONS: dict[str, list[tuple[str, dict]]] = {
    "grid": [(f"aku={int(aku)}_ki={int(ki)}", {"aku": aku, "ki": ki})
             for aku in (True, False) for ki in (True, False)],
    "stages": [(f"stages={s}", {"stages": s}) for s in range(1, 6)],
    "kernels": [(f"kernels={n}", {"num_instance_kernels": n}) for n in (5, 10, 20)],
}


def ablate(cfg: TrainConfig, parts: tuple[str, ...] = tuple(ABLATIONS),
           log_fn=None) -> dict:
    """Head-component grid and capacity sweeps, each cell a full training."""
    unknown = sorted(set(parts) - set(ABLATIONS))
    if unknown:
        raise ConfigError(f"unknown ablation parts: {', '.join(unknown)} "
                          f"(choose from {', '.join(ABLATIONS)})")
    if cfg.model.mode == "semantic" and "kernels" in parts:
        # semantic mode has no instance kernels: the cells would be identical
        raise ConfigError("the kernels sweep has no effect in semantic mode (choose from "
                          f"{', '.join(p for p in ABLATIONS if p != 'kernels')})")
    base_out = Path(cfg.out_dir)
    results: dict[str, list[dict]] = {}
    for part, cells in ABLATIONS.items():
        if part not in parts:
            continue
        results[part] = []
        for name, overrides in cells:
            cell_cfg = replace(
                cfg, model=replace(cfg.model, **overrides),
                out_dir=str(base_out / f"{part}_{name.removeprefix(part + '=')}"),
            )
            if log_fn:
                log_fn(f"[ablate] training cell {name}")
            final = train(cell_cfg)["final"]
            row = {"cell": name, **{k: v for k, v in final["final"].items() if k != "stage"}}
            row["per_stage"] = final["per_stage"]
            if log_fn:
                log_fn(f"[ablate] {name}: {row}")
            results[part].append(row)

    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / "ablation.json").write_text(json.dumps(results, sort_keys=True, indent=1))
    lines = []
    for part, rows in results.items():
        lines.append(f"== {part} ==")
        for row in rows:
            cells = " ".join(
                f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in row.items() if k != "per_stage"
            )
            lines.append("  " + cells)
    table = "\n".join(lines)
    (base_out / "ablation.txt").write_text(table + "\n")
    if log_fn:
        log_fn(table)
    return results
