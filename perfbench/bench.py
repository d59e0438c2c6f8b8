"""Workloads of the knet benchmark: set-up, timed phases and output checks.

Load comes from this one process: a closed loop with a single caller,
each operation starting when the previous one has returned.  A run is
built from three pieces:

* set-up: write the seeded datasets, train the eval model (the default
  panoptic config, trained deterministically) and warm up every timed
  path.  Set-up runs ``SETUP_REPS`` times; ``setup_s`` is the median.
* train calls: whole ``training.train()`` runs on the workload's data,
  each with per-epoch validation and checkpoints.
* eval rounds: ``knet eval`` (load the checkpoint, read the validation
  set, ``evaluate`` with one worker), then ``knet infer`` without file
  I/O (``forward`` under ``no_grad`` plus ``merge_panoptic``) on every
  validation image.

``train-paper-kernels`` alternates train calls and eval rounds on the
eval model.  ``eval-panoptic`` runs only eval rounds and takes its
train-side metrics from the eval-model training in set-up.  Every
workload reports every end-to-end metric, because the result schema is
shared.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from knet import data, tensor as T, training
from knet import model as knet_model
from knet.errors import KnetError

from tracer import Tracer

SETUP_REPS = 3
WARM_IMAGES = 4
MIN_TRAIN_CALLS = 3
MIN_EVAL_ROUNDS = 4          # 4 rounds x EVAL_IMAGES infer calls >= 100 samples for p90


@dataclass(frozen=True)
class Workload:
    model: dict | None        # ModelConfig overrides of the timed train() calls; None: no train phase
    scene: dict               # SceneSpec overrides of their data
    train_images: int
    val_images: int


WORKLOADS = {
    "train-paper-kernels": Workload(
        {"num_instance_kernels": 100}, {"n_max": 6, "size_range": (8.0, 18.0)}, 12, 4),
    "eval-panoptic": Workload(None, {}, 0, 0),
}

# the eval model: the README quick-start model, trained for 64 steps,
# enough for the stuff masks to converge (final-stage PQ 0.30-0.33 on
# every seed tried; shorter schedules sometimes collapse to ~0.02)
FIXTURE_SCENE = {"n_max": 4}
FIXTURE_IMAGES = 32
FIXTURE_TRAIN = {"epochs": 4, "lr": 1e-3, "batch_size": 2}
EVAL_IMAGES = 32


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _write(root: Path, name: str, seed: int, stream: int, scene: dict, count: int) -> Path:
    path = root / name
    data.write_dataset(data.SceneSpec(seed=_subseed(seed, stream), **scene), count, path)
    return path


def _train_config(model: dict, train_dir: Path, val_dir: Path, out_dir: Path,
                  **overrides) -> training.TrainConfig:
    """One epoch; the config's own seed (model init, sample order) stays at
    its default, as in the README, so only the data varies with ``--seed``."""
    return training.TrainConfig.from_dict({
        "model": model, "epochs": 1, "train_dir": str(train_dir),
        "val_dir": str(val_dir), "out_dir": str(out_dir), **overrides,
    })


class Checks:
    """Output checks; a failed check makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok and what not in self.failures:
            self.failures.append(what)


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


@dataclass
class SetUp:
    fixture_ckpt: Path | None
    eval_val: Path
    fixture_images_per_s: float
    fixture_loss_final: float
    train_cfg: training.TrainConfig | None = None
    fingerprint: str = ""


def _log_totals(log_bytes: bytes) -> list[float]:
    return [json.loads(line)["total"] for line in log_bytes.decode().splitlines()]


def final_epoch_loss(log_bytes: bytes) -> float:
    """Mean ``total`` over the last epoch of a ``log.jsonl``.

    One batch's loss swings with the images drawn; the epoch mean
    compares across seeds.
    """
    records = [json.loads(line) for line in log_bytes.decode().splitlines()]
    last = [r["total"] for r in records if r["epoch"] == records[-1]["epoch"]]
    return sum(last) / len(last)


def set_up(wl: Workload, seed: int, root: Path, with_fixture: bool, checks: Checks) -> SetUp:
    """Datasets, eval model and warm-up; returns what the timed phases use."""
    eval_val = _write(root, "eval_val", seed, 1, FIXTURE_SCENE, EVAL_IMAGES)
    eval_warm = _write(root, "eval_warm", seed, 2, FIXTURE_SCENE, WARM_IMAGES)
    fixture_ckpt, fixture_rate, fixture_loss, digest = None, 0.0, 0.0, ""
    if with_fixture:
        cfg = _train_config(
            {}, _write(root, "fixture_train", seed, 3, FIXTURE_SCENE, FIXTURE_IMAGES),
            _write(root, "fixture_val", seed, 4, FIXTURE_SCENE, 1), root / "fixture",
            **FIXTURE_TRAIN)
        t0 = time.perf_counter()
        training.train(cfg)
        fixture_rate = FIXTURE_IMAGES * cfg.epochs / (time.perf_counter() - t0)
        log = (root / "fixture" / "log.jsonl").read_bytes()
        totals = _log_totals(log)
        checks.require(all(math.isfinite(v) for v in totals), "eval-model training loss is finite")
        fixture_loss = final_epoch_loss(log)
        fixture_ckpt = root / "fixture" / "last.ckpt"
        digest = hashlib.sha256(log).hexdigest()
    out = SetUp(fixture_ckpt, eval_val, fixture_rate, fixture_loss, fingerprint=digest)

    if wl.model is not None:
        train_dir = _write(root, "train", seed, 5, wl.scene, wl.train_images)
        val_dir = _write(root, "val", seed, 6, wl.scene, wl.val_images)
        warm_dir = _write(root, "train_warm", seed, 7, wl.scene, WARM_IMAGES)
        training.train(_train_config(wl.model, warm_dir, warm_dir, root / "warm"))
        out.train_cfg = _train_config(wl.model, train_dir, val_dir, root / "run")
    if fixture_ckpt is not None:
        eval_round(fixture_ckpt, eval_warm, Counts(), {}, checks)
    return out


# ---------------------------------------------------------------------------
# timed phases

@dataclass
class TrainPhase:
    rates: list[float] = field(default_factory=list)     # images/s per train() call
    steps: int = 0
    wall_s: float = 0.0
    log: bytes | None = None


def train_call(cfg: training.TrainConfig, images: int, counts: Counts, checks: Checks,
               phase: TrainPhase) -> None:
    """One whole ``train()`` run over ``images`` images."""
    log_path = Path(cfg.out_dir) / "log.jsonl"
    t0 = time.perf_counter()
    try:
        training.train(cfg)
    except KnetError:
        done = len(log_path.read_bytes().splitlines()) if log_path.exists() else 0
        counts.attempted += done + 1
        counts.failed += 1
        return
    wall = time.perf_counter() - t0
    log = log_path.read_bytes()
    totals = _log_totals(log)
    counts.attempted += len(totals)
    phase.steps += len(totals)
    phase.wall_s += wall
    phase.rates.append(images / wall)
    checks.require(all(math.isfinite(v) for v in totals), "every train loss is finite")
    if phase.log is None:
        phase.log = log
    checks.require(log == phase.log, "log.jsonl is byte-identical across train() calls")


@dataclass
class EvalPhase:
    rates: list[float] = field(default_factory=list)     # images/s per evaluate() call
    infer_ms: list[float] = field(default_factory=list)
    images: int = 0
    wall_s: float = 0.0
    report: dict | None = None


def eval_round(ckpt: Path, val_dir: Path, counts: Counts, reference: dict,
               checks: Checks, phase: EvalPhase | None = None) -> None:
    """One ``knet eval`` plus one ``knet infer`` per validation image.

    ``reference`` maps image index -> first decoded map; later rounds
    must decode the same maps.
    """
    t_round = time.perf_counter()
    cfg, model, _, _, _ = training.load_checkpoint(ckpt)
    val = data.read_dataset(val_dir)
    n = len(val)
    counts.attempted += 2 * n
    t0 = time.perf_counter()
    try:
        report = training.evaluate(model, val, workers=1)
    except KnetError:
        counts.failed += n
        report = None
    eval_s = time.perf_counter() - t0
    if phase is not None and report is not None:
        phase.rates.append(n / eval_s)
        if phase.report is None:
            phase.report = report
        checks.require(report == phase.report, "evaluate report is identical across repeats")

    for i, sample in enumerate(val.samples):
        t0 = time.perf_counter()
        try:
            with T.no_grad():
                stages = model.forward(sample.image[None])
            pan = knet_model.merge_panoptic(stages[-1], cfg.model)
        except KnetError:
            counts.failed += 1
            continue
        if phase is not None:
            phase.infer_ms.append(1e3 * (time.perf_counter() - t0))
        try:
            pan.validate()
        except KnetError:
            checks.require(False, "every decoded PanopticMap passes validate()")
        decoded = (pan.segment_ids.tobytes(), [vars(s) for s in pan.segments])
        checks.require(reference.setdefault(i, decoded) == decoded,
                       "infer decodes the same map for an image every round")
    if phase is not None:
        phase.images += 2 * n
        phase.wall_s += time.perf_counter() - t_round


def throughput(rates: list[float]) -> float:
    """Images per second over all calls of equal size: the harmonic mean of
    the per-call rates, i.e. total images over total time.

    The machine's speed switches between states; a median of per-call
    rates jumps between them when a run spends about half its time in
    each, a total over total moves smoothly with the mix.
    """
    return statistics.harmonic_mean(rates)


def closed_loop(units: list, seconds: float) -> None:
    """Run the ``(unit, minimum)`` pairs round-robin, each unit after the
    previous one returned, until ``seconds`` have passed and every unit
    has run its minimum number of times.

    Alternating the phases exposes each to the same stretch of machine
    time, whose speed drifts over seconds to minutes.
    """
    start = time.perf_counter()
    runs = 0
    while time.perf_counter() - start < seconds or any(runs < m for _, m in units):
        for unit, _ in units:
            unit()
        runs += 1


# ---------------------------------------------------------------------------
# one run

def run(name: str, seed: int, seconds: float, trace: bool, work: Path):
    wl = WORKLOADS[name]
    checks = Checks()
    counts = Counts()
    primary_is_train = wl.model is not None

    setup_s, setups = [], []
    # a traced run needs one set-up; the train workloads' traced phase
    # does not use the eval model
    for rep in range(1 if trace else SETUP_REPS):
        t0 = time.perf_counter()
        setups.append(set_up(wl, seed, work / f"setup{rep}", not (trace and primary_is_train), checks))
        setup_s.append(time.perf_counter() - t0)
        checks.require(setups[-1].fingerprint == setups[0].fingerprint,
                       "set-up trains the same eval model every time")
    setup = setups[-1]
    reference: dict = {}

    def train_unit(phase: TrainPhase):
        return (lambda: train_call(setup.train_cfg, wl.train_images, counts, checks, phase),
                MIN_TRAIN_CALLS)

    def eval_unit(phase: EvalPhase):
        return (lambda: eval_round(setup.fixture_ckpt, setup.eval_val, counts, reference,
                                   checks, phase), MIN_EVAL_ROUNDS)

    if trace:
        # the primary phase untraced, then traced; per-layer metrics of the latter
        make_phase, make_unit = (
            (TrainPhase, train_unit) if primary_is_train else (EvalPhase, eval_unit))
        plain, traced = make_phase(), make_phase()
        closed_loop([make_unit(plain)], seconds)
        tracer = Tracer()
        with tracer:
            closed_loop([make_unit(traced)], seconds)
        return _traced_result(primary_is_train, plain, traced, tracer, counts, checks)

    ev = EvalPhase()
    units = [eval_unit(ev)]
    train = None
    if primary_is_train:
        train = TrainPhase()
        units.insert(0, train_unit(train))
    closed_loop(units, seconds)
    if train is not None:
        train_rate = throughput(train.rates)
        loss_final = final_epoch_loss(train.log)
    else:
        train_rate = throughput([s.fixture_images_per_s for s in setups])
        loss_final = setup.fixture_loss_final
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - counts.failed / counts.attempted, "ratio"),
        "train_images_per_s": (train_rate, "1/s"),
        "train_loss_final": (loss_final, "loss"),
        "eval_images_per_s": (throughput(ev.rates), "1/s"),
        "eval_pq": (ev.report["final"]["pq"], "ratio"),
        # the mean, not the median: see throughput()
        "infer_ms_mean": (statistics.fmean(ev.infer_ms), "ms"),
        "infer_ms_p90": (float(np.quantile(ev.infer_ms, 0.9)), "ms"),
    }
    notes = {
        "setup_s_samples": [round(v, 3) for v in setup_s],
        "train_rates": [round(v, 2) for v in train.rates] if train else [],
        "eval_rates": [round(v, 1) for v in ev.rates],
        "infer_samples": len(ev.infer_ms),
        "infer_ms_p50": float(np.quantile(ev.infer_ms, 0.5)),
    }
    return _result(metrics, counts, checks, notes)


def _traced_result(primary_is_train: bool, plain, traced, tracer: Tracer,
                   counts: Counts, checks: Checks):
    if primary_is_train:
        checks.require(traced.log == plain.log,
                       "log.jsonl is byte-identical with and without tracing")
        ops, unit = traced.steps, "train step"
    else:
        checks.require(traced.report == plain.report,
                       "evaluate report is identical with and without tracing")
        ops, unit = traced.images, "image"
    untraced_rate = throughput(plain.rates)
    traced_rate = throughput(traced.rates)
    metrics = tracer.metrics(ops, traced.wall_s)
    metrics["trace.images_per_s_delta"] = (traced_rate - untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    notes = {"op": unit, "ops": ops, "untraced_images_per_s": untraced_rate,
             "traced_images_per_s": traced_rate}
    return _result(metrics, counts, checks, notes)


def _result(metrics: dict, counts: Counts, checks: Checks, notes: dict):
    """(result line, notes, failed checks)."""
    result = {
        "correct": not checks.failures and counts.attempted > 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes, checks.failures
