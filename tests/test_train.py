import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knet.training as TR
from knet.data import SceneSpec, read_dataset, write_dataset
from knet.errors import ConfigError, FormatError, KnetError
from knet.model import ModelConfig, SegmentationModel
from knet.optim import AdamW
from knet.training import TrainConfig, apply_overrides, evaluate, load_checkpoint, save_checkpoint


def tiny_train_config(tmp_path, mode="panoptic", epochs=1, **model_kw):
    data_spec = SceneSpec(seed=5, size=16, n_max=2, size_range=(5.0, 8.0))
    train_dir = tmp_path / "train"
    val_dir = tmp_path / "val"
    if not (train_dir / "manifest.json").exists():
        write_dataset(data_spec, 6, train_dir)
        write_dataset(SceneSpec(seed=6, size=16, n_max=2, size_range=(5.0, 8.0)), 3, val_dir)
    model = dict(mode=mode, image_size=16, channels=8, num_instance_kernels=4,
                 stages=1, heads=2, min_area=1, keep_fraction=0.0)
    model.update(model_kw)
    return TrainConfig(
        model=ModelConfig(**model),
        epochs=epochs, batch_size=3, seed=1,
        train_dir=str(train_dir), val_dir=str(val_dir),
        out_dir=str(tmp_path / "run"),
    )


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        # JSON turns tuples into lists; from_dict restores them
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("d", [
        {"bogus": 1}, {"model": {"bogus": 1}}, {"loss": {"bogus": 1}}, {"model": 3},
    ])
    def test_from_dict_rejects_unknown_keys(self, d):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize("d", [
        {"epochs": "x"}, {"epochs": 2.0}, {"lr": "a"}, {"lr": True}, {"betas": [0.9]},
        {"milestones": [0.5, "a"]}, {"model": {"stages": "x"}}, {"model": {"aku": "yes"}},
        {"model": {"aku": 1}}, {"model": {"thing_class_ids": [1, 2.5]}},
        {"loss": {"lam_ce": None}}, {"train_dir": 3},
    ])
    def test_from_dict_rejects_mistyped_values(self, d):
        with pytest.raises(ConfigError, match="must be"):
            TrainConfig.from_dict(d)

    def test_from_dict_accepts_json_forms(self):
        cfg = TrainConfig.from_dict({"lr": 1, "weight_decay": None, "milestones": [],
                                     "betas": [0.5, 1], "model": {"stages": 0}})
        assert cfg.lr == 1 and cfg.weight_decay is None and cfg.milestones == ()
        assert cfg.betas == (0.5, 1) and cfg.model.stages == 0

    def test_weight_decay_defaults_by_mode(self, tmp_path):
        assert tiny_train_config(tmp_path).resolved_weight_decay() == 0.05
        assert tiny_train_config(tmp_path, mode="semantic").resolved_weight_decay() == 0.0005
        cfg = tiny_train_config(tmp_path)
        cfg.weight_decay = 0.2
        assert cfg.resolved_weight_decay() == 0.2

    def test_overrides_dot_path(self):
        d = {"model": {"stages": 3}, "lr": 1e-4}
        apply_overrides(d, ["model.stages=5", "lr=0.001", "train_dir=custom/path"])
        assert d["model"]["stages"] == 5
        assert d["lr"] == 0.001
        assert d["train_dir"] == "custom/path"

    def test_config_hash_golden(self):
        assert TrainConfig().config_hash() == "1c9d57362001b59c"
        quick_start = {"model": {"mode": "panoptic"}, "epochs": 20, "train_dir": "data/train",
                       "val_dir": "data/val", "out_dir": "runs/demo"}
        assert TrainConfig.from_dict(quick_start).config_hash() == "f02752f1ea3776c7"

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    @pytest.mark.parametrize("d, overrides", [
        ([], ["epochs=1"]), ({}, ["model=3", "model.stages=2"]), ({"loss": 1}, ["loss.lam_ce=2"]),
    ])
    def test_override_into_non_object_rejected(self, d, overrides):
        with pytest.raises(ConfigError, match="object"):
            apply_overrides(d, overrides)

    @pytest.mark.parametrize("kw", [{"batch_size": 0}, {"epochs": -1}])
    def test_rejects_out_of_range_schedule(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestTrainSmoke:
    def test_one_epoch_writes_artifacts(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        metrics = TR.train(cfg)
        out = Path(cfg.out_dir)
        assert (out / "log.jsonl").exists()
        assert (out / "metrics.json").exists()
        assert (out / "last.ckpt").exists()
        assert (out / "best.ckpt").exists()
        assert (out / "report.txt").exists()
        lines = (out / "log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2  # 6 samples / batch 3 = 2 iterations
        record = json.loads(lines[0])
        assert {"iter", "epoch", "lr", "total", "cls", "ce", "dice", "seg"} <= set(record)
        assert len(metrics["history"]) == 1
        assert metrics["final"]["per_stage"][0]["stage"] == 0

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        TR.train(cfg)
        _, model_a, opt_a, epoch, it = load_checkpoint(
            Path(cfg.out_dir) / "last.ckpt", with_optimizer=True)
        assert epoch == 1 and it == 2
        save_checkpoint(tmp_path / "again.ckpt", cfg, model_a, opt_a, epoch, it)
        _, model_b, opt_b, _, _ = load_checkpoint(tmp_path / "again.ckpt", with_optimizer=True)
        for (ka, pa), (kb, pb) in zip(model_a.params().items(), model_b.params().items()):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data)
        for k in opt_a.m:
            assert np.array_equal(opt_a.m[k], opt_b.m[k])

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_full = tiny_train_config(tmp_path, epochs=2)
        cfg_full.out_dir = str(tmp_path / "full")
        TR.train(cfg_full)

        # same schedule, interrupted after one epoch, then resumed
        cfg_half = TrainConfig.from_dict(cfg_full.to_dict())
        cfg_half.out_dir = str(tmp_path / "half")
        TR.train(cfg_half, max_epochs=1)
        cfg_resumed = TrainConfig.from_dict(cfg_full.to_dict())
        cfg_resumed.out_dir = str(tmp_path / "resumed")
        TR.train(cfg_resumed, resume=str(Path(cfg_half.out_dir) / "last.ckpt"))

        _, m_full, _, _, _ = load_checkpoint(Path(cfg_full.out_dir) / "last.ckpt")
        _, m_res, _, _, _ = load_checkpoint(Path(cfg_resumed.out_dir) / "last.ckpt")
        for (ka, pa), (kb, pb) in zip(m_full.params().items(), m_res.params().items()):
            assert ka == kb
            assert np.array_equal(pa.data, pb.data), ka

    def test_validates_each_model_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_evaluate(model, dataset, workers=1):
            calls.append(1)
            return evaluate(model, dataset, workers)

        monkeypatch.setattr(TR, "evaluate", counting_evaluate)
        cfg = tiny_train_config(tmp_path, epochs=2)
        metrics = TR.train(cfg)
        assert len(calls) == 2
        assert metrics["final"]["per_stage"] == metrics["history"][-1]["per_stage"]
        # resumed at the end of the schedule: no epoch runs, one evaluation
        calls.clear()
        TR.train(cfg, resume=str(Path(cfg.out_dir) / "last.ckpt"))
        assert len(calls) == 1

    @pytest.mark.parametrize("model_kw, match", [
        ({"image_size": 32}, "image_size 32"),
        ({"thing_class_ids": [1]}, "thing class . is not in model.thing_class_ids"),
        ({"stuff_class_ids": [102]}, "stuff class 101 is not in model.stuff_class_ids"),
    ])
    def test_data_must_fit_the_model(self, tmp_path, model_kw, match):
        cfg = tiny_train_config(tmp_path, **model_kw)
        with pytest.raises(ConfigError, match=match):
            TR.train(cfg)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("which", ["train_dir", "val_dir"])
    def test_empty_dataset_rejected(self, tmp_path, which):
        # an empty training set used to end in a raw UnboundLocalError
        cfg = tiny_train_config(tmp_path)
        write_dataset(SceneSpec(seed=7, size=16), 0, tmp_path / "empty")
        setattr(cfg, which, str(tmp_path / "empty"))
        with pytest.raises(ConfigError, match="no samples"):
            TR.train(cfg)
        assert not (tmp_path / "run").exists()

    def test_resume_config_mismatch_rejected(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        TR.train(cfg)
        other = TrainConfig.from_dict(cfg.to_dict())
        other.lr = 5e-4
        with pytest.raises(ConfigError):
            TR.train(other, resume=str(Path(cfg.out_dir) / "last.ckpt"))

    def test_train_step_keeps_f32(self, tmp_path):
        # a float64 scalar inside an op would promote gradients, and AdamW
        # would then silently turn the parameters into float64
        cfg = tiny_train_config(tmp_path)
        model = SegmentationModel(cfg.model, seed=cfg.seed)
        gts = read_dataset(cfg.train_dir).samples[:2]
        _, loss, _ = model.forward(np.stack([g.image for g in gts]), gts, cfg.loss)
        loss.backward()
        for key, p in model.params().items():
            assert p.data.dtype == np.float32, key
            assert p.grad is None or p.grad.dtype == np.float32, key

    @pytest.mark.parametrize("mode", ["semantic", "instance"])
    def test_other_modes_smoke(self, tmp_path, mode):
        cfg = tiny_train_config(tmp_path, mode=mode)
        metrics = TR.train(cfg)
        key = {"semantic": "miou", "instance": "ap"}[mode]
        assert key in metrics["final"]["final"]


class TestCheckpointErrors:
    def _save(self, tmp_path, with_optimizer=True, mutate=None):
        cfg = tiny_train_config(tmp_path)
        model = SegmentationModel(cfg.model, seed=cfg.seed)
        opt = AdamW(model.params()) if with_optimizer else None
        if mutate:
            mutate(opt)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, model, opt, 1, 2)
        return path

    def test_resume_without_optimizer_state(self, tmp_path):
        path = self._save(tmp_path, with_optimizer=False)
        load_checkpoint(path)
        with pytest.raises(FormatError, match="without optimizer state"):
            load_checkpoint(path, with_optimizer=True)

    @pytest.mark.parametrize("header", [b"[]", b"1", b'"x"', b"\xff\xfe", b'{"format": "knet-checkpoint-v1"}'])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"\n")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("heads", 0), ("heads", -2), ("channels", 0), ("channels", -8),
        ("num_instance_kernels", -1), ("image_size", -16), ("seed", -1),
    ])
    def test_out_of_range_config_is_config_error(self, tmp_path, key, value):
        path = self._save(tmp_path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        node = header["config"] if key == "seed" else header["config"]["model"]
        node[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_optimizer_shape_mismatch(self, tmp_path):
        def shrink(opt):
            key = next(iter(opt.v))
            opt.v[key] = opt.v[key].reshape(-1)[:1]

        path = self._save(tmp_path, mutate=shrink)
        with pytest.raises(FormatError, match="shape mismatch for v:"):
            load_checkpoint(path, with_optimizer=True)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg = TrainConfig(model=ModelConfig(image_size=16, channels=8, num_instance_kernels=4,
                                        stages=1, heads=2))
    model = SegmentationModel(cfg.model, seed=cfg.seed)
    save_checkpoint(root / "ok.ckpt", cfg, model, AdamW(model.params()), 1, 2)
    data = (root / "ok.ckpt").read_bytes()
    return root, data, data.index(b"\n") + 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_checkpoint_raises_only_knet_errors(checkpoint_bytes, data):
    # byte flips (mostly in the JSON header) and truncations of a valid file
    root, raw, header_end = checkpoint_bytes
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        end = data.draw(st.sampled_from([header_end, len(raw)]))
        raw[data.draw(st.integers(0, end - 1))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    path = root / "fuzzed.ckpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path, with_optimizer=data.draw(st.booleans()))
    except KnetError:
        pass


# sha256 prefix of evaluate's sorted-JSON report, per (mode, stages), for
# the briefly trained models of test_report_golden; it pins every float bit
GOLDEN_REPORTS = {
    ("panoptic", 0): "c5f55fa1579f41b2",
    ("panoptic", 2): "dc17c40f8b50fbef",
    ("instance", 0): "b86542e78d1131f8",
    ("instance", 2): "04c9a5864bc7775e",
    ("semantic", 0): "f123dfeeca98f8c2",
    ("semantic", 2): "ced0dcfc00b849e8",
}


@pytest.fixture(scope="module")
def golden_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_dataset(SceneSpec(seed=5, size=16, n_max=2, size_range=(6.0, 10.0)), 8, root / "train")
    write_dataset(SceneSpec(seed=6, size=16, n_max=2, size_range=(6.0, 10.0)), 4, root / "val")
    return root


def golden_train_config(root: Path, mode: str, stages: int) -> TrainConfig:
    return TrainConfig(
        model=ModelConfig(mode=mode, image_size=16, channels=8, num_instance_kernels=6,
                          stages=stages, heads=2, min_area=1, keep_fraction=0.0,
                          score_floor=0.1),
        epochs=20, batch_size=2, lr=3e-3, seed=1, train_dir=str(root / "train"),
        val_dir=str(root / "val"), out_dir=str(root / f"{mode}_{stages}"),
    )


class TestEvaluate:
    @pytest.mark.parametrize("mode,stages", sorted(GOLDEN_REPORTS))
    def test_report_golden(self, golden_data, mode, stages):
        # briefly trained, with a low score floor, so that every stage
        # decodes to non-empty predictions and the metrics see real matches
        from knet import tensor as T
        from knet.model import binarize_instances, merge_panoptic

        cfg = golden_train_config(golden_data, mode, stages)
        TR.train(cfg)
        _, model, _, _, _ = load_checkpoint(Path(cfg.out_dir) / "last.ckpt")
        val = read_dataset(cfg.val_dir)
        report = evaluate(model, val)
        assert len(report["per_stage"]) == stages + 1
        assert report["final"][report["primary_metric"]] > 0
        with T.no_grad():
            decoded = model.forward(val.samples[0].image[None])
        for stage in decoded:
            if mode == "panoptic":
                assert merge_panoptic(stage, cfg.model).segments
            elif mode == "instance":
                assert any(mask.any() for _, _, mask in binarize_instances(stage, cfg.model))
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == GOLDEN_REPORTS[(mode, stages)], (digest, report["final"])

    @pytest.mark.parametrize("mode", ["semantic", "instance", "panoptic"])
    def test_report_does_not_depend_on_chunk_size(self, golden_data, mode, monkeypatch):
        from knet.data import Dataset, generate_sample

        cfg = replace(golden_train_config(golden_data, mode, 2),
                      out_dir=str(golden_data / f"chunk_{mode}"))
        TR.train(cfg)
        _, model, _, _, _ = load_checkpoint(Path(cfg.out_dir) / "last.ckpt")
        # two full chunks and a partial one
        spec = SceneSpec(seed=6, size=16, n_max=2, size_range=(6.0, 10.0))
        val = Dataset(spec, [generate_sample(spec, i) for i in range(2 * TR.EVAL_CHUNK + 3)])
        chunked = evaluate(model, val)
        monkeypatch.setattr(TR, "EVAL_CHUNK", 1)
        assert evaluate(model, val) == chunked
        assert any(v > 0 for row in chunked["per_stage"] for v in row.values()
                   if isinstance(v, float))

    def test_eval_keeps_grad_mode(self):
        from knet.data import Dataset, generate_sample

        spec = SceneSpec(seed=6, size=32, n_max=2, size_range=(5.0, 8.0))
        val = Dataset(spec, [generate_sample(spec, i) for i in range(2)])
        model = SegmentationModel(ModelConfig(image_size=32, channels=8, num_instance_kernels=4,
                                              stages=1, heads=2))
        evaluate(model, val)
        _, loss, _ = model.forward(val.samples[0].image[None], val.samples[:1])
        assert loss.requires_grad

    def test_report_formatting(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        metrics = TR.train(cfg)
        text = TR.format_report(metrics["final"])
        lines = text.splitlines()
        assert lines[0].startswith("stage")
        assert len(lines) == 1 + len(metrics["final"]["per_stage"])
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # fixed-width table


class TestDeterminism:
    def test_two_runs_byte_identical_metrics(self, tmp_path):
        cfg_a = tiny_train_config(tmp_path)
        cfg_a.out_dir = str(tmp_path / "run_a")
        cfg_b = TrainConfig.from_dict(cfg_a.to_dict())
        cfg_b.out_dir = str(tmp_path / "run_b")
        TR.train(cfg_a)
        TR.train(cfg_b)
        a = (Path(cfg_a.out_dir) / "log.jsonl").read_bytes()
        b = (Path(cfg_b.out_dir) / "log.jsonl").read_bytes()
        assert a == b
        # metrics.json differs only in config_hash (out_dir is part of the
        # config), so compare the history and final report fields
        ma = json.loads((Path(cfg_a.out_dir) / "metrics.json").read_text())
        mb = json.loads((Path(cfg_b.out_dir) / "metrics.json").read_text())
        assert ma["history"] == mb["history"]
        assert ma["final"] == mb["final"]


class TestAblate:
    @staticmethod
    def _record_cells(monkeypatch, cells):
        def fake_train(cfg, **_):
            cells.append((Path(cfg.out_dir).name, cfg.model.to_dict()))
            return {"final": {"final": {"stage": 0, "pq": 0.0}, "per_stage": []}}

        monkeypatch.setattr(TR, "train", fake_train)

    def test_cells_golden(self, tmp_path, monkeypatch):
        cells = []
        self._record_cells(monkeypatch, cells)
        cfg = TrainConfig(model=ModelConfig(image_size=16, channels=8, heads=2),
                          out_dir=str(tmp_path / "ab"))
        results = TR.ablate(cfg)
        assert [name for name, _ in cells] == [
            "grid_aku=1_ki=1", "grid_aku=1_ki=0", "grid_aku=0_ki=1", "grid_aku=0_ki=0",
            "stages_1", "stages_2", "stages_3", "stages_4", "stages_5",
            "kernels_5", "kernels_10", "kernels_20",
        ]
        digest = hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == "811727309b8c231b"
        assert [row["cell"] for row in results["stages"]] == [f"stages={s}" for s in range(1, 6)]
        assert json.loads((tmp_path / "ab" / "ablation.json").read_text()) == results

    def test_unknown_part_rejected(self, tmp_path, monkeypatch):
        cells = []
        self._record_cells(monkeypatch, cells)
        cfg = TrainConfig(model=ModelConfig(image_size=16, channels=8, heads=2),
                          out_dir=str(tmp_path / "ab"))
        with pytest.raises(ConfigError, match="bogus"):
            TR.ablate(cfg, parts=("grid", "bogus"))
        assert cells == [] and not (tmp_path / "ab").exists()
