import json
from pathlib import Path

import numpy as np
import pytest

from knet import cli
from knet.data import SceneSpec, read_dataset, write_dataset, write_ppm, generate_sample
from knet.model import ModelConfig, SegmentationModel
from knet.training import TrainConfig, save_checkpoint


def write_config(tmp_path, **kw) -> Path:
    model = dict(mode="panoptic", image_size=16, channels=8, num_instance_kernels=4,
                 stages=1, heads=2, min_area=1, keep_fraction=0.0)
    model.update(kw.pop("model", {}))
    cfg = TrainConfig(
        model=ModelConfig(**model), epochs=1, batch_size=3, seed=2,
        train_dir=str(tmp_path / "train"), val_dir=str(tmp_path / "val"),
        out_dir=str(tmp_path / "run"), **kw,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture
def workspace(tmp_path):
    spec = SceneSpec(seed=30, size=16, n_max=2, size_range=(5.0, 8.0))
    write_dataset(spec, 6, tmp_path / "train")
    write_dataset(SceneSpec(seed=31, size=16, n_max=2, size_range=(5.0, 8.0)), 3, tmp_path / "val")
    return tmp_path


class TestGenData:
    def test_writes_dataset(self, tmp_path):
        rc = cli.main(["gen-data", "--seed", "3", "--count", "4",
                       "--out", str(tmp_path / "ds"), "--size", "16", "--n-max", "2"])
        assert rc == 0
        ds = read_dataset(tmp_path / "ds")
        assert len(ds) == 4
        assert ds.spec.seed == 3


class TestTrainEval:
    def test_train_then_eval(self, workspace, capsys):
        config = write_config(workspace)
        rc = cli.main(["train", "--config", str(config)])
        assert rc == 0
        ckpt = workspace / "run" / "last.ckpt"
        assert ckpt.exists()
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "val"),
                       "--out", str(workspace / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage" in out and "pq" in out
        report = json.loads((workspace / "report.json").read_text())
        assert report["mode"] == "panoptic"
        assert len(report["per_stage"]) == 2

    def test_set_overrides(self, workspace):
        config = write_config(workspace)
        rc = cli.main(["train", "--config", str(config),
                       "--set", "model.stages=2",
                       "--set", f"out_dir={workspace / 'run2'}"])
        assert rc == 0
        metrics = json.loads((workspace / "run2" / "metrics.json").read_text())
        assert len(metrics["final"]["per_stage"]) == 3

    def test_unknown_key_is_an_error_not_a_traceback(self, workspace, capsys):
        config = write_config(workspace)
        rc = cli.main(["train", "--config", str(config), "--set", "model.bogus=1"])
        assert rc == 1
        assert "error: unknown ModelConfig keys: bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "model.stages=x", "model.channels=x", "epochs=x", "lr=a", "model.aku=yes",
    ])
    def test_mistyped_value_is_an_error_not_a_traceback(self, workspace, capsys, override):
        config = write_config(workspace)
        rc = cli.main(["train", "--config", str(config), "--set", override])
        assert rc == 1
        key = override.split("=")[0].split(".")[-1]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f".{key} must be " in err

    def test_resume_without_optimizer_is_an_error(self, workspace, capsys):
        config = write_config(workspace)
        cfg = TrainConfig.from_dict(json.loads(config.read_text()))
        ckpt = workspace / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        rc = cli.main(["train", "--config", str(config), "--resume", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "without optimizer state" in err

    def test_bad_manifest_is_an_error_not_a_traceback(self, workspace, capsys):
        config = write_config(workspace)
        cfg = TrainConfig.from_dict(json.loads(config.read_text()))
        ckpt = workspace / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        (workspace / "val" / "manifest.json").write_text("[]")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "val")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestInfer:
    def test_infer_writes_artifacts(self, workspace):
        config = write_config(workspace)
        cli.main(["train", "--config", str(config)])
        ckpt = workspace / "run" / "last.ckpt"
        sample = generate_sample(SceneSpec(seed=32, size=16, n_max=2, size_range=(5.0, 8.0)), 0)
        write_ppm(workspace / "input.ppm", sample.image)
        rc = cli.main(["infer", "--checkpoint", str(ckpt),
                       "--image", str(workspace / "input.ppm"),
                       "--out", str(workspace / "pred")])
        assert rc == 0
        assert (workspace / "pred" / "panoptic.pgm").exists()
        assert (workspace / "pred" / "segments.json").exists()
        from knet.data import read_pgm16

        raster = read_pgm16(workspace / "pred" / "panoptic.pgm")
        assert raster.shape == (16, 16)  # output dims equal input dims

    def test_bad_ppm_is_an_error_not_a_traceback(self, tmp_path, capsys):
        cfg = TrainConfig.from_dict(json.loads(write_config(tmp_path).read_text()))
        ckpt = tmp_path / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        (tmp_path / "bad.ppm").write_bytes(b"P6\n2 2\n25a\n" + bytes(12))
        rc = cli.main(["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "bad.ppm"),
                       "--out", str(tmp_path / "pred")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_image_nonzero_exit(self, workspace):
        config = write_config(workspace)
        cli.main(["train", "--config", str(config)])
        rc = cli.main(["infer", "--checkpoint", str(workspace / "run" / "last.ckpt"),
                       "--image", str(workspace / "nothing.ppm"),
                       "--out", str(workspace / "pred")])
        assert rc != 0


class TestGradCheckCommand:
    def test_exits_zero(self, capsys):
        rc = cli.main(["grad-check", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "full_stage" in out


class TestAblateCommand:
    def test_grid_structure(self, workspace, capsys):
        config = write_config(workspace, model={"mode": "instance"})
        rc = cli.main(["ablate", "--config", str(config),
                       "--set", f"out_dir={workspace / 'ablate'}",
                       "--parts", "grid"])
        assert rc == 0
        results = json.loads((workspace / "ablate" / "ablation.json").read_text())
        assert len(results["grid"]) == 4
        cells = {row["cell"] for row in results["grid"]}
        assert cells == {"aku=1_ki=1", "aku=1_ki=0", "aku=0_ki=1", "aku=0_ki=0"}
        assert (workspace / "ablate" / "ablation.txt").exists()

    def test_unknown_part_is_an_error(self, workspace, capsys):
        config = write_config(workspace)
        rc = cli.main(["ablate", "--config", str(config),
                       "--set", f"out_dir={workspace / 'ablate'}", "--parts", "bogus"])
        assert rc == 1
        assert "error: unknown ablation parts: bogus" in capsys.readouterr().err
        assert not (workspace / "ablate").exists()
