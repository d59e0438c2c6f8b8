import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from knet import cli
from knet import tensor as T
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

    @pytest.mark.parametrize("flags", [["--n-max", "0"], ["--size", "2"], ["--count", "-1"]])
    def test_out_of_range_is_an_error(self, tmp_path, capsys, flags):
        argv = ["gen-data", "--count", "2", "--out", str(tmp_path / "ds"), *flags]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "ds").exists()


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

    @pytest.mark.parametrize("text, overrides", [
        ("{", []), ("[]", ["epochs=1"]), ("{}", ["model=3", "model.stages=2"]),
    ], ids=["invalid-json", "array-with-set", "set-into-scalar"])
    def test_bad_config_is_an_error_not_a_traceback(self, tmp_path, capsys, text, overrides):
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = ["train", "--config", str(path)]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("override", [
        "batch_size=0", "epochs=-1", "model.image_size=32", "model.thing_class_ids=[1]",
    ])
    def test_out_of_range_or_unfit_is_an_error(self, workspace, capsys, override):
        config = write_config(workspace)
        assert cli.main(["train", "--config", str(config), "--set", override]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workspace / "run").exists()

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

    def test_malformed_sample_is_an_error_not_a_traceback(self, workspace, capsys):
        config = write_config(workspace)
        cfg = TrainConfig.from_dict(json.loads(config.read_text()))
        ckpt = workspace / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        # a re-signed segment table that no longer covers the raster
        rel = "sample_00000/panoptic.json"
        raw = json.dumps({"segments": []}).encode()
        (workspace / "val" / rel).write_bytes(raw)
        manifest = json.loads((workspace / "val" / "manifest.json").read_text())
        manifest["files"][rel] = hashlib.sha256(raw).hexdigest()
        (workspace / "val" / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "val")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "disagree" in err

    @pytest.mark.parametrize("count,size,match", [
        (0, 16, "no samples"), (2, 32, "does not match model.image_size 16"),
    ], ids=["empty", "wrong-size"])
    def test_eval_on_unfit_data_is_an_error(self, workspace, capsys, count, size, match):
        config = write_config(workspace)
        cfg = TrainConfig.from_dict(json.loads(config.read_text()))
        ckpt = workspace / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        write_dataset(SceneSpec(seed=32, size=size, n_max=2), count, workspace / "unfit")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "unfit")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and match in captured.err
        assert captured.out == ""

    def test_instance_mode_without_kernels_is_an_error(self, workspace, capsys):
        config = write_config(workspace)
        rc = cli.main(["train", "--config", str(config), "--set", "model.mode=instance",
                       "--set", "model.num_instance_kernels=0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "instance kernel" in err


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

    def test_unbatchable_tensor_is_an_error_not_a_traceback(self, tmp_path, capsys):
        cfg = TrainConfig.from_dict(json.loads(write_config(tmp_path).read_text()))
        ckpt = tmp_path / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        T.save_tensor(tmp_path / "x.tensor", np.zeros((16, 16), dtype=np.float32))
        rc = cli.main(["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "x.tensor"),
                       "--out", str(tmp_path / "pred")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(B, 3, H, W)" in err

    @pytest.mark.parametrize("edit", [
        lambda im: im * 255.0, lambda im: im.astype(np.float64), lambda im: im[:, :0, :0],
    ], ids=["0-255", "f64", "empty"])
    def test_image_outside_float32_unit_range_is_an_error(self, tmp_path, capsys, edit):
        cfg = TrainConfig.from_dict(json.loads(write_config(tmp_path).read_text()))
        ckpt = tmp_path / "weights.ckpt"
        save_checkpoint(ckpt, cfg, SegmentationModel(cfg.model, seed=cfg.seed), None, 1, 2)
        sample = generate_sample(SceneSpec(seed=32, size=16, n_max=2, size_range=(5.0, 8.0)), 0)
        T.save_tensor(tmp_path / "x.tensor", edit(sample.image))
        rc = cli.main(["infer", "--checkpoint", str(ckpt), "--image", str(tmp_path / "x.tensor"),
                       "--out", str(tmp_path / "pred")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[0, 1]" in err
        assert not (tmp_path / "pred").exists()

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

    def test_zero_seeds_is_an_error(self, capsys):
        assert cli.main(["grad-check", "--seeds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "PASS" not in captured.out


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

    def test_semantic_kernels_sweep_is_an_error(self, workspace, capsys):
        # the default parts include the kernels sweep, which semantic mode lacks
        config = write_config(workspace, model={"mode": "semantic"})
        rc = cli.main(["ablate", "--config", str(config),
                       "--set", f"out_dir={workspace / 'ablate'}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kernels sweep" in err
        assert not (workspace / "ablate").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines() -> list[str]:
    """Every ``knet ...`` line of the README's fenced code blocks."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)
    return [line.split("#")[0].strip() for block in blocks for line in block.splitlines()
            if line.startswith("knet ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(line.split()[1:])  # parses only; runs nothing
        assert callable(args.fn), line


def test_readme_flags_exist_on_their_subcommand():
    # every `--flag` the README names in a `knet <cmd> ...` span, prose included
    commands = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    spans = re.findall(rf"knet ({'|'.join(commands)})\b([^`\n]*)", README.read_text())
    assert len(spans) >= 6
    for command, rest in spans:
        known = commands[command]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", rest):
            assert flag in known, f"knet {command} has no {flag}"
