"""Command-line entry point: gen-data / train / eval / infer / grad-check / ablate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (
    SceneSpec, check_image, read_dataset, read_ppm, write_dataset, write_pgm8, write_pgm16,
)
from .errors import ConfigError, KnetError
from .training import (
    EVAL_MODES, TrainConfig, ablate, apply_overrides, evaluate, format_report, load_checkpoint,
    train,
)
from .verification import gradient_suite


def _echo(msg: str) -> None:
    print(msg, flush=True)


def _load_train_config(args) -> TrainConfig:
    d = {}
    if args.config:
        try:
            d = json.loads(Path(args.config).read_bytes())
        except ValueError as err:
            raise ConfigError(f"{args.config}: not valid JSON ({err})") from None
    apply_overrides(d, args.set or [])
    return TrainConfig.from_dict(d)


def cmd_gen_data(args) -> int:
    spec = SceneSpec(seed=args.seed, size=args.size, n_max=args.n_max,
                     noise=args.noise)
    write_dataset(spec, args.count, args.out)
    _echo(f"wrote {args.count} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    metrics = train(cfg, resume=args.resume, log_fn=_echo)
    _echo(json.dumps(metrics["final"]["final"], sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    _, model, _, _, _ = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    report = evaluate(model, dataset)
    table = format_report(report)
    _echo(table)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=1))
    return 0


def cmd_infer(args) -> int:
    cfg, model, _, _, _ = load_checkpoint(args.checkpoint)
    image_path = Path(args.image)
    if not image_path.exists():
        raise FileNotFoundError(f"input image {image_path} does not exist")
    if image_path.suffix == ".ppm":
        image = read_ppm(image_path)
    else:
        image = check_image(T.load_tensor(image_path), image_path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with T.no_grad():
        stages = model.forward(image[None])
    mode = cfg.model.mode
    pred = EVAL_MODES[mode].decode(stages[-1], cfg.model)
    if mode == "panoptic":
        write_pgm16(out / "panoptic.pgm", pred.segment_ids)
        (out / "segments.json").write_text(json.dumps({
            "segments": [asdict(s) for s in pred.segments]
        }, sort_keys=True, indent=1))
    elif mode == "instance":
        index = []
        for i, (class_id, score, mask) in enumerate(pred):
            name = f"instance_{i:02d}.pgm"
            write_pgm8(out / name, mask.astype(np.uint8) * 255)
            index.append({"file": name, "class_id": class_id, "score": score,
                          "area": int(mask.sum())})
        (out / "instances.json").write_text(json.dumps({"instances": index},
                                                       sort_keys=True, indent=1))
    else:
        write_pgm16(out / "semantic.pgm", pred)
    _echo(f"wrote predictions to {out}")
    return 0


def cmd_grad_check(args) -> int:
    results = gradient_suite(seeds=args.seeds)
    failed = False
    for name, (err, tol) in results.items():
        status = "PASS" if err < tol else "FAIL"
        failed |= status == "FAIL"
        _echo(f"{status} {name:<28} max_rel_err={err:.3e} (tol {tol:.0e})")
    return 1 if failed else 0


def cmd_ablate(args) -> int:
    cfg = _load_train_config(args)
    parts = tuple(args.parts.split(","))
    ablate(cfg, parts=parts, log_fn=_echo)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="knet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.05)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (dot path)")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="run a checkpoint on one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("grad-check", help="finite-difference verification suite")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("ablate", help="head-component grid and sweeps")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--parts", default="grid,stages,kernels")
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KnetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
