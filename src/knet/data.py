"""Synthetic scenes: two stuff bands (sky above a horizon, ground below)
with overlapping geometric things drawn on top.  The one annotation of a
sample is its panoptic map (segment raster plus segment table); semantic
and instance ground truth are derived from it, so the three cannot
disagree.

On disk a dataset is one directory per sample (image tensor, 16-bit PGM
segment raster, JSON segment table) plus a manifest with SHA-256 checksums.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import (
    ChecksumError, ConfigError, DataError, FormatError, GenerationError, ParameterError,
)
from .metrics import PanopticMap, SegmentInfo

CIRCLE, RECTANGLE, TRIANGLE = 1, 2, 3
SKY, GROUND = 101, 102
THING_CLASS_IDS = [CIRCLE, RECTANGLE, TRIANGLE]
STUFF_CLASS_IDS = [SKY, GROUND]
MIN_VISIBLE_PIXELS = 8

_THING_COLORS = {
    CIRCLE: (0.85, 0.25, 0.25),
    RECTANGLE: (0.85, 0.78, 0.25),
    TRIANGLE: (0.30, 0.35, 0.85),
}
_SKY_COLOR = (0.55, 0.70, 0.90)
_GROUND_COLOR = (0.45, 0.35, 0.20)


def _has_type(value, tp) -> bool:
    """Whether a JSON-decoded ``value`` fits the field type ``tp``.

    An int fits a float field; a bool fits only a bool field; a list
    fits a tuple field, since JSON has no tuples.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if tp is bool or isinstance(value, bool):
        return tp is bool and isinstance(value, bool)
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


# resolving the string annotations takes ~70 us, and every segment of a
# dataset read goes through dataclass_from_dict
_field_types = functools.cache(typing.get_type_hints)


def dataclass_from_dict(cls, d: dict):
    """Build config dataclass ``cls`` from its ``asdict`` form.

    Restores from the field types what JSON loses: tuples and nested
    dataclasses.  Unknown keys, missing keys of fields without a default
    and values of the wrong type raise ``ConfigError``.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} config must be an object, got {d!r}")
    hints = _field_types(cls)
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {cls.__name__} keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in d.items():
        tp = hints[key]
        if is_dataclass(tp):
            value = dataclass_from_dict(tp, value)
        elif not _has_type(value, tp):
            name = tp.__name__ if isinstance(tp, type) else str(tp)
            raise ConfigError(f"{cls.__name__}.{key} must be {name}, got {value!r}")
        elif typing.get_origin(tp) is tuple:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@dataclass
class SceneSpec:
    seed: int = 0
    size: int = 64
    n_max: int = 3
    size_range: tuple[float, float] = (12.0, 28.0)
    allow_overlap: bool = True
    color_jitter: float = 0.06
    noise: float = 0.05

    def __post_init__(self):
        # _sample_shape keeps a shape's extent below size - 3
        lo, hi = self.size_range
        if (self.size < 4 or self.n_max < 1 or not 0 < lo <= hi
                or min(self.color_jitter, self.noise) < 0):
            raise ConfigError(f"scene spec needs size >= 4, n_max >= 1, 0 < size_range[0] <= "
                              f"size_range[1] and no negative noise: {self}")


@dataclass
class GroundTruthSample:
    """An image and its panoptic map; semantic and instance ground truth
    are derived from the map, so the three views cannot disagree."""

    image: np.ndarray                      # (3, H, W) float32 in [0, 1]
    panoptic: PanopticMap

    @functools.cached_property
    def semantic(self) -> np.ndarray:      # (H, W) int32 class raster
        return self.panoptic.class_raster()

    @functools.cached_property
    def instances(self) -> list[tuple[int, np.ndarray]]:  # (class_id, bool mask), draw order
        ids = self.panoptic.segment_ids
        return [(s.class_id, ids == s.id) for s in self.panoptic.segments if s.is_thing]


def rasterize_shape(shape: str, params: tuple, h: int, w: int) -> np.ndarray:
    """Inclusive-boundary rasterization of a circle, rectangle, or triangle."""
    vv, uu = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    if shape == "circle":
        cy, cx, r = params
        if r < 0.5:
            raise ParameterError(f"circle radius {r} is below one pixel")
        return (uu - cy) ** 2 + (vv - cx) ** 2 <= r * r
    if shape == "rectangle":
        cy, cx, hh, hw = params
        if hh < 0.5 or hw < 0.5:
            raise ParameterError(f"rectangle half-extents {(hh, hw)} are below one pixel")
        return (np.abs(uu - cy) <= hh) & (np.abs(vv - cx) <= hw)
    if shape == "triangle":
        (y0, x0), (y1, x1), (y2, x2) = params
        twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if abs(twice_area) < 1.0:
            raise ParameterError("triangle vertices are (nearly) collinear")
        if twice_area < 0:  # normalize to counter-clockwise
            (y1, x1), (y2, x2) = (y2, x2), (y1, x1)
        e0 = (x1 - x0) * (uu - y0) - (y1 - y0) * (vv - x0)
        e1 = (x2 - x1) * (uu - y1) - (y2 - y1) * (vv - x1)
        e2 = (x0 - x2) * (uu - y2) - (y0 - y2) * (vv - x2)
        return (e0 >= 0) & (e1 >= 0) & (e2 >= 0)
    raise ParameterError(f"unknown shape {shape!r}")


def _sample_shape(rng: np.random.Generator, spec: SceneSpec) -> tuple[int, np.ndarray]:
    h = w = spec.size
    lo, hi = spec.size_range
    class_id = int(rng.choice(THING_CLASS_IDS))
    extent = min(rng.uniform(lo, hi), h - 3.0)  # keep shapes inside the frame
    margin = extent / 2.0 + 1.0
    cy = rng.uniform(margin, h - 1 - margin)
    cx = rng.uniform(margin, w - 1 - margin)
    if class_id == CIRCLE:
        mask = rasterize_shape("circle", (cy, cx, extent / 2.0), h, w)
    elif class_id == RECTANGLE:
        other = rng.uniform(lo, hi)
        mask = rasterize_shape("rectangle", (cy, cx, extent / 2.0, other / 2.0), h, w)
    else:
        # isoceles-ish triangle: apex up, randomized base
        half = extent / 2.0
        top = (cy - half, cx + rng.uniform(-half / 2, half / 2))
        left = (cy + half, cx - half)
        right = (cy + half, cx + half)
        mask = rasterize_shape("triangle", (top, left, right), h, w)
    return class_id, mask


def _visible_masks(full_masks: list[np.ndarray]) -> list[np.ndarray]:
    """Later-drawn shapes occlude earlier ones."""
    out = []
    for i, m in enumerate(full_masks):
        vis = m.copy()
        for later in full_masks[i + 1 :]:
            vis &= ~later
        out.append(vis)
    return out


def generate_sample(spec: SceneSpec, index: int) -> GroundTruthSample:
    """Deterministic function of (spec.seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    h = w = spec.size
    horizon = int(rng.integers(h * 3 // 8, h * 5 // 8 + 1))

    count = int(rng.integers(1, spec.n_max + 1))
    classes: list[int] = []
    full_masks: list[np.ndarray] = []
    for _ in range(count):
        for attempt in range(100):
            class_id, mask = _sample_shape(rng, spec)
            candidate = full_masks + [mask]
            if not spec.allow_overlap and len(full_masks):
                if np.logical_and(mask, np.logical_or.reduce(full_masks)).any():
                    continue
            visible = _visible_masks(candidate)
            if all(v.sum() >= MIN_VISIBLE_PIXELS for v in visible):
                classes.append(class_id)
                full_masks.append(mask)
                break
        else:
            raise GenerationError(
                f"sample {index}: could not place shape {len(full_masks) + 1} "
                f"of {count} within 100 attempts; scene spec too crowded"
            )

    visible = _visible_masks(full_masks)

    sky_color = np.clip(np.asarray(_SKY_COLOR) + rng.normal(0, spec.color_jitter, 3), 0, 1)
    ground_color = np.clip(np.asarray(_GROUND_COLOR) + rng.normal(0, spec.color_jitter, 3), 0, 1)
    image = np.empty((3, h, w), dtype=np.float64)
    image[:, :horizon, :] = sky_color[:, None, None]
    image[:, horizon:, :] = ground_color[:, None, None]

    segment_ids = np.full((h, w), 1, dtype=np.int32)
    segment_ids[horizon:, :] = 2

    for i, (class_id, vis) in enumerate(zip(classes, visible)):
        color = np.clip(
            np.asarray(_THING_COLORS[class_id]) + rng.normal(0, spec.color_jitter, 3), 0, 1
        )
        image[:, vis] = color[:, None]
        segment_ids[vis] = 3 + i

    image = np.clip(image + rng.normal(0.0, spec.noise, size=image.shape), 0.0, 1.0)

    # segment ids 1, 2 are the stuff bands, 3.. the things in draw order
    areas = np.bincount(segment_ids.ravel(), minlength=3 + len(classes))
    kinds = [(SKY, False), (GROUND, False)] + [(c, True) for c in classes]
    segments = [SegmentInfo(sid, c, is_thing, 1.0, int(areas[sid]))
                for sid, (c, is_thing) in enumerate(kinds, 1) if areas[sid]]
    return GroundTruthSample(image.astype(np.float32), PanopticMap(segment_ids, segments))


# ---------------------------------------------------------------------------
# PGM / PPM rasters

def write_pgm16(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.min() < 0 or arr.max() > 65535:
        raise FormatError("PGM16 values must fit in uint16")
    with open(path, "wb") as fp:
        fp.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        fp.write(arr.astype(">u2").tobytes())


def _read_pnm(path, magic: bytes, maxval: int, channels: int, dtype: str) -> np.ndarray:
    """Read a binary PGM/PPM with the given magic and maxval -> (H, W, channels)."""
    kind = "PGM" if magic == b"P5" else "PPM"
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        found, dims, found_max, rest = raw.split(b"\n", 3)
        w, h = (int(x) for x in dims.split())
        found_max = int(found_max)
    except ValueError:
        raise FormatError(f"{path}: not a {kind} file") from None
    if found != magic or found_max != maxval:
        raise FormatError(f"{path}: expected a binary {kind} with maxval {maxval}")
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: {kind} size {w}x{h} is not positive")
    nbytes = w * h * channels * np.dtype(dtype).itemsize
    if len(rest) < nbytes:
        raise FormatError(f"{path}: truncated {kind} payload")
    return np.frombuffer(rest[:nbytes], dtype=dtype).reshape(h, w, channels)


def read_pgm16(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 65535, 1, ">u2")[..., 0].astype(np.int32)


def write_pgm8(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    with open(path, "wb") as fp:
        fp.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fp.write(arr.astype(np.uint8).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read an 8-bit binary PPM into a (3, H, W) float image in [0, 1]."""
    data = _read_pnm(path, b"P6", 255, 3, "u1")
    return (data.transpose(2, 0, 1) / 255.0).astype(np.float32)


def check_image(image: np.ndarray, source) -> np.ndarray:
    """Return ``image`` if it is a non-empty float32 array with values in
    [0, 1]; otherwise raise a FormatError naming ``source``."""
    if image.dtype != np.float32 or not (
        image.size and image.min() >= 0.0 and image.max() <= 1.0
    ):
        raise FormatError(f"{source}: needs non-empty float32 values in [0, 1]")
    return image


# ---------------------------------------------------------------------------
# dataset directory format

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "knet-dataset-v2"
SAMPLE_FILES = ("image.tensor", "panoptic.pgm", "panoptic.json")


@dataclass
class Dataset:
    spec: SceneSpec
    samples: list[GroundTruthSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _sample_dir(root: Path, index: int) -> Path:
    return root / f"sample_{index:05d}"


def _write_sample(root: Path, index: int, sample: GroundTruthSample) -> list[Path]:
    d = _sample_dir(root, index)
    d.mkdir(parents=True, exist_ok=True)
    T.save_tensor(d / "image.tensor", sample.image)
    write_pgm16(d / "panoptic.pgm", sample.panoptic.segment_ids)
    (d / "panoptic.json").write_text(json.dumps({
        "segments": [asdict(s) for s in sample.panoptic.segments]
    }, sort_keys=True))
    return [d / name for name in SAMPLE_FILES]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError:
        raise FormatError(f"{path}: not valid JSON") from None


def _read_sample(root: Path, index: int) -> GroundTruthSample:
    d = _sample_dir(root, index)
    image = T.load_tensor(d / "image.tensor")
    segment_ids = read_pgm16(d / "panoptic.pgm")
    if image.shape != (3, *segment_ids.shape):
        raise FormatError(f"{d / 'panoptic.pgm'}: raster {segment_ids.shape} does not match "
                          f"image {image.shape}")
    check_image(image, d / "image.tensor")
    pan = _read_json(d / "panoptic.json")
    if not isinstance(pan, dict) or not isinstance(pan.get("segments"), list):
        raise FormatError(f"{d / 'panoptic.json'}: needs a 'segments' list")
    try:
        segments = [dataclass_from_dict(SegmentInfo, s) for s in pan["segments"]]
    except ConfigError as err:
        raise FormatError(f"{d / 'panoptic.json'}: bad segment: {err}") from None
    if not all(0 <= s.class_id < 2 ** 16 for s in segments):
        raise FormatError(f"{d / 'panoptic.json'}: class ids must fit a 16-bit class raster")
    panoptic = PanopticMap(segment_ids, segments)
    try:
        panoptic.validate()
    except DataError as err:
        raise FormatError(f"{d / 'panoptic.pgm'} and panoptic.json disagree: {err}") from None
    return GroundTruthSample(image, panoptic)


def write_dataset(spec: SceneSpec, count: int, out_dir) -> None:
    if count < 0:
        raise ConfigError(f"sample count must be >= 0, got {count}")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    checksums: dict[str, str] = {}
    for i in range(count):
        sample = generate_sample(spec, i)
        for path in _write_sample(root, i, sample):
            checksums[str(path.relative_to(root))] = _sha256(path)
    manifest = {"format": DATASET_FORMAT, "count": count,
                "spec": asdict(spec), "files": checksums}
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True, indent=1))


def read_dataset(in_dir) -> Dataset:
    root = Path(in_dir)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise FormatError(f"{root}: missing {MANIFEST_NAME}")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != DATASET_FORMAT:
        raise FormatError(f"{root}: unknown dataset format {manifest.get('format')!r}")
    files, count = manifest.get("files"), manifest.get("count")
    if not isinstance(files, dict) or type(count) is not int or count < 0:
        raise FormatError(
            f"{manifest_path}: needs a 'files' object and a non-negative integer 'count'")
    # exactly the sample files are listed, so every file opened below is one
    # of them and passes the checksum loop before it is read
    if len(files) != count * len(SAMPLE_FILES):
        raise FormatError(f"{manifest_path}: lists {len(files)} files for {count} samples")
    for i in range(count):
        for name in SAMPLE_FILES:
            rel = str(_sample_dir(Path(), i) / name)
            if rel not in files:
                raise FormatError(f"{manifest_path}: counts {count} samples but does not list {rel}")
    for rel, expected in files.items():
        try:
            actual = _sha256(root / rel)
        except FileNotFoundError:
            raise FormatError(f"{rel}: listed in {MANIFEST_NAME} but missing") from None
        if actual != expected:
            raise ChecksumError(f"{rel}: checksum mismatch (corrupt file?)")
    try:
        spec = dataclass_from_dict(SceneSpec, manifest.get("spec"))
    except ConfigError as err:
        raise FormatError(f"{manifest_path}: bad scene spec: {err}") from None
    samples = [_read_sample(root, i) for i in range(count)]
    return Dataset(spec, samples)
