import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knet import data as D
from knet import metrics as ME
from knet import tensor as T
from knet.errors import (
    ChecksumError, ConfigError, FormatError, GenerationError, KnetError, ParameterError,
)
from ppm import write_ppm


class TestRasterize:
    def test_half_pixel_circle_is_single_pixel(self):
        mask = D.rasterize_shape("circle", (1.0, 1.0, 0.5), 3, 3)
        assert mask.sum() == 1 and mask[1, 1]

    def test_full_image_rectangle(self):
        mask = D.rasterize_shape("rectangle", (3.5, 3.5, 10.0, 10.0), 8, 8)
        assert mask.all()

    def test_circle_r2_has_13_pixels(self):
        mask = D.rasterize_shape("circle", (4.0, 4.0, 2.0), 9, 9)
        # exhaustive count oracle
        count = sum(
            1
            for u in range(9)
            for v in range(9)
            if (u - 4.0) ** 2 + (v - 4.0) ** 2 <= 4.0
        )
        assert count == 13
        assert mask.sum() == 13

    def test_degenerate_radius(self):
        with pytest.raises(ParameterError):
            D.rasterize_shape("circle", (1.0, 1.0, 0.2), 3, 3)

    def test_degenerate_triangle(self):
        with pytest.raises(ParameterError):
            D.rasterize_shape("triangle", ((0, 0), (1, 1), (2, 2)), 4, 4)

    def test_triangle_contains_centroid(self):
        mask = D.rasterize_shape("triangle", ((1.0, 4.0), (7.0, 1.0), (7.0, 7.0)), 9, 9)
        assert mask[5, 4]
        assert not mask[0, 0]


class TestGenerateSample:
    def test_instance_count_bounds(self):
        spec = D.SceneSpec(seed=1, n_max=3)
        for i in range(200):
            sample = D.generate_sample(spec, i)
            assert 1 <= len(sample.instances) <= 3

    def test_deterministic(self):
        spec = D.SceneSpec(seed=7)
        a = D.generate_sample(spec, 11)
        b = D.generate_sample(spec, 11)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.semantic, b.semantic)
        assert np.array_equal(a.panoptic.segment_ids, b.panoptic.segment_ids)
        for (ca, ma), (cb, mb) in zip(a.instances, b.instances):
            assert ca == cb and np.array_equal(ma, mb)

    def test_panoptic_partitions_image(self):
        spec = D.SceneSpec(seed=2)
        for i in range(20):
            sample = D.generate_sample(spec, i)
            assert (sample.panoptic.segment_ids > 0).all()
            sample.panoptic.validate()

    def test_min_visible_area(self):
        spec = D.SceneSpec(seed=3)
        for i in range(50):
            sample = D.generate_sample(spec, i)
            for _, mask in sample.instances:
                assert mask.sum() >= D.MIN_VISIBLE_PIXELS

    def test_self_pq_is_exactly_one(self):
        spec = D.SceneSpec(seed=4)
        for i in range(10):
            sample = D.generate_sample(spec, i)
            res = ME.compute_pq(sample.panoptic, sample.panoptic)
            assert res.pq == 1.0

    def test_semantic_equals_panoptic_classes(self):
        spec = D.SceneSpec(seed=5)
        for i in range(10):
            sample = D.generate_sample(spec, i)
            assert np.array_equal(sample.semantic, sample.panoptic.class_raster())

    def test_views_derived_from_panoptic_map(self):
        # semantic truth is the class raster and instances are the thing
        # segments in table order, whatever the draw
        spec = D.SceneSpec(seed=16, size=32, n_max=5, size_range=(5.0, 14.0))
        for i in range(20):
            sample = D.generate_sample(spec, i)
            pan = sample.panoptic
            things = [s for s in pan.segments if s.is_thing]
            assert [c for c, _ in sample.instances] == [s.class_id for s in things]
            for (_, mask), seg in zip(sample.instances, things):
                assert mask.dtype == bool and np.array_equal(mask, pan.segment_ids == seg.id)
            assert sample.semantic.dtype == np.int32

    def test_crowded_spec_raises(self):
        spec = D.SceneSpec(seed=6, size=16, n_max=40, size_range=(14.0, 15.0),
                           allow_overlap=False)
        with pytest.raises(GenerationError):
            for i in range(20):
                D.generate_sample(spec, i)

    def test_image_range_and_dtype(self):
        sample = D.generate_sample(D.SceneSpec(seed=8), 0)
        assert sample.image.dtype == np.float32
        assert sample.image.min() >= 0.0 and sample.image.max() <= 1.0


class TestSceneSpec:
    @pytest.mark.parametrize("kw", [
        {"n_max": 0}, {"size": 0}, {"size": 2}, {"size_range": (0.0, 5.0)},
        {"size_range": (6.0, 5.0)}, {"noise": -0.1}, {"color_jitter": -0.1},
    ], ids=["n-max-0", "size-0", "size-2", "range-from-0", "range-reversed", "noise", "jitter"])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ConfigError):
            D.SceneSpec(**kw)


class TestPgm:
    def test_pgm16_round_trip(self, tmp_path):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4) * 1000
        path = tmp_path / "x.pgm"
        D.write_pgm16(path, arr)
        assert np.array_equal(D.read_pgm16(path), arr)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, size=(3, 5, 7)) / 255.0).astype(np.float32)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = D.read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert np.max(np.abs(back - img)) < 1e-6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n65535\nxxxx")
        with pytest.raises(FormatError):
            D.read_pgm16(path)

    @pytest.mark.parametrize("raw, reader", [
        (b"P5\n2 2\nxyz\n" + bytes(8), D.read_pgm16),
        (b"P6\n2 2\n25a\n" + bytes(12), D.read_ppm),
        (b"P5\n-2 -2\n65535\n" + bytes(8), D.read_pgm16),
        (b"P6\n0 3\n255\n", D.read_ppm),
        (b"P5\n2 2\n65535\n" + bytes(7), D.read_pgm16),
    ], ids=["pgm-maxval", "ppm-maxval", "pgm-negative-size", "ppm-zero-width", "pgm-odd-payload"])
    def test_bad_header_is_format_error(self, tmp_path, raw, reader):
        path = tmp_path / "bad.pnm"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            reader(path)


PNM_HEADERS = st.tuples(
    st.sampled_from([b"P5", b"P6", b"P2", b""]),
    st.lists(st.integers(-3, 6).map(lambda v: str(v).encode()) | st.binary(max_size=3),
             max_size=3).map(b" ".join),
    st.sampled_from([b"65535", b"255", b"0", b"-1", b"25a", b""]),
).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@given(header=PNM_HEADERS, payload=st.binary(max_size=80))
def test_pnm_readers_raise_only_knet_errors(tmp_path_factory, header, payload):
    path = tmp_path_factory.mktemp("pnm") / "x.pnm"
    path.write_bytes(header + b"\n" + payload)
    for reader in (D.read_pgm16, D.read_ppm):
        try:
            reader(path)
        except KnetError:
            pass


class TestDatasetIo:
    def test_round_trip_bitwise(self, tmp_path):
        spec = D.SceneSpec(seed=9, size=32)
        D.write_dataset(spec, 4, tmp_path / "ds")
        ds = D.read_dataset(tmp_path / "ds")
        assert len(ds) == 4
        assert ds.spec == spec
        for i in range(4):
            ref = D.generate_sample(spec, i)
            got = ds.samples[i]
            assert np.array_equal(ref.image, got.image)
            assert np.array_equal(ref.semantic, got.semantic)
            assert np.array_equal(ref.panoptic.segment_ids, got.panoptic.segment_ids)
            assert len(ref.instances) == len(got.instances)
            for (ca, ma), (cb, mb) in zip(ref.instances, got.instances):
                assert ca == cb and np.array_equal(ma, mb)

    def test_manifest_counts_files(self, tmp_path):
        D.write_dataset(D.SceneSpec(seed=10, size=32), 3, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["count"] == 3
        assert len(manifest["files"]) == 3 * 3

    def test_manifest_golden(self, tmp_path):
        # pins the manifest bytes (spec serialization, checksums of every
        # sample file) for a fixed spec
        spec = D.SceneSpec(seed=9, size=16, n_max=2, size_range=(5.0, 8.0))
        D.write_dataset(spec, 3, tmp_path / "ds")
        digest = hashlib.sha256((tmp_path / "ds" / "manifest.json").read_bytes()).hexdigest()
        assert digest == "9d2e82f35f9147f9bbc96c011b7b81c77c9ef7023084ac2c3eabd7a7900e892c"

    def test_corrupt_byte_detected(self, tmp_path):
        D.write_dataset(D.SceneSpec(seed=11, size=32), 2, tmp_path / "ds")
        victim = tmp_path / "ds" / "sample_00001" / "image.tensor"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            D.read_dataset(tmp_path / "ds")

    @staticmethod
    def _edit_manifest(root, edit):
        path = root / "manifest.json"
        path.write_text(edit(json.loads(path.read_text())))

    @pytest.mark.parametrize("edit", [
        lambda m: "{not json",
        lambda m: "[]",
        lambda m: json.dumps({k: v for k, v in m.items() if k != "files"}),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "count"}),
        lambda m: json.dumps({**m, "count": m["count"] + 1}),
        lambda m: json.dumps({**m, "files": {}}),
        lambda m: json.dumps({**m, "spec": {**m["spec"], "bogus": 1}}),
        lambda m: json.dumps({**m, "spec": 3}),
        lambda m: json.dumps({**m, "spec": {**m["spec"], "n_max": 0}}),
    ], ids=["invalid-json", "array", "no-files", "no-count", "count-too-large",
            "sample-not-listed", "unknown-spec-key", "spec-not-object", "spec-out-of-range"])
    def test_bad_manifest_is_format_error(self, tmp_path, edit):
        D.write_dataset(D.SceneSpec(seed=12, size=16), 2, tmp_path / "ds")
        self._edit_manifest(tmp_path / "ds", edit)
        with pytest.raises(FormatError):
            D.read_dataset(tmp_path / "ds")

    def test_boolean_count_is_format_error(self, tmp_path):
        # true == 1 in Python, so a one-sample dataset would read as valid
        D.write_dataset(D.SceneSpec(seed=12, size=16), 1, tmp_path / "ds")
        self._edit_manifest(tmp_path / "ds", lambda m: json.dumps({**m, "count": True}))
        with pytest.raises(FormatError, match="non-negative integer 'count'"):
            D.read_dataset(tmp_path / "ds")

    def test_v1_dataset_is_format_error(self, tmp_path):
        # v1 stored semantic and instance copies next to the panoptic map;
        # there is no reader for it
        D.write_dataset(D.SceneSpec(seed=12, size=16), 1, tmp_path / "ds")
        self._edit_manifest(tmp_path / "ds", lambda m: json.dumps({**m, "format": "knet-dataset-v1"}))
        with pytest.raises(FormatError, match="unknown dataset format 'knet-dataset-v1'"):
            D.read_dataset(tmp_path / "ds")

    def test_sample_holds_only_the_panoptic_annotation(self, tmp_path):
        D.write_dataset(D.SceneSpec(seed=10, size=16), 2, tmp_path / "ds")
        for d in sorted((tmp_path / "ds").glob("sample_*")):
            assert sorted(p.name for p in d.iterdir()) == sorted(D.SAMPLE_FILES)
        assert sorted(D.SAMPLE_FILES) == ["image.tensor", "panoptic.json", "panoptic.pgm"]

    def test_negative_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="count"):
            D.write_dataset(D.SceneSpec(seed=10, size=16), -1, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_missing_listed_file_is_format_error(self, tmp_path):
        D.write_dataset(D.SceneSpec(seed=13, size=16), 2, tmp_path / "ds")
        (tmp_path / "ds" / "sample_00001" / "panoptic.pgm").unlink()
        with pytest.raises(FormatError, match="panoptic.pgm"):
            D.read_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("name,edit", [
        ("panoptic.json", lambda raw: json.dumps({"segments": [
            {**seg, "area": seg["area"] + (i == 0)}
            for i, seg in enumerate(json.loads(raw)["segments"])]})),
        ("panoptic.json", lambda raw: json.dumps({"segments": 2 * json.loads(raw)["segments"]})),
        ("panoptic.pgm", lambda raw: raw[:-2] + (99).to_bytes(2, "big")),
        ("panoptic.pgm", lambda raw: raw.replace(b"16 16", b"32 8", 1)),
        ("panoptic.json", lambda raw: json.dumps({"segments": [
            {k: v for k, v in seg.items() if k != "class_id"}
            for seg in json.loads(raw)["segments"]]})),
        ("panoptic.json", lambda raw: json.dumps({"segments": [
            {**seg, "area": "12"} for seg in json.loads(raw)["segments"]]})),
        ("panoptic.json", lambda raw: json.dumps({"segments": [
            {**seg, "class_id": 10 ** 12} for seg in json.loads(raw)["segments"]]})),
        ("panoptic.json", lambda raw: json.dumps({"segments": json.loads(raw)["segments"] + [
            {"id": 99, "class_id": D.THING_CLASS_IDS[0], "is_thing": True, "score": 1.0,
             "area": 0}]})),
        ("image.tensor", lambda raw: _recoded_image(raw, lambda im: im * 255.0)),
        ("image.tensor", lambda raw: _recoded_image(raw, lambda im: im.astype(np.float64))),
    ], ids=["table-area-mismatch", "table-duplicate-id", "raster-id-not-in-table",
            "raster-image-size", "segment-no-class-id", "segment-area-str",
            "segment-class-id-too-large", "segment-zero-area", "image-out-of-range",
            "image-f64"])
    def test_malformed_sample_file_is_format_error(self, tmp_path, name, edit):
        # the file passes its checksum, so only the parser can catch it
        root = tmp_path / "ds"
        D.write_dataset(D.SceneSpec(seed=15, size=16, n_max=2, size_range=(5.0, 8.0)), 1, root)
        rel = f"sample_00000/{name}"
        raw = edit((root / rel).read_bytes())
        raw = raw.encode() if isinstance(raw, str) else raw
        (root / rel).write_bytes(raw)
        self._edit_manifest(root, lambda m: json.dumps(
            {**m, "files": {**m["files"], rel: hashlib.sha256(raw).hexdigest()}}))
        with pytest.raises(FormatError, match=name):
            D.read_dataset(root)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            D.read_dataset(tmp_path / "empty")


def _recoded_image(raw: bytes, fn) -> bytes:
    out = io.BytesIO()
    T.write_tensor(out, fn(T.read_tensor(io.BytesIO(raw))))
    return out.getvalue()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 12) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=3),
    max_leaves=6,
)


@dataclass
class Snapshot:
    """A dataset directory and the original bytes of its files."""

    root: Path
    files: dict = field(repr=False)

    def restore(self) -> None:
        for rel, raw in self.files.items():
            (self.root / rel).write_bytes(raw)


@pytest.fixture(scope="module")
def one_sample_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "ds"
    D.write_dataset(D.SceneSpec(seed=14, size=16, n_max=2, size_range=(5.0, 8.0)), 1, root)
    return Snapshot(root, {str(p.relative_to(root)): p.read_bytes()
                           for p in root.rglob("*") if p.is_file()})


def _mutate_json(data, value):
    """Drop a key, retype a field, or recurse into a container."""
    if isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
        action = data.draw(st.sampled_from(["drop", "replace", "recurse"]))
        if action == "drop":
            return {k: v for k, v in value.items() if k != key}
        new = data.draw(JSON_VALUES) if action == "replace" else _mutate_json(data, value[key])
        return {**value, key: new}
    if isinstance(value, list) and value:
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + [_mutate_json(data, value[i])] + value[i + 1:]
    return data.draw(JSON_VALUES)


def _fuzz_bytes(data, raw: bytes, name: str) -> bytes:
    kind = data.draw(st.sampled_from(["mutate", "random", "truncate"]))
    if kind == "mutate" and name.endswith(".json"):
        return json.dumps(_mutate_json(data, json.loads(raw))).encode()
    if kind != "random":
        return raw[: data.draw(st.integers(0, max(0, len(raw) - 1)))]
    if name.endswith(".json"):
        return json.dumps(data.draw(JSON_VALUES)).encode()
    return data.draw(st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_dataset_sample_files_raise_only_knet_errors(one_sample_dataset, data):
    # sample files that pass their (re-signed) checksum but do not parse
    snap = one_sample_dataset
    name = data.draw(st.sampled_from(list(D.SAMPLE_FILES)))
    rel = f"sample_00000/{name}"
    raw = _fuzz_bytes(data, snap.files[rel], name)
    manifest = json.loads(snap.files[D.MANIFEST_NAME])
    manifest["files"][rel] = hashlib.sha256(raw).hexdigest()
    try:
        (snap.root / rel).write_bytes(raw)
        (snap.root / D.MANIFEST_NAME).write_text(json.dumps(manifest))
        D.read_dataset(snap.root)
    except KnetError:
        pass
    finally:
        snap.restore()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_dataset_manifest_raises_only_knet_errors(one_sample_dataset, data):
    snap = one_sample_dataset
    raw = snap.files[D.MANIFEST_NAME]
    manifest = json.loads(raw)
    kind = data.draw(st.sampled_from(["value", "drop", "retype", "files", "truncate"]))
    if kind == "value":
        text = json.dumps(data.draw(JSON_VALUES))
    elif kind == "truncate":
        text = raw[: data.draw(st.integers(0, len(raw) - 1))].decode()
    elif kind == "files":
        path = data.draw(st.sampled_from(["", ".", "..", "/", "manifest.json", "sample_00000",
                                          "sample_00001/image.tensor", "a\x00b"])
                         | st.text(max_size=12))
        text = json.dumps({**manifest, "files": {**manifest["files"],
                                                 path: data.draw(JSON_VALUES)}})
    else:
        key = data.draw(st.sampled_from(["format", "count", "files", "spec"]))
        rest = {k: v for k, v in manifest.items() if k != key}
        text = json.dumps(rest if kind == "drop" else {**rest, key: data.draw(JSON_VALUES)})
    try:
        (snap.root / D.MANIFEST_NAME).write_text(text)
        D.read_dataset(snap.root)
    except KnetError:
        pass
    finally:
        snap.restore()
