import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knet import data as D
from knet import metrics as ME
from knet.errors import ChecksumError, FormatError, GenerationError, KnetError, ParameterError


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
        D.write_ppm(path, img)
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
        assert len(manifest["files"]) == 3 * 6

    def test_manifest_golden(self, tmp_path):
        # pins the manifest bytes (spec serialization, checksums of every
        # sample file) for a fixed spec
        spec = D.SceneSpec(seed=9, size=16, n_max=2, size_range=(5.0, 8.0))
        D.write_dataset(spec, 3, tmp_path / "ds")
        digest = hashlib.sha256((tmp_path / "ds" / "manifest.json").read_bytes()).hexdigest()
        assert digest == "b297d5ed24255ea34c64924b7d1a55fa4ae9e1bb26c8e7bbdb4eb7ef57c5d346"

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
    ], ids=["invalid-json", "array", "no-files", "no-count", "count-too-large",
            "sample-not-listed", "unknown-spec-key", "spec-not-object"])
    def test_bad_manifest_is_format_error(self, tmp_path, edit):
        D.write_dataset(D.SceneSpec(seed=12, size=16), 2, tmp_path / "ds")
        self._edit_manifest(tmp_path / "ds", edit)
        with pytest.raises(FormatError):
            D.read_dataset(tmp_path / "ds")

    def test_missing_listed_file_is_format_error(self, tmp_path):
        D.write_dataset(D.SceneSpec(seed=13, size=16), 2, tmp_path / "ds")
        (tmp_path / "ds" / "sample_00001" / "semantic.pgm").unlink()
        with pytest.raises(FormatError, match="semantic.pgm"):
            D.read_dataset(tmp_path / "ds")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FormatError):
            D.read_dataset(tmp_path / "empty")
