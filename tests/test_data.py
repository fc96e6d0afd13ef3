import json
import struct

import numpy as np
import pytest

from mmvseg.data import (
    MultiModalVolume,
    PhantomSpec,
    generate_phantom,
    load_dataset,
    normalize,
    rasterize_ellipsoid,
    read_mask,
    read_mmv,
    save_dataset,
    split,
    write_mask,
    write_mmv,
)
from mmvseg.errors import ConfigError, ContractError, FormatError, GenerationError
from mmvseg.metrics import SegmentationMask


def tiny_spec(**kw):
    base = dict(shape=(16, 16, 16), modalities=2, n_classes=3, objects_per_class=1,
                radius_range=(2.0, 4.0), noise_sigma=0.0, seed=0)
    base.update(kw)
    return PhantomSpec(**base)


class TestSpec:
    def test_rejects_bad_extents(self):
        with pytest.raises(ConfigError, match="16"):
            tiny_spec(shape=(24, 16, 16))
        with pytest.raises(ConfigError):
            tiny_spec(shape=(16, 16))

    def test_rejects_degenerate_fields(self):
        with pytest.raises(ConfigError):
            tiny_spec(modalities=0)
        with pytest.raises(ConfigError):
            tiny_spec(n_classes=1)
        with pytest.raises(ConfigError):
            tiny_spec(radius_range=(4.0, 2.0))
        with pytest.raises(ConfigError):
            tiny_spec(radius_range=(0.0, 2.0))
        with pytest.raises(ConfigError):
            tiny_spec(objects_per_class=0)
        with pytest.raises(ConfigError):
            tiny_spec(noise_sigma=-0.1)
        for seed, message in ((-1, "seed must be >= 0"), (1.5, "seed must be an integer"),
                              (True, "seed must be an integer")):
            with pytest.raises(ConfigError, match=message):
                tiny_spec(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("modalities", 2.0), ("modalities", True), ("n_classes", "3"), ("n_classes", False),
        ("objects_per_class", 1.5), ("radius_range", (2.0, 4.0, 5.0)), ("radius_range", (2.0,)),
        ("radius_range", ("2", 4.0)), ("radius_range", (True, 4.0)), ("radius_range", 3.0),
    ])
    def test_rejects_mistyped_fields(self, field, value):
        message = "radius range must be two numbers" if field == "radius_range" else "must be an integer"
        with pytest.raises(ConfigError, match=message):
            tiny_spec(**{field: value})

    def test_default_visibility_is_complementary(self):
        vis = tiny_spec(modalities=2, n_classes=4).visibility_matrix()
        assert vis.shape == (2, 4)
        assert np.array_equal(vis[:, 0], [0, 0])
        assert vis[0, 1] == 1.0 and vis[1, 1] == 0.0
        assert vis[1, 2] == 1.0 and vis[0, 2] == 0.0
        assert vis[0, 3] == 1.5  # second class on modality 0, staggered contrast

    def test_single_modality_cannot_force_fusion(self):
        with pytest.raises(ConfigError, match="invisible"):
            tiny_spec(modalities=1)

    def test_background_contrast_rejected(self):
        with pytest.raises(ConfigError, match="background"):
            tiny_spec(visibility=[[0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_invisible_class_rejected(self):
        with pytest.raises(ConfigError, match="visible in some modality"):
            tiny_spec(visibility=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])

    def test_fully_visible_matrix_rejected(self):
        with pytest.raises(ConfigError, match="fusion"):
            tiny_spec(visibility=[[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])

    def test_spacing_float32_holds_keeps_its_json(self):
        assert json.dumps(tiny_spec(spacing=(1, 2, 0.5)).to_dict()["spacing"]) == "[1, 2, 0.5]"

    def test_spacing_beyond_float32_is_infinite(self):
        with pytest.raises(ConfigError, match="finite"):
            tiny_spec(spacing=(1.0, 1e39, 1.0))

    @pytest.mark.parametrize("visibility", [
        "x", [[0, 1, 0], [0, 0]], [[0, True, 0], [0, 0, 1]], [[0, 1, 0]], [[0, "1", 0], [0, 0, 1]],
    ], ids=["string", "ragged", "bool", "one-row", "string-entry"])
    def test_visibility_that_is_not_a_number_matrix_rejected(self, visibility):
        with pytest.raises(ConfigError, match="visibility must be"):
            tiny_spec(visibility=visibility)

    def test_more_classes_than_byte_labels_rejected(self):
        with pytest.raises(ConfigError, match="MSK1"):
            tiny_spec(n_classes=257)
        assert tiny_spec(n_classes=256, modalities=2).n_classes == 256

    def test_dict_round_trip(self):
        spec = tiny_spec(noise_sigma=0.2, seed=5)
        again = PhantomSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again.shape == spec.shape


class TestGenerate:
    def test_identity_visibility_gives_indicators(self):
        spec = tiny_spec(visibility=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        volume, mask = generate_phantom(spec)
        assert np.array_equal(volume.data[..., 0], (mask.labels == 1).astype(np.float32))
        assert np.array_equal(volume.data[..., 1], (mask.labels == 2).astype(np.float32))

    def test_same_seed_bit_identical(self):
        a_vol, a_mask = generate_phantom(tiny_spec(noise_sigma=0.15, seed=3))
        b_vol, b_mask = generate_phantom(tiny_spec(noise_sigma=0.15, seed=3))
        assert np.array_equal(a_vol.data, b_vol.data)
        assert np.array_equal(a_mask.labels, b_mask.labels)

    def test_different_seeds_differ(self):
        a, _ = generate_phantom(tiny_spec(seed=0))
        b, _ = generate_phantom(tiny_spec(seed=1))
        assert not np.array_equal(a.data, b.data)

    def test_mask_matches_literal_rasterization(self):
        _, mask, objects = generate_phantom(tiny_spec(seed=7), return_objects=True)
        oracle = np.zeros(mask.labels.shape, dtype=np.uint8)
        for obj in objects:
            (cz, cy, cx), (az, ay, ax) = obj["center"], obj["semi_axes"]
            for z in range(oracle.shape[0]):
                for y in range(oracle.shape[1]):
                    for x in range(oracle.shape[2]):
                        r = ((z - cz) / az) ** 2 + ((y - cy) / ay) ** 2 + ((x - cx) / ax) ** 2
                        if r <= 1.0:
                            oracle[z, y, x] = obj["cls"]
        assert np.array_equal(mask.labels, oracle)

    def test_objects_do_not_overlap(self):
        _, mask, objects = generate_phantom(
            tiny_spec(shape=(32, 32, 32), objects_per_class=2, seed=2), return_objects=True
        )
        per_object = sum(
            int(rasterize_ellipsoid(mask.labels.shape, o["center"], o["semi_axes"]).sum())
            for o in objects
        )
        assert per_object == int((mask.labels > 0).sum())

    def test_every_foreground_class_present(self):
        _, mask = generate_phantom(tiny_spec(seed=11))
        assert set(np.unique(mask.labels)) == {0, 1, 2}

    def test_infeasible_radius_raises(self):
        with pytest.raises(GenerationError, match="could not place"):
            generate_phantom(tiny_spec(radius_range=(10.0, 12.0)))

    def test_crowded_volume_raises(self):
        with pytest.raises(GenerationError):
            generate_phantom(tiny_spec(objects_per_class=60, radius_range=(3.0, 4.0)))

    def test_threshold_recovers_each_class_noiselessly(self):
        spec = tiny_spec(modalities=2, n_classes=4, shape=(32, 32, 32))
        volume, mask = generate_phantom(spec)
        vis = spec.visibility_matrix()
        for cls in range(1, spec.n_classes):
            m = int(np.argmax(vis[:, cls]))
            level = np.float32(vis[m, cls])
            recovered = volume.data[..., m] == level
            assert np.array_equal(recovered, mask.labels == cls)

    def test_noise_perturbs_but_stays_finite(self):
        clean, _ = generate_phantom(tiny_spec(seed=4))
        noisy, _ = generate_phantom(tiny_spec(seed=4, noise_sigma=0.3))
        assert not np.array_equal(clean.data, noisy.data)
        assert np.isfinite(noisy.data).all()


class TestVolumeFormat:
    def _volume(self, seed=0, m=2, spacing=(1.0, 1.0, 1.0)):
        rng = np.random.default_rng(seed)
        return MultiModalVolume(rng.normal(size=(4, 5, 6, m)).astype(np.float32), spacing)

    def test_round_trip_bit_exact(self, tmp_path):
        v = self._volume(spacing=(0.5, 1.25, 2.0))
        path = tmp_path / "v.mmv"
        write_mmv(path, v)
        back = read_mmv(path)
        assert np.array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_spacing_float32_cannot_hold_round_trips(self, tmp_path):
        v = self._volume(spacing=(0.9, 1.1, 3.0))
        assert v.spacing == (float(np.float32(0.9)), float(np.float32(1.1)), 3.0)
        write_mmv(tmp_path / "v.mmv", v)
        back = read_mmv(tmp_path / "v.mmv")
        assert back.spacing == v.spacing and np.array_equal(back.data, v.data)

    def test_spacing_beyond_float32_is_infinite(self):
        with pytest.raises(ContractError, match="finite"):
            self._volume(spacing=(1.0, 1.0, 1e39))

    @pytest.mark.parametrize("m", [1, 3])
    def test_read_volume_is_a_writable_array_of_its_own(self, tmp_path, m):
        # one modality's payload is already in (D, H, W, 1) order, so a view
        # of the read-only file bytes would pass as a float32 C array
        path = tmp_path / "v.mmv"
        write_mmv(path, self._volume(m=m))
        data = read_mmv(path).data
        assert data.flags.writeable and data.flags.owndata

    def test_modality_major_layout(self, tmp_path):
        v = self._volume()
        path = tmp_path / "v.mmv"
        write_mmv(path, v)
        raw = path.read_bytes()
        block = v.data.shape[0] * v.data.shape[1] * v.data.shape[2] * 4
        header = 4 + 16 + 12
        assert raw[header : header + block] == np.ascontiguousarray(
            v.data[..., 0], dtype="<f4"
        ).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.mmv"
        write_mmv(path, self._volume())
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            read_mmv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "v.mmv"
        write_mmv(path, self._volume())
        path.write_bytes(path.read_bytes()[:32])
        with pytest.raises(FormatError, match="truncated"):
            read_mmv(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "v.mmv"
        write_mmv(path, self._volume())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_mmv(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_spacing_rejected(self, bad):
        with pytest.raises(ContractError, match="finite"):
            self._volume(spacing=(1.0, 1.0, bad))

    def test_file_with_nan_spacing_rejected(self, tmp_path):
        path = tmp_path / "v.mmv"
        write_mmv(path, self._volume())
        raw = bytearray(path.read_bytes())
        raw[4 + 16 : 4 + 20] = struct.pack("<f", float("nan"))  # first spacing entry
        path.write_bytes(bytes(raw))
        with pytest.raises(ContractError, match="finite"):
            read_mmv(path)

    def test_zero_modalities_rejected(self):
        with pytest.raises(ContractError):
            MultiModalVolume(np.zeros((2, 2, 2, 0), dtype=np.float32))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 2, 2, 1), dtype=np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ContractError, match="finite"):
            MultiModalVolume(bad)


class TestMaskFormat:
    def _mask(self, seed=0):
        rng = np.random.default_rng(seed)
        return SegmentationMask(rng.integers(0, 3, size=(4, 5, 6)).astype(np.uint8), 3)

    def test_round_trip(self, tmp_path):
        m = self._mask()
        path = tmp_path / "m.msk"
        write_mask(path, m)
        back = read_mask(path)
        assert np.array_equal(back.labels, m.labels)
        assert back.n_classes == m.n_classes

    def test_all_zero_mask_valid(self, tmp_path):
        path = tmp_path / "m.msk"
        write_mask(path, SegmentationMask(np.zeros((2, 2, 2), dtype=np.uint8), 4))
        assert read_mask(path).labels.sum() == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.msk"
        write_mask(path, self._mask())
        path.write_bytes(b"MMV1" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            read_mask(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.msk"
        write_mask(path, self._mask())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(FormatError, match="truncated"):
            read_mask(path)

    def test_out_of_range_label_names_voxel(self, tmp_path):
        import struct

        payload = bytearray(8)
        payload[3] = 2  # label 2 in a 2-class file, voxel index 3
        path = tmp_path / "m.msk"
        path.write_bytes(b"MSK1" + struct.pack("<IIII", 2, 2, 2, 2) + bytes(payload))
        with pytest.raises(FormatError, match="voxel 3"):
            read_mask(path)

    def test_too_many_classes_for_byte_labels(self, tmp_path):
        mask = SegmentationMask(np.zeros((2, 2, 2), dtype=np.int64), 300)
        with pytest.raises(FormatError, match="256"):
            write_mask(tmp_path / "m.msk", mask)


# header extents whose payload the file does not hold: each size is checked
# against the bytes left before anything is read or allocated, where these
# raised OverflowError, OverflowError and MemoryError (a 256 GiB request)
@pytest.mark.parametrize("reader, magic, fields", [
    (read_mmv, b"MMV1", (65535, 65535, 65535, 65535)),
    (read_mask, b"MSK1", (2, 2 ** 31, 2 ** 31, 2 ** 31)),
    (read_mmv, b"MMV1", (1, 4096, 4096, 4096)),
], ids=["mmv-65535", "msk-2e31", "mmv-4096-cubed"])
def test_header_sizes_beyond_the_file_are_truncation(tmp_path, reader, magic, fields):
    path = tmp_path / "corrupt"
    path.write_bytes(magic + struct.pack("<IIII", *fields) + struct.pack("<fff", 1.0, 1.0, 1.0) + bytes(64))
    with pytest.raises(FormatError, match="truncated file: wanted [0-9]+ bytes of (voxel data|labels), got "):
        reader(path)


class TestNormalize:
    def test_constant_modality_maps_to_zeros(self):
        v = MultiModalVolume(np.full((4, 4, 4, 1), 7.0, dtype=np.float32))
        assert not normalize(v).data.any()

    def test_zero_modality_stays_zero(self):
        v = MultiModalVolume(np.zeros((4, 4, 4, 1), dtype=np.float32))
        assert not normalize(v).data.any()

    def test_nonzero_support_statistics(self):
        rng = np.random.default_rng(0)
        data = np.zeros((8, 8, 8, 2), dtype=np.float32)
        data[2:6, 2:6, 2:6, :] = rng.normal(3.0, 2.0, (4, 4, 4, 2))
        out = normalize(MultiModalVolume(data)).data
        for m in range(2):
            sel = data[..., m] != 0
            assert out[..., m][sel].mean() == pytest.approx(0.0, abs=1e-6)
            assert out[..., m][sel].std() == pytest.approx(1.0, abs=1e-6)
            assert not out[..., m][~sel].any()

    def test_idempotent_once_standardized(self):
        rng = np.random.default_rng(1)
        data = np.zeros((6, 6, 6, 1), dtype=np.float32)
        data[1:5, 1:5, 1:5, 0] = rng.normal(size=(4, 4, 4))
        once = normalize(MultiModalVolume(data))
        twice = normalize(once)
        assert np.allclose(once.data, twice.data, atol=1e-12)


class TestSplit:
    def test_all_train(self):
        train, val, test = split(10, (1.0, 0.0, 0.0), seed=0)
        assert train == list(range(10)) and val == [] and test == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("n", [1, 2, 7, 20, 53])
    def test_disjoint_and_exhaustive(self, n):
        train, val, test = split(n, (0.6, 0.2, 0.2), seed=n)
        combined = sorted(train + val + test)
        assert combined == list(range(n))

    def test_same_seed_same_split(self):
        assert split(20, seed=4) == split(20, seed=4)

    def test_seed_changes_membership(self):
        assert split(50, seed=0) != split(50, seed=1)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            split(10, (0.5, 0.2, 0.2))
        with pytest.raises(ConfigError):
            split(10, (1.2, -0.1, -0.1))

    @pytest.mark.filterwarnings("ignore::UserWarning")  # val/test warn too
    def test_empty_split_warns(self):
        with pytest.warns(UserWarning, match="train split is empty"):
            split(1, (0.4, 0.3, 0.3), seed=0)


class TestDatasetDirectory:
    def test_save_and_load_round_trip(self, tmp_path):
        spec = tiny_spec(noise_sigma=0.1, seed=9)
        dirs = save_dataset(tmp_path / "ds", spec, 3)
        assert [d.name for d in dirs] == ["case_0000", "case_0001", "case_0002"]
        for d in dirs:
            assert (d / "volume.mmv").exists()
            assert (d / "mask.msk").exists()
            meta = json.loads((d / "meta.json").read_text())
            assert meta["seed"] == spec.seed + meta["index"]

        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == 3
        for idx, (volume, mask) in enumerate(loaded):
            from dataclasses import replace

            want_v, want_m = generate_phantom(replace(spec, seed=spec.seed + idx))
            assert np.array_equal(volume, normalize(want_v).data)
            assert np.array_equal(mask.labels, want_m.labels)

    def test_load_applies_normalization_by_default(self, tmp_path):
        save_dataset(tmp_path / "ds", tiny_spec(noise_sigma=0.2, seed=1), 1)
        (volume, _), = load_dataset(tmp_path / "ds")
        sel = volume[..., 0] != 0
        assert volume[..., 0][sel].std() == pytest.approx(1.0, abs=1e-4)

    def test_spacing_is_one_value_in_meta_volume_and_mask(self, tmp_path):
        spec = tiny_spec(spacing=[0.9, 1.1, 3.0], noise_sigma=0.1)
        want = (float(np.float32(0.9)), float(np.float32(1.1)), 3.0)
        assert spec.spacing == want
        cdir, = save_dataset(tmp_path / "ds", spec, 1)
        assert tuple(json.loads((cdir / "meta.json").read_text())["spec"]["spacing"]) == want
        assert read_mmv(cdir / "volume.mmv").spacing == want
        (_, mask), = load_dataset(tmp_path / "ds")
        assert mask.spacing == want

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="dataset directory not found"):
            load_dataset(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no case"):
            load_dataset(tmp_path)
