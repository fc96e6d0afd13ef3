import csv
import json
import math

import numpy as np
import pytest

from mmvseg.errors import ContractError, ShapeError
from mmvseg.metrics import (
    SegmentationMask,
    boundary_voxels,
    check_spacing,
    dice_score,
    evaluate,
    hd95,
)


def mask_of(labels, n_classes=2, spacing=(1.0, 1.0, 1.0)):
    return SegmentationMask(np.asarray(labels, dtype=np.int64), n_classes, spacing)


def random_mask(rng, shape=(8, 8, 8), n_classes=2, p_fg=0.5):
    labels = (rng.random(shape) < p_fg).astype(np.int64)
    if n_classes > 2:
        labels *= rng.integers(1, n_classes, size=shape)
    return SegmentationMask(labels, n_classes)


def brute_boundary(binary):
    """Literal 6-neighbour scan, outside counts as background."""
    fg = np.asarray(binary, dtype=bool)
    out = np.zeros_like(fg)
    shape = fg.shape
    for z in range(shape[0]):
        for y in range(shape[1]):
            for x in range(shape[2]):
                if not fg[z, y, x]:
                    continue
                for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nz, ny, nx = z + dz, y + dy, x + dx
                    if not (0 <= nz < shape[0] and 0 <= ny < shape[1] and 0 <= nx < shape[2]):
                        out[z, y, x] = True
                        break
                    if not fg[nz, ny, nx]:
                        out[z, y, x] = True
                        break
    return out


def brute_hd95(pred, gt, cls, spacing=(1.0, 1.0, 1.0)):
    """All-pairs distance version of hd95 (O(n^2) but unarguable)."""
    scale = np.asarray(spacing, dtype=np.float64)
    p = np.argwhere(brute_boundary(pred.labels == cls)) * scale
    g = np.argwhere(brute_boundary(gt.labels == cls)) * scale
    if len(p) == 0 and len(g) == 0:
        return 0.0
    if len(p) == 0 or len(g) == 0:
        return math.inf
    d = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=-1))
    return max(np.percentile(d.min(axis=1), 95.0), np.percentile(d.min(axis=0), 95.0))


class TestMask:
    def test_rejects_non_3d(self):
        with pytest.raises(ShapeError):
            SegmentationMask(np.zeros((4, 4), dtype=np.int64), 2)

    def test_rejects_float_labels(self):
        with pytest.raises(ContractError, match="integers"):
            SegmentationMask(np.zeros((2, 2, 2)), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ContractError, match=r"\[0, 2\)"):
            mask_of(np.full((2, 2, 2), 2), n_classes=2)
        with pytest.raises(ContractError):
            mask_of(np.full((2, 2, 2), -1))

    def test_rejects_single_class(self):
        with pytest.raises(ContractError):
            mask_of(np.zeros((2, 2, 2)), n_classes=1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ContractError):
            mask_of(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spacing(self, bad):
        with pytest.raises(ContractError, match="finite"):
            mask_of(np.zeros((2, 2, 2)), spacing=(1.0, bad, 1.0))

    @pytest.mark.parametrize("bad", [True, np.True_, "1"])
    def test_rejects_spacing_entries_that_are_not_numbers(self, bad):
        # True would otherwise be stored, and written to meta.json, as 1
        with pytest.raises(ContractError, match="spacing"):
            check_spacing((bad, 1, 1))
        with pytest.raises(ContractError, match="spacing"):
            mask_of(np.zeros((2, 2, 2)), spacing=(1.0, 1.0, bad))

    def test_spacing_normalized_to_float_tuple(self):
        m = mask_of(np.zeros((2, 2, 2)), spacing=(1, 2, 3))
        assert m.spacing == (1.0, 2.0, 3.0)


class TestDice:
    def test_identical_masks(self):
        rng = np.random.default_rng(0)
        m = random_mask(rng)
        assert dice_score(m, m, 1) == 1.0

    def test_disjoint_nonempty(self):
        a = np.zeros((4, 4, 4), dtype=np.int64)
        b = np.zeros((4, 4, 4), dtype=np.int64)
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        assert dice_score(mask_of(a), mask_of(b), 1) == 0.0

    def test_worked_example(self):
        # |P|=2, |G|=4, overlap 2 -> 2*2/6
        p = np.zeros((4, 4, 4), dtype=np.int64)
        g = np.zeros((4, 4, 4), dtype=np.int64)
        p[0, 0, :2] = 1
        g[0, 0, :4] = 1
        assert dice_score(mask_of(p), mask_of(g), 1) == pytest.approx(2 / 3)

    def test_both_empty_convention(self):
        z = mask_of(np.zeros((3, 3, 3)))
        assert dice_score(z, z, 1) == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_mask(rng), random_mask(rng)
        assert dice_score(a, b, 1) == dice_score(b, a, 1)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        a = (rng.random((4, 4, 4)) < 0.4).astype(np.int64)
        b = (rng.random((4, 4, 4)) < 0.4).astype(np.int64)
        pad = [np.zeros((8, 8, 8), dtype=np.int64) for _ in range(4)]
        pad[0][:4, :4, :4] = a
        pad[1][:4, :4, :4] = b
        pad[2][2:6, 3:7, 1:5] = a
        pad[3][2:6, 3:7, 1:5] = b
        assert dice_score(mask_of(pad[0]), mask_of(pad[1]), 1) == dice_score(
            mask_of(pad[2]), mask_of(pad[3]), 1
        )

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            dice_score(mask_of(np.zeros((2, 2, 2))), mask_of(np.zeros((3, 3, 3))), 1)

    def test_class_out_of_range(self):
        m = mask_of(np.zeros((2, 2, 2)))
        with pytest.raises(ContractError):
            dice_score(m, m, 5)


class TestBoundary:
    def test_single_voxel(self):
        fg = np.zeros((5, 5, 5), dtype=bool)
        fg[2, 2, 2] = True
        assert np.array_equal(boundary_voxels(fg), fg)

    def test_solid_cube_keeps_shell(self):
        fg = np.zeros((5, 5, 5), dtype=bool)
        fg[1:4, 1:4, 1:4] = True
        shell = boundary_voxels(fg)
        assert shell.sum() == 27 - 1  # centre voxel is interior
        assert not shell[2, 2, 2]

    def test_full_volume_keeps_border(self):
        fg = np.ones((4, 4, 4), dtype=bool)
        shell = boundary_voxels(fg)
        assert shell.sum() == 4**3 - 2**3
        assert not shell[1:3, 1:3, 1:3].any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_literal_neighbour_scan(self, seed):
        rng = np.random.default_rng(seed)
        fg = rng.random((6, 5, 4)) < 0.5
        assert np.array_equal(boundary_voxels(fg), brute_boundary(fg))


class TestHD95:
    def test_identical_masks(self):
        rng = np.random.default_rng(1)
        m = random_mask(rng)
        assert hd95(m, m, 1) == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((8, 8, 8), dtype=np.int64)
        b = np.zeros((8, 8, 8), dtype=np.int64)
        a[2, 4, 4] = 1
        b[5, 4, 4] = 1
        assert hd95(mask_of(a), mask_of(b), 1) == pytest.approx(3.0)

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 8, 8), dtype=np.int64)
        b = np.zeros((8, 8, 8), dtype=np.int64)
        a[2, 4, 4] = 1
        b[5, 4, 4] = 1
        got = hd95(mask_of(a, spacing=(2.0, 1.0, 1.0)), mask_of(b, spacing=(2.0, 1.0, 1.0)), 1)
        assert got == pytest.approx(6.0)

    def test_empty_conventions(self):
        empty = mask_of(np.zeros((4, 4, 4)))
        one = np.zeros((4, 4, 4), dtype=np.int64)
        one[1, 1, 1] = 1
        assert hd95(empty, empty, 1) == 0.0
        assert math.isinf(hd95(mask_of(one), empty, 1))
        assert math.isinf(hd95(empty, mask_of(one), 1))

    def test_spacing_disagreement_rejected(self):
        a = mask_of(np.zeros((4, 4, 4)), spacing=(1, 1, 1))
        b = mask_of(np.zeros((4, 4, 4)), spacing=(2, 1, 1))
        with pytest.raises(ContractError, match="spacing"):
            hd95(a, b, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_all_pairs_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, b = random_mask(rng), random_mask(rng)
        assert hd95(a, b, 1) == pytest.approx(brute_hd95(a, b, 1), abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(200 + seed)
        a, b = random_mask(rng), random_mask(rng)
        assert hd95(a, b, 1) == hd95(b, a, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_at_most_full_hausdorff(self, seed):
        rng = np.random.default_rng(300 + seed)
        a, b = random_mask(rng, p_fg=0.3), random_mask(rng, p_fg=0.3)
        pa = np.argwhere(boundary_voxels(a.labels == 1)).astype(float)
        pb = np.argwhere(boundary_voxels(b.labels == 1)).astype(float)
        if len(pa) == 0 or len(pb) == 0:
            pytest.skip("degenerate draw")
        d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1))
        full = max(d.min(axis=1).max(), d.min(axis=0).max())
        assert hd95(a, b, 1) <= full + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        core_a = rng.random((4, 4, 4)) < 0.4
        core_b = rng.random((4, 4, 4)) < 0.4
        def place(core, off):
            lab = np.zeros((10, 10, 10), dtype=np.int64)
            lab[off:off + 4, off:off + 4, off:off + 4] = core
            return mask_of(lab)
        ref = hd95(place(core_a, 1), place(core_b, 1), 1)
        assert hd95(place(core_a, 4), place(core_b, 4), 1) == pytest.approx(ref, abs=1e-12)


class TestEvaluate:
    def _dataset(self, n_cases=3, n_classes=3, shape=(6, 6, 6), seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n_cases):
            labels = rng.integers(0, n_classes, size=shape).astype(np.int64)
            volume = rng.normal(size=shape + (2,)).astype(np.float32)
            out.append((volume, SegmentationMask(labels, n_classes)))
        return out

    @staticmethod
    def _oracle_model(dataset):
        # feeds the ground truth back as one-hot logits
        by_id = {id(v): m for v, m in dataset}
        def model(volume):
            mask = by_id[id(volume)]
            return np.eye(mask.n_classes, dtype=np.float32)[mask.labels]
        return model

    def test_perfect_model(self, tmp_path):
        data = self._dataset()
        report = evaluate(self._oracle_model(data), data, out_dir=tmp_path)
        assert report["mean_dice"]["mean"] == 1.0
        assert report["mean_hd95"]["mean"] == 0.0

    def test_constant_background_predictor(self):
        data = self._dataset(n_cases=2)
        model = lambda v: np.eye(3, dtype=np.float32)[np.zeros(v.shape[:3], dtype=np.int64)]
        report = evaluate(model, data)
        assert report["mean_dice"]["1"] == 0.0
        assert report["mean_dice"]["2"] == 0.0
        assert report["mean_hd95"]["mean"] == "undefined" or math.isinf(report["mean_hd95"]["mean"])

    def test_csv_row_count_and_summary(self, tmp_path):
        data = self._dataset(n_cases=4)
        evaluate(self._oracle_model(data), data, out_dir=tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case", "class", "dice", "hd95"]
        assert len(rows) == 1 + 4 + 1  # header, one per case, summary
        assert rows[-1][0] == "summary"

    def test_json_is_strict_and_marks_undefined(self, tmp_path):
        data = self._dataset(n_cases=2)
        # never predicts class 2 -> hd95 undefined for that class
        model = lambda v: np.eye(3, dtype=np.float32)[(v[..., 0] > 0).astype(np.int64)]
        evaluate(model, data, out_dir=tmp_path)
        loaded = json.loads((tmp_path / "metrics.json").read_text())
        assert loaded["n_cases"] == 2
        assert loaded["mean_hd95"]["2"] == "undefined"

    def test_undefined_hd95_cases_are_counted_and_left_out_of_the_mean(self):
        # every case predicts its truth shifted by a voxel, and case 1 no
        # voxel of class 2, so that case's class-2 HD95 is undefined
        data = self._dataset(n_cases=3)
        truth = {id(v): m.labels for v, m in data}

        def model(volume):
            pred = np.roll(truth[id(volume)], 1, axis=0)
            if volume is data[1][0]:
                pred = np.where(pred == 2, 0, pred)
            return np.eye(3, dtype=np.float32)[pred]

        report = evaluate(model, data)
        hd = [case["hd95"]["2"] for case in report["per_case"]]
        assert math.isinf(hd[1]) and hd[0] > 0 and hd[2] > 0
        assert report["hd95_undefined"] == {"1": 0, "2": 1}
        assert report["mean_hd95"]["2"] == (hd[0] + hd[2]) / 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            evaluate(lambda v: v, [])

    def test_cases_with_different_class_counts_rejected(self):
        data = self._dataset(n_cases=1, n_classes=3) + self._dataset(n_cases=1, n_classes=4)
        with pytest.raises(ContractError, match="class sets"):
            evaluate(self._oracle_model(data), data)

    def test_logit_extent_mismatch(self):
        data = self._dataset(n_cases=1)
        model = lambda v: np.zeros((2, 2, 2, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            evaluate(model, data)

    def test_plain_label_arrays_accepted(self):
        labels = np.zeros((4, 4, 4), dtype=np.int64)
        labels[1:3, 1:3, 1:3] = 1
        volume = np.zeros((4, 4, 4, 1), dtype=np.float32)
        model = lambda v: np.eye(2, dtype=np.float32)[labels]
        report = evaluate(model, [(volume, labels)])
        assert report["mean_dice"]["mean"] == 1.0
