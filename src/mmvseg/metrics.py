"""Overlap and surface-distance metrics for labeled volumes.

Dice uses the plain overlap formula with a both-empty convention of 1.0.
HD95 takes the max of the two directed 95th-percentile boundary distances;
boundaries are face-connected (6-neighbourhood) and everything outside the
volume counts as background, so voxels on the border are boundary voxels.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContractError, ShapeError


@dataclass
class SegmentationMask:
    """Integer label volume plus the class count and voxel spacing in mm."""

    labels: np.ndarray
    n_classes: int
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 3:
            raise ShapeError(f"labels must be a D*H*W volume, got shape {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            raise ContractError(f"labels must be integers, got dtype {lab.dtype}")
        if self.n_classes < 2:
            raise ContractError(f"need at least 2 classes, got {self.n_classes}")
        if lab.size and (lab.min() < 0 or lab.max() >= self.n_classes):
            raise ContractError(
                f"labels must lie in [0, {self.n_classes}), found range "
                f"[{lab.min()}, {lab.max()}]"
            )
        self.labels = lab
        self.spacing = check_spacing(self.spacing)

    @property
    def shape(self):
        return self.labels.shape


def check_spacing(spacing):
    """`spacing` as 3 floats; a ContractError unless each is positive and
    finite (NaN would pass a `<= 0` test and turn HD95 into NaN)."""
    if len(spacing) != 3 or not all(np.isfinite(s) and s > 0 for s in spacing):
        raise ContractError(f"spacing must be 3 positive finite floats, got {spacing}")
    return tuple(float(s) for s in spacing)


def _class_mask(mask: SegmentationMask, cls: int) -> np.ndarray:
    if not 0 <= cls < mask.n_classes:
        raise ContractError(f"class {cls} outside [0, {mask.n_classes})")
    return mask.labels == cls


def _check_extents(pred: SegmentationMask, gt: SegmentationMask):
    if pred.labels.shape != gt.labels.shape:
        raise ShapeError(
            f"mask extents differ: {pred.labels.shape} vs {gt.labels.shape}"
        )


def dice_score(pred: SegmentationMask, gt: SegmentationMask, cls: int) -> float:
    """2|P∩G| / (|P|+|G|) for one class; 1.0 when both masks are empty."""
    _check_extents(pred, gt)
    p = _class_mask(pred, cls)
    g = _class_mask(gt, cls)
    total = int(p.sum()) + int(g.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / total


def boundary_voxels(binary: np.ndarray) -> np.ndarray:
    """Foreground voxels with at least one background face-neighbour.

    The volume is implicitly surrounded by background, so foreground on the
    border is always boundary.
    """
    fg = np.asarray(binary, dtype=bool)
    if fg.ndim != 3:
        raise ShapeError(f"expected a 3-d mask, got shape {fg.shape}")
    padded = np.pad(fg, 1, constant_values=False)
    surrounded = (
        padded[:-2, 1:-1, 1:-1]
        & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2]
        & padded[1:-1, 1:-1, 2:]
    )
    return fg & ~surrounded


def hd95(pred: SegmentationMask, gt: SegmentationMask, cls: int, spacing=None) -> float:
    """Max of the two directed 95th-percentile boundary distances, in mm.

    Returns 0.0 when both masks are empty and +inf when exactly one is
    (reports render the infinity as "undefined").  Percentiles interpolate
    linearly between order statistics.
    """
    _check_extents(pred, gt)
    if spacing is None:
        if pred.spacing != gt.spacing:
            raise ContractError(
                f"masks disagree on spacing ({pred.spacing} vs {gt.spacing}); "
                "pass spacing explicitly"
            )
        spacing = gt.spacing
    scale = np.asarray(spacing, dtype=np.float64)

    p = np.argwhere(boundary_voxels(_class_mask(pred, cls))) * scale
    g = np.argwhere(boundary_voxels(_class_mask(gt, cls))) * scale
    if len(p) == 0 and len(g) == 0:
        return 0.0
    if len(p) == 0 or len(g) == 0:
        return math.inf

    d_pg = cKDTree(g).query(p)[0]
    d_gp = cKDTree(p).query(g)[0]
    return float(max(np.percentile(d_pg, 95.0), np.percentile(d_gp, 95.0)))


def _fmt(value: float):
    # +inf is the in-memory sentinel; files say "undefined"
    return "undefined" if math.isinf(value) else value


def _mean_defined(values):
    defined = [v for v in values if not math.isinf(v)]
    return sum(defined) / len(defined) if defined else math.inf


def evaluate(model, dataset, classes=None, out_dir=None, case_ids=None):
    """Run `model` over (volume, mask) pairs and aggregate Dice / HD95.

    `model` maps a D*H*W*M float volume to per-voxel class logits; argmax
    defines the prediction.  `classes` defaults to all foreground labels.
    `case_ids` names the cases in the report (default: 0, 1, ...).
    When `out_dir` is given, writes metrics.csv (one row per case plus one
    summary row) and metrics.json (per-class detail).  Returns the report
    dict that backs the JSON file.
    """

    def one_case(item):
        idx, (volume, mask) = item
        logits = model(volume)
        logits = np.asarray(getattr(logits, "data", logits))
        if not isinstance(mask, SegmentationMask):
            mask = SegmentationMask(np.asarray(mask), n_classes=logits.shape[-1])
        if logits.shape[:3] != mask.shape:
            raise ShapeError(
                f"case {idx}: logits cover {logits.shape[:3]}, mask {mask.shape}"
            )
        case_classes = classes if classes is not None else range(1, mask.n_classes)
        pred = SegmentationMask(
            np.argmax(logits, axis=-1).astype(mask.labels.dtype),
            n_classes=mask.n_classes,
            spacing=mask.spacing,
        )
        return {
            "case": idx,
            "dice": {str(c): dice_score(pred, mask, c) for c in case_classes},
            "hd95": {str(c): hd95(pred, mask, c) for c in case_classes},
        }

    items = enumerate(dataset) if case_ids is None else zip(case_ids, dataset, strict=True)
    per_case = [one_case(item) for item in items]
    if not per_case:
        raise ContractError("evaluate needs a nonempty dataset")
    keys = list(per_case[0]["dice"])
    if any(list(row["dice"]) != keys for row in per_case):
        raise ContractError("cases disagree on class sets; pass classes explicitly")
    if classes is None:
        classes = [int(k) for k in keys]
    mean_dice = {k: sum(row["dice"][k] for row in per_case) / len(per_case) for k in keys}
    mean_hd95 = {k: _mean_defined([row["hd95"][k] for row in per_case]) for k in keys}
    report = {
        "n_cases": len(per_case),
        "classes": [int(c) for c in classes],
        "per_case": per_case,
        "mean_dice": {**mean_dice, "mean": sum(mean_dice.values()) / len(keys)},
        "mean_hd95": {**mean_hd95, "mean": _mean_defined(mean_hd95.values())},
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "class", "dice", "hd95"])
            for row in per_case:
                writer.writerow(
                    [
                        row["case"],
                        "mean",
                        sum(row["dice"].values()) / len(keys),
                        _fmt(_mean_defined(row["hd95"].values())),
                    ]
                )
            writer.writerow(
                ["summary", "mean", report["mean_dice"]["mean"], _fmt(report["mean_hd95"]["mean"])]
            )
        with open(out / "metrics.json", "w") as fh:
            json.dump(_sanitize(report), fh, indent=2)

    return report


def _sanitize(obj):
    """Replace inf sentinels so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "undefined"
    return obj
