"""Synthetic complementary-modality phantoms and tiny binary file formats.

Phantoms are non-overlapping axis-aligned ellipsoids, one intensity level per
class, where each class is visible in only a subset of the modalities — a
single modality is never enough to segment everything.  Volumes and masks
travel in two purpose-built little-endian formats (MMV1 / MSK1) chosen over
medical containers so round trips stay bit-exact and dependency-free.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .encoder import DOWNSAMPLE
from .errors import (ConfigError, ContractError, FormatError, GenerationError, check_fields,
                     is_number)
from .metrics import SegmentationMask, check_spacing

_MMV_MAGIC = b"MMV1"
_MSK_MAGIC = b"MSK1"


def _float32_spacing(spacing):
    """`spacing` as MMV1's float32 fields keep it: a float entry becomes its float32
    value (inf beyond float32's range); every other entry, an int among them, is kept."""
    with np.errstate(over="ignore"):
        return tuple(float(np.float32(s)) if isinstance(s, float) else s for s in spacing)


@dataclass
class MultiModalVolume:
    """Co-registered float intensities, layout (D, H, W, M)."""

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32, order="C")
        if arr.ndim != 4 or arr.shape[3] < 1:
            raise ContractError(
                f"volume needs shape (D, H, W, M>=1), got {np.shape(self.data)}"
            )
        if not np.isfinite(arr).all():
            raise ContractError("volume intensities must be finite")
        self.data = arr
        self.spacing = check_spacing(_float32_spacing(self.spacing))

    @property
    def shape(self):
        return self.data.shape[:3]

    @property
    def modalities(self):
        return self.data.shape[3]


@dataclass
class PhantomSpec:
    shape: tuple = (32, 32, 32)
    modalities: int = 2
    n_classes: int = 3
    objects_per_class: int = 2
    radius_range: tuple = (2.5, 5.5)
    noise_sigma: float = 0.1
    visibility: list = None  # (M, n_classes) contrast matrix; None = complementary default
    spacing: tuple = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        check_fields(self, (("shape", 3, None), ("modalities", int, 1), ("n_classes", int, 2),
                            ("objects_per_class", int, 1), ("noise_sigma", float, 0), ("seed", int, 0)))
        if self.n_classes > 256:
            raise ConfigError(f"n_classes must be <= 256, as MSK1 stores byte labels, got {self.n_classes}")
        if any(s < DOWNSAMPLE or s % DOWNSAMPLE for s in self.shape):
            raise ConfigError(f"phantom extents must be positive multiples of {DOWNSAMPLE}, got {self.shape}")
        if (not isinstance(self.radius_range, (list, tuple)) or len(self.radius_range) != 2
                or not all(map(is_number, self.radius_range))):
            raise ConfigError(f"radius range must be two numbers, got {self.radius_range!r}")
        lo, hi = self.radius_range
        if not 0 < lo <= hi < math.inf:
            raise ConfigError(f"radius range {self.radius_range} must be finite, with 0 < lo <= hi")
        self.radius_range = (float(lo), float(hi))
        self.spacing = _float32_spacing(self.spacing)
        try:
            check_spacing(self.spacing)
        except ContractError as exc:
            raise ConfigError(str(exc)) from None
        vis = self.visibility
        if vis is not None and not (isinstance(vis, (list, tuple)) and len(vis) == self.modalities and all(
                isinstance(row, (list, tuple)) and len(row) == self.n_classes and all(map(is_number, row))
                for row in vis)):
            raise ConfigError(f"visibility must be {self.modalities} (modalities) lists of {self.n_classes} "
                              f"(n_classes) numbers, got {vis!r}")
        vis = self.visibility_matrix()
        if not np.isfinite(vis).all():
            raise ConfigError("visibility contrasts must be finite")
        if np.any(vis[:, 0] != 0):
            raise ConfigError("background (class 0) must have zero contrast everywhere")
        fg = vis[:, 1:]
        if np.any(~fg.any(axis=0)):
            raise ConfigError("every foreground class must be visible in some modality")
        if not np.any(fg == 0):
            raise ConfigError("at least one class must be invisible in at least one modality "
                              "(otherwise one modality suffices and fusion is untested)")

    def visibility_matrix(self) -> np.ndarray:
        """Contrast of each class in each modality, background column zero.

        The default assigns class c to modality (c-1) mod M; classes sharing
        a modality get staggered contrast levels so each stays separable by
        a plain intensity threshold.
        """
        if self.visibility is not None:
            return np.asarray(self.visibility, dtype=np.float64)
        vis = np.zeros((self.modalities, self.n_classes))
        for cls in range(1, self.n_classes):
            m = (cls - 1) % self.modalities
            vis[m, cls] = 1.0 + 0.5 * ((cls - 1) // self.modalities)
        return vis

    def to_dict(self):
        # the resolved visibility for the field; JSON turns tuples into lists
        return json.loads(json.dumps({**asdict(self), "visibility": self.visibility_matrix().tolist()}))

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def rasterize_ellipsoid(shape, center, semi_axes) -> np.ndarray:
    """Boolean mask of voxels whose centres fall inside the ellipsoid."""
    zz, yy, xx = np.ogrid[: shape[0], : shape[1], : shape[2]]
    cz, cy, cx = center
    az, ay, ax = semi_axes
    return (
        ((zz - cz) / az) ** 2 + ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2
    ) <= 1.0


def _place_one(spec, rng, labels, cls, max_tries=200):
    lo, hi = spec.radius_range
    extents = np.asarray(labels.shape)
    for _ in range(max_tries):
        semis = rng.uniform(lo, hi, size=3)
        margin = np.ceil(semis).astype(np.int64)
        low, high = margin, extents - 1 - margin
        if np.any(high < low):
            continue
        center = rng.integers(low, high + 1)
        blob = rasterize_ellipsoid(labels.shape, center, semis)
        if labels[blob].any():
            continue  # would overlap an earlier object
        labels[blob] = cls
        return {"cls": int(cls), "center": center.tolist(), "semi_axes": semis.tolist()}
    raise GenerationError(
        f"could not place a class-{cls} ellipsoid (radius range {spec.radius_range}) "
        f"in {tuple(labels.shape)} after {max_tries} tries"
    )


def generate_phantom(spec: PhantomSpec, return_objects=False):
    """Build one labelled case; deterministic in spec.seed.

    Modality i intensity is the sum over classes of contrast * indicator,
    plus optional Gaussian noise.  Raises GenerationError when the requested
    ellipsoids cannot be placed without overlap.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.zeros(spec.shape, dtype=np.uint8)
    objects = []
    for cls in range(1, spec.n_classes):
        for _ in range(spec.objects_per_class):
            objects.append(_place_one(spec, rng, labels, cls))

    vis = spec.visibility_matrix()
    data = np.zeros(spec.shape + (spec.modalities,), dtype=np.float32)
    for m in range(spec.modalities):
        channel = np.zeros(spec.shape, dtype=np.float64)
        for cls in range(1, spec.n_classes):
            if vis[m, cls]:
                channel += vis[m, cls] * (labels == cls)
        if spec.noise_sigma > 0:
            channel += rng.normal(0.0, spec.noise_sigma, spec.shape)
        data[..., m] = channel

    volume = MultiModalVolume(data, spec.spacing)
    mask = SegmentationMask(labels, spec.n_classes, spec.spacing)
    if return_objects:
        return volume, mask, objects
    return volume, mask


def _check_left(fh, n, what):
    """Refuse, before any allocation, `n` bytes of `what` past the file's end: header sizes are untrusted."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FormatError(f"truncated file: wanted {n} bytes of {what}, got {left}")


def _read_exact(fh, n, what):
    _check_left(fh, n, what)
    return fh.read(n)


def _read_into(fh, array, what):
    """Fill the C-contiguous `array` with the file's next bytes, in place."""
    _check_left(fh, array.nbytes, what)
    fh.readinto(array.reshape(-1).view(np.uint8))


def write_mmv(path, volume: MultiModalVolume):
    d, h, w = volume.shape
    blocks = np.moveaxis(volume.data, 3, 0)  # modality-major on disk
    with open(path, "wb") as fh:
        fh.write(_MMV_MAGIC)
        fh.write(struct.pack("<IIII", volume.modalities, d, h, w))
        fh.write(struct.pack("<fff", *volume.spacing))
        fh.write(np.ascontiguousarray(blocks, dtype="<f4").tobytes())


def read_mmv(path) -> MultiModalVolume:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != _MMV_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MMV_MAGIC!r}")
        m, d, h, w = struct.unpack("<IIII", _read_exact(fh, 16, "extents"))
        if m < 1 or min(d, h, w) < 1:
            raise FormatError(f"bad extents M={m}, D={d}, H={h}, W={w}")
        spacing = struct.unpack("<fff", _read_exact(fh, 12, "spacing"))
        payload = _read_exact(fh, 4 * m * d * h * w, "voxel data")
        if fh.read(1):
            raise FormatError("trailing data after voxel payload")
    blocks = np.frombuffer(payload, dtype="<f4").reshape(m, d, h, w)
    return MultiModalVolume(np.moveaxis(blocks, 0, 3).copy(), spacing)  # frombuffer's view is read-only


def write_mask(path, mask: SegmentationMask):
    if mask.n_classes > 256:
        raise FormatError(f"MSK1 stores byte labels; {mask.n_classes} classes exceed 256")
    d, h, w = mask.labels.shape
    with open(path, "wb") as fh:
        fh.write(_MSK_MAGIC)
        fh.write(struct.pack("<IIII", mask.n_classes, d, h, w))
        fh.write(np.ascontiguousarray(mask.labels, dtype=np.uint8).tobytes())


def read_mask(path) -> SegmentationMask:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != _MSK_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MSK_MAGIC!r}")
        n_classes, d, h, w = struct.unpack("<IIII", _read_exact(fh, 16, "extents"))
        if n_classes < 2 or min(d, h, w) < 1:
            raise FormatError(f"bad header fields N_c={n_classes}, D={d}, H={h}, W={w}")
        payload = _read_exact(fh, d * h * w, "labels")
        if fh.read(1):
            raise FormatError("trailing data after label payload")
    labels = np.frombuffer(payload, dtype=np.uint8).reshape(d, h, w)
    bad = np.nonzero(labels.ravel() >= n_classes)[0]
    if bad.size:
        raise FormatError(
            f"label {labels.ravel()[bad[0]]} at voxel {int(bad[0])} "
            f"outside [0, {n_classes})"
        )
    return SegmentationMask(labels.copy(), int(n_classes))


def normalize(volume: MultiModalVolume) -> MultiModalVolume:
    """Per-modality z-score over the nonzero voxels; zeros stay zero.

    A modality with no nonzero voxels or zero variance maps to all zeros.
    """
    out = volume.data.astype(np.float64)
    for m in range(volume.modalities):
        channel = out[..., m]
        sel = channel != 0
        vals = channel[sel]
        std = vals.std() if vals.size else 0.0
        if std == 0.0:
            channel[:] = 0.0
        else:
            channel[sel] = (vals - vals.mean()) / std
    return MultiModalVolume(out, volume.spacing)


def zero_modality_messages(data, case):
    """Why `case` cannot be trained on: one message per modality of its
    normalized (D, H, W, M) `data` that is all zeros."""
    return [f"{case}: modality {m} normalizes to all zeros (no nonzero voxels, or all of them one "
            "value), which cannot be trained on" for m in range(data.shape[3]) if not data[..., m].any()]


def split(n_cases, fractions=(0.8, 0.1, 0.1), seed=0):
    """Seeded disjoint-and-exhaustive (train, val, test) index lists."""
    if n_cases < 1:
        raise ConfigError(f"need at least one case, got {n_cases}")
    if len(fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ConfigError(f"fractions must be 3 finite nonnegative floats, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    perm = np.random.default_rng(seed).permutation(n_cases)
    n_train = round(fractions[0] * n_cases)
    n_val = min(round(fractions[1] * n_cases), n_cases - n_train)
    parts = (
        sorted(int(i) for i in perm[:n_train]),
        sorted(int(i) for i in perm[n_train : n_train + n_val]),
        sorted(int(i) for i in perm[n_train + n_val :]),
    )
    for name, frac, part in zip(("train", "val", "test"), fractions, parts):
        if frac > 0 and not part:
            warnings.warn(f"{name} split is empty at fraction {frac} with {n_cases} cases")
    return parts


def save_dataset(out_dir, spec: PhantomSpec, n_cases: int):
    """Generate case_<idx>/ directories; case seeds are spec.seed + idx."""
    if n_cases < 1:
        raise ConfigError("need at least one case")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one_case(idx):
        case_spec = replace(spec, seed=spec.seed + idx)
        volume, mask = generate_phantom(case_spec)
        for message in zero_modality_messages(normalize(volume).data, f"case {idx}"):
            warnings.warn(message)
        cdir = out / f"case_{idx:04d}"
        cdir.mkdir(exist_ok=True)
        write_mmv(cdir / "volume.mmv", volume)
        write_mask(cdir / "mask.msk", mask)
        meta = {"index": idx, "seed": case_spec.seed, "spec": case_spec.to_dict()}
        (cdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return cdir

    return [one_case(idx) for idx in range(n_cases)]


def load_dataset(root):
    """Read every case_* directory back as (normalized volume array, mask)
    pairs."""
    if not Path(root).is_dir():
        raise FileNotFoundError(f"dataset directory not found: {root}")
    case_dirs = sorted(Path(root).glob("case_*"))
    if not case_dirs:
        raise FormatError(f"no case_* directories under {root}")
    dataset = []
    for cdir in case_dirs:
        volume = read_mmv(cdir / "volume.mmv")
        mask = read_mask(cdir / "mask.msk")
        if volume.shape != mask.labels.shape:
            raise FormatError(f"{cdir.name}: volume {volume.shape} vs mask {mask.labels.shape}")
        # MSK1 stores no spacing; the mask lies on its volume's voxel grid
        mask = replace(mask, spacing=volume.spacing)
        dataset.append((normalize(volume).data, mask))
    return dataset
