"""Synthetic complementary-modality phantoms and tiny binary file formats.

Phantoms are non-overlapping axis-aligned ellipsoids, one intensity level per
class, where each class is visible in only a subset of the modalities — a
single modality is never enough to segment everything.  Volumes and masks
travel in two purpose-built little-endian formats (MMV1 / MSK1) chosen over
medical containers so round trips stay bit-exact and dependency-free.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, FormatError, GenerationError
from .metrics import SegmentationMask, check_spacing

_MMV_MAGIC = b"MMV1"
_MSK_MAGIC = b"MSK1"


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
        self.spacing = check_spacing(self.spacing)

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
        if len(self.shape) != 3 or any(s < 16 or s % 16 for s in self.shape):
            raise ConfigError(
                f"phantom extents must be positive multiples of 16, got {self.shape}"
            )
        if self.modalities < 1:
            raise ConfigError("need at least 1 modality")
        if self.n_classes < 2:
            raise ConfigError("need background plus at least 1 foreground class")
        lo, hi = self.radius_range
        if not 0 < lo <= hi:
            raise ConfigError(f"bad radius range {self.radius_range}")
        if self.objects_per_class < 1:
            raise ConfigError("objects_per_class must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")
        self.shape = tuple(int(s) for s in self.shape)
        self.radius_range = (float(lo), float(hi))
        self._check_visibility(self.visibility_matrix())

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

    def _check_visibility(self, vis):
        if vis.shape != (self.modalities, self.n_classes):
            raise ConfigError(
                f"visibility must be (modalities, n_classes) = "
                f"({self.modalities}, {self.n_classes}), got {vis.shape}"
            )
        if np.any(vis[:, 0] != 0):
            raise ConfigError("background (class 0) must have zero contrast everywhere")
        fg = vis[:, 1:]
        if np.any(~fg.any(axis=0)):
            raise ConfigError("every foreground class must be visible in some modality")
        if not np.any(fg == 0):
            raise ConfigError(
                "at least one class must be invisible in at least one modality "
                "(otherwise one modality suffices and fusion is untested)"
            )

    def to_dict(self):
        return {
            "shape": list(self.shape),
            "modalities": self.modalities,
            "n_classes": self.n_classes,
            "objects_per_class": self.objects_per_class,
            "radius_range": list(self.radius_range),
            "noise_sigma": self.noise_sigma,
            "visibility": self.visibility_matrix().tolist(),
            "spacing": list(self.spacing),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        for key in ("shape", "radius_range", "spacing"):
            if key in d:
                d[key] = tuple(d[key])
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


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file: wanted {n} bytes of {what}, got {len(buf)}")
    return buf


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
    return MultiModalVolume(np.moveaxis(blocks, 0, 3), spacing)


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
    out = volume.data.astype(np.float64).copy()
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


def split(n_cases, fractions=(0.8, 0.1, 0.1), seed=0):
    """Seeded disjoint-and-exhaustive (train, val, test) index lists."""
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ConfigError(f"fractions must be 3 nonnegative floats, got {fractions}")
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
        cdir = out / f"case_{idx:04d}"
        cdir.mkdir(exist_ok=True)
        write_mmv(cdir / "volume.mmv", volume)
        write_mask(cdir / "mask.msk", mask)
        meta = {"index": idx, "seed": case_spec.seed, "spec": case_spec.to_dict()}
        (cdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return cdir

    return [one_case(idx) for idx in range(n_cases)]


def load_dataset(root, normalized=True):
    """Read every case_* directory back as (volume array, mask) pairs."""
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
        if normalized:
            volume = normalize(volume)
        dataset.append((volume.data.astype(np.float32), mask))
    return dataset
