"""Full segmentation model: per-modality encoders, bottleneck token fusion,
and the gated decoder, plus parameter accounting, the attention cost model,
and checkpoint I/O.
"""

import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field, replace
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import _read_exact
from .decoder import Decoder, DecoderConfig, fold_tokens
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, ContractError, FormatError, ShapeError
from .fusion import (
    AttentionConfig,
    Fusion,
    MultiHeadAttention,
    PositionEncodings,
    SpatialMixerLayer,
    pair_counter,
)
from .nn import Module

DOWNSAMPLE = 16  # spatial reduction from input to bottleneck
_DTYPES = {"float32": np.float32, "float64": np.float64}

CHECKPOINT_MAGIC = b"NFCK"
CHECKPOINT_VERSION = 3


@dataclass
class ModelConfig:
    """Everything needed to rebuild a model; `n_classes` overrides the nested
    decoder config so there is a single source of truth for the class count."""

    modalities: int = 4
    n_classes: int = 4
    input_shape: tuple = (128, 128, 128)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    summary_tokens: int = 32
    spatial_layers: int = 2
    use_spatial_attention: bool = True
    use_cross_attention: bool = True
    use_gated_skips: bool = True
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if isinstance(self.encoder, dict):
            self.encoder = EncoderConfig(**self.encoder)
        if isinstance(self.attention, dict):
            self.attention = AttentionConfig(**self.attention)
        if isinstance(self.decoder, dict):
            self.decoder = DecoderConfig(**self.decoder)
        self.input_shape = tuple(int(s) for s in self.input_shape)

        for name in ("modalities", "n_classes", "summary_tokens", "spatial_layers", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("use_spatial_attention", "use_cross_attention", "use_gated_skips"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if self.modalities < 1:
            raise ConfigError(f"need at least one modality, got {self.modalities}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if len(self.input_shape) != 3 or any(s % DOWNSAMPLE for s in self.input_shape):
            raise ConfigError(
                f"input extents must be divisible by {DOWNSAMPLE}, got {self.input_shape}"
            )
        if any(g % w for g, w in zip(self.bottleneck_grid, self.attention.window)):
            raise ConfigError(
                f"window {self.attention.window} does not tile bottleneck grid {self.bottleneck_grid}"
            )
        if self.encoder.in_channels != 1:
            raise ConfigError("each modality volume is single-channel")
        if self.attention.dim != self.encoder.stage_channels[-1]:
            raise ConfigError(
                f"attention dim {self.attention.dim} must equal the top encoder width "
                f"{self.encoder.stage_channels[-1]}"
            )
        if self.spatial_layers < 0:
            raise ConfigError(f"spatial_layers must be >= 0, got {self.spatial_layers}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(_DTYPES)}, got {self.dtype!r}")
        self.decoder = replace(self.decoder, out_classes=self.n_classes)

    @property
    def bottleneck_grid(self):
        return tuple(s // DOWNSAMPLE for s in self.input_shape)

    def to_dict(self):
        # round through JSON so tuples normalize to lists and equality against
        # a reloaded config is straightforward
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


# Study-arm registry: each row sets the encoder block kind and the three
# fusion switches, and leaves every other model field as given.
ABLATIONS = {
    "baseline-conv": dict(block_kind="conv", use_spatial_attention=False,
                          use_cross_attention=False, use_gated_skips=False),
    "baseline-concat": dict(block_kind="global_pool", use_spatial_attention=False,
                            use_cross_attention=False, use_gated_skips=False),
    "add-spatial": dict(block_kind="global_pool", use_spatial_attention=True,
                        use_cross_attention=False, use_gated_skips=False),
    "add-cross": dict(block_kind="global_pool", use_spatial_attention=True,
                      use_cross_attention=True, use_gated_skips=False),
    "full": dict(block_kind="global_pool", use_spatial_attention=True,
                 use_cross_attention=True, use_gated_skips=True),
    "full-local-pool": dict(block_kind="local_pool", use_spatial_attention=True,
                            use_cross_attention=True, use_gated_skips=True),
}


def ablation_model_config(cfg: ModelConfig, name: str) -> ModelConfig:
    """`cfg` with the switches of ablation row `name` applied."""
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}; choose from {sorted(ABLATIONS)}")
    switches = dict(ABLATIONS[name])
    encoder = replace(cfg.encoder, block_kind=switches.pop("block_kind"))
    return replace(cfg, encoder=encoder, **switches)


class Model(Module):
    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.seed)
        dtype = _DTYPES[cfg.dtype]
        c = cfg.encoder.stage_channels[-1]
        self.encoders = [Encoder(cfg.encoder, rng, dtype) for _ in range(cfg.modalities)]
        self.fusion = Fusion(
            cfg.modalities,
            cfg.bottleneck_grid,
            cfg.attention,
            rng,
            summary_tokens=cfg.summary_tokens,
            spatial_layers=cfg.spatial_layers if cfg.use_spatial_attention else 0,
            use_cross=cfg.use_cross_attention,
            dtype=dtype,
        )
        skip_channels = tuple(reversed(cfg.encoder.stage_channels[:4]))
        self.decoder = Decoder(
            c,
            cfg.modalities,
            skip_channels,
            cfg.decoder,
            rng,
            dtype=dtype,
            gated=cfg.use_gated_skips,
        )
        self.cfg = cfg

    def __call__(self, volume):
        """(D, H, W, M) multi-modal volume -> (D, H, W, n_classes) logits."""
        data = volume.data if isinstance(volume, Tensor) else np.asarray(volume)
        if data.ndim != 4 or data.shape[3] != self.cfg.modalities:
            raise ContractError(
                f"expected {self.cfg.modalities} modality channels, got shape {data.shape}"
            )
        if data.shape[:3] != self.cfg.input_shape:
            raise ShapeError(
                f"input extents {data.shape[:3]} do not match configured {self.cfg.input_shape}"
            )
        dtype = _DTYPES[self.cfg.dtype]
        pyramids = [
            enc(Tensor(data[..., i : i + 1].astype(dtype)))
            for i, enc in enumerate(self.encoders)
        ]
        fused = self.fusion([p.top() for p in pyramids])
        skips = []
        for level in (4, 3, 2, 1):
            feats = [p.levels[level - 1] for p in pyramids]
            if self.cfg.use_gated_skips:
                skips.append(self.decoder.gated_skip(fused, level, feats))
            else:
                skips.append(reduce(ad.add, feats))
        return self.decoder(fold_tokens(fused), skips)

    def param_breakdown(self):
        parts = {
            "encoders": sum(e.param_count() for e in self.encoders),
            "fusion": self.fusion.param_count(),
            "decoder": self.decoder.param_count(),
        }
        parts["total"] = sum(parts.values())
        return parts


# ---------------------------------------------------------------------------
# attention cost model
# ---------------------------------------------------------------------------


def attention_cost_terms(grid, window):
    """Query-key pairs scored by each branch of the spatial mixer, per layer
    (heads share the pair count)."""
    d, w, h = grid
    wz, wy, wx = window
    if d % wz or w % wy or h % wx:
        raise ConfigError(f"window {tuple(window)} does not tile grid {tuple(grid)}")
    n = d * w * h
    return {"axial": n * d, "planar": n * (w * h), "window": n * (wz * wy * wx)}


def attention_cost(grid, window=None, mode="mixer"):
    """Closed-form count of scored query-key pairs for one attention layer
    over `grid`: every-token-to-every-token ("full") or the three restricted
    branches summed ("mixer")."""
    d, w, h = grid
    n = d * w * h
    if mode == "full":
        return n * n
    if mode == "mixer":
        if window is None:
            raise ConfigError("mixer mode needs a window")
        return sum(attention_cost_terms(grid, window).values())
    raise ConfigError(f"unknown attention cost mode {mode!r}")


def benchmark_attention(grid, window, channels=128, heads=8, repeats=3, seed=0):
    """Time one full-attention layer against the three-branch mixer on the
    same tokens and verify the instrumented pair counts against the closed
    forms.  Returns counts and best-of-`repeats` wall times in ms."""
    cfg = AttentionConfig(heads=heads, dim=channels, window=tuple(window), qkv_dim=channels)
    rng = np.random.default_rng(seed)
    mixer = SpatialMixerLayer(cfg, rng)
    pos = PositionEncodings(grid, cfg, rng)
    full = MultiHeadAttention(cfg, rng)
    n = grid[0] * grid[1] * grid[2]
    tokens = Tensor(rng.normal(size=(n, channels)).astype(np.float32))

    def timed(fn):
        fn()  # warm up
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    pair_counter.reset()
    full(tokens, tokens)
    counted_full = pair_counter.count
    pair_counter.reset()
    mixer.mix(tokens, grid, pos)
    counted_mixer = pair_counter.count

    return {
        "grid": tuple(grid),
        "window": tuple(window),
        "tokens": n,
        "pairs_full": attention_cost(grid, mode="full"),
        "pairs_mixer": attention_cost(grid, window, mode="mixer"),
        "counted_full": counted_full,
        "counted_mixer": counted_mixer,
        "ms_full": timed(lambda: full(tokens, tokens)),
        "ms_mixer": timed(lambda: mixer.mix(tokens, grid, pos)),
    }


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def _collect_tensors(model, opt_state):
    tensors = list(model.named_params())
    if opt_state is not None:
        for name, _ in list(tensors):
            tensors.append((f"opt.m/{name}", Tensor(opt_state["m"][name])))
            tensors.append((f"opt.v/{name}", Tensor(opt_state["v"][name])))
    seen = set()
    for name, _ in tensors:
        if name in seen:
            raise FormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
    return tensors


def save_checkpoint(model, path, step=0, opt_state=None):
    """Write the model (and optional optimizer state) to `path` atomically.

    Layout: magic, version u32, length-prefixed JSON header, tensor count
    u32, then per tensor: name (u16 length + UTF-8), item size u8 (4 for
    float32, 8 for float64), rank u8, extents u32 each, and the little-endian
    payload in the tensor's own dtype, so every value round-trips exactly.
    """
    header = {"config": model.cfg.to_dict(), "step": int(step), "optimizer": opt_state is not None}
    if opt_state is not None:
        header["opt_t"] = int(opt_state["t"])
    tensors = _collect_tensors(model, opt_state)

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            payload = np.ascontiguousarray(tensor.data, dtype=f"<f{tensor.dtype.itemsize}")
            fh.write(struct.pack("BB", payload.itemsize, payload.ndim))
            for extent in payload.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(payload.tobytes())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, meta) where meta
    carries the step counter and optimizer state if one was saved."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        try:
            header = json.loads(_read_exact(fh, blob_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable checkpoint header: {exc}") from exc

        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        table = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            if name in table:
                raise FormatError(f"duplicate tensor {name!r} in checkpoint")
            itemsize, rank = struct.unpack("BB", _read_exact(fh, 2, "item size and rank"))
            if itemsize not in (4, 8):
                raise FormatError(f"tensor {name!r} has item size {itemsize}, expected 4 or 8")
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "extent"))[0] for _ in range(rank)
            )
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(fh, itemsize * size, f"payload of {name!r}")
            table[name] = np.frombuffer(raw, dtype=f"<f{itemsize}").reshape(shape)
        if fh.read(1):
            raise FormatError("trailing data after tensor table")

    try:
        cfg = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise FormatError(f"checkpoint config does not build a model: {exc}") from exc
    model = Model(cfg)
    consumed = set()
    for name, param in model.named_params():
        if name not in table:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        stored = table[name]
        if stored.shape != param.shape:
            raise FormatError(
                f"tensor {name!r} has shape {stored.shape}, model expects {param.shape}"
            )
        param.data[...] = stored
        consumed.add(name)

    meta = {"step": int(header.get("step", 0)), "opt": None}
    if header.get("optimizer"):
        opt = {"t": int(header.get("opt_t", 0)), "m": {}, "v": {}}
        for name in list(table):
            if name.startswith("opt.m/"):
                opt["m"][name[len("opt.m/") :]] = table[name].copy()
                consumed.add(name)
            elif name.startswith("opt.v/"):
                opt["v"][name[len("opt.v/") :]] = table[name].copy()
                consumed.add(name)
        meta["opt"] = opt
    stray = set(table) - consumed
    if stray:
        raise FormatError(f"checkpoint holds unexpected tensors: {sorted(stray)[:3]}")
    return model, meta
