"""Full segmentation model: per-modality encoders, bottleneck token fusion,
and the gated decoder, plus parameter accounting, the attention cost model,
and checkpoint I/O.
"""

import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .data import _check_left, _read_exact, _read_into
from .decoder import Decoder, DecoderConfig
from .encoder import DOWNSAMPLE, Encoder, EncoderConfig
from .errors import ConfigError, ContractError, FormatError, ShapeError, check_fields
from .fusion import (
    AttentionConfig,
    Fusion,
    MultiHeadAttention,
    PositionEncodings,
    SpatialMixerLayer,
    pair_counter,
)
from .nn import Module

_DTYPES = {"float32": np.float32, "float64": np.float64}

CHECKPOINT_MAGIC = b"NFCK"
CHECKPOINT_VERSION = 4


@dataclass
class ModelConfig:
    """Everything needed to rebuild a model."""

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
        for name, kind in (("encoder", EncoderConfig), ("attention", AttentionConfig),
                           ("decoder", DecoderConfig)):
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(self, name, kind(**value))
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be a dict of {kind.__name__} fields, got {value!r}")
        check_fields(self, (("modalities", int, 1), ("n_classes", int, 2), ("input_shape", 3, None),
                            ("summary_tokens", int, 1), ("spatial_layers", int, 0), ("seed", int, 0),
                            ("use_spatial_attention", bool, None), ("use_cross_attention", bool, None),
                            ("use_gated_skips", bool, None)))
        if any(s < 1 or s % DOWNSAMPLE for s in self.input_shape):
            raise ConfigError(
                f"input extents must be positive and divisible by {DOWNSAMPLE}, got {self.input_shape}"
            )
        if any(g % w for g, w in zip(self.bottleneck_grid, self.attention.window)):
            raise ConfigError(
                f"window {self.attention.window} does not tile bottleneck grid {self.bottleneck_grid}"
            )
        if self.attention.dim != self.encoder.stage_channels[-1]:
            raise ConfigError(
                f"attention dim {self.attention.dim} must equal the top encoder width "
                f"{self.encoder.stage_channels[-1]}"
            )
        if not isinstance(self.dtype, str) or self.dtype not in _DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(_DTYPES)}, got {self.dtype!r}")

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
        skip_channels = tuple(reversed(cfg.encoder.stage_channels[:-1]))
        self.decoder = Decoder(
            c,
            cfg.modalities,
            skip_channels,
            cfg.decoder,
            rng,
            dtype=dtype,
            gated=cfg.use_gated_skips,
            n_classes=cfg.n_classes,
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
        fused = self.fusion([p[-1] for p in pyramids])
        levels = [list(f) for f in zip(*pyramids)][-2::-1]
        skips = self.decoder.skips(fused, levels)
        # without a tape, nothing else holds the encoder features or the gate
        # logits, so they are freed before the decoder runs
        del pyramids, levels
        return self.decoder(fused, skips)


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


def benchmark_attention(grid, window, channels=128, heads=8, repeats=3):
    """Time one full-attention layer against the three-branch mixer on the
    same tokens and verify the instrumented pair counts against the closed
    forms.  Returns counts and best-of-`repeats` wall times in ms."""
    cfg = AttentionConfig(heads=heads, dim=channels, window=tuple(window), qkv_dim=channels)
    rng = np.random.default_rng(0)
    mixer = SpatialMixerLayer(cfg, rng)
    pos = PositionEncodings(grid, cfg, rng)
    full = MultiHeadAttention(cfg, rng)
    n = grid[0] * grid[1] * grid[2]
    tokens = Tensor(rng.normal(size=(n, channels)).astype(np.float32))

    def timed(fn):
        # the warm-up call's scored pairs, by difference: the caller's
        # running count is never zeroed
        before = pair_counter.count
        fn()
        counted = pair_counter.count - before
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return counted, best * 1e3

    counted_full, ms_full = timed(lambda: full(tokens, tokens))
    counted_mixer, ms_mixer = timed(lambda: mixer.mix(tokens, pos))
    return {
        "grid": tuple(grid),
        "window": tuple(window),
        "tokens": n,
        "pairs_full": attention_cost(grid, mode="full"),
        "pairs_mixer": attention_cost(grid, window, mode="mixer"),
        "counted_full": counted_full,
        "counted_mixer": counted_mixer,
        "ms_full": ms_full,
        "ms_mixer": ms_mixer,
    }


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(model, path, step=0, opt_state=None):
    """Write the model (and optional optimizer state) to `path` atomically.

    Layout: magic, version u32, and a length-prefixed JSON header whose
    "tensors" lists each parameter's [name, shape] in `named_params` order.
    Then each parameter's little-endian values in that order, in the model
    dtype, and with `opt_state` its flat moments m and v as one little-endian
    float64 payload each, so every value round-trips exactly.
    """
    named = list(model.named_params())
    header = {"config": model.cfg.to_dict(), "step": int(step), "optimizer": opt_state is not None,
              "tensors": [[name, list(p.shape)] for name, p in named]}
    payloads = [np.ascontiguousarray(p.data, dtype=f"<f{p.data.itemsize}") for _, p in named]
    if opt_state is not None:
        header["opt_t"] = int(opt_state["t"])
        size = model.param_count()
        for key in ("m", "v"):
            moment = np.ascontiguousarray(opt_state[key], dtype="<f8")
            if moment.shape != (size,):
                raise ShapeError(f"moment {key} of shape {moment.shape} does not hold {size} values")
            payloads.append(moment)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for payload in payloads:
            fh.write(payload)
    os.replace(tmp, path)


def load_checkpoint(path, moments=True):
    """Rebuild a model from a checkpoint; returns (model, meta) where meta
    carries the step counter and optimizer state if one was saved, its
    moments as flat float64 arrays.  With moments=False the moments are
    skipped, not read, and meta's "opt" is None; a file too short to hold
    them is still a FormatError.

    The model is built from the header's config, and the header's tensor
    list must equal the model's [name, shape] list.  Each payload is then
    read straight into its parameter, so loading holds no second copy of
    the weights."""
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
        try:
            cfg = ModelConfig.from_dict(header["config"])
        except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise FormatError(f"checkpoint config does not build a model: {exc}") from exc
        counters = {key: header.get(key, 0) for key in ("step", "opt_t")}
        if any(isinstance(v, bool) or not isinstance(v, int) for v in counters.values()):
            raise FormatError(f"checkpoint header step and opt_t must be integers, got {counters}")
        model = Model(cfg)
        named = list(model.named_params())
        if header.get("tensors") != [[name, list(p.shape)] for name, p in named]:
            raise FormatError("checkpoint tensor list does not match the model its config builds")
        for name, p in named:
            _read_into(fh, p.data, f"payload of {name!r}")

        opt = None
        if header.get("optimizer"):
            size = model.param_count()
            if moments:
                opt = {"t": counters["opt_t"], "m": np.empty(size), "v": np.empty(size)}
                for key in ("m", "v"):
                    _read_into(fh, opt[key], f"moment {key}")
            else:
                _check_left(fh, 2 * 8 * size, "moments")
                fh.seek(2 * 8 * size, os.SEEK_CUR)
        if fh.read(1):
            raise FormatError("trailing data after the payloads")
    return model, {"step": counters["step"], "opt": opt}
