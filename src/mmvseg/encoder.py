"""Per-modality volumetric encoders producing a 5-level feature pyramid.

Each stage is one feature-embedding convolution followed by a run of token
mixing blocks.  The default block mixes via a globally pooled, linearly
projected channel summary added back residually; a local-average-pool block
and a plain convolutional block are available as ablation backbones.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError, check_fields
from .nn import Conv3d, LayerNorm, Linear, Mlp, Module, PatchLinear

N_STAGES = 5
DOWNSAMPLE = 2 ** (N_STAGES - 1)  # stage 1 keeps the input extents, each later stage halves them


@dataclass
class EncoderConfig:
    stage_channels: tuple = (32, 64, 128, 128, 128)
    blocks_per_stage: int = 2
    mlp_ratio: int = 4
    block_kind: str = "global_pool"  # global_pool | local_pool | conv

    def __post_init__(self):
        check_fields(self, (("stage_channels", N_STAGES, 1), ("blocks_per_stage", int, 0),
                            ("mlp_ratio", int, 1)))
        if not isinstance(self.block_kind, str) or self.block_kind not in _BLOCKS:
            raise ConfigError(f"unknown encoder block kind {self.block_kind!r}")


class GlobalPoolBlock(Module):
    """Residual token mixer built on a global channel summary.

    y = x + broadcast(project(global_mean(norm(x))));  z = y + mlp(norm(y)).
    The pooled norm is one `global_pool` node and y is the `shift` of one
    `feed_forward` node, so neither norm(x) nor y is kept for the backward.
    """

    def __init__(self, c, mlp_ratio, rng, dtype=np.float32):
        self.norm1 = LayerNorm(c, dtype)
        self.pool_proj = Linear(c, c, rng, dtype)
        self.norm2 = LayerNorm(c, dtype)
        self.mlp = Mlp(c, mlp_ratio * c, rng, dtype)

    def __call__(self, x):
        pooled = ad.global_pool(x, self.norm1.gamma, self.norm1.beta)  # (C,)
        return self.mlp.residual(x, self.norm2, shift=self.pool_proj(pooled))


class LocalPoolBlock(Module):
    """Residual token mixer using a 3x3x3 box average minus identity."""

    def __init__(self, c, mlp_ratio, rng, dtype=np.float32):
        self.norm1 = LayerNorm(c, dtype)
        self.norm2 = LayerNorm(c, dtype)
        self.mlp = Mlp(c, mlp_ratio * c, rng, dtype)

    def __call__(self, x):
        h = self.norm1(x)
        y = ad.add(x, ad.sub(ad.avg_pool3d(h), h))
        return self.mlp.residual(y, self.norm2)


class ConvBlock(Module):
    """Plain 3x3x3 convolution + GELU, the CNN ablation backbone."""

    def __init__(self, c, mlp_ratio, rng, dtype=np.float32):
        del mlp_ratio
        self.conv = Conv3d(c, c, rng, dtype)

    def __call__(self, x):
        return ad.gelu(self.conv(x))


_BLOCKS = {"global_pool": GlobalPoolBlock, "local_pool": LocalPoolBlock, "conv": ConvBlock}


class EncoderStage(Module):
    def __init__(self, stage, cin, cout, cfg, rng, dtype):
        self.embed = PatchLinear(cin, cout, 1 if stage == 1 else 2, rng, dtype)
        block_cls = _BLOCKS[cfg.block_kind]
        self.blocks = [block_cls(cout, cfg.mlp_ratio, rng, dtype) for _ in range(cfg.blocks_per_stage)]

    def __call__(self, x):
        x = self.embed(x)
        for block in self.blocks:
            x = block(x)
        return x


class Encoder(Module):
    """One single-channel modality volume (D, H, W, 1) -> 5-level pyramid, the
    list of features at resolutions 1, 1/2, 1/4, 1/8, 1/16."""

    def __init__(self, cfg: EncoderConfig, rng, dtype=np.float32):
        chans = (1,) + cfg.stage_channels
        self.stages = [
            EncoderStage(i + 1, chans[i], chans[i + 1], cfg, rng, dtype)
            for i in range(N_STAGES)
        ]

    def __call__(self, volume):
        if volume.ndim != 4 or volume.shape[3] != 1:
            raise ShapeError(f"encoder expects (D, H, W, 1), got {volume.shape}")
        if any(s % DOWNSAMPLE for s in volume.shape[:3]):
            raise ShapeError(f"spatial extents must be divisible by {DOWNSAMPLE}, got {volume.shape[:3]}")
        levels = []
        x = volume
        for stage in self.stages:
            x = stage(x)
            levels.append(x)
        return levels
