"""Decoding from the fused bottleneck volume to full-resolution class logits.

At every level above the bottleneck the per-modality encoder skips are gated
by a learned importance map (one sigmoid scalar per voxel per modality) before
the usual upsample / concat / conv walk up to full resolution (the conv
reads the concatenation from both volumes).  The fused volume is projected
to per-modality gate logits once, and the logits are upsampled one level at
a time as the gates climb the decoder.  A decoder built without gates sums
each level's per-modality skips instead.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .encoder import N_STAGES
from .errors import ConfigError, ShapeError, check_fields
from .nn import Conv3d, Linear, Module, PatchLinear


@dataclass
class DecoderConfig:
    level_channels: tuple = (128, 64, 64, 32)  # levels 4, 3, 2, 1

    def __post_init__(self):
        check_fields(self, (("level_channels", N_STAGES - 1, 1),))


class Decoder(Module):
    """Bottom-up decoder over a 5-level pyramid with modality-gated skips.

    `skip_channels` lists the encoder channel widths for levels 4..1 (the
    order the decoder consumes them).  A gated decoder owns `gate_fc`, the
    projection of the fused volume to one gate logit per modality.  The
    head maps the last level to `n_classes` logits.
    """

    def __init__(self, bottleneck_channels, modalities, skip_channels, cfg, rng,
                 dtype=np.float32, gated=True, n_classes=2):
        if len(skip_channels) != N_STAGES - 1:
            raise ConfigError(f"skip_channels needs {N_STAGES - 1} entries, got {len(skip_channels)}")
        if n_classes < 2:
            raise ConfigError(f"need at least 2 output classes, got {n_classes}")
        self.gate_fc = Linear(bottleneck_channels, modalities, rng, dtype) if gated else None
        if self.gate_fc is not None:
            # neutral gates (exactly 0.5) at init: a random projection starts
            # with an arbitrary modality preference that optimization tends to
            # amplify into saturation, silencing one modality for good
            self.gate_fc.w.data[:] = 0.0
        cins = (bottleneck_channels,) + cfg.level_channels[:-1]
        self.convs = [
            Conv3d(cin + skip, cout, rng, dtype)
            for cin, skip, cout in zip(cins, skip_channels, cfg.level_channels)
        ]
        self.head = PatchLinear(cfg.level_channels[-1], n_classes, 1, rng, dtype)

    def skips(self, fused, levels):
        """Skip volumes for levels 4, 3, ... from the fused (d, w, h, C)
        volume; `levels` holds each level's M per-modality feature volumes,
        starting at level 4.  A gated decoder projects the fused volume to M
        gate logits once and upsamples them 2x per level climbed; an ungated
        one sums each level's features."""
        if self.gate_fc is None:
            return [reduce(ad.add, feats) for feats in levels]
        logits = self.gate_fc(fused)
        skips = []
        for feats in levels:
            logits = ad.upsample2x(logits)
            skips.append(self.gated_skip(logits, feats))
        return skips

    def gated_skip(self, logits, feats):
        """One level's skip: the features summed under sigmoid(logits)."""
        return ad.gated_sum(ad.sigmoid(logits), feats)

    def __call__(self, bottleneck, skips):
        """bottleneck (d, w, h, C); skips = gated features for levels 4..1."""
        if len(skips) != N_STAGES - 1:
            raise ShapeError(f"expected {N_STAGES - 1} skip volumes, got {len(skips)}")
        x = bottleneck
        for conv, skip in zip(self.convs, skips):
            x = ad.gelu(conv(ad.upsample2x(x), skip))
        return self.head(x)
