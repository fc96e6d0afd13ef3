"""Bottleneck token fusion across modalities.

The fused bottleneck runs in two stages: spatial self-attention layers that
mix tokens along the depth axis, within each in-plane slice, and inside
non-overlapping 3D windows (the three branch outputs are summed); then one
cross-attention layer whose queries are the mixed spatial tokens and whose
keys/values are a short learned token summary of every modality.

All attention kernels report how many query-key pairs they scored through
`pair_counter`, a per-thread count, so closed-form cost claims can be
checked against the code that actually ran.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, check_fields
from .nn import LayerNorm, Linear, Mlp, Module


class PairCounter(threading.local):
    """Counts query-key pairs scored by attention kernels, per thread (heads
    not included, so the tally is comparable across head counts)."""

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += n

    def reset(self):
        self.count = 0


pair_counter = PairCounter()


@dataclass
class AttentionConfig:
    heads: int = 8
    dim: int = 128
    window: tuple = (2, 2, 2)
    qkv_dim: int = 128
    ffn_ratio: int = 4

    def __post_init__(self):
        check_fields(self, (("heads", int, 1), ("dim", int, 1), ("window", 3, 1), ("qkv_dim", int, 1),
                            ("ffn_ratio", int, 1)))
        if self.dim % self.heads or self.qkv_dim % self.heads:
            raise ConfigError(
                f"dim {self.dim} and qkv_dim {self.qkv_dim} must be divisible by heads {self.heads}"
            )


def _relative_offset_index(window):
    """(T, T) map from ordered position pairs in a window to their
    relative-offset bucket: the offset's row-major index in the
    (2wz-1, 2wy-1, 2wx-1) offset box."""
    coords = np.indices(window).reshape(3, -1)
    diff = coords[:, :, None] - coords[:, None, :] + np.reshape(window, (3, 1, 1)) - 1
    return np.ravel_multi_index(tuple(diff), tuple(2 * w - 1 for w in window))


class PositionEncodings(Module):
    """Learned absolute tables for a fixed bottleneck grid plus the per-head
    relative bias shared by all window attentions on that grid."""

    def __init__(self, grid, cfg: AttentionConfig, rng, dtype=np.float32, branch_tables=True):
        d, w, h = grid
        c = cfg.dim
        self.embed_abs = Tensor(
            (0.02 * rng.standard_normal((d * w * h, c))).astype(dtype), requires_grad=True
        )
        self.axial_abs = self.planar_abs = self.window_rel_bias = None
        if branch_tables:
            self.axial_abs = Tensor(
                (0.02 * rng.standard_normal((d, c))).astype(dtype), requires_grad=True
            )
            self.planar_abs = Tensor(
                (0.02 * rng.standard_normal((w * h, c))).astype(dtype), requires_grad=True
            )
            buckets = (2 * cfg.window[0] - 1) * (2 * cfg.window[1] - 1) * (2 * cfg.window[2] - 1)
            self.window_rel_bias = Tensor(
                np.zeros((buckets, cfg.heads), dtype=dtype), requires_grad=True
            )
        self._offset_index = _relative_offset_index(cfg.window)
        self.grid = tuple(grid)

    def window_bias(self):
        """Per-head logit bias (heads, T, T) for one window."""
        bias = ad.take(self.window_rel_bias, self._offset_index, axis=0)  # (T, T, heads)
        return ad.moveaxis(bias, 2, 0)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with bias-free projections.

    Accepts (..., T, C) queries and (..., S, C) keys/values with matching
    leading extents; an optional (heads, T, S) logit bias is broadcast over
    the leading extents.
    """

    def __init__(self, cfg: AttentionConfig, rng, dtype=np.float32):
        self.q = Linear(cfg.dim, cfg.qkv_dim, rng, dtype, bias=False)
        self.k = Linear(cfg.dim, cfg.qkv_dim, rng, dtype, bias=False)
        self.v = Linear(cfg.dim, cfg.qkv_dim, rng, dtype, bias=False)
        self.out = Linear(cfg.qkv_dim, cfg.dim, rng, dtype, bias=False)
        self.heads = cfg.heads
        self.dh = cfg.qkv_dim // cfg.heads

    def _split_heads(self, z):
        return ad.reshape(z, z.shape[:-1] + (self.heads, self.dh))  # (..., n, heads, dh)

    def __call__(self, q_in, kv_in, bias=None):
        if q_in.shape[:-2] != kv_in.shape[:-2]:
            raise ShapeError(
                f"query lead {q_in.shape[:-2]} does not match key/value lead {kv_in.shape[:-2]}"
            )
        t, s = q_in.shape[-2], kv_in.shape[-2]
        groups = math.prod(q_in.shape[:-2])

        q = ad.moveaxis(self._split_heads(self.q(q_in)), -2, -3)  # (..., heads, t, dh)
        k = ad.moveaxis(self._split_heads(self.k(kv_in)), -3, -1)  # (..., heads, dh, s)
        v = ad.moveaxis(self._split_heads(self.v(kv_in)), -2, -3)  # (..., heads, s, dh)
        scores = ad.matmul(q, k) * (1.0 / np.sqrt(self.dh))
        pair_counter.add(groups * t * s)
        if bias is not None:
            scores = ad.add(scores, bias)
        ctx = ad.matmul(ad.softmax_last(scores), v)  # (..., heads, t, dh)
        ctx = ad.moveaxis(ctx, -3, -2)
        ctx = ad.reshape(ctx, ctx.shape[:-2] + (self.heads * self.dh,))
        return self.out(ctx)


def _branch(attn, tokens, pos, window, table=None, bias=None):
    """Self-attention of (N, C) tokens, laid out row-major on `pos.grid`,
    within each tile of extents `window`.  A (T, C) `table` is added per
    position in a tile and a (heads, T, T) `bias` to every tile's logits."""
    if any(g % w for g, w in zip(pos.grid, window)):
        raise ShapeError(f"window {window} does not tile grid {pos.grid}")
    (nz, ny, nx), (wz, wy, wx) = (g // w for g, w in zip(pos.grid, window)), window
    # (tiles, T) token indices, tiles and positions within a tile row-major
    order = np.arange(tokens.shape[0]).reshape(nz, wz, ny, wy, nx, wx).transpose(0, 2, 4, 1, 3, 5)
    order = order.reshape(nz * ny * nx, wz * wy * wx)
    x = ad.take(tokens, order, axis=0)
    if table is not None:
        x = ad.add(x, table)
    out = ad.reshape(attn(x, x, bias=bias), tokens.shape)
    return ad.take(out, np.argsort(order, axis=None), axis=0)


class SpatialMixerLayer(Module):
    """Pre-norm transformer layer whose mixer is the sum of depth-axis,
    in-slice, and windowed self-attention."""

    def __init__(self, cfg: AttentionConfig, rng, dtype=np.float32):
        c = cfg.dim
        self.norm1 = LayerNorm(c, dtype)
        self.axial = MultiHeadAttention(cfg, rng, dtype)
        self.planar = MultiHeadAttention(cfg, rng, dtype)
        self.window = MultiHeadAttention(cfg, rng, dtype)
        self.norm2 = LayerNorm(c, dtype)
        self.ffn = Mlp(c, cfg.ffn_ratio * c, rng, dtype)
        self.cfg = cfg

    def mix(self, tokens, pos):
        """Sum of the three branch outputs for pre-normalized (N, C) tokens
        laid out row-major on `pos.grid`."""
        return ad.add(
            ad.add(self.axial_branch(tokens, pos), self.planar_branch(tokens, pos)),
            self.window_branch(tokens, pos),
        )

    def axial_branch(self, tokens, pos):
        return _branch(self.axial, tokens, pos, (pos.grid[0], 1, 1), pos.axial_abs)

    def planar_branch(self, tokens, pos):
        return _branch(self.planar, tokens, pos, (1,) + pos.grid[1:], pos.planar_abs)

    def window_branch(self, tokens, pos):
        return _branch(self.window, tokens, pos, self.cfg.window, bias=pos.window_bias())

    def __call__(self, tokens, pos: PositionEncodings):
        d, w, h = pos.grid
        if tokens.shape[0] != d * w * h:
            raise ShapeError(f"grid {pos.grid} does not cover {tokens.shape[0]} tokens")
        z = ad.add(tokens, self.mix(self.norm1(tokens), pos))
        return self.ffn.residual(z, self.norm2)


class TokenSummarizer(Module):
    """Condense a (d, w, h, C) feature volume into P tokens, each a softmax-
    weighted spatial average of the features."""

    def __init__(self, c, p, rng, dtype=np.float32):
        if p < 1:
            raise ConfigError(f"summary token count must be positive, got {p}")
        self.score = Mlp(c, c, rng, dtype, cout=p)

    def __call__(self, feat):
        tokens = ad.reshape(feat, (-1, feat.shape[-1]))  # (N, C)
        weights = ad.softmax_last(ad.moveaxis(self.score(tokens), 0, 1))  # (P, N)
        return ad.matmul(weights, tokens)  # (P, C)


class CrossModalityLayer(Module):
    """Pre-norm cross-attention: queries from the spatial token stream,
    keys/values from the concatenated modality summaries, then an FFN."""

    def __init__(self, cfg: AttentionConfig, rng, dtype=np.float32):
        c = cfg.dim
        self.norm_q = LayerNorm(c, dtype)
        self.norm_kv = LayerNorm(c, dtype)
        self.attn = MultiHeadAttention(cfg, rng, dtype)
        self.norm2 = LayerNorm(c, dtype)
        self.ffn = Mlp(c, cfg.ffn_ratio * c, rng, dtype)

    def __call__(self, tokens, summary):
        z = ad.add(tokens, self.attn(self.norm_q(tokens), self.norm_kv(summary)))
        return self.ffn.residual(z, self.norm2)


class Fusion(Module):
    """Embed per-modality bottleneck features into one token stream, mix it
    spatially, and cross-attend it against learned modality summaries."""

    def __init__(
        self,
        modalities,
        grid,
        cfg: AttentionConfig,
        rng,
        summary_tokens=32,
        spatial_layers=2,
        use_cross=True,
        dtype=np.float32,
    ):
        if modalities < 1:
            raise ConfigError(f"need at least one modality, got {modalities}")
        grid = tuple(int(g) for g in grid)
        if any(g % w for g, w in zip(grid, cfg.window)):
            raise ShapeError(f"window {cfg.window} does not tile bottleneck grid {grid}")

        c = cfg.dim
        self.embed = Linear(modalities * c, c, rng, dtype)
        self.pos = PositionEncodings(grid, cfg, rng, dtype, branch_tables=spatial_layers > 0)
        self.layers = [SpatialMixerLayer(cfg, rng, dtype) for _ in range(spatial_layers)]
        # disabled stages own no parameters at all
        self.summarize = TokenSummarizer(c, summary_tokens, rng, dtype) if use_cross else None
        self.cross = CrossModalityLayer(cfg, rng, dtype) if use_cross else None
        self.modalities = modalities
        self.grid = grid
        self.cfg = cfg

    def _check_features(self, feats):
        if len(feats) != self.modalities:
            raise ShapeError(f"expected {self.modalities} modality features, got {len(feats)}")
        want = self.grid + (self.cfg.dim,)
        for i, f in enumerate(feats):
            if f.shape != want:
                raise ShapeError(f"modality {i} feature is {f.shape}, expected {want}")

    def embed_tokens(self, feats):
        """Channel-concat all modalities, project to C, flatten row-major to
        (N, C) tokens, add the shared absolute position table."""
        self._check_features(feats)
        x = feats[0] if len(feats) == 1 else ad.concat(feats, axis=3)
        x = ad.reshape(self.embed(x), (-1, self.cfg.dim))
        return ad.add(x, self.pos.embed_abs)

    def __call__(self, feats):
        """Per-modality (d, w, h, C) features -> the fused (d, w, h, C) volume."""
        z = self.embed_tokens(feats)
        for layer in self.layers:
            z = layer(z, self.pos)
        if self.cross is not None:
            # modality-major bank of (M*P, C) summary tokens
            summary = ad.concat([self.summarize(f) for f in feats], axis=0)
            z = self.cross(z, summary)
        return ad.reshape(z, self.grid + (self.cfg.dim,))
