import numpy as np
import pytest

from mmvseg import Tensor, grad_check
from mmvseg import autodiff as ad
from mmvseg.errors import ConfigError, ShapeError
from mmvseg.fusion import (
    AttentionConfig,
    CrossModalityLayer,
    Fusion,
    MultiHeadAttention,
    PositionEncodings,
    SpatialMixerLayer,
    TokenSummarizer,
    pair_counter,
)
from test_tensor import assert_same_numbers, value_and_grads


def make_cfg(c=8, heads=2, window=(2, 2, 2), ratio=1):
    return AttentionConfig(heads=heads, dim=c, window=window, qkv_dim=c, ffn_ratio=ratio)


def branch_env(grid, window, c=8, heads=2, seed=0):
    """A float64 mixer layer + position tables with a randomized bias table."""
    cfg = make_cfg(c, heads, window)
    rng = np.random.default_rng(seed)
    layer = SpatialMixerLayer(cfg, rng, dtype=np.float64)
    pos = PositionEncodings(grid, cfg, rng, dtype=np.float64)
    pos.window_rel_bias.data[:] = 0.1 * rng.standard_normal(pos.window_rel_bias.shape)
    tokens = rng.standard_normal((grid[0] * grid[1] * grid[2], c))
    return layer, pos, tokens


def token_coords(grid):
    d, w, h = grid
    ks = np.arange(d * w * h)
    z, rem = ks // (w * h), ks % (w * h)
    return z, rem // h, rem % h


def full_attention(attn, x_q, x_kv, mask=None, bias=None):
    """Brute-force multi-head attention oracle on raw (T, C)/(S, C) inputs."""
    heads, dh = attn.heads, attn.dh
    q, k, v = x_q @ attn.q.w.data, x_kv @ attn.k.w.data, x_kv @ attn.v.w.data
    parts = []
    for head in range(heads):
        sl = slice(head * dh, (head + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        if bias is not None:
            logits = logits + bias[head]
        if mask is not None:
            logits = np.where(mask, logits, -np.inf)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        parts.append(weights @ v[:, sl])
    return np.concatenate(parts, axis=1) @ attn.out.w.data


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            AttentionConfig(heads=3, dim=8, qkv_dim=8)

    @pytest.mark.parametrize("field", ["dim", "qkv_dim", "ffn_ratio"])
    def test_rejects_nonpositive_width(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            AttentionConfig(**{"heads": 2, "dim": 8, "qkv_dim": 8, field: 0})

    @pytest.mark.parametrize("field,value,message", [
        ("heads", True, "heads must be an integer"),
        ("dim", 8.0, "dim must be an integer"),
        ("ffn_ratio", 1.5, "ffn_ratio must be an integer"),
        ("window", (1.5, 1, 1), "window entry must be an integer"),
        ("window", (1, 1, True), "window entry must be an integer"),
    ])
    def test_rejects_mistyped_fields(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            AttentionConfig(**{"heads": 2, "dim": 8, "qkv_dim": 8, field: value})

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            AttentionConfig(heads=2, dim=8, qkv_dim=8, window=(2, 0, 2))

    def test_rel_bias_table_size(self):
        cfg = make_cfg(window=(2, 3, 2))
        pos = PositionEncodings((2, 3, 2), cfg, np.random.default_rng(0))
        assert pos.window_rel_bias.shape == (3 * 5 * 3, cfg.heads)


class TestAxialBranch:
    def test_depth1_is_projection_of_token_plus_encoding(self):
        layer, pos, tokens = branch_env((1, 2, 3), (1, 1, 1))
        out = layer.axial_branch(Tensor(tokens), pos).data
        expected = (tokens + pos.axial_abs.data[0]) @ layer.axial.v.w.data @ layer.axial.out.w.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_identical_tokens_in_column_get_identical_outputs(self):
        layer, pos, tokens = branch_env((3, 2, 2), (1, 1, 1), seed=3)
        pos.axial_abs.data[:] = 0.0
        tokens[8] = tokens[0]  # same column (y=0, x=0), depths 0 and 2
        out = layer.axial_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out[8] - out[0])) < 1e-14

    @pytest.mark.parametrize("grid", [(2, 3, 2), (3, 3, 3)])
    def test_matches_masked_full_attention(self, grid):
        layer, pos, tokens = branch_env(grid, (1, 1, 1), seed=5)
        z, y, x = token_coords(grid)
        mask = (y[:, None] == y[None, :]) & (x[:, None] == x[None, :])
        expected = full_attention(layer.axial, *(tokens + pos.axial_abs.data[z],) * 2, mask=mask)
        out = layer.axial_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out - expected)) < 1e-10


class TestPlanarBranch:
    def test_single_token_slices(self):
        layer, pos, tokens = branch_env((3, 1, 1), (1, 1, 1), seed=7)
        out = layer.planar_branch(Tensor(tokens), pos).data
        expected = (tokens + pos.planar_abs.data[0]) @ layer.planar.v.w.data @ layer.planar.out.w.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_uniform_slice_gives_uniform_outputs(self):
        layer, pos, tokens = branch_env((2, 2, 2), (1, 1, 1), seed=8)
        pos.planar_abs.data[:] = 0.0
        tokens[0:4] = tokens[0]  # depth slice 0 all equal
        out = layer.planar_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out[0:4] - out[0])) < 1e-14

    @pytest.mark.parametrize("grid", [(2, 3, 2), (3, 3, 3)])
    def test_matches_masked_full_attention(self, grid):
        layer, pos, tokens = branch_env(grid, (1, 1, 1), seed=9)
        z, y, x = token_coords(grid)
        mask = z[:, None] == z[None, :]
        rem = y * grid[2] + x
        expected = full_attention(layer.planar, *(tokens + pos.planar_abs.data[rem],) * 2, mask=mask)
        out = layer.planar_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out - expected)) < 1e-10


class TestWindowBranch:
    @staticmethod
    def _bias_matrix(pos, grid, window, heads):
        z, y, x = token_coords(grid)
        wz, wy, wx = window
        bucket = (
            (z[:, None] - z[None, :] + wz - 1) * (2 * wy - 1) * (2 * wx - 1)
            + (y[:, None] - y[None, :] + wy - 1) * (2 * wx - 1)
            + (x[:, None] - x[None, :] + wx - 1)
        )
        same = (
            (z[:, None] // wz == z[None, :] // wz)
            & (y[:, None] // wy == y[None, :] // wy)
            & (x[:, None] // wx == x[None, :] // wx)
        )
        table = pos.window_rel_bias.data
        bias = np.stack([table[np.where(same, bucket, 0), h] for h in range(heads)])
        return same, bias

    def test_full_grid_window_equals_full_attention_with_bias(self):
        grid = window = (2, 2, 2)
        layer, pos, tokens = branch_env(grid, window, seed=11)
        _, bias = self._bias_matrix(pos, grid, window, layer.window.heads)
        expected = full_attention(layer.window, tokens, tokens, bias=bias)
        out = layer.window_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_tiled_windows_match_masked_full_attention(self):
        grid, window = (2, 2, 3), (2, 2, 1)
        layer, pos, tokens = branch_env(grid, window, seed=12)
        mask, bias = self._bias_matrix(pos, grid, window, layer.window.heads)
        expected = full_attention(layer.window, tokens, tokens, mask=mask, bias=bias)
        out = layer.window_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_window_111_is_value_passthrough(self):
        layer, pos, tokens = branch_env((2, 2, 2), (1, 1, 1), seed=13)
        out = layer.window_branch(Tensor(tokens), pos).data
        expected = tokens @ layer.window.v.w.data @ layer.window.out.w.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_zero_bias_table_equals_biasfree_attention(self):
        grid = window = (2, 2, 2)
        layer, pos, tokens = branch_env(grid, window, seed=14)
        pos.window_rel_bias.data[:] = 0.0
        expected = full_attention(layer.window, tokens, tokens)
        out = layer.window_branch(Tensor(tokens), pos).data
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_indivisible_grid_rejected(self):
        layer, pos, tokens = branch_env((3, 2, 2), (2, 2, 2))
        with pytest.raises(ShapeError, match="tile"):
            layer.window_branch(Tensor(np.zeros((12, 8))), pos)


def onehot_window_bias(pos, window):
    """The window bias as a (T*T, B) one-hot matrix times the bias table,
    kept as the oracle of the index gather."""
    t = window[0] * window[1] * window[2]
    buckets = pos.window_rel_bias.shape[0]
    z, y, x = token_coords(window)
    wz, wy, wx = window
    idx = (
        (z[:, None] - z[None, :] + wz - 1) * (2 * wy - 1) * (2 * wx - 1)
        + (y[:, None] - y[None, :] + wy - 1) * (2 * wx - 1)
        + (x[:, None] - x[None, :] + wx - 1)
    ).reshape(-1)
    onehot = np.zeros((t * t, buckets), dtype=pos.window_rel_bias.dtype)
    onehot[np.arange(t * t), idx] = 1.0
    flat = ad.matmul(Tensor(onehot), pos.window_rel_bias)
    return ad.moveaxis(ad.reshape(flat, (t, t, flat.shape[1])), 2, 0)


class TestWindowBiasGather:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [(1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 1, 1), (2, 3, 1)])
    def test_equals_onehot_matmul_exactly(self, window, dtype):
        cfg = make_cfg(heads=2, window=window)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pos = PositionEncodings(window, cfg, rng, dtype=dtype)
            pos.window_rel_bias.data[:] = rng.standard_normal(pos.window_rel_bias.shape)
            leaves = [pos.window_rel_bias]
            assert_same_numbers(
                value_and_grads(pos.window_bias, leaves, seed),
                value_and_grads(lambda: onehot_window_bias(pos, window), leaves, seed),
            )


class TestMixerLayer:
    def test_zeroed_projections_reduce_to_identity(self):
        layer, pos, tokens = branch_env((2, 2, 2), (2, 2, 2), seed=20)
        for attn in (layer.axial, layer.planar, layer.window):
            attn.out.w.data[:] = 0.0
        layer.ffn.fc2.w.data[:] = 0.0
        layer.ffn.fc2.b.data[:] = 0.0
        out = layer(Tensor(tokens), pos)
        assert np.array_equal(out.data, tokens)

    def test_grid_must_cover_tokens(self):
        layer, pos, tokens = branch_env((2, 2, 2), (2, 2, 2), seed=23)
        with pytest.raises(ShapeError, match="does not cover 5 tokens"):
            layer(Tensor(tokens[:5]), pos)

    def test_branch_sum_is_sum_of_branches(self):
        grid = (2, 2, 2)
        layer, pos, tokens = branch_env(grid, (2, 2, 2), seed=21)
        t = Tensor(tokens)
        mixed = layer.mix(t, pos).data
        parts = (
            layer.axial_branch(t, pos).data
            + layer.planar_branch(t, pos).data
            + layer.window_branch(t, pos).data
        )
        assert np.array_equal(mixed, parts)

    def test_gradients(self):
        layer, pos, tokens = branch_env((2, 2, 2), (2, 2, 2), seed=22)
        x = Tensor(tokens)
        params = layer.params() + pos.params()
        assert grad_check(lambda: ad.tmean(layer(x, pos)), params) < 1e-4


class TestTokenSummarizer:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigError):
            TokenSummarizer(4, 0, np.random.default_rng(0))

    def test_shape_contract(self):
        rng = np.random.default_rng(30)
        summ = TokenSummarizer(5, 3, rng)
        for grid in [(2, 2, 2), (1, 4, 2)]:
            feat = Tensor(rng.normal(size=grid + (5,)).astype(np.float32))
            assert summ(feat).shape == (3, 5)

    def test_constant_scores_give_spatial_mean(self):
        rng = np.random.default_rng(31)
        summ = TokenSummarizer(4, 1, rng, dtype=np.float64)
        summ.score.fc2.w.data[:] = 0.0
        summ.score.fc2.b.data[:] = 3.7  # any constant: softmax turns it uniform
        feat = rng.normal(size=(2, 3, 2, 4))
        out = summ(Tensor(feat)).data
        assert np.max(np.abs(out[0] - feat.reshape(-1, 4).mean(axis=0))) < 1e-12

    def test_dominant_score_selects_that_voxel(self):
        rng = np.random.default_rng(32)
        c = 4
        summ = TokenSummarizer(c, 1, rng, dtype=np.float64)
        summ.score.fc1.w.data[:] = np.eye(c)
        summ.score.fc1.b.data[:] = 0.0
        summ.score.fc2.w.data[:] = 0.0
        summ.score.fc2.w.data[0, 0] = 50.0  # score = 50 * gelu(channel 0)
        summ.score.fc2.b.data[:] = 0.0
        feat = rng.normal(size=(2, 2, 2, c))
        feat[..., 0] = 0.0
        feat[1, 0, 1, 0] = 10.0  # lone huge channel-0 value saturates the softmax
        out = summ(Tensor(feat)).data
        assert np.max(np.abs(out[0] - feat[1, 0, 1])) < 1e-10


class TestCrossModalityLayer:
    def _layer(self, seed=40, c=8):
        rng = np.random.default_rng(seed)
        return CrossModalityLayer(make_cfg(c=c), rng, dtype=np.float64), rng

    def test_identical_keys_ignore_queries(self):
        layer, rng = self._layer()
        kv = np.broadcast_to(rng.normal(size=8), (5, 8)).copy()
        out_a = layer.attn(Tensor(rng.normal(size=(4, 8))), Tensor(kv)).data
        out_b = layer.attn(Tensor(rng.normal(size=(4, 8))), Tensor(kv)).data
        expected = kv[0] @ layer.attn.v.w.data @ layer.attn.out.w.data
        assert np.max(np.abs(out_a - expected)) < 1e-12
        assert np.max(np.abs(out_b - expected)) < 1e-12

    def test_single_key_value(self):
        layer, rng = self._layer(seed=41)
        kv = rng.normal(size=(1, 8))
        out = layer.attn(Tensor(rng.normal(size=(6, 8))), Tensor(kv)).data
        expected = kv[0] @ layer.attn.v.w.data @ layer.attn.out.w.data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_channel_mismatch_rejected(self):
        layer, rng = self._layer(seed=42)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 6))))

    def test_modality_permutation_invariance(self):
        layer, rng = self._layer(seed=43)
        q = Tensor(rng.normal(size=(8, 8)))
        parts = [Tensor(rng.normal(size=(2, 8))) for _ in range(3)]
        out = layer(q, ad.concat(parts, axis=0)).data
        out_perm = layer(q, ad.concat([parts[2], parts[0], parts[1]], axis=0)).data
        assert np.max(np.abs(out - out_perm)) < 1e-13

    def test_gradients(self):
        layer, rng = self._layer(seed=44)
        q = Tensor(rng.normal(size=(8, 8)))
        summary = Tensor(rng.normal(size=(4, 8)))
        assert grad_check(lambda: ad.tmean(layer(q, summary)), layer.params()) < 1e-4


class TestFusion:
    def _fusion(self, m=2, grid=(2, 2, 2), c=4, p=2, seed=50, **kw):
        cfg = make_cfg(c=c, heads=2)
        rng = np.random.default_rng(seed)
        fusion = Fusion(m, grid, cfg, rng, summary_tokens=p, dtype=np.float64, **kw)
        feats = [Tensor(rng.normal(size=grid + (c,))) for _ in range(m)]
        return fusion, feats

    def test_output_shape(self):
        fusion, feats = self._fusion()
        assert fusion(feats).shape == (2, 2, 2, 4)

    def test_window_must_tile_grid(self):
        with pytest.raises(ShapeError):
            Fusion(2, (3, 2, 2), make_cfg(c=4), np.random.default_rng(0))

    def test_feature_shape_mismatch_rejected(self):
        fusion, feats = self._fusion()
        with pytest.raises(ShapeError):
            fusion([feats[0]])
        with pytest.raises(ShapeError):
            fusion([feats[0], Tensor(np.zeros((2, 2, 2, 5)))])

    def test_zero_features_embed_to_position_table(self):
        fusion, _ = self._fusion()
        zeros = [Tensor(np.zeros((2, 2, 2, 4))) for _ in range(2)]
        tokens = fusion.embed_tokens(zeros)
        assert np.array_equal(tokens.data, fusion.pos.embed_abs.data)

    def test_zeroed_projections_pass_embedding_through(self):
        fusion, feats = self._fusion(seed=51)
        for layer in fusion.layers:
            for attn in (layer.axial, layer.planar, layer.window):
                attn.out.w.data[:] = 0.0
            layer.ffn.fc2.w.data[:] = 0.0
            layer.ffn.fc2.b.data[:] = 0.0
        fusion.cross.attn.out.w.data[:] = 0.0
        fusion.cross.ffn.fc2.w.data[:] = 0.0
        fusion.cross.ffn.fc2.b.data[:] = 0.0
        out = fusion(feats).data.reshape(8, 4)
        assert np.array_equal(out, fusion.embed_tokens(feats).data)

    def test_residual_source_switch(self):
        # the cross-attention residual adds to the mixed query stream
        fusion, feats = self._fusion(seed=52)
        fusion.cross.attn.out.w.data[:] = 0.0
        fusion.cross.ffn.fc2.w.data[:] = 0.0
        fusion.cross.ffn.fc2.b.data[:] = 0.0
        out = fusion(feats).data.reshape(8, 4)

        mixed = fusion.embed_tokens(feats)
        for layer in fusion.layers:
            mixed = layer(mixed, fusion.pos)
        assert np.array_equal(out, mixed.data)

    def test_deterministic_forward(self):
        fusion, feats = self._fusion(seed=53)
        assert np.array_equal(fusion(feats).data, fusion(feats).data)

    def test_pair_counter_matches_closed_form(self):
        fusion, feats = self._fusion(m=3, p=2, seed=54)
        n = 8
        pair_counter.reset()
        fusion(feats)
        per_mixer = n * 2 + n * 4 + n * 8  # depth + slice + window groups on a 2x2x2 grid
        assert pair_counter.count == 2 * per_mixer + n * 3 * 2

    def test_single_modality_degenerates_cleanly(self):
        fusion, feats = self._fusion(m=1, seed=55)
        assert fusion(feats).shape == (2, 2, 2, 4)
        assert fusion.embed.w.shape == (4, 4)

    def test_end_to_end_gradients(self):
        fusion, feats = self._fusion(seed=56)
        # eps=1e-4: the summarizer's last bias shifts whole softmax columns, so
        # its true gradient is exactly zero and smaller steps leave the numeric
        # estimate dominated by roundoff noise above the 1e-8 error floor
        assert grad_check(lambda: ad.tmean(fusion(feats)), fusion.params(), eps=1e-4) < 1e-4

    def _unmixed(self, grid=(2, 3, 2), c=4, seed=57):
        # no mixer and no cross layer: the output is the folded embedding
        cfg = make_cfg(c=c, heads=2, window=(1, 1, 1))
        rng = np.random.default_rng(seed)
        fusion = Fusion(2, grid, cfg, rng, spatial_layers=0, use_cross=False, dtype=np.float64)
        feats = [Tensor(rng.normal(size=grid + (c,))) for _ in range(2)]
        return fusion, feats

    def test_inverse_of_flatten(self):
        fusion, feats = self._unmixed()
        tokens = fusion.embed_tokens(feats).data
        assert np.array_equal(fusion(feats).data, tokens.reshape(2, 3, 2, 4))

    def test_row_major_token_order(self):
        d, w, h = 2, 3, 2
        fusion, feats = self._unmixed((d, w, h))
        fusion.embed.w.data[:] = 0.0
        fusion.pos.embed_abs.data[:] = np.arange(d * w * h, dtype=np.float64)[:, None]
        vol = fusion(feats).data
        for z in range(d):
            for y in range(w):
                for x in range(h):
                    assert vol[z, y, x, 0] == z * (w * h) + y * h + x

    def test_zero_tokens_zero_volume(self):
        fusion, feats = self._unmixed()
        fusion.embed.w.data[:] = 0.0
        fusion.pos.embed_abs.data[:] = 0.0
        assert not fusion(feats).data.any()
