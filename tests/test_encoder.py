import numpy as np
import pytest

from mmvseg import Tensor, grad_check
from mmvseg import autodiff as ad
from mmvseg.encoder import (
    ConvBlock,
    Encoder,
    EncoderConfig,
    EncoderStage,
    GlobalPoolBlock,
    LocalPoolBlock,
)
from mmvseg.errors import ConfigError, ShapeError


def tiny_cfg(**kw):
    base = dict(
        stage_channels=(2, 3, 4, 5, 6),
        blocks_per_stage=1,
        mlp_ratio=2,
    )
    base.update(kw)
    return EncoderConfig(**base)


def _np_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


class TestConfig:
    def test_rejects_wrong_stage_count(self):
        with pytest.raises(ConfigError):
            EncoderConfig(stage_channels=(2, 3, 4))

    def test_rejects_nonpositive_channels(self):
        with pytest.raises(ConfigError):
            EncoderConfig(stage_channels=(2, 3, 0, 5, 6))

    def test_rejects_unknown_block_kind(self):
        with pytest.raises(ConfigError):
            EncoderConfig(block_kind="mamba")

    @pytest.mark.parametrize("field,value,message", [
        ("stage_channels", (4.9, 4, 4, 4, 8), "stage_channels entry must be an integer"),
        ("stage_channels", (4, True, 4, 4, 8), "stage_channels entry must be an integer"),
        ("blocks_per_stage", 1.5, "blocks_per_stage must be an integer"),
        ("blocks_per_stage", True, "blocks_per_stage must be an integer"),
        ("blocks_per_stage", -1, "blocks_per_stage must be >= 0"),
        ("mlp_ratio", 2.0, "mlp_ratio must be an integer"),
        ("mlp_ratio", 0, "mlp_ratio must be positive"),
    ])
    def test_rejects_mistyped_or_out_of_range_counts(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            EncoderConfig(**{field: value})

    def test_zero_blocks_per_stage_is_allowed(self):
        assert EncoderConfig(blocks_per_stage=0).blocks_per_stage == 0


class TestFeatureEmbed:
    def test_stage1_preserves_resolution(self):
        rng = np.random.default_rng(0)
        stage = EncoderStage(1, 1, 3, tiny_cfg(), rng, np.float32)
        out = stage.embed(Tensor(rng.normal(size=(16, 16, 16, 1))))
        assert out.shape == (16, 16, 16, 3)

    def test_stage2_halves_each_extent(self):
        rng = np.random.default_rng(1)
        stage = EncoderStage(2, 2, 3, tiny_cfg(), rng, np.float32)
        out = stage.embed(Tensor(rng.normal(size=(16, 12, 8, 2))))
        assert out.shape == (8, 6, 4, 3)

    def test_odd_extent_rejected_with_padding_hint(self):
        rng = np.random.default_rng(2)
        stage = EncoderStage(3, 2, 2, tiny_cfg(), rng, np.float32)
        with pytest.raises(ShapeError, match="pad"):
            stage.embed(Tensor(rng.normal(size=(4, 5, 4, 2))))

    def test_zero_weights_give_constant_bias_map(self):
        rng = np.random.default_rng(3)
        stage = EncoderStage(2, 2, 3, tiny_cfg(), rng, np.float64)
        stage.embed.kernel.data[:] = 0.0
        stage.embed.bias.data[:] = [0.5, -1.0, 2.0]
        out = stage.embed(Tensor(rng.normal(size=(6, 4, 2, 2))))
        assert np.array_equal(out.data, np.broadcast_to([0.5, -1.0, 2.0], (3, 2, 1, 3)))


class TestGlobalPoolBlock:
    def test_preserves_shape(self):
        rng = np.random.default_rng(10)
        block = GlobalPoolBlock(4, 2, rng)
        x = Tensor(rng.normal(size=(3, 2, 5, 4)).astype(np.float32))
        assert block(x).shape == (3, 2, 5, 4)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        block = GlobalPoolBlock(4, 2, rng)
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((2, 2, 2, 5), dtype=np.float32)))

    def test_zeroed_projections_reduce_to_identity(self):
        # with the pooled projection and the second MLP linear zeroed, both
        # residual branches vanish and the block is the identity map
        rng = np.random.default_rng(12)
        block = GlobalPoolBlock(5, 2, rng, dtype=np.float64)
        block.pool_proj.w.data[:] = 0.0
        block.pool_proj.b.data[:] = 0.0
        block.mlp.fc2.w.data[:] = 0.0
        block.mlp.fc2.b.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 3, 4, 5)))
        assert np.array_equal(block(x).data, x.data)

    def test_single_voxel_matches_direct_evaluation(self):
        # at 1x1x1 the global mean is the normalized voxel itself, so the
        # whole block collapses to a closed form we can evaluate by hand
        rng = np.random.default_rng(13)
        c = 6
        block = GlobalPoolBlock(c, 2, rng, dtype=np.float64)
        x = rng.normal(size=(1, 1, 1, c))

        ln1 = _np_layer_norm(x, block.norm1.gamma.data, block.norm1.beta.data)
        y = x + ln1 @ block.pool_proj.w.data + block.pool_proj.b.data
        ln2 = _np_layer_norm(y, block.norm2.gamma.data, block.norm2.beta.data)
        h = ln2 @ block.mlp.fc1.w.data + block.mlp.fc1.b.data
        from scipy.special import erf

        g = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        expected = y + g @ block.mlp.fc2.w.data + block.mlp.fc2.b.data

        got = block(Tensor(x)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_commutes_with_spatial_permutation(self):
        # every stage of the block treats positions identically (the global
        # mean sees a reordered multiset), so permuting voxels before or
        # after must agree
        rng = np.random.default_rng(14)
        block = GlobalPoolBlock(4, 2, rng, dtype=np.float64)
        x = rng.normal(size=(3, 4, 2, 4))
        pd, ph, pw = rng.permutation(3), rng.permutation(4), rng.permutation(2)

        permuted_in = block(Tensor(x[pd][:, ph][:, :, pw])).data
        permuted_out = block(Tensor(x)).data[pd][:, ph][:, :, pw]
        assert np.max(np.abs(permuted_in - permuted_out)) < 1e-13

    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (2, 2, 2, 4), (3, 2, 1, 5)])
    def test_gradients(self, shape):
        rng = np.random.default_rng(sum(shape))
        block = GlobalPoolBlock(shape[-1], 2, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=shape))
        assert grad_check(lambda: ad.tmean(block(x)), block.params()) < 1e-4


class TestAblationBlocks:
    def test_local_pool_preserves_shape(self):
        rng = np.random.default_rng(20)
        block = LocalPoolBlock(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3, 2, 3)).astype(np.float32))
        assert block(x).shape == (4, 3, 2, 3)

    def test_local_pool_gradients(self):
        rng = np.random.default_rng(21)
        block = LocalPoolBlock(3, 2, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 3, 2, 3)))
        assert grad_check(lambda: ad.tmean(block(x)), block.params()) < 1e-4

    def test_conv_block_preserves_shape(self):
        rng = np.random.default_rng(22)
        block = ConvBlock(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3, 2, 3)).astype(np.float32))
        assert block(x).shape == (4, 3, 2, 3)

    def test_conv_block_gradients(self):
        rng = np.random.default_rng(23)
        block = ConvBlock(3, 2, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 3, 2, 3)))
        assert grad_check(lambda: ad.tmean(block(x)), block.params()) < 1e-4


class TestEncoder:
    def test_pyramid_shapes_32(self):
        rng = np.random.default_rng(30)
        enc = Encoder(tiny_cfg(), rng)
        pyr = enc(Tensor(rng.normal(size=(32, 32, 32, 1)).astype(np.float32)))
        extents = [lvl.shape[:3] for lvl in pyr]
        assert extents == [(32,) * 3, (16,) * 3, (8,) * 3, (4,) * 3, (2,) * 3]
        assert [lvl.shape[3] for lvl in pyr] == [2, 3, 4, 5, 6]
        assert isinstance(pyr, list)

    def test_anisotropic_shape(self):
        rng = np.random.default_rng(31)
        enc = Encoder(tiny_cfg(), rng)
        pyr = enc(Tensor(rng.normal(size=(16, 32, 16, 1)).astype(np.float32)))
        assert pyr[-1].shape == (1, 2, 1, 6)

    def test_indivisible_extents_rejected(self):
        rng = np.random.default_rng(32)
        enc = Encoder(tiny_cfg(), rng)
        with pytest.raises(ShapeError, match="divisible by 16"):
            enc(Tensor(np.zeros((24, 16, 16, 1), dtype=np.float32)))

    def test_wrong_channel_count_rejected(self):
        rng = np.random.default_rng(33)
        enc = Encoder(tiny_cfg(), rng)
        with pytest.raises(ShapeError):
            enc(Tensor(np.zeros((16, 16, 16, 2), dtype=np.float32)))

    def test_zero_input_zero_biases_gives_zero_pyramid(self):
        # fresh init has all-zero biases, and every sub-block maps 0 -> 0
        rng = np.random.default_rng(34)
        enc = Encoder(tiny_cfg(), rng)
        pyr = enc(Tensor(np.zeros((16, 16, 16, 1), dtype=np.float32)))
        for lvl in pyr:
            assert np.array_equal(lvl.data, np.zeros_like(lvl.data))

    @pytest.mark.parametrize("seed", range(3))
    def test_halving_law_random_shapes(self, seed):
        rng = np.random.default_rng(40 + seed)
        shape = tuple(int(16 * rng.integers(1, 3)) for _ in range(3))
        enc = Encoder(tiny_cfg(), rng)
        pyr = enc(Tensor(rng.normal(size=shape + (1,)).astype(np.float32)))
        for l, lvl in enumerate(pyr):
            assert lvl.shape[:3] == tuple(s // 2**l for s in shape)

    def test_separate_encoders_share_no_parameters(self):
        rng = np.random.default_rng(50)
        a, b = Encoder(tiny_cfg(), rng), Encoder(tiny_cfg(), rng)
        assert {id(p) for p in a.params()}.isdisjoint(id(p) for p in b.params())

    def test_same_seed_same_parameters(self):
        cfg = tiny_cfg()
        a = Encoder(cfg, np.random.default_rng(7))
        b = Encoder(cfg, np.random.default_rng(7))
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_block_kind_changes_parameter_names(self):
        rng = np.random.default_rng(51)
        pooled = dict(Encoder(tiny_cfg(), rng).named_params())
        conv = dict(Encoder(tiny_cfg(block_kind="conv"), rng).named_params())
        assert any("pool_proj" in n for n in pooled)
        assert not any("pool_proj" in n for n in conv)

    def test_full_encoder_gradients_16cube(self):
        cfg = EncoderConfig(
            stage_channels=(2, 2, 2, 2, 2),
            blocks_per_stage=1,
            mlp_ratio=1,
        )
        rng = np.random.default_rng(60)
        enc = Encoder(cfg, rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(16, 16, 16, 1)))
        assert grad_check(lambda: ad.tmean(enc(x)[-1]), enc.params()) < 1e-4
