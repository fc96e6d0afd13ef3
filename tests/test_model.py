import json
import struct
import warnings

import numpy as np
import pytest

from mmvseg import Model, ModelConfig, attention_cost, load_checkpoint, save_checkpoint
from mmvseg import autodiff as ad
from mmvseg.autodiff import grad_check
from mmvseg.decoder import DecoderConfig
from mmvseg.encoder import EncoderConfig
from mmvseg.errors import ConfigError, ContractError, FormatError, ShapeError
from mmvseg.fusion import (
    AttentionConfig,
    PositionEncodings,
    SpatialMixerLayer,
    Tensor,
    pair_counter,
)
from mmvseg.model import attention_cost_terms, benchmark_attention
from mmvseg.nn import xavier_uniform


def toy_config(**kw):
    base = dict(
        modalities=2,
        n_classes=2,
        input_shape=(16, 16, 16),
        encoder=EncoderConfig(stage_channels=(2, 2, 2, 2, 4), blocks_per_stage=1, mlp_ratio=1),
        attention=AttentionConfig(heads=2, dim=4, window=(1, 1, 1), qkv_dim=4, ffn_ratio=1),
        decoder=DecoderConfig(level_channels=(2, 2, 2, 2)),
        summary_tokens=2,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_rejects_indivisible_input(self):
        with pytest.raises(ConfigError, match="divisible"):
            toy_config(input_shape=(24, 16, 16))

    def test_rejects_window_not_tiling_bottleneck(self):
        with pytest.raises(ConfigError, match="window"):
            toy_config(attention=AttentionConfig(heads=2, dim=4, window=(2, 2, 2), qkv_dim=4))

    def test_rejects_channel_mismatch_with_attention(self):
        with pytest.raises(ConfigError, match="attention dim"):
            toy_config(attention=AttentionConfig(heads=2, dim=8, window=(1, 1, 1), qkv_dim=8))

    def test_class_count_flows_into_decoder(self):
        cfg = toy_config(n_classes=3)
        assert cfg.decoder.out_classes == 3

    @pytest.mark.parametrize("field,value", [
        ("use_gated_skips", "false"), ("use_cross_attention", 0), ("use_spatial_attention", None),
    ])
    def test_rejects_non_bool_switch(self, field, value):
        with pytest.raises(ConfigError, match=field):
            toy_config(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("spatial_layers", 1.5), ("summary_tokens", "2"), ("modalities", True),
        ("n_classes", 3.0), ("seed", False),
    ])
    def test_rejects_non_int_count(self, field, value):
        with pytest.raises(ConfigError, match=field):
            toy_config(**{field: value})

    def test_dict_round_trip(self):
        cfg = toy_config(n_classes=3, use_cross_attention=False)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()


class TestBuild:
    def test_same_seed_identical_parameters(self):
        a, b = Model(toy_config()), Model(toy_config())
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a, b = Model(toy_config()), Model(toy_config(seed=1))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_params(), b.named_params())
        )

    def test_xavier_bound_4x4(self):
        w = xavier_uniform(np.random.default_rng(0), (4, 4), 4, 4, np.float64)
        bound = np.sqrt(6.0 / 8.0)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually spread out, not collapsed

    def test_weight_matrices_within_xavier_bounds(self):
        model = Model(toy_config())
        for name, p in model.named_params():
            leaf = name.rsplit("/", 1)[-1]
            if leaf == "w":
                fan_in, fan_out = p.shape
                assert np.abs(p.data).max() <= np.sqrt(6.0 / (fan_in + fan_out))

    def test_biases_zero_gamma_one(self):
        for name, p in Model(toy_config()).named_params():
            leaf = name.rsplit("/", 1)[-1]
            if leaf in ("b", "bias", "beta"):
                assert not p.data.any(), name
            elif leaf == "gamma":
                assert np.array_equal(p.data, np.ones_like(p.data)), name


class TestForward:
    def test_logit_shape(self):
        cfg = toy_config(input_shape=(32, 32, 32), n_classes=3,
                         attention=AttentionConfig(heads=2, dim=4, window=(2, 2, 2), qkv_dim=4,
                                                   ffn_ratio=1))
        model = Model(cfg)
        x = np.random.default_rng(0).uniform(-1, 1, size=(32, 32, 32, 2)).astype(np.float32)
        assert model(x).shape == (32, 32, 32, 3)

    def test_modality_count_mismatch(self):
        model = Model(toy_config())
        with pytest.raises(ContractError):
            model(np.zeros((16, 16, 16, 3), dtype=np.float32))

    def test_extent_mismatch(self):
        model = Model(toy_config())
        with pytest.raises(ShapeError):
            model(np.zeros((32, 32, 32, 2), dtype=np.float32))

    def test_repeated_calls_bit_identical(self):
        model = Model(toy_config())
        x = np.random.default_rng(1).uniform(-1, 1, size=(16, 16, 16, 2)).astype(np.float32)
        assert np.array_equal(model(x).data, model(x).data)

    def test_duplicated_modality_stays_deterministic(self):
        model = Model(toy_config())
        rng = np.random.default_rng(2)
        one = rng.uniform(-1, 1, size=(16, 16, 16, 1)).astype(np.float32)
        x = np.concatenate([one, one], axis=3)
        assert np.array_equal(model(x).data, model(x).data)

    @pytest.mark.parametrize("chunk", range(4))
    def test_finite_outputs_over_many_seeds(self, chunk):
        # 100 fresh initializations in total, random inputs in [-3, 3]
        for seed in range(25 * chunk, 25 * (chunk + 1)):
            model = Model(toy_config(seed=seed))
            rng = np.random.default_rng(10_000 + seed)
            x = rng.uniform(-3, 3, size=(16, 16, 16, 2)).astype(np.float32)
            out = model(x).data
            assert np.isfinite(out).all(), f"non-finite logits at seed {seed}"

    def test_ablated_model_still_runs(self):
        cfg = toy_config(use_spatial_attention=False, use_cross_attention=False,
                         use_gated_skips=False,
                         encoder=EncoderConfig(stage_channels=(2, 2, 2, 2, 4),
                                               blocks_per_stage=1, mlp_ratio=1,
                                               block_kind="conv"))
        model = Model(cfg)
        x = np.random.default_rng(3).uniform(-1, 1, size=(16, 16, 16, 2)).astype(np.float32)
        assert model(x).shape == (16, 16, 16, 2)

    def test_disabled_stages_own_no_parameters(self):
        full = dict(Model(toy_config()).named_params())
        bare = dict(Model(toy_config(use_spatial_attention=False,
                                     use_cross_attention=False,
                                     use_gated_skips=False)).named_params())
        assert any(n.startswith("fusion/cross") for n in full)
        assert not any(n.startswith("fusion/cross") for n in bare)
        assert not any(n.startswith("fusion/layers") for n in bare)
        assert not any("gate_fc" in n for n in bare)
        assert not any("summarize" in n for n in bare)

    def test_end_to_end_gradients_reduced_config(self):
        cfg = toy_config(
            encoder=EncoderConfig(stage_channels=(8, 8, 8, 8, 16), blocks_per_stage=1, mlp_ratio=1),
            attention=AttentionConfig(heads=2, dim=16, window=(1, 1, 1), qkv_dim=16, ffn_ratio=1),
            decoder=DecoderConfig(level_channels=(4, 2, 2, 2)),
            dtype="float64",
        )
        model = Model(cfg)
        # Intensities bounded away from zero: the stage-1 channel norm sees an
        # affine image of a single scalar per voxel, so near x=0 it turns into a
        # regularized step whose curvature swamps central differences.
        x = np.random.default_rng(4).uniform(0.25, 1.75, size=(16, 16, 16, 2))
        f = lambda: ad.tmean(model(x))
        # eps=1e-4 keeps the structurally-zero summarizer bias gradient above
        # the finite-difference noise floor; entries are subsampled per tensor
        assert grad_check(f, model.params(), eps=1e-4, max_entries=3) < 1e-4


class TestParamCount:
    def test_linear_count_example(self):
        from mmvseg.nn import Linear

        lin = Linear(4, 3, np.random.default_rng(0))
        assert lin.param_count() == 4 * 3 + 3

    def test_more_blocks_more_encoder_params(self):
        small = Model(toy_config()).param_breakdown()
        big_cfg = toy_config(encoder=EncoderConfig(stage_channels=(2, 2, 2, 2, 4),
                                                   blocks_per_stage=2, mlp_ratio=1))
        big = Model(big_cfg).param_breakdown()
        assert big["encoders"] > small["encoders"]

    def test_breakdown_sums_to_total(self):
        parts = Model(toy_config()).param_breakdown()
        assert parts["total"] == parts["encoders"] + parts["fusion"] + parts["decoder"]
        assert parts["total"] == Model(toy_config()).param_count()

    def test_default_four_modality_config_in_expected_band(self):
        model = Model(ModelConfig())
        total = model.param_breakdown()["total"]
        assert 7_300_000 <= total <= 13_600_000


class TestAttentionCost:
    def test_reference_grid(self):
        assert attention_cost((8, 8, 8), mode="full") == 262144
        assert attention_cost((8, 8, 8), (2, 2, 2), mode="mixer") == 40960
        terms = attention_cost_terms((8, 8, 8), (2, 2, 2))
        assert terms == {"axial": 4096, "planar": 32768, "window": 4096}

    def test_degenerate_grid(self):
        assert attention_cost((1, 1, 1), mode="full") == 1
        assert attention_cost_terms((1, 1, 1), (1, 1, 1))["window"] == 1

    def test_indivisible_window_rejected(self):
        with pytest.raises(ConfigError):
            attention_cost((3, 3, 3), (2, 2, 2), mode="mixer")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            attention_cost((2, 2, 2), (1, 1, 1), mode="flash")

    @pytest.mark.parametrize("seed", range(8))
    def test_mixer_cheaper_when_branch_footprints_sum_below_tokens(self, seed):
        # mixer = n*(d + w*h + window volume), so it beats full n^2 exactly
        # when the combined per-token footprint stays under the token count
        rng = np.random.default_rng(seed)
        window = tuple(int(v) for v in rng.integers(1, 3, size=3))
        grid = tuple(int(w * rng.integers(1, 5)) for w in window)
        n = grid[0] * grid[1] * grid[2]
        footprint = grid[0] + grid[1] * grid[2] + window[0] * window[1] * window[2]
        mixer = attention_cost(grid, window, "mixer")
        full = attention_cost(grid, mode="full")
        assert mixer == n * footprint
        assert (mixer < full) == (footprint < n)

    def test_instrumented_kernels_match_closed_form_4cube(self):
        grid, window = (4, 4, 4), (2, 2, 2)
        cfg = AttentionConfig(heads=2, dim=4, window=window, qkv_dim=4, ffn_ratio=1)
        rng = np.random.default_rng(7)
        layer = SpatialMixerLayer(cfg, rng)
        pos = PositionEncodings(grid, cfg, rng)
        tokens = Tensor(rng.normal(size=(64, 4)).astype(np.float32))
        pair_counter.reset()
        layer.mix(tokens, grid, pos)
        assert pair_counter.count == attention_cost(grid, window, "mixer") == 1792

    def test_benchmark_reports_consistent_counts(self):
        report = benchmark_attention((4, 4, 4), (2, 2, 2), channels=8, heads=2, repeats=1)
        assert report["counted_full"] == report["pairs_full"] == 4096
        assert report["counted_mixer"] == report["pairs_mixer"] == 1792
        assert report["ms_full"] > 0 and report["ms_mixer"] > 0


class TestCheckpoint:
    def _model(self, **kw):
        return Model(toy_config(**kw))

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model(seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=7)
        again, meta = load_checkpoint(path)
        assert meta["step"] == 7 and meta["opt"] is None
        assert again.cfg == model.cfg

        x = np.random.default_rng(5).uniform(-1, 1, size=(16, 16, 16, 2)).astype(np.float32)
        assert np.array_equal(model(x).data, again(x).data)
        for (na, pa), (nb, pb) in zip(model.named_params(), again.named_params()):
            assert na == nb and np.array_equal(pa.data, pb.data)

    def test_optimizer_state_round_trip(self, tmp_path):
        model = self._model(seed=12)
        opt = {
            "t": 3,
            "m": {n: np.full(p.shape, 0.25, dtype=np.float32) for n, p in model.named_params()},
            "v": {n: np.full(p.shape, 0.5, dtype=np.float32) for n, p in model.named_params()},
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=3, opt_state=opt)
        _, meta = load_checkpoint(path)
        assert meta["opt"]["t"] == 3
        some = next(iter(meta["opt"]["m"]))
        assert np.array_equal(meta["opt"]["m"][some], opt["m"][some])
        assert np.array_equal(meta["opt"]["v"][some], opt["v"][some])

    def test_float64_model_round_trips_bit_exact(self, tmp_path):
        model = self._model(seed=14, dtype="float64")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again, _ = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(model.named_params(), again.named_params(), strict=True):
            assert na == nb and pb.dtype == np.float64
            assert np.array_equal(pa.data, pb.data)

    def test_huge_moments_round_trip_exactly(self, tmp_path):
        # float64 AdamW moments (second moments hold squared gradients) are
        # stored as float64: values beyond float32 range and below its
        # resolution come back unchanged
        model = self._model(seed=13)
        rng = np.random.default_rng(13)
        opt = {
            "t": 1,
            "m": {n: rng.normal(size=p.shape) for n, p in model.named_params()},
            "v": {n: np.full(p.shape, 1e43) for n, p in model.named_params()},
        }
        path = tmp_path / "model.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_checkpoint(model, path, step=1, opt_state=opt)
        _, meta = load_checkpoint(path)
        for key in ("m", "v"):
            assert meta["opt"][key].keys() == opt[key].keys()
            for name, stored in meta["opt"][key].items():
                assert stored.dtype == np.float64
                assert np.array_equal(stored, opt[key][name])

    def test_version_2_file_is_unsupported(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_unknown_item_size_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        (blob_len,) = struct.unpack("<I", raw[8:12])
        first = 12 + blob_len + 4  # the first tensor record
        (name_len,) = struct.unpack("<H", raw[first : first + 2])
        raw[first + 2 + name_len] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="item size"):
            load_checkpoint(path)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_stored_config_that_does_not_build_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for change in ({"bogus": 1}, {"n_classes": 1}):
            save_checkpoint(self._model(), path)
            rewrite_config(path, change)
            with pytest.raises(FormatError, match="config"):
                load_checkpoint(path)


def rewrite_config(path, change):
    """Update the model config stored in a checkpoint's JSON header in place."""
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + blob_len])
    header["config"].update(change)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len :])
