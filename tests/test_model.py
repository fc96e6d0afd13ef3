import json
import struct
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mmvseg import Model, ModelConfig, attention_cost, load_checkpoint, save_checkpoint
from mmvseg import autodiff as ad
from mmvseg.autodiff import grad_check
from mmvseg.decoder import Decoder, DecoderConfig
from mmvseg.encoder import Encoder, EncoderConfig
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
from mmvseg.training import cross_entropy_loss, soft_dice_loss


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
        model = Model(toy_config(n_classes=3))
        assert model.decoder.head.kernel.shape[-1] == 3

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

    @pytest.mark.parametrize("shape", [(32.9, 32, 32), ("32", 32, 32), (32, True, 32)])
    def test_rejects_non_int_input_extents(self, shape):
        with pytest.raises(ConfigError, match="input_shape entry must be an integer"):
            ModelConfig(input_shape=shape, modalities=2)

    @pytest.mark.parametrize("shape", [(0, 16, 16), (16, -16, 16)])
    def test_rejects_non_positive_input_extents(self, shape):
        with pytest.raises(ConfigError, match="input extents must be positive"):
            toy_config(input_shape=shape)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            toy_config(seed=-1)

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

    @pytest.mark.parametrize("gated", [True, False])
    def test_untaped_forward_frees_stage1_features_before_decoder(self, monkeypatch, gated):
        refs, gate_refs, alive = [], [], []
        encode, decode, gate = Encoder.__call__, Decoder.__call__, Decoder.gated_skip

        def encoder_call(enc, volume):
            levels = encode(enc, volume)
            data = levels[0].data
            refs.extend(weakref.ref(a) for a in (data, data.base) if a is not None)
            return levels

        def gated_skip(dec, logits, feats):
            if logits.shape[:3] == (16, 16, 16):  # the full-resolution gate logits
                data = logits.data
                gate_refs.extend(weakref.ref(a) for a in (data, data.base) if a is not None)
            return gate(dec, logits, feats)

        def decoder_call(dec, bottleneck, skips):
            alive.append(sum(ref() is not None for ref in refs + gate_refs))
            return decode(dec, bottleneck, skips)

        monkeypatch.setattr(Encoder, "__call__", encoder_call)
        monkeypatch.setattr(Decoder, "gated_skip", gated_skip)
        monkeypatch.setattr(Decoder, "__call__", decoder_call)
        model = Model(toy_config(use_gated_skips=gated))
        x = np.random.default_rng(5).uniform(-1, 1, size=(16, 16, 16, 2)).astype(np.float32)
        model(x)
        assert len(refs) >= 2 and bool(gate_refs) == gated and alive == [0]

    def test_gated_forward_projects_the_gates_once(self):
        # the gated model differs from the ungated one by one gate_fc linear
        # node and one gate upsample per level
        x = np.random.default_rng(6).uniform(-1, 1, size=(16, 16, 16, 2)).astype(np.float32)
        counts = {}
        for gated in (True, False):
            model = Model(toy_config(use_gated_skips=gated))
            with ad.Tape() as tape:
                model(x)
            ops = [node.op for node in tape.nodes]
            counts[gated] = (ops.count("linear"), ops.count("upsample2x"))
            if gated:
                w = model.decoder.gate_fc.w
                assert sum(any(t is w for t in node.inputs) for node in tape.nodes) == 1
        assert counts[True][0] - counts[False][0] == 1
        assert counts[True][1] - counts[False][1] == 4 and counts[False][1] == 4

    @staticmethod
    def _default_width_tape_ops(modalities):
        model = Model(ModelConfig(modalities=modalities, n_classes=3, input_shape=(32, 32, 32)))
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(32, 32, 32, modalities)).astype(np.float32)
        y = rng.integers(0, 3, size=(32, 32, 32))
        with ad.Tape() as tape:
            logits = model(x)
            ad.add(soft_dice_loss(logits, y), cross_entropy_loss(logits, y))
        return [node.op for node in tape.nodes]

    def test_default_width_forward_and_loss_tape_size(self):
        # default widths, 2 modalities, 32^3: the forward plus the two loss
        # terms record 291 nodes.  Each of the 20 GlobalPoolBlocks (5 stages,
        # 2 blocks, 2 modalities) records global_pool, linear (of the (C,)
        # pooled vector) and feed_forward, where layer_norm, mean, reshape,
        # linear, reshape, add and feed_forward recorded 7; each of the 7
        # attention calls moves K's token axis last in one moveaxis, where K
        # was moved twice; each of the 2 modality summarizers reshapes its
        # volume once for both the scores and the average; and the Dice loss
        # sums the softmax over its leading axes with no reshape: 50 fewer
        # than the 341 before those four.  Each of the 4 decoder levels feeds
        # its conv3d the skip directly, with no concat node: 44 fewer than
        # the 385 of the concat and pooled-norm chains.  Each level's gated skip
        # sum is one gated_sum node, where the take/mul/add chain for M = 2
        # recorded 3M - 1 = 5, so 4 levels record 16 fewer than that
        # chain's 401.
        # Around its attention, each mixer branch records a take that
        # gathers the tiles, an add of its position table (axial and planar
        # only), and a reshape and a take that scatter back: axial 4 nodes,
        # planar 4 and window 3 per layer.  Hand-written partitions recorded
        # 6 (reshape, table reshape, add, moveaxis; moveaxis, reshape), 3
        # (reshape, add; reshape) and 6 (reshape, moveaxis, reshape; the
        # same back), so each of the 2 layers records 4 nodes fewer
        ops = self._default_width_tape_ops(2)
        assert len(ops) == 291
        assert ops.count("upsample2x") == 8

    def test_four_modality_tape_size(self):
        # two more encoders, each 5 patch_linear embeds and 10 pooled blocks
        # of 3 nodes, and two more summarizers, each reshape, linear, gelu,
        # linear, moveaxis, softmax and matmul: 291 + 2 * 35 + 2 * 7
        ops = self._default_width_tape_ops(4)
        assert len(ops) == 375
        assert ops.count("global_pool") == 40 and ops.count("moveaxis") == 34

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
        def encoder_params(model):
            return sum(e.param_count() for e in model.encoders)

        big_cfg = toy_config(encoder=EncoderConfig(stage_channels=(2, 2, 2, 2, 4),
                                                   blocks_per_stage=2, mlp_ratio=1))
        assert encoder_params(Model(big_cfg)) > encoder_params(Model(toy_config()))

    def test_default_four_modality_config_in_expected_band(self):
        assert 7_300_000 <= Model(ModelConfig()).param_count() <= 13_600_000


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
        layer.mix(tokens, pos)
        assert pair_counter.count == attention_cost(grid, window, "mixer") == 1792

    @pytest.mark.parametrize("threads", [2, 4])
    def test_pair_counts_are_per_thread(self, threads):
        # concurrent forwards each count only their own pairs; a short switch
        # interval interleaves the threads' additions
        grid, window = (4, 4, 4), (2, 2, 2)
        cfg = AttentionConfig(heads=2, dim=4, window=window, qkv_dim=4, ffn_ratio=1)
        rng = np.random.default_rng(8)
        layer = SpatialMixerLayer(cfg, rng)
        pos = PositionEncodings(grid, cfg, rng)
        tokens = Tensor(rng.normal(size=(64, 4)).astype(np.float32))
        start = threading.Barrier(threads)

        def run():
            start.wait(timeout=60)
            before = pair_counter.count
            for _ in range(200):
                layer.mix(tokens, pos)
            return pair_counter.count - before

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as pool:
                counts = [f.result(timeout=120) for f in [pool.submit(run) for _ in range(threads)]]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [200 * attention_cost(grid, window, "mixer")] * threads == [358_400] * threads

    def test_benchmark_adds_to_the_running_count(self):
        # each layer runs once to warm up and `repeats` times timed, and the
        # caller's count is not zeroed
        pair_counter.add(5)
        before = pair_counter.count
        report = benchmark_attention((4, 4, 4), (2, 2, 2), channels=8, heads=2, repeats=2)
        assert pair_counter.count - before == 3 * (report["counted_full"] + report["counted_mixer"])

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
        # float32 moments are stored as float64 and load as flat float64
        model = self._model(seed=12)
        size = model.param_count()
        opt = {"t": 3, "m": np.full(size, 0.25, dtype=np.float32),
               "v": np.full(size, 0.5, dtype=np.float32)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=3, opt_state=opt)
        _, meta = load_checkpoint(path)
        assert meta["opt"]["t"] == 3
        for key in ("m", "v"):
            assert meta["opt"][key].dtype == np.float64
            assert np.array_equal(meta["opt"][key], opt[key])

    def test_float64_model_round_trips_bit_exact(self, tmp_path):
        model = self._model(seed=14, dtype="float64")
        rng = np.random.default_rng(14)
        opt = {"t": 5, "m": rng.normal(size=model.param_count()), "v": rng.uniform(size=model.param_count())}
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=5, opt_state=opt)
        again, meta = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(model.named_params(), again.named_params(), strict=True):
            assert na == nb and pb.dtype == np.float64
            assert np.array_equal(pa.data, pb.data)
        assert meta["opt"]["t"] == 5
        assert all(np.array_equal(meta["opt"][key], opt[key]) for key in ("m", "v"))

    def test_huge_moments_round_trip_exactly(self, tmp_path):
        # float64 AdamW moments (second moments hold squared gradients) are
        # stored as float64: values beyond float32 range and below its
        # resolution come back unchanged
        model = self._model(seed=13)
        size = model.param_count()
        rng = np.random.default_rng(13)
        opt = {"t": 1, "m": rng.normal(size=size), "v": np.full(size, 1e43)}
        path = tmp_path / "model.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_checkpoint(model, path, step=1, opt_state=opt)
        _, meta = load_checkpoint(path)
        for key in ("m", "v"):
            assert meta["opt"][key].dtype == np.float64
            assert np.array_equal(meta["opt"][key], opt[key])

    def _trained(self, path, seed=17, step=1):
        """Save a toy model with moments of ones to `path`; returns the model."""
        model = self._model(seed=seed)
        size = model.param_count()
        save_checkpoint(model, path, step=step, opt_state={"t": step, "m": np.ones(size), "v": np.ones(size)})
        return model

    def test_moments_are_stored_flat_after_the_parameters(self, tmp_path):
        # the header lists [name, shape] per parameter; the body is the
        # parameters in that order, then the flat moments m and v
        model = self._model(seed=16)
        size = model.param_count()
        m, v = np.arange(size, dtype=np.float64), -np.arange(size, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=2, opt_state={"t": 2, "m": m, "v": v})
        header, body = checkpoint_parts(path.read_bytes())
        assert header["tensors"] == [[n, list(p.shape)] for n, p in model.named_params()]
        params = b"".join(p.data.astype("<f4").tobytes() for p in model.params())
        assert body == params + m.astype("<f8").tobytes() + v.astype("<f8").tobytes()

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_missing_moment_is_a_format_error(self, tmp_path, moment):
        path = tmp_path / "model.ckpt"
        size = self._trained(path).param_count()
        raw = path.read_bytes()
        end = len(raw) - 8 * size * "vm".index(moment)  # the end of the missing moment
        path.write_bytes(raw[: end - 8 * size] + raw[end:])
        for moments in (True, False):
            with pytest.raises(FormatError, match="truncated file: .* moment"):
                load_checkpoint(path, moments=moments)

    def test_skipped_moments_are_still_checked(self, tmp_path):
        path = tmp_path / "model.ckpt"
        model = self._trained(path, seed=18, step=4)
        again, meta = load_checkpoint(path, moments=False)
        assert meta == {"step": 4, "opt": None}
        for (_, pa), (_, pb) in zip(model.named_params(), again.named_params(), strict=True):
            assert np.array_equal(pa.data, pb.data)
        raw = path.read_bytes()
        for changed, message in ((raw[:-4], "truncated file: .* of moments"), (raw + b"\0", "trailing data")):
            path.write_bytes(changed)
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path, moments=False)

    @pytest.mark.parametrize("moments", [True, False])
    def test_truncated_parameters_or_moments(self, tmp_path, moments):
        path = tmp_path / "model.ckpt"
        size = self._trained(path).param_count()
        raw = path.read_bytes()
        moments_at = len(raw) - 16 * size
        for cut, what in ((moments_at - 1, "payload of"), (moments_at + 1, "moment"), (len(raw) - 1, "moment")):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match=f"truncated file: .* {what}"):
                load_checkpoint(path, moments=moments)

    def test_header_length_beyond_the_file_is_truncation(self, tmp_path):
        # the length is checked against the bytes left before any is read
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"truncated file: wanted {0xFFFFFFFF} bytes of header, got {len(raw) - 12}"):
            load_checkpoint(path)

    def test_version_2_file_is_unsupported(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("moments", [True, False])
    def test_version_3_file_is_unsupported(self, tmp_path, moments):
        # a version 3 file: the header, then a table of named, shaped records
        model = self._model()
        blob = json.dumps({"config": model.cfg.to_dict(), "step": 0, "optimizer": False}).encode()
        records = b""
        for name, p in model.named_params():
            records += (struct.pack("<H", len(name)) + name.encode() + struct.pack("BB", 4, p.ndim)
                        + struct.pack(f"<{p.ndim}I", *p.shape) + p.data.tobytes())
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NFCK" + struct.pack("<II", 3, len(blob)) + blob
                         + struct.pack("<I", len(model.params())) + records)
        with pytest.raises(FormatError, match="unsupported checkpoint version 3"):
            load_checkpoint(path, moments=moments)

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

    @pytest.mark.parametrize("change", [{"step": "x"}, {"step": 1.5}, {"step": None},
                                        {"optimizer": True, "opt_t": "3"},
                                        {"optimizer": True, "opt_t": True}],
                             ids=["string-step", "fractional-step", "null-step",
                                  "string-opt-t", "bool-opt-t"])
    def test_non_integer_header_counter_is_a_format_error(self, tmp_path, change):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(), path, step=3)
        rewrite_header(path, lambda header: header.update(change))
        with pytest.raises(FormatError, match="step and opt_t must be integers"):
            load_checkpoint(path)

    def test_stored_config_that_does_not_build_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for change in ({"bogus": 1}, {"n_classes": 1}):
            save_checkpoint(self._model(), path)
            rewrite_config(path, change)
            with pytest.raises(FormatError, match="config"):
                load_checkpoint(path)

    def _mismatched_list_is_a_format_error(self, tmp_path, change):
        path = tmp_path / "model.ckpt"
        self._trained(path)
        rewrite_header(path, lambda header: change(header["tensors"]))
        for moments in (True, False):
            with pytest.raises(FormatError, match="tensor list does not match"):
                load_checkpoint(path, moments=moments)

    def test_duplicate_tensor(self, tmp_path):
        self._mismatched_list_is_a_format_error(tmp_path, lambda tensors: tensors.insert(1, tensors[0]))

    def test_missing_tensor(self, tmp_path):
        self._mismatched_list_is_a_format_error(tmp_path, lambda tensors: tensors.pop(0))

    def test_shape_mismatch(self, tmp_path):
        self._mismatched_list_is_a_format_error(tmp_path, lambda tensors: tensors[0][1].append(2))

    def test_stray_tensor(self, tmp_path):
        self._mismatched_list_is_a_format_error(tmp_path, lambda tensors: tensors.append(["stray", [3]]))

    def test_trailing_bytes_after_the_table(self, tmp_path):
        # one byte after the last payload, with and without moments saved
        save_checkpoint(self._model(), tmp_path / "plain.ckpt")
        self._trained(tmp_path / "trained.ckpt")
        for path in (tmp_path / "plain.ckpt", tmp_path / "trained.ckpt"):
            path.write_bytes(path.read_bytes() + b"\0")
            for moments in (True, False):
                with pytest.raises(FormatError, match="trailing data"):
                    load_checkpoint(path, moments=moments)

    def test_load_holds_no_second_copy_of_the_weights(self, tmp_path):
        # the default model's payloads are read straight into its parameters
        model = Model(ModelConfig())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        param_bytes = sum(p.data.nbytes for p in model.params())
        del model
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            again, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(p.data.nbytes for p in again.params()) == param_bytes
        assert peak <= 1.25 * param_bytes

    def test_load_without_moments_holds_only_the_weights(self, tmp_path):
        # eval's load of a trained default checkpoint skips its two float64
        # moments, four times the float32 parameter bytes
        model = Model(ModelConfig())
        size = model.param_count()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, step=1, opt_state={"t": 1, "m": np.zeros(size), "v": np.zeros(size)})
        param_bytes = sum(p.data.nbytes for p in model.params())
        del model
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            again, meta = load_checkpoint(path, moments=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert meta["opt"] is None
        assert sum(p.data.nbytes for p in again.params()) == param_bytes
        assert peak < 1.3 * param_bytes


def checkpoint_parts(raw):
    """A checkpoint's JSON header and the payload bytes that follow it."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + blob_len]), raw[12 + blob_len :]


def rewrite_config(path, change):
    """Update the model config stored in a checkpoint's JSON header in place."""
    rewrite_header(path, lambda header: header["config"].update(change))


def rewrite_header(path, update):
    """Apply `update` to a checkpoint's JSON header in place."""
    raw = path.read_bytes()
    header, body = checkpoint_parts(raw)
    update(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + body)
