import json
import math

import numpy as np
import pytest

from mmvseg import autodiff as ad
from mmvseg.autodiff import Tape, Tensor, backward, grad_check
from mmvseg.decoder import DecoderConfig
from mmvseg.encoder import EncoderConfig
from mmvseg.errors import ConfigError, ContractError, NumericError, ShapeError
from mmvseg.fusion import AttentionConfig
from mmvseg.metrics import SegmentationMask
from mmvseg.model import ABLATIONS, Model, ModelConfig, ablation_model_config, load_checkpoint
from mmvseg.training import (
    TrainConfig,
    adamw_step,
    combined_loss,
    cross_entropy_loss,
    init_opt_state,
    soft_dice_loss,
    train,
)
from test_tensor import assert_same_numbers, value_and_grads


def rand_logits(rng, shape=(4, 4, 4, 3), scale=1.0):
    return Tensor(scale * rng.normal(size=shape), requires_grad=True)


def rand_labels(rng, shape=(4, 4, 4), n_classes=3):
    return rng.integers(0, n_classes, size=shape).astype(np.int64)


def toy_model_cfg(**kw):
    base = dict(
        modalities=1,
        n_classes=2,
        input_shape=(16, 16, 16),
        encoder=EncoderConfig(stage_channels=(4, 4, 4, 4, 8), blocks_per_stage=1, mlp_ratio=1),
        attention=AttentionConfig(heads=2, dim=8, window=(1, 1, 1), qkv_dim=8, ffn_ratio=1),
        decoder=DecoderConfig(level_channels=(4, 4, 4, 4)),
        summary_tokens=2,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def sphere_case(shape=(16, 16, 16), radius=4.5, seed=0, noise=0.2):
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.mgrid[: shape[0], : shape[1], : shape[2]].astype(np.float64)
    centre = (np.asarray(shape) - 1) / 2
    dist2 = (zz - centre[0]) ** 2 + (yy - centre[1]) ** 2 + (xx - centre[2]) ** 2
    labels = (dist2 <= radius * radius).astype(np.int64)
    volume = labels[..., None] + rng.normal(0, noise, shape + (1,))
    return volume.astype(np.float32), labels


class TestTrainConfig:
    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            TrainConfig(dice_weight=-0.1)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ConfigError):
            TrainConfig(dice_weight=0.0, ce_weight=0.0)

    def test_one_zero_weight_is_fine(self):
        assert TrainConfig(dice_weight=0.0).ce_weight == 1.0

    def test_rejects_bad_steps_and_batch(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ConfigError):
            TrainConfig(betas=(0.9, 1.0))

    @pytest.mark.parametrize("betas", [(0.9,), (0.9, 0.999, 0.5), (), 0.9, (0.9, math.nan)],
                             ids=["one", "three", "none", "scalar", "nan"])
    def test_rejects_betas_that_are_not_two_numbers_in_range(self, betas):
        with pytest.raises(ConfigError, match="betas"):
            TrainConfig(betas=betas)

    @pytest.mark.parametrize("field", ["checkpoint_every", "val_every"])
    def test_rejects_negative_intervals(self, field):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: -1})
        assert getattr(TrainConfig(**{field: 0}), field) == 0


def onehot_cross_entropy(logits, labels):
    """Cross-entropy with the target logit picked by a one-hot product,
    kept as the oracle of the index gather."""
    onehot = Tensor(np.eye(logits.shape[-1], dtype=logits.dtype)[labels])
    shift = np.max(logits.data, axis=-1, keepdims=True)
    lse = ad.add(
        ad.tlog(ad.tsum(ad.texp(ad.sub(logits, Tensor(shift))), axis=-1)),
        Tensor(np.squeeze(shift, axis=-1)),
    )
    picked = ad.tsum(ad.mul(logits, onehot), axis=-1)
    return ad.tmean(ad.sub(lse, picked))


class TestCrossEntropy:
    def test_uniform_logits_ln4(self):
        logits = Tensor(np.zeros((4, 4, 4, 4)))
        labels = rand_labels(np.random.default_rng(0), n_classes=4)
        assert float(cross_entropy_loss(logits, labels).data) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_saturated_correct_logits_vanish(self):
        rng = np.random.default_rng(1)
        labels = rand_labels(rng)
        logits = Tensor(50.0 * np.eye(3)[labels] - 25.0)
        assert float(cross_entropy_loss(logits, labels).data) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rand_logits(rng)
        labels = rand_labels(rng)
        base = float(cross_entropy_loss(logits, labels).data)
        shifted = Tensor(logits.data + 123.0)
        assert float(cross_entropy_loss(shifted, labels).data) == pytest.approx(base, abs=1e-10)

    def test_huge_logits_stay_finite(self):
        rng = np.random.default_rng(3)
        logits = rand_logits(rng, scale=1000.0)
        labels = rand_labels(rng)
        assert np.isfinite(cross_entropy_loss(logits, labels).data)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        logits = rand_logits(rng)
        labels = rand_labels(rng)
        assert grad_check(lambda: cross_entropy_loss(logits, labels), [logits]) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,classes", [((4, 4, 4), 2), ((3, 2, 5), 3), ((2, 2, 2), 4)])
    def test_equals_onehot_pick_exactly(self, shape, classes, dtype):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = Tensor((3.0 * rng.normal(size=shape + (classes,))).astype(dtype),
                            requires_grad=True)
            labels = rand_labels(rng, shape, classes)
            assert_same_numbers(
                value_and_grads(lambda: cross_entropy_loss(logits, labels), [logits], seed),
                value_and_grads(lambda: onehot_cross_entropy(logits, labels), [logits], seed),
            )

    def test_label_out_of_range(self):
        logits = Tensor(np.zeros((2, 2, 2, 3)))
        with pytest.raises(ContractError):
            cross_entropy_loss(logits, np.full((2, 2, 2), 3, dtype=np.int64))

    def test_float_labels_rejected(self):
        logits = Tensor(np.zeros((2, 2, 2, 3)))
        with pytest.raises(ContractError, match="integers"):
            cross_entropy_loss(logits, np.zeros((2, 2, 2)))

    def test_extent_mismatch(self):
        logits = Tensor(np.zeros((2, 2, 2, 3)))
        with pytest.raises(ShapeError):
            cross_entropy_loss(logits, np.zeros((3, 3, 3), dtype=np.int64))

    def test_mask_class_count_mismatch(self):
        logits = Tensor(np.zeros((2, 2, 2, 3)))
        mask = SegmentationMask(np.zeros((2, 2, 2), dtype=np.int64), n_classes=2)
        with pytest.raises(ShapeError, match="classes"):
            cross_entropy_loss(logits, mask)


class TestSoftDice:
    def test_saturated_correct_logits(self):
        rng = np.random.default_rng(0)
        labels = rand_labels(rng)
        logits = Tensor(50.0 * np.eye(3)[labels] - 25.0)
        assert float(soft_dice_loss(logits, labels).data) < 1e-3

    def test_uniform_logits_balanced_target(self):
        # p_c = 0.5 everywhere, half the voxels in each class
        logits = Tensor(np.zeros((4, 4, 4, 2)))
        labels = np.zeros((4, 4, 4), dtype=np.int64)
        labels[:2] = 1
        loss = float(soft_dice_loss(logits, labels).data)
        assert 0.4999 < loss < 0.5
        assert loss == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        logits = rand_logits(rng, scale=3.0)
        labels = rand_labels(rng)
        loss = float(soft_dice_loss(logits, labels).data)
        assert 0.0 <= loss < 1.0 + 1e-5

    def test_gradients(self):
        rng = np.random.default_rng(6)
        logits = rand_logits(rng)
        labels = rand_labels(rng)
        assert grad_check(lambda: soft_dice_loss(logits, labels), [logits]) < 1e-6

    def test_class_count_mismatch(self):
        logits = Tensor(np.zeros((2, 2, 2, 3)))
        mask = SegmentationMask(np.zeros((2, 2, 2), dtype=np.int64), n_classes=2)
        with pytest.raises(ShapeError):
            soft_dice_loss(logits, mask)

    def test_smooth_term_regularizes_empty_class(self):
        # class 2 absent from the target and the prediction: ratio -> smooth/smooth
        labels = np.zeros((2, 2, 2), dtype=np.int64)
        logits = Tensor(50.0 * np.eye(3)[labels] - 25.0)
        assert float(soft_dice_loss(logits, labels).data) < 1e-3


class TestCombined:
    def test_zero_ce_weight_equals_dice(self):
        rng = np.random.default_rng(0)
        logits, labels = rand_logits(rng), rand_labels(rng)
        assert float(combined_loss(logits, labels, 1.0, 0.0).data) == float(
            soft_dice_loss(logits, labels).data
        )

    def test_zero_dice_weight_equals_ce(self):
        rng = np.random.default_rng(1)
        logits, labels = rand_logits(rng), rand_labels(rng)
        assert float(combined_loss(logits, labels, 0.0, 1.0).data) == float(
            cross_entropy_loss(logits, labels).data
        )

    def test_unit_weights_sum_exactly(self):
        rng = np.random.default_rng(2)
        logits, labels = rand_logits(rng), rand_labels(rng)
        total = float(combined_loss(logits, labels).data)
        assert total == float(soft_dice_loss(logits, labels).data) + float(
            cross_entropy_loss(logits, labels).data
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits, labels = rand_logits(rng, scale=4.0), rand_labels(rng)
        assert float(combined_loss(logits, labels).data) >= 0.0


class TestAdamW:
    def _named(self, values):
        return [(f"p{i}", Tensor(np.asarray(v, dtype=np.float64), requires_grad=True))
                for i, v in enumerate(values)]

    def test_zero_grads_zero_decay_fixed_point(self):
        named = self._named([[1.0, -2.0], [0.5]])
        before = [p.data.copy() for _, p in named]
        cfg = TrainConfig(weight_decay=0.0)
        state = init_opt_state(named)
        adamw_step(named, {n: np.zeros(p.shape) for n, p in named}, state, cfg)
        for (_, p), b in zip(named, before):
            assert np.array_equal(p.data, b)

    def test_zero_grads_pure_decay(self):
        named = self._named([[1.0, -2.0, 0.25]])
        before = named[0][1].data.copy()
        cfg = TrainConfig(lr=0.01, weight_decay=0.1)
        adamw_step(named, {"p0": np.zeros(3)}, init_opt_state(named), cfg)
        assert np.array_equal(named[0][1].data, before * (1.0 - 0.01 * 0.1))

    def test_matches_hand_iterated_recurrence(self):
        g = 0.3
        cfg = TrainConfig(lr=1e-2, weight_decay=1e-2)
        named = self._named([[1.0]])
        state = init_opt_state(named)
        for _ in range(2):
            adamw_step(named, {"p0": np.array([g])}, state, cfg)

        b1, b2 = cfg.betas
        p, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            p = p * (1 - cfg.lr * cfg.weight_decay) - cfg.lr * mh / (math.sqrt(vh) + cfg.eps)
        assert named[0][1].data[0] == pytest.approx(p, abs=1e-12)

    def test_nonfinite_grad_names_parameter(self):
        named = self._named([[1.0]])
        with pytest.raises(NumericError, match="p0"):
            adamw_step(named, {"p0": np.array([np.nan])}, init_opt_state(named), TrainConfig())

    def test_moments_shaped_like_params(self):
        named = self._named([[1.0, 2.0], [[3.0], [4.0]]])
        state = init_opt_state(named)
        for name, p in named:
            assert state.m[name].shape == p.shape
            assert state.v[name].shape == p.shape
        assert state.t == 0

    def test_quadratic_probe_descends(self):
        target = np.array([1.0, -2.0, 0.5])
        w = Tensor(np.zeros(3), requires_grad=True)
        cfg = TrainConfig(lr=1e-2, weight_decay=0.0)
        state = init_opt_state([("w", w)])

        def loss_value():
            d = w.data - target
            return float((d * d).sum())

        losses = [loss_value()]
        for _ in range(20):
            with Tape() as tape:
                d = ad.sub(w, Tensor(target))
                loss = ad.tsum(ad.mul(d, d))
            w.grad = None
            backward(loss, tape, leaves=[w])
            adamw_step([("w", w)], {"w": w.grad}, state, cfg)
            losses.append(loss_value())
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_first_step_linear_in_loss_terms(self):
        # power-of-two weights keep the scaling exact, so the combined tape
        # and the manually summed per-term gradients agree bit for bit
        rng = np.random.default_rng(9)
        data = rng.normal(size=(3, 3, 3, 2))
        labels = rand_labels(rng, (3, 3, 3), n_classes=2)
        wd, wc = 0.5, 2.0

        pa = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = combined_loss(pa, labels, wd, wc)
        backward(loss, tape, leaves=[pa])

        pb = Tensor(data.copy(), requires_grad=True)
        with Tape() as tape:
            dice = soft_dice_loss(pb, labels)
        backward(dice, tape, leaves=[pb])
        g_dice = pb.grad.copy()
        pb.grad = None
        with Tape() as tape:
            ce = cross_entropy_loss(pb, labels)
        backward(ce, tape, leaves=[pb])
        manual = wd * g_dice + wc * pb.grad
        assert np.array_equal(pa.grad, manual)

        cfg = TrainConfig(lr=1e-3)
        for p, g in ((pa, pa.grad), (pb, manual)):
            adamw_step([("p", p)], {"p": g}, init_opt_state([("p", p)]), cfg)
        assert np.array_equal(pa.data, pb.data)


class _PoisonAfter:
    """Returns clean samples for the first `clean` fetches, then NaN volumes."""

    def __init__(self, clean):
        self.volume, self.labels = sphere_case()
        self.clean = clean
        self.fetches = 0

    def __len__(self):
        return 1

    def __getitem__(self, idx):
        self.fetches += 1
        if self.fetches > self.clean:
            return np.full_like(self.volume, np.nan), self.labels
        return self.volume, self.labels


class TestTrainLoop:
    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            train(toy_model_cfg(), TrainConfig(steps=1), [], tmp_path)

    def test_log_schema(self, tmp_path):
        train(toy_model_cfg(), TrainConfig(steps=2, lr=1e-3), [sphere_case()], tmp_path)
        lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert list(rec) == ["step", "loss", "dice_loss", "ce_loss", "lr"]
        assert rec["step"] == 1 and rec["lr"] == 1e-3
        assert rec["loss"] == pytest.approx(rec["dice_loss"] + rec["ce_loss"])

    def test_wall_time_opt_in(self, tmp_path):
        cfg = TrainConfig(steps=1, log_wall_time=True)
        train(toy_model_cfg(), cfg, [sphere_case()], tmp_path)
        rec = json.loads((tmp_path / "train_log.jsonl").read_text().splitlines()[0])
        assert rec["wall_ms"] > 0

    def test_fixed_seed_reruns_bit_identical(self, tmp_path):
        data = [sphere_case(seed=s) for s in range(3)]
        for sub in ("a", "b"):
            train(toy_model_cfg(), TrainConfig(steps=3, seed=7), data, tmp_path / sub)
        log_a = (tmp_path / "a" / "train_log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "train_log.jsonl").read_bytes()
        assert log_a == log_b
        ck_a = (tmp_path / "a" / "checkpoint.ckpt").read_bytes()
        ck_b = (tmp_path / "b" / "checkpoint.ckpt").read_bytes()
        assert ck_a == ck_b

    def test_shuffle_seed_changes_sample_order(self, tmp_path):
        data = [sphere_case(seed=s, radius=2.0 + s) for s in range(3)]
        logs = []
        for seed in (0, 1):
            train(toy_model_cfg(), TrainConfig(steps=3, seed=seed), data, tmp_path / str(seed))
            logs.append((tmp_path / str(seed) / "train_log.jsonl").read_bytes())
        assert logs[0] != logs[1]

    def test_checkpoint_resume_metadata(self, tmp_path):
        train(toy_model_cfg(), TrainConfig(steps=2, checkpoint_every=1), [sphere_case()], tmp_path)
        model, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert meta["step"] == 2
        assert meta["opt"]["t"] == 2
        some = next(iter(meta["opt"]["m"].values()))
        assert np.isfinite(some).all()
        assert isinstance(model, Model)

    def test_nonfinite_loss_aborts_keeping_last_checkpoint(self, tmp_path):
        data = _PoisonAfter(clean=2)
        cfg = TrainConfig(steps=5, checkpoint_every=1)
        with pytest.raises(NumericError, match="non-finite loss"):
            train(toy_model_cfg(), cfg, data, tmp_path)
        model, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert meta["step"] == 2
        assert all(np.isfinite(p.data).all() for p in model.params())

    def test_validation_log(self, tmp_path):
        data = [sphere_case()]
        _, summary = train(
            toy_model_cfg(), TrainConfig(steps=2, val_every=1), data, tmp_path,
            val_dataset=data,
        )
        lines = (tmp_path / "val_log.jsonl").read_text().splitlines()
        assert len(lines) == 3  # two periodic + final
        assert json.loads(lines[-1])["final"] is True
        assert 0.0 <= summary["final_val_dice"] <= 1.0

    def test_batched_steps_run(self, tmp_path):
        data = [sphere_case(seed=s) for s in range(2)]
        _, summary = train(toy_model_cfg(), TrainConfig(steps=2, batch_size=2), data, tmp_path)
        assert summary["steps_run"] == 2

    def test_overfits_single_case(self, tmp_path):
        data = [sphere_case()]
        cfg = TrainConfig(steps=200, lr=3e-3, seed=0)
        _, summary = train(toy_model_cfg(), cfg, data, tmp_path, val_dataset=data)
        assert summary["final_val_dice"] > 0.95


class TestAblations:
    def test_registry_rows(self):
        assert set(ABLATIONS) == {
            "baseline-conv", "baseline-concat", "add-spatial", "add-cross",
            "full", "full-local-pool",
        }
        assert ABLATIONS["full"]["use_gated_skips"] is True
        assert ABLATIONS["add-cross"]["use_gated_skips"] is False

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown ablation"):
            ablation_model_config(toy_model_cfg(), "bigger-model")

    def test_flags_flow_into_model_config(self):
        mcfg = ablation_model_config(toy_model_cfg(), "baseline-conv")
        assert mcfg.encoder.block_kind == "conv"
        assert not mcfg.use_spatial_attention
        assert not mcfg.use_cross_attention
        assert not mcfg.use_gated_skips

    def test_concat_baseline_has_no_attention_parameters(self):
        model = Model(ablation_model_config(toy_model_cfg(), "baseline-concat"))
        names = [n for n, _ in model.named_params()]
        assert not any("fusion/layers" in n for n in names)
        assert not any("fusion/cross" in n for n in names)
        assert not any("gate_fc" in n for n in names)
        assert any("pool_proj" in n for n in names)  # encoder blocks unchanged

    def test_conv_baseline_swaps_encoder_blocks(self):
        model = Model(ablation_model_config(toy_model_cfg(), "baseline-conv"))
        assert not any("pool_proj" in n for n, _ in model.named_params())

    def test_cross_only_difference_is_cross_block(self):
        spatial = Model(ablation_model_config(toy_model_cfg(), "add-spatial"))
        cross = Model(ablation_model_config(toy_model_cfg(), "add-cross"))
        spatial_names = {n for n, _ in spatial.named_params()}
        cross_names = {n for n, _ in cross.named_params()}
        extra = cross_names - spatial_names
        assert extra and all("fusion/cross" in n or "summarize" in n for n in extra)
