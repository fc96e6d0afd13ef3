import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest

from mmvseg import Tensor, grad_check
from mmvseg import autodiff as ad
from mmvseg.decoder import Decoder, DecoderConfig
from mmvseg.errors import ConfigError, ShapeError
from test_tensor import assert_same_numbers, value_and_grads


class TestConfig:
    def test_rejects_wrong_level_count(self):
        with pytest.raises(ConfigError):
            DecoderConfig(level_channels=(8, 8))

    @pytest.mark.parametrize("levels", [(4.9, 4, 4, 4), (4, 4, False, 4), (4, 4, 4, "4")])
    def test_rejects_non_integer_widths(self, levels):
        with pytest.raises(ConfigError, match="level_channels entry must be an integer"):
            DecoderConfig(level_channels=levels)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            Decoder(4, 2, (3, 3, 2, 2), DecoderConfig(), np.random.default_rng(0), n_classes=1)


def make_decoder(c=4, m=2, skips=(3, 3, 2, 2), levels=(4, 3, 3, 2), classes=2, seed=1, dtype=np.float64):
    cfg = DecoderConfig(level_channels=levels)
    return Decoder(c, m, skips, cfg, np.random.default_rng(seed), dtype=dtype, n_classes=classes), cfg


def old_gated_skip(dec, fused, level, feats):
    """The per-level formula the gate chain replaced, kept as its oracle: a
    fresh projection of the fused volume, upsampled 5 - level times."""
    logits = dec.gate_fc(fused)
    for _ in range(5 - level):
        logits = ad.upsample2x(logits)
    return ad.gated_sum(ad.sigmoid(logits), feats)


class TestImportance:
    def _fused(self, c=4, grid=(2, 2, 2), seed=2):
        return Tensor(np.random.default_rng(seed).normal(size=grid + (c,)))

    @staticmethod
    def _gates(dec, fused, n_levels, m=2):
        """The gates of the first `n_levels` levels, read off `skips` by
        feeding modality i a one-hot channel i: level k's skip is its (D, H,
        W, M) gate volume."""
        extents = [tuple(2 ** k * g for g in fused.shape[:3]) for k in range(1, n_levels + 1)]
        levels = [[Tensor(np.broadcast_to(np.eye(m)[i], e + (m,)).copy()) for i in range(m)]
                  for e in extents]
        return [skip.data for skip in dec.skips(fused, levels)]

    def test_level4_doubles_once(self):
        dec, _ = make_decoder()
        assert self._gates(dec, self._fused(), 1)[0].shape == (4, 4, 4, 2)

    def test_level1_reaches_full_resolution(self):
        dec, _ = make_decoder()
        shapes = [g.shape for g in self._gates(dec, self._fused(), 4)]
        assert shapes == [(4, 4, 4, 2), (8, 8, 8, 2), (16, 16, 16, 2), (32, 32, 32, 2)]

    def test_ungated_skips_are_the_feature_sums(self):
        dec = Decoder(4, 3, (3, 3, 2, 2), DecoderConfig(level_channels=(4, 3, 3, 2)),
                      np.random.default_rng(1), dtype=np.float64, gated=False)
        rng = np.random.default_rng(3)
        levels = [[Tensor(rng.normal(size=(2 ** k,) * 3 + (3,))) for _ in range(3)]
                  for k in range(2, 5)]
        skips = dec.skips(self._fused(), levels)
        assert dec.gate_fc is None and len(skips) == 3
        for skip, (a, b, c) in zip(skips, levels, strict=True):
            assert np.array_equal(skip.data, a.data + b.data + c.data)

    def test_zero_fc_gives_half_everywhere(self):
        dec, _ = make_decoder()
        dec.gate_fc.w.data[:] = 0.0
        dec.gate_fc.b.data[:] = 0.0
        for gates in self._gates(dec, self._fused(), 4):
            assert np.array_equal(gates, np.full_like(gates, 0.5))

    def test_large_bias_saturates_to_one(self):
        dec, _ = make_decoder()
        dec.gate_fc.w.data[:] = 0.0
        dec.gate_fc.b.data[:] = 50.0
        for gates in self._gates(dec, self._fused(), 3):
            assert np.max(np.abs(gates - 1.0)) < 1e-15

    def test_values_strictly_inside_unit_interval(self):
        dec, _ = make_decoder()
        dec.gate_fc.w.data[:] = np.random.default_rng(4).normal(size=dec.gate_fc.w.shape)
        for gates in self._gates(dec, self._fused(seed=5), 2):
            assert (gates > 0.0).all() and (gates < 1.0).all()

    def test_monotone_in_bias(self):
        dec, _ = make_decoder()
        fused = self._fused(seed=6)
        before = self._gates(dec, fused, 2)
        dec.gate_fc.b.data += 1.0
        for old, new in zip(before, self._gates(dec, fused, 2), strict=True):
            assert (new >= old).all() and new.mean() > old.mean()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_per_level_projection_exactly(self, dtype):
        dec, _ = make_decoder(dtype=dtype)
        rng = np.random.default_rng(30)
        dec.gate_fc.w.data[:] = rng.normal(size=dec.gate_fc.w.shape)
        dec.gate_fc.b.data[:] = rng.normal(size=dec.gate_fc.b.shape)
        fused = Tensor(rng.normal(size=(2, 2, 2, 4)).astype(dtype))
        levels = [[Tensor(rng.normal(size=(2 ** k,) * 3 + (3,)).astype(dtype)) for _ in range(2)]
                  for k in range(2, 6)]
        skips = dec.skips(fused, levels)
        assert len(skips) == 4
        for level, skip, feats in zip((4, 3, 2, 1), skips, levels):
            want = old_gated_skip(dec, fused, level, feats).data
            assert skip.data.dtype == dtype and np.array_equal(skip.data, want)

    def test_one_projection_and_one_upsample_per_level(self):
        dec, _ = make_decoder()
        rng = np.random.default_rng(31)
        fused = Tensor(rng.normal(size=(1, 1, 1, 4)), requires_grad=True)
        levels = [[Tensor(rng.normal(size=(2 ** k,) * 3 + (3,))) for _ in range(2)]
                  for k in range(1, 5)]
        with ad.Tape() as tape:
            dec.skips(fused, levels)
        ops = [node.op for node in tape.nodes]
        assert ops.count("linear") == 1 and ops.count("upsample2x") == 4
        assert ops.count("sigmoid") == 4

    def test_gate_gradients(self):
        dec, _ = make_decoder()
        fused = self._fused(seed=7)
        feats = [Tensor(np.random.default_rng(8 + i).normal(size=(4, 4, 4, 5))) for i in range(2)]
        f = lambda: ad.tmean(dec.skips(fused, [feats])[0])
        assert grad_check(f, dec.gate_fc.params()) < 1e-4

    @pytest.mark.parametrize("n_levels", [2, 3])
    def test_gate_gradients_through_shared_levels(self, n_levels):
        # every level's loss reaches gate_fc through the one projection and
        # the upsample chain the levels share
        dec, _ = make_decoder()
        rng = np.random.default_rng(40 + n_levels)
        dec.gate_fc.w.data[:] = rng.normal(scale=0.5, size=dec.gate_fc.w.shape)
        fused = Tensor(rng.normal(size=(1, 2, 1, 4)), requires_grad=True)
        levels = [[Tensor(rng.normal(size=(2 ** k, 2 ** (k + 1), 2 ** k, 3))) for _ in range(2)]
                  for k in range(1, n_levels + 1)]
        weights = [Tensor(rng.normal(size=(2 ** k, 2 ** (k + 1), 2 ** k, 3)))
                   for k in range(1, n_levels + 1)]

        def f():
            skips = dec.skips(fused, levels)
            return reduce(ad.add, [ad.tmean(ad.mul(s, w)) for s, w in zip(skips, weights)])

        assert grad_check(f, dec.gate_fc.params() + [fused]) < 1e-4


def onehot_gated_sum(importance, feats):
    """The gated sum with each gate picked by a one-hot (M, 1) matmul, kept
    as the oracle of the index gather."""
    m = importance.shape[-1]
    out = None
    for i, feat in enumerate(feats):
        pick = np.zeros((m, 1), dtype=importance.dtype)
        pick[i, 0] = 1.0
        gated = ad.mul(feat, ad.matmul(importance, Tensor(pick)))
        out = gated if out is None else ad.add(out, gated)
    return out


class TestModalityGatedSum:
    def test_identity_gate_single_modality(self):
        feat = Tensor(np.random.default_rng(10).normal(size=(2, 2, 2, 3)))
        out = ad.gated_sum(Tensor(np.ones((2, 2, 2, 1))), [feat])
        assert np.array_equal(out.data, feat.data)

    def test_binary_gates_select_first_modality(self):
        rng = np.random.default_rng(11)
        feats = [Tensor(rng.normal(size=(2, 2, 2, 3))) for _ in range(2)]
        gates = np.zeros((2, 2, 2, 2))
        gates[..., 0] = 1.0
        out = ad.gated_sum(Tensor(gates), feats)
        assert np.array_equal(out.data, feats[0].data)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(12)
        gates = rng.uniform(size=(2, 2, 2, 2))
        feats = [rng.normal(size=(2, 2, 2, 4)) for _ in range(2)]
        out = ad.gated_sum(Tensor(gates), [Tensor(f) for f in feats]).data
        expected = sum(gates[..., i : i + 1] * feats[i] for i in range(2))
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_linear_in_features(self):
        rng = np.random.default_rng(13)
        gates = Tensor(rng.uniform(size=(2, 2, 2, 2)))
        f = [rng.normal(size=(2, 2, 2, 3)) for _ in range(2)]
        g = [rng.normal(size=(2, 2, 2, 3)) for _ in range(2)]
        a, b = 2.0, -3.0
        combo = ad.gated_sum(gates, [Tensor(a * fi + b * gi) for fi, gi in zip(f, g)]).data
        parts = (
            a * ad.gated_sum(gates, [Tensor(fi) for fi in f]).data
            + b * ad.gated_sum(gates, [Tensor(gi) for gi in g]).data
        )
        assert np.max(np.abs(combo - parts)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_onehot_matmul_exactly(self, m, dtype):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            gates = Tensor(rng.uniform(size=(2, 3, 2, m)).astype(dtype), requires_grad=True)
            feats = [Tensor(rng.normal(size=(2, 3, 2, 4)).astype(dtype), requires_grad=True)
                     for _ in range(m)]
            leaves = [gates] + feats
            assert_same_numbers(
                value_and_grads(lambda: ad.gated_sum(gates, feats), leaves, seed),
                value_and_grads(lambda: onehot_gated_sum(gates, feats), leaves, seed),
            )

    def test_modality_count_mismatch(self):
        with pytest.raises(ShapeError):
            ad.gated_sum(Tensor(np.ones((2, 2, 2, 2))), [Tensor(np.zeros((2, 2, 2, 3)))])

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ad.gated_sum(Tensor(np.ones((2, 2, 2, 1))), [Tensor(np.zeros((2, 2, 4, 3)))])

    def test_one_channel_feature_beside_wider_ones_is_a_shape_error(self):
        # numpy would broadcast the 1-channel volume across the others' channels
        feats = [Tensor(np.ones((2, 2, 2, 1))), Tensor(np.ones((2, 2, 2, 3)))]
        with pytest.raises(ShapeError):
            ad.gated_sum(Tensor(np.ones((2, 2, 2, 2))), feats)

    def test_features_of_unequal_widths_are_a_shape_error(self):
        feats = [Tensor(np.ones((2, 2, 2, 3))), Tensor(np.ones((2, 2, 2, 4)))]
        with pytest.raises(ShapeError):
            ad.gated_sum(Tensor(np.ones((2, 2, 2, 2))), feats)

    def test_untaped_sum_allocates_little_beyond_its_output(self, monkeypatch):
        # a 32^3 x 32 level with four modalities: the gated volumes and
        # partial sums live in per-block scratch, not in full-size arrays.
        # Two op workers, so the scratch is the same on every host
        if ad._POOL is None:
            monkeypatch.setattr(ad, "_POOL", ThreadPoolExecutor(1))
        monkeypatch.setattr(ad, "OP_WORKERS", 2)
        rng = np.random.default_rng(14)
        gates = Tensor(rng.uniform(size=(32, 32, 32, 4)).astype(np.float32))
        feats = [Tensor(rng.normal(size=(32, 32, 32, 32)).astype(np.float32)) for _ in range(4)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.gated_sum(gates, feats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes


class TestDecoder:
    def _inputs(self, rng, c=4, skips=(3, 3, 2, 2), grid=(1, 1, 1)):
        bottleneck = Tensor(rng.normal(size=grid + (c,)))
        vols = []
        for level, ch in zip((4, 3, 2, 1), skips):
            extents = tuple(g * 2 ** (5 - level) for g in grid)
            vols.append(Tensor(rng.normal(size=extents + (ch,))))
        return bottleneck, vols

    def test_output_shape(self):
        dec, _ = make_decoder(classes=3)
        bottleneck, skips = self._inputs(np.random.default_rng(20))
        assert dec(bottleneck, skips).shape == (16, 16, 16, 3)

    def test_zero_inputs_zero_logits(self):
        dec, _ = make_decoder()
        out = dec(Tensor(np.zeros((1, 1, 1, 4))), [
            Tensor(np.zeros((2, 2, 2, 3))),
            Tensor(np.zeros((4, 4, 4, 3))),
            Tensor(np.zeros((8, 8, 8, 2))),
            Tensor(np.zeros((16, 16, 16, 2))),
        ])
        assert not out.data.any()

    def test_wrong_skip_count(self):
        dec, _ = make_decoder()
        bottleneck, skips = self._inputs(np.random.default_rng(21))
        with pytest.raises(ShapeError):
            dec(bottleneck, skips[:3])

    def test_skip_extent_mismatch(self):
        dec, _ = make_decoder()
        bottleneck, skips = self._inputs(np.random.default_rng(22))
        skips[1] = Tensor(np.zeros((8, 4, 4, 3)))
        with pytest.raises(ShapeError):
            dec(bottleneck, skips)

    def test_gradients_at_16_cube(self):
        dec, _ = make_decoder(c=2, m=2, skips=(2, 2, 1, 1), levels=(2, 2, 2, 2), seed=23)
        bottleneck, skips = self._inputs(np.random.default_rng(24), c=2, skips=(2, 2, 1, 1))
        f = lambda: ad.tmean(dec(bottleneck, skips))
        assert grad_check(f, dec.params()) < 1e-4
