"""Acceptance suite: the eight primary checks for this package.

Each test prints one `[criterion N] PASS/FAIL` line (visible with `pytest -s`)
and asserts the stated tolerance.  Criteria 5 and 6 train small models and
dominate the runtime (a few minutes total on a laptop CPU).
"""

import itertools
import time

import numpy as np

from mmvseg.autodiff import Tensor
from mmvseg.cli import gradcheck_suite
from mmvseg.data import (
    PhantomSpec,
    generate_phantom,
    normalize,
    read_mask,
    read_mmv,
    write_mask,
    write_mmv,
)
from mmvseg.fusion import AttentionConfig, PositionEncodings, SpatialMixerLayer
from mmvseg.metrics import SegmentationMask, dice_score, hd95
from mmvseg.model import (
    Model,
    ModelConfig,
    ablation_model_config,
    attention_cost,
    benchmark_attention,
    load_checkpoint,
    save_checkpoint,
)
from mmvseg.training import TrainConfig, train


def _report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _phantom_cases(n, **spec_fields):
    """n normalized (volume, mask) pairs; case i reseeds the spec with seed+i."""
    base = PhantomSpec(**spec_fields)
    cases = []
    for i in range(n):
        spec = PhantomSpec(**{**base.to_dict(), "seed": base.seed + i})
        volume, mask = generate_phantom(spec)
        cases.append((normalize(volume).data.astype(np.float32), mask))
    return cases


def _mean_fg_dice(model, cases):
    scores = []
    for volume, mask in cases:
        pred = np.argmax(model(volume).data, axis=-1).astype(np.int64)
        pred_mask = SegmentationMask(pred, mask.n_classes)
        scores.append(
            np.mean([dice_score(pred_mask, mask, c) for c in range(1, mask.n_classes)])
        )
    return float(np.mean(scores))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rows = gradcheck_suite(seed=0, tol=1e-4)
    elapsed = time.perf_counter() - t0
    worst = max(r["max_rel_err"] for r in rows)
    ok = all(r["status"] == "pass" for r in rows) and elapsed < 300
    _report(1, ok, f"gradient suite: {len(rows)} blocks x 3 shapes, "
                   f"worst rel err {worst:.2e} < 1e-4, {elapsed:.0f}s < 300s")


# --------------------------------------------------------------- criterion 2


def _coords(grid):
    d, w, h = grid
    ks = np.arange(d * w * h)
    z, rem = ks // (w * h), ks % (w * h)
    return z, rem // h, rem % h


def _full_attention(attn, x_q, x_kv, mask=None, bias=None):
    """Brute-force multi-head attention on raw numpy inputs."""
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


def test_criterion_2_attention_oracle():
    divisors = {1: (1,), 2: (1, 2), 3: (1, 3)}
    worst, checked = 0.0, 0
    seed = 0
    for grid in itertools.product((1, 2, 3), repeat=3):
        windows = itertools.product(*(divisors[g] for g in grid))
        for window in windows:
            seed += 1
            cfg = AttentionConfig(heads=2, dim=8, window=window, qkv_dim=8, ffn_ratio=1)
            rng = np.random.default_rng(seed)
            layer = SpatialMixerLayer(cfg, rng, dtype=np.float64)
            pos = PositionEncodings(grid, cfg, rng, dtype=np.float64)
            pos.window_rel_bias.data[:] = 0.1 * rng.standard_normal(
                pos.window_rel_bias.shape
            )
            n = grid[0] * grid[1] * grid[2]
            tokens = rng.standard_normal((n, 8))
            z, y, x = _coords(grid)

            mask = (y[:, None] == y[None, :]) & (x[:, None] == x[None, :])
            want = _full_attention(layer.axial, *(tokens + pos.axial_abs.data[z],) * 2,
                                   mask=mask)
            got = layer.axial_branch(Tensor(tokens), pos).data
            worst = max(worst, float(np.max(np.abs(got - want))))

            mask = z[:, None] == z[None, :]
            rem = y * grid[2] + x
            want = _full_attention(layer.planar, *(tokens + pos.planar_abs.data[rem],) * 2,
                                   mask=mask)
            got = layer.planar_branch(Tensor(tokens), pos).data
            worst = max(worst, float(np.max(np.abs(got - want))))

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
            bias = np.stack([table[np.where(same, bucket, 0), h]
                             for h in range(cfg.heads)])
            want = _full_attention(layer.window, tokens, tokens, mask=same, bias=bias)
            got = layer.window_branch(Tensor(tokens), pos).data
            worst = max(worst, float(np.max(np.abs(got - want))))
            checked += 3
    ok = worst < 1e-10
    _report(2, ok, f"attention oracle: {checked} branch/grid/window combinations "
                   f"on grids up to 3x3x3, max |diff| {worst:.2e} < 1e-10")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_attention_cost():
    r = benchmark_attention((8, 8, 8), (2, 2, 2), repeats=5)
    closed_full = attention_cost((8, 8, 8), mode="full")
    closed_mixer = attention_cost((8, 8, 8), (2, 2, 2), mode="mixer")
    ok = (
        closed_full == r["counted_full"] == 262144
        and closed_mixer == r["counted_mixer"] == 40960
        and r["ms_mixer"] < r["ms_full"]
    )
    _report(3, ok, f"cost model at 8^3/2^3: mixer {closed_mixer} vs full {closed_full} "
                   f"score pairs ({closed_full / closed_mixer:.1f}x), counters match, "
                   f"wall {r['ms_mixer']:.1f} < {r['ms_full']:.1f} ms")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_parameter_count():
    model = Model(ModelConfig())  # 4 modalities, width 128, 32 summary tokens
    groups = {}
    for name, p in model.named_params():
        key = name.split("/")[0].split(".")[0]
        groups[key] = groups.get(key, 0) + p.data.size
    total = sum(groups.values())
    ok = 7_300_000 <= total <= 13_600_000
    parts = ", ".join(f"{k} {v:,}" for k, v in sorted(groups.items(), key=lambda kv: -kv[1]))
    _report(4, ok, f"default config total {total:,} params in [7.3M, 13.6M] ({parts})")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_overfit_smoke(tmp_path):
    cases = _phantom_cases(4, shape=(32, 32, 32), modalities=2, n_classes=3,
                           objects_per_class=2, radius_range=(3.0, 6.0),
                           noise_sigma=0.1, seed=21)
    cfg = ModelConfig(
        modalities=2, n_classes=3, input_shape=(32, 32, 32),
        encoder={"stage_channels": [8, 8, 8, 8, 16], "blocks_per_stage": 1, "mlp_ratio": 1},
        attention={"heads": 2, "dim": 16, "window": [2, 2, 2], "qkv_dim": 16, "ffn_ratio": 1},
        decoder={"level_channels": [8, 8, 8, 8]}, summary_tokens=4,
    )
    steps = 100  # budget allows up to 500
    t0 = time.perf_counter()
    model, _ = train(cfg, TrainConfig(steps=steps, lr=3e-3, seed=0), cases, tmp_path)
    minutes = (time.perf_counter() - t0) / 60.0
    dice = _mean_fg_dice(model, cases)
    ok = dice > 0.95 and steps <= 500 and minutes < 30
    _report(5, ok, f"overfit smoke: 2 modalities, 32^3, 4 cases -> training dice "
                   f"{dice:.4f} > 0.95 in {steps} steps, {minutes:.1f} min < 30")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_ablation_ordering(tmp_path):
    cases = _phantom_cases(20, shape=(16, 16, 16), modalities=2, n_classes=3,
                           objects_per_class=1, radius_range=(2.0, 4.0),
                           noise_sigma=0.05, seed=33)
    train_set, val_set = cases[:10], cases[10:]
    cfg = ModelConfig(
        modalities=2, n_classes=3, input_shape=(16, 16, 16),
        encoder={"stage_channels": [4, 4, 4, 4, 8], "blocks_per_stage": 1, "mlp_ratio": 1},
        attention={"heads": 2, "dim": 8, "window": [1, 1, 1], "qkv_dim": 8, "ffn_ratio": 1},
        decoder={"level_channels": [4, 4, 4, 4]}, summary_tokens=4,
    )
    means = {}
    for row in ("baseline-concat", "add-spatial", "add-cross", "full"):
        row_cfg = ablation_model_config(cfg, row)
        dices = []
        for seed in range(3):
            tcfg = TrainConfig(steps=300, lr=1e-3, seed=seed)
            _, summary = train(row_cfg, tcfg, train_set, tmp_path / f"{row}-s{seed}",
                               val_dataset=val_set)
            dices.append(summary["final_val_dice"])
        means[row] = float(np.mean(dices))
    chain = [means[r] for r in ("full", "add-cross", "add-spatial", "baseline-concat")]
    gaps = [chain[i] - chain[i + 1] for i in range(3)]
    ok = all(g >= -0.005 for g in gaps)
    shown = " >= ".join(f"{c:.4f}" for c in chain)
    _report(6, ok, f"ablation ordering over 3 seeds: full >= +cross >= +spatial >= "
                   f"baseline holds as {shown} (gaps {['%.4f' % g for g in gaps]})")


# --------------------------------------------------------------- criterion 7


def _brute_dice(a, b, cls):
    p, g = a == cls, b == cls
    if not p.any() and not g.any():
        return 1.0
    return 2.0 * np.logical_and(p, g).sum() / (p.sum() + g.sum())


def _brute_boundary(fg):
    # literal definition: in-class voxel with an out-of-class 6-neighbour,
    # where outside the volume counts as out-of-class
    out = np.zeros_like(fg)
    dd, hh, ww = fg.shape
    steps = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    for z in range(dd):
        for y in range(hh):
            for x in range(ww):
                if not fg[z, y, x]:
                    continue
                for dz, dy, dx in steps:
                    zz, yy, xx = z + dz, y + dy, x + dx
                    inside = 0 <= zz < dd and 0 <= yy < hh and 0 <= xx < ww
                    if not inside or not fg[zz, yy, xx]:
                        out[z, y, x] = True
                        break
    return out


def _brute_hd95(a, b, cls, spacing=(1.0, 1.0, 1.0)):
    pb = np.argwhere(_brute_boundary(a == cls)).astype(float) * np.asarray(spacing)
    gb = np.argwhere(_brute_boundary(b == cls)).astype(float) * np.asarray(spacing)
    if len(pb) == 0 and len(gb) == 0:
        return 0.0
    if len(pb) == 0 or len(gb) == 0:
        return float("inf")
    dist = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(axis=-1))
    return float(max(np.percentile(dist.min(axis=1), 95),
                     np.percentile(dist.min(axis=0), 95)))


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(77)
    worst_dice, worst_hd = 0.0, 0.0
    for pair in range(200):
        a = rng.integers(0, 3, size=(8, 8, 8)).astype(np.int64)
        b = rng.integers(0, 3, size=(8, 8, 8)).astype(np.int64)
        spacing = (1.5, 1.0, 0.5) if pair % 4 == 0 else (1.0, 1.0, 1.0)
        ma = SegmentationMask(a, 3, spacing=spacing)
        mb = SegmentationMask(b, 3, spacing=spacing)
        for cls in (0, 1, 2):
            worst_dice = max(worst_dice,
                             abs(dice_score(ma, mb, cls) - _brute_dice(a, b, cls)))
        for cls in (1, 2):
            worst_hd = max(worst_hd,
                           abs(hd95(ma, mb, cls) - _brute_hd95(a, b, cls, spacing)))
            assert hd95(ma, mb, cls) == hd95(mb, ma, cls)
            assert dice_score(ma, mb, cls) == dice_score(mb, ma, cls)

    # translation invariance: same blob pair shifted rigidly inside the volume
    a = np.zeros((8, 8, 8), dtype=np.int64)
    b = np.zeros((8, 8, 8), dtype=np.int64)
    a[1:3, 1:3, 1:3] = 1
    b[2:4, 1:3, 1:3] = 1
    shifted = [np.roll(np.roll(m, 2, axis=0), 3, axis=2) for m in (a, b)]
    pairs = [(SegmentationMask(m, 2) for m in (a, b)),
             (SegmentationMask(m, 2) for m in shifted)]
    (ma, mb), (sa, sb) = [tuple(p) for p in pairs]
    assert dice_score(ma, mb, 1) == dice_score(sa, sb, 1)
    assert hd95(ma, mb, 1) == hd95(sa, sb, 1)

    # empty-set conventions
    empty = SegmentationMask(np.zeros((8, 8, 8), dtype=np.int64), 2)
    assert dice_score(empty, empty, 1) == 1.0
    assert hd95(empty, empty, 1) == 0.0
    assert hd95(ma, empty, 1) == float("inf")

    ok = worst_dice < 1e-9 and worst_hd < 1e-9
    _report(7, ok, f"metric oracles: 200 random 8^3 pairs, dice max |diff| "
                   f"{worst_dice:.1e}, hd95 max |diff| {worst_hd:.1e}, both < 1e-9; "
                   f"symmetry/translation/empty conventions hold")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_io(tmp_path):
    cases = _phantom_cases(2, shape=(16, 16, 16), modalities=2, n_classes=3,
                           objects_per_class=1, radius_range=(2.0, 4.0),
                           noise_sigma=0.05, seed=9)
    cfg = ModelConfig(
        modalities=2, n_classes=3, input_shape=(16, 16, 16),
        encoder={"stage_channels": [4, 4, 4, 4, 8], "blocks_per_stage": 1, "mlp_ratio": 1},
        attention={"heads": 2, "dim": 8, "window": [1, 1, 1], "qkv_dim": 8, "ffn_ratio": 1},
        decoder={"level_channels": [4, 4, 4, 4]}, summary_tokens=2,
    )
    tcfg = TrainConfig(steps=5, lr=1e-3, seed=4)
    train(cfg, tcfg, cases, tmp_path / "a")
    train(cfg, tcfg, cases, tmp_path / "b")
    log_same = ((tmp_path / "a" / "train_log.jsonl").read_bytes()
                == (tmp_path / "b" / "train_log.jsonl").read_bytes())
    ckpt_same = ((tmp_path / "a" / "checkpoint.ckpt").read_bytes()
                 == (tmp_path / "b" / "checkpoint.ckpt").read_bytes())

    volume, mask = generate_phantom(PhantomSpec(shape=(16, 16, 16), modalities=2,
                                                n_classes=3, objects_per_class=1,
                                                radius_range=(2.0, 4.0), seed=3))
    write_mmv(tmp_path / "v1.mmv", volume)
    write_mmv(tmp_path / "v2.mmv", read_mmv(tmp_path / "v1.mmv"))
    volume_same = (tmp_path / "v1.mmv").read_bytes() == (tmp_path / "v2.mmv").read_bytes()

    write_mask(tmp_path / "m1.msk", mask)
    write_mask(tmp_path / "m2.msk", read_mask(tmp_path / "m1.msk"))
    mask_same = (tmp_path / "m1.msk").read_bytes() == (tmp_path / "m2.msk").read_bytes()

    save_checkpoint(Model(cfg), tmp_path / "c1.ckpt", step=1)
    reloaded, _ = load_checkpoint(tmp_path / "c1.ckpt")
    save_checkpoint(reloaded, tmp_path / "c2.ckpt", step=1)
    nfck_same = (tmp_path / "c1.ckpt").read_bytes() == (tmp_path / "c2.ckpt").read_bytes()

    ok = log_same and ckpt_same and volume_same and mask_same and nfck_same
    _report(8, ok, f"determinism/io: rerun log identical {log_same}, checkpoint "
                   f"identical {ckpt_same}, volume/mask/checkpoint round trips "
                   f"bit-exact {volume_same}/{mask_same}/{nfck_same}")
