"""Losses, AdamW, and a deterministic training loop.

The loop is single-threaded and seeded end to end: sample order comes from
one generator, every logged record is a plain dict with a fixed key order,
and reruns with the same seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .metrics import SegmentationMask, dice_score
from .model import Model, save_checkpoint


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    steps: int = 100
    batch_size: int = 1
    seed: int = 0
    dice_weight: float = 1.0
    ce_weight: float = 1.0
    smooth: float = 1e-5
    checkpoint_every: int = 0  # 0 = only the final checkpoint
    val_every: int = 0
    log_wall_time: bool = False

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be nonnegative")
        if self.dice_weight < 0 or self.ce_weight < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.dice_weight == 0 and self.ce_weight == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if (not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2
                or not all(0 <= b < 1 for b in self.betas)):
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = (float(self.betas[0]), float(self.betas[1]))
        for name in ("checkpoint_every", "val_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0 (0 = off), got {getattr(self, name)}")


def _target_labels(logits, target, what):
    """Validate a label volume against logits and return its integer labels."""
    n_classes = logits.shape[-1]
    labels = target.labels if isinstance(target, SegmentationMask) else np.asarray(target)
    if isinstance(target, SegmentationMask) and target.n_classes != n_classes:
        raise ShapeError(
            f"{what}: target carries {target.n_classes} classes, logits {n_classes}"
        )
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"{what}: target extents {labels.shape} do not match logits {logits.shape[:-1]}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"{what}: target labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ContractError(
            f"{what}: labels must lie in [0, {n_classes}), found "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def soft_dice_loss(logits: Tensor, target, smooth: float = 1e-5) -> Tensor:
    """1 minus the class-mean soft overlap ratio of softmax(logits) vs target."""
    labels = _target_labels(logits, target, "soft_dice_loss")
    n_classes = logits.shape[-1]
    onehot = Tensor(np.eye(n_classes, dtype=logits.dtype)[labels])
    probs = ad.softmax_last(logits)
    flat_p = ad.reshape(probs, (-1, n_classes))
    flat_g = ad.reshape(onehot, (-1, n_classes))
    inter = ad.tsum(ad.mul(flat_p, flat_g), axis=0)
    sums = ad.add(ad.tsum(flat_p, axis=0), ad.tsum(flat_g, axis=0))
    ratio = ad.div(2.0 * inter + smooth, sums + smooth)
    return 1.0 - ad.tmean(ratio)


def cross_entropy_loss(logits: Tensor, target) -> Tensor:
    """Mean voxel-wise negative log-likelihood with a shifted log-sum-exp."""
    labels = _target_labels(logits, target, "cross_entropy_loss")
    n_classes = logits.shape[-1]
    shift = np.max(logits.data, axis=-1, keepdims=True)  # constant wrt the tape
    lse = ad.add(
        ad.tlog(ad.tsum(ad.texp(ad.sub(logits, Tensor(shift))), axis=-1)),
        Tensor(np.squeeze(shift, axis=-1)),
    )
    # each voxel's target logit, gathered from the flattened logits
    flat_index = np.arange(labels.size).reshape(labels.shape) * n_classes + labels
    picked = ad.take(ad.reshape(logits, (-1,)), flat_index, axis=0)
    return ad.tmean(ad.sub(lse, picked))


def combined_loss(logits: Tensor, target, dice_weight: float = 1.0,
                  ce_weight: float = 1.0, smooth: float = 1e-5) -> Tensor:
    return ad.add(
        dice_weight * soft_dice_loss(logits, target, smooth),
        ce_weight * cross_entropy_loss(logits, target),
    )


@dataclass
class OptimState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_opt_state(named_params) -> OptimState:
    state = OptimState()
    for name, p in named_params:
        state.m[name] = np.zeros(p.shape, dtype=np.float64)
        state.v[name] = np.zeros(p.shape, dtype=np.float64)
    return state


def adamw_step(named_params, grads, state: OptimState, cfg: TrainConfig):
    """One AdamW update in place; weight decay is decoupled from the moments."""
    b1, b2 = cfg.betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in named_params:
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
        p.data = (p.data * (1.0 - cfg.lr * cfg.weight_decay) - cfg.lr * update).astype(p.dtype)
    return state


def _mean_foreground_dice(model: Model, dataset) -> float:
    scores = []
    for volume, target in dataset:
        logits = model(volume).data
        labels = target.labels if isinstance(target, SegmentationMask) else np.asarray(target)
        n_classes = logits.shape[-1]
        pred = SegmentationMask(np.argmax(logits, axis=-1).astype(labels.dtype), n_classes)
        gt = SegmentationMask(labels, n_classes)
        for cls in range(1, n_classes):
            scores.append(dice_score(pred, gt, cls))
    return sum(scores) / len(scores)


def train(model_cfg, train_cfg: TrainConfig, dataset, out_dir, val_dataset=None):
    """Run the seeded loop; returns (model, summary dict).

    Writes train_log.jsonl (one record per step), optional val_log.jsonl,
    and checkpoint.ckpt.  A non-finite loss aborts before the parameter
    update, so the last written checkpoint stays valid.
    """
    if len(dataset) == 0:
        raise ContractError("training needs a nonempty dataset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = Model(model_cfg)
    named = list(model.named_params())
    opt = init_opt_state(named)
    order_rng = np.random.default_rng(train_cfg.seed)
    ckpt_path = out / "checkpoint.ckpt"
    train_log = out / "train_log.jsonl"
    val_log = out / "val_log.jsonl" if val_dataset is not None else None

    def save(step):
        save_checkpoint(model, ckpt_path, step=step,
                        opt_state={"t": opt.t, "m": opt.m, "v": opt.v})

    order = []
    with open(train_log, "w") as log_fh:
        val_fh = open(val_log, "w") if val_log else None
        try:
            for step in range(1, train_cfg.steps + 1):
                t0 = perf_counter()
                grads = {name: np.zeros(p.shape, dtype=np.float64) for name, p in named}
                loss_sum = dice_sum = ce_sum = 0.0
                for _ in range(train_cfg.batch_size):
                    if not order:
                        order = list(order_rng.permutation(len(dataset)))
                    volume, target = dataset[int(order.pop(0))]
                    try:
                        with Tape() as tape:
                            logits = model(volume)
                            dice_term = soft_dice_loss(logits, target, train_cfg.smooth)
                            ce_term = cross_entropy_loss(logits, target)
                            loss = ad.add(train_cfg.dice_weight * dice_term,
                                          train_cfg.ce_weight * ce_term)
                        if not np.isfinite(loss.data):
                            raise NumericError("loss is not finite")
                    except NumericError as exc:
                        raise NumericError(
                            f"non-finite loss at step {step} ({exc}); "
                            "last checkpoint retained"
                        ) from exc
                    loss_sum += float(loss.data)
                    dice_sum += float(dice_term.data)
                    ce_sum += float(ce_term.data)
                    params = [p for _, p in named]
                    for p in params:
                        p.grad = None
                    backward(loss, tape, leaves=params)
                    for name, p in named:
                        grads[name] += p.grad / train_cfg.batch_size
                adamw_step(named, grads, opt, train_cfg)

                record = {
                    "step": step,
                    "loss": loss_sum / train_cfg.batch_size,
                    "dice_loss": dice_sum / train_cfg.batch_size,
                    "ce_loss": ce_sum / train_cfg.batch_size,
                    "lr": train_cfg.lr,
                }
                if train_cfg.log_wall_time:
                    record["wall_ms"] = (perf_counter() - t0) * 1e3
                log_fh.write(json.dumps(record) + "\n")

                if val_fh and train_cfg.val_every and step % train_cfg.val_every == 0:
                    val_fh.write(json.dumps(
                        {"step": step, "dice": _mean_foreground_dice(model, val_dataset)}
                    ) + "\n")
                if train_cfg.checkpoint_every and step % train_cfg.checkpoint_every == 0:
                    save(step)

            summary = {
                "steps_run": train_cfg.steps,
                "final_loss": record["loss"],
                "checkpoint": str(ckpt_path),
                "train_log": str(train_log),
                "val_log": str(val_log) if val_log else None,
            }
            if val_dataset is not None:
                final_dice = _mean_foreground_dice(model, val_dataset)
                val_fh.write(json.dumps(
                    {"step": train_cfg.steps, "dice": final_dice, "final": True}
                ) + "\n")
                summary["final_val_dice"] = final_dice
        finally:
            if val_fh:
                val_fh.close()
    save(train_cfg.steps)
    return model, summary
