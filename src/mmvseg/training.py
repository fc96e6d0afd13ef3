"""Losses, AdamW, and a deterministic training loop.

The loop is single-threaded and seeded end to end: sample order comes from
one generator, every logged record is a plain dict with a fixed key order,
and reruns with the same seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .errors import ConfigError, ContractError, NumericError, ShapeError, check_fields, is_number
from .metrics import as_mask, dice_score, predict
from .model import Model, save_checkpoint
from .nn import FlatParams, flat_views


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
        check_fields(self, (("lr", float, None), ("weight_decay", float, 0), ("eps", float, None),
                            ("dice_weight", float, 0), ("ce_weight", float, 0), ("smooth", float, 0),
                            ("steps", int, 1), ("batch_size", int, 1), ("seed", int, 0),
                            ("checkpoint_every", int, 0), ("val_every", int, 0),
                            ("log_wall_time", bool, None)))
        if self.lr <= 0 or self.eps <= 0:
            raise ConfigError(f"lr and eps must be > 0, got {self.lr} and {self.eps}")
        if self.dice_weight == 0 and self.ce_weight == 0:
            raise ConfigError("at least one loss weight must be positive")
        if (not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2
                or not all(is_number(b) and 0 <= b < 1 for b in self.betas)):
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = (float(self.betas[0]), float(self.betas[1]))


def _target_labels(logits, target, what):
    """Check a label volume or mask against logits and return its labels."""
    n_classes = logits.shape[-1]
    mask = as_mask(target, n_classes)
    if mask.n_classes != n_classes:
        raise ShapeError(f"{what}: target carries {mask.n_classes} classes, logits {n_classes}")
    if mask.shape != logits.shape[:-1]:
        raise ShapeError(
            f"{what}: target extents {mask.shape} do not match logits {logits.shape[:-1]}"
        )
    return mask.labels


def soft_dice_loss(logits: Tensor, target, smooth: float = 1e-5) -> Tensor:
    """1 minus the class-mean soft overlap ratio of softmax(logits) vs target."""
    labels = _target_labels(logits, target, "soft_dice_loss")
    n_classes = logits.shape[-1]
    onehot = Tensor(np.eye(n_classes, dtype=logits.dtype)[labels])
    probs = ad.softmax_last(logits)
    # numpy reduces the contiguous leading axes as the one axis of (-1, K) rows
    axes = tuple(range(logits.ndim - 1))
    inter = ad.tsum(ad.mul(probs, onehot), axis=axes)
    sums = ad.add(ad.tsum(probs, axis=axes), ad.tsum(onehot, axis=axes))
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


@dataclass
class OptimState:
    """AdamW's step count and its float64 moments, flat in `flat_views` order."""
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_step(params: FlatParams, grads, state: OptimState, cfg: TrainConfig):
    """One AdamW update in place from the flat gradient `grads`, with weight
    decay decoupled from the moments; a non-finite gradient changes nothing."""
    if not np.isfinite(grads).all():
        name = next(n for n, g in flat_views(params.named, grads) if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient for {name}")
    b1, b2 = cfg.betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t

    def kernel(g, p, m, v):
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g in float64, in place
        a = np.multiply(g, 1.0 - b1, dtype=np.float64)
        np.multiply(m, b1, out=m)
        m += a
        np.multiply(g, g, out=a, dtype=np.float64)
        a *= 1.0 - b2
        np.multiply(v, b2, out=v)
        v += a
        # update = (m/c1) / (sqrt(v/c2) + eps), then the decayed step
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += cfg.eps
        np.divide(np.divide(m, c1), a, out=a)
        a *= cfg.lr
        p[...] = np.subtract(p * (1.0 - cfg.lr * cfg.weight_decay), a, out=a)

    ad._by_rows(kernel, (grads,), params.data, state.m, state.v, block=ad._BLOCK)


def _mean_foreground_dice(model: Model, dataset) -> float:
    scores = []
    for volume, target in dataset:
        pred, truth = predict(model, volume, target)
        scores.extend(dice_score(pred, truth, cls) for cls in range(1, truth.n_classes))
    return sum(scores) / len(scores)


def train(model_cfg, train_cfg: TrainConfig, dataset, out_dir, val_dataset=None):
    """Run the seeded loop; returns (model, summary dict).

    Writes train_log.jsonl (one record per step), optional val_log.jsonl,
    and checkpoint.ckpt.  A non-finite loss aborts before the parameter
    update, so the last written checkpoint stays valid; the error names its
    step, or says that none was written.
    """
    if len(dataset) == 0:
        raise ContractError("training needs a nonempty dataset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = Model(model_cfg)
    params = FlatParams(model.named_params())
    opt = OptimState(np.zeros(params.data.size), np.zeros(params.data.size))
    order_rng = np.random.default_rng(train_cfg.seed)
    ckpt_path = out / "checkpoint.ckpt"
    train_log = out / "train_log.jsonl"
    val_log = out / "val_log.jsonl" if val_dataset is not None else None

    saved_step = None

    def save(step):
        nonlocal saved_step
        save_checkpoint(model, ckpt_path, step=step, opt_state=vars(opt))
        saved_step = step

    # a batch's mean gradient is summed in float64; a single sample's
    # gradient goes to the optimizer as it is
    batch_grad = np.empty(params.data.size) if train_cfg.batch_size > 1 else None
    order = []
    with open(train_log, "w") as log_fh, (open(val_log, "w") if val_log else nullcontext()) as val_fh:
        for step in range(1, train_cfg.steps + 1):
            t0 = perf_counter()
            if batch_grad is not None:
                batch_grad.fill(0.0)
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
                    kept = ("no checkpoint written" if saved_step is None
                            else f"checkpoint of step {saved_step} retained")
                    raise NumericError(f"non-finite loss at step {step} ({exc}); {kept}") from exc
                loss_sum += float(loss.data)
                dice_sum += float(dice_term.data)
                ce_sum += float(ce_term.data)
                params.grad.fill(0.0)
                backward(loss, tape)
                if batch_grad is not None:
                    batch_grad += params.grad / train_cfg.batch_size
            adamw_step(params, params.grad if batch_grad is None else batch_grad, opt, train_cfg)

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

            val_dice = None  # this step's validation score, reused as the final one
            if val_fh and train_cfg.val_every and step % train_cfg.val_every == 0:
                val_dice = _mean_foreground_dice(model, val_dataset)
                val_fh.write(json.dumps({"step": step, "dice": val_dice}) + "\n")
            if train_cfg.checkpoint_every and step % train_cfg.checkpoint_every == 0:
                save(step)

        summary = {
            "steps_run": train_cfg.steps,
            "final_loss": record["loss"],
        }
        if val_dataset is not None:
            final_dice = _mean_foreground_dice(model, val_dataset) if val_dice is None else val_dice
            val_fh.write(json.dumps(
                {"step": train_cfg.steps, "dice": final_dice, "final": True}
            ) + "\n")
            summary["final_val_dice"] = final_dice
    save(train_cfg.steps)
    return model, summary
