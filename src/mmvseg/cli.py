"""Command-line front end.

Subcommands: gen, train, eval, gradcheck, bench-attn, ablate, report.
Every run writes `manifest.json` into its --out directory before any real
work starts, with the fully resolved configuration; nothing is ever written
outside --out.  Exit codes: 0 success, 1 bad usage/validation, 2 runtime
failure (including a failing check suite).
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .data import PhantomSpec, load_dataset, save_dataset
from .data import split as split_indices
from .decoder import Decoder, DecoderConfig
from .encoder import GlobalPoolBlock
from .errors import ConfigError, FormatError, MMVSegError
from .fusion import (
    AttentionConfig,
    CrossModalityLayer,
    PositionEncodings,
    SpatialMixerLayer,
    TokenSeq,
    TokenSummarizer,
)
from .metrics import evaluate
from .model import (
    ABLATIONS,
    ModelConfig,
    ablation_model_config,
    benchmark_attention,
    load_checkpoint,
)
from .training import TrainConfig, cross_entropy_loss, soft_dice_loss, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally exits(2) on bad flags; route through exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


def _parse_triple(text, flag):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{flag} wants three comma-separated integers, got {text!r}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag} wants integers, got {text!r}") from None
    if any(v < 1 for v in values):
        raise ConfigError(f"{flag} entries must be positive, got {text!r}")
    return values


def _load_json(path, what):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {p} is not valid JSON: {exc}") from None


def _read_json(path, lines=False):
    """Parse a JSON file a run wrote or, with `lines`, a JSON-lines file into
    its records; a malformed file, or a JSON-lines file with no records, is a
    FormatError that names it."""
    text = Path(path).read_text()
    try:
        data = [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    if lines and not data:
        raise FormatError(f"{path} holds no records")
    return data


def _environment():
    """The numeric stack a run used, and the BLAS thread count in effect
    (None when no OpenBLAS is loaded)."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 only prints its build configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": ad.blas_threads(),
    }


def _write_manifest(out: Path, command, seed, config, artifacts):
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "op_workers": ad.OP_WORKERS,
        "environment": _environment(),
        "config": config,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- commands


def cmd_gen(args):
    spec_dict = _load_json(args.spec, "spec") if args.spec else {}
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    try:
        spec = PhantomSpec.from_dict(spec_dict)
    except TypeError as exc:
        raise ConfigError(f"bad spec field: {exc}") from None
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise ConfigError(f"--fractions wants numbers, got {args.fractions!r}") from None
    if len(fractions) != 3:
        raise ConfigError(f"--fractions wants three numbers, got {args.fractions!r}")
    # validated before any case is written
    train_idx, val_idx, test_idx = split_indices(args.cases, fractions, seed=spec.seed)
    out = Path(args.out)
    _write_manifest(
        out, "gen", spec.seed,
        {"spec": spec.to_dict(), "cases": args.cases, "fractions": list(fractions)},
        {"cases": out, "splits": out / "splits.json"},
    )
    save_dataset(out, spec, args.cases)
    (out / "splits.json").write_text(json.dumps(
        {"train": train_idx, "val": val_idx, "test": test_idx}, indent=2) + "\n")
    print(f"generated {args.cases} cases under {out} "
          f"(split {len(train_idx)}/{len(val_idx)}/{len(test_idx)})")
    return 0


def _split_indices(data_dir, n_cases, *names):
    """The case indices of each named split in data_dir/splits.json, checked
    against `n_cases`; None when the dataset has no splits.json."""
    splits_file = Path(data_dir) / "splits.json"
    if not splits_file.exists():
        return None
    splits = _read_json(splits_file)
    if not isinstance(splits, dict):
        raise FormatError(f"{splits_file} must hold an object of split lists, got {type(splits).__name__}")
    found = []
    for name in names:
        idx = splits.get(name, [])
        if not isinstance(idx, list) or not all(type(i) is int for i in idx):
            raise FormatError(f"{splits_file} {name} split must be a list of integers, got {idx!r}")
        bad = [i for i in idx if not 0 <= i < n_cases]
        if bad:
            raise ConfigError(f"splits.json {name} indices out of range: {bad}")
        found.append(idx)
    return found


def _load_split_datasets(data_dir):
    dataset = load_dataset(data_dir)
    found = _split_indices(data_dir, len(dataset), "train", "val")
    if found is None:
        return dataset, None
    train_idx, val_idx = found
    if not train_idx:
        raise ConfigError(f"{Path(data_dir) / 'splits.json'} has an empty train split; "
                          "regenerate the dataset with a nonzero train fraction")
    return [dataset[i] for i in train_idx], [dataset[i] for i in val_idx] or None


def cmd_train(args):
    if not Path(args.data).is_dir():
        raise FileNotFoundError(f"dataset directory not found: {args.data}")
    train_set, val_set = _load_split_datasets(args.data)
    volume, mask = train_set[0]

    model_dict = _load_json(args.model_config, "model config") if args.model_config else {}
    # the dataset is the source of truth for the interface extents
    model_dict["input_shape"] = list(volume.shape[:3])
    model_dict["modalities"] = volume.shape[3]
    model_dict["n_classes"] = mask.n_classes
    try:
        model_cfg = ModelConfig.from_dict(model_dict)
    except TypeError as exc:
        raise ConfigError(f"bad model config field: {exc}") from None
    if args.ablation:
        model_cfg = ablation_model_config(model_cfg, args.ablation)

    train_dict = _load_json(args.train_config, "train config") if args.train_config else {}
    for key in ("steps", "lr", "seed", "batch_size", "val_every"):
        value = getattr(args, key)
        if value is not None:
            train_dict[key] = value
    train_dict["log_wall_time"] = bool(args.wall_time)
    try:
        train_cfg = TrainConfig(**train_dict)
    except TypeError as exc:
        raise ConfigError(f"bad train config field: {exc}") from None

    out = Path(args.out)
    _write_manifest(
        out, "train", train_cfg.seed,
        {"model": model_cfg.to_dict(), "train": asdict(train_cfg),
         "data": str(args.data), "ablation": args.ablation},
        {"train_log": out / "train_log.jsonl", "checkpoint": out / "checkpoint.ckpt",
         **({"val_log": out / "val_log.jsonl"} if val_set else {})},
    )
    _, summary = train(model_cfg, train_cfg, train_set, out, val_dataset=val_set)
    line = f"trained {summary['steps_run']} steps, final loss {summary['final_loss']:.4f}"
    if "final_val_dice" in summary:
        line += f", val dice {summary['final_val_dice']:.4f}"
    print(line)
    return 0


def cmd_eval(args):
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    if not Path(args.data).is_dir():
        raise FileNotFoundError(f"dataset directory not found: {args.data}")
    dataset = load_dataset(args.data)
    cases = list(range(len(dataset)))
    if args.split != "all":
        found = _split_indices(args.data, len(dataset), args.split)
        if not found or not found[0]:
            raise ConfigError(f"eval --split {args.split} needs a nonempty {args.split} split "
                              f"in {Path(args.data) / 'splits.json'}")
        cases = found[0]
    out = Path(args.out)
    _write_manifest(
        out, "eval", 0,
        {"checkpoint": str(ckpt), "data": str(args.data), "split": args.split},
        {"csv": out / "metrics.csv", "json": out / "metrics.json"},
    )
    model, _ = load_checkpoint(ckpt)
    report = evaluate(model, [dataset[i] for i in cases], out_dir=out, case_ids=cases)
    print(f"evaluated {report['n_cases']} cases: mean dice {report['mean_dice']['mean']:.4f}")
    return 0


# ------------------------------------------------------- gradcheck suite


def gradcheck_suite(seed=0, tol=1e-4, eps=1e-4):
    """Finite-difference checks for every differentiable block.

    Each block is exercised on three random toy shapes; the row records the
    max relative error across shapes and parameters.  eps=1e-4 keeps the
    noise floor of structurally-zero gradients (softmax shift invariances)
    well under the tolerance.
    """
    rng = np.random.default_rng(seed)
    f64 = np.float64
    rows = []

    def run(name, builds, entries=None):
        # `entries` caps perturbed entries per tensor for blocks whose input
        # leaves are full volumes; grad_check still touches every tensor
        err = 0.0
        for build in builds:
            f, params = build()
            err = max(err, grad_check(f, params, eps=eps, max_entries=entries))
        rows.append({"block": name, "max_rel_err": err, "tolerance": tol,
                     "status": "pass" if err < tol else "FAIL"})

    def encoder_block(shape, c):
        def build():
            blk = GlobalPoolBlock(c, 2, rng, dtype=f64)
            x = Tensor(rng.normal(size=shape + (c,)), requires_grad=True)
            return (lambda: ad.tmean(blk(x))), blk.params() + [x]
        return build

    run("encoder-pool-block",
        [encoder_block((2, 2, 2), 3), encoder_block((3, 2, 4), 4), encoder_block((1, 3, 2), 5)])

    def branch(kind, grid, window):
        # kind None checks the whole mixer layer
        def build():
            cfg = AttentionConfig(heads=2, dim=8, window=window, qkv_dim=8, ffn_ratio=1)
            layer = SpatialMixerLayer(cfg, rng, dtype=f64)
            pos = PositionEncodings(grid, cfg, rng, dtype=f64)
            n = grid[0] * grid[1] * grid[2]
            tokens = Tensor(rng.normal(size=(n, 8)), requires_grad=True)
            if kind is None:
                fn = lambda: ad.tmean(layer(TokenSeq(tokens, grid), pos).tokens)
            else:
                fn = lambda: ad.tmean(getattr(layer, f"{kind}_branch")(tokens, grid, pos))
            return fn, layer.params() + pos.params() + [tokens]
        return build

    grids = [((2, 2, 2), (1, 2, 1)), ((4, 2, 2), (2, 1, 1)), ((2, 3, 2), (2, 3, 1))]
    for kind in ("axial", "planar", "window", None):
        run(f"mixer-{kind}-branch" if kind else "mixer-layer",
            [branch(kind, g, w) for g, w in grids])

    def summarizer(grid, c, p):
        def build():
            summ = TokenSummarizer(c, p, rng, dtype=f64)
            feat = Tensor(rng.normal(size=grid + (c,)), requires_grad=True)
            return (lambda: ad.tmean(summ(feat))), summ.params() + [feat]
        return build

    run("token-summarizer",
        [summarizer((2, 2, 2), 4, 2), summarizer((3, 2, 2), 6, 3), summarizer((1, 2, 2), 3, 4)])

    def cross(n, mp, c):
        def build():
            cfg = AttentionConfig(heads=2, dim=c, window=(1, 1, 1), qkv_dim=c, ffn_ratio=1)
            layer = CrossModalityLayer(cfg, rng, dtype=f64)
            q = Tensor(rng.normal(size=(n, c)), requires_grad=True)
            kv = Tensor(rng.normal(size=(mp, c)), requires_grad=True)
            fn = lambda: ad.tmean(layer(TokenSeq(q), TokenSeq(kv)).tokens)
            return fn, layer.params() + [q, kv]
        return build

    run("cross-modality-layer", [cross(8, 4, 4), cross(6, 2, 6), cross(4, 8, 8)])

    def gate(grid, c, m):
        def build():
            dec = Decoder(c, m, (c, c, c, c), DecoderConfig(level_channels=(c, c, c, c)),
                          rng, dtype=f64)
            n = grid[0] * grid[1] * grid[2]
            tokens = Tensor(rng.normal(size=(n, c)), requires_grad=True)
            shape = tuple(2 * g for g in grid)
            feats = [Tensor(rng.normal(size=shape + (c,)), requires_grad=True)
                     for _ in range(m)]
            fn = lambda: ad.tmean(dec.gated_skip(TokenSeq(tokens, grid), 4, feats))
            return fn, dec.gate_fc.params() + feats + [tokens]
        return build

    run("skip-gate", [gate((1, 1, 1), 2, 2), gate((2, 1, 1), 3, 2), gate((1, 2, 1), 2, 3)],
        entries=30)

    def decoder(grid, c, classes):
        def build():
            dec = Decoder(c, 1, (c, c, c, c), DecoderConfig(level_channels=(c, c, c, c),
                                                            out_classes=classes),
                          rng, dtype=f64, gated=False)
            bottleneck = Tensor(rng.normal(size=grid + (c,)), requires_grad=True)
            skips = [Tensor(rng.normal(size=tuple(g * 2 ** k for g in grid) + (c,)),
                            requires_grad=True)
                     for k in range(1, 5)]
            return (lambda: ad.tmean(dec(bottleneck, skips))), dec.params() + skips + [bottleneck]
        return build

    run("decoder", [decoder((1, 1, 1), 2, 2), decoder((1, 2, 1), 2, 3), decoder((2, 1, 1), 3, 2)],
        entries=15)

    def loss(fn, shape, classes):
        def build():
            logits = Tensor(rng.normal(size=shape + (classes,)), requires_grad=True)
            labels = rng.integers(0, classes, size=shape).astype(np.int64)
            return (lambda: fn(logits, labels)), [logits]
        return build

    for name, fn in (("soft-dice-loss", soft_dice_loss), ("cross-entropy-loss", cross_entropy_loss)):
        run(name, [loss(fn, (3, 3, 3), 2), loss(fn, (2, 4, 3), 3), loss(fn, (4, 2, 2), 4)])

    return rows


def cmd_gradcheck(args):
    out = Path(args.out)
    _write_manifest(out, "gradcheck", args.seed,
                    {"tolerance": 1e-4},
                    {"table": out / "gradcheck.csv"})
    rows = gradcheck_suite(seed=args.seed)
    _write_csv(out / "gradcheck.csv",
               ["block", "max_rel_err", "tolerance", "status"],
               [[r["block"], f"{r['max_rel_err']:.3e}", r["tolerance"], r["status"]]
                for r in rows])
    width = max(len(r["block"]) for r in rows)
    for r in rows:
        print(f"{r['block']:<{width}}  {r['max_rel_err']:.3e}  {r['status']}")
    if all(r["status"] == "pass" for r in rows):
        print(f"all {len(rows)} blocks pass at tolerance {rows[0]['tolerance']}")
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 2


def cmd_bench_attn(args):
    grids = [_parse_triple(g, "--grid") for g in args.grid]
    window = _parse_triple(args.window, "--window")
    out = Path(args.out)
    _write_manifest(out, "bench-attn", 0,
                    {"grids": [list(g) for g in grids], "window": list(window),
                     "channels": args.channels, "heads": args.heads,
                     "repeats": args.repeats},
                    {"csv": out / "bench_attn.csv"})
    header = ["grid", "window", "tokens", "pairs_full", "pairs_mixer",
              "counted_full", "counted_mixer", "ms_full", "ms_mixer"]
    lines = []
    for grid in grids:
        r = benchmark_attention(grid, window, channels=args.channels,
                                heads=args.heads, repeats=args.repeats)
        lines.append(["x".join(map(str, grid)), "x".join(map(str, window)),
                      r["tokens"], r["pairs_full"], r["pairs_mixer"],
                      r["counted_full"], r["counted_mixer"],
                      f"{r['ms_full']:.3f}", f"{r['ms_mixer']:.3f}"])
        ratio = r["pairs_full"] / r["pairs_mixer"]
        print(f"grid {lines[-1][0]}: full {r['pairs_full']} vs mixer "
              f"{r['pairs_mixer']} score pairs ({ratio:.1f}x), "
              f"{r['ms_full']:.2f} vs {r['ms_mixer']:.2f} ms")
    _write_csv(out / "bench_attn.csv", header, lines)
    return 0


def cmd_ablate(args):
    rows = args.rows.split(",") if args.rows else sorted(ABLATIONS)
    unknown = [r for r in rows if r not in ABLATIONS]
    if unknown:
        raise ConfigError(f"unknown ablation rows {unknown}; choose from {sorted(ABLATIONS)}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if not args.data and args.cases < 2:
        raise ConfigError(f"--cases must be >= 2 (one train and one val case), got {args.cases}")
    out = Path(args.out)
    _write_manifest(out, "ablate", args.seed,
                    {"rows": rows, "cases": args.cases, "steps": args.steps,
                     "seeds": args.seeds, "lr": args.lr, "data": args.data},
                    {"csv": out / "ablate.csv"})

    if args.data:
        if not Path(args.data).is_dir():
            raise FileNotFoundError(f"dataset directory not found: {args.data}")
        data_dir = Path(args.data)
    else:
        data_dir = out / "data"
        spec = PhantomSpec(shape=(16, 16, 16), modalities=2, n_classes=3,
                           objects_per_class=1, radius_range=(2.0, 4.0),
                           noise_sigma=0.05, seed=args.seed)
        save_dataset(data_dir, spec, args.cases)
    dataset = load_dataset(data_dir)
    if len(dataset) < 2:
        raise ConfigError(f"ablate needs >= 2 cases (one train and one val case), {data_dir} has {len(dataset)}")
    n_val = max(1, len(dataset) // 3)
    train_set, val_set = dataset[:-n_val], dataset[-n_val:]
    volume, mask = dataset[0]

    model_cfg = ModelConfig(
        modalities=volume.shape[3], n_classes=mask.n_classes,
        input_shape=volume.shape[:3],
        encoder={"stage_channels": [4, 4, 4, 4, 8], "blocks_per_stage": 1, "mlp_ratio": 1},
        attention={"heads": 2, "dim": 8, "window": [1, 1, 1], "qkv_dim": 8, "ffn_ratio": 1},
        decoder={"level_channels": [4, 4, 4, 4]},
        summary_tokens=4,
    )
    results = []
    for row in rows:
        row_cfg = ablation_model_config(model_cfg, row)
        dices = []
        for seed in range(args.seeds):
            tcfg = TrainConfig(steps=args.steps, lr=args.lr, seed=args.seed + seed)
            _, summary = train(row_cfg, tcfg, train_set,
                               out / "runs" / f"{row}-s{seed}", val_dataset=val_set)
            dices.append(summary["final_val_dice"])
        results.append((row, sum(dices) / len(dices)))

    results.sort(key=lambda rv: -rv[1])
    _write_csv(out / "ablate.csv", ["rank", "row", "mean_val_dice", "seeds"],
               [[i + 1, row, f"{dice:.4f}", args.seeds]
                for i, (row, dice) in enumerate(results)])
    for i, (row, dice) in enumerate(results):
        print(f"{i + 1}. {row}: {dice:.4f}")
    return 0


def cmd_report(args):
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    out = Path(args.out)
    _write_manifest(out, "report", 0, {"run": str(run_dir)},
                    {"out": out})
    produced = []

    train_log = run_dir / "train_log.jsonl"
    if train_log.exists():
        records = _read_json(train_log, lines=True)
        header = list(records[0])
        _write_csv(out / "loss_curve.csv", header,
                   [[rec.get(k) for k in header] for rec in records])
        produced.append("loss_curve.csv")

    val_log = run_dir / "val_log.jsonl"
    if val_log.exists():
        records = _read_json(val_log, lines=True)
        _write_csv(out / "val_curve.csv", ["step", "dice"],
                   [[rec["step"], rec["dice"]] for rec in records])
        produced.append("val_curve.csv")

    metrics = run_dir / "metrics.json"
    if metrics.exists():
        report = _read_json(metrics)
        _write_csv(out / "metrics_by_class.csv", ["class", "mean_dice", "mean_hd95"],
                   [[cls, report["mean_dice"][str(cls)], report["mean_hd95"][str(cls)]]
                    for cls in report["classes"]])
        produced.append("metrics_by_class.csv")

    if not produced:
        raise ConfigError(f"nothing to report: no train_log.jsonl, val_log.jsonl "
                          f"or metrics.json under {run_dir}")
    print(f"wrote {', '.join(produced)} to {out}")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser():
    parser = _Parser(prog="mmvseg",
                     description="multi-modal volumetric segmentation toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a phantom dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--spec", help="PhantomSpec JSON file (defaults otherwise)")
    g.add_argument("--cases", type=int, default=10)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--fractions", default="0.8,0.1,0.1",
                   help="train,val,test split fractions")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--out", required=True)
    t.add_argument("--data", required=True, help="dataset directory from `gen`")
    t.add_argument("--model-config", help="ModelConfig JSON overrides")
    t.add_argument("--train-config", help="TrainConfig JSON overrides")
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    t.add_argument("--val-every", dest="val_every", type=int, default=None)
    t.add_argument("--ablation", choices=sorted(ABLATIONS), default=None)
    t.add_argument("--wall-time", action="store_true",
                   help="add wall_ms to the JSONL log (breaks bit-exact reruns)")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--out", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("all", "train", "val", "test"), default="all",
                   help="score only this split of the dataset's splits.json (default: every case)")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="finite-difference check every block")
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_gradcheck)

    b = sub.add_parser("bench-attn", help="attention cost model vs measured time")
    b.add_argument("--out", required=True)
    b.add_argument("--grid", action="append", required=True,
                   help="comma triple, repeatable for a sweep")
    b.add_argument("--window", default="2,2,2")
    b.add_argument("--channels", type=int, default=128)
    b.add_argument("--heads", type=int, default=8)
    b.add_argument("--repeats", type=int, default=3)
    b.set_defaults(func=cmd_bench_attn)

    a = sub.add_parser("ablate", help="run the component-ablation matrix at toy scale")
    a.add_argument("--out", required=True)
    a.add_argument("--data", help="reuse an existing dataset directory")
    a.add_argument("--rows", help="comma list of registry rows (default: all)")
    a.add_argument("--cases", type=int, default=6)
    a.add_argument("--steps", type=int, default=30)
    a.add_argument("--seeds", type=int, default=1)
    a.add_argument("--lr", type=float, default=3e-3)
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_ablate)

    r = sub.add_parser("report", help="flatten run logs into plot-ready CSV")
    r.add_argument("--out", required=True)
    r.add_argument("--run", required=True, help="a train or eval output directory")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and stop
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, FileNotFoundError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MMVSegError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: runtime failures exit 2
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
