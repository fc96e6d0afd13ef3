"""Command-line front end.

Subcommands: gen, train, eval, gradcheck, bench-attn, ablate, report.
Every command reads and checks all of its inputs (arguments, configs,
datasets, checkpoints, run logs) before it writes `manifest.json` (the fully
resolved configuration) into --out, so a refused command leaves no --out;
`ablate` without --data still generates its cases under --out first.
Nothing is ever written outside --out.  Exit codes: 0 success, 1 bad
usage/validation, 2 runtime failure (including a failing check suite).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .data import PhantomSpec, case_interface, load_dataset, save_dataset, zero_modality_messages
from .data import split as split_indices
from .decoder import Decoder, DecoderConfig
from .encoder import EncoderConfig, EncoderStage, GlobalPoolBlock
from .errors import ConfigError, FormatError, MMVSegError
from .fusion import (
    AttentionConfig,
    CrossModalityLayer,
    PositionEncodings,
    SpatialMixerLayer,
    TokenSummarizer,
)
from .metrics import evaluate, write_csv
from .model import (
    ABLATIONS,
    ModelConfig,
    ablation_model_config,
    attention_cost_terms,
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


def _git_revision(where):
    """The commit checked out at `where`; None outside a git checkout or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=where, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment():
    """The numeric stack a run used, the BLAS thread count in effect (None
    when no OpenBLAS is loaded), the CPUs the process may run on and the
    git revision of the package's source (None outside a checkout)."""
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
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": _git_revision(Path(__file__).parent),
    }


def _build(make, fields, what):
    """`make(fields)` for a dict of config fields; the TypeError of an
    unknown, missing or malformed field is a ConfigError naming `what`."""
    try:
        return make(fields)
    except TypeError as exc:
        raise ConfigError(f"bad {what} field: {exc}") from None


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


# ---------------------------------------------------------------- commands


def cmd_gen(args):
    spec_dict = _load_json(args.spec, "spec") if args.spec else {}
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = _build(PhantomSpec.from_dict, spec_dict, "spec")
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise ConfigError(f"--fractions wants numbers, got {args.fractions!r}") from None
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


def _read_splits(data_dir):
    """The train, val and test index lists of data_dir/splits.json (a
    missing list is empty); None when the dataset has no splits.json.  The
    lists must be disjoint and list no case twice."""
    if not Path(data_dir).is_dir():
        raise FileNotFoundError(f"dataset directory not found: {data_dir}")
    splits_file = Path(data_dir) / "splits.json"
    if not splits_file.exists():
        return None
    splits = _read_json(splits_file)
    if not isinstance(splits, dict):
        raise FormatError(f"{splits_file} must hold an object of split lists, got {type(splits).__name__}")
    found = {name: splits.get(name, []) for name in ("train", "val", "test")}
    for name, idx in found.items():
        if not isinstance(idx, list) or not all(type(i) is int for i in idx):
            raise FormatError(f"{splits_file} {name} split must be a list of integers, got {idx!r}")
    repeated = sorted(i for i, n in Counter(i for idx in found.values() for i in idx).items() if n > 1)
    if repeated:
        raise ConfigError(f"{splits_file} lists cases {repeated} more than once; "
                          "its splits must be disjoint")
    return found


def _check_trainable(train_set, indices, data_dir):
    """Refuse training cases with a modality that normalizes to all zeros,
    on which float32 training overflowed."""
    for i, (volume, _) in zip(indices, train_set):
        problems = zero_modality_messages(volume, f"training case {i} of {data_dir}")
        if problems:
            raise ConfigError(problems[0])


def cmd_train(args):
    splits = _read_splits(args.data)
    if splits is not None and not splits["train"]:
        raise ConfigError(f"{Path(args.data) / 'splits.json'} has an empty train split; "
                          "regenerate the dataset with a nonzero train fraction")
    # without a splits.json every case is a training case
    dataset = load_dataset(args.data, splits and splits["train"] + splits["val"])
    train_idx = splits["train"] if splits else range(len(dataset))
    train_set, val_set = dataset[:len(train_idx)], dataset[len(train_idx):] or None
    _check_trainable(train_set, train_idx, args.data)
    model_dict = _load_json(args.model_config, "model config") if args.model_config else {}
    # the dataset is the source of truth for the interface fields
    model_dict.update(case_interface(*dataset[0]))
    model_cfg = _build(ModelConfig.from_dict, model_dict, "model config")
    if args.ablation:
        model_cfg = ablation_model_config(model_cfg, args.ablation)

    train_dict = _load_json(args.train_config, "train config") if args.train_config else {}
    for key in ("steps", "lr", "seed", "batch_size", "val_every"):
        value = getattr(args, key)
        if value is not None:
            train_dict[key] = value
    if args.wall_time:
        train_dict["log_wall_time"] = True
    train_cfg = _build(lambda fields: TrainConfig(**fields), train_dict, "train config")

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
    cases = None
    if args.split != "all":
        cases = (_read_splits(args.data) or {}).get(args.split)
        if not cases:
            raise ConfigError(f"eval --split {args.split} needs a nonempty {args.split} split "
                              f"in {Path(args.data) / 'splits.json'}")
    dataset = load_dataset(args.data, cases)
    model, _ = load_checkpoint(ckpt, moments=False)
    interface = case_interface(*dataset[0])
    expected = {name: getattr(model.cfg, name) for name in interface}
    if interface != expected:
        raise ConfigError(f"checkpoint {ckpt} takes {expected}, "
                          f"but the cases of {args.data} have {interface}")
    out = Path(args.out)
    _write_manifest(
        out, "eval", 0,
        {"checkpoint": str(ckpt), "data": str(args.data), "split": args.split},
        {"csv": out / "metrics.csv", "json": out / "metrics.json"},
    )
    report = evaluate(model, dataset, out_dir=out, case_ids=cases)
    print(f"evaluated {report['n_cases']} cases: mean dice {report['mean_dice']['mean']:.4f}")
    return 0


# ------------------------------------------------------- gradcheck suite


def gradcheck_suite(seed=0, tol=1e-4):
    """Finite-difference checks for every differentiable block.

    Each table row names a block, a builder that draws the block and its
    input leaves from `rng` and returns (objective, parameters), its
    arguments for three random toy shapes, and a cap on perturbed entries per
    tensor for blocks whose input leaves are full volumes.  The row records
    the max relative error across shapes and parameters.  A step of 1e-4
    keeps the noise floor of structurally-zero gradients (softmax shift
    invariances) well under the tolerance.
    """
    rng = np.random.default_rng(seed)
    f64 = np.float64

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def pool_block(shape, c):
        blk = GlobalPoolBlock(c, 2, rng, dtype=f64)
        x = leaf(*shape, c)
        return (lambda: ad.tmean(blk(x))), blk.params() + [x]

    def mixer(branch, grid, window):
        # branch None checks the whole mixer layer
        cfg = AttentionConfig(heads=2, dim=8, window=window, qkv_dim=8, ffn_ratio=1)
        layer = SpatialMixerLayer(cfg, rng, dtype=f64)
        pos = PositionEncodings(grid, cfg, rng, dtype=f64)
        tokens = leaf(grid[0] * grid[1] * grid[2], 8)
        fn = layer if branch is None else getattr(layer, branch)
        return (lambda: ad.tmean(fn(tokens, pos))), layer.params() + pos.params() + [tokens]

    def summarizer(grid, c, p):
        summ = TokenSummarizer(c, p, rng, dtype=f64)
        feat = leaf(*grid, c)
        return (lambda: ad.tmean(summ(feat))), summ.params() + [feat]

    def cross(n, mp, c):
        cfg = AttentionConfig(heads=2, dim=c, window=(1, 1, 1), qkv_dim=c, ffn_ratio=1)
        layer = CrossModalityLayer(cfg, rng, dtype=f64)
        q, kv = leaf(n, c), leaf(mp, c)
        return (lambda: ad.tmean(layer(q, kv))), layer.params() + [q, kv]

    def gate(grid, c, m):
        dec = Decoder(c, m, (c,) * 4, DecoderConfig(level_channels=(c,) * 4), rng, dtype=f64)
        fused = leaf(*grid, c)
        feats = [leaf(*(2 * g for g in grid), c) for _ in range(m)]
        return (lambda: ad.tmean(dec.skips(fused, [feats])[0])), dec.gate_fc.params() + feats + [fused]

    def decoder(grid, c, classes):
        dec = Decoder(c, 1, (c,) * 4, DecoderConfig(level_channels=(c,) * 4),
                      rng, dtype=f64, gated=False, n_classes=classes)
        bottleneck = leaf(*grid, c)
        skips = [leaf(*(g * 2 ** k for g in grid), c) for k in range(1, 5)]
        return (lambda: ad.tmean(dec(bottleneck, skips))), dec.params() + skips + [bottleneck]

    def loss(fn, shape, classes):
        logits = leaf(*shape, classes)
        labels = rng.integers(0, classes, size=shape).astype(np.int64)
        return (lambda: fn(logits, labels)), [logits]

    def stage(index, shape):
        # a stage's patch embed and one block on a (D, H, W, Cin) volume
        st = EncoderStage(index, shape[-1], 4, EncoderConfig(blocks_per_stage=1, mlp_ratio=2), rng, dtype=f64)
        x = leaf(*shape)
        return (lambda: ad.tmean(st(x))), st.params() + [x]

    grids = [((2, 2, 2), (1, 2, 1)), ((4, 2, 2), (2, 1, 1)), ((2, 3, 2), (2, 3, 1))]
    losses = [((3, 3, 3), 2), ((2, 4, 3), 3), ((4, 2, 2), 4)]
    table = [
        ("encoder-pool-block", pool_block, [((2, 2, 2), 3), ((3, 2, 4), 4), ((1, 3, 2), 5)], None),
        *((f"mixer-{kind}-branch", partial(mixer, f"{kind}_branch"), grids, None)
          for kind in ("axial", "planar", "window")),
        ("mixer-layer", partial(mixer, None), grids, None),
        ("token-summarizer", summarizer, [((2, 2, 2), 4, 2), ((3, 2, 2), 6, 3), ((1, 2, 2), 3, 4)], None),
        ("cross-modality-layer", cross, [(8, 4, 4), (6, 2, 6), (4, 8, 8)], None),
        ("skip-gate", gate, [((1, 1, 1), 2, 2), ((2, 1, 1), 3, 2), ((1, 2, 1), 2, 3)], 30),
        ("decoder", decoder, [((1, 1, 1), 2, 2), ((1, 2, 1), 2, 3), ((2, 1, 1), 3, 2)], 15),
        ("soft-dice-loss", partial(loss, soft_dice_loss), losses, None),
        ("cross-entropy-loss", partial(loss, cross_entropy_loss), losses, None),
        # last, so the rows above draw the same shapes as before it was added
        ("encoder-stage", stage, [(1, (2, 2, 2, 2)), (2, (2, 4, 4, 2)), (2, (4, 2, 4, 3))], None),
    ]
    rows = []
    for name, build, cases, entries in table:
        err = max(grad_check(*build(*args), eps=1e-4, max_entries=entries) for args in cases)
        rows.append({"block": name, "max_rel_err": err, "tolerance": tol,
                     "status": "pass" if err < tol else "FAIL"})
    return rows


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    _write_manifest(out, "gradcheck", args.seed,
                    {"tolerance": 1e-4},
                    {"table": out / "gradcheck.csv"})
    rows = gradcheck_suite(seed=args.seed)
    write_csv(out / "gradcheck.csv",
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
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    # bad widths, head counts and untileable grids fail here, before anything is written
    AttentionConfig(heads=args.heads, dim=args.channels, window=window, qkv_dim=args.channels)
    for grid in grids:
        attention_cost_terms(grid, window)
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
    write_csv(out / "bench_attn.csv", header, lines)
    return 0


def cmd_ablate(args):
    rows = args.rows.split(",") if args.rows else sorted(ABLATIONS)
    unknown = [r for r in rows if r not in ABLATIONS]
    if unknown:
        raise ConfigError(f"unknown ablation rows {unknown}; choose from {sorted(ABLATIONS)}")
    if len(set(rows)) < len(rows):
        raise ConfigError(f"--rows names a row more than once: {args.rows!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if not args.data and args.cases < 2:
        raise ConfigError(f"--cases must be >= 2 (one train and one val case), got {args.cases}")
    train_cfg = TrainConfig(steps=args.steps, lr=args.lr, seed=args.seed)
    out = Path(args.out)
    data_dir = args.data or out / "data"
    if not args.data:
        spec = PhantomSpec(shape=(16, 16, 16), modalities=2, n_classes=3,
                           objects_per_class=1, radius_range=(2.0, 4.0),
                           noise_sigma=0.05, seed=args.seed)
        save_dataset(data_dir, spec, args.cases)
    # a given dataset is loaded and checked before --out is made
    dataset = load_dataset(data_dir)
    if len(dataset) < 2:
        raise ConfigError(f"ablate needs >= 2 cases (one train and one val case), {data_dir} has {len(dataset)}")
    n_val = max(1, len(dataset) // 3)
    train_set, val_set = dataset[:-n_val], dataset[-n_val:]
    _check_trainable(train_set, range(len(train_set)), data_dir)
    _write_manifest(out, "ablate", args.seed,
                    {"rows": rows, "cases": args.cases, "steps": args.steps,
                     "seeds": args.seeds, "lr": args.lr, "data": args.data},
                    {"csv": out / "ablate.csv"})

    model_cfg = ModelConfig(
        **case_interface(*dataset[0]),
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
            tcfg = replace(train_cfg, seed=args.seed + seed)
            _, summary = train(row_cfg, tcfg, train_set,
                               out / "runs" / f"{row}-s{seed}", val_dataset=val_set)
            dices.append(summary["final_val_dice"])
        results.append((row, sum(dices) / len(dices)))

    results.sort(key=lambda rv: -rv[1])
    write_csv(out / "ablate.csv", ["rank", "row", "mean_val_dice", "seeds"],
              [[i + 1, row, f"{dice:.4f}", args.seeds]
               for i, (row, dice) in enumerate(results)])
    for i, (row, dice) in enumerate(results):
        print(f"{i + 1}. {row}: {dice:.4f}")
    return 0


# each run file that report reads, the table it makes, and how
_REPORTS = (
    ("train_log.jsonl", "loss_curve.csv",
     lambda recs: (list(recs[0]), [[r[k] for k in recs[0]] for r in recs])),
    ("val_log.jsonl", "val_curve.csv",
     lambda recs: (["step", "dice"], [[r["step"], r["dice"]] for r in recs])),
    ("metrics.json", "metrics_by_class.csv",
     lambda rep: (["class", "mean_dice", "mean_hd95"],
                  [[c, rep["mean_dice"][str(c)], rep["mean_hd95"][str(c)]] for c in rep["classes"]])),
)


def cmd_report(args):
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    tables = {}
    for source, table, build in _REPORTS:
        path = run_dir / source
        if path.exists():
            try:
                tables[table] = build(_read_json(path, lines=path.suffix == ".jsonl"))
            except (KeyError, TypeError) as exc:  # a record without a key it needs, or no object
                raise FormatError(f"{path} holds a record report cannot read: {exc!r}") from None
    if not tables:
        raise ConfigError(f"nothing to report: no train_log.jsonl, val_log.jsonl "
                          f"or metrics.json under {run_dir}")
    out = Path(args.out)
    _write_manifest(out, "report", 0, {"run": str(run_dir)},
                    {"out": out})
    for table, (header, rows) in tables.items():
        write_csv(out / table, header, rows)
    print(f"wrote {', '.join(tables)} to {out}")
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
    except (FileNotFoundError, ConfigError) as exc:
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
