"""One benchmark process: set a workload up, then time CLI calls into it.

``run.py`` starts this file once per set-up sample and once per measured
run, with the BLAS thread count already pinned in the environment.  It
writes one JSON result file and exits; it never prints the benchmark result.

Modes:
  setup    set up, report setup_s, stop;
  measure  set up, then repeat the workload's CLI call for --seconds with
           only the per-step and per-case clocks installed;
  trace    the same with spans around every layer, then the per-layer
           table and the span file beside the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import (  # noqa: E402
    Clocks,
    Tracer,
    aggregate,
    clock,
    rss_hwm_mb,
    step_self_times,
)

# ops whose per-layer numbers the benchmark reports by name
REPORTED_OPS = ("conv3d", "matmul", "gelu", "layer_norm", "upsample2x", "add", "mul",
                "softmax_last", "moveaxis", "concat", "avg_pool3d", "global_pool")

TOY_SPEC = {"shape": [16, 16, 16], "modalities": 2, "n_classes": 3, "objects_per_class": 1,
            "radius_range": [2.0, 4.0], "noise_sigma": 0.05}
EVAL_SPEC = {"shape": [64, 64, 64], "modalities": 4, "n_classes": 4}
TRAIN_STEPS = 10


def import_mmvseg():
    import mmvseg
    from mmvseg import autodiff, cli, decoder, encoder, fusion, metrics, model, training

    src = (ROOT / "src").resolve()
    if src not in Path(mmvseg.__file__).resolve().parents:
        raise ImportError(f"mmvseg imported from {mmvseg.__file__}, not from {src}")
    return argparse.Namespace(autodiff=autodiff, cli=cli, decoder=decoder, encoder=encoder,
                              fusion=fusion, metrics=metrics, model=model, training=training)


def attribute_snapshot(mm):
    """Every attribute of the modules and classes the wrappers patch."""
    owners = (mm.autodiff, mm.training, mm.cli, mm.metrics, mm.encoder.Encoder,
              mm.fusion.Fusion, mm.decoder.Decoder, mm.model.Model)
    return [(owner, dict(vars(owner))) for owner in owners]


def unmodified(snapshot):
    return all(vars(owner) == attrs for owner, attrs in snapshot)


def run_cli(mm, argv):
    code = mm.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"set-up call mmvseg {argv[0]} exited with {code}")


# ------------------------------------------------------------- workloads
# Each set-up returns the argv of the timed call, as a function of its
# output directory.


def setup_ablate_toy(mm, work, seed):
    spec = work / "spec.json"
    spec.write_text(json.dumps(TOY_SPEC))
    run_cli(mm, ["gen", "--out", work / "data", "--spec", spec, "--cases", 6, "--seed", seed])
    return lambda out: ["ablate", "--out", out, "--data", work / "data", "--seed", seed]


def setup_train_default(mm, work, seed):
    run_cli(mm, ["gen", "--out", work / "data", "--cases", 4, "--seed", seed,
                 "--fractions", "1,0,0"])
    model_cfg = work / "model.json"
    model_cfg.write_text(json.dumps({"seed": seed}))
    return lambda out: ["train", "--out", out, "--data", work / "data",
                        "--model-config", model_cfg, "--steps", TRAIN_STEPS, "--seed", seed]


def setup_eval_64(mm, work, seed):
    spec = work / "spec.json"
    spec.write_text(json.dumps(EVAL_SPEC))
    run_cli(mm, ["gen", "--out", work / "data", "--spec", spec, "--cases", 2, "--seed", seed])
    cfg = mm.model.ModelConfig(modalities=EVAL_SPEC["modalities"],
                               n_classes=EVAL_SPEC["n_classes"],
                               input_shape=tuple(EVAL_SPEC["shape"]), seed=seed)
    mm.model.save_checkpoint(mm.model.Model(cfg), work / "model.ckpt")
    return lambda out: ["eval", "--out", out, "--checkpoint", work / "model.ckpt",
                        "--data", work / "data"]


def _jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def outputs_ablate_toy(out):
    losses, val_dice = {}, {}
    for run in sorted((out / "runs").iterdir()):
        row = run.name.rsplit("-s", 1)[0]
        losses[row] = [rec["loss"] for rec in _jsonl(run / "train_log.jsonl")]
        val_dice[row] = _jsonl(run / "val_log.jsonl")[-1]["dice"]
    return {"losses": losses, "val_dice": val_dice}


def outputs_train_default(out):
    return {"losses": [rec["loss"] for rec in _jsonl(out / "train_log.jsonl")]}


def outputs_eval_64(out):
    report = json.loads((out / "metrics.json").read_text())
    return {"dice": [case["dice"] for case in report["per_case"]],
            "hd95": [case["hd95"] for case in report["per_case"]]}


WORKLOADS = {
    "ablate-toy": (setup_ablate_toy, outputs_ablate_toy),
    "train-default": (setup_train_default, outputs_train_default),
    "eval-64": (setup_eval_64, outputs_eval_64),
}


# ----------------------------------------------------------- environment


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------ per-layer


def per_layer(tracer, calls):
    """The per-layer metrics of a traced run, per timed CLI call unless the
    name says otherwise (tape_nodes and step.self_s are per training step,
    *.max and *_mb sizes are maxima, data.gen_s and data.write_mb cover the
    set-up)."""
    spans, counts = tracer.spans, tracer.counts
    timed = aggregate(spans, lambda root: root.startswith("cli."))
    setup = aggregate(spans, lambda root: root == "setup")

    def total(name, table=timed):
        return table.get(name, {}).get("total_s", 0.0)

    def per_call(value):
        return value / calls

    m = {}
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.calls"] = per_call(timed.get(f"autodiff.{op}.fwd", {}).get("calls", 0))
        m[f"autodiff.{op}.fwd_s"] = per_call(total(f"autodiff.{op}.fwd"))
        m[f"autodiff.{op}.bwd_s"] = per_call(total(f"autodiff.{op}.bwd"))
    backwards = timed.get("autodiff.backward", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    m["autodiff.tape_nodes"] = counts.get("autodiff.tape_nodes", 0) / max(backwards["calls"], 1)
    m["autodiff.backward_s"] = per_call(backwards["total_s"])
    m["autodiff.backward.self_s"] = per_call(backwards["self_s"])
    m["autodiff.conv3d.cols_mb.max"] = counts.get("autodiff.conv3d.cols_mb.max", 0.0)
    m["autodiff.conv3d.gflop"] = per_call(counts.get("autodiff.conv3d.flop", 0) / 1e9)
    for layer in ("encoder", "decoder"):
        m[f"{layer}.fwd_s"] = per_call(total(f"{layer}.fwd"))
        m[f"{layer}.rss_hwm_mb"] = tracer.first_forward_rss.get(f"{layer}.fwd", 0.0)
    m["decoder.gate_s"] = per_call(total("decoder.gate"))
    m["fusion.fwd_s"] = per_call(total("fusion.fwd"))
    m["fusion.attn_pairs"] = per_call(counts.get("fusion.attn_pairs", 0))
    m["model.fwd_s"] = per_call(total("model.fwd"))
    m["model.ckpt_save_s"] = per_call(total("model.ckpt_save"))
    m["model.ckpt_load_s"] = per_call(total("model.ckpt_load"))
    m["model.ckpt_mb"] = counts.get("model.ckpt_mb", 0.0)
    m["training.loss_s"] = per_call(total("training.loss"))
    m["training.adamw_s"] = per_call(total("training.adamw"))
    steps = step_self_times(spans, tracer.steps)
    m["training.step.self_s"] = statistics.fmean(steps) if steps else 0.0
    m["metrics.dice_s"] = per_call(total("metrics.dice"))
    m["metrics.hd95_s"] = per_call(total("metrics.hd95"))
    m["metrics.boundary_voxels"] = per_call(counts.get("metrics.boundary_voxels", 0))
    m["data.gen_s"] = total("data.gen", setup)
    m["data.write_mb"] = counts.get("data.write_mb", 0.0)
    m["data.load_s"] = per_call(total("data.load"))
    m["data.read_mb"] = per_call(counts.get("data.read_mb", 0.0))
    m["cli.self_s"] = per_call(sum(row["self_s"] for name, row in timed.items()
                                   if name.startswith("cli.")))
    return m, timed


def write_trace_files(tracer, timed, out_dir):
    with open(out_dir / "spans.tsv", "w") as fh:
        fh.write("id\tparent\tname\tunit\tstart_s\tend_s\n")
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        for i, (name, start, end, parent, unit) in enumerate(tracer.spans):
            fh.write(f"{i}\t{parent}\t{name}\t{unit}\t{start - t0:.9f}\t{end - t0:.9f}\n")
    with open(out_dir / "layers.tsv", "w") as fh:
        fh.write("span\tcalls\ttotal_s\tself_s\n")
        for name, row in sorted(timed.items(), key=lambda kv: -kv[1]["self_s"]):
            fh.write(f"{name}\t{row['calls']}\t{row['total_s']:.6f}\t{row['self_s']:.6f}\n")


# ------------------------------------------------------------------ main


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--launch", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--work", required=True, help="scratch directory, emptied first")
    p.add_argument("--result", required=True, help="JSON file to write")
    args = p.parse_args()

    mm = import_mmvseg()
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_fn, outputs_fn = WORKLOADS[args.workload]

    snapshot = attribute_snapshot(mm)
    clocks = Clocks(mm)
    clocks.install()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer(mm, per_case=args.workload == "eval-64")
        tracer.install()
        root = tracer.begin("setup")
    call_argv = setup_fn(mm, work, args.seed)
    if tracer is not None:
        tracer.end(root)
    setup_s = time.monotonic() - args.launch
    result = {"mode": args.mode, "setup_s": setup_s, "env": environment()}

    calls = []
    if args.mode != "setup":
        started = clock()
        while True:
            out = work / f"call{len(calls)}"
            argv = [str(a) for a in call_argv(out)]
            root = tracer.begin(f"cli.{argv[0]}") if tracer else None
            t0 = clock()
            code = mm.cli.main(argv)
            seconds = clock() - t0
            if tracer is not None:
                tracer.end(root)
            try:
                outputs = outputs_fn(out)
            except (OSError, KeyError, ValueError) as exc:
                outputs = {"error": f"{type(exc).__name__}: {exc}"}
            calls.append({"s": seconds, "exit": code, "outputs": outputs})
            shutil.rmtree(out, ignore_errors=True)
            typical = statistics.median(c["s"] for c in calls)
            if clock() - started + typical > args.seconds:
                break

    if tracer is not None:
        tracer.uninstall()
        result["per_layer"], timed = per_layer(tracer, len(calls))
        write_trace_files(tracer, timed, Path(args.result).parent)
    clocks.uninstall()
    result.update({
        "unmodified_after": unmodified(snapshot),
        "calls": calls,
        "step_s": clocks.step_s,
        "forward_s": clocks.forward_s,
        "pairs_ok": clocks.pairs_ok,
        "pairs_bad": clocks.pairs_bad[:10],
        "peak_rss_mb": rss_hwm_mb(),
    })
    shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
