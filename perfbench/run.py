"""mmvseg benchmark: three workloads through the public CLI, one at a time.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in processes of its own (``worker.py``) with the BLAS
thread count pinned at launch.  A run repeats the workload's CLI call
(``mmvseg.cli.main``) for --seconds, checks every output, prints each
metric with its unit and sample count, and ends with one JSON line.  With
--trace 0 that line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run, which also writes ``spans.tsv`` and
``layers.tsv`` beside ``result.json`` under ``.perfbench/<workload>/``.

Workloads (the seed derives the phantom data and the model weights):
  ablate-toy     ``mmvseg ablate`` over all six registry rows on 16^3,
                 2-modality phantoms with 4/8 channels: narrow convolutions,
                 ~320 tape nodes per step, so per-op dispatch and backward
                 bookkeeping dominate; runs the conv and local_pool encoder
                 blocks and the rows with fusion switched off.
  train-default  ``mmvseg train``, default widths, 2 modalities, 32^3, four
                 cases: GEMM-bound conv3d backward, upsample adjoint, AdamW
                 over 5.2 M parameters, tape activation memory.
  eval-64        ``mmvseg eval``, default config (4 modalities, 64^3) on two
                 cases with an untrained seeded checkpoint: forward only,
                 im2col memory, checkpoint load, HD95.

End-to-end metrics (--trace 0):
  setup_s        median over SETUPS processes of the time from launch to the
                 first timed call (imports, ``gen``, eval-64's checkpoint)
  run_s          median wall time of one timed CLI call
  unit_s.p50     median time of one unit of work, printed under its own
                 name too: ``train_step_s`` (interval between adamw_step
                 returns) on the training workloads, ``infer_case_s`` (one
                 Model.__call__) on eval-64
  peak_rss_mb    ru_maxrss of the measuring process
``failed_frac`` (printed) is failed over attempted operations: steps or
cases, CLI calls and output checks.

Exit status: 0 when every output check passed, 1 when one failed (the JSON
line is still printed), 2 when the benchmark itself could not run (no JSON
line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("ablate-toy", "train-default", "eval-64")
BLAS_THREADS = 2
SETUPS = 3          # setup_s is the median over this many set-up processes
DEADLINE_S = 170.0  # per workload, so that a run ends inside 180 s
PERCENTILES = (90, 99)


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -------------------------------------------------------------- statistics


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timing_summary(samples):
    """The median plus the highest percentile in PERCENTILES that has at
    least ten samples beyond it, and the sample count."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for q in PERCENTILES:
        if len(samples) * (100 - q) / 100.0 >= 10:
            out[f"p{q}"] = percentile(samples, q)
    return out


# ------------------------------------------------------------------ checks


def matches(got, want, tol):
    """Structural equality, numbers within tol["rel"] or tol["abs"]."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            matches(got[k], want[k], tol) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            matches(g, w, tol) for g, w in zip(got, want))
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return got == want or math.isclose(got, want, rel_tol=tol["rel"], abs_tol=tol["abs"])
    return got == want


def all_losses(outputs):
    losses = outputs.get("losses", [])
    if isinstance(losses, dict):
        return [x for row in losses.values() for x in row]
    return losses


def check_child(workload, child, reference):
    """Counts operations of one worker result: steps or cases, CLI calls and
    output checks.  Returns (attempted, failed, failure messages)."""
    ops = []  # (ok, what)
    for i, call in enumerate(child["calls"]):
        outputs = call["outputs"]
        ops.append((call["exit"] == 0, f"call {i} exit code {call['exit']}"))
        if "error" in outputs:
            ops.append((False, f"call {i} outputs unreadable: {outputs['error']}"))
            continue
        if workload == "eval-64":
            for c, dice in enumerate(outputs["dice"]):
                ops.append((all(math.isfinite(v) for v in dice.values()),
                            f"call {i} case {c} dice finite"))
        else:
            losses = all_losses(outputs)
            ops.extend((math.isfinite(x), f"call {i} step loss finite") for x in losses)
            ops.append((bool(losses), f"call {i} logged losses"))
        if reference is not None:
            ops.append((matches(outputs, reference["outputs"], reference["tolerance"]),
                        f"call {i} outputs match the stored reference"))
    ops.append((child["pairs_ok"] > 0 and not child["pairs_bad"],
                f"attention pairs equal the closed form ({child['pairs_ok']} forwards, "
                f"mismatches {child['pairs_bad']})"))
    if child["mode"] == "trace":
        ops.append((child["unmodified_after"], "wrappers removed after the traced run"))
    failures = [what for ok, what in ops if not ok]
    return len(ops), len(failures), failures


def load_reference(workload, seed):
    data = json.loads(REFERENCE.read_text())
    outputs = data["outputs"].get(workload, {}).get(str(seed))
    if outputs is None:
        return None
    return {"outputs": outputs, "tolerance": data["tolerance"]}


def record_reference(workload, seed, children):
    """Store a passing run's outputs as the reference for its seed; every
    call of the run must have produced the same outputs."""
    outputs = [c["outputs"] for child in children for c in child["calls"]]
    if any(o != outputs[0] for o in outputs):
        raise BenchError("calls disagree on their outputs; nothing recorded")
    data = json.loads(REFERENCE.read_text())
    data["outputs"].setdefault(workload, {})[str(seed)] = outputs[0]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -------------------------------------------------------------- processes


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(workload, seed, seconds, mode, tag, deadline):
    """Run one worker process to completion and return its result."""
    out = OUT / workload
    result_file = out / f"{tag}.json"
    result_file.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS),
               NF_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--work", str(out / "work"), "--result", str(result_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    with open(out / f"{tag}.log", "w") as log:
        try:
            done = subprocess.run(argv + ["--launch", repr(time.monotonic())], env=env,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} process timed out") from None
    if done.returncode != 0 or not result_file.exists():
        tail = (out / f"{tag}.log").read_text()[-2000:]
        raise BenchError(f"{workload} {mode} process exited with {done.returncode}:\n{tail}")
    return json.loads(result_file.read_text())


# ------------------------------------------------------------------ report


def run_workload(workload, seed, seconds, trace, deadline, record=False):
    reference = load_reference(workload, seed)
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    if trace:
        children = [spawn(workload, seed, seconds, "measure", "untraced", deadline),
                    spawn(workload, seed, seconds, "trace", "traced", deadline)]
    else:
        setups = [spawn(workload, seed, seconds, "setup", f"setup{i}", deadline)
                  for i in range(SETUPS - 1)]
        children = [spawn(workload, seed, seconds, "measure", "measured", deadline)]
    attempted = failed = 0
    failures = []
    for child in children:
        a, f, msgs = check_child(workload, child, reference)
        attempted += a
        failed += f
        failures += msgs

    if record and failed == 0:
        record_reference(workload, seed, children)

    measured = children[0]
    calls = [c["s"] for c in measured["calls"]]
    unit = "infer_case_s" if workload == "eval-64" else "train_step_s"
    unit_samples = measured["forward_s"] if workload == "eval-64" else measured["step_s"]
    if not unit_samples:
        raise BenchError(f"{workload}: the run recorded no {unit} samples")
    shown = {}  # name -> (value, unit, sample count)
    if trace:
        traced = children[1]
        metrics = {name: {"value": v, "unit": per_layer_unit(name)}
                   for name, v in traced["per_layer"].items()}
        overhead = statistics.median(c["s"] for c in traced["calls"]) / statistics.median(calls) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for name, m in metrics.items():
            shown[name] = (m["value"], m["unit"], len(traced["calls"]))
    else:
        setup_values = [s["setup_s"] for s in setups] + [measured["setup_s"]]
        summary = timing_summary(unit_samples)
        metrics = {
            "setup_s": {"value": statistics.median(setup_values), "unit": "s"},
            "run_s": {"value": statistics.median(calls), "unit": "s"},
            "unit_s.p50": {"value": summary["p50"], "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }
        shown["setup_s"] = (metrics["setup_s"]["value"], "s", len(setup_values))
        shown["run_s"] = (metrics["run_s"]["value"], "s", len(calls))
        for key in ("p50",) + tuple(f"p{q}" for q in PERCENTILES):
            if key in summary:
                shown[f"{unit}.{key}"] = (summary[key], "s", summary["n"])
        shown["unit_s.p50"] = (metrics["unit_s.p50"]["value"], "s", summary["n"])
        shown["peak_rss_mb"] = (measured["peak_rss_mb"], "MB", 1)
    shown["failed_frac"] = (failed / attempted, "ratio", attempted)

    saved = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": git_revision(), "env": measured["env"],
        "reference_checked": reference is not None,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "children": children,
    }
    (OUT / workload / "result.json").write_text(json.dumps(saved, indent=1))

    print(f"== {workload} seed={seed} trace={trace} "
          f"({'reference and closed-form checks' if reference else 'closed-form checks only'})")
    env = measured["env"]
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')}, "
          f"blas threads {BLAS_THREADS}, nproc {env['nproc']}, git {saved['git_revision']}")
    for name, (value, unit_name, n) in shown.items():
        print(f"   {name:<34} {value:>14.6g} {unit_name:<6} n={n}")
    for msg in failures:
        print(f"   FAILED: {msg}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_mb", "_mb.max")):
        return "MB"
    if name.endswith("gflop"):
        return "GFLOP"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--record", action="store_true",
                   help="store the outputs as the reference for this seed (a passing run only)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mmvseg" / "__init__.py").is_file():
        print(f"error: no mmvseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(workload, args.seed, args.seconds, args.trace,
                                        deadline, args.record))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {f"{w}/{k}": v for w, r in zip(workloads, results)
                                      for k, v in r["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
