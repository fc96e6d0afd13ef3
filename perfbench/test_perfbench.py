"""Tests of the benchmark's own logic: span arithmetic, the percentile rule,
output checks, and that the wrappers leave the program as they found it."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def span(name, start, end, parent, unit=0):
    return [name, float(start), float(end), parent, unit]


# root 0..10 holds a (1..4, itself holding g 2..3) and b (5..9); a second
# top-level span 20..22 holds c (20.5..21)
TREE = [
    span("cli.train", 0, 10, -1),
    span("a", 1, 4, 0),
    span("g", 2, 3, 1),
    span("b", 5, 9, 0),
    span("setup", 20, 22, -1),
    span("c", 20.5, 21, 4),
]


def test_self_time_is_span_minus_direct_children():
    assert tracing.self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    assert tracing.roots(TREE) == [0, 0, 0, 0, 4, 4]


def test_aggregate_keeps_only_the_chosen_top_level_spans():
    table = tracing.aggregate(TREE, lambda root: root.startswith("cli."))
    assert set(table) == {"cli.train", "a", "g", "b"}
    assert table["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["cli.train"]["self_s"] == 3.0


def test_step_self_time_skips_each_train_calls_first_step():
    spans = [
        span("cli.ablate", 0, 100, -1),
        span("model.fwd", 0, 2, 0), span("training.adamw", 2, 3, 0),      # row 1, step 1
        span("model.fwd", 3.5, 5, 0), span("training.adamw", 5, 6, 0),    # step 2
        span("model.fwd", 10, 11, 0), span("training.adamw", 11, 12, 0),  # row 2, step 1
        span("model.fwd", 12, 13, 0), span("training.adamw", 13, 14.25, 0),
    ]
    steps = [(2, 1), (4, 2), (6, 1), (8, 2)]
    # step 2 of row 1: 3..6 with 2.5 s covered; row 2: 12..14.25 fully covered
    assert tracing.step_self_times(spans, steps) == [0.5, 0.0]


def test_timing_summary_reports_p90_only_with_ten_samples_beyond_it():
    assert "p90" not in run.timing_summary([1.0] * 99)
    summary = run.timing_summary(list(range(1, 101)))
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["p90"] == 90
    assert "p99" not in summary
    assert "p99" in run.timing_summary(list(range(1000)))


def test_percentile_is_nearest_rank():
    assert run.percentile([5, 1, 3], 50) == 3
    assert run.percentile([1, 2, 3, 4], 90) == 4
    assert run.percentile([7], 90) == 7


def child_result(losses, mode="measure"):
    call = {"s": 1.0, "exit": 0, "outputs": {"losses": losses}}
    return {"mode": mode, "setup_s": 0.5, "env": {"python": "3", "numpy": "2", "scipy": "1",
                                                   "blas": {}, "nproc": 2},
            "calls": [call, call], "step_s": [0.2, 0.3, 0.25], "forward_s": [0.1],
            "pairs_ok": 3, "pairs_bad": [], "peak_rss_mb": 100.0, "unmodified_after": True}


TOL = {"rel": 0.02, "abs": 0.001}


def test_checks_count_operations_and_compare_with_the_reference():
    child = child_result([1.0, 0.9])
    ref = {"outputs": {"losses": [1.0, 0.9]}, "tolerance": TOL}
    # per call: exit code, two finite losses, losses logged, reference
    assert run.check_child("train-default", child, ref) == (11, 0, [])
    wrong = {"outputs": {"losses": [1.0, 0.5]}, "tolerance": TOL}
    attempted, failed, msgs = run.check_child("train-default", child, wrong)
    assert (attempted, failed) == (11, 2)
    assert all("reference" in m for m in msgs)


def test_non_finite_loss_and_bad_pair_count_fail():
    child = child_result([1.0, float("nan")])
    child["pairs_bad"] = [(5, 6)]
    _, failed, msgs = run.check_child("train-default", child, None)
    assert failed == 3
    assert any("closed form" in m for m in msgs)


def test_wrong_reference_loss_makes_the_run_exit_nonzero(tmp_path, monkeypatch, capsys):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(
        {"tolerance": TOL, "outputs": {"train-default": {"0": {"losses": [1.0, 0.7]}}}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "git_revision", lambda: None)
    monkeypatch.setattr(run, "spawn", lambda *args: child_result([1.0, 0.9]))
    assert run.main(["--workload", "train-default", "--seed", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 2
    assert set(last["metrics"]) == {"setup_s", "run_s", "unit_s.p50", "peak_rss_mb"}

    reference.write_text(json.dumps(
        {"tolerance": TOL, "outputs": {"train-default": {"0": {"losses": [1.0, 0.9]}}}}))
    assert run.main(["--workload", "train-default", "--seed", "0"]) == 0


def test_tracer_records_layers_and_restores_the_program():
    mm = worker.import_mmvseg()
    before = worker.attribute_snapshot(mm)
    cfg = mm.model.ModelConfig(
        modalities=2, n_classes=3, input_shape=(16, 16, 16),
        encoder={"stage_channels": [4, 4, 4, 4, 8], "blocks_per_stage": 1, "mlp_ratio": 1},
        attention={"heads": 2, "dim": 8, "window": [1, 1, 1], "qkv_dim": 8, "ffn_ratio": 1},
        decoder={"level_channels": [4, 4, 4, 4]}, summary_tokens=4)
    model = mm.model.Model(cfg)
    clocks, tracer = tracing.Clocks(mm), tracing.Tracer(mm, per_case=True)
    clocks.install()
    tracer.install()
    try:
        model(np.zeros((16, 16, 16, 2), dtype=np.float32))
    finally:
        tracer.uninstall()
        clocks.uninstall()
    assert worker.unmodified(before)
    names = {s[0] for s in tracer.spans}
    assert {"model.fwd", "encoder.fwd", "fusion.fwd", "decoder.fwd", "decoder.gate",
            "autodiff.conv3d.fwd"} <= names
    assert clocks.pairs_ok == 1 and not clocks.pairs_bad
    assert tracer.counts["fusion.attn_pairs"] == tracing.expected_attention_pairs(
        cfg, mm.model.attention_cost)
    assert all(s[2] >= s[1] for s in tracer.spans)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
