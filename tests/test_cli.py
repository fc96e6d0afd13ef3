"""End-to-end tests for the command-line interface.

Everything goes through `main(argv) -> int`, same as the console script;
expensive steps (gen/train/eval) are shared through a module fixture.
"""

import csv
import json
import os
import re
import shutil
import struct
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmvseg import autodiff as ad
from mmvseg import cli
from mmvseg.cli import main
from mmvseg.data import load_dataset
from mmvseg.errors import FormatError
from mmvseg.metrics import SegmentationMask, hd95
from mmvseg.model import Model, ModelConfig, load_checkpoint, save_checkpoint
from test_model import rewrite_config

SPEC = {
    "shape": [16, 16, 16],
    "modalities": 2,
    "n_classes": 3,
    "objects_per_class": 1,
    "radius_range": [2.0, 4.0],
    # without noise each modality's nonzero voxels would share one value,
    # which normalizes to all zeros and which train refuses
    "noise_sigma": 0.05,
    "seed": 5,
}

MODEL = {
    "encoder": {"stage_channels": [4, 4, 4, 4, 8], "blocks_per_stage": 1, "mlp_ratio": 1},
    "attention": {"heads": 2, "dim": 8, "window": [1, 1, 1], "qkv_dim": 8, "ffn_ratio": 1},
    "decoder": {"level_channels": [4, 4, 4, 4]},
    "summary_tokens": 2,
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One gen -> train -> eval pipeline reused by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "model.json").write_text(json.dumps(MODEL))
    assert main(["gen", "--out", str(root / "data"), "--spec", str(root / "spec.json"),
                 "--cases", "3", "--fractions", "0.75,0.25,0"]) == 0
    assert main(["train", "--out", str(root / "run"), "--data", str(root / "data"),
                 "--model-config", str(root / "model.json"),
                 "--steps", "2", "--lr", "1e-3", "--seed", "0"]) == 0
    assert main(["eval", "--out", str(root / "evaldir"),
                 "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                 "--data", str(root / "data")]) == 0
    return root


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "mmvseg" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["--frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_out(self):
        assert main(["gen"]) == 1

    def test_bad_grid_triple(self, tmp_path):
        assert main(["bench-attn", "--out", str(tmp_path / "b"), "--grid", "8,8"]) == 1

    def test_bad_fractions(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"), "--fractions", "0.5,0.5"]) == 1

    def test_non_numeric_fractions(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "d"), "--fractions", "a,b,c"]) == 1
        assert "--fractions" in capsys.readouterr().err

    def test_bad_scale_choice(self, tmp_path):
        assert main(["gradcheck", "--out", str(tmp_path / "g"), "--scale", "huge"]) == 1


class TestGen:
    def test_cases_manifest_splits(self, workdir):
        data = workdir / "data"
        for i in range(3):
            case = data / f"case_{i:04d}"
            assert (case / "volume.mmv").exists()
            assert (case / "mask.msk").exists()
            assert (case / "meta.json").exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["cases"] == 3
        assert manifest["config"]["spec"]["seed"] == 5
        splits = json.loads((data / "splits.json").read_text())
        assert sorted(splits) == ["test", "train", "val"]
        assert len(splits["train"]) == 2 and len(splits["val"]) == 1
        assert not splits["test"]

    def test_rerun_is_bit_identical(self, workdir, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "again"),
                     "--spec", str(workdir / "spec.json"),
                     "--cases", "3", "--fractions", "0.75,0.25,0"]) == 0
        for i in range(3):
            a = (workdir / "data" / f"case_{i:04d}" / "volume.mmv").read_bytes()
            b = (tmp_path / "again" / f"case_{i:04d}" / "volume.mmv").read_bytes()
            assert a == b

    def test_unknown_spec_field(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"bogus": 1}))
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--spec", str(bad)]) == 1
        assert "bad spec field" in capsys.readouterr().err
        assert not out.exists()  # rejected before anything was written

    def test_fractions_checked_before_any_case(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--cases", "2",
                     "--fractions", "0.5,0.5,0.5"]) == 1
        assert "sum to 1" in capsys.readouterr().err
        assert not list(tmp_path.rglob("case_*"))

    @pytest.mark.parametrize("spec,fractions", [
        ({"noise_sigma": float("nan")}, "0.8,0.1,0.1"),
        ({"radius_range": [2.5, float("inf")]}, "0.8,0.1,0.1"),
        ({"visibility": [[0, float("nan"), 0], [0, 0, 1]]}, "0.8,0.1,0.1"),
        ({"spacing": [1, float("nan"), 1]}, "0.8,0.1,0.1"),
        ({}, "nan,0.5,0.5"),
    ], ids=["nan-noise-sigma", "infinite-radius", "nan-visibility", "nan-spacing",
            "nan-fraction"])
    def test_non_finite_number_fails_before_the_manifest(self, tmp_path, capsys, spec, fractions):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--spec", str(tmp_path / "spec.json"),
                     "--cases", "2", "--fractions", fractions]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ({"objects_per_class": 1.5}, "objects_per_class must be an integer"),
        ({"radius_range": [2, 4, 5]}, "radius range must be two numbers"),
        ({"noise_sigma": True}, "noise_sigma must be a number"),
        ({"shape": [32.5, 32, 32]}, "shape entry must be an integer"),
        ({"spacing": [True, 1, 1]}, "spacing must be 3 positive finite floats"),
    ], ids=["fractional-objects-per-class", "three-radii", "bool-noise-sigma", "fractional-shape",
            "bool-spacing"])
    def test_mistyped_spec_field_fails_before_the_manifest(self, tmp_path, capsys, spec, message):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--spec", str(tmp_path / "spec.json"),
                     "--cases", "2"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ({"visibility": "x"}, "visibility must be 2 (modalities) lists of 3 (n_classes) numbers"),
        ({"visibility": [[0, 1, 0], [0, 0]]}, "visibility must be"),
        ({"visibility": [[0, True, 0], [0, 0, 1]]}, "visibility must be"),
        ({"n_classes": 300, "shape": [64, 64, 64], "objects_per_class": 1, "radius_range": [1.0, 1.0]},
         "MSK1 stores byte labels"),
    ], ids=["string-visibility", "ragged-visibility", "bool-visibility", "300-classes"])
    def test_spec_that_cannot_be_written_fails_before_the_manifest(self, tmp_path, capsys, spec,
                                                                   message):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--spec", str(tmp_path / "spec.json"),
                     "--cases", "2"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_nonpositive_case_count_fails_before_the_manifest(self, tmp_path, capsys, cases):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "split is empty" warnings either
            assert main(["gen", "--out", str(out), "--cases", cases]) == 1
        assert "at least one case" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_value(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"shape": [10, 10, 10]}))
        assert main(["gen", "--out", str(tmp_path / "out"), "--spec", str(bad)]) == 1

    def test_spec_file_missing(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "out"),
                     "--spec", str(tmp_path / "nope.json")]) == 1


class TestTrain:
    def test_artifacts(self, workdir):
        run = workdir / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        # interface extents come from the dataset, not the config file
        assert manifest["config"]["model"]["input_shape"] == [16, 16, 16]
        assert manifest["config"]["model"]["modalities"] == 2
        assert manifest["config"]["model"]["n_classes"] == 3
        assert manifest["config"]["train"]["steps"] == 2

        lines = (run / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for n, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert list(record) == ["step", "loss", "dice_loss", "ce_loss", "lr"]
            assert record["step"] == n

        val = [json.loads(line) for line in (run / "val_log.jsonl").read_text().splitlines()]
        assert val[-1]["final"] is True

    def test_checkpoint_loads_and_runs(self, workdir):
        model, meta = load_checkpoint(workdir / "run" / "checkpoint.ckpt")
        assert meta["step"] == 2
        x = np.zeros((16, 16, 16, 2), dtype=np.float32)
        assert model(x).shape == (16, 16, 16, 3)

    def test_missing_data_dir(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r"),
                     "--data", str(tmp_path / "nope")]) == 1

    def test_malformed_splits_file(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "splits.json").write_text('{"train": [0,')
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(data),
                     "--model-config", str(workdir / "model.json"), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert "splits.json" in err and "JSONDecodeError" not in err

    @pytest.mark.parametrize("content", [
        "[1, 2]", '{"train": 3}', '{"train": [0, "1"]}', '{"val": [0.5]}',
    ])
    def test_splits_file_of_the_wrong_shape(self, workdir, tmp_path, capsys, content):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "splits.json").write_text(content)
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(data),
                     "--model-config", str(workdir / "model.json"), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert "splits.json" in err and "Error" not in err

    @pytest.mark.parametrize("content", ['{"train": [], "val": [0, 1, 2]}', '{"val": [0]}'],
                             ids=["empty-list", "no-train-key"])
    def test_empty_train_split_is_rejected(self, workdir, tmp_path, capsys, content):
        # an empty train split must not fall back to training on every case,
        # held-out ones included
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "splits.json").write_text(content)
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(data),
                     "--model-config", str(workdir / "model.json"), "--steps", "1"]) == 1
        assert "splits.json" in capsys.readouterr().err
        assert not (tmp_path / "r" / "checkpoint.ckpt").exists()

    def test_empty_train_fraction_from_gen_is_rejected(self, workdir, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(workdir / "spec.json"),
                     "--cases", "3", "--fractions", "0,0.67,0.33"]) == 0
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(tmp_path / "data"),
                     "--model-config", str(workdir / "model.json"), "--steps", "1"]) == 1
        assert "empty train split" in capsys.readouterr().err

    def test_dataset_without_splits_trains_on_every_case(self, workdir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "splits.json").unlink()
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(data),
                     "--model-config", str(workdir / "model.json"), "--steps", "1"]) == 0
        assert not (tmp_path / "r" / "val_log.jsonl").exists()

    @pytest.mark.parametrize("change,field", [
        ({"betas": [0.9]}, "betas"), ({"betas": [0.9, 0.999, 0.5]}, "betas"),
        ({"betas": 0.9}, "betas"), ({"checkpoint_every": -1}, "checkpoint_every"),
        ({"val_every": -1}, "val_every"),
    ], ids=["one-beta", "three-betas", "scalar-betas", "negative-checkpoint-every",
            "negative-val-every"])
    def test_bad_train_config_is_a_config_error(self, workdir, tmp_path, capsys, change, field):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(change))
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--train-config", str(cfg), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert field in err and "Error" not in err

    @pytest.mark.parametrize("change,field", [
        ({"steps": 1.5}, "steps"), ({"batch_size": 1.5, "steps": 1}, "batch_size"),
        ({"steps": True}, "steps"), ({"checkpoint_every": 2.0, "steps": 1}, "checkpoint_every"),
        ({"val_every": False, "steps": 1}, "val_every"),
    ], ids=["fractional-steps", "fractional-batch", "bool-steps", "float-checkpoint-every",
            "bool-val-every"])
    def test_non_integer_count_is_a_config_error(self, workdir, tmp_path, capsys, change, field):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(change))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--train-config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be an integer" in err and "Error" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("field", ["lr", "weight_decay", "eps", "smooth",
                                       "dice_weight", "ce_weight"])
    def test_non_finite_number_fails_before_the_manifest(self, workdir, tmp_path, capsys, field):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({field: float("nan")}))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--train-config", str(cfg), "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err and "Error" not in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("change,message", [
        ({"log_wall_time": "no"}, "log_wall_time must be true or false"),
        ({"lr": True}, "lr must be a number"),
    ], ids=["string-wall-time", "bool-lr"])
    def test_switch_and_number_fields_are_kept_apart(self, workdir, tmp_path, capsys, change, message):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(change))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--train-config", str(cfg), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert message in err and "Error" not in err
        assert not (out / "manifest.json").exists()

    def test_nan_lr_flag_fails_before_the_manifest(self, workdir, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--steps", "2", "--lr", "nan"]) == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("field", ["dim", "qkv_dim", "ffn_ratio"])
    def test_nonpositive_attention_width_fails_before_the_manifest(self, workdir, tmp_path,
                                                                   capsys, field):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({**MODEL, "attention": {**MODEL["attention"], field: 0}}))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(bad), "--steps", "1"]) == 1
        assert f"{field} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_model_field(self, workdir, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(workdir / "data"),
                     "--model-config", str(bad)]) == 1
        assert "bad model config field" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("use_gated_skips", "false"), ("use_cross_attention", 1),
        ("spatial_layers", 1.5), ("summary_tokens", "2"), ("seed", True),
    ])
    def test_mistyped_model_field(self, workdir, tmp_path, capsys, field, value):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({**MODEL, field: value}))
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(workdir / "data"),
                     "--model-config", str(bad), "--steps", "1"]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("part,field,value", [
        ("encoder", "blocks_per_stage", 1.5), ("encoder", "mlp_ratio", 0),
        ("attention", "heads", True), ("encoder", "blocks_per_stage", -1),
        ("encoder", "stage_channels", [4.9, 4, 4, 4, 8]), ("attention", "window", [1.5, 1, 1]),
    ])
    def test_malformed_nested_field_fails_before_the_manifest(self, workdir, tmp_path, capsys,
                                                              part, field, value):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({**MODEL, part: {**MODEL[part], field: value}}))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(bad), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("part,value", [("attention", 3), ("encoder", None)])
    def test_nested_config_that_is_not_a_dict_is_a_config_error(self, workdir, tmp_path, capsys,
                                                                part, value):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({**MODEL, part: value}))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(bad), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{part} must be a dict" in err
        assert not (out / "checkpoint.ckpt").exists()

    def test_stored_nested_config_that_is_not_a_dict_is_a_format_error(self, workdir, tmp_path,
                                                                       capsys):
        path = tmp_path / "checkpoint.ckpt"
        shutil.copy(workdir / "run" / "checkpoint.ckpt", path)
        rewrite_config(path, {"attention": 3})
        with pytest.raises(FormatError, match="checkpoint config does not build a model"):
            load_checkpoint(path)
        assert main(["eval", "--out", str(tmp_path / "e"), "--checkpoint", str(path),
                     "--data", str(workdir / "data")]) == 2
        assert "failure: checkpoint config does not build a model" in capsys.readouterr().err

    def test_gen_warns_about_a_modality_that_normalizes_to_zeros(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"shape": [16, 16, 16], "radius_range": [2.0, 4.0], "noise_sigma": 0}))
        with pytest.warns(UserWarning) as caught:
            assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(spec), "--cases", "2",
                         "--fractions", "1,0,0"]) == 0
        messages = [str(w.message) for w in caught]
        for case in range(2):
            assert any(m.startswith(f"case {case}: modality ") and "normalizes to all zeros" in m
                       for m in messages)
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(tmp_path / "data"),
                     "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert "training case 0" in err and "normalizes to all zeros" in err

    def test_constant_modality_is_a_config_error(self, tmp_path, capsys):
        # without noise, each modality's nonzero voxels share one value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"shape": [32, 32, 32], "modalities": 2, "noise_sigma": 0}))
        with pytest.warns(UserWarning, match="normalizes to all zeros"):
            assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(spec), "--cases", "3",
                         "--fractions", "1,0,0"]) == 0
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(tmp_path / "data"),
                     "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert "training case 0" in err and "modality 0 normalizes to all zeros" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("part,field,value", [("encoder", "in_channels", 1),
                                                  ("decoder", "out_classes", 3)])
    def test_removed_model_field_is_a_config_error(self, workdir, tmp_path, capsys, part, field, value):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({**MODEL, part: {**MODEL[part], field: value}}))
        assert main(["train", "--out", str(tmp_path / "r"), "--data", str(workdir / "data"),
                     "--model-config", str(bad), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "bad model config field" in err and field in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("train_config,flags,logged", [
        ({"log_wall_time": True}, [], True),
        ({}, ["--wall-time"], True),
        ({"log_wall_time": False}, ["--wall-time"], True),
        ({}, [], False),
    ], ids=["config", "flag", "flag-over-config", "neither"])
    def test_wall_time_from_train_config_or_flag(self, workdir, tmp_path, train_config, flags, logged):
        train_json = tmp_path / "train.json"
        train_json.write_text(json.dumps(train_config))
        out = tmp_path / "r"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"), "--train-config", str(train_json),
                     "--steps", "1", *flags]) == 0
        record = json.loads((out / "train_log.jsonl").read_text().splitlines()[0])
        assert ("wall_ms" in record) == logged
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["log_wall_time"] is logged

    def test_ablation_flag_reaches_model(self, workdir, tmp_path):
        out = tmp_path / "ablated"
        assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                     "--model-config", str(workdir / "model.json"),
                     "--steps", "1", "--ablation", "baseline-concat"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["ablation"] == "baseline-concat"
        model, _ = load_checkpoint(out / "checkpoint.ckpt")
        assert model.cfg.use_cross_attention is False
        assert model.cfg.use_spatial_attention is False

    def test_model_config_switches_reach_checkpoint_and_manifest(self, workdir, tmp_path):
        switched_off = {**MODEL, "encoder": {**MODEL["encoder"], "block_kind": "conv"},
                        "use_spatial_attention": False, "use_cross_attention": False,
                        "use_gated_skips": False}
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(switched_off))
        for ablation, want in ((None, ("conv", False, False, False)),
                               ("full", ("global_pool", True, True, True))):
            out = tmp_path / str(ablation)
            argv = ["train", "--out", str(out), "--data", str(workdir / "data"),
                    "--model-config", str(model_json), "--steps", "1"]
            assert main(argv + (["--ablation", ablation] if ablation else [])) == 0
            model, _ = load_checkpoint(out / "checkpoint.ckpt")
            cfg = model.cfg
            assert (cfg.encoder.block_kind, cfg.use_spatial_attention,
                    cfg.use_cross_attention, cfg.use_gated_skips) == want
            names = [n for n, _ in model.named_params()]
            for part in ("fusion/cross", "gate_fc", "pool_proj"):
                assert any(part in n for n in names) == (ablation == "full"), part
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["model"] == cfg.to_dict()


class TestEval:
    def test_metrics_files(self, workdir):
        out = workdir / "evaldir"
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["case", "class", "dice", "hd95"]
        assert len(rows) == 1 + 3 + 1  # header, one per case, summary
        assert rows[-1][0] == "summary"
        report = json.loads((out / "metrics.json").read_text())
        assert report["n_cases"] == 3
        assert report["classes"] == [1, 2]

    def test_hd95_in_mm_for_anisotropic_data(self, workdir, tmp_path):
        spacing = (2.0, 1.0, 0.5)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "spacing": list(spacing)}))
        assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(spec),
                     "--cases", "1", "--fractions", "1,0,0"]) == 0
        ckpt = workdir / "run" / "checkpoint.ckpt"
        assert main(["eval", "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt),
                     "--data", str(tmp_path / "data")]) == 0
        reported = json.loads((tmp_path / "e" / "metrics.json").read_text())["per_case"][0]

        model, _ = load_checkpoint(ckpt)
        (volume, mask), = load_dataset(tmp_path / "data")
        pred = np.argmax(model(volume).data, axis=-1).astype(mask.labels.dtype)
        pred = SegmentationMask(pred, mask.n_classes, spacing)
        gt = SegmentationMask(mask.labels, mask.n_classes, spacing)
        assert reported["hd95"] == {str(c): hd95(pred, gt, c) for c in (1, 2)}

    def test_checkpoint_config_that_does_not_build(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes((workdir / "run" / "checkpoint.ckpt").read_bytes())
        rewrite_config(ckpt, {"bogus": 1})
        assert main(["eval", "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt),
                     "--data", str(workdir / "data")]) == 2
        assert "checkpoint config" in capsys.readouterr().err

    def test_truncated_checkpoint_fails_before_the_manifest(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes((workdir / "run" / "checkpoint.ckpt").read_bytes()[:100])
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--checkpoint", str(ckpt),
                     "--data", str(workdir / "data")]) == 2
        assert capsys.readouterr().err.startswith("failure: truncated file: ")
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"modalities": 3}, {"shape": [32, 16, 16]}, {"n_classes": 4}],
                             ids=["modalities", "extents", "classes"])
    def test_dataset_the_checkpoint_does_not_fit_is_refused(self, workdir, tmp_path, capsys, change):
        # a 3-class model cannot score class 3; the other two exited 2 mid-run
        spec = {**SPEC, **change}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(tmp_path / "spec.json"),
                     "--cases", "1", "--fractions", "1,0,0"]) == 0
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        takes = {"input_shape": (16, 16, 16), "modalities": 2, "n_classes": 3}
        has = {"input_shape": tuple(spec["shape"]), "modalities": spec["modalities"],
               "n_classes": spec["n_classes"]}
        assert err.startswith("error: checkpoint ") and f"takes {takes}, " in err and f"have {has}" in err
        assert not out.exists()

    def test_skipping_the_moments_keeps_metrics_identical(self, workdir, tmp_path, monkeypatch):
        # the trained checkpoint holds AdamW moments; eval skips them, and
        # scores what it scored when it read them
        ckpt = workdir / "run" / "checkpoint.ckpt"
        assert load_checkpoint(ckpt)[1]["opt"] is not None
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(workdir / "data")]
        assert main(argv + ["--out", str(tmp_path / "skipped")]) == 0
        monkeypatch.setattr(cli, "load_checkpoint", lambda path, moments: load_checkpoint(path))
        assert main(argv + ["--out", str(tmp_path / "read")]) == 0
        metrics = [(tmp_path / run / "metrics.json").read_bytes() for run in ("skipped", "read")]
        assert metrics[0] == metrics[1]

    def test_rerun_with_op_workers_keeps_metrics_identical(self, tmp_path):
        """At 32^3 the stage-1 ops take the row-split path; reruns write the
        same bytes, and the manifest records the op worker count, the same
        on every rerun, and no case thread count."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "shape": [32, 32, 32]}))
        assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(spec),
                     "--cases", "2", "--fractions", "1,0,0"]) == 0
        cfg = ModelConfig.from_dict({**MODEL, "input_shape": [32, 32, 32],
                                     "modalities": 2, "n_classes": 3})
        save_checkpoint(Model(cfg), tmp_path / "model.ckpt")
        runs = {}
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eval", "--out", str(out), "--checkpoint", str(tmp_path / "model.ckpt"),
                         "--data", str(tmp_path / "data")]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert "threads" not in manifest
            assert manifest["op_workers"] == ad.OP_WORKERS
            del manifest["artifacts"]  # paths under --out
            runs[name] = ((out / "metrics.json").read_bytes(), manifest)
        assert runs["a"] == runs["b"]

    def test_nan_spacing_in_a_volume_file_fails_typed(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        volume = data / "case_0001" / "volume.mmv"
        raw = bytearray(volume.read_bytes())
        raw[4 + 16 : 4 + 20] = struct.pack("<f", float("nan"))  # first spacing entry
        volume.write_bytes(bytes(raw))
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--checkpoint",
                     str(workdir / "run" / "checkpoint.ckpt"), "--data", str(data)]) == 2
        assert "spacing" in capsys.readouterr().err
        assert not (out / "metrics.json").exists() and not (out / "metrics.csv").exists()

    def test_corrupt_volume_header_fails_typed_before_the_manifest(self, workdir, tmp_path, capsys):
        # extents whose payload (4 * 65535^4 bytes) no file holds
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        volume = data / "case_0001" / "volume.mmv"
        raw = bytearray(volume.read_bytes())
        raw[4:20] = struct.pack("<IIII", 65535, 65535, 65535, 65535)
        volume.write_bytes(bytes(raw))
        out = tmp_path / "e"
        assert main(["eval", "--out", str(out), "--checkpoint",
                     str(workdir / "run" / "checkpoint.ckpt"), "--data", str(data)]) == 2
        assert capsys.readouterr().err.startswith(f"failure: truncated file: wanted {4 * 65535 ** 4} bytes")
        assert not out.exists()

    def test_missing_checkpoint(self, workdir, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--data", str(workdir / "data")]) == 1

    def test_missing_data_dir(self, workdir, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "nope")]) == 1
        assert f"dataset directory not found: {tmp_path / 'nope'}" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_split_scores_only_that_split(self, tmp_path):
        """eval --split val scores the held-out case alone and names it by
        its dataset index; the default still scores every case."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(MODEL))
        data = tmp_path / "data"
        assert main(["gen", "--out", str(data), "--spec", str(spec), "--cases", "3",
                     "--fractions", "0.67,0.33,0"]) == 0
        assert main(["train", "--out", str(tmp_path / "run"), "--data", str(data),
                     "--model-config", str(model_json), "--steps", "1"]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
        (val_index,) = json.loads((data / "splits.json").read_text())["val"]

        out = tmp_path / "val"
        assert main(["eval", "--out", str(out), "--checkpoint", ckpt, "--data", str(data),
                     "--split", "val"]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["n_cases"] == 1
        assert [case["case"] for case in report["per_case"]] == [val_index]
        assert {row[0] for row in read_csv(out / "metrics.csv")[1:-1]} == {str(val_index)}
        assert json.loads((out / "manifest.json").read_text())["config"]["split"] == "val"

        everything = tmp_path / "all"
        assert main(["eval", "--out", str(everything), "--checkpoint", ckpt,
                     "--data", str(data)]) == 0
        report = json.loads((everything / "metrics.json").read_text())
        assert [case["case"] for case in report["per_case"]] == [0, 1, 2]
        assert json.loads((everything / "manifest.json").read_text())["config"]["split"] == "all"

    def test_named_split_needs_a_nonempty_split(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        argv = ["eval", "--checkpoint", str(workdir / "run" / "checkpoint.ckpt"),
                "--data", str(data)]
        # the workdir dataset's test fraction is 0
        assert main(argv + ["--out", str(tmp_path / "e1"), "--split", "test"]) == 1
        assert "test split" in capsys.readouterr().err
        (data / "splits.json").unlink()
        assert main(argv + ["--out", str(tmp_path / "e2"), "--split", "train"]) == 1
        assert "splits.json" in capsys.readouterr().err
        assert not (tmp_path / "e1").exists() and not (tmp_path / "e2").exists()

    def test_manifest_records_the_environment(self, workdir):
        env = json.loads((workdir / "evaldir" / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads", "cpu_affinity", "git_revision"}
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["blas_threads"] == ad.blas_threads()
        if ad.blas_threads() is not None and ad.OP_WORKERS > 1:
            assert env["blas_threads"] == 1
        assert env["cpu_affinity"] == len(os.sched_getaffinity(0))
        # the checkout the package runs from, if it runs from one
        source = Path(cli.__file__).parent
        head = shutil.which("git") and subprocess.run(["git", "rev-parse", "HEAD"], cwd=source,
                                                      capture_output=True, text=True)
        assert env["git_revision"] == (head.stdout.strip() if head and head.returncode == 0 else None)
        assert env["git_revision"] is None or re.fullmatch("[0-9a-f]{40}", env["git_revision"])

    def test_git_revision_is_none_outside_a_checkout(self, tmp_path, monkeypatch):
        # GIT_CEILING_DIRECTORIES stops git's search above tmp_path
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert cli._git_revision(tmp_path) is None
        monkeypatch.setenv("PATH", str(tmp_path))  # no git to run
        assert cli._git_revision(Path(cli.__file__).parent) is None


class TestGradcheck:
    def test_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "grad"
        assert main(["gradcheck", "--out", str(out)]) == 0
        assert "all" in capsys.readouterr().out
        rows = read_csv(out / "gradcheck.csv")
        assert rows[0] == ["block", "max_rel_err", "tolerance", "status"]
        assert len(rows) > 10
        for block, err, tol, status in rows[1:]:
            assert status == "pass", f"{block} failed at {err}"
            assert float(err) < float(tol)


class TestBenchAttn:
    def test_closed_forms_and_counters(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench-attn", "--out", str(out), "--grid", "4,4,4",
                     "--window", "2,2,2", "--channels", "16", "--heads", "2",
                     "--repeats", "1"]) == 0
        rows = read_csv(out / "bench_attn.csv")
        record = dict(zip(rows[0], rows[1]))
        assert record["pairs_full"] == "4096"
        assert record["pairs_mixer"] == "1792"
        assert record["counted_full"] == record["pairs_full"]
        assert record["counted_mixer"] == record["pairs_mixer"]

    def test_grid_sweep(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench-attn", "--out", str(out), "--grid", "2,2,2",
                     "--grid", "4,4,4", "--window", "2,2,2", "--channels", "8",
                     "--heads", "2", "--repeats", "1"]) == 0
        assert len(read_csv(out / "bench_attn.csv")) == 3

    @pytest.mark.parametrize("flag,value,message", [
        ("--repeats", "0", "--repeats must be >= 1"), ("--channels", "0", "dim must be positive"),
        ("--window", "2,2,2", "does not tile grid"),
    ], ids=["zero-repeats", "zero-channels", "untileable-grid"])
    def test_bad_numbers_fail_before_the_manifest(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench"
        args = {"--grid": "3,2,2", "--window": "1,1,1", "--channels": "8", "--heads": "2",
                "--repeats": "1", flag: value}
        assert main(["bench-attn", "--out", str(out)]
                    + [x for kv in args.items() for x in kv]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_two_rows(self, tmp_path):
        out = tmp_path / "ablate"
        assert main(["ablate", "--out", str(out), "--rows", "full,baseline-concat",
                     "--cases", "2", "--steps", "2", "--seeds", "1"]) == 0
        rows = read_csv(out / "ablate.csv")
        assert rows[0] == ["rank", "row", "mean_val_dice", "seeds"]
        assert {r[1] for r in rows[1:]} == {"full", "baseline-concat"}
        assert (out / "runs" / "full-s0" / "checkpoint.ckpt").exists()
        assert (out / "data" / "case_0000" / "volume.mmv").exists()

    @pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--cases", "1")])
    def test_degenerate_sizes_rejected_before_data(self, tmp_path, capsys, flag, value):
        out = tmp_path / "a"
        assert main(["ablate", "--out", str(out), "--rows", "full", "--steps", "1",
                     flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (out / "data").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--steps", "0", "steps must be positive"), ("--lr", "nan", "lr must be finite"),
    ], ids=["zero-steps", "nan-lr"])
    def test_bad_train_numbers_fail_before_the_manifest(self, tmp_path, capsys, flag, value,
                                                         message):
        out = tmp_path / "a"
        assert main(["ablate", "--out", str(out), "--rows", "full", "--cases", "2",
                     "--steps", "1", flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_case_dataset_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        assert main(["gen", "--out", str(data), "--spec", str(spec), "--cases", "1",
                     "--fractions", "1,0,0"]) == 0
        assert main(["ablate", "--out", str(tmp_path / "a"), "--data", str(data),
                     "--rows", "full", "--steps", "1"]) == 1
        assert "ablate needs >= 2 cases" in capsys.readouterr().err
        assert not (tmp_path / "a" / "runs").exists()

    def test_constant_modality_rejected_before_any_row_trains(self, tmp_path, capsys):
        # the noise-free spec that train refuses
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC, "noise_sigma": 0}))
        with pytest.warns(UserWarning, match="normalizes to all zeros"):
            assert main(["gen", "--out", str(tmp_path / "data"), "--spec", str(spec), "--cases", "6",
                         "--fractions", "0.5,0.5,0"]) == 0
        assert main(["ablate", "--out", str(tmp_path / "a"), "--data", str(tmp_path / "data"),
                     "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "training case 0" in err and "modality 0 normalizes to all zeros" in err
        assert not (tmp_path / "a" / "runs").exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        assert main(["ablate", "--out", str(tmp_path / "a"), "--data", str(tmp_path / "nope"),
                     "--rows", "full", "--steps", "1"]) == 1
        assert f"dataset directory not found: {tmp_path / 'nope'}" in capsys.readouterr().err
        assert not (tmp_path / "a" / "runs").exists()

    @pytest.mark.parametrize("cases,message", [(None, "dataset directory not found"),
                                               (1, "ablate needs >= 2 cases")], ids=["missing", "one-case"])
    def test_bad_data_fails_before_the_manifest(self, tmp_path, capsys, cases, message):
        data = tmp_path / "data"
        if cases is not None:
            (tmp_path / "spec.json").write_text(json.dumps(SPEC))
            assert main(["gen", "--out", str(data), "--spec", str(tmp_path / "spec.json"),
                         "--cases", str(cases), "--fractions", "1,0,0"]) == 0
        out = tmp_path / "a"
        assert main(["ablate", "--out", str(out), "--data", str(data), "--rows", "full", "--steps", "1"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_row(self, tmp_path, capsys):
        assert main(["ablate", "--out", str(tmp_path / "a"), "--rows", "nope"]) == 1
        assert "unknown ablation rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_cases_that_disagree_on_extents_are_refused(workdir, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    (data / "splits.json").unlink()  # every command then reads every case
    (tmp_path / "spec.json").write_text(json.dumps({**SPEC, "shape": [32, 16, 16]}))
    assert main(["gen", "--out", str(tmp_path / "odd"), "--spec", str(tmp_path / "spec.json"),
                 "--cases", "1", "--fractions", "1,0,0"]) == 0
    shutil.rmtree(data / "case_0002")
    shutil.copytree(tmp_path / "odd" / "case_0000", data / "case_0002")
    args = {"train": ["--model-config", str(workdir / "model.json"), "--steps", "1"],
            "eval": ["--checkpoint", str(workdir / "run" / "checkpoint.ckpt")],
            "ablate": ["--rows", "full", "--steps", "1"]}[command]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--data", str(data), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: case 2 of {data} has {{'input_shape': (32, 16, 16), ")
    assert "but case 0 has {'input_shape': (16, 16, 16), " in err
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("gen", ["--cases", "2"]), ("train", ["--steps", "1"]),
    ("ablate", ["--rows", "full", "--cases", "2", "--steps", "1"]), ("gradcheck", []),
], ids=["gen", "train", "ablate", "gradcheck"])
def test_negative_seed_fails_before_the_manifest(workdir, tmp_path, capsys, command, args):
    if command == "train":
        args = args + ["--data", str(workdir / "data"), "--model-config", str(workdir / "model.json")]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--seed", "-1", *args]) == 1
    err = capsys.readouterr().err
    assert "seed must be" in err and "Error" not in err
    assert not out.exists()


def test_negative_model_seed_fails_before_the_manifest(workdir, tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({**MODEL, "seed": -1}))
    out = tmp_path / "out"
    assert main(["train", "--out", str(out), "--data", str(workdir / "data"),
                 "--model-config", str(cfg), "--steps", "1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


class TestReport:
    def test_train_run(self, workdir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--out", str(out), "--run", str(workdir / "run")]) == 0
        loss = read_csv(out / "loss_curve.csv")
        assert loss[0][:2] == ["step", "loss"]
        assert len(loss) == 3  # header + 2 steps
        assert (out / "val_curve.csv").exists()

    def test_eval_run(self, workdir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--out", str(out), "--run", str(workdir / "evaldir")]) == 0
        rows = read_csv(out / "metrics_by_class.csv")
        assert rows[0] == ["class", "mean_dice", "mean_hd95"]
        assert [r[0] for r in rows[1:]] == ["1", "2"]

    def test_empty_train_log(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "train_log.jsonl").write_text("")
        assert main(["report", "--out", str(tmp_path / "r"), "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert "train_log.jsonl" in err and "IndexError" not in err
        assert not (tmp_path / "r").exists()

    def test_nothing_to_report(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--out", str(tmp_path / "r"), "--run", str(empty)]) == 1
        assert "nothing to report" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("name,content,message", [
        ("train_log.jsonl", '{"step": 1, "loss": 0.5}\n{"step": 2,\n', "is not valid JSON"),
        ("train_log.jsonl", '{"step": 1, "loss": 0.5}\n{"step": 2}\n', "KeyError('loss')"),
        ("val_log.jsonl", '{"dice": 0.5}\n', "KeyError('step')"),
        ("val_log.jsonl", "[0, 0.5]\n", "TypeError("),
        ("metrics.json", '{"classes": [1], "mean_dice": {"1": 0.5}}', "KeyError('mean_hd95')"),
    ], ids=["malformed", "train-no-loss", "val-no-step", "val-not-object", "metrics-no-hd95"])
    def test_unreadable_log_fails_typed_before_the_manifest(self, workdir, tmp_path, capsys,
                                                            name, content, message):
        # the readable train log beside a bad file is not written either
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(workdir / "run" / "train_log.jsonl", run)
        (run / name).write_text(content)
        out = tmp_path / "r"
        assert main(["report", "--out", str(out), "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"failure: {run / name} ") and message in err
        assert not out.exists()


class TestIsolation:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # 1 case -> empty splits
    def test_writes_stay_under_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC))
        before = set(tmp_path.rglob("*"))
        out = tmp_path / "only_out"
        assert main(["gen", "--out", str(out), "--spec", str(spec), "--cases", "1"]) == 0
        created = set(tmp_path.rglob("*")) - before
        assert created, "gen produced nothing"
        outside = [p for p in created if out not in p.parents and p != out]
        assert outside == []
