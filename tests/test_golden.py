"""Golden SHA-256 hashes of a fixed toy pipeline: the bit-identity contract.

`gen`, `train`, `eval` and `ablate` run at toy scale, and a float64 toy
model takes one backward; every output file (manifests aside) and the loss
and gradient bytes are hashed.  `golden.json` holds one entry per numeric
stack, keyed by the numpy and scipy versions, the BLAS name and version,
OpenBLAS's core name and the machine.  A change that moves output bits must
update the entry and list each changed hash.  On a stack the table has no
entry for, the test skips and prints the entry to add.
"""

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from mmvseg import autodiff as ad
from mmvseg import cli
from mmvseg.cli import main
from mmvseg.data import load_dataset
from mmvseg.model import Model, ModelConfig
from mmvseg.nn import FlatParams
from mmvseg.training import cross_entropy_loss, soft_dice_loss
from test_cli import MODEL

GOLDEN = Path(__file__).with_name("golden.json")
SPEC = {"shape": [16, 16, 16], "radius_range": [2.0, 4.0], "seed": 3}


def openblas_cores():
    """The core name (the kernel set picked at start-up) of each loaded
    OpenBLAS, comma-joined; None without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    cores = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename", "openblas_get_corename64_",
                     "scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                cores.append(getter().decode())
                break
    return ",".join(cores) or None


def stack_key():
    env = cli._environment()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": env["blas"],
            "openblas_core": openblas_cores(), "machine": platform.machine()}


def file_hashes(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def float64_step_hashes(data):
    """Hashes of a float64 toy model's loss and flat parameter gradient
    after one backward on the first case."""
    volume, mask = load_dataset(data)[0]
    model = Model(ModelConfig.from_dict({**MODEL, "input_shape": list(volume.shape[:3]),
                                         "modalities": volume.shape[3], "n_classes": mask.n_classes,
                                         "dtype": "float64"}))
    params = FlatParams(model.named_params())
    with ad.Tape() as tape:
        logits = model(volume)
        loss = ad.add(soft_dice_loss(logits, mask), cross_entropy_loss(logits, mask))
    ad.backward(loss, tape)
    return {"float64/loss": hashlib.sha256(loss.data.tobytes()).hexdigest(),
            "float64/grad": hashlib.sha256(params.grad.tobytes()).hexdigest()}


def pipeline_hashes(tmp):
    spec, model = tmp / "spec.json", tmp / "model.json"
    spec.write_text(json.dumps(SPEC))
    model.write_text(json.dumps(MODEL))
    out = tmp / "out"
    data, ckpt = out / "gen", out / "train" / "checkpoint.ckpt"
    for argv in (["gen", "--out", str(data), "--spec", str(spec), "--cases", "6",
                  "--fractions", "0.5,0.25,0.25"],
                 ["train", "--out", str(out / "train"), "--data", str(data), "--model-config", str(model),
                  "--steps", "3", "--val-every", "1"],
                 ["eval", "--out", str(out / "eval"), "--checkpoint", str(ckpt), "--data", str(data)],
                 ["ablate", "--out", str(out / "ablate"), "--data", str(data), "--steps", "2"]):
        assert main(argv) == 0, argv
    return {**file_hashes(out), **float64_step_hashes(data)}


def test_pipeline_matches_the_golden_hashes(tmp_path):
    key = stack_key()
    hashes = pipeline_hashes(tmp_path)
    entries = json.loads(GOLDEN.read_text())["entries"]
    golden = next((e["sha256"] for e in entries if e["key"] == key), None)
    if golden is None:
        entry = json.dumps({"key": key, "sha256": hashes}, indent=2, sort_keys=True)
        print(entry)
        pytest.skip(f"golden.json has no entry for this numeric stack; the entry to add:\n{entry}")
    changed = sorted(name for name in golden.keys() | hashes.keys() if golden.get(name) != hashes.get(name))
    assert not changed, f"outputs differ from golden.json: {changed}"
