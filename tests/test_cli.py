"""End-to-end CLI flows: exit codes, files written, reproducibility."""

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from equibound import cli
from equibound.cli import SweepConfig, _derive_seed, _parse_group, main, run_sweep
from equibound.bounds import BoundInputs, csv_header
from equibound.datasets import input_rep_for, load_dataset
from equibound.equivariant import TrainConfig, TrainingDiverged, load_checkpoint
from equibound.irreps import rep_to_json


# ------------------------------------------------------------ small pieces


def test_parse_group():
    assert _parse_group("cyclic:8") == ("cyclic", 8)
    assert _parse_group("dihedral:3") == ("dihedral", 3)
    assert _parse_group("quaternion") == ("quaternion", 8)
    assert _parse_group("cyclic:1") == ("cyclic", 1)
    with pytest.raises(ValueError, match="kind:N"):
        _parse_group("cyclic:x")


@pytest.mark.parametrize(
    "a, b, rho",
    [
        ([1.0, 2.0, 3.0, 4.0], [10.0, 30.0, 20.0, 40.0], 0.8),
        ([3.0, 1.0, 2.0], [1.0, 2.0, 3.0], -0.5),
        # Ties share the mean rank: a ranks (1.5, 1.5, 3, 4).
        ([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], 0.9486832980505138),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], math.nan),
        ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0], math.nan),
    ],
)
def test_spearman_hand_values(a, b, rho):
    got = cli._spearman(a, b)
    if math.isnan(rho):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(rho, abs=1e-15)


def test_spearman_matches_scipy_bit_for_bit():
    """Seeded inputs of 2 to 16 values; every odd trial draws small integers,
    so it holds ties (and sometimes a constant input, NaN on both sides)."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    for trial in range(2000):
        n = int(rng.integers(2, 17))
        if trial % 2:
            a, b = rng.integers(0, 4, (2, n)).astype(float)
        else:
            a, b = rng.standard_normal((2, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            expected = float(stats.spearmanr(a, b).statistic)
        got = cli._spearman(list(a), list(b))
        assert got == expected or (math.isnan(got) and math.isnan(expected)), (a, b)


def test_derive_seed_is_stable_and_tag_sensitive():
    a = _derive_seed(0, "train")
    assert a == _derive_seed(0, "train")
    assert a != _derive_seed(1, "train")
    assert a != _derive_seed(0, "test")
    assert 0 <= a < 2**63


def test_training_defaults_come_from_train_config():
    """TrainConfig holds the one default of each training setting."""
    sweep = SweepConfig()
    assert (sweep.max_epochs, sweep.learning_rate, sweep.batch_size) == (
        TrainConfig.max_epochs, TrainConfig.learning_rate, TrainConfig.batch_size
    )
    args = cli._build_parser().parse_args(["train", "--data", "d.json", "--group", "cyclic:4"])
    assert (args.epochs, args.lr, args.batch) == (
        TrainConfig.max_epochs, TrainConfig.learning_rate, TrainConfig.batch_size
    )


@pytest.mark.parametrize(
    "argv, dest, owner",
    [
        (["bound", "--model", "c.json", "--data", "d.json"], "eta", BoundInputs.eta),
        (["bound", "--model", "c.json", "--data", "d.json"], "delta", BoundInputs.delta),
        (None, "eta", BoundInputs.eta),
        (None, "delta", BoundInputs.delta),
        (["train", "--data", "d.json", "--group", "cyclic:4"], "gamma", SweepConfig.gamma),
        (["gen-data", "--symmetry", "so2", "--train-out", "t.json"], "test_m", SweepConfig.test_m),
    ],
    ids=["bound-eta", "bound-delta", "sweep-eta", "sweep-delta", "train-gamma", "gen-data-test-m"],
)
def test_shared_setting_defaults_have_one_owner(argv, dest, owner):
    """A flag or SweepConfig field (argv None) whose setting another
    command or BoundInputs shares reads its default from the one owner."""
    settings = SweepConfig() if argv is None else cli._build_parser().parse_args(argv)
    assert getattr(settings, dest) == owner


def test_config_hash_ignores_out_dir():
    a = SweepConfig(out_dir="here")
    b = SweepConfig(out_dir="there")
    assert a.config_hash() == b.config_hash()
    c = SweepConfig(gamma=5.0)
    assert c.config_hash() != a.config_hash()


# --------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> files, shared across the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    train_path = str(root / "train.json")
    test_path = str(root / "test.json")
    model_path = str(root / "model.json")
    rc = main(
        [
            "gen-data",
            "--symmetry", "so2",
            "--d", "4",
            "--f", "2",
            "--m", "192",
            "--seed", "2",
            "--train-out", train_path,
            "--test-out", test_path,
            "--test-m", "256",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--data", train_path,
            "--group", "cyclic:4",
            "--widths", "32", "16",
            "--gamma", "1.0",
            "--lr", "0.02",
            "--epochs", "500",
            "--batch", "64",
            "--seed", "0",
            "--out", model_path,
        ]
    )
    assert rc == 0
    return {"root": root, "train": train_path, "test": test_path, "model": model_path}


def test_gen_data_writes_loadable_files(pipeline):
    spec, train_set = load_dataset(pipeline["train"])
    assert spec.symmetry == "so2"
    assert len(train_set) == 192
    _, test_set = load_dataset(pipeline["test"])
    assert len(test_set) == 256
    assert test_set.augment == "group"


def test_train_checkpoint_metadata(pipeline):
    with open(pipeline["model"]) as f:
        data = json.load(f)
    meta = data["metadata"]
    assert meta["gamma"] == 1.0
    assert meta["m"] == 192
    assert meta["widths"] == [32, 16]
    assert meta["channels"] == [8, 4]


def test_bound_writes_csv_and_json(pipeline, capsys):
    out_csv = str(pipeline["root"] / "report.csv")
    out_json = str(pipeline["root"] / "report.json")
    rc = main(
        [
            "bound",
            "--model", pipeline["model"],
            "--data", pipeline["train"],
            "--test-data", pipeline["test"],
            "--csv", out_csv,
            "--json", out_json,
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bound_main=" in printed
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == csv_header(3)
    assert len(rows) == 2
    assert float(rows[1][rows[0].index("bound_main")]) > 0
    with open(out_json) as f:
        report = json.load(f)
    assert report["gamma"] == 1.0  # recovered from checkpoint metadata
    assert report["m"] == 192
    assert report["bound_main"] > 0
    assert report["bound_groupconv"] > 0


def test_bound_as_written_headline(pipeline, capsys):
    """The headline prints both readings of the main bound."""
    rc = main(["bound", "--model", pipeline["model"], "--data", pipeline["train"]])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bound_main=" in printed
    assert "bound_main_as_written=" in printed


# --------------------------------------------------------------- exit codes


def test_gen_data_missing_args_exit_2(tmp_path):
    rc = main(
        [
            "gen-data",
            "--symmetry", "cyclic",
            "--train-out", str(tmp_path / "x.json"),
        ]
    )
    assert rc == 2  # discrete symmetry without --m-order


def test_bound_missing_file_exit_2(tmp_path):
    rc = main(
        [
            "bound",
            "--model", str(tmp_path / "absent.json"),
            "--data", str(tmp_path / "absent2.json"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("case", ["model-is-dir", "out-dir-is-file"])
def test_unusable_path_exit_2(pipeline, tmp_path, monkeypatch, capsys, case):
    """A path that cannot be read or written exits 2 with a message, and a
    sweep refuses its output directory before any cell trains."""

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the output directory was made")

    monkeypatch.setattr(cli, "train", no_training)
    if case == "model-is-dir":
        argv = ["bound", "--model", str(tmp_path), "--data", pipeline["train"]]
    else:
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["sweep", "--max-epochs", "1", "--m-grid", "96", "--seeds", "0",
                "--test-m", "100", "--groups", "cyclic:1", "--out-dir", str(taken)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bound_old_checkpoint_layout_exit_2(pipeline, tmp_path, capsys):
    """A file in the layout before schema_version 2 is refused, not misread."""
    net, metadata = load_checkpoint(pipeline["model"])
    with open(pipeline["model"]) as f:
        data = json.load(f)
    del data["schema_version"]
    data["layers"] = [
        {
            "in_rep": rep_to_json(layer.in_rep),
            "out_rep": rep_to_json(layer.out_rep),
            "coefficients": {
                f"{pid}/{j}/{i}": arr[j, i].tolist()
                for pid, arr in layer.coefficients.items()
                for j in range(arr.shape[0])
                for i in range(arr.shape[1])
            },
        }
        for layer in net.layers
    ]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    rc = main(["bound", "--model", str(old), "--data", pipeline["train"]])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_bad_group_exit_2(pipeline, capsys):
    for group in ("cyclic:x", "cyclic:", "octahedral:4"):
        rc = main(["train", "--data", pipeline["train"], "--group", group, "--widths", "8"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_train_malformed_dataset_exit_2(pipeline, tmp_path, capsys):
    """A bad label, or a symmetry that is no family, is refused before training."""
    for mutate, message in (
        (lambda data: data["samples"]["y"].__setitem__(0, 2), "labels must be 0 or 1"),
        (lambda data: data["spec"].update(symmetry="so3"), "unknown symmetry 'so3'"),
    ):
        with open(pipeline["train"]) as f:
            data = json.load(f)
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = main(["train", "--data", str(bad), "--group", "cyclic:4", "--widths", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(bad)) == 1


@pytest.mark.parametrize(
    "out, message",
    [("missing/m.json", "no directory"), (".", "is a directory")],
    ids=["missing-directory", "directory"],
)
def test_train_unwritable_out_exit_2_before_training(pipeline, tmp_path, capsys, out, message):
    """An --out that names a directory, or a file in a missing one, is
    refused before the first epoch."""
    out = str(tmp_path / out)
    rc = main(["train", "--data", pipeline["train"], "--group", "cyclic:4", "--widths", "8",
               "--out", out])
    assert rc == 2
    captured = capsys.readouterr()
    assert "trained in" not in captured.out
    assert captured.err.startswith(f"error: --out {out}: {message}")


@pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--lr", "-1"), ("--epochs", "0")])
def test_train_bad_config_exit_2(pipeline, capsys, flag, value):
    """A bad optimizer setting is refused before any data is read or epoch run."""
    rc = main(["train", "--data", pipeline["train"], "--group", "cyclic:4", "--widths", "8", flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "keys",
    [("group",), ("architecture",), ("layers",), ("architecture", "input_rep", "blocks")],
    ids=lambda keys: ".".join(keys),
)
def test_bound_checkpoint_missing_key_exit_2(pipeline, tmp_path, capsys, keys):
    """A checkpoint without a key it needs names the file and the key."""
    with open(pipeline["model"]) as f:
        data = json.load(f)
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    del entry[keys[-1]]
    bad = tmp_path / "lacking.json"
    bad.write_text(json.dumps(data))
    message = f"{bad}: checkpoint lacks the key '{keys[-1]}'"
    with pytest.raises(ValueError, match=re.escape(message)) as refused:
        load_checkpoint(str(bad))
    assert str(refused.value).count(str(bad)) == 1
    rc = main(["bound", "--model", str(bad), "--data", pipeline["train"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and f"'{keys[-1]}'" in err
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize(
    "where, message",
    [
        ("metadata", "'metadata' is not a JSON object"),
        ("layer", "'layers' entry 1 is not a JSON object"),
        ("layers", "'layers' is not a JSON array"),
    ],
    ids=["metadata", "layer", "layers"],
)
def test_bound_checkpoint_wrong_json_type_exit_2(pipeline, tmp_path, capsys, where, message):
    """A checkpoint whose metadata or a layer entry is a list, or whose
    layers are an object, is refused with the file and the key named."""
    with open(pipeline["model"]) as f:
        data = json.load(f)
    if where == "metadata":
        data["metadata"] = list(data["metadata"])
    elif where == "layer":
        data["layers"][1] = list(data["layers"][1])
    else:
        data["layers"] = dict(enumerate(data["layers"]))
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: checkpoint key {message}")) as refused:
        load_checkpoint(str(bad))
    assert str(refused.value).count(str(bad)) == 1
    rc = main(["bound", "--model", str(bad), "--data", pipeline["train"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: checkpoint key {message}")
    assert err.count(str(bad)) == 1


def _first_coefficients_of_layer_1(data, value):
    layer = data["layers"][1]
    layer[next(iter(layer))] = value


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["architecture"].update(hidden_channels="ab"),
         "checkpoint key 'architecture'['hidden_channels'] is not an array of integers"),
        (lambda d: d["architecture"].update(n_classes="two"),
         "checkpoint key 'architecture'['n_classes'] is not an integer"),
        (lambda d: _first_coefficients_of_layer_1(d, "abc"),
         "checkpoint key 'layers' entry 1['"),
        (lambda d: d["architecture"]["input_rep"].update(Q=d["architecture"]["input_rep"]["Q"][:2]),
         "checkpoint key 'architecture'['input_rep']: rep basis Q holds 2 entries, not 8x8"),
        (lambda d: d["metadata"].update(gamma="x"),
         "checkpoint key 'metadata'['gamma'] is not a number or null"),
    ],
    ids=["hidden_channels", "n_classes", "coefficients", "Q-length", "gamma"],
)
def test_bound_checkpoint_value_of_wrong_type_exit_2(pipeline, tmp_path, capsys, mutate, message):
    """A checkpoint value of the wrong JSON type or size is refused with
    the file and its key path named."""
    with open(pipeline["model"]) as f:
        data = json.load(f)
    mutate(data)
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")) as refused:
        load_checkpoint(str(bad))
    assert str(refused.value).count(str(bad)) == 1
    rc = main(["bound", "--model", str(bad), "--data", pipeline["train"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["architecture"]["input_rep"].update(blocks=[["nope", 1]]),
         "checkpoint key 'architecture'['input_rep']: group FiniteGroup(kind='cyclic', N=4, "
         "order=4) has no irrep 'nope'"),
        (lambda d: d["architecture"].update(hidden_channels=[0]),
         "checkpoint key 'architecture': hidden_channels must all be >= 1, got [0]"),
        (lambda d: d["architecture"].update(hidden_channels=[]),
         "checkpoint key 'architecture': hidden_channels is empty"),
        (lambda d: d["architecture"].update(n_classes=1),
         "checkpoint key 'architecture': n_classes must be at least 2, got 1"),
        (lambda d: d["group"].update(kind="octahedral"),
         "checkpoint key 'group': unknown group kind 'octahedral'"),
        (lambda d: d["group"].update(N=0),
         "checkpoint key 'group': rotation order must be a positive integer, got 0"),
    ],
    ids=["irrep", "channel-0", "no-hidden", "one-class", "kind", "N"],
)
def test_bound_checkpoint_value_the_model_cannot_take_exit_2(
    pipeline, tmp_path, capsys, mutate, message
):
    """A checkpoint value of the right JSON type that names no irrep or
    group, or no network, is refused with the file and its key named."""
    with open(pipeline["model"]) as f:
        data = json.load(f)
    mutate(data)
    bad = tmp_path / "unbuildable.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")) as refused:
        load_checkpoint(str(bad))
    assert str(refused.value).count(str(bad)) == 1
    rc = main(["bound", "--model", str(bad), "--data", pipeline["train"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["spec"].update(frequencies=3),
         "dataset key 'spec'['frequencies'] is not an array of integers"),
        (lambda d: d["samples"].update(X="abc"),
         "dataset key 'samples'['X'] is not an array of numbers"),
        (lambda d: d["spec"].update(D="three"),
         "dataset key 'spec'['D'] is not an integer"),
        (lambda d: d["samples"].update(B=[1.0]),
         "dataset key 'samples'['B'] is not a number"),
        (lambda d: d["spec"].update(representatives=[d["spec"]["representatives"][:3], [1.0]]),
         "dataset key 'spec'['representatives'] is not an array of numbers"),
        (lambda d: d["spec"].update(representatives=d["spec"]["representatives"][:-1]),
         "dataset key 'spec'['representatives'] holds 63 numbers, not rows of 8"),
        (lambda d: d["samples"].update(X=d["samples"]["X"][:-1]),
         "dataset key 'samples'['X'] holds 1535 numbers, not rows of 8"),
        (lambda d: d["spec"].update(D=0, frequencies=[]), "D=0, need at least one unit"),
    ],
    ids=["frequencies", "X", "D", "B", "ragged-representatives", "short-representatives",
         "short-X", "no-units"],
)
def test_train_dataset_value_of_wrong_type_exit_2(pipeline, tmp_path, capsys, mutate, message):
    """A dataset value of the wrong JSON type or size is refused with the
    file and its key path named, before any network is built."""
    with open(pipeline["train"]) as f:
        data = json.load(f)
    mutate(data)
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")) as refused:
        load_dataset(str(bad))
    assert str(refused.value).count(str(bad)) == 1
    rc = main(["train", "--data", str(bad), "--group", "cyclic:4", "--widths", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count(str(bad)) == 1


# The file readers of the command line, each as a command line that reads
# `bad` and otherwise the pipeline's good files.
_READERS = {
    "bound --model": lambda p, bad: ["bound", "--model", bad, "--data", p["train"]],
    "bound --data": lambda p, bad: ["bound", "--model", p["model"], "--data", bad],
    "bound --test-data": lambda p, bad: [
        "bound", "--model", p["model"], "--data", p["train"], "--test-data", bad,
    ],
    "train --data": lambda p, bad: ["train", "--data", bad, "--group", "cyclic:4", "--widths", "8"],
    "sweep --config": lambda p, bad: ["sweep", "--config", bad],
}


@pytest.mark.parametrize(
    "content", [b'{"schema_version": 3, "group": ', b"\xff{}"], ids=["truncated", "non-utf-8"]
)
@pytest.mark.parametrize("reader", list(_READERS))
def test_undecodable_file_exit_2_naming_it_once(
    pipeline, tmp_path, capsys, monkeypatch, reader, content
):
    """A truncated or non-UTF-8 file is refused with its path, named
    once, followed by the decoder's own message."""
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("a network trained"))
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(ValueError) as decoding:
        with open(bad) as f:
            json.load(f)
    assert main(_READERS[reader](pipeline, str(bad))) == 2
    assert capsys.readouterr().err == f"error: {bad}: {decoding.value}\n"


@pytest.mark.parametrize(
    "command, flag",
    [("gen-data", "--train-out"), ("gen-data", "--test-out"), ("bound", "--csv"), ("bound", "--json")],
)
def test_unwritable_output_exit_2_before_any_work(
    pipeline, tmp_path, capsys, monkeypatch, command, flag
):
    """An output path in a missing directory is refused before any file
    is read, generated or written."""
    monkeypatch.setattr(cli, "generate_synthetic", lambda *a, **k: pytest.fail("data generated"))
    monkeypatch.setattr(cli, "load_checkpoint", lambda *a: pytest.fail("a checkpoint read"))
    out = tmp_path / "out"
    out.mkdir()
    if command == "gen-data":
        argv = ["gen-data", "--symmetry", "so2", "--d", "2", "--f", "2", "--m", "16",
                "--train-out", str(out / "train.json"), "--test-out", str(out / "test.json")]
    else:
        argv = ["bound", "--model", pipeline["model"], "--data", pipeline["train"],
                "--csv", str(out / "r.csv"), "--json", str(out / "r.json")]
    bad = str(tmp_path / "missing" / "x.json")
    argv[argv.index(flag) + 1] = bad
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} {bad}: no directory ")
    assert os.listdir(out) == []


def test_bound_non_orthogonal_input_basis_exit_2(pipeline, tmp_path, capsys):
    """A checkpoint whose input basis was scaled by 2 is refused, not misread."""
    with open(pipeline["model"]) as f:
        data = json.load(f)
    data["architecture"]["input_rep"]["Q"] = [2.0 * q for q in data["architecture"]["input_rep"]["Q"]]
    bad = tmp_path / "scaled.json"
    bad.write_text(json.dumps(data))
    rc = main(["bound", "--model", str(bad), "--data", pipeline["train"]])
    assert rc == 2
    assert "not orthogonal" in capsys.readouterr().err


def test_bound_non_finite_gamma_exit_2(pipeline, tmp_path, capsys):
    """A NaN margin is refused before a report is written."""
    out_csv = tmp_path / "nan.csv"
    rc = main(["bound", "--model", pipeline["model"], "--data", pipeline["train"],
               "--gamma", "nan", "--csv", str(out_csv)])
    assert rc == 2
    assert "gamma" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bound_empty_test_data_exit_2(pipeline, tmp_path, capsys):
    """A test file with no samples is refused before a report is written."""
    with open(pipeline["test"]) as f:
        data = json.load(f)
    for field in ("X", "y", "rep_index", "angle", "reflect"):
        data["samples"][field] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(data))
    out_csv = tmp_path / "empty.csv"
    rc = main(["bound", "--model", pipeline["model"], "--data", pipeline["train"],
               "--test-data", str(empty), "--csv", str(out_csv)])
    assert rc == 2
    assert "need at least one sample" in capsys.readouterr().err
    assert not out_csv.exists()


def test_train_margin_miss_exit_3(pipeline):
    rc = main(
        [
            "train",
            "--data", pipeline["train"],
            "--group", "cyclic:4",
            "--widths", "8",
            "--gamma", "1000.0",
            "--epochs", "1",
            "--batch", "64",
        ]
    )
    assert rc == 3


def test_train_divergence_exit_4(pipeline, capsys):
    rc = main(
        [
            "train",
            "--data", pipeline["train"],
            "--group", "cyclic:4",
            "--widths", "32", "16",
            "--lr", "1e300",
            "--epochs", "800",
            "--batch", "64",
        ]
    )
    assert rc == 4
    assert "diverged in epoch 1" in capsys.readouterr().err


def test_sweep_divergence_writes_no_csv(tmp_path):
    cfg = _tiny_sweep_config(tmp_path / "diverged")
    cfg.learning_rate = 1e300
    with pytest.raises(TrainingDiverged):
        run_sweep(cfg)
    assert not (tmp_path / "diverged" / "rows.csv").exists()
    rc = main(
        [
            "sweep",
            "--sizes", "2",
            "--d", "2",
            "--groups", "cyclic:2",
            "--m-grid", "96",
            "--seeds", "0",
            "--widths", "16", "8",
            "--test-m", "200",
            "--learning-rate", "1e300",
            "--batch-size", "32",
            "--out-dir", str(tmp_path / "cli"),
        ]
    )
    assert rc == 4
    assert not (tmp_path / "cli" / "rows.csv").exists()


@pytest.mark.parametrize(
    "groups",
    [
        ["cyclic:1", "cyclic:8", "quaternion"],
        ["cyclic:1", "cyclc:4"],
        ["cyclic:1", "cyclic:x"],
        pytest.param(["cyclic:1", "cyclic:2", "--eta", "1.5"], id="eta"),
        pytest.param(["cyclic:1", "cyclic:2", "--delta", "0"], id="delta"),
        pytest.param(["cyclic:1", "cyclic:2", "--gamma", "1e-200"], id="gamma-square"),
        pytest.param(
            ["cyclic:1", "cyclic:2", "--symmetry", "cyclic", "--sizes", "4", "1"],
            id="later-size",
        ),
        pytest.param(["cyclic:1", "cyclic:2", "--m-grid", "200", "0"], id="later-m"),
    ],
)
def test_sweep_bad_group_exit_2_before_training(tmp_path, monkeypatch, groups):
    """A bad group, or a bad setting flagged after the groups, is refused
    before any cell trains, wherever it sits in the grid."""

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was validated")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "out"
    rc = main(["sweep", "--max-epochs", "10", "--m-grid", "96", "--seeds", "0",
               "--test-m", "100", "--out-dir", str(out), "--groups", *groups])
    assert rc == 2
    assert not (out / "rows.csv").exists()


@pytest.mark.parametrize("widths", [["0"], ["8", "-1"]], ids=["only", "later"])
def test_sweep_bad_width_exit_2_before_out_dir(tmp_path, capsys, widths):
    """A width below 1 is refused, with the setting and the value named,
    before the output directory is made."""
    out = tmp_path / "sw0"
    rc = main(["sweep", "--groups", "cyclic:2", "--widths", *widths, "--out-dir", str(out),
               "--sizes", "2", "--d", "2", "--m-grid", "16", "--seeds", "0", "--test-m", "8",
               "--max-epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "widths" in err and f"got {widths[-1]}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "seeds, m_grid, builds",
    [([0], [96], 3), ([0, 1], [96], 6), ([0], [96, 48], 3)],
    ids=["one-key", "two-seeds", "two-m"],
)
def test_sweep_builds_each_input_rep_once_per_size_and_seed(
    tmp_path, monkeypatch, seeds, m_grid, builds
):
    """The reps built to refuse a group serve every cell of their (size,
    seed), whatever its m."""
    built = []

    def counted(spec, G):
        built.append((G.kind, G.N))
        return input_rep_for(spec, G)

    monkeypatch.setattr(cli, "input_rep_for", counted)
    cfg = _tiny_sweep_config(tmp_path / "s")
    cfg.groups = [("cyclic", 1), ("cyclic", 2), ("cyclic", 4)]
    cfg.seeds = seeds
    cfg.m_grid = m_grid
    cfg.max_epochs = 1
    assert len(run_sweep(cfg)["rows"]) == 3 * len(seeds) * len(m_grid)
    assert len(built) == builds


def test_sweep_cell_does_not_depend_on_its_neighbours(tmp_path):
    """A group's rows are the same whether it is swept alone or beside
    other groups, in either order; only the grid's config_hash differs."""

    def rows_of(groups, name):
        cfg = _tiny_sweep_config(tmp_path / name)
        cfg.groups = groups
        cfg.seeds = [0, 1]
        cfg.max_epochs = 20
        body = Path(run_sweep(cfg)["csv_path"]).read_text()
        return [
            dict(row, config_hash=None)
            for row in csv.DictReader(io.StringIO(body))
            if (row["group_kind"], row["N"]) == ("cyclic", "2")
        ]

    c2, c4 = ("cyclic", 2), ("cyclic", 4)
    alone = rows_of([c2], "alone")
    assert len(alone) == 2
    assert rows_of([c2, c4], "first") == alone
    assert rows_of([c4, c2], "last") == alone


def test_sweep_unknown_config_key_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_field": 1}))
    assert main(["sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "config, message",
    [
        ({"random_labels": "no"}, "key 'random_labels' is not a boolean"),
        ({"widths": [8.5, 4]}, "key 'widths' is not an array of integers"),
        ({"seeds": 5}, "key 'seeds' is not an array of integers"),
        ({"gamma": "1"}, "key 'gamma' is not a number"),
        ({"d": True}, "key 'd' is not an integer"),
        ({"groups": [["cyclic", 8, 1]]}, "key 'groups' is not an array of [kind, N] pairs"),
        ({"groups": ["cyclic:x"]}, "key 'groups': group 'cyclic:x': expected kind:N"),
        ({"no_such_field": 1}, "key 'no_such_field' is not a setting"),
        ([1, 2], "file is not a JSON object"),
    ],
    ids=["bool", "widths", "seeds", "gamma", "d", "group-pair", "group-text", "unknown", "list"],
)
def test_sweep_config_value_of_wrong_type_exit_2(tmp_path, capsys, monkeypatch, config, message):
    """A config value of another JSON type than its setting's is refused,
    with the file and the key named, before any cell trains or the output
    directory is made."""
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("a cell trained"))
    cfg = tmp_path / "cfg.json"
    if isinstance(config, dict):
        config = dict(config, out_dir=str(tmp_path / "out"))
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: sweep config {message}")
    assert err.count(str(cfg)) == 1
    assert not (tmp_path / "out").exists()


def test_sweep_config_reads_groups_as_text(tmp_path):
    """A config group may be written as `--groups` text."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": ["cyclic:8", ["dihedral", 3], "quaternion"], "gamma": 2}))
    args = cli._build_parser().parse_args(["sweep", "--config", str(cfg)])
    loaded = cli._load_sweep_config(args)
    assert loaded.groups == [("cyclic", 8), ("dihedral", 3), ("quaternion", 8)]
    assert loaded.gamma == 2


def test_sweep_empty_grid_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": [], "out_dir": str(tmp_path / "out")}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


def test_sweep_empty_widths_exit_2_before_out_dir(tmp_path, capsys):
    """A grid with no hidden layer is refused as an empty grid, naming `widths`."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"widths": [], "out_dir": str(tmp_path / "out")}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep grid is empty") and "widths" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"test_m": 0}, "error: need at least one sample\n"),
        ({"augment": "rotate"}, "error: unknown augment mode 'rotate'\n"),
    ],
    ids=["test_m", "augment"],
)
def test_sweep_setting_the_sampler_refuses_exit_2_before_out_dir(
    tmp_path, capsys, monkeypatch, setting, message
):
    """`sample` holds the rules of test_m and augment; the sweep draws its
    first datasets before the output directory is made, so they refuse."""
    monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("a cell trained"))
    cfg = tmp_path / "cfg.json"
    grid = {"sizes": [2], "d": 2, "m_grid": [16], "seeds": [0], "widths": [8]}
    cfg.write_text(json.dumps(dict(grid, **setting, out_dir=str(tmp_path / "out"))))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ random labels


def test_gen_data_random_labels(tmp_path):
    out = str(tmp_path / "rand.json")
    rc = main(
        [
            "gen-data",
            "--symmetry", "cyclic",
            "--m-order", "6",
            "--m", "64",
            "--seed", "1",
            "--random-labels",
            "--train-out", out,
        ]
    )
    assert rc == 0
    _, samples = load_dataset(out)
    assert samples.original_y is not None
    assert len(samples) == 64


# ----------------------------------------------------------------- verify


def test_verify_smoke(capsys):
    rc = main(["verify", "--trials", "3", "--seed", "0"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert rc == 0
    assert len(lines) >= 20
    assert all(line.endswith("PASS") for line in lines)
    assert any("character-types" in line for line in lines)
    assert any("tail-bound" in line for line in lines)
    assert any("perturbation-inequality" in line for line in lines)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(trials, capsys):
    """A check with no trials would print PASS having shown nothing."""
    rc = main(["verify", "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


# ------------------------------------------------------------------- sweep


def _tiny_sweep_config(out_dir):
    return SweepConfig(
        symmetry="so2",
        sizes=[2],
        d=2,
        groups=[("cyclic", 2), ("cyclic", 4)],
        m_grid=[96],
        seeds=[0],
        gamma=1.0,
        widths=[16, 8],
        test_m=200,
        learning_rate=0.02,
        max_epochs=300,
        batch_size=32,
        out_dir=str(out_dir),
    )


def test_sweep_rows_and_summary(tmp_path):
    out = run_sweep(_tiny_sweep_config(tmp_path / "s1"))
    assert len(out["rows"]) == 2
    with open(out["csv_path"], newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3  # header + one row per group
    header = rows[0]
    assert header[:6] == [
        "config_hash", "symmetry", "size", "widths", "channels", "seed",
    ]
    assert header[10:] == csv_header(3)
    with open(out["summary_path"]) as f:
        summary = json.load(f)
    (entry,) = summary.values()
    assert set(entry["per_group"]) == {"cyclic:2", "cyclic:4"}
    assert "spearman_bound_main_vs_ge" in entry
    assert "ge_vs_inv_sqrt_order_slope" in entry


def test_sweep_reproducible_byte_identical(tmp_path):
    out1 = run_sweep(_tiny_sweep_config(tmp_path / "a"))
    out2 = run_sweep(_tiny_sweep_config(tmp_path / "b"))
    with open(out1["csv_path"], "rb") as f:
        body1 = f.read()
    with open(out2["csv_path"], "rb") as f:
        body2 = f.read()
    assert body1 == body2


def test_rows_do_not_depend_on_blas_threads(tmp_path):
    """C1's 512->128 hidden layer holds 65,536 coefficients, the size at
    which OpenBLAS splits a dot product across threads; the bound's sums
    of squares must not depend on the split."""
    src = str(Path(cli.__file__).resolve().parents[1])
    args = (
        "sweep --symmetry so2 --sizes 6 --d 6 --groups cyclic:1 --m-grid 256 "
        "--seeds 0 --widths 512 128 --test-m 64 --max-epochs 1"
    ).split()
    bodies = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "equibound.cli", *args, "--out-dir", str(out)],
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        bodies.append((out / "rows.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_sweep_failed_write_keeps_previous_rows(tmp_path, monkeypatch):
    """rows.csv is replaced whole or not at all, and no temporary file stays."""
    cfg = _tiny_sweep_config(tmp_path / "s")
    run_sweep(cfg)
    names = ["rows.csv", "summary.json"]
    before = [(tmp_path / "s" / name).read_bytes() for name in names]
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == names

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    cfg.gamma = 0.5
    monkeypatch.setattr(cli.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        run_sweep(cfg)
    monkeypatch.undo()
    assert [(tmp_path / "s" / name).read_bytes() for name in names] == before
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == names


def test_sweep_random_labels_over_two_seeds(tmp_path):
    """Two dataset keys, relabelled, with every cell missing its margin."""
    argv = [
        "sweep",
        "--symmetry", "o2",
        "--sizes", "2",
        "--d", "2",
        "--groups", "dihedral:2",
        "--m-grid", "64",
        "--seeds", "0", "1",
        "--widths", "16", "8",
        "--test-m", "100",
        "--max-epochs", "1",
        "--batch-size", "32",
        "--random-labels",
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    body = (tmp_path / "a" / "rows.csv").read_bytes()
    assert body == (tmp_path / "b" / "rows.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(body.decode())))
    assert [row["seed"] for row in rows] == ["0", "1"]
    assert all(row["margin_reached"] == "0" for row in rows)
    assert all(row["random_labels"] == "1" for row in rows)
    assert rows[0]["B"] != rows[1]["B"]


def test_every_sweep_setting_has_a_flag_and_a_readme_key():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a.option_strings for a in subparsers.choices["sweep"]._actions}
    names = [f.name for f in fields(SweepConfig)]
    for name in names:
        assert flags[name] == ["--" + name.replace("_", "-")]
    args = parser.parse_args(["sweep"])
    assert all(getattr(args, name) is None for name in names)
    args = parser.parse_args(
        ["sweep", "--augment", "group", "--noise-tangent", "0.2", "--noise-ambient", "0",
         "--groups", "dihedral:3", "quaternion"]
    )
    cfg = cli._load_sweep_config(args)
    assert (cfg.augment, cfg.noise_tangent, cfg.noise_ambient) == ("group", 0.2, 0.0)
    assert cfg.groups == [("dihedral", 3), ("quaternion", 8)]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Sweep configuration", 1)[1]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert list(block) == names
    assert block == json.loads(json.dumps(asdict(SweepConfig())))


def test_sweep_cli_entry(tmp_path, capsys):
    cfg = {
        "symmetry": "so2",
        "sizes": [2],
        "d": 2,
        "groups": [["cyclic", 2]],
        "m_grid": [64],
        "seeds": [0],
        "gamma": 1.0,
        "widths": [8],
        "test_m": 100,
        "learning_rate": 0.02,
        "max_epochs": 300,
        "batch_size": 32,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(
        ["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "rows.csv" in printed
    assert (tmp_path / "out" / "rows.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
