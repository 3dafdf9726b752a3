import json
import os
import random
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import carle
from carle import checkpoint, pipeline
from carle.checkpoint import load_checkpoint
from carle.cli import main
from carle.metrics import MetricReport
from carle.dataio import (
    read_features_csv,
    read_labels_csv,
    read_signal_csv,
    write_features_csv,
    write_labels_csv,
    write_signal_csv,
)
from carle.signal import MultiChannelSignal


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic signal + features + trained checkpoint shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    common = [
        "--seed", "3",
        "--set", "synth.duration_s=6",
        "--set", "synth.channel_count=1",
        "--set", "extraction.window_len=128",
        "--set", "extraction.n_scales=12",
        "--set", "training.epochs=25",
        "--set", "forest.n_trees=8",
    ]
    assert run_cli("synth", "--out", str(root / "sig.csv"), "--meta", str(root / "meta.json"), *common) == 0
    assert run_cli(
        "extract", "--signal", str(root / "sig.csv"),
        "--out", str(root / "feats.csv"), "--labels-out", str(root / "labels.csv"), *common
    ) == 0
    assert run_cli(
        "train", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
        "--out-dir", str(root / "run"), *common
    ) == 0
    return root, common


class TestSynthExtract:
    def test_signal_csv_readable(self, workspace):
        root, _ = workspace
        sig = read_signal_csv(root / "sig.csv", 1024.0)
        assert sig.channel_count == 1
        assert sig.length == 6 * 1024

    def test_features_and_labels_aligned(self, workspace):
        root, _ = workspace
        X, names, idx = read_features_csv(root / "feats.csv")
        y = read_labels_csv(root / "labels.csv")
        assert len(X) == len(y)
        assert len(names) == 7
        assert names[0] == "ch1.log_energy"

    def test_config_hash_stamped(self, workspace):
        root, _ = workspace
        first = (root / "feats.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        meta = json.loads((root / "meta.json").read_text())
        assert "config_hash" in meta

    def test_rotation_hz_changes_the_config_hash(self, tmp_path):
        # --rotation-hz sets synth.rotation_hz, so the stamp tells the two recordings apart
        stamps = []
        for flags in ([], ["--rotation-hz", "40"]):
            out = tmp_path / f"sig{len(stamps)}.csv"
            assert run_cli("synth", "--out", str(out), "--seed", "8", "--set", "synth.duration_s=1", *flags) == 0
            stamps.append(out.read_text().splitlines()[0])
        assert stamps[0] != stamps[1]


class TestTrainArtifacts:
    def test_artifacts_exist(self, workspace):
        root, _ = workspace
        for name in ("checkpoint.npz", "metrics.json", "history.csv", "predictions.csv"):
            assert (root / "run" / name).exists()

    def test_metrics_schema(self, workspace):
        root, _ = workspace
        doc = json.loads((root / "run" / "metrics.json").read_text())
        assert {"mae", "rmse", "score", "n"} <= set(doc["train"])
        assert "config_hash" in doc

    def test_history_rows_match_epochs(self, workspace):
        root, _ = workspace
        lines = [l for l in (root / "run" / "history.csv").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "epoch,loss,mae,lr"
        assert len(lines) >= 2

    def test_determinism_byte_identical_metrics(self, workspace, tmp_path):
        root, common = workspace
        for out in ("rerun_a", "rerun_b"):
            assert run_cli(
                "train", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
                "--out-dir", str(tmp_path / out), *common
            ) == 0
        a = (tmp_path / "rerun_a" / "metrics.json").read_bytes()
        b = (tmp_path / "rerun_b" / "metrics.json").read_bytes()
        assert a == b


class TestPredict:
    def test_predict_writes_csv_and_metrics(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "pred.csv"
        metrics = tmp_path / "m.json"
        assert run_cli(
            "predict", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out", str(out), "--metrics", str(metrics), *common
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "window_index,y_true,y_pred"
        doc = json.loads(metrics.read_text())
        assert doc["eval"]["n"] == len(lines) - 1

    def test_predict_loads_the_model_once(self, workspace, tmp_path, monkeypatch):
        root, common = workspace
        loads, opens = [], []
        real_load, real_open = pipeline.load_checkpoint, checkpoint.np.load
        monkeypatch.setattr(pipeline, "load_checkpoint", lambda path: loads.append(path) or real_load(path))
        monkeypatch.setattr(checkpoint.np, "load", lambda path: opens.append(path) or real_open(path))
        assert run_cli(
            "predict", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--features", str(root / "feats.csv"), "--out", str(tmp_path / "p.csv"), *common
        ) == 0
        assert len(loads) == 1
        assert len(opens) == 1

    def test_checkpoint_fixes_model_training_and_forest(self, workspace, tmp_path, capsys):
        root, _ = workspace
        ckpt = str(root / "run" / "checkpoint.npz")
        args = ["predict", "--checkpoint", ckpt, "--features", str(root / "feats.csv"), "--out"]
        allowed = ["--seed", "9", "--set", "noise.gaussian_std=0.3", "--set", "labels.scheme=piecewise"]
        assert run_cli(*args, str(tmp_path / "ok.csv"), *allowed) == 0
        assert run_cli(*args, str(tmp_path / "p.csv"), "--set", "training.epochs=99") == 2
        message = capsys.readouterr().err
        assert ckpt in message and "training section" in message
        assert not (tmp_path / "p.csv").exists()

    def test_predict_reproduces_training_with_seq_len_override(self, workspace, tmp_path):
        # the network is rebuilt from the stored config, seq_len override included
        root, common = workspace
        args = [*common, "--set", "model.seq_len=5", "--set", "training.epochs=3"]
        assert run_cli(
            "train", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out-dir", str(tmp_path / "run"), *args
        ) == 0
        assert run_cli(
            "predict", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
            "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out", str(tmp_path / "pred.csv"),
        ) == 0

        def y_pred(path):
            rows = [l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")]
            return [row[2] for row in rows[1:]]

        assert y_pred(tmp_path / "pred.csv") == y_pred(tmp_path / "run" / "predictions.csv")

    def test_predict_missing_checkpoint_exits_2(self, workspace, tmp_path):
        root, common = workspace
        code = run_cli(
            "predict", "--checkpoint", str(tmp_path / "nope.npz"),
            "--features", str(root / "feats.csv"), "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2


class TestAblate:
    def test_four_variants_and_carl_without_forest(self, workspace, tmp_path):
        root, common = workspace
        out_dir = tmp_path / "ablation"
        assert run_cli(
            "ablate", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out-dir", str(out_dir), *common
        ) == 0
        lines = [l for l in (out_dir / "ablation.csv").read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "variant,mae,rmse,score"
        variants = [l.split(",")[0] for l in lines[1:]]
        assert variants == ["carle", "carl", "crle", "cale"]
        assert all(len(l.split(",")) == 4 for l in lines[1:])

        carle_meta = load_checkpoint(out_dir / "carle.npz").meta
        carl_meta = load_checkpoint(out_dir / "carl.npz").meta
        assert carle_meta["has_forest"]
        assert not carl_meta["has_forest"]

    def test_every_csv_ends_its_lines_alike(self, workspace, tmp_path):
        root, common = workspace
        out_dir = tmp_path / "ablation3"
        assert run_cli(
            "ablate", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out-dir", str(out_dir), *common, "--set", "training.epochs=1"
        ) == 0

        def endings(path):
            return {line[len(line.rstrip(b"\r\n")):] for line in path.read_bytes().splitlines(True)}

        assert endings(root / "feats.csv") == {b"\r\n"}
        assert endings(root / "labels.csv") == endings(out_dir / "ablation.csv") == {b"\r\n"}

    def test_variant_parameter_counts(self, workspace, tmp_path):
        root, common = workspace
        out_dir = tmp_path / "ablation2"
        assert run_cli(
            "ablate", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
            "--out-dir", str(out_dir), *common
        ) == 0
        nets = {v: pipeline.load_model(out_dir / f"{v}.npz").net for v in ("carle", "crle", "cale")}
        carle = nets["carle"]
        assert carle.parameter_count() == nets["cale"].parameter_count() + carle.residual_param_count()
        assert carle.parameter_count() == nets["crle"].parameter_count() + carle.attention_param_count()


class TestNoise:
    def test_noise_reports(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "noise.json"
        assert run_cli(
            "noise", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--signal", str(root / "sig.csv"), "--out", str(out), *common
        ) == 0
        doc = json.loads(out.read_text())
        assert {"clean", "gaussian", "salt_pepper", "config_hash"} <= set(doc)
        assert doc["gaussian"]["noise_params"] == {"kind": "gaussian", "mean": 0.0, "std": 0.1}
        assert doc["salt_pepper"]["noise_params"]["fraction"] == 0.1


class TestCrossdomain:
    def test_report_pair_schema(self, workspace, tmp_path):
        root, common = workspace
        target = tmp_path / "target_feats.csv"
        X, names, idx = read_features_csv(root / "feats.csv")
        from carle.dataio import write_features_csv

        write_features_csv(target, X * 1.8 + 0.4, names, idx)
        out = tmp_path / "xd.json"
        assert run_cli(
            "crossdomain", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--source-features", str(root / "feats.csv"),
            "--target-features", str(target), "--out", str(out), *common
        ) == 0
        doc = json.loads(out.read_text())
        assert set(doc["aligned"]) == set(doc["unaligned"])
        assert doc["aligned"]["mae"] < doc["unaligned"]["mae"]


class TestSnrSweep:
    def test_sweep_csv(self, workspace, tmp_path):
        root, common = workspace
        out = tmp_path / "snr.csv"
        assert run_cli(
            "snr-sweep", "--signal", str(root / "sig.csv"),
            "--sigmas", "0.5,1.0,2.0", "--out", str(out), *common
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "sigma,snr_db"
        assert len(lines) == 4


def _zeroed(path, out, start, stop):
    """The signal CSV at ``path`` with samples [start, stop) of every channel
    set to zero, which makes extraction skip the windows they fill."""
    sig = read_signal_csv(path, 1024.0)
    channels = sig.channels.copy()
    channels[:, start:stop] = 0.0
    write_signal_csv(out, MultiChannelSignal(channels, sig.sample_rate_hz))
    return out


def _predictions(path):
    """(window_index, y_true) columns of a predictions CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    return np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


class TestLabelsFollowWindowIndex:
    """A feature row's label is the scheme's label of its window index among
    all the recording's windows, so a skipped window moves no other label."""

    def test_extract_labels_skip_a_zeroed_window(self, tmp_path):
        flags = ["--seed", "7", "--set", "synth.duration_s=5"]
        assert run_cli("synth", "--out", str(tmp_path / "sig.csv"), *flags) == 0
        sig = _zeroed(tmp_path / "sig.csv", tmp_path / "zeroed.csv", 1024, 1792)
        assert run_cli(
            "extract", "--signal", str(sig), "--out", str(tmp_path / "f.csv"),
            "--labels-out", str(tmp_path / "y.csv"), *flags
        ) == 0
        idx = read_features_csv(tmp_path / "f.csv")[2]
        assert 5 not in idx and {4, 6} <= set(idx)
        y = read_labels_csv(tmp_path / "y.csv")
        assert np.array_equal(y, pipeline.labels_for(pipeline.ExperimentConfig(), 20)[idx])
        assert y[list(idx).index(6)] == 1 - 6 / 19

    def test_predict_and_noise_on_a_signal_with_a_zeroed_window(self, workspace, tmp_path):
        root, common = workspace
        sig = _zeroed(root / "sig.csv", tmp_path / "zeroed.csv", 128 * 20, 128 * 23)
        out = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--signal", str(sig), "--out", str(out), *common
        ) == 0
        model = pipeline.load_model(root / "run" / "checkpoint.npz")
        full = pipeline.labels_for(model.config, 48)
        idx, y_true = _predictions(out)
        assert 21 not in idx and len(idx) == 47
        assert np.array_equal(y_true, full[idx])

        signal = read_signal_csv(sig, 1024.0)
        clean = pipeline.noise_reports(model, signal, model.config)["clean"]
        X, _, idx = pipeline.extract_matrix(signal, model.config)
        assert clean["mae"] == MetricReport.compute(full[idx], model.predict(X, idx)).mae

    def test_feature_csv_with_a_gap(self, workspace, tmp_path):
        root, common = workspace
        X, names, idx = read_features_csv(root / "feats.csv")
        kept = ~np.isin(idx, [5, 6])
        gap = tmp_path / "gap.csv"
        write_features_csv(gap, X[kept], names, idx[kept])
        out = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--features", str(gap), "--out", str(out), *common
        ) == 0
        got_idx, y_true = _predictions(out)
        assert np.array_equal(got_idx, idx[kept])
        want = pipeline.labels_for(pipeline.load_model(root / "run" / "checkpoint.npz").config, 48)
        assert np.array_equal(y_true, want[idx[kept]])


class TestSequencesFollowWindowIndex:
    def test_predict_on_a_signal_with_a_zeroed_window(self, tmp_path):
        # samples 1024-1791 zeroed: extraction skips window 5 of 20; carl's
        # scalar head shows a changed sequence where a forest leaf may not
        flags = ["--seed", "7", "--set", "synth.duration_s=5", "--set", "training.epochs=3"]
        assert run_cli("synth", "--out", str(tmp_path / "sig.csv"), *flags) == 0
        sig = _zeroed(tmp_path / "sig.csv", tmp_path / "zeroed.csv", 1024, 1792)
        assert run_cli(
            "train", "--signal", str(sig), "--out-dir", str(tmp_path / "run"), "--variant", "carl", *flags
        ) == 0
        checkpoint = tmp_path / "run" / "checkpoint.npz"
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--checkpoint", str(checkpoint), "--signal", str(sig), "--out", str(out)) == 0

        model = pipeline.load_model(checkpoint)
        X, _, idx = pipeline.extract_matrix(read_signal_csv(sig, 1024.0), model.config)
        assert 5 not in idx
        seq_len = model.net.profile.seq_len
        # per row, the row of the latest kept window at or before each of
        # the seq_len windows ending at its own
        rows = [[max([r for r, k in enumerate(idx) if k <= w], default=0) for w in range(i - seq_len + 1, i + 1)]
                for i in idx]
        assert rows[list(idx).index(7)] == [4, 4, 5, 6]
        want = np.clip(model.net.infer(model.scaler.transform(X)[rows])[1], 0.0, 1.0)
        got = np.array([float(line.split(",")[2]) for line in out.read_text().splitlines()[2:]])
        assert got.tobytes() == want.tobytes()


class TestErrors:
    def test_missing_signal_exits_2(self, tmp_path):
        assert run_cli("extract", "--signal", str(tmp_path / "none.csv"), "--out", str(tmp_path / "f.csv")) == 2

    def test_bad_config_value_exits_2(self, workspace, tmp_path):
        root, _ = workspace
        code = run_cli(
            "extract", "--signal", str(root / "sig.csv"), "--out", str(tmp_path / "f.csv"),
            "--set", "extraction.sigma_g=-2",
        )
        assert code == 2

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        root, _ = workspace
        code = run_cli(
            "extract", "--signal", str(root / "sig.csv"), "--out", str(tmp_path / "f.csv"),
            "--set", "extraction.wavelets=9",
        )
        assert code == 2

    def test_console_entry_point(self):
        proc = _run_carle(["--help"])
        assert proc.returncode == 0
        for cmd in ("synth", "extract", "train", "predict", "ablate", "noise", "crossdomain", "snr-sweep"):
            assert cmd in proc.stdout


def _garbage_checkpoint(root, tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not a checkpoint\n" * 40)
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


def _truncated_checkpoint(root, tmp_path):
    path = tmp_path / "truncated.npz"
    whole = (root / "run" / "checkpoint.npz").read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


def _nan_feature_row(root, tmp_path):
    X, names, idx = read_features_csv(root / "feats.csv")
    X[3, 2] = np.nan
    path = tmp_path / "nan_feats.csv"
    write_features_csv(path, X, names, idx)
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--features", str(path)]


def _bad_sigmas(root, tmp_path):
    return ["snr-sweep", "--signal", str(root / "sig.csv"), "--sigmas", "1,abc"]


def _cyclic_checkpoint(root, tmp_path):
    # a two-node forest whose root is its own left child
    path = tmp_path / "cyclic.npz"
    with np.load(root / "run" / "checkpoint.npz") as data:
        members = {name: data[name] for name in data.files}
    members.update({
        "forest::feature": np.array([0, -1]), "forest::threshold": np.zeros(2),
        "forest::left": np.array([0, -1]), "forest::right": np.array([1, -1]),
        "forest::value": np.array([0.5, 0.5]), "forest::offsets": np.array([0, 2]),
    })
    np.savez_compressed(path, **members)
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


def _list_header_checkpoint(root, tmp_path):
    path = tmp_path / "list_header.npz"
    np.savez(path, meta=np.frombuffer(b"[1, 2]", dtype=np.uint8))
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


def _feature_csv_with(root, tmp_path, token):
    """The workspace feature CSV with the third value of data row 3 replaced."""
    lines = (root / "feats.csv").read_text().splitlines()
    row = [i for i, line in enumerate(lines) if line[0].isdigit()][3]
    cells = lines[row].split(",")
    cells[2] = token
    lines[row] = ",".join(cells)
    path = tmp_path / "bad_feats.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _reversed_feature_rows(root, tmp_path):
    # labels and sequences follow row order, so reversed rows would pair
    # each window with another window's label
    X, names, idx = read_features_csv(root / "feats.csv")
    path = tmp_path / "reversed_feats.csv"
    write_features_csv(path, X[::-1], names, idx[::-1])
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--features", str(path)]


_reversed_feature_rows.names = "reversed_feats.csv:3"


def _duplicate_window_index_train(root, tmp_path):
    X, names, idx = read_features_csv(root / "feats.csv")
    idx[4] = idx[3]
    path = tmp_path / "duplicate_feats.csv"
    write_features_csv(path, X, names, idx)
    return ["train", "--features", str(path), "--labels", str(root / "labels.csv")]


_duplicate_window_index_train.names = "duplicate_feats.csv:6"


def _negative_window_index(root, tmp_path):
    # a row's label is taken at its window index, which a negative one lacks
    X, names, idx = read_features_csv(root / "feats.csv")
    path = tmp_path / "neg_feats.csv"
    write_features_csv(path, X, names, idx - 1)
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--features", str(path)]


_negative_window_index.names = "neg_feats.csv:2: window_index -1 is negative"


def _nan_feature_row_train(root, tmp_path):
    path = _feature_csv_with(root, tmp_path, "nan")
    return ["train", "--features", str(path), "--labels", str(root / "labels.csv")]


def _non_numeric_feature(root, tmp_path):
    path = _feature_csv_with(root, tmp_path, "abc")
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--features", str(path)]


def _snr_sweep(sigmas):
    """Rows that run snr-sweep over one bad list of smoothing widths."""
    def make_args(root, tmp_path):
        return ["snr-sweep", "--signal", str(root / "sig.csv"), "--sigmas", sigmas]

    return pytest.param(make_args, id=f"--sigmas={sigmas}")


def _negative_seed_train(root, tmp_path):
    return ["train", "--features", str(root / "feats.csv"), "--set", "seed=-5"]


def _train_set(override):
    """Rows that run train with one out-of-range --set value."""
    def make_args(root, tmp_path):
        return ["train", "--features", str(root / "feats.csv"), "--set", override]

    return pytest.param(make_args, id=override)


def _unknown_forest_key(root, tmp_path):
    path = tmp_path / "bogus_forest_key.npz"
    with np.load(root / "run" / "checkpoint.npz") as data:
        members = {name: data[name] for name in data.files}
    meta = json.loads(bytes(members["meta"]).decode())
    meta["config"]["forest"]["bogus"] = 1
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **members)
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


def _edited_checkpoint(edit, names, row_id):
    """A row that predicts from a copy of the workspace checkpoint whose
    members ``edit`` changes in place."""
    def make_args(root, tmp_path):
        path = tmp_path / "edited.npz"
        with np.load(root / "run" / "checkpoint.npz") as data:
            members = {name: data[name] for name in data.files}
        edit(members)
        np.savez_compressed(path, **members)
        return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]

    make_args.names = names
    return pytest.param(make_args, id=row_id)


def _header_set(key, value):
    """A row that predicts from a copy of the workspace checkpoint whose
    header ``key`` is ``value``."""
    def edit(members):
        meta = json.loads(bytes(members["meta"]).decode())
        meta[key] = value
        members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    return _edited_checkpoint(edit, key, f"{key}={json.dumps(value)}")


def _forest_member_set(member, value):
    """Rows whose forest holds ``value`` in ``member`` at every inner node
    (threshold) or every leaf (value)."""
    def edit(members):
        inner = members["forest::feature"] >= 0
        members[f"forest::{member}"] = members[f"forest::{member}"].copy()
        members[f"forest::{member}"][inner if member == "threshold" else ~inner] = value

    return _edited_checkpoint(edit, "non-finite", f"forest::{member}={value}")


def _input_width(value):
    """Rows whose header gives ``value`` as input_width; the workspace
    network is 7 wide."""
    def edit(members):
        meta = json.loads(bytes(members["meta"]).decode())
        meta["input_width"] = value
        members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    return _edited_checkpoint(edit, "input_width", f"input_width={value!r}")


def _knee_outside_unit(root, tmp_path):
    return [
        "extract", "--signal", str(root / "sig.csv"), "--set", "labels.knee_fraction=1.5",
        "--labels-out", str(tmp_path / "labels.csv"),
    ]


_knee_outside_unit.names = "labels.knee_fraction"


def _eval_labels_alone(root, tmp_path):
    return ["ablate", "--features", str(root / "feats.csv"), "--eval-labels", str(tmp_path / "nope.csv")]


def _features_and_signal(root, tmp_path):
    return ["train", "--features", str(root / "feats.csv"), "--signal", str(tmp_path / "nope.csv")]


def _scaled_signal(scale):
    """Rows that extract a 2-channel copy of the workspace signal scaled by
    ``scale``, whose moments or energies overflow."""
    def make_args(root, tmp_path):
        sig = read_signal_csv(root / "sig.csv", 1024.0)
        path = tmp_path / "scaled.csv"
        channels = np.vstack([sig.channels, -0.5 * sig.channels]) * scale
        write_signal_csv(path, MultiChannelSignal(channels, 1024.0))
        return ["extract", "--signal", str(path)]

    return pytest.param(make_args, id=f"extract x{scale:g}")


def _huge_field_signal(root, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("t,ch1\n0,1.0\n1," + "1" * 140_000 + "\n")
    return ["extract", "--signal", str(path)]


def _unclosed_quote_signal(root, tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text((root / "sig.csv").read_text() + '6.0,"0.5\n')
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--signal", str(path)]


def _predict_with(*flags):
    """Rows that predict from the workspace checkpoint with flags that change
    a config section the checkpoint fixes."""
    def make_args(root, tmp_path):
        return [
            "predict", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--features", str(root / "feats.csv"), *flags,
        ]

    return pytest.param(make_args, id=" ".join(flags))


def _short_labels(flag):
    """Rows that pass an 18-row label file to ``flag``, which the workspace
    features outnumber. The message must name the file, and no work starts."""
    def make_args(root, tmp_path):
        path = tmp_path / "short_labels.csv"
        path.write_text("rul\n" + "0.5\n" * 18)
        feats, checkpoint = str(root / "feats.csv"), str(root / "run" / "checkpoint.npz")
        command = {
            "--labels": ["train", "--features", feats],
            "--eval-labels": ["ablate", "--features", feats, "--eval-features", feats,
                              "--set", "training.epochs=2"],
            "--target-labels": ["crossdomain", "--checkpoint", checkpoint,
                                "--source-features", feats, "--target-features", feats],
        }[flag]
        return [*command, flag, str(path)]

    make_args.names = "short_labels.csv"
    return pytest.param(make_args, id=f"{flag}=short")


def _json_array_config(root, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    return ["extract", "--signal", str(root / "sig.csv"), "--config", str(path)]


def _undecodable_features(root, tmp_path):
    path = tmp_path / "undecodable_feats.csv"
    lines = (root / "feats.csv").read_bytes().splitlines(keepends=True)
    lines[4] = b"\xff" + lines[4]
    path.write_bytes(b"".join(lines))
    return ["predict", "--checkpoint", str(root / "run" / "checkpoint.npz"), "--features", str(path)]


_undecodable_features.names = "undecodable_feats.csv:5"


def _undecodable_cr_signal(root, tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(b"t,ch1\r1,2\r\xff,3\r")  # lone-CR line ends
    return ["extract", "--signal", str(path)]


_undecodable_cr_signal.names = "cr.csv:3: not UTF-8 text"


def _header_only_signal(root, tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("t,ch1,ch2\n")
    return ["extract", "--signal", str(path)]


_header_only_signal.names = "header_only.csv: no sample rows after the header"


def _undecodable_config(root, tmp_path):
    path = tmp_path / "undecodable.json"
    path.write_bytes(b'{"seed": 3\xff}')
    return ["extract", "--signal", str(root / "sig.csv"), "--config", str(path)]


_undecodable_config.names = "undecodable.json"


def _directory_checkpoint(root, tmp_path):
    path = tmp_path / "checkpoint_dir"
    path.mkdir()
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


_directory_checkpoint.names = "checkpoint_dir"


def _out_dir_is_a_file(root, tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return [
        "train", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
        "--out-dir", str(path),
    ]


_out_dir_is_a_file.names = "taken"


def _extract_set(override):
    """Rows that run extract with one ill-typed or out-of-range --set value."""
    def make_args(root, tmp_path):
        return ["extract", "--signal", str(root / "sig.csv"), "--set", override]

    return pytest.param(make_args, id=override)


def _synth_with(flag):
    """Rows that run a 2 s synth with one out-of-bounds parameter."""
    def make_args(root, tmp_path):
        return ["synth", "--set", "synth.duration_s=2", flag]

    return pytest.param(make_args, id=flag)


def _out_of_memory(override):
    """Rows whose one --set value asks for an array of over 128 TiB, which
    fails at once under any overcommit setting."""
    def make_args(root, tmp_path):
        if override.startswith("synth."):
            return ["synth", "--set", override]
        return ["extract", "--signal", str(root / "sig.csv"), "--set", override]

    make_args.names = "out of memory"
    return pytest.param(make_args, id=override)


def _deep_config(root, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    return ["synth", "--config", str(path)]


_deep_config.names = "deep.json"


def _deep_set(root, tmp_path):
    return ["synth", "--set", "seed=" + "[" * 30_000]


_deep_set.names = "--set seed"


def _removed_key(command, override):
    """Rows that run ``command`` with a --set of a key the config no longer
    has: only the variant turns attention or residuals off, every RUL is
    clamped to [0, 1], alignment runs in feature space and snr-sweep caps
    its SNR itself."""
    def make_args(root, tmp_path):
        return [
            command, "--features", str(root / "feats.csv"), "--set", "training.epochs=2",
            "--set", override,
        ]

    make_args.names = f"unknown config keys: [{override.split('=')[0]!r}]"
    return pytest.param(make_args, id=f"{command} {override}")


def _signal_rows_narrower_than_header(root, tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text((root / "sig.csv").read_text().replace("t,ch1\n", "t,ch1,ch2\n", 1))
    return ["extract", "--signal", str(path)]


_signal_rows_narrower_than_header.names = "narrow.csv:3: 2 values, header has 3"


def _unclosed_npy_header(root, tmp_path):
    """A checkpoint whose scaler::mean member has an .npy header without its
    closing brace, re-zipped as an editor would."""
    path = tmp_path / "unclosed.npz"
    with zipfile.ZipFile(root / "run" / "checkpoint.npz") as old, zipfile.ZipFile(path, "w") as new:
        for info in old.infolist():
            data = old.read(info)
            if info.filename == "scaler::mean.npy":
                data = data.replace(b"}", b" ", 1)
            new.writestr(info, data)
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


_unclosed_npy_header.names = "unclosed.npz: unreadable checkpoint"


def _python2_npy_header(root, tmp_path):
    """A checkpoint whose scaler::mean member has the .npy header a Python 2
    numpy wrote, with a long-int shape (7L,), re-zipped as an editor would."""
    path = tmp_path / "python2.npz"
    with zipfile.ZipFile(root / "run" / "checkpoint.npz") as old, zipfile.ZipFile(path, "w") as new:
        for info in old.infolist():
            data = old.read(info)
            if info.filename == "scaler::mean.npy":
                data = data.replace(b",), }", b"L,),}", 1)  # keeps the header length
                assert b"L,),}" in data
            new.writestr(info, data)
    return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]


_python2_npy_header.names = "python2.npz: unreadable checkpoint"


def _labels_in_hours(command):
    """Rows that train on the workspace labels times 500, which every
    prediction, clamped to [0, 1], would miss."""
    def make_args(root, tmp_path):
        path = tmp_path / "hours.csv"
        write_labels_csv(path, read_labels_csv(root / "labels.csv") * 500)
        return [
            command, "--features", str(root / "feats.csv"), "--labels", str(path),
            "--set", "training.epochs=2",
        ]

    make_args.names = "hours.csv: labels span [0, 500], outside [0, 1]"
    return pytest.param(make_args, id=f"{command} labels x500")


def _carl_members(root):
    """The members of a 'carl' (forest-less) copy of the workspace checkpoint."""
    with np.load(root / "run" / "checkpoint.npz") as data:
        members = {name: data[name] for name in data.files if not name.startswith("forest::")}
    meta = json.loads(bytes(members["meta"]).decode())
    meta.update(variant="carl", has_forest=False)
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return members


def _bad_member(member, edit, what):
    """Rows that predict from a 'carl' copy of the workspace checkpoint, with
    ``member`` replaced by ``edit(member)``. Without the forest a bad network
    weight or scaler value reaches the predictions."""
    def make_args(root, tmp_path):
        path = tmp_path / "bad_member.npz"
        members = _carl_members(root)
        members[member] = edit(members[member])
        np.savez_compressed(path, **members)
        return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]

    return pytest.param(make_args, id=f"{member}={what}")


def _zip_directory_edit(offset, mask, what):
    """Rows that predict from a copy of the workspace checkpoint with ``mask``
    ORed into byte ``offset`` of every zip central-directory header."""
    def make_args(root, tmp_path):
        data = bytearray((root / "run" / "checkpoint.npz").read_bytes())
        at = data.find(b"PK\x01\x02")
        while at >= 0:
            data[at + offset] |= mask
            at = data.find(b"PK\x01\x02", at + 4)
        path = tmp_path / "zip_edit.npz"
        path.write_bytes(bytes(data))
        return ["predict", "--checkpoint", str(path), "--features", str(root / "feats.csv")]

    make_args.names = "zip_edit.npz"
    return pytest.param(make_args, id=what)


def _noise_set(override):
    """Rows that run noise with one --set value whose noise leaves the
    float range, so the noisy signal has a non-finite sample."""
    def make_args(root, tmp_path):
        return [
            "noise", "--checkpoint", str(root / "run" / "checkpoint.npz"),
            "--signal", str(root / "sig.csv"), "--set", override,
        ]

    make_args.names = "non-finite sample"
    return pytest.param(make_args, id=override)


def _first_set_to(value):
    def edit(arr):
        arr = arr.copy()
        arr.flat[0] = value
        return arr

    return edit


def _run_carle(args):
    """``python -m carle.cli *args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(carle.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "carle.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "make_args",
    [
        _garbage_checkpoint, _truncated_checkpoint, _nan_feature_row, _bad_sigmas,
        _cyclic_checkpoint, _list_header_checkpoint, _nan_feature_row_train, _non_numeric_feature,
        _reversed_feature_rows, _duplicate_window_index_train, _negative_window_index,
        _unknown_forest_key, _json_array_config, _negative_seed_train,
        _eval_labels_alone, _features_and_signal, _unclosed_quote_signal,
        _huge_field_signal,
        _scaled_signal(1e80),
        _scaled_signal(1e160),
        _scaled_signal(1e-150),
        _predict_with("--profile", "pronostia"),
        _predict_with("--set", "forest.bootstrap=false"),
        _short_labels("--labels"),
        _short_labels("--eval-labels"),
        _short_labels("--target-labels"),
        _snr_sweep("1,inf"),
        _snr_sweep("1,1e300"),
        _extract_set("extraction.window_len=abc"),
        _extract_set("extraction.window_len=12.5"),
        _extract_set("extraction.n_scales=null"),
        _extract_set("training.epochs=true"),
        _extract_set("extraction.sigma_g=Infinity"),
        _extract_set("extraction.sigma_g=1e300"),
        _train_set("forest.max_features=0"),
        _train_set("forest.max_depth=-1"),
        _synth_with("--seed=-1"),
        _synth_with("--set=synth.burst_rate_hz=0"),
        _synth_with("--set=synth.burst_rate_hz=-1"),
        _synth_with("--set=synth.burst_decay_s=0"),
        _synth_with("--rotation-hz=nan"),
        _synth_with("--rotation-hz=inf"),
        _bad_member("nn::head.W", _first_set_to(np.nan), "nan"),
        _bad_member("nn::head.W", lambda a: a.astype(str), "str"),
        _bad_member("nn::head.W", lambda a: a.astype(complex), "complex"),
        _bad_member("nn::res_cnn.unit0.conv0.W", _first_set_to(np.inf), "inf"),
        _bad_member("scaler::mean", _first_set_to(np.nan), "nan"),
        _bad_member("scaler::std", lambda a: a[:3], "3-long"),
        _bad_member("scaler::std", lambda a: a.astype(str), "str"),
        _noise_set("noise.salt_pepper_amplitude=1e308"),
        _noise_set("noise.gaussian_std=1e308"),
        _undecodable_features, _undecodable_config, _directory_checkpoint, _out_dir_is_a_file,
        _undecodable_cr_signal, _header_only_signal,
        _zip_directory_edit(8, 0x20, "zip-patched-data"),
        _zip_directory_edit(8, 0x01, "zip-encrypted"),
        _zip_directory_edit(6, 0xff, "zip-version-255"),
        _forest_member_set("threshold", np.nan),
        _forest_member_set("threshold", np.inf),
        _forest_member_set("value", np.nan),
        _forest_member_set("value", np.inf),
        _header_set("history", {"loss": [0.1], "mae": [0.1, 0.2], "lr": [0.001]}),
        _header_set("history", [[0.1], [0.1], [0.001]]),
        _header_set("history", {"loss": ["0.1"], "mae": [0.1], "lr": [0.001]}),
        _header_set("best_epoch", 2.0),
        _header_set("best_epoch", None),
        _header_set("diverged", 0),
        _input_width(0),
        _input_width(-1),
        _input_width("7"),
        _input_width(7.0),
        _input_width(True),
        _input_width([7]),
        _input_width(10**12),
        _knee_outside_unit,
        _out_of_memory("synth.duration_s=1e12"),
        _out_of_memory("extraction.n_scales=1000000000000000"),
        _deep_config,
        _deep_set,
        _removed_key("train", "model.use_mha=false"),
        _removed_key("ablate", "model.use_residual=false"),
        _removed_key("train", "model.cross_block_residual=true"),
        _removed_key("train", "model.standardize=false"),
        _removed_key("train", "forest.clamp_unit=false"),
        _removed_key("ablate", "adapt.space=logit"),
        _removed_key("train", "snr_cap_db=90"),
        _signal_rows_narrower_than_header,
        _unclosed_npy_header,
        _python2_npy_header,
        _labels_in_hours("train"),
        _labels_in_hours("ablate"),
    ],
)
def test_bad_input_exits_2_with_one_line(workspace, tmp_path, make_args):
    root, _ = workspace
    out = tmp_path / "out.csv"
    args = make_args(root, tmp_path)
    out_flag = "--out-dir" if args[0] in ("train", "ablate") else "--out"
    if out_flag not in args:  # a row may name its own bad output
        args += [out_flag, str(out)]
    proc = _run_carle(args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert getattr(make_args, "names", "") in lines[0]
    assert not out.exists()


def test_train_refuses_its_out_dir_before_training(workspace, tmp_path, monkeypatch):
    root, _ = workspace
    taken = tmp_path / "taken"
    taken.write_text("")

    def train_model(*args, **kwargs):
        raise AssertionError("trained before creating --out-dir")

    monkeypatch.setattr(pipeline, "train_model", train_model)
    assert run_cli("train", "--features", str(root / "feats.csv"), "--out-dir", str(taken)) == 2


def test_numerical_failure_exits_3_with_one_line(workspace, tmp_path):
    root, _ = workspace
    out_dir = tmp_path / "outd"
    proc = _run_carle([
        "train", "--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv"),
        "--out-dir", str(out_dir),
        "--set", "training.learning_rate=1e300", "--set", "training.epochs=2",
    ])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr
    assert not out_dir.exists()


def test_failed_command_keeps_an_out_dir_it_did_not_make(workspace, tmp_path):
    root, _ = workspace
    diverge = ["--set", "training.learning_rate=1e300", "--set", "training.epochs=2"]
    feats = ["--features", str(root / "feats.csv"), "--labels", str(root / "labels.csv")]
    kept = tmp_path / "kept"
    kept.mkdir()
    assert run_cli("train", *feats, "--out-dir", str(kept), *diverge) == 3
    assert kept.is_dir()
    assert run_cli("ablate", *feats, "--out-dir", str(tmp_path / "made"), *diverge) == 3
    assert not (tmp_path / "made").exists()
    assert run_cli("train", *feats, "--out-dir", str(tmp_path / "outd2" / "sub"), *diverge) == 3
    assert not (tmp_path / "outd2").exists()


def _mutate(data: bytes, rng: random.Random, kind: str) -> bytes:
    """``data`` with one byte flipped, inserted or deleted, or cut short, at a
    position drawn from ``rng``."""
    i = rng.randrange(len(data))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if kind == "insert":
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + 1:]
    return data[:i]


@pytest.mark.parametrize("target", ["features", "labels", "checkpoint", "signal", "config"])
def test_mutated_input_exits_0_2_or_3_with_one_line(workspace, tmp_path, capsys, target):
    """Thirty seeded byte mutations of one input file: each run returns 0, 2
    or 3, prints at most one stderr line and raises nothing."""
    root, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "extraction": {"window_len": 128, "n_scales": 12}}))
    paths = {
        "features": root / "feats.csv",
        "labels": root / "labels.csv",
        "checkpoint": root / "run" / "checkpoint.npz",
        "signal": root / "sig.csv",
        "config": config,
    }
    original = paths[target].read_bytes()
    paths[target] = tmp_path / ("mutated" + paths[target].suffix)
    out = str(tmp_path / "out.csv")
    if target in ("signal", "config"):
        args = ["extract", "--signal", str(paths["signal"]), "--config", str(paths["config"]), "--out", out]
    else:
        args = [
            "predict", "--checkpoint", str(paths["checkpoint"]), "--features", str(paths["features"]),
            "--labels", str(paths["labels"]), "--out", out,
        ]
    rng = random.Random(18)
    for k in range(30):
        paths[target].write_bytes(_mutate(original, rng, ("flip", "truncate", "insert", "delete")[k % 4]))
        code = main(args)
        lines = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3) and len(lines) == (code != 0), (k, code, lines)
        if code:
            assert lines[0].startswith("error:" if code == 2 else "numerical failure:"), (k, lines)


class TestConfigFilePrecedence:
    def test_file_applies_and_flag_wins(self, workspace, tmp_path):
        root, _ = workspace
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"synth": {"duration_s": 2.0, "channel_count": 1}, "seed": 9})
        )
        out = tmp_path / "s.csv"
        assert run_cli(
            "synth", "--out", str(out), "--config", str(cfg_path), "--set", "synth.duration_s=3"
        ) == 0
        sig = read_signal_csv(out, 1024.0)
        assert sig.length == 3 * 1024  # flag beat the file
        assert sig.channel_count == 1  # file beat the default

    def test_invalid_json_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli("synth", "--out", str(tmp_path / "s.csv"), "--config", str(bad)) == 2
