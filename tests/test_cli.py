import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carle
from carle import checkpoint, pipeline
from carle.checkpoint import load_checkpoint
from carle.cli import main
from carle.dataio import (
    read_features_csv,
    read_labels_csv,
    read_signal_csv,
    write_features_csv,
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


class TestTrainArtifacts:
    def test_artifacts_exist(self, workspace):
        root, _ = workspace
        for name in ("checkpoint.npz", "metrics.json", "history.csv", "predictions.csv"):
            assert (root / "run" / name).exists()

    def test_metrics_schema(self, workspace):
        root, _ = workspace
        doc = json.loads((root / "run" / "metrics.json").read_text())
        assert {"mae", "rmse", "mse_alias", "score", "n"} <= set(doc["train"])
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
        proc = subprocess.run(
            [sys.executable, "-m", "carle.cli", "--help"], capture_output=True, text=True
        )
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


def _logit_space_without_forest(root, tmp_path):
    path = tmp_path / "carl.npz"
    np.savez_compressed(path, **_carl_members(root))
    feats = str(root / "feats.csv")
    return [
        "crossdomain", "--checkpoint", str(path), "--source-features", feats,
        "--target-features", feats, "--set", "adapt.space=logit",
    ]


_logit_space_without_forest.names = "forest"


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


@pytest.mark.parametrize(
    "make_args",
    [
        _garbage_checkpoint, _truncated_checkpoint, _nan_feature_row, _bad_sigmas,
        _cyclic_checkpoint, _list_header_checkpoint, _nan_feature_row_train, _non_numeric_feature,
        _reversed_feature_rows, _duplicate_window_index_train,
        _unknown_forest_key, _json_array_config, _negative_seed_train,
        _eval_labels_alone, _features_and_signal, _unclosed_quote_signal,
        _huge_field_signal,
        _scaled_signal(1e80),
        _scaled_signal(1e160),
        _scaled_signal(1e-150),
        _predict_with("--profile", "pronostia"),
        _predict_with("--set", "forest.clamp_unit=false"),
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
        _logit_space_without_forest,
        _noise_set("noise.salt_pepper_amplitude=1e308"),
        _noise_set("noise.gaussian_std=1e308"),
    ],
)
def test_bad_input_exits_2_with_one_line(workspace, tmp_path, make_args):
    root, _ = workspace
    out = tmp_path / "out.csv"
    args = make_args(root, tmp_path)
    out_flag = "--out-dir" if args[0] in ("train", "ablate") else "--out"
    env = dict(os.environ, PYTHONPATH=str(Path(carle.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "carle.cli", *args, out_flag, str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert getattr(make_args, "names", "") in lines[0]
    assert not out.exists()


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
