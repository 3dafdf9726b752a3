import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from carle import cli
from carle.checkpoint import Scaler, load_checkpoint
from carle.dataio import read_signal_csv, write_signal_csv
from carle.errors import InputError, ParameterError
from carle.forest import Forest
from carle.metrics import MetricReport
from carle.nn.model import get_profile
from carle.nn.train import TrainReport
from carle.pipeline import (
    VARIANTS,
    ExperimentConfig,
    TrainedModel,
    build_model,
    build_sequences,
    crossdomain_predictions,
    derive_seed,
    extract_matrix,
    labels_for,
    load_model,
    noise_reports,
    save_model,
    synth_signal,
    train_model,
    variant_flags,
)
from carle.signal import MultiChannelSignal, SynthConfig, gaussian_filter, snr_sweep, synth_run_to_failure


def tiny_config(**overrides):
    config = ExperimentConfig.from_dict(
        {
            "seed": 1,
            "sample_rate_hz": 1024.0,
            "extraction": {"window_len": 128, "f_o": 35.0, "n_scales": 12},
            "synth": {"duration_s": 6.0, "channel_count": 1},
            "training": {"epochs": 30, "batch_size": 8},
            "forest": {"n_trees": 8},
        }
    )
    if overrides:
        config = config.with_overrides(overrides)
    return config


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="unknown"):
            ExperimentConfig.from_dict({"extraction": {"windowlen": 3}})
        with pytest.raises(ParameterError, match="unknown"):
            ExperimentConfig.from_dict({"mystery": 1})

    def test_overrides(self):
        config = tiny_config(**{"training.epochs": 99, "seed": 5})
        assert config.training.epochs == 99
        assert config.seed == 5
        with pytest.raises(ParameterError):
            tiny_config(**{"training.bogus": 1})

    def test_hash_stable_and_sensitive(self):
        a = tiny_config()
        b = tiny_config()
        assert a.config_hash() == b.config_hash()
        c = tiny_config(**{"training.epochs": 31})
        assert a.config_hash() != c.config_hash()

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            tiny_config(**{"extraction.sigma_g": -1})
        with pytest.raises(ParameterError):
            tiny_config(**{"labels.scheme": "exp"})
        with pytest.raises(ParameterError):
            tiny_config(**{"training.val_fraction": 1.5})
        with pytest.raises(ParameterError, match=r"^synth\.burst_rate_hz must be finite"):
            tiny_config(**{"synth.burst_rate_hz": 0})

    def test_file_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        again = ExperimentConfig.from_file(path)
        assert again.config_hash() == config.config_hash()

    def test_schema_hash_unchanged(self):
        # hashes stamped into files by earlier versions stay reproducible
        assert ExperimentConfig().config_hash() == "26ede311dced"
        config = ExperimentConfig(seed=3).with_overrides(
            {"synth.channel_count": 2, "model.profile": "pronostia"}
        )
        assert config.config_hash() == "49411c762e2d"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("extraction.window_len", "abc"),
            ("extraction.window_len", 12.5),
            ("extraction.n_scales", None),
            ("training.epochs", True),
            ("forest.bootstrap", 1),
            ("forest.n_trees", [8]),
            ("sample_rate_hz", "fast"),
            ("extraction.sigma_g", float("nan")),
            pytest.param("extraction.sigma_g", 10**400, id="extraction.sigma_g-int_past_float"),
        ],
    )
    def test_values_checked_against_field_types(self, key, value):
        with pytest.raises(ParameterError, match=repr(key)):
            ExperimentConfig().with_overrides({key: value})

    def test_ints_are_floats_and_none_fills_optionals(self):
        config = ExperimentConfig().with_overrides(
            {"extraction.sigma_g": 2, "extraction.stride": 128, "forest.n_trees": None}
        )
        assert config.extraction.sigma_g == 2
        assert config.extraction.stride == 128
        assert config.forest.n_trees is None

    @pytest.mark.parametrize("spelling", ["2", "2.0"])
    def test_int_spelled_float_hashes_as_float(self, tmp_path, spelling):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"extraction": {{"sigma_g": {spelling}}}}}')
        via_set = cli.resolve_config(
            cli.build_parser().parse_args(
                ["extract", "--signal", "s.csv", "--out", "f.csv", "--set", f"extraction.sigma_g={spelling}"]
            )
        )
        via_file = ExperimentConfig.from_file(path)
        for config in (via_set, via_file):
            assert type(config.extraction.sigma_g) is float
            assert config.config_hash() == "25123a6465fa"

    def test_synth_section_defaults_are_synth_config_defaults(self):
        # the library and `carle synth` make the same recording from one seed
        assert ExperimentConfig().synth_config() == SynthConfig()

    def test_from_dict_keeps_base_values(self):
        base = tiny_config()
        config = ExperimentConfig.from_dict({"training": {"epochs": 7}}, base=base)
        assert config.training.epochs == 7
        assert config.training.batch_size == 8
        assert config.extraction.window_len == 128
        assert base.training.epochs == 30
        assert config.extraction is not base.extraction  # no section is shared

    def test_non_object_documents_rejected(self):
        with pytest.raises(ParameterError, match="JSON object"):
            ExperimentConfig.from_dict([1, 2])
        with pytest.raises(ParameterError, match="'training' must be a JSON object"):
            ExperimentConfig.from_dict({"training": 5})
        with pytest.raises(ParameterError, match="'seed' must be int"):
            ExperimentConfig().with_overrides({"seed.inner": 1})

    def test_derive_seed_streams_differ(self):
        seeds = {name: derive_seed(7, name) for name in ("synth", "noise", "init", "train", "bootstrap")}
        assert len(set(seeds.values())) == len(seeds)
        assert derive_seed(7, "synth") == seeds["synth"]
        with pytest.raises(ParameterError):
            derive_seed(7, "unknown-stream")


class TestSequences:
    def test_shape_and_trailing_window(self, rng):
        X = np.arange(20, dtype=float).reshape(10, 2)
        seqs = build_sequences(X, 3)
        assert seqs.shape == (10, 3, 2)
        assert np.array_equal(seqs[5], X[[3, 4, 5]])

    def test_left_edge_clamps(self):
        X = np.arange(8, dtype=float).reshape(4, 2)
        seqs = build_sequences(X, 3)
        assert np.array_equal(seqs[0], X[[0, 0, 0]])
        assert np.array_equal(seqs[1], X[[0, 0, 1]])

    def test_one_sequence_per_row(self, rng):
        X = rng.normal(size=(17, 5))
        assert len(build_sequences(X, 4)) == 17

    def test_rows_follow_the_window_index(self, rng):
        X = rng.normal(size=(5, 2))
        assert np.array_equal(build_sequences(X, 3), build_sequences(X, 3, np.arange(5)))
        seqs = build_sequences(X, 3, np.array([2, 3, 5, 6, 9], dtype=np.uint8))
        # windows 7 and 8 were skipped: both take window 6's row
        assert np.array_equal(seqs[4], X[[3, 3, 4]])
        assert np.array_equal(seqs[2], X[[1, 1, 2]])
        assert np.array_equal(seqs[0], X[[0, 0, 0]])

    @pytest.mark.parametrize(
        "index",
        [[0, 1, 2], [0, 1, 2, 2], [0, 2, 1, 3], [[0, 1, 2, 3]], [0.0, 1.0, 2.0, 3.0], [True] * 4,
         np.array([3, 2, 1, 0], dtype=np.uint64)],
    )
    def test_window_index_must_be_increasing_integers_one_per_row(self, rng, index):
        with pytest.raises(InputError, match="window_index must be 4 strictly increasing integers"):
            build_sequences(rng.normal(size=(4, 2)), 3, index)

    def test_a_skipped_window_takes_the_row_before_it(self):
        # samples 1024-1791 zeroed: extraction skips window 5 of 20
        config = ExperimentConfig(seed=7).with_overrides({"synth.duration_s": 5})
        signal, _ = synth_signal(config)
        channels = signal.channels.copy()
        channels[:, 1024:1792] = 0.0
        X, _, idx = extract_matrix(MultiChannelSignal(channels, signal.sample_rate_hz), config)
        assert list(idx[:7]) == [0, 1, 2, 3, 4, 6, 7]
        seqs = build_sequences(X, 4, idx)
        assert np.array_equal(seqs[6], X[[4, 4, 5, 6]])  # windows 4, 4, 6 and 7
        assert np.array_equal(seqs[5], X[[3, 4, 4, 5]])  # windows 3, 4, 4 and 6


class TestScaler:
    def test_standardises(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        s = Scaler.fit(X)
        Z = s.transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_clips_wild_values(self, rng):
        X = rng.normal(size=(50, 2))
        s = Scaler.fit(X, clip=6.0)
        Z = s.transform(X + 1000.0)
        assert np.all(Z <= 6.0)

    def test_constant_feature_floored(self):
        X = np.ones((10, 2))
        s = Scaler.fit(X)
        assert np.all(np.isfinite(s.transform(X)))


class TestTrainModel:
    def _data(self, config):
        sig, _ = synth_signal(config)
        X, _, _ = extract_matrix(sig, config)
        y = labels_for(config, len(X))
        return X, y

    def test_carle_variant_trains_and_predicts(self):
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carle")
        pred = model.predict(X)
        assert pred.shape == y.shape
        assert model.forest is not None
        report = MetricReport.compute(y, pred)
        assert report.mae < 0.25

    def test_default_tree_count_is_the_profiles(self):
        # an unset forest.n_trees takes the profile's count: 800 at paper size
        assert get_profile("xjtu").n_trees == get_profile("pronostia").n_trees == 800
        config = tiny_config(**{"forest.n_trees": None})
        X, y = self._data(config)
        model = train_model(X, y, config, "carle")
        assert len(model.forest.offsets) - 1 == get_profile("toy").n_trees

    def test_memory_at_paper_size(self, rng):
        # tracemalloc peak on this 480 x 14 matrix: 12.85 MiB; 21.29 MiB when
        # the evaluation forwards kept their layer caches
        config = ExperimentConfig(seed=1).with_overrides(
            {"model.profile": "pronostia", "training.epochs": 1, "forest.n_trees": 2}
        )
        X = rng.normal(size=(480, 14))
        tracemalloc.start()
        try:
            train_model(X, np.linspace(1.0, 0.0, 480), config, "carle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20

    def test_carl_has_no_forest(self):
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carl")
        assert model.forest is None
        pred = model.predict(X)
        assert np.all((0.0 <= pred) & (pred <= 1.0))

    @pytest.mark.parametrize("out", [2.0, -1.0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predictions_clamped_to_unit_interval(self, rng, variant, out):
        # one clamp for every variant: the forest (a single leaf) or, for
        # 'carl', the scalar head predicts ``out``, outside normalised RUL
        config = ExperimentConfig().with_overrides({"model.profile": "gradcheck"})
        net, forest_config = build_model(config, variant, 3)
        forest = None
        if forest_config is not None:
            forest = Forest(
                np.array([-1]), np.zeros(1), np.array([-1]), np.array([-1]), np.array([out]),
                np.array([0, 1]), net.profile.linear_units[-1],
            )
        head = dict(net.parameters())
        head["head.W"][...] = 0.0
        head["head.b"][...] = out
        model = TrainedModel(net, forest, Scaler(np.zeros(3), np.ones(3)), TrainReport(), variant)
        assert np.array_equal(model.predict(rng.normal(size=(5, 3))), np.full(5, np.clip(out, 0.0, 1.0)))

    def test_variant_flags(self):
        assert variant_flags("carle") == (True, True)
        assert variant_flags("carl") == (True, True)
        assert variant_flags("crle") == (False, True)
        assert variant_flags("cale") == (True, False)
        with pytest.raises(ParameterError):
            variant_flags("carlo")

    def test_forest_training_fit_at_least_as_good_as_head(self):
        # the ensemble phase should not fit the training set worse than the
        # scalar head it consumes
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carle")
        seqs = model._sequences(X)
        logits, scalar = model.net.forward(seqs)
        head_mse = float(np.mean((np.clip(scalar, 0, 1) - y) ** 2))
        forest_mse = float(np.mean((model.forest.predict(logits) - y) ** 2))
        assert forest_mse <= head_mse + 1e-12

    def test_checkpoint_round_trip(self, tmp_path):
        config = tiny_config()
        X, y = self._data(config)
        for variant in VARIANTS:
            model = train_model(X, y, config, variant)
            path = tmp_path / f"{variant}.npz"
            save_model(path, model, config)
            again = load_model(path)
            assert np.array_equal(model.predict(X), again.predict(X)), variant
            if variant == "carl":
                assert model.forest is None and again.forest is None
            else:
                for name in Forest.ARRAYS:
                    assert np.array_equal(getattr(again.forest, name), getattr(model.forest, name))
            bundle = load_checkpoint(path)
            assert set(bundle.meta) == {
                "magic", "version", "variant", "input_width", "config", "has_forest",
                "config_hash", "best_epoch", "diverged", "history",
            }
            assert bundle.meta["config_hash"] == config.config_hash()
            assert bundle.meta["has_forest"] == (variant != "carl")
            assert set(bundle.sections) <= {"nn", "scaler", "forest"}
            assert sorted(bundle.sections["scaler"]) == ["mean", "std"]
            assert ("forest" in bundle.sections) == (variant != "carl")

    @pytest.mark.parametrize("variant", ["carle", "carl"])
    def test_loaded_model_saves_the_same_bytes(self, tmp_path, variant):
        config = tiny_config()
        X, y = self._data(config)
        first, again = tmp_path / "first.npz", tmp_path / "again.npz"
        save_model(first, train_model(X, y, config, variant), config)
        loaded = load_model(first)
        assert loaded.report.epochs_run == config.training.epochs
        save_model(again, loaded, loaded.config)
        assert again.read_bytes() == first.read_bytes()

    def test_checkpoint_with_attention_key_bias_loads_as_without(self, tmp_path):
        # loading ignores members the network does not have, such as the
        # nn::*.mha.bk of files written before the key bias was dropped
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carle")
        path = tmp_path / "new.npz"
        save_model(path, model, config)
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        width = get_profile(config.model.profile).mha_model_dim
        rng = np.random.default_rng(0)
        for block in ("res_cnn", "res_lstm"):
            members[f"nn::{block}.mha.bk"] = rng.normal(0.0, 1e-15, width)
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **members)
        assert not any(name.endswith(".mha.bk") for name, _ in model.net.parameters())
        pred = load_model(old).predict(X)
        assert np.array_equal(pred, load_model(path).predict(X))
        assert np.array_equal(pred, model.predict(X))

    def test_feature_width_mismatch(self):
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carle")
        with pytest.raises(InputError):
            model.predict(np.zeros((4, X.shape[1] + 1)))

    def test_checkpoint_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(InputError, match="checkpoint"):
            load_checkpoint(path)

    def test_checkpoint_rejects_future_version(self, tmp_path):
        config = tiny_config()
        X, y = self._data(config)
        model = train_model(X, y, config, "carl")
        path = tmp_path / "ok.npz"
        save_model(path, model, config)

        import json as _json

        with np.load(path) as data:
            meta = _json.loads(bytes(data["meta"]).decode())
            arrays = {k: data[k] for k in data.files if k != "meta"}
        for version in (1, 2, 3, 999):
            meta["version"] = version
            bad = tmp_path / f"v{version}.npz"
            np.savez(bad, meta=np.frombuffer(_json.dumps(meta).encode(), dtype=np.uint8), **arrays)
            with pytest.raises(InputError, match=f"unsupported checkpoint version {version}"):
                load_checkpoint(bad)


class TestCrossdomain:
    def test_alignment_recovers_affine_shift(self):
        config = tiny_config()
        sig, _ = synth_signal(config)
        X, _, _ = extract_matrix(sig, config)
        y = labels_for(config, len(X))
        model = train_model(X, y, config, "carle")

        rng = np.random.default_rng(3)
        scale = rng.uniform(1.5, 3.0, X.shape[1])
        shift = rng.uniform(-2.0, 2.0, X.shape[1])
        target_X = X * scale + shift  # same windows, affinely warped domain

        aligned, unaligned = crossdomain_predictions(model, X, target_X, config)
        mae_aligned = MetricReport.compute(y, aligned).mae
        mae_unaligned = MetricReport.compute(y, unaligned).mae
        assert mae_aligned < mae_unaligned


class TestNoiseReports:
    def test_three_reports_with_params_echoed(self):
        config = tiny_config()
        sig, _ = synth_signal(config)
        X, _, _ = extract_matrix(sig, config)
        y = labels_for(config, len(X))
        model = train_model(X, y, config, "carle")
        reports = noise_reports(model, sig, config)
        assert set(reports) == {"clean", "gaussian", "salt_pepper"}
        assert reports["gaussian"]["noise_params"]["std"] == 0.1
        assert reports["salt_pepper"]["noise_params"]["fraction"] == 0.1
        for rep in reports.values():
            assert {"mae", "rmse", "score", "n"} <= set(rep)

    def test_zero_noise_equals_clean(self):
        config = tiny_config(**{"noise.gaussian_std": 0.0, "noise.gaussian_mean": 0.0})
        sig, _ = synth_signal(config)
        X, _, _ = extract_matrix(sig, config)
        y = labels_for(config, len(X))
        model = train_model(X, y, config, "carle")
        reports = noise_reports(model, sig, config)
        assert reports["clean"]["mae"] == reports["gaussian"]["mae"]
        assert reports["clean"]["rmse"] == reports["gaussian"]["rmse"]


def test_snr_sweep_of_a_csv_read_signal_matches_memory(tmp_path):
    # a CSV-read signal is a transpose of the parsed rows
    sig, _ = synth_signal(ExperimentConfig(seed=7))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    read = read_signal_csv(path, sig.sample_rate_hz)
    assert np.array_equal(read.channels, sig.channels)
    sigmas = np.arange(0.25, 2.01, 0.25)
    assert snr_sweep(read, sigmas) == snr_sweep(sig, sigmas)


@pytest.mark.parametrize(
    "seed, channels, extraction, digest",
    [
        (0, 1, {}, "118bfb2045ace05b"),
        (1, 2, {}, "5b959764f7a8962f"),
        (2, 3, {}, "6d5b29ce71e2b04d"),
        (0, 2, {"n_scales": 16, "stride": 100, "two_pi_phase": False}, "4d54c529b237e844"),
    ],
)
def test_feature_bytes_pinned(seed, channels, extraction, digest):
    """SHA-256 prefixes of extract_matrix's matrix and window index: any
    change to smoothing, windowing, the transform or a descriptor's
    arithmetic shows here."""
    sig, _ = synth_run_to_failure(SynthConfig(duration_s=4.0, channel_count=channels), seed)
    X, _, idx = extract_matrix(sig, ExperimentConfig.from_dict({"extraction": extraction}))
    assert X.shape == (len(idx), 7 * channels)
    h = hashlib.sha256(X.tobytes())
    h.update(idx.tobytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "sigma, digest", [(0.3, "3f3af0cd6c9162b8"), (1.0, "6b3323768aa0a5a4"), (2.5, "15f4380e26c0d773")]
)
def test_feature_bytes_pinned_smoothing(sigma, digest):
    """SHA-256 prefixes of gaussian_filter's output, which every feature reads."""
    sig, _ = synth_run_to_failure(SynthConfig(duration_s=2.0, channel_count=2), 0)
    smoothed = gaussian_filter(sig, sigma).channels
    assert hashlib.sha256(smoothed.tobytes()).hexdigest()[:16] == digest
