"""Command-line harness: synth, extract, train, predict, ablate, noise,
crossdomain, snr-sweep.

Exit codes: 0 success, 2 usage/input error (a file-system error included),
3 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, pipeline
from .errors import InputError, NumericalError, ParameterError
from .labels import make_labels
from .metrics import MetricReport
from .pipeline import VARIANTS, ExperimentConfig
from .signal import snr_sweep


def _parse_set(values):
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ParameterError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key.strip()] = raw
        except RecursionError:
            raise ParameterError(f"--set {key.strip()}: value is nested too deeply") from None
    return overrides


def resolve_config(args, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Precedence: flags (``--profile``, ``--seed`` and ``--rotation-hz``, which
    set model.profile, seed and synth.rotation_hz) > --set overrides > config
    file > ``base`` (a checkpoint's config) > defaults."""
    config = base if base is not None else ExperimentConfig()
    if getattr(args, "config", None):
        config = ExperimentConfig.from_file(args.config, base=config)
    overrides = _parse_set(getattr(args, "set", None))
    if getattr(args, "profile", None):
        overrides["model.profile"] = args.profile
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "rotation_hz", None) is not None:
        overrides["synth.rotation_hz"] = args.rotation_hz
    return config.with_overrides(overrides)


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (nested sections)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key, e.g. --set training.epochs=50",
    )
    parser.add_argument("--seed", type=int, help="root seed (splits per subsystem)")
    parser.add_argument("--profile", help="model profile: xjtu, pronostia, toy")


def _load_model(args):
    """The checkpoint's model and the config to run it with: the stored config
    under the command's overrides, which may not change the sections the
    model was built and trained from."""
    model = pipeline.load_model(args.checkpoint)
    config = resolve_config(args, base=model.config)
    for section in ("model", "training", "forest"):
        if getattr(config, section) != getattr(model.config, section):
            raise InputError(
                f"{args.checkpoint}: an override changes the {section} section the checkpoint fixes"
            )
    return model, config


def _load_features(args, config):
    """Feature matrix + labels from --features/--labels or a raw --signal."""
    if bool(args.features) == bool(args.signal):
        raise InputError("provide either --features or --signal")
    if args.features:
        X, names, idx = dataio.read_features_csv(args.features)
        return X, _labels(args.labels, config, idx), names, idx
    sig = dataio.read_signal_csv(args.signal, config.sample_rate_hz)
    X, names, idx = pipeline.extract_matrix(sig, config)
    return X, _labels(args.labels, config, idx, pipeline.window_count(sig, config)), names, idx


def _labels(path, config, window_index, n_windows=None):
    """The labels for the feature rows of windows ``window_index``: read from
    ``path`` and refused unless there is one per row, or else the config's
    scheme over ``n_windows`` windows (by default the last index + 1, as for
    a feature CSV) taken at those indices."""
    if not path:
        if n_windows is None:
            n_windows = int(window_index[-1]) + 1
        return make_labels(n_windows, config.labels, window_index)
    y = dataio.read_labels_csv(path)
    if len(y) != len(window_index):
        raise InputError(
            f"{path}: label count {len(y)} does not match {len(window_index)} feature rows"
        )
    return y


def _check_unit(path, y):
    """Refuse labels read from ``path`` outside [0, 1], the range every
    prediction is clamped to."""
    if path and not ((y >= 0.0) & (y <= 1.0)).all():
        raise InputError(f"{path}: labels span [{y.min():g}, {y.max():g}], outside [0, 1]")


@contextlib.contextmanager
def _out_dir(path):
    """``path`` as a directory, made with any missing parents; the directories
    made here that are still empty when the command fails are removed again,
    deepest first."""
    path = Path(path)
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        for p in made:
            with contextlib.suppress(OSError):
                p.rmdir()
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    config = resolve_config(args)
    signal, meta = pipeline.synth_signal(config)
    dataio.write_signal_csv(args.out, signal, config.config_hash())
    if args.meta:
        dataio.write_metrics_json(args.meta, meta, config.config_hash())
    print(f"wrote {signal.channel_count}x{signal.length} samples to {args.out}")
    return 0


def cmd_extract(args) -> int:
    config = resolve_config(args)
    sig = dataio.read_signal_csv(args.signal, config.sample_rate_hz)
    X, names, idx = pipeline.extract_matrix(sig, config)
    dataio.write_features_csv(args.out, X, names, idx, config.config_hash())
    if args.labels_out:
        y = make_labels(pipeline.window_count(sig, config), config.labels, idx)
        dataio.write_labels_csv(args.labels_out, y, config.config_hash())
    print(f"wrote {X.shape[0]} windows x {X.shape[1]} features to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = resolve_config(args)
    X, y, _, idx = _load_features(args, config)
    _check_unit(args.labels, y)
    with _out_dir(args.out_dir) as out_dir:
        model = pipeline.train_model(X, y, config, args.variant, idx)
        y_pred = model.predict(X, idx)
        report = MetricReport.compute(y, y_pred)

        chash = config.config_hash()
        pipeline.save_model(out_dir / "checkpoint.npz", model, config)
        dataio.write_metrics_json(out_dir / "metrics.json", {"train": report.to_dict()}, chash)
        dataio.write_history_csv(out_dir / "history.csv", model.report.history, chash)
        dataio.write_predictions_csv(out_dir / "predictions.csv", idx, y, y_pred, chash)
    print(
        f"trained {args.variant} ({model.report.epochs_run} epochs): "
        f"train mae={report.mae:.5f} rmse={report.rmse:.5f} score={report.score:.4f}"
    )
    if model.report.diverged:
        print("warning: training aborted on non-finite loss; best checkpoint retained")
    return 0


def cmd_predict(args) -> int:
    model, config = _load_model(args)
    X, y, _, idx = _load_features(args, config)
    y_pred = model.predict(X, idx)
    dataio.write_predictions_csv(args.out, idx, y, y_pred, config.config_hash())
    if args.metrics:
        report = MetricReport.compute(y, y_pred)
        dataio.write_metrics_json(args.metrics, {"eval": report.to_dict()}, config.config_hash())
        print(f"eval mae={report.mae:.5f} rmse={report.rmse:.5f} score={report.score:.4f}")
    print(f"wrote {len(y_pred)} predictions to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    if args.eval_labels and not args.eval_features:
        raise InputError("--eval-labels needs --eval-features")
    config = resolve_config(args)
    X, y, _, idx = _load_features(args, config)
    eval_X, eval_y, eval_idx = X, y, idx
    if args.eval_features:
        eval_X, _, eval_idx = dataio.read_features_csv(args.eval_features)
        eval_y = _labels(args.eval_labels, config, eval_idx)
    _check_unit(args.labels, y)
    _check_unit(args.eval_labels, eval_y)

    rows = []
    with _out_dir(args.out_dir) as out_dir:
        for variant in VARIANTS:
            if variant == "carl":  # carle, trained just before, has carl's flags and seeds
                model = dataclasses.replace(model, forest=None, variant=variant)
            else:
                model = pipeline.train_model(X, y, config, variant, idx)
            y_pred = model.predict(eval_X, eval_idx)
            report = MetricReport.compute(eval_y, y_pred)
            pipeline.save_model(out_dir / f"{variant}.npz", model, config)
            rows.append([variant, repr(report.mae), repr(report.rmse), repr(report.score)])
            print(
                f"{variant}: mae={report.mae:.5f} rmse={report.rmse:.5f} score={report.score:.4f}"
            )
        header = ["variant", "mae", "rmse", "score"]
        dataio._write_csv(out_dir / "ablation.csv", header, rows, config.config_hash())
    return 0


def cmd_noise(args) -> int:
    model, config = _load_model(args)
    sig = dataio.read_signal_csv(args.signal, config.sample_rate_hz)
    reports = pipeline.noise_reports(model, sig, config)
    dataio.write_metrics_json(args.out, reports, config.config_hash())
    for name in ("clean", "gaussian", "salt_pepper"):
        print(f"{name}: mae={reports[name]['mae']:.5f} rmse={reports[name]['rmse']:.5f}")
    return 0


def cmd_crossdomain(args) -> int:
    model, config = _load_model(args)
    source_X, _, _ = dataio.read_features_csv(args.source_features)
    target_X, _, target_idx = dataio.read_features_csv(args.target_features)
    target_y = _labels(args.target_labels, config, target_idx)
    aligned, unaligned = pipeline.crossdomain_predictions(
        model, source_X, target_X, config, target_idx
    )
    payload = {
        "aligned": MetricReport.compute(target_y, aligned).to_dict(),
        "unaligned": MetricReport.compute(target_y, unaligned).to_dict(),
        "adapt": dataclasses.asdict(config.adapt),
    }
    dataio.write_metrics_json(args.out, payload, config.config_hash())
    print(
        f"aligned mae={payload['aligned']['mae']:.5f} vs "
        f"unaligned mae={payload['unaligned']['mae']:.5f}"
    )
    return 0


def cmd_snr_sweep(args) -> int:
    config = resolve_config(args)
    sig = dataio.read_signal_csv(args.signal, config.sample_rate_hz)
    try:
        sigmas = [float(tok) for tok in args.sigmas.split(",")]
    except ValueError as exc:
        raise ParameterError(
            f"--sigmas expects comma-separated numbers, got {args.sigmas!r}"
        ) from exc
    pairs = snr_sweep(sig, sigmas)
    dataio.write_snr_csv(args.out, pairs, config.config_hash())
    for sigma, snr in pairs:
        print(f"sigma={sigma:g}: {snr:.3f} dB")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carle", description="Bearing remaining-useful-life estimation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic run-to-failure signal CSV")
    _add_common(p)
    p.add_argument("--out", required=True, help="output raw-signal CSV")
    p.add_argument("--meta", help="optional metadata JSON")
    p.add_argument("--rotation-hz", type=float, help="override the rotation frequency")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract the per-window feature matrix")
    _add_common(p)
    p.add_argument("--signal", required=True, help="raw-signal CSV")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--labels-out", help="also write aligned RUL labels")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the model (network phase then forest phase)")
    _add_common(p)
    p.add_argument("--features", help="feature CSV input")
    p.add_argument("--labels", help="label CSV aligned with the features")
    p.add_argument("--signal", help="raw-signal CSV input (extraction runs first)")
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--variant", default="carle", choices=VARIANTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict RUL with a trained checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", help="feature CSV input")
    p.add_argument("--labels", help="true labels for the prediction CSV")
    p.add_argument("--signal", help="raw-signal CSV input")
    p.add_argument("--out", required=True, help="output prediction CSV")
    p.add_argument("--metrics", help="optional metrics JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and compare all four model variants")
    _add_common(p)
    p.add_argument("--features", help="feature CSV input")
    p.add_argument("--labels", help="label CSV")
    p.add_argument("--signal", help="raw-signal CSV input")
    p.add_argument("--eval-features", help="held-out feature CSV for the comparison")
    p.add_argument("--eval-labels", help="held-out label CSV")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("noise", help="evaluate robustness to injected noise")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--signal", required=True, help="clean raw-signal CSV")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("crossdomain", help="aligned vs unaligned cross-domain evaluation")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source-features", required=True, help="training-domain feature CSV")
    p.add_argument("--target-features", required=True, help="target-domain feature CSV")
    p.add_argument("--target-labels", help="target-domain label CSV")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.set_defaults(func=cmd_crossdomain)

    p = sub.add_parser("snr-sweep", help="SNR versus smoothing width")
    _add_common(p)
    p.add_argument("--signal", required=True)
    p.add_argument("--sigmas", default="0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0")
    p.add_argument("--out", required=True, help="output CSV of (sigma, snr_db)")
    p.set_defaults(func=cmd_snr_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every numerical failure is caught by an explicit finiteness check
        # that raises NumericalError; numpy's warnings would only precede its line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ParameterError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # str(exc) leads with "[Errno n]"; the path is what the user can act on
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
