"""CSV and JSON readers/writers for signals, features, labels, predictions.

Every emitted file carries the resolved config hash: CSVs in a leading
``# config_hash=...`` comment line, JSON files in a ``config_hash`` field.
Readers skip ``#`` comment lines.
"""

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .signal import MultiChannelSignal


def _data_lines(path):
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            yield line


def _line(path, row: int) -> str:
    """``path:line`` of data row ``row`` (0-based) as _data_lines counts rows,
    for error messages."""
    with open(path, newline="") as fh:
        numbers = (k for k, line in enumerate(fh, 1) if not line.startswith("#") and line.strip())
        return f"{path}:{next(itertools.islice(numbers, row, None))}"


def read_signal_csv(path, sample_rate_hz: float) -> MultiChannelSignal:
    """Load a raw-signal CSV: header row ``t,ch1,ch2,...`` or headerless
    numeric columns, one row per sample. A first row is a header only when
    none of its tokens is a number. A leading ``t`` column is ignored; the
    sample rate always comes from configuration."""
    rows = list(csv.reader(_data_lines(path)))
    if not rows:
        raise InputError(f"{path}: empty signal file")
    header = rows[0]
    numeric = [_is_number(tok) for tok in header]
    if any(numeric) and not all(numeric):
        raise InputError(f"{_line(path, 0)}: first row mixes numbers and names")
    start = 0 if all(numeric) else 1
    drop_first = start == 1 and header[0].strip().lower() in {"t", "time", "time_s"}
    data = []
    for i, row in enumerate(rows[start:], start=start):
        try:
            vals = [float(tok) for tok in row]
        except ValueError as exc:
            raise InputError(f"{_line(path, i)}: non-numeric value") from exc
        data.append(vals[1:] if drop_first else vals)
    try:
        arr = np.asarray(data, dtype=np.float64)
    except ValueError as exc:
        ragged = next(i for i, vals in enumerate(data) if len(vals) != len(data[0]))
        raise InputError(f"{_line(path, start + ragged)}: column count differs from the first row") from exc
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise InputError(f"{path}: expected one column per channel")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise InputError(f"{_line(path, start + int(np.argmin(finite)))}: non-finite sample")
    return MultiChannelSignal(arr.T, sample_rate_hz)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _write_csv(path, header, rows, config_hash: str, line_end: str = "\r\n"):
    """Write ``header`` and then ``rows`` with the csv module, after a
    ``# config_hash=`` comment line when a hash is given."""
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)


def write_signal_csv(path, signal: MultiChannelSignal, config_hash: str = ""):
    t = np.arange(signal.length) / signal.sample_rate_hz
    header = ["t"] + [f"ch{i + 1}" for i in range(signal.channel_count)]
    rows = (
        [repr(float(t[i]))] + [repr(float(v)) for v in signal.channels[:, i]]
        for i in range(signal.length)
    )
    _write_csv(path, header, rows, config_hash)


def write_features_csv(path, matrix, names, window_index=None, config_hash: str = ""):
    matrix = np.atleast_2d(matrix)
    if window_index is None:
        window_index = np.arange(len(matrix))
    rows = ([int(idx)] + [repr(float(v)) for v in row] for idx, row in zip(window_index, matrix))
    _write_csv(path, ["window_index"] + list(names), rows, config_hash)


def read_features_csv(path):
    """Returns (matrix, names, window_index)."""
    rows = list(csv.reader(_data_lines(path)))
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one feature row")
    header = rows[0]
    if header[0] != "window_index":
        raise InputError(f"{path}: first column must be window_index, got {header[0]!r}")
    names = tuple(header[1:])
    idx = []
    data = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise InputError(f"{_line(path, i)}: {len(row)} values, header has {len(header)}")
        try:
            idx.append(int(row[0]))
            data.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise InputError(f"{_line(path, i)}: non-numeric value") from exc
        if not np.isfinite(data[-1]).all():
            raise InputError(f"{_line(path, i)}: non-finite feature value")
    return np.asarray(data, dtype=np.float64), names, np.asarray(idx, dtype=np.int64)


def write_labels_csv(path, values, config_hash: str = ""):
    rows = ([repr(float(v))] for v in np.asarray(values).ravel())
    _write_csv(path, ["rul"], rows, config_hash, line_end="\n")


def read_labels_csv(path) -> np.ndarray:
    lines = [ln.strip() for ln in _data_lines(path)]
    if not lines:
        raise InputError(f"{path}: empty label file")
    if lines[0] == "rul":
        lines = lines[1:]
    try:
        labels = np.asarray([float(v) for v in lines], dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"{path}: labels must be numeric") from exc
    if not np.isfinite(labels).all():
        raise InputError(f"{path}: labels must be finite")
    return labels


def write_predictions_csv(path, window_index, y_true, y_pred, config_hash: str = ""):
    rows = (
        [int(i), repr(float(yt)), repr(float(yp))] for i, yt, yp in zip(window_index, y_true, y_pred)
    )
    _write_csv(path, ["window_index", "y_true", "y_pred"], rows, config_hash)


def write_history_csv(path, history: dict, config_hash: str = ""):
    rows = (
        [e, repr(float(loss)), repr(float(mae)), repr(float(lr))]
        for e, (loss, mae, lr) in enumerate(zip(history["loss"], history["mae"], history["lr"]))
    )
    _write_csv(path, ["epoch", "loss", "mae", "lr"], rows, config_hash)


def write_metrics_json(path, payload: dict, config_hash: str = ""):
    doc = dict(payload)
    if config_hash:
        doc["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_snr_csv(path, pairs, config_hash: str = ""):
    rows = ([repr(float(sigma)), repr(float(snr))] for sigma, snr in pairs)
    _write_csv(path, ["sigma", "snr_db"], rows, config_hash)


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
