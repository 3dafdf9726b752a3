"""CSV and JSON readers/writers for signals, features, labels, predictions.

Every emitted file carries the resolved config hash: CSVs in a leading
``# config_hash=...`` comment line, JSON files in a ``config_hash`` field.
CSV readers skip blank lines and lines whose first character is ``#``; any
other ``#`` is an error. Values may be padded or quoted (``"1.0"``) and are
read by Python's ``float`` (``int`` for ``window_index``). A quote must close
on the line it opens, right before a comma or the line end. A reader names
the first faulty row and, within it, the first of: a quoting fault, a wrong
width, a bad value, a non-finite value. A reader holds the file's bytes
once: numpy's C parser reads a body of plain numbers straight from them,
and any other body goes row by row through the grammar, ``_parse_rows``.
"""

import contextlib
import csv
import io
import itertools
import json
import re

import numpy as np

from .errors import InputError
from .signal import MultiChannelSignal


# The characters that numpy's C parser and Python's int() and float() read
# alike: numpy also strips \x1c-\x1f and reads some non-ASCII digits as int.
_PLAIN = b"0123456789.eE+-infatyINFATY, \t\r\n"

# One line and its end, the reader's rule: \r\n, \r or \n ends a line.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _data_lines(data):
    """(line number, byte offset, text) of each line of ``data`` that is
    neither blank nor a comment."""
    for number, match in enumerate(_LINE.finditer(data), 1):
        line = match.group().decode()
        if line[0] != "#" and not line.isspace():
            yield number, match.start(), line


class _Text:
    """A CSV file's bytes and its data lines (neither blank nor a comment),
    split and decoded only as far as a reader asks."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.data = fh.read()
        if not self.data.isascii():
            try:
                self.data.decode()
            except UnicodeDecodeError as exc:
                line = len((self.data[: exc.start] + b".").splitlines())
                raise InputError(f"{path}:{line}: not UTF-8 text") from None
        self._lines = []  # (line number, byte offset, text) of the data lines split so far
        self._rest = _data_lines(self.data)  # holds no reference to self, so no cycle keeps the bytes

    def get(self, row):
        """(line number, byte offset, text) of data line ``row``, or None."""
        while len(self._lines) <= row:
            line = next(self._rest, None)
            if line is None:
                return None
            self._lines.append(line)
        return self._lines[row]

    def where(self, row) -> str:
        """``path:line`` of data line ``row``, for error messages."""
        return f"{self.path}:{self.get(row)[0]}"

    def lines(self, start=0):
        """The texts of the data lines from ``start`` on."""
        for row in itertools.count(start):
            line = self.get(row)
            if line is None:
                return
            yield line[2]

    def plain_from(self, offset) -> bool:
        """Whether the bytes from ``offset`` on are all ``_PLAIN``, found
        without copying them."""
        return self.data.translate(None, _PLAIN) == self.data[:offset].translate(None, _PLAIN)


def _parse(text, start, width, first, faults):
    """The table of data rows ``start`` on, ``width`` columns each: a field
    ``first`` (of type ``first``) when given, and a float64 field ``values``
    of the rest. numpy's C parser reads a plain body from the file's bytes;
    a body it refuses (one with a ``#`` or whitespace-only line, a lone-CR
    line end or a quote, say), or with a non-finite value, goes to
    ``_parse_rows``."""
    fields = [("first", first)] if first else []
    dtype = np.dtype(fields + [("values", np.float64, (width - len(fields),))])
    table, line = None, text.get(start)
    if line and text.plain_from(line[1]):
        body = io.BytesIO(text.data)  # shares the bytes, copies none
        body.seek(line[1])
        with contextlib.suppress(ValueError):
            table = np.loadtxt(body, dtype, delimiter=",", comments=None, ndmin=1)
    if table is None or not np.isfinite(table["values"]).all():
        table = np.array(_parse_rows(text, start, width, first, faults), dtype)
    return table


def _parse_rows(text, start, width, first, faults):
    """The grammar: csv tokens read by ``int`` or ``float``. Accepts what
    numpy refuses (``1_0``, ``"1.0"``) or raises at the first faulty row,
    naming the first of its faults in this order: quoting, wrong width
    (``faults[0]``, may use ``{n}`` and ``{width}``), bad value, non-finite."""
    bad_width, bad_value, non_finite = faults
    rows = []
    for i, row, fault in _records(text, start):
        if not fault and len(row) != width:
            fault = bad_width.format(n=len(row), width=width)
        if not fault:
            try:
                lead = [np.dtype(first).type(first(row[0]))] if first else []
                values = [float(tok) for tok in row[len(lead):]]
                fault = "" if np.isfinite(values).all() else non_finite
            except (ValueError, OverflowError):
                fault = bad_value
        if fault:
            raise InputError(f"{text.where(i)}: {fault}")
        rows.append((*lead, values))
    return rows


def _records(text, start=0):
    """Per csv row of the data lines from ``start`` on: the index of the data
    line it opens on, its tokens, and its quoting fault or "". A quote must
    close on the line it opens, right before a comma or the line end."""
    reader = csv.reader(text.lines(start), strict=True)
    while True:
        i = start + reader.line_num
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # a quote left open, text after a closing one, ...
            yield i, [], f"malformed row ({exc})"
            continue
        spans = any("\n" in tok or "\r" in tok for tok in row)
        yield i, row, "quoted field spans lines" if spans else ""


def _row(text, records):
    """The tokens of the next of ``records``, or None when none is left."""
    i, row, quoting = next(records, (0, None, ""))
    if quoting:
        raise InputError(f"{text.where(i)}: {quoting}")
    return row


def read_signal_csv(path, sample_rate_hz: float) -> MultiChannelSignal:
    """Load a raw-signal CSV: header row ``t,ch1,ch2,...`` or headerless
    numeric columns, one row per sample, each row as wide as the first (the
    header, if there is one). A first row is a header only when none of its
    tokens is a number. A leading ``t`` column is ignored; the sample rate
    always comes from configuration."""
    text = _Text(path)
    records = _records(text)
    header = _row(text, records)
    if header is None:
        raise InputError(f"{path}: empty signal file")
    numeric = [_is_number(tok) for tok in header]
    if any(numeric) and not all(numeric):
        raise InputError(f"{text.where(0)}: first row mixes numbers and names")
    start = 0 if all(numeric) else 1
    width = len(header)
    has_time = start > 0 and header[0].strip().lower() in {"t", "time", "time_s"}
    if start and _row(text, records) is None and width > has_time:
        raise InputError(f"{path}: no sample rows after the header")
    bad_width = "{n} values, header has {width}" if start else "column count differs from the first row"
    faults = (bad_width, "non-numeric value", "non-finite sample")
    samples = _parse(text, start, width, float if has_time else None, faults)["values"]
    if samples.size == 0:
        raise InputError(f"{path}: expected one column per channel")
    return MultiChannelSignal(samples.T, sample_rate_hz)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _write_csv(path, header, rows, config_hash: str):
    """Write ``header`` and then ``rows`` with the csv module, after a
    ``# config_hash=`` comment line when a hash is given; every line ends in
    the writer's terminator, CR LF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if config_hash:
            fh.write(f"# config_hash={config_hash}{writer.dialect.lineterminator}")
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
    """Returns (matrix, names, window_index). Window indices must start at 0
    or above and strictly increase down the file; gaps (skipped degenerate
    windows) are allowed."""
    text = _Text(path)
    header = _row(text, _records(text)) or []
    if text.get(1) is None:
        raise InputError(f"{path}: need a header row and at least one feature row")
    if header[0] != "window_index":
        raise InputError(f"{path}: first column must be window_index, got {header[0]!r}")
    faults = ("{n} values, header has {width}", "non-numeric value", "non-finite feature value")
    table = _parse(text, 1, len(header), int, faults)
    idx, matrix = np.ascontiguousarray(table["first"]), np.ascontiguousarray(table["values"])
    if idx[0] < 0:
        raise InputError(f"{text.where(1)}: window_index {idx[0]} is negative")
    out_of_order = np.flatnonzero(idx[1:] <= idx[:-1])
    if out_of_order.size:
        row = int(out_of_order[0]) + 1
        raise InputError(
            f"{text.where(row + 1)}: window_index {idx[row]} does not follow {idx[row - 1]}; "
            "indices must strictly increase"
        )
    return matrix, tuple(header[1:]), idx


def write_labels_csv(path, values, config_hash: str = ""):
    rows = ([repr(float(v))] for v in np.asarray(values).ravel())
    _write_csv(path, ["rul"], rows, config_hash)


def read_labels_csv(path) -> np.ndarray:
    """One label per data row, after an optional ``rul`` header row."""
    text = _Text(path)
    if text.get(0) is None:
        raise InputError(f"{path}: empty label file")
    start = int(text.get(0)[2].strip() == "rul")
    bad = "labels must be numeric"
    return _parse(text, start, 1, None, (bad, bad, "labels must be finite"))["values"].ravel()


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
