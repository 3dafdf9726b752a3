import gc
import tracemalloc

import numpy as np
import pytest

from carle import dataio
from carle.errors import InputError
from carle.signal import MultiChannelSignal


class TestSignalCsv:
    def test_round_trip_with_header(self, tmp_path, rng):
        sig = MultiChannelSignal(rng.normal(size=(3, 40)), 512.0)
        path = tmp_path / "sig.csv"
        dataio.write_signal_csv(path, sig, "abc123")
        again = dataio.read_signal_csv(path, 512.0)
        assert again.channel_count == 3
        assert np.allclose(again.channels, sig.channels, rtol=0, atol=0)
        assert path.read_text().startswith("# config_hash=abc123")

    def test_headerless_numeric_columns(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        sig = dataio.read_signal_csv(path, 100.0)
        assert sig.channel_count == 2
        assert np.array_equal(sig.channels, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_header_without_time_column(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("ch1,ch2\n1.0,2.0\n3.0,4.0\n")
        sig = dataio.read_signal_csv(path, 100.0)
        assert sig.channel_count == 2
        assert sig.length == 2

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch1\n0.0,1.0\n0.001,oops\n")
        with pytest.raises(InputError):
            dataio.read_signal_csv(path, 100.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected_with_its_line(self, tmp_path, bad):
        path = tmp_path / "sig.csv"
        path.write_text(f"# config_hash=h\nt,ch1,ch2\n0.0,1.0,2.0\n0.001,3.0,{bad}\n")
        with pytest.raises(InputError, match=r"sig.csv:4: non-finite"):
            dataio.read_signal_csv(path, 100.0)

    def test_ragged_rows_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,2.0\n3.0\n5.0,6.0\n")
        with pytest.raises(InputError, match=r"sig.csv:2: column count"):
            dataio.read_signal_csv(path, 100.0)

    def test_first_row_mixing_numbers_and_names_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,abc\n2.0,3.0\n4.0,5.0\n")
        with pytest.raises(InputError, match=r"sig.csv:1: "):
            dataio.read_signal_csv(path, 100.0)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            dataio.read_signal_csv(path, 100.0)


class TestFeatureCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        X = rng.normal(size=(6, 4))
        names = ("a", "b", "c", "d")
        path = tmp_path / "f.csv"
        dataio.write_features_csv(path, X, names, config_hash="h")
        X2, names2, idx = dataio.read_features_csv(path)
        assert names2 == names
        assert np.array_equal(X2, X)  # repr round-trips float64 exactly
        assert np.array_equal(idx, np.arange(6))

    def test_requires_window_index_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError):
            dataio.read_features_csv(path)


    @pytest.mark.parametrize(
        "row, reason",
        [
            ("1,0.5,abc", "non-numeric"),
            ("x,0.5,0.7", "non-numeric"),
            ("1,0.5", "2 values, header has 3"),
            ("1,0.5,0.7,0.9", "4 values, header has 3"),
            ("1,nan,0.7", "non-finite"),
            ("1,0.5,inf", "non-finite"),
        ],
    )
    def test_bad_row_rejected_with_its_line(self, tmp_path, row, reason):
        path = tmp_path / "f.csv"
        path.write_text(f"# config_hash=h\nwindow_index,a,b\n0,0.1,0.2\n{row}\n")
        with pytest.raises(InputError, match=rf"f.csv:4: {reason}"):
            dataio.read_features_csv(path)

    def test_window_index_gaps_allowed(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("window_index,a\n1,0.1\n4,0.2\n5,0.3\n")
        assert dataio.read_features_csv(path)[2].tolist() == [1, 4, 5]

    @pytest.mark.parametrize("indices, line", [("0,2,1", 5), ("0,0,0", 4), ("3,4,5,5", 6)])
    def test_window_index_must_strictly_increase(self, tmp_path, indices, line):
        rows = "".join(f"{i},0.5\n" for i in indices.split(","))
        path = tmp_path / "f.csv"
        path.write_text(f"# config_hash=h\nwindow_index,a\n{rows}")
        with pytest.raises(InputError, match=rf"f.csv:{line}: window_index .* must strictly increase"):
            dataio.read_features_csv(path)


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        vals = np.array([1.0, 0.5, 0.0])
        path = tmp_path / "l.csv"
        dataio.write_labels_csv(path, vals, "h")
        assert np.array_equal(dataio.read_labels_csv(path), vals)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("rul\nhigh\n")
        with pytest.raises(InputError):
            dataio.read_labels_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("rul\n0.5\nnan\n")
        with pytest.raises(InputError, match="finite"):
            dataio.read_labels_csv(path)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("rul\n0.5\n\n# c\nhigh\n", 5, "labels must be numeric"),
            ("0.5\nnan\n", 2, "labels must be finite"),
        ],
    )
    def test_bad_label_named_by_its_line(self, tmp_path, text, line, reason):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"l.csv:{line}: {reason}"):
            dataio.read_labels_csv(path)


class TestParserDivergence:
    """Inputs on which numpy's C parser and Python's float() or int() may
    disagree. Each reader returns what the row-by-row grammar returns."""

    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return path

    def test_float_only_spellings_accepted(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", "t,ch1\n0,1_0\n1,\uff11\n2,\u0663\n")
        sig = dataio.read_signal_csv(path, 100.0)
        assert sig.channels.tobytes() == np.array([[10.0, 1.0, 3.0]]).tobytes()

    @pytest.mark.parametrize("token", ["1.", ".5", "+.5", "1E5", "-0.0", "4.9e-324", "1e-320", " 7 "])
    def test_spellings_read_bit_for_bit_as_float(self, tmp_path, token):
        path = self._write(tmp_path, "sig.csv", f"1.0,{token}\n2.0,{token}\n")
        sig = dataio.read_signal_csv(path, 100.0)
        assert sig.channels.tobytes() == np.array([[1.0, 2.0], [float(token)] * 2]).tobytes()

    @pytest.mark.parametrize("token", ["1\x1c", "\x1f1", "1\u01fe"])
    def test_characters_numpy_alone_reads_are_refused(self, tmp_path, token):
        sig = self._write(tmp_path, "sig.csv", f"t,ch1\n0,1.0\n1,{token}\n")
        with pytest.raises(InputError, match=r"sig.csv:3: non-numeric value"):
            dataio.read_signal_csv(sig, 100.0)
        feats = self._write(tmp_path, "f.csv", f"window_index,a\n0,0.5\n{token},0.5\n")
        with pytest.raises(InputError, match=r"f.csv:3: non-numeric value"):
            dataio.read_features_csv(feats)

    def test_quoted_numbers_accepted(self, tmp_path):
        sig = self._write(tmp_path, "sig.csv", 't,ch1\n0,"1.0"\n"1",2.5\n')
        assert np.array_equal(dataio.read_signal_csv(sig, 100.0).channels, [[1.0, 2.5]])
        feats = self._write(tmp_path, "f.csv", 'window_index,a\n"3","0.5"\n')
        X, _, idx = dataio.read_features_csv(feats)
        assert np.array_equal(X, [[0.5]]) and np.array_equal(idx, [3])
        labels = self._write(tmp_path, "l.csv", 'rul\n"0.5"\n0.25\n')
        assert np.array_equal(dataio.read_labels_csv(labels), [0.5, 0.25])

    @pytest.mark.parametrize("token", [" nan ", "infinity", "-Infinity", "1e400"])
    def test_padded_and_spelled_out_non_finite_rejected_at_its_line(self, tmp_path, token):
        sig = self._write(tmp_path, "sig.csv", f"# h\nt,ch1\n0,1.0\n1,{token}\n")
        with pytest.raises(InputError, match=r"sig.csv:4: non-finite sample"):
            dataio.read_signal_csv(sig, 100.0)
        feats = self._write(tmp_path, "f.csv", f"window_index,a\n0,{token}\n")
        with pytest.raises(InputError, match=r"f.csv:2: non-finite feature value"):
            dataio.read_features_csv(feats)

    def test_non_finite_time_column_is_ignored(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", "t,ch1\nnan,1.0\ninf,2.0\n")
        assert np.array_equal(dataio.read_signal_csv(path, 100.0).channels, [[1.0, 2.0]])

    def test_trailing_comma_rejected_with_each_readers_message(self, tmp_path):
        sig = self._write(tmp_path, "sig.csv", "1.0,2.0\n3.0,4.0,\n")
        with pytest.raises(InputError, match=r"sig.csv:2: column count differs from the first row"):
            dataio.read_signal_csv(sig, 100.0)
        feats = self._write(tmp_path, "f.csv", "window_index,a\n0,0.5,\n")
        with pytest.raises(InputError, match=r"f.csv:2: 3 values, header has 2"):
            dataio.read_features_csv(feats)

    def test_inline_comment_is_an_error(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", "1.0,2.0\n1.0,2 # x\n")
        with pytest.raises(InputError, match=r"sig.csv:2: non-numeric value"):
            dataio.read_signal_csv(path, 100.0)

    def test_crlf_blank_and_comment_lines_between_rows(self, tmp_path):
        text = "# h\r\nt,ch1\r\n0,1.0\r\n\r\n# note\r\n   \r\n1,2.0\r\n"
        path = self._write(tmp_path, "sig.csv", text)
        assert np.array_equal(dataio.read_signal_csv(path, 100.0).channels, [[1.0, 2.0]])
        path = self._write(tmp_path, "sig.csv", text + "\r\n# more\r\n2,abc\r\n")
        with pytest.raises(InputError, match=r"sig.csv:10: non-numeric value"):
            dataio.read_signal_csv(path, 100.0)

    def test_ragged_row_after_header_rejected_at_its_line(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", "t,ch1,ch2\n0,1,2\n\n1,3\n")
        with pytest.raises(InputError, match=r"sig.csv:4: 2 values, header has 3"):
            dataio.read_signal_csv(path, 100.0)

    @pytest.mark.parametrize("text", ["t\n0.0\n0.1\n", "time\n"])
    def test_no_channel_column_rejected(self, tmp_path, text):
        path = self._write(tmp_path, "sig.csv", text)
        with pytest.raises(InputError, match="expected one column per channel"):
            dataio.read_signal_csv(path, 100.0)

    @pytest.mark.parametrize("text", ["t,ch1\n", "t,ch1,ch2\n", "ch1,ch2\r\n# h\r\n\r\n"])
    def test_header_only_rejected(self, tmp_path, text):
        path = self._write(tmp_path, "sig.csv", text)
        with pytest.raises(InputError, match=r"sig.csv: no sample rows after the header$"):
            dataio.read_signal_csv(path, 100.0)

    def test_two_labels_on_one_line_rejected_at_its_line(self, tmp_path):
        path = self._write(tmp_path, "l.csv", "rul\n0.5\n0.1,0.2\n")
        with pytest.raises(InputError, match=r"l.csv:3: labels must be numeric"):
            dataio.read_labels_csv(path)

    def test_labels_name_the_first_faulty_row(self, tmp_path):
        path = self._write(tmp_path, "l.csv", "rul\n0.5\n0.1,0.2\nabc\n")
        with pytest.raises(InputError, match=r"l.csv:3: labels must be numeric"):
            dataio.read_labels_csv(path)

    def test_window_index_out_of_int64_range_rejected_at_its_line(self, tmp_path):
        path = self._write(tmp_path, "f.csv", "window_index,a\n0,0.5\n99999999999999999999,0.5\n")
        with pytest.raises(InputError, match=r"f.csv:3: non-numeric value"):
            dataio.read_features_csv(path)

    def test_signal_names_the_first_faulty_row(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", "1.0,2.0\n3.0\nnan,1.0\n5.0,abc\n")
        with pytest.raises(InputError, match=r"sig.csv:2: column count differs from the first row"):
            dataio.read_signal_csv(path, 100.0)

    def test_features_name_the_first_faulty_row(self, tmp_path):
        path = self._write(tmp_path, "f.csv", "window_index,a\n0,nan\n1,0.5,0.7\n2,abc\n")
        with pytest.raises(InputError, match=r"f.csv:2: non-finite feature value"):
            dataio.read_features_csv(path)

    def test_clean_files_never_reach_the_fallback(self, tmp_path, rng, monkeypatch):
        sig = MultiChannelSignal(rng.normal(size=(2, 300)), 256.0)
        X = rng.normal(size=(7, 3))
        dataio.write_signal_csv(tmp_path / "sig.csv", sig, "h")
        dataio.write_features_csv(tmp_path / "f.csv", X, ("a", "b", "c"), config_hash="h")
        dataio.write_labels_csv(tmp_path / "l.csv", X[:, 0], "h")

        def refuse(*args):
            raise AssertionError("a clean file reached the row-by-row loop")

        monkeypatch.setattr(dataio, "_parse_rows", refuse)
        again = dataio.read_signal_csv(tmp_path / "sig.csv", 256.0)
        assert again.channels.tobytes() == sig.channels.tobytes()
        X2, _, idx = dataio.read_features_csv(tmp_path / "f.csv")
        assert X2.tobytes() == X.tobytes() and np.array_equal(idx, np.arange(7))
        assert dataio.read_labels_csv(tmp_path / "l.csv").tobytes() == X[:, 0].tobytes()


class TestQuoting:
    """A quote must close on the line it opens, right before a comma or the
    line end; otherwise the reader names the line where the quote opens."""

    _write = staticmethod(TestParserDivergence._write)

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_unterminated_quote_at_end_of_file(self, tmp_path, end):
        sig = self._write(tmp_path, "sig.csv", f'# h\nt,ch1\n0,1.0\n1,"2.5{end}')
        with pytest.raises(InputError, match=r"sig.csv:4: malformed row \(unexpected end of data\)"):
            dataio.read_signal_csv(sig, 100.0)
        feats = self._write(tmp_path, "f.csv", f'window_index,a\n0,0.5\n1,"0.7{end}')
        with pytest.raises(InputError, match=r"f.csv:3: malformed row"):
            dataio.read_features_csv(feats)
        labels = self._write(tmp_path, "l.csv", f'rul\n0.5\n"0.7{end}')
        with pytest.raises(InputError, match=r"l.csv:3: malformed row"):
            dataio.read_labels_csv(labels)

    def test_field_spanning_lines_named_where_it_opens(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", '# h\n1.0,2.0\n"3.0\n",4.0\n5.0,abc\n')
        with pytest.raises(InputError, match=r"sig.csv:3: quoted field spans lines"):
            dataio.read_signal_csv(path, 100.0)
        feats = self._write(tmp_path, "f.csv", 'window_index,a\n0,"0.5\n"\n')
        with pytest.raises(InputError, match=r"f.csv:2: quoted field spans lines"):
            dataio.read_features_csv(feats)

    def test_rows_after_a_quoted_field_keep_their_lines(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", '1.0,"2.0"\n\n3.0,4.0\n5.0,abc\n')
        with pytest.raises(InputError, match=r"sig.csv:4: non-numeric value"):
            dataio.read_signal_csv(path, 100.0)

    @pytest.mark.parametrize("text", ['"t\n",ch1\n0,1.0\n', '"t,ch1\n', 't,"ch1" \n0,1.0\n'])
    def test_bad_quote_in_signal_header(self, tmp_path, text):
        path = self._write(tmp_path, "sig.csv", text)
        with pytest.raises(InputError, match=r"sig.csv:1: "):
            dataio.read_signal_csv(path, 100.0)

    def test_bad_quote_in_first_data_row_after_header(self, tmp_path):
        path = self._write(tmp_path, "sig.csv", 't,ch1\n0,"1.0" \n1,2.0\n')
        with pytest.raises(InputError, match=r"sig.csv:2: malformed row"):
            dataio.read_signal_csv(path, 100.0)

    def test_bad_quote_in_feature_header(self, tmp_path):
        path = self._write(tmp_path, "f.csv", '"window_index\n",a\n0,0.5\n')
        with pytest.raises(InputError, match=r"f.csv:1: quoted field spans lines"):
            dataio.read_features_csv(path)

    @pytest.mark.parametrize("row", ['"1.0" ,2.0', '"1"2,3.0', '"1.0"\t,2.0'])
    def test_text_after_a_closing_quote_rejected(self, tmp_path, row):
        # before, these read as 1.0 (padding dropped) or 12.0 (text joined)
        path = self._write(tmp_path, "sig.csv", f"0.5,0.5\n{row}\n")
        with pytest.raises(InputError, match=r"sig.csv:2: malformed row \(',' expected after '\"'\)"):
            dataio.read_signal_csv(path, 100.0)

    def test_quote_fault_named_first_in_its_row(self, tmp_path):
        # a quoting fault comes before the row's wrong width, but not before
        # an earlier faulty row
        path = self._write(tmp_path, "sig.csv", '1.0,2.0\n"3.0\n",4.0,5.0\n6.0\n')
        with pytest.raises(InputError, match=r"sig.csv:2: quoted field spans lines"):
            dataio.read_signal_csv(path, 100.0)
        path = self._write(tmp_path, "sig.csv", '1.0,2.0\n3.0\n"5.0" ,1.0\n')
        with pytest.raises(InputError, match=r"sig.csv:2: column count differs from the first row"):
            dataio.read_signal_csv(path, 100.0)
        feats = self._write(tmp_path, "f.csv", 'window_index,a\n0,"0.5\n",0.7\n')
        with pytest.raises(InputError, match=r"f.csv:2: quoted field spans lines"):
            dataio.read_features_csv(feats)
        feats = self._write(tmp_path, "f.csv", 'window_index,a\n0,0.5,0.7\n1,"0.5" \n')
        with pytest.raises(InputError, match=r"f.csv:2: 3 values, header has 2"):
            dataio.read_features_csv(feats)


def test_signal_read_peaks_below_two_and_a_half_files(tmp_path, rng):
    """Reading a 30,720-row two-channel signal holds the file's bytes, the
    parsed table and one transposed copy, not a list of lines and its joins,
    and once it returns, only the signal: no reference cycle keeps the bytes
    until the next garbage collection."""
    path = tmp_path / "sig.csv"
    dataio.write_signal_csv(path, MultiChannelSignal(rng.normal(size=(2, 30_720)), 1024.0), "h")
    gc.disable()
    tracemalloc.start()
    try:
        sig = dataio.read_signal_csv(path, 1024.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= 2.5 * path.stat().st_size
    assert held <= sig.channels.nbytes + 64 * 1024


def test_predictions_csv(tmp_path):
    path = tmp_path / "p.csv"
    dataio.write_predictions_csv(path, [0, 1], [1.0, 0.5], [0.9, 0.6], "h")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1] == "window_index,y_true,y_pred"
    assert lines[2].split(",") == ["0", "1.0", "0.9"]


# Tokens the fast parser and the grammar may read differently, or refuse.
_ODD_TOKENS = [
    " 3 ", "\t6", '"1.0"', '" 2"', '"1"2', "1_0", "\uff11", "\u0663", "inf", "-nan", "Infinity",
    "1e400", "abc", "", "1 2", '"3', "\u00e9", "0x10", "1\x1c", "#4",
]
# Lines the readers skip: comments, empty and whitespace-only lines.
_SKIPPED = ["# config_hash=abc", "#1,2", "", "  ", "\t", " \x0c", "\u3000"]
_HEADERS = {
    "signal": ["t,ch1,ch2", "ch1,ch2", "time,a", None],
    "features": ["window_index,a,b", "window_index,a"],
    "labels": ["rul", None],
}
# Headers of a bad or a header-only file, for messy files alone.
_ODD_HEADERS = {"signal": ["t", "time"], "features": ["idx,a", "window_index"], "labels": ["label"]}


def _random_csv(rng, kind) -> bytes:
    """A seeded CSV for ``kind``'s reader: half of them clean numbers with LF
    or CRLF ends, the rest with skipped lines in head and body, lone-CR or
    mixed ends, odd tokens, ragged rows, a BOM or a byte that is not UTF-8."""
    messy = rng.random() < 0.5
    ends = ["\n", "\r\n", "\r"] if messy else ["\n", "\r\n"]
    end = ends[rng.integers(len(ends))]
    headers = _HEADERS[kind] + (_ODD_HEADERS[kind] if messy else [])
    header = headers[rng.integers(len(headers))]
    width = len(header.split(",")) if header else (1 if kind == "labels" else int(rng.integers(2, 4)))
    lines = [_SKIPPED[rng.integers(len(_SKIPPED))] for _ in range(rng.integers(0, 3))]
    lines += [header] if header else []
    index = int(rng.integers(-1 if messy else 0, 3))
    for _ in range(rng.integers(0 if messy else 1, 6)):
        if messy and rng.random() < 0.2:
            lines.append(_SKIPPED[rng.integers(len(_SKIPPED))])
        row = [str(index)] if kind == "features" else []
        index += int(rng.integers(0 if messy else 1, 3))
        row += [repr(float(rng.normal() * 10.0 ** rng.integers(-3, 4))) for _ in range(width - len(row))]
        if messy and rng.random() < 0.1:
            row = row[:-1] if rng.random() < 0.5 else row + ["1.5"]
        if messy and row and rng.random() < 0.3:
            row[rng.integers(len(row))] = _ODD_TOKENS[rng.integers(len(_ODD_TOKENS))]
        lines.append(",".join(row))
    mixed = messy and rng.random() < 0.2
    text = "".join(line + (ends[rng.integers(len(ends))] if mixed else end) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    data = text.encode()
    if messy and rng.random() < 0.1:
        data = b"\xef\xbb\xbf" + data
    if messy and data and rng.random() < 0.1:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


_READERS = {
    "signal": lambda path: [dataio.read_signal_csv(path, 100.0).channels],
    "features": lambda path: list(dataio.read_features_csv(path)),
    "labels": lambda path: [dataio.read_labels_csv(path)],
}


def _outcome(kind, path):
    """What ``kind``'s reader gives for ``path``: its arrays' bits, or its message."""
    try:
        out = _READERS[kind](path)
    except InputError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in out]


@pytest.mark.parametrize("kind", sorted(_READERS))
def test_readers_match_the_grammar(tmp_path, monkeypatch, kind):
    """Each reader returns, or refuses with, what ``_parse_rows`` gives over
    the data lines, on 300 seeded files."""
    rng = np.random.default_rng(list(_READERS).index(kind))
    paths = []
    for n in range(300):
        paths.append(tmp_path / f"{n}.csv")
        paths[-1].write_bytes(_random_csv(rng, kind))
    grammar, calls = dataio._parse_rows, []
    monkeypatch.setattr(dataio, "_parse_rows", lambda *args: calls.append(args) or grammar(*args))
    fast, parsed_by_numpy = [], 0
    for path in paths:
        before = len(calls)
        fast.append(_outcome(kind, path))
        parsed_by_numpy += isinstance(fast[-1], list) and len(calls) == before
    monkeypatch.setattr(dataio._Text, "plain_from", lambda text, offset: False)
    assert [_outcome(kind, path) for path in paths] == fast
    assert parsed_by_numpy > 100
