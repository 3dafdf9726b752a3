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


def test_predictions_csv(tmp_path):
    path = tmp_path / "p.csv"
    dataio.write_predictions_csv(path, [0, 1], [1.0, 0.5], [0.9, 0.6], "h")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1] == "window_index,y_true,y_pred"
    assert lines[2].split(",") == ["0", "1.0", "0.9"]
