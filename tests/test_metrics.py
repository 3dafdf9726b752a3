import json
import math

import numpy as np
import pytest

from carle.errors import InputError
from carle.metrics import MetricReport, mae, phm_score, rmse


class TestMae:
    def test_identical(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert mae([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert abs(mae([0.5, 0.2, 0.9], [0.4, 0.4, 0.9]) - 0.1) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mae([1.0], [1.0, 2.0])


class TestRmse:
    def test_identical(self):
        assert rmse([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_unit_errors(self):
        assert rmse([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert abs(rmse([0.0, 0.0, 0.0], [0.3, 0.0, 0.0]) - 0.17320508075688773) < 1e-12


class TestPhmScore:
    def test_perfect_prediction_zero(self):
        assert phm_score([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_early_minus_13(self):
        assert abs(phm_score([13.0], [0.0]) - (math.e - 1.0)) < 1e-12

    def test_late_plus_10(self):
        assert abs(phm_score([0.0], [10.0]) - (math.e - 1.0)) < 1e-12

    def test_late_costs_more_per_unit(self):
        # same |residual|, the late side grows faster (10 vs 13 scale)
        assert phm_score([0.0], [5.0]) > phm_score([5.0], [0.0])

    def test_nonnegative_and_monotone(self, rng):
        y = rng.uniform(0, 1, 20)
        y_hat = y + rng.normal(0, 0.2, 20)
        base = phm_score(y, y_hat)
        assert base >= 0.0
        bumped = y_hat.copy()
        bumped[7] += 0.3 if bumped[7] >= y[7] else -0.3
        assert phm_score(y, bumped) > base


class TestProperties:
    def test_mae_le_rmse_random_pairs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.normal(size=n)
            y_hat = rng.normal(size=n)
            assert mae(y, y_hat) <= rmse(y, y_hat) + 1e-12

    def test_permutation_invariance(self, rng):
        y = rng.uniform(0, 1, 50)
        y_hat = rng.uniform(0, 1, 50)
        perm = rng.permutation(50)
        assert mae(y, y_hat) == pytest.approx(mae(y[perm], y_hat[perm]), rel=1e-12)
        assert rmse(y, y_hat) == pytest.approx(rmse(y[perm], y_hat[perm]), rel=1e-12)
        assert phm_score(y, y_hat) == pytest.approx(phm_score(y[perm], y_hat[perm]), rel=1e-12)


class TestMetricReport:
    def test_fixed_json_keys(self, tmp_path):
        report = MetricReport.compute([1.0, 0.5], [0.9, 0.6])
        doc = report.to_dict()
        assert set(doc) == {"mae", "rmse", "score", "n"}
        assert doc["n"] == 2
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert json.loads(path.read_text()) == doc

    def test_mae_le_rmse_in_report(self):
        report = MetricReport.compute([1.0, 0.0, 0.5], [0.2, 0.1, 0.9])
        assert report.mae <= report.rmse
