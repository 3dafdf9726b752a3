import dataclasses
import hashlib
import multiprocessing
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

from carle import forest, pipeline
from carle.checkpoint import Scaler
from carle.errors import InputError, ParameterError
from carle.forest import Forest, ForestConfig
from carle.nn.train import TrainReport

# ---------------------------------------------------------------------------
# Brute-force oracle: exhaustive variance-minimisation split search, written
# independently of the production prefix-sum scan.
# ---------------------------------------------------------------------------


def brute_force_split(X, y, min_leaf):
    """Return (sse, feature, threshold) of the best split, or None."""
    best = None
    n, d = X.shape
    for f in range(d):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, f] <= thr
            left, right = y[mask], y[~mask]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            sse = len(left) * np.var(left) + len(right) * np.var(right)
            if best is None or sse < best[0]:
                best = (sse, f, thr)
    return best


def brute_force_tree(X, y, min_leaf, max_depth, depth=0):
    node = {"value": float(np.mean(y)), "feature": -1, "threshold": 0.0}
    if depth >= max_depth or len(y) < 2 * min_leaf or y.max() == y.min():
        return node
    best = brute_force_split(X, y, min_leaf)
    if best is None:
        return node
    _, f, thr = best
    mask = X[:, f] <= thr
    node["feature"] = f
    node["threshold"] = thr
    node["left"] = brute_force_tree(X[mask], y[mask], min_leaf, max_depth, depth + 1)
    node["right"] = brute_force_tree(X[~mask], y[~mask], min_leaf, max_depth, depth + 1)
    return node


def _oracle_sse(X, y, f, thr):
    mask = X[:, f] <= thr
    left, right = y[mask], y[~mask]
    return len(left) * np.var(left) + len(right) * np.var(right)


def assert_tree_optimal(tree, X, y, min_leaf, max_depth, node=0, depth=0):
    """Every internal node achieves the brute-force optimal SSE (exact ties
    between splits inducing the same partition may pick either winner); the
    tree is a leaf exactly when no valid split exists."""
    can_split = depth < max_depth and len(y) >= 2 * min_leaf and y.max() > y.min()
    best = brute_force_split(X, y, min_leaf) if can_split else None
    f = tree.feature[node]
    if f < 0:
        assert best is None
        assert tree.value[node] == pytest.approx(float(np.mean(y)), rel=1e-12)
        return
    assert best is not None
    thr = tree.threshold[node]
    sse = _oracle_sse(X, y, f, thr)
    assert sse == pytest.approx(best[0], rel=1e-9, abs=1e-12)
    mask = X[:, f] <= thr
    assert_tree_optimal(tree, X[mask], y[mask], min_leaf, max_depth, tree.left[node], depth + 1)
    assert_tree_optimal(tree, X[~mask], y[~mask], min_leaf, max_depth, tree.right[node], depth + 1)


def test_split_scan_respects_min_leaf(rng):
    v = np.sort(rng.normal(size=20))
    t = rng.normal(size=20)
    _, _, pos = forest.split_scan(v[None], t[None], 8)
    assert pos[0] < 0 or 8 <= pos[0] <= 12


def test_split_scan_no_split_on_constant_feature(rng):
    v = np.ones(10)
    t = rng.normal(size=10)
    sse, _, pos = forest.split_scan(v[None], t[None], 1)
    assert pos[0] == -1
    assert sse[0] == np.inf


@pytest.mark.parametrize("min_leaf", [1, 2, 3, 6])
def test_split_scan_rows_match_one_row_calls(rng, min_leaf):
    n = 10
    values = np.sort(rng.normal(size=(7, n)), axis=1)
    values[1] = 2.0  # constant: no split
    values[2] = np.round(values[2])  # ties
    values[3, : n - 1] = 0.0  # one boundary, too near the end for min_leaf >= 2
    values[4, 1:] = 1.0  # one boundary, too near the start for min_leaf >= 2
    targets = rng.normal(size=(7, n))
    targets[5] = 0.25  # constant targets
    sse, thr, count = forest.split_scan(values, targets, min_leaf)
    assert sse.shape == thr.shape == count.shape == (7,)
    for row in range(7):
        one = forest.split_scan(values[row][None], targets[row][None], min_leaf)
        assert (sse[row], thr[row], count[row]) == tuple(a[0] for a in one)
    if min_leaf == 6:  # n < 2 * min_leaf: no row may split
        assert (count == -1).all() and (sse == np.inf).all() and (thr == 0.0).all()
    else:
        assert count[1] == -1 and count[0] > 0


def test_adjacent_doubles_split_below_the_upper_value():
    # 0.5 * (a + b) rounds up to b for these neighbours; a threshold of b
    # would send both rows left and the builder would recurse without end
    a = 1.0 + np.finfo(float).eps
    b = np.nextafter(a, 2.0)
    assert 0.5 * (a + b) == b
    _, thr, count = forest.split_scan(np.array([[a, b]]), np.array([[0.0, 1.0]]), 1)
    assert (thr[0], count[0]) == (a, 1)
    cfg = ForestConfig(n_trees=1, min_samples_leaf=1, bootstrap=False)
    model = forest.fit(np.array([[a], [b]]), np.array([0.0, 1.0]), cfg, seed=0)
    assert model.threshold[0] == a
    assert model.predict(np.array([[a], [b]])).tolist() == [0.0, 1.0]


def _pin_data(kind):
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(48, 6))
    y = rng.uniform(0, 1, 48)
    if kind == "tied":
        X = np.round(X, 1)
        X[:, 0] = np.floor(X[:, 0])
        X[:, 1] = 0.5
        y = np.round(y, 1)
    elif kind == "wide":
        X = rng.normal(size=(96, 32))
        y = rng.uniform(0, 1, 96)
    elif kind == "dup":  # every row three times
        X = np.concatenate([X[:16]] * 3)
        y = np.concatenate([y[:16]] * 3)
    return X, y


@pytest.mark.parametrize(
    "kind, options, seed, nodes, digest",
    [
        ("plain", {}, 0, 224, "fdc88648809622ba"),
        ("plain", {}, 1, 216, "45df5436bdabee56"),
        ("plain", {}, 2, 216, "490288d49bc01fdb"),
        ("plain", {}, 3, 222, "77ea7c804c921fe5"),
        ("plain", {"max_features": 6, "min_samples_leaf": 1}, 0, 354, "1ca76e5ea95a04f0"),
        ("plain", {"max_features": 1}, 1, 208, "722aa02ca5b8ed0f"),
        ("plain", {"bootstrap": False, "max_features": 3}, 2, 248, "80d69bb7eae9ae6f"),
        ("plain", {"max_depth": 3}, 3, 78, "6d491462ef194c54"),
        ("tied", {"min_samples_leaf": 1}, 0, 306, "68fe3c13d7223437"),
        ("tied", {"max_features": 6}, 1, 194, "4af6abf3094a8ad5"),
        ("dup", {"min_samples_leaf": 1}, 0, 178, "9d6bbadae4796ca0"),
        ("dup", {"bootstrap": False, "max_features": 6, "min_samples_leaf": 1}, 1, 186, "8720d6356072328e"),
        ("wide", {}, 4, 434, "8cec5c47b018b9e9"),
    ],
)
def test_forest_bytes_pinned(kind, options, seed, nodes, digest):
    """SHA-256 prefixes of the forest arrays, recorded from the per-node
    argsort builder that presorted growth replaced: any change to split
    choice, tie order, rng draws or leaf means shows here."""
    X, y = _pin_data(kind)
    model = forest.fit(X, y, ForestConfig(n_trees=6, **options), seed=seed)
    h = hashlib.sha256()
    for name in Forest.ARRAYS:
        h.update(getattr(model, name).tobytes())
    assert len(model.feature) == nodes
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize(*test_forest_bytes_pinned.pytestmark[0].args)
@pytest.mark.parametrize("cpus", [1, 3])
def test_forest_bytes_pinned_at_any_cpu_count(monkeypatch, cpus, kind, options, seed, nodes, digest):
    """The pins hold whether the trees grow in this process or in forked workers."""
    _use_cpus(monkeypatch, cpus)
    test_forest_bytes_pinned(kind, options, seed, nodes, digest)


# ---------------------------------------------------------------------------
# Growth in forked workers
# ---------------------------------------------------------------------------


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _record_grower_pids(monkeypatch, path):
    """Make every tree append the id of the process that grows it to ``path``;
    forked workers inherit the patch."""
    grow_tree = forest._grow_tree

    def spy(X, y, config, seq):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return grow_tree(X, y, config, seq)

    monkeypatch.setattr(forest, "_grow_tree", spy)
    return lambda: path.read_text().split()


class TestForkedFit:
    @pytest.mark.parametrize("n_trees", [1, 2, 7])
    def test_forked_arrays_equal_in_process_arrays(self, rng, monkeypatch, n_trees):
        X = rng.normal(size=(40, 5))
        y = rng.uniform(0, 1, 40)
        config = ForestConfig(n_trees=n_trees, min_samples_leaf=1)
        _use_cpus(monkeypatch, 3)
        forked = forest.fit(X, y, config, seed=9)
        _use_cpus(monkeypatch, 1)
        here = forest.fit(X, y, config, seed=9)
        for name in Forest.ARRAYS:
            a, b = getattr(forked, name), getattr(here, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert multiprocessing.active_children() == []

    def test_a_slow_worker_grows_fewer_trees(self, rng, monkeypatch, tmp_path):
        caller = os.getpid()
        pids = _record_grower_pids(monkeypatch, tmp_path / "pids")
        grow_tree = forest._grow_tree

        def slow_in_worker(X, y, config, seq):
            if os.getpid() != caller:
                time.sleep(0.05)
            return grow_tree(X, y, config, seq)

        monkeypatch.setattr(forest, "_grow_tree", slow_in_worker)
        _use_cpus(monkeypatch, 2)
        forest.fit(rng.normal(size=(30, 4)), rng.uniform(0, 1, 30), ForestConfig(n_trees=20), seed=1)
        trees_by_pid = Counter(pids())
        here = trees_by_pid.pop(str(caller))
        assert len(trees_by_pid) == 1  # one forked worker
        assert here + sum(trees_by_pid.values()) == 20  # every tree grown once
        assert here > 3 * sum(trees_by_pid.values())  # a fixed half split would give 10 and 10

    def test_grows_in_process_while_another_thread_runs(self, rng, monkeypatch, tmp_path):
        pids = _record_grower_pids(monkeypatch, tmp_path / "pids")
        _use_cpus(monkeypatch, 3)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            forest.fit(rng.normal(size=(30, 4)), rng.uniform(0, 1, 30), ForestConfig(n_trees=4), seed=1)
        finally:
            release.set()
            other.join()
        assert pids() == [str(os.getpid())] * 4

    def test_grows_in_process_without_fork(self, rng, monkeypatch, tmp_path):
        X = rng.normal(size=(30, 4))
        y = rng.uniform(0, 1, 30)
        config = ForestConfig(n_trees=5)
        _use_cpus(monkeypatch, 1)
        reference = forest.fit(X, y, config, seed=2)
        pids = _record_grower_pids(monkeypatch, tmp_path / "pids")
        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        model = forest.fit(X, y, config, seed=2)
        assert pids() == [str(os.getpid())] * 5
        for name in Forest.ARRAYS:
            a, b = getattr(model, name), getattr(reference, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_worker_error_reaches_the_caller(self, rng, monkeypatch):
        caller = os.getpid()
        grow_tree = forest._grow_tree

        def fail_in_worker(X, y, config, seq):
            if os.getpid() != caller:
                raise ParameterError("grown in a worker")
            return grow_tree(X, y, config, seq)

        monkeypatch.setattr(forest, "_grow_tree", fail_in_worker)
        _use_cpus(monkeypatch, 2)
        with pytest.raises(ParameterError, match="grown in a worker"):
            forest.fit(rng.normal(size=(30, 4)), rng.uniform(0, 1, 30), ForestConfig(n_trees=4), seed=1)
        assert multiprocessing.active_children() == []


class TestTreeOracle:
    def test_splits_match_brute_force_suite(self):
        rng = np.random.default_rng(404)
        cfg = ForestConfig(
            n_trees=1, max_features=3, min_samples_leaf=1, max_depth=2, bootstrap=False
        )
        for trial in range(40):
            n = int(rng.integers(3, 9))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            model = forest.fit(X, y, cfg, seed=trial)
            assert_tree_optimal(model.trees[0], X, y, min_leaf=1, max_depth=2)

    def test_root_split_equals_brute_force_on_distinct_columns(self):
        # at the root (8 distinct-valued samples) cross-feature SSE ties are
        # absent, so the chosen (feature, threshold) pair must agree exactly;
        # deeper nodes hold 2-3 samples where tied partitions are routine and
        # only SSE optimality (tested above) is well defined
        rng = np.random.default_rng(77)
        cfg = ForestConfig(
            n_trees=1, max_features=2, min_samples_leaf=1, max_depth=2, bootstrap=False
        )
        for trial in range(20):
            X = rng.uniform(0, 1, size=(8, 2))
            y = rng.uniform(0, 1, 8)
            tree = forest.fit(X, y, cfg, seed=trial).trees[0]
            _, ref_f, ref_thr = brute_force_split(X, y, min_leaf=1)
            assert tree.feature[0] == ref_f
            assert tree.threshold[0] == pytest.approx(ref_thr, rel=1e-12)

    def test_memorises_distinct_data(self, rng):
        X = rng.normal(size=(24, 4))
        y = rng.uniform(0, 1, 24)
        cfg = ForestConfig(
            n_trees=1, max_features=4, min_samples_leaf=1, max_depth=None, bootstrap=False
        )
        model = forest.fit(X, y, cfg, seed=0)
        assert np.allclose(model.predict(X), y, rtol=0, atol=1e-12)

    def test_leaf_values_are_target_means(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        cfg = ForestConfig(n_trees=1, max_depth=1, min_samples_leaf=2, bootstrap=False, max_features=3)
        tree = forest.fit(X, y, cfg, seed=0).trees[0]
        f, thr = tree.feature[0], tree.threshold[0]
        mask = X[:, f] <= thr
        assert tree.value[tree.left[0]] == pytest.approx(y[mask].mean(), rel=1e-12)
        assert tree.value[tree.right[0]] == pytest.approx(y[~mask].mean(), rel=1e-12)

    def test_thresholds_between_sorted_values(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        model = forest.fit(X, y, ForestConfig(n_trees=5, min_samples_leaf=1), seed=3)
        for tree in model.trees:
            for node in range(len(tree.feature)):
                f = tree.feature[node]
                if f < 0:
                    continue
                col = np.sort(np.unique(X[:, f]))
                thr = tree.threshold[node]
                assert col.min() < thr < col.max()
                # strictly between two adjacent distinct values
                below = col[col < thr]
                above = col[col > thr]
                assert len(below) and len(above)


class TestForest:
    def test_constant_targets_predict_constant(self, rng):
        X = rng.normal(size=(10, 3))
        y = np.full(10, 0.42)
        model = forest.fit(X, y, ForestConfig(n_trees=7), seed=1)
        assert np.allclose(model.predict(rng.normal(size=(5, 3))), 0.42, atol=0)

    def test_prediction_is_exact_tree_mean(self, rng):
        X = rng.normal(size=(40, 4))
        y = rng.uniform(0, 1, 40)
        model = forest.fit(X, y, ForestConfig(n_trees=9), seed=5)
        Xq = rng.normal(size=(15, 4))
        per_tree = np.stack([t.predict(Xq) for t in model.trees])
        assert np.array_equal(model.predict(Xq), per_tree.mean(axis=0))

    def test_two_tree_averaging_contract(self):
        # two one-leaf trees holding 0.2 and 0.4
        model = Forest(
            feature=np.array([-1, -1]),
            threshold=np.array([0.0, 0.0]),
            left=np.array([-1, -1]),
            right=np.array([-1, -1]),
            value=np.array([0.2, 0.4]),
            offsets=np.array([0, 1, 2]),
            n_features=3,
            config=ForestConfig(),
        )
        assert model.predict(np.zeros((1, 3)))[0] == (0.2 + 0.4) / 2.0

    def test_one_row_sums_trees_in_order(self, rng):
        def leaf_value(tree, x):
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            return tree.value[node]

        X = rng.normal(size=(50, 4))
        y = rng.uniform(0, 1, 50)
        model = forest.fit(X, y, ForestConfig(n_trees=64, min_samples_leaf=1), seed=6)
        for _ in range(10):
            xq = rng.normal(size=(1, 4))
            acc = 0.0
            for tree in model.trees:
                acc += leaf_value(tree, xq[0])
            assert model.predict(xq)[0] == acc / 64

    @staticmethod
    def scalar_predict(model, X):
        """Every row walked down every tree a node at a time, its leaf values
        summed in tree order, then averaged and clamped as predict does."""
        out = np.zeros(len(X))
        for i, x in enumerate(X):
            for tree in model.trees:
                node = 0
                while tree.feature[node] >= 0:
                    go_left = x[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                out[i] += tree.value[node]
        out /= len(model.offsets) - 1
        return np.clip(out, 0.0, 1.0) if model.config.clamp_unit else out

    @staticmethod
    def deepest_leaf(tree):
        """The depth of a one-tree forest's deepest leaf; children follow their parent."""
        depth = np.zeros(len(tree.feature), dtype=int)
        for node in np.flatnonzero(tree.feature >= 0):
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
        return depth.max()

    @pytest.fixture(scope="class")
    def deep_forest(self):
        """Eight trees grown to single-sample leaves on random 480 x 32 data,
        and that data: its 480 rows reach every leaf."""
        rng = np.random.default_rng(19)
        X, y = rng.normal(size=(480, 32)), rng.uniform(0, 1, 480)
        return forest.fit(X, y, ForestConfig(n_trees=8, min_samples_leaf=1), seed=4), X

    @pytest.mark.parametrize("rows", [1, 8, 480])
    def test_deep_trees_predict_as_the_scalar_walk(self, deep_forest, rows):
        model, X = deep_forest
        assert max(self.deepest_leaf(tree) for tree in model.trees) > 20
        assert np.array_equal(model.predict(X[:rows]), self.scalar_predict(model, X[:rows]))

    @pytest.mark.parametrize("rows", [1, 8, 480])
    def test_trees_of_unequal_depth_predict_as_the_scalar_walk(self, deep_forest, rows):
        deep, X = deep_forest
        stump = Forest(
            np.array([-1]), np.zeros(1), np.array([-1]), np.array([-1]), np.array([0.3]),
            np.array([0, 1]), 32,
        )
        parts = [stump, *deep.trees[:3], stump, *deep.trees[3:]]
        model = Forest(
            *(np.concatenate([getattr(t, name) for t in parts]) for name in Forest.ARRAYS[:-1]),
            np.cumsum([0] + [len(t.feature) for t in parts]), 32,
        ).validate()
        depths = [self.deepest_leaf(tree) for tree in model.trees]
        assert depths[0] == depths[4] == 0 and max(depths) > 20
        assert np.array_equal(model.predict(X[:rows]), self.scalar_predict(model, X[:rows]))

    def test_row_blocks_predict_alike(self, rng, monkeypatch):
        X = rng.normal(size=(30, 3))
        model = forest.fit(X, rng.uniform(0, 1, 30), ForestConfig(n_trees=5), seed=1)
        Xq = rng.normal(size=(23, 3))
        whole = model.predict(Xq)
        monkeypatch.setattr(forest, "_PREDICT_BLOCK", 12)  # two rows a block
        assert np.array_equal(model.predict(Xq), whole)

    def test_non_finite_input_rejected(self, rng):
        X = rng.normal(size=(20, 3))
        model = forest.fit(X, rng.uniform(0, 1, 20), ForestConfig(n_trees=3), seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            Xq = rng.normal(size=(4, 3))
            Xq[2, 1] = bad
            with pytest.raises(InputError):
                model.predict(Xq)

    @staticmethod
    def save_with_forest(path, model):
        """Save ``model`` as the forest of an untrained network whose logit
        rows are 2 wide (the gradcheck profile)."""
        config = pipeline.ExperimentConfig().with_overrides({"model.profile": "gradcheck"})
        config = dataclasses.replace(config, forest=model.config)
        net, _ = pipeline.build_model(config, "carle", 3)
        scaler = Scaler(np.zeros(3), np.ones(3))
        trained = pipeline.TrainedModel(net, model, scaler, TrainReport(), "carle")
        pipeline.save_model(path, trained, config)

    def test_checkpoint_round_trip_shares_arrays(self, rng, tmp_path):
        X = rng.normal(size=(40, 2))
        y = rng.uniform(0, 1, 40)
        model = forest.fit(X, y, ForestConfig(n_trees=12, clamp_unit=True), seed=8)
        self.save_with_forest(tmp_path / "ckpt.npz", model)
        loaded = pipeline.load_model(tmp_path / "ckpt.npz").forest
        dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64)
        for name, dtype in zip(Forest.ARRAYS, dtypes):
            back = getattr(loaded, name)
            assert back.dtype == dtype and np.array_equal(back, getattr(model, name))
        assert loaded.config == model.config and loaded.n_features == 2
        assert len(loaded.trees) == 12
        for tree in loaded.trees:
            assert np.shares_memory(tree.feature, loaded.feature)
            assert np.shares_memory(tree.value, loaded.value)
        Xq = rng.normal(size=(9, 2))
        assert np.array_equal(loaded.predict(Xq), model.predict(Xq))

    @staticmethod
    def two_trees():
        """Two trees of a root and two leaves each, in checkpoint layout."""
        return Forest(
            np.array([0, -1, -1, 1, -1, -1]), np.zeros(6), np.array([1, -1, -1, 1, -1, -1]),
            np.array([2, -1, -1, 2, -1, -1]), np.linspace(0, 1, 6), np.array([0, 3, 6]), 2,
        )

    @pytest.mark.parametrize(
        "name, index, bad",
        [
            ("left", 0, 0),  # a node that is its own child: a cycle
            ("right", 0, 3),  # past the end of the first tree
            ("feature", 0, 2),  # no such feature
            ("offsets", 1, 7),  # not rising
            ("offsets", 2, 4),  # not ending at the node count
        ],
    )
    def test_checkpoint_with_bad_layout_rejected(self, tmp_path, name, index, bad):
        model = self.two_trees()
        assert model.validate() is model
        getattr(model, name)[index] = bad
        self.save_with_forest(tmp_path / "ckpt.npz", model)
        with pytest.raises(InputError, match="forest"):
            pipeline.load_model(tmp_path / "ckpt.npz")

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("value", np.zeros(5)),  # ragged node arrays
            ("offsets", np.array([0, 7, 6], dtype=np.uint64)),  # falls, but wraps in np.diff
            ("left", np.array([1.0, -1, -1, 1, -1, -1])),  # float child indices
        ],
    )
    def test_checkpoint_with_bad_array_rejected(self, tmp_path, name, bad):
        model = self.two_trees()
        setattr(model, name, bad)
        self.save_with_forest(tmp_path / "ckpt.npz", model)
        with pytest.raises(InputError, match="forest"):
            pipeline.load_model(tmp_path / "ckpt.npz")

    def test_predict_on_a_cyclic_forest_ends(self):
        model = self.two_trees()
        model.left[0] = 0  # the root is its own left child, which validate() refuses
        child = multiprocessing.get_context("fork").Process(
            target=model.predict, args=(np.array([[-1.0, 1.0], [1.0, -1.0]]),)
        )
        child.start()
        child.join(timeout=10)
        running = child.is_alive()
        child.kill()
        child.join()
        assert not running, "predict on a cyclic forest still ran after 10 s"

    def test_row_permutation_equivariance(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.uniform(0, 1, 30)
        model = forest.fit(X, y, ForestConfig(n_trees=5), seed=2)
        Xq = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        assert np.array_equal(model.predict(Xq)[perm], model.predict(Xq[perm]))

    def test_predictions_within_target_range_unclamped(self, rng):
        X = rng.normal(size=(60, 5))
        y = rng.uniform(-3, 7, 60)
        model = forest.fit(X, y, ForestConfig(n_trees=20, clamp_unit=False), seed=9)
        pred = model.predict(rng.normal(size=(40, 5)))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_clamped_to_unit_interval(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.uniform(-0.5, 1.5, 30)
        model = forest.fit(X, y, ForestConfig(n_trees=10, clamp_unit=True), seed=4)
        pred = model.predict(rng.normal(size=(50, 2)))
        assert pred.min() >= 0.0 and pred.max() <= 1.0

    def test_seed_determinism(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.uniform(0, 1, 25)
        a = forest.fit(X, y, ForestConfig(n_trees=6), seed=42)
        b = forest.fit(X, y, ForestConfig(n_trees=6), seed=42)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.value, tb.value)
        c = forest.fit(X, y, ForestConfig(n_trees=6), seed=43)
        assert any(
            not np.array_equal(ta.value, tc.value) for ta, tc in zip(a.trees, c.trees)
        )

    def test_unset_tree_count_rejected(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(ParameterError, match="n_trees"):
            forest.fit(X, rng.normal(size=10), ForestConfig(), seed=0)

    def test_errors(self, rng):
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = forest.fit(X, y, ForestConfig(n_trees=2), seed=0)
        with pytest.raises(InputError):
            model.predict(rng.normal(size=(4, 5)))
        with pytest.raises(InputError):
            forest.fit(X[:1], y[:1], ForestConfig(n_trees=2), seed=0)
        with pytest.raises(InputError):
            forest.fit(X, y[:5], ForestConfig(n_trees=2), seed=0)
        for key, bad in (("max_features", 0), ("max_depth", -1), ("max_depth", 0)):
            with pytest.raises(ParameterError, match=f"forest.{key}"):
                forest.fit(X, y, ForestConfig(n_trees=2, **{key: bad}), seed=0)

    @pytest.mark.parametrize("where", ["logits", "targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_data_rejected(self, rng, where, bad):
        X = rng.normal(size=(20, 3))
        y = rng.uniform(0, 1, 20)
        if where == "logits":
            X[7, 2] = bad
        else:
            y[7] = bad
        with pytest.raises(InputError, match="non-finite"):
            forest.fit(X, y, ForestConfig(n_trees=3), seed=0)
