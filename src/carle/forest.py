"""Random forest regression over logit vectors, built on CART trees.

Trees grow greedily on variance-reduction splits; each tree sees a
bootstrap resample and each split considers a random feature subset. The
forest prediction is the exact arithmetic mean of the tree predictions.
"""

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import parallel, schema
from .errors import InputError, ParameterError


@dataclass
class ForestConfig:
    n_trees: int | None = None  # None -> the model profile's count, set before fit
    max_features: int | None = None  # None -> floor(sqrt(n_features))
    min_samples_leaf: int = 2
    max_depth: int | None = None
    bootstrap: bool = True

    BOUNDS = ((">= 1", lambda v: v >= 1, ("n_trees", "max_features", "min_samples_leaf", "max_depth")),)


def split_scan(values, targets, min_leaf):
    """Best variance-reduction split of each row of ``values`` (k, n), every
    row sorted ascending, with ``targets`` (k, n) aligned: per row the
    (sse, threshold, left_count) minimising SSE_left + SSE_right, or
    (inf, 0.0, -1) when the row allows no split, as three (k,) arrays.

    Candidate thresholds are midpoints between distinct adjacent values a < b,
    or a itself where the midpoint rounds to b; the lowest-threshold minimum
    of a row wins.
    """
    k, n = targets.shape
    # candidate c puts c + 1 samples left; only c in [lo, hi) leaves at
    # least min_leaf on each side
    lo, hi = min_leaf - 1, n - min_leaf
    if lo >= hi:
        sse, threshold, left_count = np.full(k, math.inf), np.zeros(k), np.full(k, -1)
    else:
        # cumsum adds in order along each row, as a 1-D cumsum of that row does
        c1 = targets.cumsum(axis=1)
        c2 = (targets * targets).cumsum(axis=1)
        s1 = c1[:, lo:hi]
        s2 = c2[:, lo:hi]
        r1 = c1[:, -1:] - s1
        i = np.arange(lo + 1, hi + 1)  # left-side count at each candidate
        with np.errstate(invalid="ignore", divide="ignore"):
            cand = (s2 - s1 * s1 / i) + ((c2[:, -1:] - s2) - r1 * r1 / (n - i))
        valid = values[:, lo:hi] < values[:, lo + 1:hi + 1]
        cand = np.where(valid, cand, math.inf)
        j = cand.argmin(axis=1)  # first minimum = lowest threshold wins
        rows = np.arange(k)
        sse = cand[rows, j]  # inf where the row has no valid split
        found = valid.any(axis=1)
        at = lo + j
        a, b = values[rows, at], values[rows, at + 1]
        # the midpoint of neighbouring doubles can round up to b, and a
        # threshold of b would send the whole node left; a splits alike
        mid = 0.5 * (a + b)
        threshold = np.where(found, np.where(mid < b, mid, a), 0.0)
        left_count = np.where(found, at + 1, -1)
    return sse, threshold, left_count


# dtypes of feature, threshold, left, right and value
_NODE_DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64)


def _grow_tree(X, y, config: ForestConfig, seq) -> list:
    """One tree grown from seed sequence ``seq``: its node arrays, in the
    order of ``Forest.ARRAYS`` without offsets, holding its nodes in preorder
    with child indices counting from its root.

    The tree sorts every feature of its bootstrap sample once (SPRINT's
    attribute lists, Shafer, Agrawal & Mehta, 1996). A node holds its
    bootstrap positions in bootstrap order and a (d, n_node) array whose row
    f lists those positions by ascending feature f. A split filters the rows
    with a stable mask, which keeps them sorted, so no node sorts again."""
    rng = np.random.default_rng(seq)
    n, d = X.shape
    idx = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
    # the bootstrap sample, one contiguous row per feature
    xb = np.ascontiguousarray(X[idx].T)
    yb = y[idx]
    n_feats = min(config.max_features or max(1, math.isqrt(d)), d)
    min_leaf = config.min_samples_leaf
    nodes = []

    def grow(pos, order, depth) -> int:
        node = len(nodes)
        yp = yb[pos]
        nodes.append([-1, 0.0, -1, -1, float(yp.sum() / len(yp))])  # bit-equal to yp.mean(), faster
        if len(pos) < 2 * min_leaf or yp.max() == yp.min():
            return node
        if config.max_depth is not None and depth >= config.max_depth:
            return node
        if n_feats < d:
            feats = rng.choice(d, size=n_feats, replace=False)
            rows = order[feats]
        else:
            feats = np.arange(d)
            rows = order
        sse, thr, _ = split_scan(xb[feats[:, None], rows], yb[rows], min_leaf)
        # strict <, as a loop in draw order: the first feature wins a tie,
        # and an inf or NaN sum never wins
        r = int(np.argmin(np.where(sse < math.inf, sse, math.inf)))
        if not sse[r] < math.inf:
            return node

        f = int(feats[r])
        go_left = xb[f] <= thr[r]  # by bootstrap position
        pos_left = go_left[pos]
        order_left = go_left[order]
        n_left = int(pos_left.sum())
        nodes[node][:2] = f, thr[r]
        nodes[node][2] = grow(pos[pos_left], order[order_left].reshape(d, n_left), depth + 1)
        nodes[node][3] = grow(pos[~pos_left], order[~order_left].reshape(d, len(pos) - n_left), depth + 1)
        return node

    # a stable sort breaks ties by bootstrap position, as a stable sort of
    # any node's subsequence does
    grow(np.arange(n), np.argsort(xb, axis=1, kind="stable"), 0)
    del grow  # the recursive closure is a reference cycle: free the tree's arrays now
    return [np.asarray(column, dtype) for column, dtype in zip(zip(*nodes), _NODE_DTYPES)]


# (tree, row) pairs walked at once by Forest.predict; larger inputs go in row blocks
_PREDICT_BLOCK = 1 << 20


@dataclass
class Forest:
    """All trees in one set of flat node arrays, the layout checkpoints store.

    Tree t owns nodes offsets[t]:offsets[t+1]; its left/right child indices
    count from offsets[t]. feature < 0 marks a leaf holding the target mean.
    """

    # the node arrays, then offsets: each is one checkpoint member
    ARRAYS: ClassVar[tuple] = ("feature", "threshold", "left", "right", "value", "offsets")

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    offsets: np.ndarray
    n_features: int

    @property
    def trees(self) -> tuple:
        """One-tree forests over slices of these arrays (views, not copies)."""
        return tuple(
            Forest(
                *(getattr(self, name)[lo:hi] for name in self.ARRAYS[:-1]),
                np.array([0, hi - lo]),
                self.n_features,
            )
            for lo, hi in zip(self.offsets[:-1], self.offsets[1:])
        )

    def validate(self) -> "Forest":
        """Check arrays read from outside; raise InputError unless every inner
        node splits on a known feature at a finite threshold and both its
        children lie further on in its own tree, so that predict reaches a
        leaf in every tree, and every node value is finite."""
        arrays = [getattr(self, name) for name in self.ARRAYS]
        if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays[:-1]}) != 1:
            raise InputError("forest node arrays are not 1-D arrays of equal length")
        n = len(self.feature)
        # signed, so that offsets and child indices cannot wrap
        if any(a.dtype.kind != "i" for a in (self.feature, self.left, self.right, self.offsets)):
            raise InputError("forest feature, child and offset arrays must hold signed integers")
        if any(a.dtype.kind not in "iuf" for a in (self.threshold, self.value)):
            raise InputError("forest thresholds and values must be numbers")
        sizes = np.diff(self.offsets)
        if len(self.offsets) < 2 or self.offsets[0] != 0 or self.offsets[-1] != n or (sizes <= 0).any():
            raise InputError("forest offsets do not rise from 0 to the node count")
        inner = self.feature >= 0
        if not isinstance(self.n_features, int) or (self.feature[inner] >= self.n_features).any():
            raise InputError(f"forest splits on a feature outside [0, {self.n_features})")
        if not (np.isfinite(self.threshold[inner]).all() and np.isfinite(self.value).all()):
            raise InputError("forest has a non-finite split threshold or node value")
        tree = np.repeat(np.arange(len(sizes)), sizes)[inner]
        local = np.arange(n)[inner] - self.offsets[tree]
        for child in (self.left[inner], self.right[inner]):
            if ((child <= local) | (child >= sizes[tree])).any():
                raise InputError("forest child index does not point forward inside its tree")
        return self

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise InputError(
                f"feature width mismatch: forest trained on {self.n_features}, got {X.shape[1]}"
            )
        if not np.isfinite(X).all():
            raise InputError("non-finite forest input: NaN or inf in the logit rows")
        n_trees = len(self.offsets) - 1
        step = max(1, _PREDICT_BLOCK // n_trees)
        out = np.empty(len(X))
        for lo in range(0, len(X), step):
            out[lo:lo + step] = self._tree_sum(X[lo:lo + step])
        out /= n_trees
        return out

    @functools.cached_property
    def _tables(self) -> tuple:
        """(child, feat, thr, depth): node i's absolute children child[2i] and child[2i+1],
        its feature and threshold, and the deepest leaf's depth. A leaf is its own child,
        with feature 0 and threshold +inf. A tree of s nodes is under s deep: no cycle hangs."""
        leaf, sizes = self.feature < 0, np.diff(self.offsets)
        base = np.repeat(self.offsets[:-1], sizes)
        child = np.where(leaf, np.arange(len(leaf)), base + np.stack([self.left, self.right])).T.ravel()
        level, depth = self.offsets[:-1], 0
        while depth < sizes.max() and (level := level[~leaf[level]]).size:
            level, depth = np.flatnonzero(np.bincount(child.reshape(-1, 2)[level].ravel())), depth + 1
        return child, np.where(leaf, 0, self.feature), np.where(leaf, np.inf, self.threshold), depth

    def _tree_sum(self, X) -> np.ndarray:
        """Each row's leaf values summed in tree order. Pair p = (tree p // n,
        row p % n) takes the forest's depth in steps, going right where X > threshold."""
        child, feat, thr, depth = self._tables
        x, n = X.ravel(), len(X)
        node = np.repeat(self.offsets[:-1], n)
        at = np.tile(np.arange(n) * self.n_features, len(self.offsets) - 1)
        for _ in range(depth):
            node = child[2 * node + (x[at + feat[node]] > thr[node])]
        # cumsum adds strictly in order; sum() may pair terms and round differently
        return np.cumsum(self.value[node].reshape(-1, n), axis=0)[-1]


def fit(logits, targets, config: ForestConfig, seed: int = 0) -> Forest:
    """Train a forest on (logit matrix, target sequence), deterministically per seed.

    The trees grow through ``parallel.in_order``, in forked workers. A tree
    draws only from its own seed sequence, and one join assembles the trees'
    nodes in tree order, so the arrays are byte-identical whichever process
    grows a tree."""
    X = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64).ravel()
    if len(X) != len(y):
        raise InputError(f"row mismatch: {len(X)} logit rows vs {len(y)} targets")
    if len(y) < 2:
        raise InputError(f"need at least 2 samples to fit a forest, got {len(y)}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InputError("non-finite forest training data: NaN or inf in the logits or targets")
    if config.n_trees is None:
        raise ParameterError("forest.n_trees is unset; the pipeline sets it from the model profile")
    schema.check(config, "forest.")

    seqs = np.random.SeedSequence(seed).spawn(config.n_trees)
    trees = parallel.in_order(lambda seq: _grow_tree(X, y, config, seq), seqs, "fork")
    return Forest(
        *(np.concatenate(arrays) for arrays in zip(*trees)),
        np.cumsum([0] + [len(tree[0]) for tree in trees], dtype=np.int64),
        X.shape[1],
    )
