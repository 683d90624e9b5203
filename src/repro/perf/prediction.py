"""Performance prediction for unknown workloads (paper Section 4.2).

"Performance prediction for unknown jobs using the models from known
applications can enlarge the range of the analysis.  The previous
workload executions can feed a prediction model, such as using decision
tree [14, 37] or statistical clustering [8, 22, 28].  Because of the
cloud's high variability, our model does not need to be optimal;
high-quality decisions will be accurate enough."

This module implements both cited approaches from scratch:

* :class:`RegressionTree` -- a small CART regressor (variance-reducing
  binary splits on numeric features);
* :class:`KNNRegressor` -- inverse-distance-weighted k-nearest
  neighbours over standardised features (the "statistical clustering"
  flavour);

and :class:`ProfilePredictor`, which trains one regressor per profile
quantity on the known (model, batch-class) profiles and synthesises a
:class:`~repro.workload.profiles.JobProfile` for *any* batch size --
including ones between the calibrated classes (e.g. batch 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.workload.job import Job, ModelType, batch_class_of
from repro.workload.jobgraph import comm_weight
from repro.workload.profiles import JobProfile, ProfileDatabase, default_database


# ---------------------------------------------------------------------------
# CART regression tree
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    value: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """Binary CART regressor minimising within-leaf variance.

    Deterministic: splits scan features in order and thresholds at
    midpoints between sorted unique values.
    """

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 1) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self._root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y (n,) of equal length")
        if len(y) == 0:
            raise ValueError("cannot fit on empty data")
        self._root = self._build(X, y, depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(np.mean(y)))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        if float(np.var(y)) < 1e-18:
            return node
        best = self._best_split(X, y)
        if best is None:
            return node
        feature, threshold, mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        n, d = X.shape
        base = float(np.var(y)) * n
        best_gain = 1e-15
        best: tuple[int, float, np.ndarray] | None = None
        for j in range(d):
            values = np.unique(X[:, j])
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                mask = X[:, j] <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_samples_leaf or n - n_left < self.min_samples_leaf:
                    continue
                cost = float(np.var(y[mask])) * n_left + float(
                    np.var(y[~mask])
                ) * (n - n_left)
                gain = base - cost
                if gain > best_gain:
                    best_gain = gain
                    best = (j, threshold, mask)
        return best

    def predict_one(self, x: Sequence[float]) -> float:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(row) for row in np.asarray(X, dtype=float)])

    def depth(self) -> int:
        def _d(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_d(node.left), _d(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return _d(self._root)


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------

class KNNRegressor:
    """Inverse-distance-weighted k-NN over standardised features."""

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("X must be (n, d) and y (n,), non-empty")
        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std == 0] = 1.0
        self._X = (X - self._mean) / self._std
        self._y = y
        return self

    def predict_one(self, x: Sequence[float]) -> float:
        if self._X is None:
            raise RuntimeError("regressor is not fitted")
        z = (np.asarray(x, dtype=float) - self._mean) / self._std
        dists = np.sqrt(((self._X - z) ** 2).sum(axis=1))
        order = np.argsort(dists, kind="stable")[: min(self.k, len(dists))]
        nearest = dists[order]
        if nearest[0] < 1e-12:
            return float(self._y[order[0]])
        weights = 1.0 / nearest
        return float(np.average(self._y[order], weights=weights))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(row) for row in np.asarray(X, dtype=float)])


# ---------------------------------------------------------------------------
# profile prediction
# ---------------------------------------------------------------------------

#: quantities the predictor learns per profile
_TARGETS = (
    "solo_iter_pack_s",
    "solo_iter_spread_s",
    "comm_fraction",
    "avg_demand_gbs",
    "sensitivity",
    "pressure",
)


def _features(model: ModelType, batch_size: int) -> list[float]:
    """Numeric features describing a workload.

    Model identity enters through its calibrated compute/communication
    constants so the regressors generalise across models instead of
    memorising labels.
    """
    from repro.perf.calibration import DEFAULT_CALIBRATION

    mc = DEFAULT_CALIBRATION.model(model)
    return [
        math.log2(batch_size),
        mc.comm_volume_gb,
        mc.compute_per_sample_s,
        mc.compute_base_s,
    ]


class ProfilePredictor:
    """Predicts :class:`JobProfile` quantities for unseen batch sizes.

    Trained on the profile database (12 known (model, class) points by
    default); ``backend`` selects the paper's decision-tree or
    clustering approach.
    """

    def __init__(
        self,
        database: ProfileDatabase | None = None,
        backend: str = "tree",
    ) -> None:
        database = database or default_database()
        if backend == "tree":
            make: Callable = lambda: RegressionTree(max_depth=4)
        elif backend == "knn":
            make = lambda: KNNRegressor(k=3)
        else:
            raise ValueError(f"unknown backend {backend!r} (tree|knn)")
        self.backend = backend
        rows = []
        targets: dict[str, list[float]] = {t: [] for t in _TARGETS}
        for profile in database:
            rows.append(
                _features(profile.model, profile.batch_class.representative_batch)
            )
            for t in _TARGETS:
                targets[t].append(getattr(profile, t))
        X = np.array(rows)
        self._models = {
            t: make().fit(X, np.array(v)) for t, v in targets.items()
        }

    def predict(self, model: ModelType, batch_size: int) -> JobProfile:
        """Synthesise a profile for any batch size >= 1."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        x = _features(model, batch_size)
        values = {t: float(self._models[t].predict_one(x)) for t in _TARGETS}
        batch_class = batch_class_of(batch_size)
        return JobProfile(
            model=model,
            batch_class=batch_class,
            comm_weight=comm_weight(batch_class),
            solo_iter_pack_s=max(1e-6, values["solo_iter_pack_s"]),
            solo_iter_spread_s=max(
                values["solo_iter_pack_s"], values["solo_iter_spread_s"]
            ),
            comm_fraction=min(1.0, max(0.0, values["comm_fraction"])),
            avg_demand_gbs=max(0.0, values["avg_demand_gbs"]),
            sensitivity=min(1.0, max(0.0, values["sensitivity"])),
            pressure=min(1.0, max(0.0, values["pressure"])),
        )

    def predict_for_job(self, job: Job) -> JobProfile:
        return self.predict(job.model, job.batch_size)


class PredictiveProfileDatabase(ProfileDatabase):
    """A profile database that predicts per-batch-size profiles.

    The stock :class:`ProfileDatabase` quantises every job to its batch
    *class* representative (1/4/32/128); this variant serves the class
    profile when the batch size matches the representative and a
    predicted profile otherwise, giving the scheduler's bandwidth and
    interference estimates finer resolution for in-between batch sizes
    (paper Section 4.2: prediction "can enlarge the range of the
    analysis").
    """

    def __init__(
        self,
        base: ProfileDatabase | None = None,
        backend: str = "tree",
    ) -> None:
        base = base or default_database()
        super().__init__({(p.model, p.batch_class): p for p in base})
        self._predictor = ProfilePredictor(base, backend=backend)
        self._cache: dict[tuple[ModelType, int], JobProfile] = {}

    def for_job(self, job: Job) -> JobProfile:
        batch_class = batch_class_of(job.batch_size)
        if job.batch_size == batch_class.representative_batch:
            return self.get(job.model, batch_class)
        key = (job.model, job.batch_size)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._predictor.predict(job.model, job.batch_size)
            self._cache[key] = cached
        return cached
