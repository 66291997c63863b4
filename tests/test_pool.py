from __future__ import annotations

import numpy as np
import pytest

from kalls.pool import BudgetExhausted, LabelOracle, Pool, k_nearest, neighbor_order
from kalls.seeding import substream


def brute_force_order(points: np.ndarray, center: np.ndarray,
                      exclude: int | None = None) -> list[int]:
    """Independent full-sort oracle: squared distance ascending, index ties ascending."""
    keyed = []
    for j, p in enumerate(points):
        if j == exclude:
            continue
        d2 = 0.0
        for a, b in zip(p, center):
            d2 += (a - b) ** 2
        keyed.append((d2, j))
    keyed.sort()
    return [j for _, j in keyed]


class TestKNearest:
    def test_hand_geometry(self):
        pool = Pool(np.array([[0.0], [0.5], [0.9]]))
        nl = k_nearest(pool, 2, 2)
        assert [j for j, _ in nl.neighbors] == [1, 0]
        assert nl.neighbors[0][1] == pytest.approx(0.4, rel=1e-12)
        assert nl.neighbors[1][1] == pytest.approx(0.9, rel=1e-12)

    def test_equidistant_tie_prefers_lower_index(self):
        pool = Pool(np.array([[0.0], [1.0], [2.0]]))
        nl = k_nearest(pool, 1, 1)
        assert nl.neighbors == [(0, 1.0)]

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_brute_force_with_ties(self, k):
        # Integer coordinates make squared distances exact, so planted ties are
        # real ties under any summation order.
        rng = substream(7, "points")
        pts = rng.integers(0, 12, size=(200, 3)).astype(np.float64)
        pool = Pool(pts)
        for center in (0, 57, 199):
            want = brute_force_order(pts, pts[center], exclude=center)[:k]
            got = [j for j, _ in k_nearest(pool, center, k).neighbors]
            assert got == want

    def test_prefix_property(self):
        rng = substream(8, "points")
        pool = Pool(rng.random((120, 2)))
        for k in (1, 3, 10, 100):
            a = k_nearest(pool, 11, k).neighbors
            b = k_nearest(pool, 11, k + 1).neighbors
            assert a == b[:k]

    def test_k_out_of_range(self):
        pool = Pool(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            k_nearest(pool, 0, 2)
        with pytest.raises(ValueError):
            k_nearest(pool, 0, 0)

    def test_determinism(self):
        rng = substream(9, "points")
        pts = rng.random((300, 4))
        a = [k_nearest(Pool(pts), 5, 20).neighbors for _ in range(2)]
        assert a[0] == a[1]


class TestPoolCsv:
    def test_round_trip(self, tmp_path):
        rng = substream(11, "points")
        pool = Pool(rng.random((40, 3)))
        path = str(tmp_path / "pool.csv")
        pool.to_csv(path)
        again = Pool.from_csv(path)
        assert np.array_equal(pool.points, again.points)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pool(np.array([[0.0], [np.nan]]))


class TestLabelOracle:
    def _pool(self, w=100, seed=12):
        return Pool(substream(seed, "pool").random((w, 1)))

    def test_noiseless_always_one(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.ones(X.shape[0]), 100, seed=1)
        assert all(oracle.request_label(i) == 1 for i in range(50))

    def test_cache_coherence(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5), 100, seed=2)
        first = oracle.request_label(7)
        assert oracle.fresh_requests == 1
        for _ in range(5):
            assert oracle.request_label(7) == first
        assert oracle.fresh_requests == 1

    def test_empirical_mean(self):
        w = 100_000
        pool = Pool(substream(13, "pool").random((w, 1)))
        oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.7), w, seed=3)
        labels = oracle.request_batch(np.arange(w))
        # 3 sigma binomial bound: sqrt(0.21 / 1e5) ~ 0.00145
        assert abs(labels.mean() - 0.7) < 0.005

    def test_strict_mode_charges_repeats(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.ones(X.shape[0]), 3, seed=4,
                             mode="strict_paper")
        oracle.request_label(0)
        oracle.request_label(0)
        oracle.request_label(0)
        assert oracle.remaining_budget == 0
        with pytest.raises(BudgetExhausted):
            oracle.request_label(0)

    def test_cached_mode_charges_fresh_only(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.ones(X.shape[0]), 2, seed=5,
                             mode="cached_labels")
        for _ in range(10):
            oracle.request_label(0)
        assert oracle.remaining_budget == 1
        oracle.request_label(1)
        assert oracle.remaining_budget == 0
        with pytest.raises(BudgetExhausted):
            oracle.request_label(2)

    def test_label_consistency_across_modes(self):
        pool = self._pool()
        for mode in ("strict_paper", "cached_labels"):
            oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5),
                                 1000, seed=6, mode=mode)
            seen = {oracle.request_label(3) for _ in range(20)}
            assert len(seen) == 1

    def test_determinism_same_seed(self):
        pool = self._pool()
        a = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.4), 100, seed=77)
        b = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.4), 100, seed=77)
        idx = np.arange(50)
        assert np.array_equal(a.request_batch(idx), b.request_batch(idx))

    def test_eta_validation(self):
        pool = self._pool()
        with pytest.raises(ValueError):
            LabelOracle(pool, lambda X: np.full(X.shape[0], 1.5), 10, seed=1)

    def test_neighbor_order_excludes_center(self):
        pool = self._pool(w=30)
        order = neighbor_order(pool, 4)
        assert order.shape == (29,)
        assert 4 not in order
