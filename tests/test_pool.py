from __future__ import annotations

import numpy as np
import pytest

import kalls.pool
from kalls.pool import (BudgetExhausted, LabelOracle, Pool, center_order, k_nearest,
                        knn_vote, nearest_mask, nearest_order, neighbor_order, sq_dists)
from kalls.seeding import substream
from kalls.synth import make_problem


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


def bisection_windows(x: np.ndarray, q: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``pool._nearest_windows``: each window start by bisection
    over [pos - k, pos], pos the query's insertion point, moving on from start
    j while the point past its end has the smaller rounded distance; with the
    same certificate.  Returns the starts and the certificates."""
    n = x.shape[0]
    xs = np.sort(x)

    def d2(i):
        diff = q - xs[i]
        diff *= diff
        return diff

    pos = np.searchsorted(xs, q)
    lo = np.clip(pos - k, 0, n - k)
    hi = np.clip(pos, 0, n - k)
    for _ in range(int(k).bit_length()):
        mid = (lo + hi) >> 1
        later = d2(mid) > d2(np.minimum(mid + k, n - 1))
        lo = np.where(later & (mid < hi), mid + 1, lo)
        hi = np.where(later, hi, mid)
    r = np.maximum(d2(lo), d2(lo + k - 1))
    certified = ((lo == 0) | (d2(np.maximum(lo - 1, 0)) > r)) \
        & ((lo + k == n) | (d2(np.minimum(lo + k, n - 1)) > r))
    return lo, certified


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


class TestNearestOrder:
    """``nearest_order`` repairs the ties of an unstable argsort; its order and
    ``neighbor_order``'s must be the lexicographic (distance, index) order on
    every finite input, ties and distances that overflow to inf included.
    ``center_order``'s distances, with the centre's 0.0 in front, must be the
    sorted ``sq_dists`` row bit for bit, as ``reliable`` counts balls on them."""

    @staticmethod
    def check(points, queries):
        points = np.asarray(points, dtype=np.float64)
        points = points[:, None] if points.ndim == 1 else points
        n = points.shape[0]
        for query in np.atleast_2d(np.asarray(queries, dtype=np.float64)):
            order, d2 = nearest_order(points, query)
            assert np.array_equal(d2, sq_dists(points, query)[0])
            assert np.array_equal(order, np.lexsort((np.arange(n), d2)))

    @staticmethod
    def check_pool(pool, centers):
        for c in centers:
            d2 = sq_dists(pool.points, pool.points[c])[0]
            want = np.lexsort((np.arange(pool.w), d2))
            want = want[want != c]
            assert np.array_equal(neighbor_order(pool, c), want)
            order, dist = center_order(pool, c)
            assert np.array_equal(order, want)
            assert np.concatenate(([0.0], dist)).tobytes() == np.sort(d2).tobytes()
            if pool.w > 1:
                got = k_nearest(pool, c, pool.w - 1).neighbors
                assert got == [(int(j), float(np.sqrt(d2[j]))) for j in want]

    @pytest.mark.parametrize("d", [1, 3])
    def test_continuous(self, d):
        rng = substream(26, "points", d)
        pts = rng.random((500, d))
        self.check(pts, np.vstack([pts[:20], rng.random((20, d)) * 3 - 1]))
        self.check_pool(Pool(pts), (0, 17, 499))

    @pytest.mark.parametrize("values", [1, 3, 8])
    @pytest.mark.parametrize("d", [1, 3])
    def test_integer_lattice(self, values, d):
        # exact squared distances: many real ties in every row
        rng = substream(27, "points", values, d)
        pts = rng.integers(0, values, (300, d)).astype(np.float64)
        self.check(pts, np.vstack([pts[:10], rng.integers(-1, values + 1, (10, d)) + 0.5]))
        self.check_pool(Pool(pts), (0, 150, 299))

    def test_duplicate_points(self):
        rng = substream(28, "points")
        base = rng.random((40, 2))
        pts = base[rng.integers(0, 40, 400)]
        self.check(pts, np.vstack([pts[:10], base[:5], rng.random((5, 2))]))
        self.check_pool(Pool(pts), (0, 1, 399))

    def test_discrete_atoms_pool(self):
        problem = make_problem("discrete_atoms", kappa=1.0, seed=0)
        pool = Pool(problem.sample(4000, substream(29, "pool")))
        self.check_pool(pool, (0, 1234, 3999))

    def test_rounded_ties_on_both_sides(self):
        # +-1 and +-(1 + 2^-52) round to equal squared distances from a tiny
        # query on both of its sides, and from a far one on each side
        x = np.array([1.0 + 2.0 ** -52, 1.0, -1.0, -(1.0 + 2.0 ** -52), 0.5, 3.0, -3.0] * 30)
        self.check(x, [[1e-300], [-1e-300], [1e10], [-1e10], [0.0]])

    def test_merged_d1_order(self):
        # d = 1 merges the runs of sorted points left and right of the centre:
        # rounded ties within and across the two runs (+-1 and +-(1 + 2^-52)
        # from +-1e-300), centres at the smallest and the largest coordinate,
        # and centres that share their coordinate with other points
        x = np.array([1.0 + 2.0 ** -52, 1.0, -1.0, -(1.0 + 2.0 ** -52), 0.5, 3.0, -3.0] * 30
                     + [1e-300, -1e-300, 0.0, 0.0, 1e10, -1e10, -1e10])
        pool = Pool(x)
        w = pool.w
        assert x[w - 3] == x.max() and x[w - 2] == x[w - 1] == x.min()
        self.check_pool(pool, [*range(w - 7, w), 0, 1, 2, 4, 5, 6])
        self.check_pool(Pool([0.75, 0.25]), (0, 1))
        self.check_pool(Pool([0.5, 0.5]), (0, 1))
        self.check_pool(Pool([0.5]), (0,))

    def test_non_finite(self):
        rng = substream(30, "points")
        pts = rng.random((200, 3))
        # finite coordinates whose squared distances overflow to inf: rows that
        # mix finite distances with runs of tied infinite ones
        mixed = np.concatenate([rng.random(100), [1e200, -1e200, 1e300] * 40, rng.random(50)])
        rng.shuffle(mixed)
        with np.errstate(over="ignore"):  # 1e200 squared overflows to inf
            self.check(pts, [[1e200, 0.5, 0.5], [-1e200, 0.0, 0.0], [1e200, -1e200, 0.0]])
            self.check(mixed, [[0.5], [0.0], [1e200]])
        # NaN and infinite coordinates are rejected, in the query and in the points
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="query must be finite"):
                nearest_order(pts, [bad, 0.5, 0.5])
            with pytest.raises(ValueError, match="points must be finite"):
                nearest_order(np.vstack([pts, [[0.5, bad, 0.5]]]), pts[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_rejected(self, d):
        pts = substream(31, "points", d).random((20, d))
        for c in range(d):
            for bad in (np.nan, np.inf, -np.inf):
                query = np.full(d, 0.5)
                query[c] = bad
                with pytest.raises(ValueError, match="query must be finite"):
                    nearest_order(pts, query)
                bad_pts = pts.copy()
                bad_pts[7, c] = bad
                with pytest.raises(ValueError, match="points must be finite"):
                    nearest_order(bad_pts, pts[0])


class TestPoolCsv:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pool(np.array([[0.0], [np.nan]]))


class TestLabelOracle:
    def _pool(self, w=100, seed=12):
        return Pool(substream(seed, "pool").random((w, 1)))

    def test_noiseless_always_one(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.ones(X.shape[0]), 100, seed=1)
        assert np.all(oracle.request_batch(np.arange(50)) == 1)

    def test_cache_coherence(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5), 100, seed=2)
        first = oracle.request_batch([7])
        assert oracle.fresh_requests == 1
        for _ in range(5):
            assert oracle.request_batch([7]) == first
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
        for _ in range(3):
            oracle.request_batch([0])
        assert oracle.remaining_budget == 0
        with pytest.raises(BudgetExhausted):
            oracle.request_batch([0])

    def test_cached_mode_charges_fresh_only(self):
        pool = self._pool()
        oracle = LabelOracle(pool, lambda X: np.ones(X.shape[0]), 2, seed=5,
                             mode="cached_labels")
        for _ in range(10):
            oracle.request_batch([0])
        assert oracle.remaining_budget == 1
        oracle.request_batch([1])
        assert oracle.remaining_budget == 0
        with pytest.raises(BudgetExhausted):
            oracle.request_batch([2])

    def test_cached_mode_charges_a_repeated_index_once(self):
        pool = self._pool(w=10)
        oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5), 5, seed=7,
                             mode="cached_labels")
        labels = oracle.request_batch([3, 3, 3])
        assert np.all(labels == labels[0])
        assert oracle.remaining_budget == 4
        assert oracle.fresh_requests == 1
        oracle.request_batch([3, 4, 4, 5, 3])
        assert oracle.remaining_budget == 2
        assert oracle.fresh_requests == 3
        with pytest.raises(BudgetExhausted):
            oracle.request_batch([6, 7, 8, 6])  # 3 fresh > 2 left: nothing revealed
        assert (oracle.remaining_budget, oracle.fresh_requests) == (2, 3)
        oracle.request_batch([6, 7, 6, 7])
        assert (oracle.remaining_budget, oracle.fresh_requests) == (0, 5)

    def test_strict_mode_charges_every_repeat_and_counts_fresh_once(self):
        pool = self._pool(w=10)
        oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5), 5, seed=8,
                             mode="strict_paper")
        oracle.request_batch([3, 3, 3])
        assert oracle.remaining_budget == 2
        assert oracle.fresh_requests == 1
        with pytest.raises(BudgetExhausted):
            oracle.request_batch([4, 4, 5])  # cost 3 > 2 left: nothing revealed
        assert (oracle.remaining_budget, oracle.fresh_requests) == (2, 1)
        oracle.request_batch([4, 4])
        assert (oracle.remaining_budget, oracle.fresh_requests) == (0, 2)

    def test_label_consistency_across_modes(self):
        pool = self._pool()
        for mode in ("strict_paper", "cached_labels"):
            oracle = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.5),
                                 1000, seed=6, mode=mode)
            seen = {int(oracle.request_batch([3])[0]) for _ in range(20)}
            assert len(seen) == 1

    def test_determinism_same_seed(self):
        pool = self._pool()
        a = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.4), 100, seed=77)
        b = LabelOracle(pool, lambda X: np.full(X.shape[0], 0.4), 100, seed=77)
        idx = np.arange(50)
        assert np.array_equal(a.request_batch(idx), b.request_batch(idx))

    def test_eta_is_a_read_only_copy(self):
        pool = self._pool()
        eta = pool.points[:, 0].copy()
        oracle = LabelOracle(pool, lambda X: eta, 10, seed=1)
        assert np.array_equal(oracle.eta, eta) and oracle.eta is not eta
        assert eta.flags.writeable and not oracle.eta.flags.writeable

    def test_eta_validation(self):
        pool = self._pool()
        for bad in (1.5, -0.5, np.nan):  # a NaN eta would draw label 0
            with pytest.raises(ValueError, match="eta_fn"):
                LabelOracle(pool, lambda X: np.full(X.shape[0], bad), 10, seed=1)

    def test_neighbor_order_excludes_center(self):
        pool = self._pool(w=30)
        order = neighbor_order(pool, 4)
        assert order.shape == (29,)
        assert 4 not in order



class TestWindowVote:
    """d = 1: ``knn_vote`` reads certified rows off a window of the sorted
    points; vote and set must be brute force's (``nearest_mask`` over the full
    distance block) on every row, certified or not."""

    @staticmethod
    def check(x, labels, queries, k):
        points, q = x[:, None], np.asarray(queries, dtype=np.float64)[:, None]
        mask = nearest_mask(sq_dists(points, q), k)
        want = (2 * np.count_nonzero(mask & (labels == 1), axis=1) >= k).astype(np.int64)
        assert np.array_equal(knn_vote(points, labels, q, k), want)
        order, start, certified = kalls.pool._nearest_windows(x, q[:, 0], k)
        implied = np.zeros_like(mask)
        for row in np.flatnonzero(certified):
            implied[row, order[start[row]:start[row] + k]] = True
        assert np.array_equal(implied[certified], mask[certified])
        return certified

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_continuous(self, n):
        rng = substream(21, "points", n)
        x, labels = rng.random(n), rng.integers(0, 2, n)
        queries = np.concatenate([rng.random(400), rng.random(100) * 3 - 1])
        for k in sorted({1, (n + 1) // 2, n}):
            certified = self.check(x, labels, queries, k)
            assert certified.all()  # no ties: nothing falls back

    @pytest.mark.parametrize("side", [1, 3, 8])
    @pytest.mark.parametrize("k", [1, 2, 7, 30, 60])
    def test_lattice_duplicates(self, side, k):
        # few values, many copies, mixed labels: index tie-breaking decides the vote
        rng = substream(22, "points", side, k)
        x = rng.integers(0, side, 60).astype(np.float64)
        labels = rng.integers(0, 2, 60)
        queries = np.concatenate([np.arange(-2, side + 2, 0.5), rng.random(50) * side])
        certified = self.check(x, labels, queries, k)
        if k < x.size:
            assert not certified.all()  # the fallback is exercised

    def test_runs_of_equal_coordinates_at_window_ends(self):
        # runs of 25, 20, 30 and 15 copies at 0, 1, 2 and 3, scattered over the
        # indices with mixed labels, so an unstable sort may order each run
        # any way.  A certified window holds whole runs; a run across a window
        # end leaves its row to brute force.
        rng = substream(26, "points")
        x = rng.permutation(np.repeat([0.0, 1.0, 2.0, 3.0], [25, 20, 30, 15]))
        labels = rng.integers(0, 2, x.size)
        cases = [  # (query, k, certified)
            (1.0, 20, True), (0.9, 45, True), (1.0, 75, True), (3.0, 15, True),
            (-1.0, 25, True), (0.9, 30, False), (1.0, 50, False), (3.0, 20, False),
            (1.5, 50, True), (1.5, 40, False),
        ]
        for query, k, want in cases:
            assert self.check(x, labels, [query], k)[0] == want, (query, k)
        queries = np.arange(-1.0, 4.01, 0.25)
        for k in range(1, x.size + 1):
            self.check(x, labels, queries, k)

    def test_queries_on_and_outside_the_points(self):
        rng = substream(23, "points")
        x, labels = rng.random(300), rng.integers(0, 2, 300)
        queries = np.concatenate([x, [-5.0, -1e-300, 1.0 + 1e-12, 1e6, x.min(), x.max()]])
        for k in (1, 4, 150, 300):
            self.check(x, labels, queries, k)

    def test_rounded_distance_ties_between_distinct_points(self):
        # far from the query, 1 and 1 + 2^-52 round to one squared distance; the
        # lower index (the larger x here) must win the tie at the window's far end
        x = np.array([1.0 + 2.0 ** -52, 1.0, 0.5, 3.0])
        labels = np.array([1, 0, 1, 0])
        for q in (-1e10, 1e10):
            for k in (1, 2, 3):
                self.check(x, labels, [q], k)

    def test_non_finite_queries(self):
        # +-1e200 is at distance inf from every point: all distances tie, and
        # only the window of all n points is certified; NaN and infinite
        # queries are rejected
        rng = substream(24, "points")
        x, labels = rng.random(40), rng.integers(0, 2, 40)
        for k in (1, 3, 39, 40):
            with np.errstate(over="ignore"):
                certified = self.check(x, labels, [1e200, -1e200, 0.5], k)
            assert certified[:2].tolist() == [k == 40] * 2
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="queries must be finite"):
                    knn_vote(x[:, None], labels, [[0.5], [bad]], k)

    def test_computes_no_full_distance_block(self, monkeypatch):
        shapes = []
        real = kalls.pool.sq_dists

        def spy(points, queries, **buffers):
            out = real(points, queries, **buffers)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(kalls.pool, "sq_dists", spy)
        rng = substream(25, "points")
        x, labels, queries = rng.random((2000, 1)), rng.integers(0, 2, 2000), rng.random((5000, 1))
        knn_vote(x, labels, queries, 37)
        assert shapes == []
        knn_vote(np.hstack([x, x]), labels, np.hstack([queries, queries]), 37)
        assert shapes  # d = 2 still goes through sq_dists

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "offset"])
    def test_midpoint_search_matches_the_bisection(self, kind):
        # queries at random, on every computed midpoint and one ulp either side
        # of it, and on the points; at an offset of 1e15 (ulp 0.125) the
        # midpoints round and many coordinates coincide
        rng = substream(28, "points", ["uniform", "lattice", "offset"].index(kind))
        n = 120
        x = {"uniform": rng.random(n), "lattice": rng.integers(0, 9, n).astype(np.float64),
             "offset": 1e15 + rng.random(n) * 20}[kind]
        labels = rng.integers(0, 2, n)
        xs = np.sort(x)
        for k in (1, 2, 17, 60, n - 1, n):
            mid = (xs[:n - k] + xs[k:]) * 0.5
            lo, hi = xs[0] - 1, xs[-1] + 1
            queries = np.concatenate([lo + rng.random(200) * (hi - lo), mid,
                                      np.nextafter(mid, np.inf), np.nextafter(mid, -np.inf), x])
            _, start, certified = kalls.pool._nearest_windows(x, queries, k)
            want_start, want_certified = bisection_windows(x, queries, k)
            assert np.array_equal(start, want_start)
            assert np.array_equal(certified, want_certified)
            self.check(x, labels, queries, k)

    def test_repeated_and_non_finite_queries(self, monkeypatch):
        # uncertified rows are voted once per distinct value (-0.0 and 0.0 are
        # one value), the +-1e200 rows whose distances overflow to inf
        # included; a NaN or infinite query is rejected
        rows = []
        real = kalls.pool.sq_dists

        def spy(points, queries, **buffers):
            rows.append(np.atleast_2d(queries).shape[0])
            return real(points, queries, **buffers)

        monkeypatch.setattr(kalls.pool, "sq_dists", spy)
        rng = substream(27, "points")
        x, labels = rng.integers(0, 8, 60).astype(np.float64), rng.integers(0, 2, 60)
        values = np.concatenate([np.arange(-1.0, 9.0, 0.5), [-0.0, 1e200, -1e200]])
        queries = values[rng.integers(0, values.size, 500)]
        for k in (1, 7, 30, 59, 60):
            with np.errstate(over="ignore"):
                alone = [knn_vote(x[:, None], labels, [[v]], k)[0] for v in queries]
                rows.clear()
                assert knn_vote(x[:, None], labels, queries[:, None], k).tolist() == alone
                voted = sum(rows)
                certified = self.check(x, labels, queries, k)
            assert voted == np.unique(queries[~certified]).size
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="queries must be finite"):
                    knn_vote(x[:, None], labels, np.append(queries, bad)[:, None], k)

    def test_k_out_of_range(self):
        for d in (1, 2, 3):
            for k, m in ((4, 2), (0, 2), (99, 0)):  # no queries: k is still checked
                with pytest.raises(ValueError, match="k must satisfy"):
                    knn_vote(np.zeros((3, d)), np.zeros(3), np.zeros((m, d)), k)

    def test_labels_must_match_the_points(self):
        # more labels than points must not vote with the first n (d = 1) or
        # fail inside numpy (d = 2)
        with pytest.raises(ValueError, match="labels"):
            knn_vote([[0], [1], [2]], [1, 0, 1, 1, 1], [[0], [1]], 1)
        for d in (1, 2, 3):
            for labels in ([1, 0, 1, 1, 1], [1, 0], [[1, 0, 1]], 1):
                with pytest.raises(ValueError, match="labels"):
                    knn_vote(np.zeros((3, d)), labels, np.zeros((2, d)), 1)

    def test_queries_must_match_the_points_dimension(self):
        for d, dq in ((1, 2), (2, 1), (2, 3), (3, 2)):
            with pytest.raises(ValueError, match="queries"):
                knn_vote(np.zeros((3, d)), np.zeros(3), np.zeros((2, dq)), 1)


class TestBruteForceVote:
    """The brute-force ``knn_vote`` (d >= 2 inputs under the grid's size rule,
    as all of these are) and ``nearest_mask`` against an independent
    reference, ``sorted(range(n), key=(d2, j))[:k]`` with distances summed in
    Python."""

    @staticmethod
    def check(points, labels, queries, k):
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        d2 = sq_dists(points, queries)
        mask = nearest_mask(d2, k)
        votes = knn_vote(points, labels, queries, k)
        for row, query in enumerate(queries):
            ref = brute_force_order(points, query)[:k]
            assert np.flatnonzero(mask[row]).tolist() == sorted(ref)
            assert votes[row] == int(2 * sum(labels[j] for j in ref) >= k)
        # rows with more points at the k-th distance than fit: the trimmed ones
        kth = np.sort(d2, axis=1)[:, k - 1, None]
        got = np.empty(d2.shape[0])
        assert np.array_equal(nearest_mask(d2, k, kth=got), mask)
        assert np.array_equal(got, kth[:, 0])
        return np.count_nonzero(d2 <= kth, axis=1) > k

    @staticmethod
    def chunk_rows(monkeypatch):
        rows = []
        real = kalls.pool.nearest_mask

        def spy(d2, k, **buffers):
            rows.append(d2.shape[0])
            return real(d2, k, **buffers)

        monkeypatch.setattr(kalls.pool, "nearest_mask", spy)
        return rows

    @pytest.mark.parametrize("d", [2, 3])
    def test_continuous(self, d):
        rng = substream(31, "points", d)
        pts, labels = rng.random((60, d)), rng.integers(0, 2, 60)
        queries = np.vstack([pts[:10], rng.random((40, d)) * 3 - 1])
        for k in (1, 30, 60):
            excess = self.check(pts, labels, queries, k)
            assert not excess[10:].any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_integer_lattice(self, d):
        # distinct lattice points, exact squared distances: queries on and
        # between lattice points tie, continuous ones do not, and the two
        # kinds alternate in one chunk
        rng = substream(32, "points", d)
        side = 9 if d == 2 else 5
        grid = np.stack(np.meshgrid(*[np.arange(side)] * d), axis=-1).reshape(-1, d)
        pts = grid[rng.permutation(grid.shape[0])[:70]].astype(np.float64)
        labels = rng.integers(0, 2, 70)
        tied = np.vstack([pts[:15], rng.integers(-1, side, (15, d)) + 0.5])
        clean = rng.random((30, d)) * side
        queries = np.stack([tied, clean], axis=1).reshape(-1, d)
        for k in (1, 35, 70):
            excess = self.check(pts, labels, queries, k)
            assert not excess[1::2].any()
            assert excess[0::2].any() == (k < 70)

    @pytest.mark.parametrize("d", [2, 3])
    def test_duplicate_points(self, d):
        rng = substream(33, "points", d)
        base = rng.random((12, d))
        pts, labels = base[rng.integers(0, 12, 80)], rng.integers(0, 2, 80)
        queries = np.vstack([base, pts[:8], rng.random((20, d))])
        for k in (1, 2, 7, 40, 80):
            excess = self.check(pts, labels, queries, k)
            if k < 80:
                assert excess[:20].any()

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_finite_queries(self, d):
        # a coordinate of +-1e200 puts every point at distance inf: the row
        # ties throughout and keeps the k lowest indices; NaN and infinite
        # coordinates are rejected
        rng = substream(34, "points", d)
        pts, labels = rng.random((50, d)), rng.integers(0, 2, 50)
        special = np.full((4, d), 0.5)
        special[:, 0] = [1e200, -1e200, 1e200, 0.5]
        special[2, 1], special[3, 1] = -1e200, 1e200
        queries = np.vstack([special, rng.random((6, d))])
        for k in (1, 25, 50):
            with np.errstate(over="ignore"):
                excess = self.check(pts, labels, queries, k)
            assert excess[:4].all() == (k < 50)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="queries must be finite"):
                    knn_vote(pts, labels, np.vstack([queries, [[0.5, bad] + [0.5] * (d - 2)]]), k)

    def test_non_finite_points_rejected(self):
        # a NaN point would void the k-th distance of every row it sits on
        for pts in ([[0.0, 0], [np.nan, 0], [np.nan, 0]], [[0.0, 0], [np.inf, 0], [1, 1]],
                    [[0.0], [np.nan], [1.0]]):
            pts = np.array(pts)
            with pytest.raises(ValueError, match="finite"):
                knn_vote(pts, np.ones(3, dtype=np.int64), pts[:1] + 1.0, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_vote_follows_nearest_order(self, d):
        # the k-NN set of every query, ties and distances that overflow to inf
        # included, is its first k in nearest_order
        rng = substream(37, "points", d)
        pts = rng.integers(0, 4, (60, d)).astype(np.float64)
        labels = rng.integers(0, 2, 60)
        queries = np.vstack([pts[:10], rng.random((10, d)) * 4,
                             np.full((1, d), 1e200), np.full((1, d), -1e200)])
        for k in (1, 2, 7, 30, 60):
            with np.errstate(over="ignore"):
                want = [int(2 * labels[nearest_order(pts, q)[0][:k]].sum() >= k)
                        for q in queries]
                assert knn_vote(pts, labels, queries, k).tolist() == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_rejected(self, d):
        # a NaN or infinite coordinate anywhere, in a point or a query
        rng = substream(39, "points", d)
        pts, labels, queries = rng.random((20, d)), rng.integers(0, 2, 20), rng.random((5, d))
        for c in range(d):
            for bad in (np.nan, np.inf, -np.inf):
                bad_q, bad_pts = queries.copy(), pts.copy()
                bad_q[3, c], bad_pts[7, c] = bad, bad
                with pytest.raises(ValueError, match="queries must be finite"):
                    knn_vote(pts, labels, bad_q, 3)
                with pytest.raises(ValueError, match="points must be finite"):
                    knn_vote(bad_pts, labels, queries, 3)

    def test_chunks_end_ragged(self, monkeypatch):
        # n = 200 puts 65,536 // 200 = 327 queries in a chunk; 700 queries
        # make two full chunks and a ragged one, each mixing tied and clean rows
        rows = self.chunk_rows(monkeypatch)
        rng = substream(35, "points")
        pts = rng.integers(0, 5, (200, 2)).astype(np.float64)
        labels = rng.integers(0, 2, 200)
        queries = np.where(rng.random((700, 1)) < 0.5, rng.integers(0, 5, (700, 2)),
                           rng.random((700, 2)) * 4)
        excess = self.check(pts, labels, queries, 23)
        assert rows == [327, 327, 46]
        assert all(excess[lo:lo + 327].any() and not excess[lo:lo + 327].all()
                   for lo in (0, 327, 654))

    @pytest.mark.parametrize("d", [2, 3])
    def test_memory_layouts(self, d, monkeypatch):
        # the same values as C-ordered, Fortran-ordered and strided views give
        # bit-identical distances, with or without buffers, and equal votes;
        # n = 200 makes chunks of 327, 327 and 46 of the 700 queries
        rows = self.chunk_rows(monkeypatch)
        rng = substream(38, "points", d)
        big_pts = rng.integers(0, 5, (400, 2 * d)).astype(np.float64)
        big_pts[:, 1::2] += rng.random((400, d))  # columns the views below skip
        big_q = np.where(rng.random((1400, 1)) < 0.5, rng.integers(0, 5, (1400, 2 * d)),
                         rng.random((1400, 2 * d)) * 4)
        views = (big_pts[::2, ::2], big_q[::2, ::2])
        layouts = [views, tuple(np.ascontiguousarray(v) for v in views),
                   tuple(np.asfortranarray(v) for v in views)]
        pts, queries = layouts[1]
        want = (queries[:, 0, None] - pts[:, 0]) * (queries[:, 0, None] - pts[:, 0])
        for c in range(1, d):
            want += (queries[:, c, None] - pts[:, c]) * (queries[:, c, None] - pts[:, c])
        labels = rng.integers(0, 2, 200)
        self.check(pts, labels, queries, 23)
        votes = knn_vote(pts, labels, queries, 23)
        for p, q in layouts:
            assert np.array_equal(sq_dists(p, q), want)
            out, work = np.empty((2, 700, 200))
            assert np.array_equal(sq_dists(p, q, out=out, work=work), want)
            rows.clear()
            assert np.array_equal(knn_vote(p, labels, q, 23), votes)
            assert rows == [327, 327, 46]

    def test_rows_longer_than_block(self, monkeypatch):
        # a row of more than _BLOCK distances is a chunk of its own
        monkeypatch.setattr(kalls.pool, "_BLOCK", 16)
        rows = self.chunk_rows(monkeypatch)
        rng = substream(36, "points")
        pts = rng.integers(0, 3, (40, 2)).astype(np.float64)
        labels = rng.integers(0, 2, 40)
        queries = np.vstack([pts[:5], rng.random((5, 2)) * 2])
        for k in (1, 13, 40):
            rows.clear()
            self.check(pts, labels, queries, k)
            assert rows == [1] * 10


class TestGridVote:
    """The d >= 2 grid vote (``pool._grid_vote``) against the brute-force
    reference of ``TestBruteForceVote.check``.  ``check`` forces the grid side,
    so that inputs small enough for the reference take the grid."""

    @staticmethod
    def check(monkeypatch, points, labels, queries, k, g):
        """``TestBruteForceVote.check`` through a g x g grid.  Returns the tie
        flags of ``TestBruteForceVote.check`` and whether each query row was
        certified (False: voted by the brute-force fallback)."""
        grid_sides, fallback = [], []
        grid, brute = kalls.pool._grid_vote, kalls.pool._brute_vote

        def grid_spy(pts, ones_mask, q, k, g):
            grid_sides.append(g)
            return grid(pts, ones_mask, q, k, g)

        def brute_spy(pts, ones_mask, q, k, kth=None):
            if kth is None:
                fallback.extend(map(tuple, q))
            return brute(pts, ones_mask, q, k, kth)

        with monkeypatch.context() as patch:
            patch.setattr(kalls.pool, "_grid_side", lambda n, k, m, d: g)
            patch.setattr(kalls.pool, "_grid_vote", grid_spy)
            patch.setattr(kalls.pool, "_brute_vote", brute_spy)
            excess = TestBruteForceVote.check(points, labels, queries, k)
        assert grid_sides == [g]
        fallback = set(fallback)
        return excess, np.array([tuple(q) not in fallback for q in queries])

    @pytest.mark.parametrize("d", [2, 3])
    def test_uniform(self, monkeypatch, d):
        rng = substream(41, "points", d)
        pts, labels = rng.random((300, d)), rng.integers(0, 2, 300)
        queries = np.vstack([pts[:20], rng.random((180, d))])
        for k, g in ((1, 8), (15, 5), (40, 4)):
            _, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            # a block spans every third coordinate for d = 3
            assert certified.mean() > 0.5 if d == 2 else certified.any()

    def test_integer_lattice(self, monkeypatch):
        # distinct lattice points: the quantile edges are lattice values, so
        # points sit on cell edges, and queries on and between lattice points
        # tie at the k-th distance; some of those rows are certified
        rng = substream(42, "points")
        grid = np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2)
        pts = grid[rng.permutation(400)[:300]].astype(np.float64)
        labels = rng.integers(0, 2, 300)
        queries = np.vstack([pts[:40], rng.integers(0, 20, (40, 2)) + 0.5,
                             rng.integers(0, 20, (40, 2)) + np.array([0.5, 0.0]),
                             rng.random((40, 2)) * 20])
        for k, g in ((1, 8), (4, 10), (13, 6), (40, 4)):
            excess, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            assert (excess & certified).any()

    def test_duplicate_points(self, monkeypatch):
        rng = substream(43, "points")
        base = rng.random((40, 2))
        pts, labels = base[rng.integers(0, 40, 300)], rng.integers(0, 2, 300)
        queries = np.vstack([base, pts[:20], rng.random((60, 2))])
        for k, g in ((1, 8), (7, 6), (20, 4)):
            excess, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            assert (excess & certified).any()

    def test_huge_coordinates(self, monkeypatch):
        # +-1e200 coordinates in points and queries: distances that overflow
        # to inf tie, and bounds that overflow certify nothing they should not
        rng = substream(44, "points")
        pts = rng.random((300, 2))
        pts[:6] = [[1e200, 0.5], [-1e200, 0.5], [0.5, 1e200], [0.5, -1e200],
                   [1e200, 1e200], [-1e200, 1e200]]
        labels = rng.integers(0, 2, 300)
        queries = np.vstack([pts[:6], [[1e200, 0.3], [0.3, -1e200], [-1e200, -1e200]],
                             rng.random((60, 2))])
        for k, g in ((1, 8), (15, 5), (40, 4)):
            with np.errstate(over="ignore"):
                _, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            assert certified[9:].any()

    def test_queries_outside_the_points(self, monkeypatch):
        rng = substream(45, "points")
        pts, labels = rng.random((300, 2)), rng.integers(0, 2, 300)
        queries = np.vstack([rng.random((60, 2)) * 5 - 2, rng.random((20, 2)) * 0.2 - 1.1,
                             [[-50.0, 0.5], [0.5, 50.0], [1e6, -1e6]]])
        for k, g in ((1, 8), (15, 5), (60, 4)):
            _, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            assert certified.any() and not certified.all()

    @pytest.mark.parametrize("law", ["gaussian", "clustered"])
    def test_uncertified_rows_fall_back(self, monkeypatch, law):
        # off the uniform law many rows miss the certificate: in the sparse
        # tails, and for queries between clusters
        rng = substream(46, "points", len(law))
        if law == "gaussian":
            pts, queries = rng.normal(size=(300, 2)), rng.normal(size=(100, 2)) * 1.5
        else:
            centres = rng.random((5, 2))
            pts = centres[rng.integers(0, 5, 300)] + rng.normal(scale=0.02, size=(300, 2))
            queries = np.vstack([centres[rng.integers(0, 5, 60)]
                                 + rng.normal(scale=0.02, size=(60, 2)), rng.random((40, 2))])
        labels = rng.integers(0, 2, 300)
        for k, g in ((1, 8), (15, 5), (40, 4)):
            _, certified = self.check(monkeypatch, pts, labels, queries, k, g)
            assert certified.any() and not certified.all()

    def test_one_nn_over_a_large_active_set(self, monkeypatch):
        # 1-NN over 150 records and 40,000 queries takes the grid by the size
        # rule; records on lattice points tie for queries between them
        from kalls.core import ActiveRecord, ActiveSet, one_nn_label_batch
        rng = substream(47, "points")
        grid = np.stack(np.meshgrid(np.arange(30), np.arange(30)), axis=-1).reshape(-1, 2)
        pts = grid[rng.permutation(900)[:150]].astype(np.float64)
        labels = rng.integers(0, 2, 150)
        active = ActiveSet()
        for i, (p, y) in enumerate(zip(pts, labels)):
            active.append(ActiveRecord(point=p, inferred_label=int(y), lb=0.0, source_index=i))
        queries = np.vstack([rng.integers(0, 30, (20_000, 2)) + 0.5, rng.random((20_000, 2)) * 30])
        sides = []
        grid_vote = kalls.pool._grid_vote
        monkeypatch.setattr(kalls.pool, "_grid_vote",
                            lambda *args: sides.append(args[-1]) or grid_vote(*args))
        got = one_nn_label_batch(active, queries)
        assert sides == [17]
        assert np.array_equal(got, kalls.pool._brute_vote(pts, labels == 1, queries, 1))
        for row in range(0, 40_000, 200):
            assert got[row] == labels[brute_force_order(pts, queries[row])[0]]

    def test_branch_rule(self, monkeypatch):
        side = kalls.pool._grid_side
        # the passive arms of sweep_2d's cells, and larger ones
        assert [side(n, k, 20_000, 2) for n, k in ((200, 15), (1000, 32), (5000, 71),
                                                     (15_000, 123))] == [5, 7, 11, 15]
        assert side(5000, 31, 20_000, 3) == 6
        assert side(128, 1, 40_000, 2) == 16
        # brute force: 1-NN over a few records, a grid under 4 x 4, fewer than
        # 128 points, m * k under 40,000
        assert side(3, 1, 20_000, 2) == 0
        assert side(200, 26, 20_000, 2) == 0
        assert side(127, 1, 10 ** 6, 2) == 0
        assert side(200, 15, 2666, 2) == 0 and side(200, 15, 2667, 2) == 5
        # knn_vote takes the grid exactly where the rule gives a side
        sides = []
        grid_vote = kalls.pool._grid_vote
        monkeypatch.setattr(kalls.pool, "_grid_vote",
                            lambda *args: sides.append(args[-1]) or grid_vote(*args))
        rng = substream(48, "points")
        pts, labels = rng.random((200, 2)), rng.integers(0, 2, 200)
        for m in (2666, 2667):
            knn_vote(pts, labels, rng.random((m, 2)), 15)
        knn_vote(pts[:127], labels[:127], rng.random((40_000, 2)), 1)
        assert sides == [5]
