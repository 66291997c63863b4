from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import kalls.core
import kalls.pool
import kalls.thresholds
from kalls.core import (RELIABLE_ACCEPT_RATIO, ActiveRecord, ActiveSet, PerPointRecord,
                        RecordRows, RunTrace, SkipCertificate, confident_label,
                        one_nn_label_batch, reliable, run_kalls)
from kalls.estimation import BerEstResult, _stage_loop, cut_bound, est_prob, g_factor, stage_table
from kalls.pool import (LabelOracle, Pool, center_order, nearest_order, neighbor_order,
                        sq_dists)
from kalls.seeding import substream
from kalls.synth import make_problem
from kalls.thresholds import (KallsConfig, MarginParams, SmoothnessParams,
                              adaptive_budget_bound, confidence_radius, per_point_delta)
from test_estimation import first_cut, scalar_cut
from test_thresholds import cutoff_floor

DELTA_S = 0.0015625  # delta = 0.05 at scan position s = 1
WIDE = DELTA_S / 1000, 16 * DELTA_S  # a wide delta' range that holds DELTA_S


def flat_eta(value):
    return lambda X: np.full(X.shape[0], value)


def uniform_pool(w, seed):
    return Pool(substream(seed, "pool").random((w, 1)))


class TestConfidentLabel:
    def test_noiseless_cutoff_fires_at_328(self):
        # smallest k with 0.5 > 2 b(delta_s, k); check the crossover first
        assert confidence_radius(DELTA_S, 327) >= 0.25
        assert confidence_radius(DELTA_S, 328) < 0.25
        pool = uniform_pool(1000, seed=31)
        oracle = LabelOracle(pool, flat_eta(1.0), 10**6, seed=1)
        out = confident_label(pool, oracle, 0, k_prime=10**6, t_budget=10**6,
                              delta_s=DELTA_S)
        assert out.cut_off_fired
        assert len(out.q) == 328
        assert out.y_hat == 1
        assert out.eta_hat == 1.0

    def test_pure_noise_never_fires_below_envelope(self):
        # for k <= 50 the cut-off needs |mean - 1/2| > 2 b > 1, which is impossible
        assert 2 * confidence_radius(DELTA_S, 50) > 0.5
        pool = uniform_pool(400, seed=32)
        for trial in range(200):
            oracle = LabelOracle(pool, flat_eta(0.5), 10**6, seed=trial)
            out = confident_label(pool, oracle, 7, k_prime=50, t_budget=10**6,
                                  delta_s=DELTA_S)
            assert len(out.q) == 50
            assert not out.cut_off_fired

    def test_budget_truncation(self):
        pool = uniform_pool(100, seed=33)
        oracle = LabelOracle(pool, flat_eta(0.5), 10, seed=5)
        out = confident_label(pool, oracle, 0, k_prime=50, t_budget=3,
                              delta_s=DELTA_S)
        assert len(out.q) == 3
        assert oracle.remaining_budget == 7

    def test_abstain_when_no_request_possible(self):
        pool = uniform_pool(10, seed=34)
        oracle = LabelOracle(pool, flat_eta(0.5), 10, seed=6)
        with pytest.raises(RuntimeError, match=r"no label request possible: min\(k', t\) < 1"):
            confident_label(pool, oracle, 0, k_prime=5, t_budget=0, delta_s=DELTA_S)

    def test_a_one_point_pool_has_no_neighbor_to_request(self):
        pool = Pool(np.array([[0.5]]))
        oracle = LabelOracle(pool, flat_eta(0.5), 10, seed=6)
        with pytest.raises(RuntimeError, match="^pool has no neighbors to request$"):
            confident_label(pool, oracle, 0, k_prime=5, t_budget=5, delta_s=DELTA_S)
        assert oracle.remaining_budget == 10

    def test_majority_convention_at_half(self):
        # eta_hat exactly 1/2 labels 1
        pool = Pool(np.array([[0.0], [0.1], [0.2]]))
        oracle = LabelOracle(pool, lambda X: np.array([0.5, 1.0, 0.0])[: X.shape[0]],
                             10, seed=3)
        oracle.labels = np.array([0, 1, 0])  # pin the realization: neighbors of 0 are 1,0
        out = confident_label(pool, oracle, 0, k_prime=2, t_budget=10,
                              delta_s=DELTA_S)
        assert out.eta_hat == 0.5
        assert out.y_hat == 1

    @pytest.mark.parametrize("mode", ["strict_paper", "cached_labels"])
    def test_q_rows_are_neighbor_order_and_oracle_labels(self, mode):
        pool = uniform_pool(300, seed=35)
        for eta, center in ((1.0, 0), (0.5, 150)):  # cut-off fires / runs to the cap
            oracle = LabelOracle(pool, flat_eta(eta), 10**6, seed=9, mode=mode)
            out = confident_label(pool, oracle, center, k_prime=200, t_budget=10**6,
                                  delta_s=0.1)
            k = len(out.q)
            assert out.q.shape == (k,) and out.q.dtype == np.int64
            assert out.cut_off_fired == (k < 200)
            assert np.array_equal(out.q, neighbor_order(pool, center)[:k])
            assert out.eta_hat == oracle.labels[out.q].mean()

    @pytest.mark.parametrize("mode", ["strict_paper", "cached_labels"])
    def test_one_index_check_per_call(self, mode, monkeypatch):
        # the labels are read once and charged once: one range check per call
        checks = []
        index_array = LabelOracle._index_array

        def counted(oracle, indices):
            checks.append(len(indices))
            return index_array(oracle, indices)

        monkeypatch.setattr(LabelOracle, "_index_array", counted)
        pool = uniform_pool(300, seed=35)
        for eta, center in ((1.0, 0), (0.5, 150)):  # cut-off fires / runs to the cap
            oracle = LabelOracle(pool, flat_eta(eta), 10**6, seed=9, mode=mode)
            checks.clear()
            out = confident_label(pool, oracle, center, k_prime=200, t_budget=10**6,
                                  delta_s=0.1)
            assert out.cut_off_fired == (eta == 1.0)
            assert checks == [len(out.q)]

    def test_budget_tail_matches_sequential_loop(self):
        # the cap is the remaining budget, which shrinks at every call; each
        # call must be the sequential loop: request the next neighbour's
        # label, stop once |mean - 1/2| > 2 b(delta_s, k) or at the cap
        pool = uniform_pool(1500, seed=36)
        oracle = LabelOracle(pool, flat_eta(0.97), 1000, seed=10)
        caps, fired = [], []
        for s in range(1, 100):
            cap = oracle.remaining_budget
            if cap < 1:
                break
            delta_s = 0.3 / s
            labels = oracle.labels[neighbor_order(pool, s)][:cap]
            k = next((k for k in range(1, cap + 1)
                      if abs(labels[:k].sum() / k - 0.5) > 2 * confidence_radius(delta_s, k)),
                     None)
            out = confident_label(pool, oracle, s, k_prime=10**6, t_budget=cap,
                                  delta_s=delta_s)
            k_star = cap if k is None else k
            assert out.q.dtype == np.int64 and out.q.shape == (k_star,)
            assert out.q.tolist() == neighbor_order(pool, s)[:k_star].tolist()
            assert out.eta_hat == oracle.labels[out.q].mean()
            assert out.eta_hat == labels[:k_star].sum() / k_star
            assert out.cut_off_fired == (k is not None)
            caps.append(cap)
            fired.append(out.cut_off_fired)
        assert oracle.remaining_budget == 0
        assert all(a > b for a, b in zip(caps, caps[1:]))
        assert any(fired) and not fired[-1]

    @pytest.mark.parametrize("case", ["balanced_then_ones", "cap_at_the_floor", "ones"])
    def test_planted_labels_match_the_sequential_loop(self, case, monkeypatch):
        # the pool is 0, 1, 2, ... on a line, so the neighbours of 0 are 1, 2, ...
        # in order and the planted labels are read in that order.  Balanced
        # labels that turn all-1 at 600 pass the screen well past the floor;
        # all-1 labels pass it at the first k past the floor, and no cap up to
        # the floor can fire.  (No label sequence fires at the first k past the
        # floor itself: 2 b(delta_s, floor + 1) > 1/2, as loglog(e k) > 1/32.)
        floor = cutoff_floor(DELTA_S)
        cap = floor if case == "cap_at_the_floor" else 2000
        planted = np.ones(2001, dtype=np.int64)
        if case == "balanced_then_ones":
            planted[1:601] = np.arange(600) % 2
        pool = Pool(np.arange(2001, dtype=np.float64)[:, None])
        oracle = LabelOracle(pool, flat_eta(0.5), 10**6, seed=7)
        oracle.labels = planted
        starts = []
        radii = kalls.thresholds._confidence_radii

        def spy(head, cap, start):
            starts.append(start)
            return radii(head, cap, start)

        monkeypatch.setattr(kalls.thresholds, "_confidence_radii", spy)
        labels = planted[1:cap + 1]
        twice_b_cap = 2 * confidence_radius(DELTA_S, cap)
        screen = next((k for k in range(floor + 1, cap + 1)
                       if abs(labels[:k].sum() / k - 0.5) > twice_b_cap), None)
        k = next((k for k in range(1, cap + 1)
                  if abs(labels[:k].sum() / k - 0.5) > 2 * confidence_radius(DELTA_S, k)),
                 None)
        out = confident_label(pool, oracle, 0, k_prime=cap, t_budget=10**6, delta_s=DELTA_S)
        k_star = cap if k is None else k
        assert out.q.tolist() == list(range(1, k_star + 1))
        assert out.cut_off_fired == (k is not None)
        assert out.eta_hat == labels[:k_star].sum() / k_star
        assert starts == ([] if screen is None else [screen])
        if case == "balanced_then_ones":
            assert floor + 1 < screen <= k
        elif case == "ones":
            assert (screen, k) == (floor + 1, 328)
        else:
            assert screen is None and k is None

    @pytest.mark.parametrize("mode", ["strict_paper", "cached_labels"])
    def test_sequential_loop_while_the_tables_grow(self, mode):
        # from no k table: caps that build larger ones, then slices of them
        tables = kalls.thresholds._k_table
        tables.cache_clear()
        sizes = set()
        pool = uniform_pool(2000, seed=37)
        oracle = LabelOracle(pool, flat_eta(0.9), 10**6, seed=11, mode=mode)
        fired = []
        for s, cap in enumerate((5, 2, 400, 9, 1500, 30, 1999, 1), start=1):
            delta_s = 0.1 / s
            labels = oracle.labels[neighbor_order(pool, s)][:cap]
            k = next((k for k in range(1, cap + 1)
                      if abs(labels[:k].sum() / k - 0.5) > 2 * confidence_radius(delta_s, k)),
                     None)
            k_star = cap if k is None else k
            spent = oracle.remaining_budget
            before = tables.cache_info()
            out = confident_label(pool, oracle, s, k_prime=cap, t_budget=10**6,
                                  delta_s=delta_s)
            assert out.q.tolist() == neighbor_order(pool, s)[:k_star].tolist()
            assert out.eta_hat == oracle.labels[out.q].mean()
            assert out.eta_hat == labels[:k_star].sum() / k_star
            assert out.cut_off_fired == (k is not None)
            if mode == "strict_paper":
                assert spent - oracle.remaining_budget == k_star
            fired.append(out.cut_off_fired)
            # a table is read only past the cut-off floor, and built once for
            # the power of two at or above the cap
            after = tables.cache_info()
            read = cap > cutoff_floor(delta_s)
            size = 1 << (cap - 1).bit_length()
            assert (after.hits + after.misses > before.hits + before.misses) == read
            assert after.misses - before.misses == (read and size not in sizes)
            if read:
                sizes.add(size)
                assert kalls.thresholds._k_terms(cap)[0].shape[0] == size
        assert any(fired) and not all(fired)


def pool_reliable(pool, x_index, delta_s, smooth, active, rng, deltas=None):
    """``reliable`` for pool point ``x_index``: its sorted pool row from
    ``center_order``, as ``run_kalls`` takes it, and each record's from a fresh
    ``sq_dists`` row of the record's point, in a record table over the
    delta' range ``deltas`` (``delta_s`` alone by default)."""
    x_row = center_order(pool, x_index)[1]
    rows = RecordRows(smooth, *(deltas or (delta_s, delta_s)))
    for r in active.records:
        rows.append(r, np.sort(sq_dists(pool.points, r.point)[0]))
    return reliable(pool.points[x_index], x_row, delta_s, rows, rng)


class TestReliable:
    def _smooth(self):
        return SmoothnessParams(alpha=1.0, L=2.0, d=1)

    def test_empty_active_set_is_never_reliable(self):
        pool = uniform_pool(50, seed=41)
        assert pool_reliable(pool, 0, DELTA_S, self._smooth(), ActiveSet(),
                             substream(1, "estimation")) is False

    def test_zero_distance_record_is_reliable(self):
        pool = uniform_pool(50, seed=42)
        active = ActiveSet()
        active.append(ActiveRecord(point=pool.points[9].copy(), inferred_label=1,
                                   lb=0.3, source_index=2))
        assert pool_reliable(pool, 9, DELTA_S, self._smooth(), active,
                             substream(2, "estimation")) is True

    def test_far_point_with_small_accuracy_is_informative(self):
        # record with guarantee lb so that eps_o = (lb/128)^1 = 0.05; a query at
        # distance 0.2 in a uniform pool has true ball mass ~0.4 on both sides,
        # far above the threshold, so the answer should almost always be False.
        pool = Pool(substream(43, "pool").random((2000, 1)))
        x_idx = int(np.argmin(np.abs(pool.points[:, 0] - 0.35)))
        rec_target = pool.points[x_idx, 0] + 0.2
        r_idx = int(np.argmin(np.abs(pool.points[:, 0] - rec_target)))
        active = ActiveSet()
        active.append(ActiveRecord(point=pool.points[r_idx].copy(), inferred_label=1,
                                   lb=0.05 * 128.0, source_index=0))
        false_count = 0
        for trial in range(200):
            false_count += not pool_reliable(pool, x_idx, 0.1, self._smooth(), active,
                                             substream(trial, "estimation", 7))
        assert false_count >= 180

    def test_short_circuit_and_full_eval_agree_here(self):
        pool = uniform_pool(500, seed=44)
        active = ActiveSet()
        for j, src in ((3, 1), (200, 5)):
            active.append(ActiveRecord(point=pool.points[j].copy(), inferred_label=0,
                                       lb=0.2, source_index=src))
        # a zero-distance record is present
        assert pool_reliable(pool, 3, DELTA_S, self._smooth(), active,
                             substream(9, "estimation")) is True


def reference_reliable(points, x, delta_s, smooth, active, rng, balls=None):
    """``reliable`` for ``x`` with a fresh distance row to the pool ``points``
    per ball, counted with ``count_nonzero(d2 < r2)``, and eps_o, the
    threshold and the stage table (at the core's u) computed per ball, and
    the scalar Chernoff cut: the reference the sorted rows and the array cut
    must match.  Each ball appends to ``balls`` its (count, w, stage table,
    threshold, draws used), the draws None where the cut fails it without a
    draw."""
    if not active.records:
        return False
    order = nearest_order(active.points(), x)[0]
    d2 = sq_dists(active.points(), x)[0]
    d2_x = sq_dists(points, x)[0]
    for j in order:
        rec = active.records[j]
        eps_o = (rec.lb / (64.0 * smooth.L)) ** (smooth.d / smooth.alpha)
        radius = float(np.sqrt(d2[j]))
        stages = stage_table(eps_o, delta_s, kalls.core._U)
        threshold = RELIABLE_ACCEPT_RATIO * eps_o
        for row in (sq_dists(points, rec.point)[0], d2_x):
            count, w = int(np.count_nonzero(row < radius * radius)), row.shape[0]
            if scalar_cut(count, w, stages, threshold):
                if balls is not None:
                    balls.append((count, w, stages, threshold, None))
                continue
            res = _stage_loop(lambda n: int(rng.binomial(n, count / w)), stages)
            if balls is not None:
                balls.append((count, w, stages, threshold, res.draws_used))
            if res.p_hat <= threshold:
                return True
    return False


def walked(order, below, passed):
    """The records whose c* ``reliable`` takes: those of ``below`` (a ball
    below their bound) in ``order``, nearest first, up to the record
    ``passed`` whose ball passed, or all of them where it is None."""
    records = [j for j in order if j in below]
    return records if passed is None else records[:records.index(passed) + 1]


def passed_record(rows, out):
    """The record of ``rows`` whose ball passed in the ``reliable`` call
    that just returned ``out``, or None where ``out`` is False."""
    sources = [r.source_index for r in rows.active.records]
    return sources.index(rows.trace.skip_certificates[-1].source_index) if out else None


class TestSortedRows:
    """``run_kalls`` takes one ``center_order`` per scanned point; ``reliable``
    counts its balls on the sorted pool row it gives, which an accepted point
    keeps as its record's row.  The estimation stream must be that of a fresh
    distance row per ball: each ball is cut where the scalar Chernoff cut of
    its count is, by its record's c* at the point's delta', and every other
    ball is one ``est_prob`` call with that count."""

    @staticmethod
    def _noiseless_run(d, seed, reference=False):
        """The run and, per ``reliable`` call on a nonempty record table, what
        it tested: with the fresh rows of ``reference_reliable``, its balls;
        else the records nearest first, their c* (``cut_bound`` at the point's
        delta') and accept in record order, the records with a ball below
        their bound (count < bound), the accuracies of each exact cut
        ``reliable`` took, the balls tested, the record whose ball passed
        (None where none did) and the (count, w, stage table, draws used) of
        each ``est_prob`` call.  Every ``cut_bound`` call
        outside ``reliable`` is one accepted record's bound over the run's
        delta' range."""
        family = "power_margin_uniform_1d" if d == 1 else "product_uniform_nd"
        problem = make_problem(family, kappa=0.0, d=d, seed=0)
        pts = problem.sample(1500, substream(seed, "pool"))
        # the first 30 points come twice, so records at distance 0 (radius 0,
        # an empty ball) make skips in d = 2 too
        pool = Pool(np.vstack([pts[:30], pts]))
        oracle = LabelOracle(pool, problem.eta, 60_000, seed=seed)
        config = KallsConfig(epsilon=0.4, delta=0.5, n=60_000)
        deltas = per_point_delta(0.5, pool.w), per_point_delta(0.5, 1)
        rng = substream(seed, "estimation")
        tests, inner = [], kalls.core.reliable  # a test's own spy, if it set one
        in_reliable = []  # the delta' of the reliable call under way

        def fresh_rows(x, x_row, delta_s, rows, rng):
            # eps_o from each record's lb, never from rows.eps_o
            if rows.rows:
                tests.append([])
            return reference_reliable(pool.points, x, delta_s, rows.smooth, rows.active,
                                      rng, tests[-1] if rows.rows else None)

        def spied(x, x_row, delta_s, rows, rng):
            if not rows.rows:
                return inner(x, x_row, delta_s, rows, rng)

            def tested():
                return rows.trace.estimator_calls + rows.trace.estimator_bounded

            w = x_row.shape[0]
            accept = [RELIABLE_ACCEPT_RATIO * e for e in rows.eps_o]
            radius = np.sqrt(sq_dists(rows.points, x)[0])
            r2 = radius * radius
            below = [j for j, row in enumerate(rows.rows)
                     if min(row.searchsorted(r2[j]), x_row.searchsorted(r2[j])) < rows.bound[j]]
            c_star = [cut_bound(e, delta_s, delta_s, kalls.core._U, a, w)
                      for e, a in zip(rows.eps_o, accept)]
            tests.append({"drawn": [], "exact": [], "below": below, "w": w,
                          "order": nearest_order(rows.points, x)[0].tolist(),
                          "first": c_star, "accept": accept, "eps_o": list(rows.eps_o)})
            before = tested()
            in_reliable.append(delta_s)
            out = inner(x, x_row, delta_s, rows, rng)
            in_reliable.pop()
            tests[-1]["tested"] = tested() - before
            tests[-1]["passed"] = passed_record(rows, out)
            return out

        def cut_spy(eps_o, delta_lo, delta_hi, u, accept, w):
            if in_reliable:  # an exact cut, at the point's delta'
                assert delta_lo == delta_hi == in_reliable[-1]
                tests[-1]["exact"].append(eps_o)
            else:  # an accepted record's bound
                assert (delta_lo, delta_hi) == deltas
            return cut_bound(eps_o, delta_lo, delta_hi, u, accept, w)

        def draw_spy(in_ball, w, stages, rng):
            res = est_prob(in_ball, w, stages, rng)
            tests[-1]["drawn"].append((in_ball, w, stages, res.draws_used))
            return res

        with pytest.MonkeyPatch.context() as m:
            if reference:
                m.setattr(kalls.core, "reliable", fresh_rows)
            else:
                m.setattr(kalls.core, "reliable", spied)
                m.setattr(kalls.core, "cut_bound", cut_spy)
                m.setattr(kalls.core, "est_prob", draw_spy)
            active, trace = run_kalls(pool, oracle, config,
                                      SmoothnessParams(alpha=1.0, L=1.2, d=d),
                                      problem.certified_margin, est_rng=rng)
        return active, trace, rng.bit_generator.state, tests

    @pytest.mark.parametrize("d", [1, 2])
    def test_stream_matches_fresh_distance_rows(self, d):
        skips = drawn = cut = 0
        for seed in (1, 2, 3):
            active, trace, state, tests = self._noiseless_run(d, seed)
            ref_active, ref_trace, ref_state, ref_tests = self._noiseless_run(
                d, seed, reference=True)
            assert trace.per_point == ref_trace.per_point
            assert trace.reliable_skips == ref_trace.reliable_skips
            assert state == ref_state
            assert len(tests) == len(ref_tests) > 0
            for test, balls in zip(tests, ref_tests):
                # the reference's balls, each with the threshold of its record,
                # cut by c* exactly where the scalar cut of its fresh count is
                assert test["tested"] == len(balls) > 0
                for i, (count, w, _, threshold, used) in enumerate(balls):
                    j = test["order"][i // 2]  # two balls per record, nearest first
                    assert (w, threshold) == (test["w"], test["accept"][j])
                    assert (used is None) == (count >= test["first"][j])
                # and every other ball drawn with its count, table and draws
                assert test["drawn"] == [(count, w, stages, used)
                                         for count, w, stages, _, used in balls
                                         if used is not None]
                # one exact cut per record with a ball below its bound, nearest
                # first up to the record whose ball passed, and none elsewhere
                assert test["exact"] == [test["eps_o"][j] for j in walked(
                    test["order"], test["below"], test["passed"])]
                drawn += len(test["drawn"])
                cut += test["tested"] - len(test["drawn"])
            assert len(active) == len(ref_active) > 1
            skips += trace.reliable_skips
        assert skips > 0 and drawn > 0 and cut > 0  # the test passes as well as fails

    def test_rows_follow_the_pool(self):
        # records from the points of one pool, queried on another
        rng = substream(45, "pool")
        first, second = Pool(rng.random((80, 2))), Pool(rng.random((60, 2)))
        active = ActiveSet()
        for src, label in ((4, 1), (9, 1), (20, 0)):
            active.append(ActiveRecord(point=first.points[src].copy(), inferred_label=label,
                                       lb=0.2, source_index=src))
        for x_index in range(0, 60, 7):
            assert pool_reliable(second, x_index, 0.01, SmoothnessParams(1.0, 1.2, 2),
                                 active, substream(x_index, "estimation")) == \
                reference_reliable(second.points, second.points[x_index], 0.01,
                                   SmoothnessParams(1.0, 1.2, 2), active,
                                   substream(x_index, "estimation"))

    @pytest.mark.parametrize("d", [1, 2])
    def test_trace_counts_every_estimate(self, d):
        # the counters against the balls of the fresh-row reference
        _, trace, _, tests = self._noiseless_run(d, seed=2)
        _, _, _, ref_tests = self._noiseless_run(d, seed=2, reference=True)
        balls = [ball for test in ref_tests for ball in test]
        draws = [b[4] for b in balls if b[4] is not None]
        assert [call[3] for test in tests for call in test["drawn"]] == draws
        assert trace.estimator_calls == len(draws) > 0
        assert trace.estimator_draws == sum(draws)
        assert trace.estimator_bounded == len(balls) - len(draws) > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_each_skip_names_an_earlier_record(self, d, monkeypatch):
        passes = []  # (balls tested, the record they end on) of each passing call

        def tested(trace):
            return trace.estimator_calls + trace.estimator_bounded

        def counted(x, x_row, delta_s, rows, rng):
            before = tested(rows.trace)
            if reliable(x, x_row, delta_s, rows, rng):
                n = tested(rows.trace) - before  # two balls per record, nearest first
                j = nearest_order(rows.points, x)[0][(n - 1) // 2]
                passes.append((n, rows.active.records[j].source_index))
                return True
            return False

        monkeypatch.setattr(kalls.core, "reliable", counted)
        skips = 0
        for seed in (1, 2, 3):
            passes.clear()
            active, trace, _, _ = self._noiseless_run(d, seed)
            sources = {r.source_index for r in active.records}
            certificates = trace.skip_certificates
            assert len(certificates) == trace.reliable_skips == len(passes)
            for c in certificates:
                assert c.source_index in sources and c.source_index + 1 < c.s
            # each record's ball comes before the point's, so an odd count of
            # balls ends on a record's ball
            assert [(c.ball, c.source_index) for c in certificates] == \
                [("record" if n % 2 else "point", source) for n, source in passes]
            # every scanned point is either informative or certified, once
            scanned = [p.s for p in trace.per_point] + [c.s for c in certificates]
            assert len(trace.per_point) + trace.reliable_skips == trace.points_scanned
            assert sorted(scanned) == list(range(1, trace.points_scanned + 1))
            skips += trace.reliable_skips
        assert skips > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_pool_order_per_scanned_point(self, d, monkeypatch):
        centers, scan_rows, tables = [], {}, []

        def spy(pool, center_index):
            centers.append(center_index)
            neighbours, scan_rows[center_index] = center_order(pool, center_index)
            return neighbours, scan_rows[center_index]

        class KeptRows(RecordRows):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        def forbidden(*args, **kwargs):
            raise AssertionError("a pool distance row outside the scan step's center_order")

        monkeypatch.setattr(kalls.core, "center_order", spy)
        monkeypatch.setattr(kalls.core, "RecordRows", KeptRows)
        for owner in (kalls.core, kalls.pool):
            monkeypatch.setattr(owner, "neighbor_order", forbidden)
        monkeypatch.setattr(Pool, "sq_dists_from", forbidden)
        # reliable reads the record points from RecordRows, rebuilding none
        monkeypatch.setattr(ActiveSet, "points", forbidden)
        active, trace, _, _ = self._noiseless_run(d, seed=1)
        assert centers == list(range(trace.points_scanned))
        assert trace.reliable_skips > 0 and len(active) > 1
        # each record keeps the very row its scan step's center_order returned
        (table,) = tables
        assert table.active is active and len(table.rows) == len(active)
        for record, row in zip(active.records, table.rows):
            assert row is scan_rows[record.source_index]


class TestRecordRows:
    DELTA_MIN = per_point_delta(0.05, 2000)  # the last scanned point of a pool of 2000

    @staticmethod
    def _record(lb, source_index, d=1):
        return ActiveRecord(point=np.full(d, source_index / 10.0), inferred_label=1, lb=lb,
                            source_index=source_index)

    def test_accuracy_of_each_record(self):
        smooth = SmoothnessParams(alpha=0.5, L=1.2, d=2)
        rows = RecordRows(smooth, self.DELTA_MIN, self.DELTA_MIN)
        lbs = (0.5, 0.2, 1e-3)
        records = [self._record(lb, i, d=2) for i, lb in enumerate(lbs)]
        for rec in records:
            rows.append(rec, np.zeros(3))
        eps_o = [(lb / (64.0 * 1.2)) ** (2 / 0.5) for lb in lbs]
        assert len(rows.rows) == 3
        assert rows.eps_o == eps_o
        assert rows.active.records == records
        assert np.array_equal(rows.points, [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2]])

    def test_band_of_each_record(self, monkeypatch):
        # each record's bound on c* over the table's delta' range, at its
        # accuracy, and its row's entry at bound - 1
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=1)
        deltas = self.DELTA_MIN, per_point_delta(0.05, 1)
        rows = RecordRows(smooth, *deltas)
        row = np.sort(substream(49, "pool").random(2000))
        lbs = (0.5, 0.3, 0.1)
        for i, lb in enumerate(lbs):
            rows.append(self._record(lb, i), row)
        bound, c_star = (np.array([cut_bound(eps_o, *ends, kalls.core._U,
                                             RELIABLE_ACCEPT_RATIO * eps_o, 2000)
                                   for eps_o in map(smooth.ball_accuracy, lbs)])
                         for ends in (deltas, deltas[:1] * 2))
        assert rows.bound.dtype == np.int64 and np.array_equal(rows.bound, bound)
        assert (c_star < bound).any()  # bounds above c* at a delta' of the range
        assert np.array_equal(rows.bound_entries, row[bound - 1])
        # a bound at the pool's last point reads its entry, one past it +inf
        for j, past in ((3, 0), (4, 1)):
            monkeypatch.setattr(kalls.core, "cut_bound",
                                lambda eps_o, delta_lo, delta_hi, u, accept, w: w + past)
            rows.append(self._record(0.2, j), row)
        assert rows.bound[3:].tolist() == [2000, 2001]
        assert rows.bound_entries[3:].tolist() == [row[-1], np.inf]

    def test_threshold_ratio_is_one_over_g_of_the_estimates_u(self):
        # BerEst's dichotomy makes a pass certify a mass <= eps_o only where the
        # ratio is 1/g(u) at the u the stage tables take; 75/94 = 1/g(50)
        ratio = 1.0 / g_factor(kalls.core._U)
        assert abs(ratio - RELIABLE_ACCEPT_RATIO) <= math.ulp(RELIABLE_ACCEPT_RATIO)

    # alpha 0.01, L 1.2: eps_o = (lb / 76.8)^100, about 2e-219 at lb 1/2
    @pytest.mark.parametrize("lb,cause", [
        (0.01, "got 0.0"),  # underflows to 0.0
        (0.05, "division by zero"),  # 2.3e-319: delta' * eps_o underflows
        (0.08, "infinity"),  # 5.9e-299: K / delta' overflows
    ])
    def test_accuracy_without_a_stage_table_is_rejected_at_acceptance(self, lb, cause):
        rows = RecordRows(SmoothnessParams(alpha=0.01, L=1.2, d=1), self.DELTA_MIN,
                          self.DELTA_MIN)
        first = self._record(0.2, 3)
        rows.append(first, np.zeros(3))
        with pytest.raises(ValueError, match=rf"of lb {lb}, alpha 0\.01, L 1\.2, d 1 .*{cause}"):
            rows.append(self._record(lb, 5), np.zeros(3))
        # and a record out of source order, at an accuracy that has a table
        with pytest.raises(ValueError, match="strictly increasing"):
            rows.append(self._record(0.2, 3), np.zeros(3))
        assert len(rows.rows) == len(rows.eps_o) == 1
        assert rows.bound.shape == rows.bound_entries.shape == (1,)
        assert rows.active.records == [first]
        assert np.array_equal(rows.points, [first.point])

    @pytest.mark.parametrize("alpha", [0.005, 0.007])  # eps_o at lb 1/2: 0.0, 4.6e-313
    def test_largest_accuracy_without_a_stage_table_is_rejected_up_front(self, alpha):
        with pytest.raises(ValueError, match=rf"of lb 0\.5, alpha {alpha}, L 1\.2, d 1"):
            RecordRows(SmoothnessParams(alpha=alpha, L=1.2, d=1), self.DELTA_MIN,
                       self.DELTA_MIN)

    def test_run_kalls_refuses_before_any_label(self):
        pool = Pool(np.linspace(0.0, 1.0, 50)[:, None])
        oracle = LabelOracle(pool, flat_eta(1.0), 100, seed=1)
        with pytest.raises(ValueError, match="of lb 0.5, alpha 0.005"):
            run_kalls(pool, oracle, KallsConfig(epsilon=0.4, delta=0.05, n=100),
                      SmoothnessParams(alpha=0.005, L=1.2, d=1), MarginParams(beta=1.0, C=2.0),
                      est_rng=substream(1, "estimation"))
        assert oracle.remaining_budget == 100


class TestReliableCounts:
    """``reliable`` cuts a ball where its sorted row's (c*)th entry is below
    r2, and counts each ball it keeps with one ``searchsorted`` in its row
    before ``est_prob`` sees it.  The cut must be that of the scalar Chernoff
    cut of ``count_nonzero(d2 < r2)`` on a fresh distance row, and each
    count ``est_prob`` sees that count, with ties, duplicate points and
    radius 0."""

    def test_counts_are_count_nonzero(self, monkeypatch):
        cuts, calls = [], []

        def cut_input(eps_o, delta_lo, delta_hi, u, accept, w):
            bound = cut_bound(eps_o, delta_lo, delta_hi, u, accept, w)
            cuts.append((eps_o, delta_lo, delta_hi, u, accept, w, bound))
            return bound

        def recording(in_ball, w, stages, rng):
            calls.append((in_ball, w, stages))
            return BerEstResult(1.0, 8, True)  # never passes: every record is reached

        monkeypatch.setattr(kalls.core, "cut_bound", cut_input)
        monkeypatch.setattr(kalls.core, "est_prob", recording)
        lattice = substream(46, "pool").integers(0, 4, (120, 2)).astype(np.float64)
        pool = Pool(np.vstack([lattice, lattice[:10]]))  # ties, and 10 points twice
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=2)
        u = kalls.core._U
        empty = exact = cut = below = 0
        # a table for DELTA_S alone, where each record's bound is its c* and
        # decides every ball, and one whose wide range holds DELTA_S, where
        # reliable takes the c* at DELTA_S of each record with a ball below
        # its bound
        for deltas in ((DELTA_S, DELTA_S), WIDE):
            # X and the other copies of X's point
            for x_index, twins in ((0, [120]), (3, [123]), (50, []), (125, [5])):
                active = ActiveSet()
                # records on X itself and on its twins (radius 0), and others
                for src in sorted({1, 5, 9, 40, 77, 120, x_index, *twins}):
                    active.append(ActiveRecord(point=pool.points[src].copy(), inferred_label=1,
                                               lb=0.1 + src / 1000.0, source_index=src))
                cuts.clear()
                calls.clear()
                assert pool_reliable(pool, x_index, DELTA_S, smooth, active,
                                     substream(1, "estimation"), deltas) is False
                order = nearest_order(active.points(), pool.points[x_index])[0]
                d2 = sq_dists(active.points(), pool.points[x_index])[0]
                x_d2 = sq_dists(pool.points, pool.points[x_index])[0]
                eps_os = [(rec.lb / (64.0 * smooth.L)) ** (smooth.d / smooth.alpha)
                          for rec in active.records]
                accepts = [RELIABLE_ACCEPT_RATIO * e for e in eps_os]
                want = []  # the balls in test order: records nearest first
                for j in order.tolist():
                    radius = float(np.sqrt(d2[j]))
                    for row in (sq_dists(pool.points, active.records[j].point)[0], x_d2):
                        want.append((int(np.count_nonzero(row < radius * radius)), pool.w,
                                     stage_table(eps_os[j], DELTA_S, u), accepts[j]))
                        exact += radius * radius in row
                # one bound per record at acceptance, in record order, at its
                # accuracy over the table's range
                bounds, per_point = cuts[:len(eps_os)], cuts[len(eps_os):]
                assert [bound[:6] for bound in bounds] == \
                    [(e, *deltas, u, a, pool.w) for e, a in zip(eps_os, accepts)]
                # the c* at DELTA_S of each record with a ball below its
                # bound, in record order; at DELTA_S alone the bound is c*
                counts = {j: (want[2 * i][0], want[2 * i + 1][0])
                          for i, j in enumerate(order.tolist())}
                lower = [j for j in range(len(eps_os)) if min(counts[j]) < bounds[j][6]]
                c_star = [first_cut(e, DELTA_S, u, a, pool.w) for e, a in zip(eps_os, accepts)]
                assert per_point == [(eps_os[j], DELTA_S, DELTA_S, u, accepts[j], pool.w,
                                      c_star[j]) for j in lower]
                if deltas == (DELTA_S, DELTA_S):
                    assert [b[6] for b in bounds] == c_star
                below += len(lower)
                # the balls c* cuts are the balls the scalar cut of their count
                # cuts, and est_prob sees each other one with its count and table
                first = [c_star[j] for j in order.tolist()]
                assert [count >= first[i // 2] for i, (count, *_) in enumerate(want)] == \
                    [scalar_cut(*ball) for ball in want], x_index
                kept = [ball[:3] for ball in want if not scalar_cut(*ball)]
                assert calls == kept, x_index
                empty += sum(ball[0] == 0 for ball in want)
                cut += len(want) - len(kept)
        # radius-0 balls (never cut), radii on a pool distance, cut balls, and
        # records below their bound
        assert empty >= 8 and exact > 0 and cut > 0 and below > 0

    def test_nothing_is_cut_where_c_star_is_past_the_pool(self, monkeypatch):
        # c* = w + 1 cuts no count, not even a ball that holds all w points:
        # neither as a bound nor as the c* at the point's delta'
        calls = []

        def recording(in_ball, w, stages, rng):
            calls.append(in_ball)
            return BerEstResult(1.0, 8, True)  # never passes

        monkeypatch.setattr(kalls.core, "cut_bound",
                            lambda eps_o, delta_lo, delta_hi, u, accept, w: w + 1)
        monkeypatch.setattr(kalls.core, "est_prob", recording)
        pool = uniform_pool(50, seed=47)
        active = ActiveSet()
        # records off the pool's [0, 1]: their distance to X is more than 1,
        # so each ball around X holds the whole pool
        for src, point in enumerate((3.0, -2.5)):
            active.append(ActiveRecord(point=np.array([point]), inferred_label=1, lb=0.2,
                                       source_index=src))
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=1)
        for deltas in ((DELTA_S, DELTA_S), WIDE):
            calls.clear()
            assert pool_reliable(pool, 7, DELTA_S, smooth, active, substream(1, "estimation"),
                                 deltas) is False
            assert len(calls) == 4 and calls[1] == calls[3] == pool.w
            # rows built so that both balls of each record hold all w points
            rows = RecordRows(smooth, *deltas)
            for record in active.records:
                rows.append(record, np.zeros(pool.w))
            calls.clear()
            assert reliable(np.array([0.5]), np.zeros(pool.w), DELTA_S, rows,
                            substream(1, "estimation")) is False
            assert calls == [pool.w] * 4


class TestCutBands:
    """A record's bound on c*, set at acceptance over the table's delta'
    range, cuts the record at any delta' of that range where both its balls
    hold at least the bound's count.  A record with a ball below its bound
    takes c* at the point's delta' where the nearest-first walk reaches it.
    Either way the outcome, the trace's counters and the stream are those
    of ``reference_reliable``.  A delta' outside the range is refused."""

    SMOOTH = SmoothnessParams(alpha=1.0, L=1.2, d=1)
    POOL = uniform_pool(2000, seed=48)
    # the delta' range of a run at delta 0.05 over this pool
    DELTAS = per_point_delta(0.05, 2000), per_point_delta(0.05, 1)

    def _table(self, active, deltas):
        rows = RecordRows(self.SMOOTH, *deltas)
        for r in active.records:
            rows.append(r, np.sort(sq_dists(self.POOL.points, r.point)[0]))
        return rows

    def _against_reference(self, x_index, delta_s, active, seed, deltas=DELTAS):
        """``reliable`` on a record table over ``deltas``, checked against
        ``reference_reliable`` on a copy of its stream; the table, and the
        accuracies of each exact cut ``reliable`` took."""
        pool, drawn, exact = self.POOL, [], []

        def cut_spy(eps_o, delta_lo, delta_hi, u, accept, w):
            if delta_lo == delta_hi == delta_s:
                exact.append(eps_o)
            return cut_bound(eps_o, delta_lo, delta_hi, u, accept, w)

        def draw_spy(in_ball, w, stages, rng):
            res = est_prob(in_ball, w, stages, rng)
            drawn.append((in_ball, w, stages, res.draws_used))
            return res

        with pytest.MonkeyPatch.context() as m:
            m.setattr(kalls.core, "cut_bound", cut_spy)
            m.setattr(kalls.core, "est_prob", draw_spy)
            rows = self._table(active, deltas)
            rng = substream(seed, "estimation")
            out = reliable(pool.points[x_index], center_order(pool, x_index)[1], delta_s,
                           rows, rng)
        balls, ref_rng = [], substream(seed, "estimation")
        assert out == reference_reliable(pool.points, pool.points[x_index], delta_s,
                                         self.SMOOTH, active, ref_rng, balls)
        assert drawn == [(count, w, stages, used) for count, w, stages, _, used in balls
                         if used is not None]
        assert rows.trace.estimator_calls + rows.trace.estimator_bounded == len(balls)
        assert rows.trace.estimator_bounded == sum(ball[4] is None for ball in balls)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return rows, exact

    def _records_above(self, x_index, ranks, lbs):
        """Records on the pool points ``ranks`` places above X in the pool's
        order, with the guarantees ``lbs`` in the same order: each ball of
        the one ``rank`` places above holds about 2 ``rank`` points."""
        order = np.argsort(self.POOL.points[:, 0])
        at = int(np.flatnonzero(order == x_index)[0])
        active = ActiveSet()
        for src, lb in sorted((int(order[at + rank]), lb) for rank, lb in zip(ranks, lbs)):
            active.append(ActiveRecord(point=self.POOL.points[src].copy(), inferred_label=1,
                                       lb=lb, source_index=src))
        return active

    def _walked(self, rows, x_index):
        """The accuracies of the records whose c* ``reliable`` took in its
        one call on ``rows``: those with a ball below their bound, nearest
        first, up to the record whose ball passed."""
        x = self.POOL.points[x_index]
        r2 = sq_dists(rows.points, x)[0]
        x_row = center_order(self.POOL, x_index)[1]
        below = [j for j, (row, r, bound) in enumerate(zip(rows.rows, r2, rows.bound))
                 if min(row.searchsorted(r), x_row.searchsorted(r)) < bound]
        passed = passed_record(rows, bool(rows.trace.skip_certificates))
        return [rows.eps_o[j] for j in walked(nearest_order(rows.points, x)[0].tolist(),
                                              below, passed)]

    def test_a_ball_below_its_bound_takes_c_star(self):
        below = cut = 0
        x_index = int(np.argmin(np.abs(self.POOL.points[:, 0] - 0.5)))
        for lb, rank, s in itertools.product((0.5, 0.3, 0.1), range(1, 10), (1, 40, 2000)):
            delta_s = per_point_delta(0.05, s)
            rows, exact = self._against_reference(
                x_index, delta_s, self._records_above(x_index, [rank], [lb]), s)
            # the record's two balls against its bound
            assert exact == self._walked(rows, x_index)
            below += len(exact)
            cut += not exact
        assert below > 0 and cut > 0

    def test_a_wide_range_takes_c_star_below_the_bound(self):
        # delta's at and past the ends of a run's range, in one range that
        # holds them all; distinct lbs give distinct eps_o, so the walk's
        # records are checked, not only their number (here the three nearest
        # take c* at every delta')
        x_index = int(np.argmin(np.abs(self.POOL.points[:, 0] - 0.3)))
        active = self._records_above(x_index, (2, 5, 7, 40), (0.1, 0.3, 0.5, 0.2))
        delta_s = (0.5, self.DELTAS[1] * 1.5, self.DELTAS[0] / 2, 1e-12)
        below = 0
        for seed, delta in enumerate(delta_s):
            rows, exact = self._against_reference(x_index, delta, active, seed,
                                                  (min(delta_s), max(delta_s)))
            assert exact == self._walked(rows, x_index)
            below += len(exact)
        assert 0 < below < len(delta_s) * len(active)

    def test_a_delta_outside_the_range_is_refused(self):
        # before the trace's counters or the stream move, with records or
        # without
        x_index = int(np.argmin(np.abs(self.POOL.points[:, 0] - 0.3)))
        x_row = center_order(self.POOL, x_index)[1]
        for active in (ActiveSet(), self._records_above(x_index, (2, 5, 7, 40), [0.5] * 4)):
            rows = self._table(active, self.DELTAS)
            for seed, delta_s in enumerate((0.5, self.DELTAS[1] * 1.5, self.DELTAS[0] / 2,
                                            1e-12)):
                rng = substream(seed, "estimation")
                state = rng.bit_generator.state
                with pytest.raises(ValueError, match=rf"delta' {delta_s!r} is outside the "
                                                     r"record table's range \["):
                    reliable(self.POOL.points[x_index], x_row, delta_s, rows, rng)
                assert rng.bit_generator.state == state
                assert vars(rows.trace) == vars(RunTrace())


class TestNegligibleCut:
    """``reliable`` fails a ball without a draw where ``cut_bound`` bounds
    its pass probability below 2^-64.  The law of the outcome (no
    pass, or a pass on record j's ball around X' or around X) must be the
    one without the cut."""

    W, LB, DELTA = 100_000, 0.4, 0.01

    def _rows(self):
        # X at 0.5 and records at 0.501, 0.502 and 0.503.  The rows are built
        # for the counts: record 0's own ball and the balls around X of
        # records 1 and 2 are heavy (p 0.02 and 0.05, cut), the others hold
        # 424 points (p 1.02 * 75/94 eps_o), so each passes with probability
        # about a third
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=1)
        rows = RecordRows(smooth, self.DELTA, self.DELTA)
        light, w = 424, self.W
        assert light / w == pytest.approx(1.02 * RELIABLE_ACCEPT_RATIO
                                          * smooth.ball_accuracy(self.LB), rel=1e-3)

        def row(*runs):  # (value, count) runs, then 1.0 up to w entries
            values = np.concatenate([np.full(n, v) for v, n in runs])
            return np.concatenate([values, np.ones(w - values.shape[0])])

        for j, in_ball in enumerate((2000, light, light)):
            rows.append(ActiveRecord(point=np.array([0.501 + j / 1000]), inferred_label=1,
                                     lb=self.LB, source_index=j), row((0.0, in_ball)))
        # squared radii about 1e-6, 4e-6 and 9e-6
        return rows, row((0.0, light), (2e-6, 5000 - light))

    def _outcomes(self, seeds, stream):
        rows, x_row = self._rows()
        counts = {}
        for seed in seeds:
            if reliable(np.array([0.5]), x_row, self.DELTA, rows,
                        substream(seed, "estimation", stream)):
                certificate = rows.trace.skip_certificates[-1]
                key = certificate.source_index, certificate.ball
            else:
                key = None
            counts[key] = counts.get(key, 0) + 1
        return counts, rows.trace

    def test_same_law_with_and_without_the_cut(self, monkeypatch):
        seeds = range(2000)
        cut, cut_trace = self._outcomes(seeds, 1)
        # no count is cut: c* = w + 1
        monkeypatch.setattr(kalls.core, "cut_bound",
                            lambda eps_o, delta_lo, delta_hi, u, accept, w: w + 1)
        drawn, drawn_trace = self._outcomes(seeds, 2)
        outcomes = [None, (0, "point"), (1, "record"), (2, "record")]
        assert set(cut) == set(drawn) == set(outcomes)
        # the balls each outcome tests, and the heavy ones among them, which
        # fail without a draw under the cut and are drawn without it
        tested, heavy = dict(zip(outcomes, (6, 2, 3, 5))), dict(zip(outcomes, (3, 1, 1, 2)))
        assert cut_trace.estimator_bounded == sum(n * heavy[k] for k, n in cut.items())
        assert cut_trace.estimator_calls == sum(n * (tested[k] - heavy[k])
                                                for k, n in cut.items())
        assert drawn_trace.estimator_bounded == 0
        assert drawn_trace.estimator_calls == sum(n * tested[k] for k, n in drawn.items())
        table = np.array([[cut[k] for k in outcomes], [drawn[k] for k in outcomes]])
        assert table.min() >= 100
        assert chi2_contingency(table).pvalue > 1e-3


def run_once(seed, w=4000, n=1500, kappa=1.0, eps=0.2, mode="strict_paper"):
    problem = make_problem("power_margin_uniform_1d", kappa=kappa, seed=0)
    pool = Pool(problem.sample(w, substream(seed, "pool")))
    oracle = LabelOracle(pool, problem.eta, n,
                         seed=int(substream(seed, "oracle").integers(2**62)),
                         mode=mode)
    config = KallsConfig(epsilon=eps, delta=0.05, n=n, budget_mode=mode)
    active, trace = run_kalls(pool, oracle, config, problem.certified_smooth,
                              problem.certified_margin,
                              est_rng=substream(seed, "estimation"))
    return problem, config, active, trace


class TestRunKalls:
    def test_zero_budget(self):
        problem = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)
        pool = Pool(problem.sample(50, substream(1, "pool")))
        oracle = LabelOracle(pool, problem.eta, 0, seed=1)
        config = KallsConfig(epsilon=0.2, delta=0.05, n=0)
        active, trace = run_kalls(pool, oracle, config, problem.certified_smooth,
                                  problem.certified_margin,
                                  est_rng=substream(1, "estimation"))
        assert len(active) == 0
        assert trace.stopped_reason == "budget_exhausted"
        assert trace.labels_spent == 0

    def test_a_one_point_pool_is_refused(self):
        pool = Pool(np.array([[0.5]]))
        oracle = LabelOracle(pool, flat_eta(1.0), 100, seed=2)
        config = KallsConfig(epsilon=0.2, delta=0.05, n=100)
        with pytest.raises(ValueError, match="^pool must contain at least 2 points$"):
            run_kalls(pool, oracle, config, SmoothnessParams(alpha=1.0, L=2.0, d=1),
                      MarginParams(beta=1, C=2), est_rng=substream(2, "estimation"))
        assert oracle.remaining_budget == 100

    def test_two_point_pool_first_point_informative(self):
        pool = Pool(np.array([[0.2], [0.8]]))
        oracle = LabelOracle(pool, flat_eta(1.0), 100, seed=2)
        config = KallsConfig(epsilon=0.2, delta=0.05, n=100)
        smooth = SmoothnessParams(alpha=1.0, L=2.0, d=1)
        _, trace = run_kalls(pool, oracle, config, smooth, MarginParams(beta=1, C=2),
                             est_rng=substream(2, "estimation"))
        assert trace.per_point[0].s == 1
        assert trace.per_point[0].y_hat == 1

    def test_replay_is_bit_exact(self):
        p1, c1, a1, t1 = run_once(seed=1)
        p2, c2, a2, t2 = run_once(seed=1)
        assert t1.to_json({}, "x") == t2.to_json({}, "x")
        assert len(a1) == len(a2)
        for r1, r2 in zip(a1.records, a2.records):
            assert np.array_equal(r1.point, r2.point)
            assert (r1.inferred_label, r1.lb, r1.source_index) == \
                (r2.inferred_label, r2.lb, r2.source_index)

    def test_to_json_is_the_asdict_text(self):
        def asdict_json(trace, config, version, resolved_seed=None):
            payload = {**asdict(trace), "tool_version": version, "config": config}
            if resolved_seed is not None:
                payload["resolved_seed"] = resolved_seed
            return json.dumps(payload, sort_keys=True) + "\n"

        records = [PerPointRecord(s=s, q_size=3 * s, lb=0.1 * s - 0.2, accepted=s % 2 == 0,
                                  eta_hat=s / 7, y_hat=s % 2, cut_off_fired=s == 3,
                                  k_cap=100, k_tilde=None if s % 3 else 12.5 * s)
                   for s in range(1, 7)]
        certificates = [SkipCertificate(s=s, source_index=s - 3, ball=ball)
                        for s, ball in ((7, "record"), (8, "point"), (9, "record"))]
        trace = RunTrace(labels_spent=63, stopped_reason="budget_exhausted",
                         per_point=records, points_scanned=9, reliable_skips=3,
                         estimator_calls=5, estimator_draws=4096, estimator_bounded=11,
                         skip_certificates=certificates)
        config = {"budgets": [200], "problem": {"family": "x", "kappa": 1.0}}
        for seed in (None, 4):
            text = trace.to_json(config, "v", resolved_seed=seed)
            assert text == asdict_json(trace, config, "v", resolved_seed=seed)
            assert text.count("\n") == 1 and text.endswith("}\n")  # one line
        _, _, _, run = run_once(seed=4, w=500, n=800)
        assert run.to_json(config, "v") == asdict_json(run, config, "v")
        assert RunTrace().to_json({}, "v") == asdict_json(RunTrace(), {}, "v") == (
            '{"config": {}, "estimator_bounded": 0, "estimator_calls": 0, "estimator_draws": 0, '
            '"labels_spent": 0, '
            '"per_point": [], "points_scanned": 0, "reliable_skips": 0, '
            '"skip_certificates": [], "stopped_reason": "pool_exhausted", '
            '"tool_version": "v"}\n')

    def test_budget_safety_and_strict_accounting(self):
        _, config, _, trace = run_once(seed=2)
        assert trace.labels_spent <= config.n
        assert trace.labels_spent == sum(p.q_size for p in trace.per_point)

    def test_acceptance_filter_recomputed_from_trace(self):
        problem, config, active, trace = run_once(seed=3)
        by_s = {p.s: p for p in trace.per_point}
        assert len(active) >= 1
        for rec in active.records:
            entry = by_s[rec.source_index + 1]
            b = confidence_radius(per_point_delta(config.delta, entry.s),
                                  entry.q_size)
            assert entry.accepted
            assert rec.lb >= config.lb_factor * b
            assert rec.lb == entry.lb
        # conversely, the active set is exactly the accepted entries, in order
        accepted = [p for p in trace.per_point if p.accepted]
        assert len(active) == len(accepted)
        pool = Pool(problem.sample(4000, substream(3, "pool")))  # run_once's pool
        for rec, entry in zip(active.records, accepted):
            assert rec.source_index == entry.s - 1
            assert rec.inferred_label == entry.y_hat
            assert rec.lb == entry.lb
            assert np.array_equal(rec.point, pool.points[entry.s - 1])

    def test_rejected_entries_fail_the_filter(self):
        _, config, _, trace = run_once(seed=4)
        for entry in trace.per_point:
            b = confidence_radius(per_point_delta(config.delta, entry.s),
                                  entry.q_size)
            assert entry.accepted == (entry.lb >= config.lb_factor * b)

    def test_monotone_trace(self):
        _, _, active, trace = run_once(seed=5)
        idx = [p.s for p in trace.per_point]
        assert all(b > a for a, b in zip(idx, idx[1:]))
        informative = set(idx)
        for rec in active.records:
            assert rec.source_index + 1 in informative

    def test_noiseless_soundness_small(self):
        problem = make_problem("power_margin_uniform_1d", kappa=0.0, seed=0)
        pool = Pool(problem.sample(1200, substream(6, "pool")))
        oracle = LabelOracle(pool, problem.eta, 20_000, seed=3)
        config = KallsConfig(epsilon=0.4, delta=0.05, n=20_000)
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=1)
        active, trace = run_kalls(pool, oracle, config, smooth,
                                  problem.certified_margin,
                                  est_rng=substream(6, "estimation"))
        assert len(active) >= 10
        assert np.array_equal(active.labels(), problem.bayes(active.points()))

    def test_cached_mode_budget_safety(self):
        _, config, _, trace = run_once(seed=7, mode="cached_labels")
        assert trace.labels_spent <= config.n

    @pytest.mark.xfail(
        strict=True,
        reason="desk-scale calibration defect: at n=1500 the per-point budget "
        "k(eps, delta_1) = 1670 already exceeds the whole run budget, so a "
        "single boundary-zone point can absorb it and one-sided or empty "
        "active sets are common; the pooled deep-margin agreement lands near "
        "0.48, not the stated 0.90.  The budget-5000 comparison criterion "
        "covers the attainable version of this property.")
    def test_deep_margin_correctness_at_small_budget(self):
        # stated property: pooled over 2000 fresh draws x 20 seeds, the
        # classifier agrees with the Bayes rule on |eta - 1/2| > Delta in at
        # least a 1 - delta - 0.05 = 0.90 fraction (eps=0.2, delta=0.05,
        # c_const=8, w=4000, n=1500, kappa=1)
        from kalls.core import one_nn_label_batch
        from kalls.thresholds import margin_delta
        problem = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)
        dm = margin_delta(0.2, problem.certified_margin)
        agree = total = 0
        for seed in range(20):
            _, _, active, _ = run_once(seed=seed)
            X = problem.sample(2000, substream(seed, "evaluation"))
            eta = problem.eta(X)
            deep = np.abs(eta - 0.5) > dm
            total += int(deep.sum())
            if len(active):
                pred = one_nn_label_batch(active, X[deep])
                agree += int(np.sum(pred == (eta[deep] >= 0.5)))
        assert agree / total >= 0.90

    @pytest.mark.parametrize("family,d,boundary", [
        ("power_margin_uniform_1d", 1, [0.5]),
        ("power_margin_gaussian_1d", 1, [0.0]),
        ("discrete_atoms", 1, None),  # no atom has eta = 1/2
        ("product_uniform_nd", 2, [0.5, 0.5]),
    ])
    def test_k_tilde_is_the_bound_at_eta_of_the_point(self, family, d, boundary):
        # k_tilde comes from the oracle's eta array; it must be the bound at eta
        # evaluated on the point alone, and None where eta = 1/2
        problem = make_problem(family, kappa=1.0, d=d, seed=0)
        points = problem.sample(300, substream(12, "pool"))
        if boundary is not None:  # scanned first, so always informative
            points = np.vstack([boundary, points])
        pool = Pool(points)
        oracle = LabelOracle(pool, problem.eta, 400, seed=5, mode="cached_labels")
        config = KallsConfig(epsilon=0.2, delta=0.05, n=400, budget_mode="cached_labels")
        _, trace = run_kalls(pool, oracle, config, problem.certified_smooth,
                             problem.certified_margin, est_rng=substream(12, "estimation"))
        assert len(trace.per_point) >= 5
        for entry in trace.per_point:
            gap = abs(float(problem.eta(pool.points[entry.s - 1:entry.s])[0]) - 0.5)
            want = None
            if gap > 0.0:
                want = adaptive_budget_bound(gap, per_point_delta(config.delta, entry.s),
                                             config.c_const)
            assert entry.k_tilde == want, entry.s
        if boundary is not None:
            assert trace.per_point[0].s == 1 and trace.per_point[0].k_tilde is None

    def test_oracle_budget_must_match(self):
        problem = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)
        pool = Pool(problem.sample(50, substream(8, "pool")))
        oracle = LabelOracle(pool, problem.eta, 10, seed=1)
        config = KallsConfig(epsilon=0.2, delta=0.05, n=20)
        with pytest.raises(ValueError):
            run_kalls(pool, oracle, config, problem.certified_smooth,
                      problem.certified_margin, est_rng=substream(8, "estimation"))


class TestOneNN:
    def _active(self, coords_labels):
        active = ActiveSet()
        for i, (x, y) in enumerate(coords_labels):
            active.append(ActiveRecord(point=np.atleast_1d(np.asarray(x, dtype=float)),
                                       inferred_label=y, lb=0.2, source_index=i))
        return active

    def test_single_record(self):
        active = self._active([(0.5, 1)])
        assert list(one_nn_label_batch(active, np.array([[0.0], [0.2], [0.999]]))) == [1, 1, 1]

    def test_midpoint_geometry(self):
        active = self._active([(0.2, 0), (0.8, 1)])
        assert list(one_nn_label_batch(active, np.array([[0.49], [0.51]]))) == [0, 1]

    def test_distance_tie_prefers_lowest_source_index(self):
        active = self._active([(0.0, 1), (1.0, 0)])
        assert list(one_nn_label_batch(active, np.array([[0.5]]))) == [1]

    def test_matches_brute_force(self):
        rng = substream(51, "points")
        pts = rng.integers(0, 20, size=(300, 2)).astype(np.float64)
        labels = rng.integers(0, 2, size=300)
        active = ActiveSet()
        for i in range(300):
            active.append(ActiveRecord(point=pts[i], inferred_label=int(labels[i]),
                                       lb=0.1, source_index=i))
        queries = rng.integers(0, 20, size=(1000, 2)).astype(np.float64)
        got = one_nn_label_batch(active, queries)
        for qi in range(1000):
            best = min(range(300),
                       key=lambda j: (sum((pts[j, c] - queries[qi, c])**2
                                          for c in range(2)), j))
            assert got[qi] == labels[best]

    def test_discrete_atoms_pool(self):
        # every record and query sits on one of 256 atoms: a query on an atom
        # that holds several records ties at its window end, and the queries
        # repeat, so the d = 1 vote runs once per distinct query value
        problem = make_problem("discrete_atoms", kappa=1.0, seed=4)
        pts = problem.sample(400, substream(52, "pool"))
        labels = substream(52, "points").integers(0, 2, 400)
        active = ActiveSet()
        for i in range(400):
            active.append(ActiveRecord(point=pts[i], inferred_label=int(labels[i]),
                                       lb=0.1, source_index=i))
        queries = problem.sample(2000, substream(53, "points"))
        got = one_nn_label_batch(active, queries)
        want = [labels[nearest_order(pts, q)[0][0]] for q in queries]
        assert got.tolist() == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_queries_rejected(self, d):
        active = self._active([(np.full(d, 0.2), 0), (np.full(d, 0.8), 1)])
        for c in range(d):
            for bad in (np.nan, np.inf, -np.inf):
                queries = np.full((3, d), 0.5)
                queries[1, c] = bad
                with pytest.raises(ValueError, match="queries must be finite"):
                    one_nn_label_batch(active, queries)

    def test_query_dimension_must_match(self):
        active = self._active([(0.2, 0), (0.8, 1)])
        with pytest.raises(ValueError, match="coordinates"):
            one_nn_label_batch(active, np.array([[0.2, 0.8]]))

    def test_empty_active_set_raises(self):
        with pytest.raises(RuntimeError, match="cannot classify with an empty active set"):
            one_nn_label_batch(ActiveSet(), np.array([[0.5]]))


class TestActiveSetCsv:
    def test_round_trip(self, tmp_path):
        _, _, active, _ = run_once(seed=9)
        assert len(active) >= 1
        path = str(tmp_path / "active.csv")
        active.to_csv(path, header_comment="provenance line")
        again = ActiveSet.from_csv(path)
        assert len(again) == len(active)
        for a, b in zip(active.records, again.records):
            assert np.array_equal(a.point, b.point)
            assert a.inferred_label == b.inferred_label
            assert a.lb == b.lb
            assert a.source_index == b.source_index

    def test_exact_text(self, tmp_path):
        active = ActiveSet()
        active.append(ActiveRecord(point=np.array([0.1, 2 / 3]), inferred_label=1, lb=0.25,
                                   source_index=4))
        active.append(ActiveRecord(point=np.array([-1e-300, 5.0]), inferred_label=0,
                                   lb=1e-17, source_index=9))
        path = tmp_path / "active.csv"
        active.to_csv(str(path), header_comment="prov")
        assert path.read_text() == (
            "# prov\nx0,x1,label,lb,source_index\n"
            "0.10000000000000001,0.66666666666666663,1,0.25,4\n"
            "-1e-300,5,0,1.0000000000000001e-17,9\n")

    def test_empty_set_round_trip(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        ActiveSet().to_csv(path, header_comment="provenance line")
        assert open(path).read().splitlines()[1] == "label,lb,source_index"
        assert len(ActiveSet.from_csv(path)) == 0

    @pytest.mark.parametrize("body,match", [
        ("y0,label,lb,source_index\n0.5,1,0.1,0\n", "header"),
        ("x0,x1,label,lb,source_index\n0.5,1,0.1,0\n", "fields"),
        ("x0,label,lb,source_index\n0.5,0.25,1,0.1,0\n", "fields"),
        ("x0,label,lb\n0.5,1,0.1\n", "header"),
        ("# comment only\n", "no header"),
        ("label,lb,source_index\n1,0.1,0\n", "bad.csv: record 1: it has no coordinates"),
    ])
    def test_rejects_other_layouts(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=match):
            ActiveSet.from_csv(str(path))

    def test_classifier_wrapper(self):
        # the evaluators wrap one_nn_label_batch as a batch classifier: a batch
        # gets the labels its queries get one at a time
        _, _, active, _ = run_once(seed=10)
        X = substream(11, "evaluation").random((32, 1))
        one_by_one = [one_nn_label_batch(active, x[None, :])[0] for x in X]
        assert np.array_equal(one_nn_label_batch(active, X), one_by_one)
