from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

import kalls.core
import kalls.pool
from kalls.core import (RELIABLE_ACCEPT_RATIO, AbstainEmpty, ActiveRecord, ActiveSet,
                        EmptyActiveSet, PerPointRecord, RunTrace, confident_label,
                        one_nn_label_batch, reliable, run_kalls)
from kalls.estimation import BerEstResult, _stage_loop
from kalls.pool import (LabelOracle, Pool, center_order, nearest_order, neighbor_order,
                        sq_dists)
from kalls.seeding import substream
from kalls.synth import make_problem
from kalls.thresholds import (KallsConfig, MarginParams, SmoothnessParams,
                              adaptive_budget_bound, confidence_radius, per_point_delta)

DELTA_S = 0.0015625  # delta = 0.05 at scan position s = 1


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
        with pytest.raises(AbstainEmpty):
            confident_label(pool, oracle, 0, k_prime=5, t_budget=0, delta_s=DELTA_S)

    def test_majority_convention_at_half(self):
        # eta_hat exactly 1/2 labels 1
        pool = Pool(np.array([[0.0], [0.1], [0.2]]))
        oracle = LabelOracle(pool, lambda X: np.array([0.5, 1.0, 0.0])[: X.shape[0]],
                             10, seed=3)
        oracle._labels = np.array([0, 1, 0])  # pin the realization: neighbors of 0 are 1,0
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
            assert out.q.shape == (k, 2) and out.q.dtype == np.int64
            assert out.cut_off_fired == (k < 200)
            assert np.array_equal(out.q[:, 0], neighbor_order(pool, center)[:k])
            assert np.array_equal(out.q[:, 1], oracle.peek_labels(out.q[:, 0]))
            assert out.eta_hat == out.q[:, 1].mean()


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
            labels = oracle.peek_labels(neighbor_order(pool, s))[:cap]
            k = next((k for k in range(1, cap + 1)
                      if abs(labels[:k].sum() / k - 0.5) > 2 * confidence_radius(delta_s, k)),
                     None)
            out = confident_label(pool, oracle, s, k_prime=10**6, t_budget=cap,
                                  delta_s=delta_s)
            k_star = cap if k is None else k
            assert out.q.dtype == np.int64 and out.q.shape == (k_star, 2)
            assert out.q[:, 0].tolist() == neighbor_order(pool, s)[:k_star].tolist()
            assert out.q[:, 1].tolist() == labels[:k_star].tolist()
            assert out.eta_hat == labels[:k_star].sum() / k_star
            assert out.cut_off_fired == (k is not None)
            caps.append(cap)
            fired.append(out.cut_off_fired)
        assert oracle.remaining_budget == 0
        assert all(a > b for a, b in zip(caps, caps[1:]))
        assert any(fired) and not fired[-1]


def pool_reliable(pool, x_index, delta_s, smooth, active, u_const, rng):
    """``reliable`` for pool point ``x_index``: its sorted pool row from
    ``center_order``, as ``run_kalls`` takes it, and each record's from a fresh
    ``sq_dists`` row of the record's point."""
    x_row = np.concatenate(([0.0], center_order(pool, x_index)[1]))
    rows = [np.sort(sq_dists(pool.points, r.point)[0]) for r in active.records]
    return reliable(pool.points[x_index], x_row, delta_s, smooth, active, rows,
                    u_const, rng)


class TestReliable:
    def _smooth(self):
        return SmoothnessParams(alpha=1.0, L=2.0, d=1)

    def test_empty_active_set_is_never_reliable(self):
        pool = uniform_pool(50, seed=41)
        assert pool_reliable(pool, 0, DELTA_S, self._smooth(), ActiveSet(), 50,
                             substream(1, "estimation")) is False

    def test_zero_distance_record_is_reliable(self):
        pool = uniform_pool(50, seed=42)
        active = ActiveSet()
        active.append(ActiveRecord(point=pool.points[9].copy(), inferred_label=1,
                                   lb=0.3, source_index=2))
        assert pool_reliable(pool, 9, DELTA_S, self._smooth(), active, 50,
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
                                             50, substream(trial, "estimation", 7))
        assert false_count >= 180

    def test_short_circuit_and_full_eval_agree_here(self):
        pool = uniform_pool(500, seed=44)
        active = ActiveSet()
        for j, src in ((3, 1), (200, 5)):
            active.append(ActiveRecord(point=pool.points[j].copy(), inferred_label=0,
                                       lb=0.2, source_index=src))
        # a zero-distance record is present
        assert pool_reliable(pool, 3, DELTA_S, self._smooth(), active, 50,
                             substream(9, "estimation")) is True


def reference_reliable(points, x, delta_s, smooth, active, u_const, rng):
    """``reliable`` for ``x`` with a fresh distance row to the pool ``points``
    per ball, counted with ``count_nonzero(d2 < r2)``: the reference the
    sorted rows must match."""
    if not active.records:
        return False
    order, d2 = nearest_order(active.points(), x)
    d2_x = sq_dists(points, x)[0]
    for j in order:
        rec = active.records[j]
        eps_o = (rec.lb / (64.0 * smooth.L)) ** (smooth.d / smooth.alpha)
        radius = float(np.sqrt(d2[j]))
        for row in (sq_dists(points, rec.point)[0], d2_x):
            p = int(np.count_nonzero(row < radius * radius)) / row.shape[0]
            res = _stage_loop(lambda n: int(rng.binomial(n, p)), eps_o, delta_s, u_const)
            if res.p_hat <= RELIABLE_ACCEPT_RATIO * eps_o:
                return True
    return False


class TestSortedRows:
    """``run_kalls`` takes one ``center_order`` per scanned point; ``reliable``
    counts its balls on the sorted pool row it gives, which an accepted point
    keeps as its record's row.  The estimation stream must be that of a fresh
    distance row per ball."""

    @staticmethod
    def _noiseless_run(d, seed, reference=False):
        family = "power_margin_uniform_1d" if d == 1 else "product_uniform_nd"
        problem = make_problem(family, kappa=0.0, d=d, seed=0)
        pts = problem.sample(1500, substream(seed, "pool"))
        # the first 30 points come twice, so records at distance 0 (radius 0,
        # an empty ball) make skips in d = 2 too
        pool = Pool(np.vstack([pts[:30], pts]))
        oracle = LabelOracle(pool, problem.eta, 60_000, seed=seed)
        config = KallsConfig(epsilon=0.4, delta=0.5, n=60_000)
        rng = substream(seed, "estimation")

        def fresh_rows(x, x_row, delta_s, smooth, active, rows, u_const, rng):
            return reference_reliable(pool.points, x, delta_s, smooth, active, u_const, rng)

        with pytest.MonkeyPatch.context() as m:
            if reference:
                m.setattr(kalls.core, "reliable", fresh_rows)
            active, trace = run_kalls(pool, oracle, config,
                                      SmoothnessParams(alpha=1.0, L=1.2, d=d),
                                      problem.certified_margin, est_rng=rng)
        return active, trace, rng.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2])
    def test_stream_matches_fresh_distance_rows(self, d):
        skips = 0
        for seed in (1, 2, 3):
            active, trace, state = self._noiseless_run(d, seed)
            ref_active, ref_trace, ref_state = self._noiseless_run(d, seed, reference=True)
            assert trace.per_point == ref_trace.per_point
            assert trace.reliable_skips == ref_trace.reliable_skips
            assert state == ref_state
            assert len(active) == len(ref_active) > 1
            skips += trace.reliable_skips
        assert skips > 0  # the test passes as well as fails

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
                                 active, 50, substream(x_index, "estimation")) == \
                reference_reliable(second.points, second.points[x_index], 0.01,
                                   SmoothnessParams(1.0, 1.2, 2), active, 50,
                                   substream(x_index, "estimation"))

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_pool_order_per_scanned_point(self, d, monkeypatch):
        centers = []

        def spy(pool, center_index):
            centers.append(center_index)
            return center_order(pool, center_index)

        def forbidden(*args, **kwargs):
            raise AssertionError("a pool distance row outside the scan step's center_order")

        monkeypatch.setattr(kalls.core, "center_order", spy)
        for owner in (kalls.core, kalls.pool):
            monkeypatch.setattr(owner, "neighbor_order", forbidden)
        monkeypatch.setattr(Pool, "sq_dists_from", forbidden)
        active, trace, _ = self._noiseless_run(d, seed=1)
        assert centers == list(range(trace.points_scanned))
        assert trace.reliable_skips > 0 and len(active) > 1



class TestReliableCounts:
    """``reliable`` counts every ball before ``est_prob`` draws: one
    ``searchsorted`` of all the squared radii in X's row, and one in each
    reached record's row.  Each count must be ``count_nonzero(d2 < r2)`` on a
    fresh distance row, with ties, duplicate points and radius 0."""

    def test_counts_are_count_nonzero(self, monkeypatch):
        calls = []

        def recording(in_ball, w, eps_o, u, delta_prime, rng):
            calls.append((in_ball, w, eps_o))
            return BerEstResult(1.0, 8, True)  # never passes: every record is reached

        monkeypatch.setattr(kalls.core, "est_prob", recording)
        lattice = substream(46, "pool").integers(0, 4, (120, 2)).astype(np.float64)
        pool = Pool(np.vstack([lattice, lattice[:10]]))  # ties, and 10 points twice
        smooth = SmoothnessParams(alpha=1.0, L=1.2, d=2)
        empty = exact = 0
        # X and the other copies of X's point
        for x_index, twins in ((0, [120]), (3, [123]), (50, []), (125, [5])):
            active = ActiveSet()
            # records on X itself and on its twins (radius 0), and others
            for src in sorted({1, 5, 9, 40, 77, 120, x_index, *twins}):
                active.append(ActiveRecord(point=pool.points[src].copy(), inferred_label=1,
                                           lb=0.1 + src / 1000.0, source_index=src))
            calls.clear()
            assert pool_reliable(pool, x_index, DELTA_S, smooth, active, 50,
                                 substream(1, "estimation")) is False
            order, d2 = nearest_order(active.points(), pool.points[x_index])
            x_d2 = sq_dists(pool.points, pool.points[x_index])[0]
            want = []
            for j in order.tolist():
                rec = active.records[j]
                radius = float(np.sqrt(d2[j]))
                eps_o = (rec.lb / (64.0 * smooth.L)) ** (smooth.d / smooth.alpha)
                for row in (sq_dists(pool.points, rec.point)[0], x_d2):
                    want.append((int(np.count_nonzero(row < radius * radius)), pool.w, eps_o))
                    exact += radius * radius in row
            assert calls == want, x_index
            empty += sum(c == 0 for c, _, _ in want)
        assert empty >= 8 and exact > 0  # radius-0 balls, and radii on a pool distance


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

    def test_two_point_pool_first_point_informative(self):
        pool = Pool(np.array([[0.2], [0.8]]))
        oracle = LabelOracle(pool, flat_eta(1.0), 100, seed=2)
        config = KallsConfig(epsilon=0.2, delta=0.05, n=100)
        smooth = SmoothnessParams(alpha=1.0, L=2.0, d=1)
        _, trace = run_kalls(pool, oracle, config, smooth, MarginParams(beta=1, C=2),
                             est_rng=substream(2, "estimation"))
        assert trace.informative_indices[0] == 1
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
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"

        records = [PerPointRecord(s=s, q_size=3 * s, lb=0.1 * s - 0.2, accepted=s % 2 == 0,
                                  eta_hat=s / 7, y_hat=s % 2, cut_off_fired=s == 3,
                                  k_cap=100, k_tilde=None if s % 3 else 12.5 * s)
                   for s in range(1, 7)]
        trace = RunTrace(informative_indices=[1, 2, 3, 4, 5, 6], labels_spent=63,
                         stopped_reason="budget_exhausted", per_point=records,
                         points_scanned=9, reliable_skips=3)
        config = {"budgets": [200], "problem": {"family": "x", "kappa": 1.0}}
        for seed in (None, 4):
            assert trace.to_json(config, "v", resolved_seed=seed) == \
                asdict_json(trace, config, "v", resolved_seed=seed)
        _, _, _, run = run_once(seed=4, w=500, n=800)
        assert run.to_json(config, "v") == asdict_json(run, config, "v")
        assert RunTrace().to_json({}, "v") == asdict_json(RunTrace(), {}, "v")

    def test_budget_safety_and_strict_accounting(self):
        _, config, _, trace = run_once(seed=2)
        assert trace.labels_spent <= config.n
        assert trace.labels_spent == sum(p.q_size for p in trace.per_point)

    def test_acceptance_filter_recomputed_from_trace(self):
        _, config, active, trace = run_once(seed=3)
        by_s = {p.s: p for p in trace.per_point}
        assert len(active) >= 1
        for rec in active.records:
            entry = by_s[rec.source_index + 1]
            b = confidence_radius(per_point_delta(config.delta, entry.s),
                                  entry.q_size)
            assert entry.accepted
            assert rec.lb >= config.lb_factor * b
            assert rec.lb == entry.lb

    def test_rejected_entries_fail_the_filter(self):
        _, config, _, trace = run_once(seed=4)
        for entry in trace.per_point:
            b = confidence_radius(per_point_delta(config.delta, entry.s),
                                  entry.q_size)
            assert entry.accepted == (entry.lb >= config.lb_factor * b)

    def test_monotone_trace(self):
        _, _, active, trace = run_once(seed=5)
        idx = trace.informative_indices
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
        with pytest.raises(EmptyActiveSet):
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
