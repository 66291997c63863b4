from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.stats import binom, chi2_contingency

import kalls.estimation
from kalls.estimation import (BerEstResult, _stage_loop, ber_est,
                              ber_est_max_stage, cut_bound, est_prob, est_prob_from_sq_dists,
                              g_factor, stage_table)
from kalls.pool import sq_dists
from kalls.seeding import substream
from kalls.thresholds import SmoothnessParams, per_point_delta

# Standard parameters used throughout: accuracy 0.1, confidence 0.1, budget 50.
EPS_O, DELTA_P, U = 0.1, 0.1, 50


def scalar_cut(in_ball, w, stages, accept):
    """The Chernoff cut of one ball of ``in_ball`` of the ``w`` pool points,
    as a scalar: the reference ``cut_bound`` must match.  A pass, p_hat <=
    a = ``accept``, needs one of the last n_rel stages, those whose
    threshold is below a (or the last alone), the first of them m_rel
    draws; the ball is cut where p = in_ball / w > a and
    m_rel (p - a)^2 > 2p (70 ln 2 + ln n_rel)."""
    n = 1
    while n < len(stages) and stages[-n - 1][1] < accept:
        n += 1
    return chernoff_cut(in_ball, w, stages[-n][0], n, accept)


def chernoff_cut(in_ball, w, m_rel, n_rel, accept):
    """``scalar_cut`` at m_rel and n_rel."""
    p = in_ball / w
    return p > accept and m_rel * (p - accept) ** 2 > 2.0 * p * (70.0 * math.log(2.0)
                                                                 + math.log(n_rel))


def first_cut(eps_o, delta_prime, u, accept, w):
    """c*: ``cut_bound`` at one delta'."""
    return cut_bound(eps_o, delta_prime, delta_prime, u, accept, w)


def const_sampler(value):
    return lambda count: np.full(count, value, dtype=np.int64)


def sq_row(points, center):
    """``est_prob_from_sq_dists``'s input: the squared distances from
    ``center`` to the points, in pool order."""
    pts = np.asarray(points, dtype=np.float64)
    return sq_dists(pts if pts.ndim == 2 else pts[:, None], center)[0]


class TestGFactor:
    def test_matches_hardcoded_ratios(self):
        g = g_factor(50)
        assert abs(g - 1.2533333333333333) < 1e-15
        assert abs(1.0 / g - 75.0 / 94.0) < 1e-12
        assert abs((2.0 - g) / g - 28.0 / 47.0) < 1e-12

    def test_boundary_and_limit(self):
        assert g_factor(7) == pytest.approx(1.9154748647772297, rel=1e-12)
        assert g_factor(7) < 2.0
        assert g_factor(10**9) == pytest.approx(1.0, abs=1e-4)

    def test_decreasing(self):
        vals = [g_factor(t) for t in (7, 10, 50, 500, 10**6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            g_factor(6)


class TestBerEst:
    def test_stage_bound_frozen(self):
        # K = 2000*log(40000) ~ 21193.27; floor(log2(50*log(2K/0.1)/0.1)) = 12
        assert ber_est_max_stage(EPS_O, DELTA_P, U) == 12

    def test_constant_zero_runs_to_the_last_stage(self):
        res = ber_est(const_sampler(0), EPS_O, DELTA_P, U)
        assert res == BerEstResult(p_hat=0.0, draws_used=4096, terminated_early=False)

    def test_constant_one_breaks_at_first_clearing_stage(self):
        # smallest m = 2^i with 1 > u*log(2m/delta')/m, scanned independently
        expected = next(2**i for i in range(3, 13)
                        if 1.0 > U * math.log(2.0 * 2**i / DELTA_P) / 2**i)
        assert expected == 512
        res = ber_est(const_sampler(1), EPS_O, DELTA_P, U)
        assert res == BerEstResult(p_hat=1.0, draws_used=512, terminated_early=True)

    def test_p_hat_times_draws_is_integer(self):
        rng = substream(3, "estimation")
        for p in (0.05, 0.3, 0.7):
            res = ber_est(lambda c: (rng.random(c) < p).astype(np.int64),
                          EPS_O, DELTA_P, U)
            ones = res.p_hat * res.draws_used
            assert ones == round(ones)
            assert res.draws_used >= 4
            assert res.draws_used <= 2**ber_est_max_stage(EPS_O, DELTA_P, U)

    def test_sampler_exhaustion_is_distinct(self):
        def short_sampler(count):
            return np.zeros(min(count, 100), dtype=np.int64)

        with pytest.raises(RuntimeError, match="sampler returned"):
            ber_est(short_sampler, EPS_O, DELTA_P, U)

    def test_param_domains(self):
        s = const_sampler(0)
        with pytest.raises(ValueError):
            ber_est(s, 0.0, 0.1, 50)
        with pytest.raises(ValueError):
            ber_est(s, 0.1, 1.0, 50)
        with pytest.raises(ValueError):
            ber_est(s, 0.1, 0.1, 6)


class TestEstProb:
    def _uniform_pool(self, w=1000, seed=21):
        return substream(seed, "pool").random((w, 1))

    def test_zero_radius_open_ball_is_empty(self):
        pts = self._uniform_pool()
        res = est_prob_from_sq_dists(sq_row(pts, pts[3]), 0.0, EPS_O, U, DELTA_P,
                                     substream(1, "estimation"))
        assert res.p_hat == 0.0
        assert not res.terminated_early

    def test_huge_radius_breaks_early(self):
        pts = self._uniform_pool()
        res = est_prob_from_sq_dists(sq_row(pts, np.array([0.5])), 2.0, EPS_O, U, DELTA_P,
                                     substream(2, "estimation"))
        assert res.p_hat == 1.0
        assert res.terminated_early
        assert res.draws_used == 512  # constant-1 stream under these parameters

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            est_prob_from_sq_dists(sq_row(self._uniform_pool(), np.array([0.5])), -0.1,
                                   EPS_O, U, DELTA_P, substream(3, "estimation"))

    @pytest.mark.parametrize("radius", [np.nan, -np.inf, -0.1])
    def test_radius_that_is_not_nonnegative_rejected(self, radius):
        # d2 < NaN holds nowhere, so a NaN radius would read as an empty ball
        d2 = (self._uniform_pool()[:, 0] - 0.5) ** 2
        with pytest.raises(ValueError, match="radius"):
            est_prob_from_sq_dists(d2, radius, EPS_O, U, DELTA_P,
                                   substream(3, "estimation"))

    def test_monotone_coupling_in_radius(self):
        # Shared draw stream (same seed): enlarging the ball can only turn 0s
        # into 1s, so p_hat cannot decrease at equal draws_used and the break
        # cannot happen later.
        pts = self._uniform_pool()
        center = np.array([0.5])
        results = []
        for radius in (0.02, 0.05):
            res = est_prob_from_sq_dists(sq_row(pts, center), radius, EPS_O, U, DELTA_P,
                                         substream(4, "estimation"))
            results.append(res)
        small, big = results
        assert big.draws_used <= small.draws_used
        if big.draws_used == small.draws_used:
            assert big.p_hat >= small.p_hat

    def test_dichotomy_near_true_mass(self):
        # epsilon_o at the exact pool mass puts the target inside both branches
        # of the guarantee, so the conclusion should essentially always hold.
        pts = self._uniform_pool()
        center, radius = np.array([0.5]), 0.1
        true_mass = float(np.mean(np.abs(pts[:, 0] - 0.5) < radius))
        assert true_mass == pytest.approx(0.2, abs=0.05)
        eps_o = true_mass
        g = g_factor(U)
        holds = 0
        for trial in range(200):
            res = est_prob_from_sq_dists(sq_row(pts, center), radius, eps_o, U, DELTA_P,
                                         substream(trial, "estimation", 5))
            if res.p_hat <= eps_o / g:
                ok = true_mass <= eps_o
            else:
                ok = true_mass >= (2.0 - g) / g * eps_o
            holds += ok
        assert holds >= 180  # failure budget delta' = 10%


class _RecordingRng:
    """Stands in for the generator: records each ``binomial(n, p)`` call and
    draws no ones, so ``p`` exposes the in-ball count c/w."""

    def __init__(self):
        self.calls = []

    def binomial(self, n, p):
        self.calls.append((n, p))
        return 0


class TestSortedCount:
    """``reliable`` counts every ball around X with one ``searchsorted`` of all
    the squared radii in X's sorted row, and a record's ball with one
    ``searchsorted`` in the record's sorted row; ``est_prob_from_sq_dists``
    counts ``count_nonzero(d2 < r2)`` on an unsorted row.  The three counts
    must be equal exactly."""

    @staticmethod
    def _pools():
        rng = substream(31, "pool")
        one = rng.random((150, 1))
        two = rng.random((150, 2))
        lattice = rng.integers(0, 4, (150, 2)).astype(np.float64)
        # every pool repeats some of its points
        return [np.vstack([p, p[:40], p[:5]]) for p in (one, two, lattice)]

    @staticmethod
    def _radii(d2):
        # 0, each pool distance after the sqrt round trip (r * r may land on
        # d2 or an ulp off it), the neighbouring floats, and inf
        roots = np.sqrt(np.unique(d2))
        return np.concatenate([[0.0, np.inf], roots, np.nextafter(roots, 0.0),
                               np.nextafter(roots, np.inf)])

    def test_count_is_count_nonzero(self):
        exact = 0
        for pts in self._pools():
            for center in pts[[0, 1, 7, -1]]:
                d2 = sq_dists(pts, center)[0]
                row = np.sort(d2)
                radii = self._radii(d2)
                r2 = radii * radii  # reliable squares all its radii in one array op
                one_pass = row.searchsorted(r2).tolist()
                for radius, r2_k, count in zip(radii.tolist(), r2.tolist(), one_pass):
                    assert r2_k == radius * radius  # bit for bit the scalar square
                    want = int(np.count_nonzero(d2 < r2_k))
                    exact += r2_k in d2
                    assert count == int(row.searchsorted(r2_k)) == want, (center, radius)
                    rng = _RecordingRng()
                    est_prob_from_sq_dists(d2, radius, EPS_O, U, DELTA_P, rng)
                    # an empty ball draws nothing
                    assert {p for _, p in rng.calls} == ({want / d2.shape[0]} if want
                                                         else set()), (center, radius)
        assert exact > 0  # some radii land exactly on a pool distance

    def test_same_draws_as_the_unsorted_row(self):
        pts = self._pools()[1]
        d2 = sq_dists(pts, pts[3])[0]
        row = np.sort(d2)
        for radius in (0.0, 0.1, 0.3, float(np.sqrt(d2[9])), np.inf):
            in_ball = int(row.searchsorted(float(radius) * float(radius)))
            a = est_prob(in_ball, row.shape[0], stage_table(EPS_O, DELTA_P, U),
                         substream(5, "estimation"))
            b = est_prob_from_sq_dists(d2, radius, EPS_O, U, DELTA_P,
                                       substream(5, "estimation"))
            assert a == b


class TestBinomialStream:
    """``est_prob`` draws each stage's ones as one binomial over the exact
    in-ball count.  Its law of (draws_used, ones) must equal that of drawing
    pool indices uniformly with replacement and testing membership."""

    @staticmethod
    def _histogram(results):
        counts = {}
        for res in results:
            key = (res.draws_used, round(res.p_hat * res.draws_used))
            counts[key] = counts.get(key, 0) + 1
        return counts

    @staticmethod
    def _pooled_table(a, b, min_expected=5.0):
        # merge cells in key order until each merged cell expects >= 5 per sample
        rows, acc_a, acc_b = [], 0, 0
        for key in sorted(set(a) | set(b)):
            acc_a += a.get(key, 0)
            acc_b += b.get(key, 0)
            if (acc_a + acc_b) / 2.0 >= min_expected:
                rows.append([acc_a, acc_b])
                acc_a = acc_b = 0
        if acc_a + acc_b:
            if rows:
                rows[-1][0] += acc_a
                rows[-1][1] += acc_b
            else:
                rows.append([acc_a, acc_b])
        return np.asarray(rows, dtype=np.int64).T

    # (radius, epsilon_o, i_max, terminated_early values): ball masses 0.020,
    # 0.113 and 0.298 on the pool.  At mass 0.020 the last stage (32768 draws,
    # threshold 0.0207) both stops early and runs out; 0.113 always runs the
    # full 4096 draws; 0.298 stops early, at 2048 draws in all but a few trials.
    @pytest.mark.parametrize("radius,eps_o,i_max,early", [
        (0.01, 0.02, 15, {True, False}),
        (0.05, 0.1, 12, {False}),
        (0.15, 0.1, 12, {True}),
    ])
    def test_same_law_as_index_draws(self, radius, eps_o, i_max, early):
        pts = substream(21, "pool").random((1000, 1))
        d2 = (pts[:, 0] - 0.5) ** 2
        r2 = radius * radius
        w = d2.shape[0]
        assert ber_est_max_stage(eps_o, DELTA_P, U) == i_max
        trials = 2000
        rng_b = substream(7, "estimation", 1)
        in_ball = int(np.count_nonzero(sq_row(pts, np.array([0.5])) < r2))
        binomial = [est_prob(in_ball, w, stage_table(eps_o, DELTA_P, U), rng_b)
                    for _ in range(trials)]
        rng_i = substream(7, "estimation", 2)
        index = [ber_est(lambda n: d2[rng_i.integers(0, w, n)] < r2, eps_o, DELTA_P, U)
                 for _ in range(trials)]

        assert {r.terminated_early for r in binomial} == early
        table = self._pooled_table(self._histogram(binomial), self._histogram(index))
        assert table.shape[1] >= 10
        assert chi2_contingency(table).pvalue > 1e-3


class TestDeadStages:
    """A stage whose threshold is >= 1 cannot stop the loop (a running mean is
    at most 1), so its draws are merged into the first stage that can.  The
    law of (draws_used, ones) must be that of running every stage 3..i_max."""

    @staticmethod
    def _every_stage(p, epsilon_o, delta_prime, u, rng):
        """The loop over every stage m = 2^3 .. 2^i_max, one binomial each."""
        i_max = ber_est_max_stage(epsilon_o, delta_prime, u)
        ones = m = 0
        for i in range(3, i_max + 1):
            ones += int(rng.binomial(2**i - m, p))
            m = 2**i
            if ones / m > u * math.log(2.0 * m / delta_prime) / m:
                return BerEstResult(ones / m, m, True)
        return BerEstResult(ones / m, m, False)

    @pytest.mark.parametrize("eps_o", [1 - 1e-12, 1e-12])
    @pytest.mark.parametrize("delta_prime", [1 - 1e-12, 1e-12])
    def test_table_nonempty_at_domain_corners(self, eps_o, delta_prime):
        # u = 7 is the smallest u; eps_o and delta' just inside (0, 1)
        assert ber_est_max_stage(eps_o, delta_prime, 7) >= 5
        assert stage_table(eps_o, delta_prime, 7)

    def test_only_live_stages_or_the_last(self):
        kinds = set()
        for eps_o, dp, u in itertools.product((0.9, 0.5, 0.1, 1e-2, 1e-4),
                                              (0.5, 0.1, 1e-3, 1e-6, 1e-9),
                                              (7, 20, 50, 200)):
            i_max = ber_est_max_stage(eps_o, dp, u)
            stages = stage_table(eps_o, dp, u)
            # the smallest 2^i whose threshold is < 1, scanned independently
            live = [2**i for i in range(3, i_max + 1)
                    if u * math.log(2.0 * 2**i / dp) / 2**i < 1.0]
            first = live[0] if live else 2**i_max
            assert [m for m, _ in stages] == [first << j for j in range(len(stages))], \
                (eps_o, dp, u)
            assert stages[-1][0] == 2**i_max, (eps_o, dp, u)
            assert all(t < 1.0 for _, t in stages) or len(stages) == 1, (eps_o, dp, u)
            assert stages == tuple((m, u * math.log(2.0 * m / dp) / m) for m, _ in stages)
            kinds.add("lone" if stages[0][1] >= 1.0 else "merged")
        # the grid, which includes reliable's u = 50 down to delta' = 1e-9,
        # reaches both kinds of table (u >= 7 keeps i_max >= 3)
        assert kinds == {"lone", "merged"}

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_sampler_requests(self, p):
        stages = stage_table(EPS_O, DELTA_P, U)
        m_live = stages[0][0]
        assert m_live == 512
        requests = []
        rng = substream(11, "estimation")

        def sampler(count):
            requests.append(count)
            return (rng.random(count) < p).astype(np.int64)

        res = ber_est(sampler, EPS_O, DELTA_P, U)
        assert requests == [m_live] + [m_live << j for j in range(len(requests) - 1)]
        assert sum(requests) == res.draws_used

    # (mass, terminated_early values) with epsilon_o = delta' = 0.1: mass 0.9
    # stops at 512 or 1024 draws, 0.3 at 2048 in all or nearly all trials,
    # 0.02 never stops and runs all 4096 draws
    @pytest.mark.parametrize("mass,early", [
        (0.9, {True}),
        (0.3, {True}),
        (0.02, {False}),
    ])
    def test_same_law_as_every_stage(self, mass, early):
        w = 1000
        pts = ((np.arange(w) + 0.5) / w)[:, None]
        center = np.array([0.0])
        assert np.count_nonzero(pts[:, 0] < mass) == round(mass * w)
        trials = 2000
        rng_m = substream(8, "estimation", 1)
        in_ball = int(np.count_nonzero(sq_row(pts, center) < mass * mass))
        merged = [est_prob(in_ball, w, stage_table(EPS_O, DELTA_P, U), rng_m)
                  for _ in range(trials)]
        rng_e = substream(8, "estimation", 2)
        every = [self._every_stage(mass, EPS_O, DELTA_P, U, rng_e) for _ in range(trials)]

        assert {r.terminated_early for r in merged} == early
        hist = TestBinomialStream._histogram
        table = TestBinomialStream._pooled_table(hist(merged), hist(every))
        assert table.shape[1] >= 10
        assert chi2_contingency(table).pvalue > 1e-3


class TestEmptyBall:
    """An empty ball draws nothing: its result is the one the stage loop gets
    from Binomial(n, 0) draws, which leave numpy's generator as it was."""

    @pytest.mark.parametrize("eps_o,delta_prime", [(0.1, 0.1), (1e-3, 1e-6), (1e-12, 1e-9)])
    def test_result_and_stream_are_the_loops(self, eps_o, delta_prime):
        rng, loop_rng = substream(12, "estimation"), substream(12, "estimation")
        before = rng.bit_generator.state
        res = est_prob(0, 1000, stage_table(eps_o, delta_prime, U), rng)
        loop = _stage_loop(lambda n: int(loop_rng.binomial(n, 0.0)),
                           stage_table(eps_o, delta_prime, U))
        assert res == loop == BerEstResult(0.0, 2 ** ber_est_max_stage(eps_o, delta_prime, U),
                                           False)
        assert rng.bit_generator.state == loop_rng.bit_generator.state == before

    def test_tiny_accuracy_does_not_overflow(self):
        # (lb/64L)^(d/alpha) far below 1e-17 puts the last stage past numpy's
        # C long, which a draw of that size cannot take
        eps_o = 1e-20
        i_max = ber_est_max_stage(eps_o, DELTA_P, U)
        assert i_max >= 63
        with pytest.raises(OverflowError):
            substream(13, "estimation").binomial(2 ** i_max, 0.0)
        rng = substream(13, "estimation")
        before = rng.bit_generator.state
        assert est_prob(0, 1000, stage_table(eps_o, DELTA_P, U), rng) == \
            BerEstResult(0.0, 2 ** i_max, False)
        assert rng.bit_generator.state == before


class _ScriptedRng:
    """Stands in for the generator: keeps the running mean at the stage
    threshold (not above it) until stage ``stop``, where it goes just above."""

    def __init__(self, stages, stop):
        self.stages, self.stop, self.calls, self.ones = stages, stop, [], 0

    def binomial(self, n, p):
        k = len(self.calls)
        m, threshold = self.stages[k]
        self.calls.append(n)
        ones = min(math.floor(threshold * m) + (k == self.stop), m)
        new, self.ones = ones - self.ones, ones
        assert 0 <= new <= n
        return new


class TestStageTable:
    def test_est_prob_runs_the_table_of_its_parameters(self):
        # m * threshold is exact for m a power of 2, so floor(m * threshold) / m
        # is the largest running mean that does not stop the stage
        kinds = set()
        for eps_o, dp in itertools.product((0.9, 0.3, 0.1, 1e-2, 1e-4, 1e-8),
                                           (0.5, 0.1, 1e-3, 1e-6, 1e-9)):
            stages = stage_table(eps_o, dp, U)
            steps = [b - a for a, b in zip([0] + [m for m, _ in stages], [m for m, _ in stages])]
            live = stages[0][1] < 1.0
            for stop in range(len(stages) + live):
                rng = _ScriptedRng(stages, stop if live else None)
                res = est_prob(1, 2, stages, rng)
                last = min(stop, len(stages) - 1)
                assert rng.calls == steps[:last + 1], (eps_o, dp, stop)
                assert res.draws_used == stages[last][0]
                assert res.terminated_early == (live and stop < len(stages))
            kinds.add(live)
        assert kinds == {True, False}  # tables that can stop and lone last stages

    def test_last_stage_holds_every_draw(self):
        # the last stage is 2^i_max, and an empty ball reports that many draws,
        # up to tables whose last stage no draw of numpy could take (i_max >= 63)
        i_maxes = set()
        for eps_o, dp, u in itertools.product((0.9, 0.1, 1e-4, 1e-8, 1e-20, 1e-40),
                                              (0.5, 1e-3, 1e-9), (7, 50)):
            i_max = ber_est_max_stage(eps_o, dp, u)
            i_maxes.add(i_max)
            assert stage_table(eps_o, dp, u)[-1][0] == 2**i_max, (eps_o, dp, u)
            res = est_prob(0, 1000, stage_table(eps_o, dp, u), substream(14, "estimation"))
            assert res.draws_used == 2**i_max, (eps_o, dp, u)
        assert max(i_maxes) >= 63



class TestPassNegligible:
    """c* (``cut_bound`` at one delta') cuts a ball only where ``est_prob`` passes,
    p_hat <= accept, with probability below 2^-64.  A pass needs a stage
    where the loop can end with that estimate: one whose threshold is below
    accept (an early stop has p_hat above its threshold), or the last.  So
    the sum of P(Binomial(m_s, p) <= floor(accept * m_s)) over those stages
    bounds it, which scipy computes; m_s is a power of 2, so
    ``ones / m_s <= accept`` is exactly ``ones <= floor(accept * m_s)``."""

    @staticmethod
    def _pass_bound(stages, accept, p):
        last = len(stages) - 1
        return sum(binom.cdf(math.floor(accept * m), m, p)
                   for i, (m, threshold) in enumerate(stages) if threshold < accept or i == last)

    def test_cuts_only_where_a_pass_is_below_2_to_the_minus_64(self):
        stage_counts, boundaries = set(), []
        # accept 75/94 eps_o, as reliable takes it, and 2.5 eps_o, where some
        # stages before the last have thresholds below accept
        for eps_o, dp, ratio, w in itertools.product((0.3, 0.05, 5e-3, 1e-4),
                                                     (0.1, 1e-3, 4e-10), (75 / 94, 2.5),
                                                     (2000, 20000, 10**6)):
            stages = stage_table(eps_o, dp, U)
            accept = ratio * eps_o
            stage_counts.add(sum(threshold < accept for _, threshold in stages))
            # 1001 counts from 0 to w, and up to 5,000 more in a row from
            # accept * w up, where the cut begins at reliable's accuracies
            start = math.floor(accept * w)
            counts = np.union1d(np.arange(start, min(w, start + 5_000) + 1),
                                np.linspace(0, w, 1001).astype(np.int64))
            cut = counts >= first_cut(eps_o, dp, U, accept, w)
            # the cut is the scalar predicate at every count
            assert cut.tolist() == [scalar_cut(int(c), w, stages, accept) for c in counts], \
                (eps_o, dp, ratio, w)
            assert not cut[counts <= accept * w].any(), (eps_o, dp, ratio, w)
            if not cut.any():
                continue
            first = int(cut.argmax())
            bound = self._pass_bound(stages, accept, counts[first:] / w)
            assert bound.max() < 2.0**-64, (eps_o, dp, ratio, w)
            below = counts[first] - 1
            # just below the cut, at the accuracies reliable takes (at most
            # (1/128)^(d/alpha)), a pass is still far likelier: not vacuous
            if eps_o <= 1 / 128 and below / w > accept and counts[first - 1] == below:
                boundaries.append(self._pass_bound(stages, accept, below / w))
        assert len(boundaries) >= 20 and min(boundaries) > 2.0**-100
        assert {0, 1} < stage_counts  # the last stage alone, and several stages

    def test_empty_and_light_balls_are_never_cut(self):
        accept = 75 / 94 * EPS_O
        # 79 of 1000 is below accept; the whole pool is cut
        assert 79 < first_cut(EPS_O, DELTA_P, U, accept, 1000) <= 1000
        assert first_cut(EPS_O, DELTA_P, U, 0.0, 1000) >= 1  # an empty ball, even at 0


class TestCutCounts:
    """``cut_bound`` takes c* from the root of the cut's quadratic, at the
    m_rel and n_rel of the stage table.  At one delta' the bound is c*, and
    it must be the first count the scalar predicate cuts."""

    def test_cut_is_the_scalar_predicate_around_c_star(self):
        n_rels, dead, kept = set(), 0, 0
        for d, ratio, w in itertools.product((1, 2), (75 / 94, 2.5), (2000, 50_000)):
            smooth = SmoothnessParams(alpha=1.0, L=1.2, d=d)
            eps_o = [smooth.ball_accuracy(lb) for lb in (1e-3, 0.01, 0.05, 0.2, 0.5)] \
                + [0.3, 0.6, 0.9]  # tables of one dead stage
            for e, dp in itertools.product(eps_o, (0.05, per_point_delta(0.05, 10),
                                                   per_point_delta(0.05, 2000))):
                a = ratio * e
                c = cut_bound(e, dp, dp, U, a, w)
                assert type(c) is int
                stages = stage_table(e, dp, U)
                n_rels.add(min(sum(t < a for _, t in stages), 2))
                dead += stages[0][1] >= 1.0
                assert 1 <= c <= w + 1 and not scalar_cut(c - 1, w, stages, a), (e, dp, w)
                if c <= w:
                    kept += 1
                    assert scalar_cut(c, w, stages, a) and scalar_cut(c + 1, w, stages, a)
        # n_rel = 1 (no stage, or the last alone, below accept) and n_rel > 1;
        # tables of one dead stage; and cut counts
        assert n_rels == {0, 1, 2} and dead > 0 and kept > 0

    def test_root_within_a_millionth_of_a_count(self, monkeypatch):
        # bisect accept to where c* steps, so that p+ w is within 1e-9 of a
        # whole number: the predicate decides there
        predicate = []
        cut = kalls.estimation._chernoff_cut

        def counted(*args):
            predicate.append(args)
            return cut(*args)

        monkeypatch.setattr(kalls.estimation, "_chernoff_cut", counted)
        steps = 0
        for eps_o, dp, w in itertools.product((5e-3, 0.05), (1e-3, 4e-10), (20_000, 10**6)):
            stages = stage_table(eps_o, dp, U)
            lo, hi = 75 / 94 * eps_o, 0.9 * eps_o
            c_lo, c_hi = first_cut(eps_o, dp, U, lo, w), first_cut(eps_o, dp, U, hi, w)
            assert c_lo < c_hi <= w
            while hi - lo > 1e-12 * lo:
                mid = 0.5 * (lo + hi)
                if first_cut(eps_o, dp, U, mid, w) == c_lo:
                    lo = mid
                else:
                    hi = mid
            predicate.clear()
            for a in (lo, hi):
                c = first_cut(eps_o, dp, U, a, w)
                assert not scalar_cut(c - 1, w, stages, a) and scalar_cut(c, w, stages, a)
            steps += bool(predicate)
        assert steps == 8


class TestCutBand:
    """A bound over [delta_lo, delta_hi] holds at every delta' of the range:
    c*(delta') <= bound, c*(delta') the first count ``scalar_cut`` cuts on
    ``stage_table(eps_o, delta', u)``.  At one delta' the bound is c*."""

    WS = (50, 2000, 20_000)

    @staticmethod
    def _relevant(eps_o, delta_prime, accept):
        """m_rel and n_rel of ``scalar_cut`` on ``stage_table(eps_o,
        delta_prime, U)``, for an accept below 1: the last stage 2^i_max and
        each stage below it, down to 2^3, whose threshold u log(2m/delta')/m,
        computed as the table computes it, is below accept."""
        i_max, n = ber_est_max_stage(eps_o, delta_prime, U), 1
        while i_max - n >= 3 and U * math.log(2.0 * (1 << i_max - n) / delta_prime) \
                / (1 << i_max - n) < accept:
            n += 1
        return 1 << i_max - n + 1, n

    @staticmethod
    def _c_star(m_rel, n_rel, accept, w, known):
        """The first count of the w that ``chernoff_cut`` cuts, w + 1 if none,
        by bisection: the cut is monotone in the count."""
        if (m_rel, n_rel, w) not in known:
            lo, hi = 0, w + 1  # never cut at 0, cut (or past the pool) at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if chernoff_cut(mid, w, m_rel, n_rel, accept):
                    hi = mid
                else:
                    lo = mid
            known[m_rel, n_rel, w] = hi
        return known[m_rel, n_rel, w]

    @staticmethod
    def _accuracies(delta):
        """(eps_o, accept) pairs: a log grid of accuracies at accept 75/94
        eps_o, as reliable takes it, where n_rel is 1 or 2, and at 2.5 eps_o,
        where n_rel can grow while m_rel stays; and at 75/94 eps_o, the
        accuracies within 3 ulps of where i_max steps at the first and at
        the last delta' of a pool of 20,000."""
        grid = np.geomspace(1e-12, 0.3, 5).tolist()
        pairs = [(e, ratio * e) for e, ratio in itertools.product(grid, (75 / 94, 2.5))]
        for dp in (per_point_delta(delta, 1), per_point_delta(delta, 20_000)):
            lo, hi = 1e-12, 0.3  # i_max is larger at lo
            target = ber_est_max_stage(hi, dp, U) + 5
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if ber_est_max_stage(mid, dp, U) > target:
                    lo = mid
                else:
                    hi = mid
            pairs += [(e, 75 / 94 * e) for e in (hi * (1.0 + k * 2.0**-52) for k in range(-3, 4))]
        return pairs

    def test_relevant_stages_are_scalar_cuts(self):
        # _relevant reads the table as scalar_cut does
        for (eps_o, accept), dp in itertools.product(self._accuracies(0.05), (0.5, 1e-3, 1e-9)):
            stages = stage_table(eps_o, dp, U)
            m_rel, n_rel = self._relevant(eps_o, dp, accept)
            for c in range(0, 2001, 7):
                assert scalar_cut(c, 2000, stages, accept) == \
                    chernoff_cut(c, 2000, m_rel, n_rel, accept), (eps_o, dp, c)

    @pytest.mark.parametrize("delta", [0.5, 0.05, 1e-3])
    def test_band_holds_at_every_delta_of_the_range(self, delta):
        deltas = [per_point_delta(delta, s) for s in range(1, max(self.WS) + 1)]
        loose = moves = 0
        for eps_o, accept in self._accuracies(delta):
            known = {}
            relevant = [self._relevant(eps_o, dp, accept) for dp in deltas]
            for w in self.WS:
                bound = cut_bound(eps_o, deltas[w - 1], deltas[0], U, accept, w)
                c_star = {self._c_star(m, n, accept, w, known) for m, n in relevant[:w]}
                assert max(c_star) <= bound, (eps_o, delta, w)
                loose += max(c_star) < bound
                moves += len(c_star) > 1
        # bounds above every c* of the range, and c* that moves over it
        assert loose > 0 and moves > 0

    def test_one_delta_is_c_star(self):
        for (eps_o, accept), dp, w in itertools.product(self._accuracies(0.05),
                                                        (0.5, 1e-3, 1e-9), self.WS):
            assert cut_bound(eps_o, dp, dp, U, accept, w) == \
                self._c_star(*self._relevant(eps_o, dp, accept), accept, w, {}), (eps_o, dp, w)

    def test_one_delta_reads_the_table_once(self, monkeypatch):
        calls = []
        relevant = kalls.estimation._relevant_stages

        def spy(*args):
            calls.append(args)
            return relevant(*args)

        monkeypatch.setattr(kalls.estimation, "_relevant_stages", spy)
        accept = 75 / 94 * EPS_O
        cut_bound(EPS_O, 1e-3, 1e-3, U, accept, 2000)
        assert calls == [(EPS_O, 1e-3, U, accept)]
        calls.clear()
        cut_bound(EPS_O, 1e-5, 1e-3, U, accept, 2000)
        assert sorted(calls) == [(EPS_O, 1e-5, U, accept), (EPS_O, 1e-3, U, accept)]

    def test_reversed_range_is_refused(self):
        with pytest.raises(ValueError, match="above delta_hi"):
            cut_bound(EPS_O, 0.1, 0.01, U, EPS_O, 100)
