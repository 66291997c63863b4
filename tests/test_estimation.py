from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from kalls.estimation import (BerEstResult, SamplerExhausted, _stage_loop, _thresholds,
                              ber_est, ber_est_max_stage, est_prob, est_prob_from_sq_dists,
                              g_factor)
from kalls.pool import sq_dists
from kalls.seeding import substream

# Standard parameters used throughout: accuracy 0.1, confidence 0.1, budget 50.
EPS_O, DELTA_P, U = 0.1, 0.1, 50


def stage_table(epsilon_o, delta_prime, u):
    """The stage table ``_stage_loop`` runs for these parameters."""
    return _thresholds(delta_prime, u, ber_est_max_stage(epsilon_o, delta_prime, u))


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

        with pytest.raises(SamplerExhausted):
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
            a = est_prob(in_ball, row.shape[0], EPS_O, U, DELTA_P, substream(5, "estimation"))
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
        binomial = [est_prob(in_ball, w, eps_o, U, DELTA_P, rng_b)
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
        merged = [est_prob(in_ball, w, EPS_O, U, DELTA_P, rng_m)
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
        res = est_prob(0, 1000, eps_o, U, delta_prime, rng)
        loop = _stage_loop(lambda n: int(loop_rng.binomial(n, 0.0)), eps_o, delta_prime, U)
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
        assert est_prob(0, 1000, eps_o, U, DELTA_P, rng) == BerEstResult(0.0, 2 ** i_max, False)
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
            stages = _thresholds(dp, U, ber_est_max_stage(eps_o, dp, U))
            steps = [b - a for a, b in zip([0] + [m for m, _ in stages], [m for m, _ in stages])]
            live = stages[0][1] < 1.0
            for stop in range(len(stages) + live):
                rng = _ScriptedRng(stages, stop if live else None)
                res = est_prob(1, 2, eps_o, U, dp, rng)
                last = min(stop, len(stages) - 1)
                assert rng.calls == steps[:last + 1], (eps_o, dp, stop)
                assert res.draws_used == stages[last][0]
                assert res.terminated_early == (live and stop < len(stages))
            kinds.add(live)
        assert kinds == {True, False}  # tables that can stop and lone last stages
