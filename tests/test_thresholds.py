"""Unit tests for the closed-form quantities.

Expected values were frozen from an arbitrary-precision (mpmath, 40 digits)
evaluation of the same formulas.
"""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kalls import thresholds
from kalls.thresholds import (INFEASIBLE_BUDGET, DoublingParams, KallsConfig,
                              MarginParams, SmoothnessParams,
                              adaptive_budget_bound, confidence_radius, feasibility_report,
                              first_cutoff, label_budget_k, label_budget_real,
                              margin_delta, per_point_delta, phi_n)


# per-point deltas from delta_s at s = 1 of a run at delta 0.05 down to 1e-16,
# where first_cutoff relies on the cut-off floor and falling radii
FLOOR_DELTAS = np.geomspace(0.05 / 32, 1e-16, 9).tolist()

# the certified margin of power_margin_uniform_1d at kappa 100: at epsilon
# 1e-300 its width Delta is 4.67e-298, whose square underflows to 0.0
KAPPA_100_MARGIN = MarginParams(beta=0.01, C=1.0069555500567189)


def cutoff_floor(delta):
    """floor(32 h), h = log(1/delta) + loglog(1/delta): first_cutoff forms no
    deviation up to it."""
    return math.floor(32 * (math.log(1 / delta) + math.log(math.log(1 / delta))))


def confidence_radii(delta, cap, start=1):
    """The private radii of k = start..cap that first_cutoff compares with."""
    return thresholds._confidence_radii(thresholds._log_loglog(delta), cap, start)


def sequential_cutoff(labels, delta):
    """The first k with |sum/k - 1/2| > 2 confidence_radius(delta, k), one k
    at a time, or 0 where none passes."""
    total = 0
    for k, label in enumerate(labels.tolist(), start=1):
        total += label
        if abs(total / k - 0.5) > 2 * confidence_radius(delta, k):
            return k
    return 0


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestMarginDelta:
    def test_frozen_values(self):
        assert rel_err(margin_delta(0.2, MarginParams(beta=1, C=1)),
                       0.31622776601683793) < 1e-12
        assert rel_err(margin_delta(0.02, MarginParams(beta=2, C=2)),
                       0.1709975946676697) < 1e-12

    def test_large_beta_limit(self):
        # (eps/2C)^(1/(beta+1)) -> 1 as beta -> infinity
        val = margin_delta(0.5, MarginParams(beta=1e6, C=1))
        assert 0.999 < val < 1.0

    def test_lower_bound_and_equality_condition(self):
        for eps in (0.01, 0.1, 0.5, 0.9):
            for beta, C in ((0.0, 1.0), (1.0, 2.0), (3.0, 1.5)):
                m = MarginParams(beta=beta, C=C)
                d = margin_delta(eps, m)
                assert d >= eps / 2
                power = (eps / (2 * C)) ** (1 / (beta + 1))
                if power <= eps / 2:
                    assert d == eps / 2

    def test_monotone_in_epsilon(self):
        m = MarginParams(beta=1, C=2)
        grid = np.linspace(0.01, 0.99, 50)
        vals = [margin_delta(e, m) for e in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            margin_delta(0.0, MarginParams(beta=1, C=1))
        with pytest.raises(ValueError):
            margin_delta(1.0, MarginParams(beta=1, C=1))


class TestConfidenceRadius:
    def test_frozen_values(self):
        assert rel_err(confidence_radius(0.01, 100), 0.39638464226314667) < 1e-12
        assert rel_err(confidence_radius(0.01, 10000), 0.041123596098918768) < 1e-12

    def test_strictly_decreasing_on_grid(self):
        for delta in (1e-2, 1e-4):
            ks = np.unique(np.geomspace(1, 1e6, 200).astype(int))
            vals = np.array([confidence_radius(delta, int(k)) for k in ks])
            assert np.all(np.diff(vals) < 0)
            assert np.all(np.diff(confidence_radii(delta, 5000)) < 0)
        for delta in FLOOR_DELTAS:
            assert np.all(np.diff(confidence_radii(delta, 20_000)) < 0)

    def test_no_cutoff_up_to_the_floor(self):
        # a mean of 0/1 labels is at most 1/2 from 1/2, so no k up to the
        # floor can pass |mean - 1/2| > 2 b
        for delta in FLOOR_DELTAS:
            floor = cutoff_floor(delta)
            assert all(2 * confidence_radius(delta, k) >= 0.5 for k in range(1, floor + 1))
            ones = np.arange(1, floor + 2, dtype=np.int64)
            assert first_cutoff(ones[:floor], delta) == 0
            assert first_cutoff(ones, delta) == 0  # 2 b(delta, floor + 1) > 1/2

    def test_quadrupling_shrinks(self):
        for k in (1, 7, 400, 31337):
            assert confidence_radius(0.01, 4 * k) < confidence_radius(0.01, k)

    def test_scalar_matches_vector(self):
        # bit for bit, at every k: numpy's log differs from math.log by an ulp
        # at some k (855 and 1700 among them), which the table must not inherit
        for delta in (0.01, 0.003, 1e-5, 0.05 / 32, 1e-9):
            for cap in (1, 2, 1999, 5000):
                want = [confidence_radius(delta, k) for k in range(1, cap + 1)]
                assert confidence_radii(delta, cap).tolist() == want
                for start in {1, min(2, cap), cap // 2 + 1, cap}:
                    assert confidence_radii(delta, cap, start).tolist() == want[start - 1:]

    def test_table_shrinks_and_grows(self, monkeypatch):
        # the cap shrinks at every point near the end of a budget, then a
        # larger one grows the table; the slices stay the scalar radii
        monkeypatch.setattr(thresholds, "_K_TERMS", (np.zeros(0),) * 3)
        for cap in (5000, 4999, 1999, 3, 1, 2, 6001, 7, 20_000, 5000):
            want = [confidence_radius(0.002, k) for k in range(1, cap + 1)]
            assert confidence_radii(0.002, cap).tolist() == want
            assert thresholds._K_TERMS[0].shape[0] >= cap
        assert thresholds._K_TERMS[0].shape[0] == 20_000

    def test_request_counts_grow_and_stay_read_only(self, monkeypatch):
        # the k column that first_cutoff divides the running counts by
        monkeypatch.setattr(thresholds, "_K_TERMS", (np.zeros(0),) * 3)
        for cap in (3, 1, 2000, 7, 4001, 5):
            ks = thresholds._k_terms(cap)[0][:cap]
            assert ks.dtype == np.float64
            assert ks.tolist() == [float(k) for k in range(1, cap + 1)]
            assert all(not column.flags.writeable for column in thresholds._K_TERMS)
        assert thresholds._K_TERMS[0].shape[0] == 4001

    def test_import_builds_no_table(self):
        # the table grows on first use, so importing kalls allocates none of it
        code = ("import kalls, kalls.cli; t = kalls.thresholds; "
                "assert [c.size for c in t._K_TERMS] == [0, 0, 0]")
        src = os.path.dirname(os.path.dirname(thresholds.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    def test_domain(self):
        with pytest.raises(ValueError):
            confidence_radius(1 / math.e, 10)
        with pytest.raises(ValueError):
            confidence_radius(0.5, 10)  # 0.5 > 1/e
        with pytest.raises(ValueError):
            confidence_radius(-0.1, 10)
        with pytest.raises(ValueError):
            confidence_radius(0.01, 0)
        for cap in (0, 10, 2000):
            with pytest.raises(ValueError):
                first_cutoff(np.zeros(cap, dtype=np.int64), 0.5)
        assert first_cutoff(np.zeros(0, dtype=np.int64), 0.01) == 0


class TestFirstCutoff:
    @pytest.mark.parametrize("case", ["random", "alternating", "zeros", "ones",
                                      "balanced_then_ones"])
    def test_matches_the_sequential_loop(self, case):
        # caps of 1, the floor, the floor + 1 and 20,000 for every delta, and
        # on either side of a k that fires; the cut-off at k reads only the
        # first k labels, so each cap is a prefix
        n = 20_000
        labels = {
            "random": np.random.default_rng(5).integers(0, 2, n),
            "alternating": np.arange(n) % 2,
            "zeros": np.zeros(n, dtype=np.int64),
            "ones": np.ones(n, dtype=np.int64),
            "balanced_then_ones": (np.arange(n) % 2) | (np.arange(n) >= 3000),
        }[case]
        cum = np.add.accumulate(labels, dtype=np.int64)
        fired = 0
        for delta in FLOOR_DELTAS:
            want = sequential_cutoff(labels, delta)
            floor = cutoff_floor(delta)
            for cap in {1, floor, floor + 1, n} | ({want - 1, want} if want else set()):
                got = first_cutoff(cum[:cap], delta)
                assert type(got) is int
                assert got == (want if want <= cap else 0), (delta, cap)
            fired += want > 0
        assert fired == (0 if case in ("random", "alternating") else len(FLOOR_DELTAS))


class TestLabelBudget:
    def test_frozen_values(self):
        m = MarginParams(beta=1, C=1)
        # paper-scale constant is desk-infeasible: ~4.31e8 requests
        assert rel_err(label_budget_real(0.2, 0.05, m, 7e6), 431092801.08172257) < 1e-12
        assert label_budget_k(0.2, 0.05, m, 7e6) == 431092802
        assert label_budget_k(0.2, 0.05, m, 8) == 493

    def test_exact_linearity_in_c(self):
        m = MarginParams(beta=1.5, C=2)
        for c in (1.0, 8.0, 123.5):
            assert label_budget_real(0.3, 0.01, m, 2 * c) == \
                2 * label_budget_real(0.3, 0.01, m, c)

    def test_saturates_instead_of_overflowing(self):
        m = MarginParams(beta=1, C=1)
        assert label_budget_k(1e-300, 0.05, m, 8) == INFEASIBLE_BUDGET

    def test_saturates_where_the_squared_width_underflows(self):
        dm = margin_delta(1e-300, KAPPA_100_MARGIN)
        assert dm > 0.0 and dm * dm == 0.0
        assert label_budget_real(1e-300, 0.05, KAPPA_100_MARGIN, 8) == math.inf
        assert label_budget_k(1e-300, 0.05, KAPPA_100_MARGIN, 8) == INFEASIBLE_BUDGET

    def test_domain(self):
        m = MarginParams(beta=1, C=1)
        with pytest.raises(ValueError):
            label_budget_k(0.2, 0.5, m, 8)
        with pytest.raises(ValueError, match="^c_const must be > 0, got 0$"):
            label_budget_real(0.2, 0.05, m, 0)


class TestPhiN:
    def test_frozen_values(self):
        assert rel_err(phi_n(100, 0.05), 0.20230968770473993) < 1e-12
        assert rel_err(phi_n(1, 0.05), 2.0230968770473993) < 1e-12

    def test_quadrupling_halves_exactly(self):
        for n in (1, 25, 1000):
            assert phi_n(4 * n, 0.05) == phi_n(n, 0.05) / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_n(0, 0.05)
        with pytest.raises(ValueError):
            phi_n(10, 0.9)


class TestPerPointDelta:
    def test_values(self):
        assert per_point_delta(0.32, 1) == pytest.approx(0.01, rel=1e-12)
        assert per_point_delta(0.32, 10) == pytest.approx(1e-4, rel=1e-12)

    def test_partial_sums_stay_under_sixteenth(self):
        s = np.arange(1, 10**6 + 1, dtype=np.float64)
        for delta in (0.05, 0.5, 0.99):
            total = float(np.sum(delta / (32.0 * s * s)))
            basel = (delta / 32.0) * (math.pi**2 / 6.0)
            assert total < delta / 16.0
            assert total < basel  # partial sum below the closed-form limit
            assert total > 0.999 * basel

    def test_domain(self):
        with pytest.raises(ValueError):
            per_point_delta(0.1, 0)


class TestAdaptiveBudgetBound:
    def test_shrinks_with_margin_gap(self):
        assert adaptive_budget_bound(0.5, 1e-3) < adaptive_budget_bound(0.1, 1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            adaptive_budget_bound(0.0, 1e-3)
        with pytest.raises(ValueError):
            adaptive_budget_bound(0.7, 1e-3)

    def test_inf_where_the_squared_width_underflows(self):
        for gap in (1e-300, 5e-324):
            assert adaptive_budget_bound(gap, 1e-3) == math.inf
        assert math.isfinite(adaptive_budget_bound(1e-150, 1e-3))

    def test_is_the_label_budget_at_width_2a(self):
        # margin_delta(4a, beta 0, C 1) = 2a, so the two bounds are one
        for a in np.geomspace(1e-150, 0.2499, 40).tolist():
            for delta in (0.3, 0.05, 1e-3, 1e-9, 1e-16):
                for c in (1.0, 8.0, 123.5, 7e6):
                    assert adaptive_budget_bound(a, delta, c) == \
                        label_budget_real(4 * a, delta, MarginParams(0, 1), c)


class TestPointPlan:
    """``run_kalls`` forms h = ``_head(delta_s)`` once per informative point
    and takes k', the LB radius b(delta_s, |Q|) and k_tilde from private
    helpers on it; each must be the public function's float bit for bit."""

    # s over 1..10^6: every s up to 300, then a geometric grid
    S_GRID = sorted({*range(1, 301), *np.geomspace(300, 10**6, 150).astype(int).tolist()})
    # (epsilon, margin): a small and a large k', and a margin width whose
    # square underflows, where k' saturates at INFEASIBLE_BUDGET
    MARGINS = [(0.4, MarginParams(beta=1, C=1)), (0.2, MarginParams(beta=0.5, C=2)),
               (1e-300, KAPPA_100_MARGIN)]
    # margin gaps of k_tilde: 1e-170 and 5e-324 make (2a)^2 underflow to 0.0
    GAPS = [0.5, 0.25, 1e-3, 1e-150, 1e-170, 5e-324]

    @pytest.mark.parametrize("delta", [0.3, 0.05, 0.01])
    def test_matches_the_public_functions(self, delta):
        saturated = 0
        for s in self.S_GRID:
            delta_s = per_point_delta(delta, s)
            head = thresholds._head(delta_s)
            assert head == thresholds._log_loglog(delta_s)
            floor = cutoff_floor(delta_s)
            for c in (1.0, 8.0):
                caps = set()
                for eps, margin in self.MARGINS:
                    width = margin_delta(eps, margin)
                    k_prime = thresholds._ceil_budget(thresholds._request_bound(head, width, c))
                    assert k_prime == label_budget_k(eps, delta_s, margin, c)
                    caps.add(k_prime)
                    saturated += k_prime == INFEASIBLE_BUDGET
                for q in {1, floor, floor + 1} | caps:
                    assert thresholds._radius(head, q) == confidence_radius(delta_s, q), (s, q)
                for gap in self.GAPS:
                    assert thresholds._request_bound(head, 2.0 * gap, c) == \
                        adaptive_budget_bound(gap, delta_s, c)
        assert saturated == 2 * len(self.S_GRID)

    def test_head_reads_back_only_its_last_delta(self, monkeypatch):
        # the kept pair answers only the delta it was formed for; a refused
        # delta raises as _log_loglog does and keeps nothing
        formed = []

        def counted(delta):
            formed.append(delta)
            return log_loglog(delta)

        log_loglog = thresholds._log_loglog
        monkeypatch.setattr(thresholds, "_log_loglog", counted)
        monkeypatch.setattr(thresholds, "_HEAD", (math.nan, math.nan))
        asked = [1e-3, 1e-3, 2e-3, 1e-3, 1e-3, 1e-3 * (1 + 2**-52)]
        for delta in asked:
            assert thresholds._head(delta) == log_loglog(delta)
        assert formed == [1e-3, 2e-3, 1e-3, 1e-3 * (1 + 2**-52)]
        for bad in (0.5, 0.0, math.nan):
            with pytest.raises(ValueError, match="delta must be in"):
                thresholds._head(bad)
        assert thresholds._HEAD == (asked[-1], log_loglog(asked[-1]))


class TestPurity:
    def test_bit_identical_reevaluation(self):
        m = MarginParams(beta=1, C=2)
        calls = [
            lambda: margin_delta(0.137, m),
            lambda: confidence_radius(0.0101, 4242),
            lambda: label_budget_real(0.2, 0.013, m, 8.0),
            lambda: phi_n(373, 0.04),
            lambda: per_point_delta(0.21, 77),
        ]
        for f in calls:
            assert f() == f()


class TestFeasibilityReport:
    def setup_method(self):
        self.config = KallsConfig(epsilon=0.2, delta=0.05, n=1000)
        self.smooth = SmoothnessParams(alpha=1.0, L=2.0, d=1)
        self.margin = MarginParams(beta=1.0, C=1.0)

    def test_frozen_values(self):
        rep = feasibility_report(self.config, self.smooth, self.margin, w=4000)
        assert rel_err(rep.p_tilde_eps, 0.0012352647110032732) < 1e-12
        assert rel_err(rep.t_eps_delta, 4108.5718470106759) < 1e-12
        assert rel_err(rep.p_eps, 0.0047866507551376836) < 1e-12

    def test_double_evaluation_path(self):
        rep = feasibility_report(self.config, self.smooth, self.margin, w=4000)
        dm = margin_delta(0.2, self.margin)
        expo = self.smooth.d / self.smooth.alpha
        p_eps2 = math.exp(expo * math.log(31.0 * dm / (1024.0 * self.smooth.L)))
        p_tilde2 = math.exp(expo * math.log(dm / (128.0 * self.smooth.L)))
        assert rep.p_eps == pytest.approx(p_eps2, rel=1e-9)
        assert rep.p_tilde_eps == pytest.approx(p_tilde2, rel=1e-9)

    def test_degenerate_pool(self):
        rep = feasibility_report(self.config, self.smooth, self.margin, w=0)
        assert not rep.pool_rate_ok_poly_part_only
        assert not rep.pool_estprob_ok

    def test_never_raises_and_renders(self):
        # delta 0.5 is a delta a run accepts, above 1/e, where loglog(1/delta)
        # <= 0: k_budget and phi_n are NaN there.  At alpha 0.0076-0.02 (kappa
        # 0's margin) p_tilde_eps or the unlabeled-sampling scale underflows to
        # 0.0, or a polynomial part overflows: what they give is inf
        replace = dataclasses.replace
        kappa0 = MarginParams(beta=1.0, C=2.0)
        rhs, t, polys = "estprob_pool_rhs", "t_eps_delta", ("budget_poly_part", "pool_poly_part")
        cases = [
            (self.config, self.smooth, self.margin, 10**7, ()),
            (replace(self.config, delta=0.5), self.smooth, self.margin, 10**7, (rhs,)),
            (self.config, SmoothnessParams(0.0076, 1.2, 1), kappa0, 2000, (rhs, t)),
            (replace(self.config, epsilon=1e-6), SmoothnessParams(0.01, 1.2, 1), kappa0, 2000,
             (rhs, t)),
            (replace(self.config, n=10**9), SmoothnessParams(0.02, 1.2, 1), kappa0, 2000,
             (rhs,)),
            (replace(self.config, epsilon=1e-6), SmoothnessParams(0.0076, 1.2, 1), kappa0, 2000,
             (rhs, t, *polys)),
            # kappa 100's margin width squares to 0.0: the budget saturates
            (replace(self.config, epsilon=1e-300), self.smooth, KAPPA_100_MARGIN, 2000, polys),
        ]
        for config, smooth, margin, w, infinite in cases:
            rep = feasibility_report(config, smooth, margin, w=w)
            rows = rep.render().splitlines()[1:]
            assert [r.split()[0] for r in rows] == [f.name for f in dataclasses.fields(rep)]
            assert rep.pool_estprob_ok in (True, False)
            assert math.isnan(rep.k_budget) == math.isnan(rep.phi_n) == (config.delta == 0.5)
            values = dataclasses.asdict(rep)
            assert sorted(k for k, v in values.items() if v == math.inf) == sorted(infinite)
            # each check follows from the values it compares
            assert rep.budget_ok_poly_part_only == (config.n >= rep.budget_poly_part)
            assert rep.pool_rate_ok_poly_part_only == (w >= rep.pool_poly_part)
            assert rep.pool_estprob_ok == (w >= rep.estprob_pool_rhs)
            assert (rep.k_budget == INFEASIBLE_BUDGET) == (config.epsilon == 1e-300)


class TestParamValidation:
    def test_smoothness(self):
        with pytest.raises(ValueError):
            SmoothnessParams(alpha=0.0, L=2.0, d=1)
        with pytest.raises(ValueError):
            SmoothnessParams(alpha=1.1, L=2.0, d=1)
        with pytest.raises(ValueError):
            SmoothnessParams(alpha=0.5, L=1.0, d=1)
        with pytest.raises(ValueError):
            SmoothnessParams(alpha=0.5, L=2.0, d=0)

    def test_ball_accuracy(self):
        # reliable's eps_o = (lb / 64L)^(d/alpha), largest at lb = 1/2
        ok = SmoothnessParams(alpha=0.01, L=1.2, d=1)
        assert ok.ball_accuracy(0.5) == (1.0 / (128.0 * 1.2)) ** 100.0 > 0.0
        assert ok.ball_accuracy(0.2) == (0.2 / (64.0 * 1.2)) ** (1 / 0.01)
        # an accuracy that underflows is refused where a run uses it
        # (core.RecordRows, cli.ExperimentConfig.smooth_params), not here:
        # eval uses none
        for alpha, d in ((0.005, 1), (0.01, 2)):
            assert SmoothnessParams(alpha=alpha, L=1.2, d=d).ball_accuracy(0.5) == 0.0

    def test_margin(self):
        with pytest.raises(ValueError):
            MarginParams(beta=-0.1, C=1.0)
        with pytest.raises(ValueError):
            MarginParams(beta=1.0, C=0.5)
        # NaN passes a plain `x < low` check; inf is no constant either
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                MarginParams(beta=bad, C=1.0)
            with pytest.raises(ValueError, match="C must be finite and >= 1"):
                MarginParams(beta=1.0, C=bad)

    def test_doubling(self):
        with pytest.raises(ValueError):
            DoublingParams(c_db=0.0)
        with pytest.raises(ValueError):
            DoublingParams(c_db=2.0, mass_floor=0.0)

    def test_config(self):
        with pytest.raises(ValueError):
            KallsConfig(epsilon=0.0, delta=0.05, n=10)
        with pytest.raises(ValueError):
            KallsConfig(epsilon=0.2, delta=0.05, n=10, budget_mode="free_lunch")
        with pytest.raises(ValueError):
            KallsConfig(epsilon=0.2, delta=0.05, n=-1)
        with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\), got 1.5$"):
            KallsConfig(epsilon=0.2, delta=1.5, n=10)
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_const must be finite and >= 1"):
                KallsConfig(epsilon=0.2, delta=0.05, n=10, c_const=bad)
        # lb_factor is a constant of the learner, not a field
        with pytest.raises(TypeError, match="lb_factor"):
            KallsConfig(epsilon=0.2, delta=0.05, n=10, lb_factor=0.1)
        assert KallsConfig.lb_factor == 0.1
        assert KallsConfig(epsilon=0.2, delta=0.05, n=10).lb_factor == 0.1
