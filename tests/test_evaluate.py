from __future__ import annotations

from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest

from kalls.core import one_nn_label_batch
from kalls.evaluate import (CellResult, ComparisonTable, PassiveKnn, compare,
                            default_passive_k, evaluation_stream, excess_risk,
                            passive_knn, run_active)
from kalls.pool import nearest_mask, sq_dists
from kalls.seeding import substream
from kalls.synth import make_problem
from kalls.thresholds import KallsConfig, SmoothnessParams, margin_delta


def bayes_classifier(problem):
    return lambda X: problem.bayes(X)


def flipped_bayes(problem):
    return lambda X: 1 - problem.bayes(X)


class TestExcessRisk:
    def setup_method(self):
        self.p = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)

    def test_bayes_rule_has_zero_excess(self):
        for fam, d in (("power_margin_uniform_1d", 1),
                       ("power_margin_gaussian_1d", 1),
                       ("discrete_atoms", 1),
                       ("product_uniform_nd", 2)):
            p = make_problem(fam, kappa=1.0, d=d, seed=0)
            est = excess_risk(bayes_classifier(p), p, 5000, 0.2,
                              substream(1, "evaluation"))
            assert est.excess_risk == 0.0
            assert est.deep_margin_agreement == 1.0

    def test_constant_one_quarter(self):
        est = excess_risk(lambda X: np.ones(X.shape[0], dtype=np.int64), self.p,
                          40_000, 0.2, substream(2, "evaluation"))
        # closed form: integral of (1-2x) over [0, 1/2] = 1/4
        assert abs(est.excess_risk - 0.25) < 3 * est.std_error + 1e-9

    def test_flipped_bayes_is_mean_abs_margin(self):
        est = excess_risk(flipped_bayes(self.p), self.p, 40_000, 0.2,
                          substream(3, "evaluation"))
        assert abs(est.excess_risk - 0.5) < 3 * est.std_error + 1e-9
        assert self.p.mean_abs_margin() == 0.5

    def test_sandwich(self):
        rng = substream(4, "evaluation")
        noisy = lambda X: (rng.random(X.shape[0]) < 0.5).astype(np.int64)
        est = excess_risk(noisy, self.p, 10_000, 0.2, substream(5, "evaluation"))
        assert 0.0 <= est.excess_risk <= self.p.mean_abs_margin()

    def test_repeatable(self):
        a = excess_risk(bayes_classifier(self.p), self.p, 1000, 0.2,
                        substream(6, "evaluation"))
        b = excess_risk(bayes_classifier(self.p), self.p, 1000, 0.2,
                        substream(6, "evaluation"))
        assert a == b

    def test_domain(self):
        with pytest.raises(ValueError):
            excess_risk(bayes_classifier(self.p), self.p, 0, 0.2,
                        substream(7, "evaluation"))


class TestPassiveKnn:
    def test_single_labeled_point(self):
        clf = PassiveKnn(np.array([[0.3]]), np.array([0]), k=1)
        assert clf(np.array([[0.0], [0.9]])).tolist() == [0, 0]

    def test_vote_tie_goes_to_one(self):
        clf = PassiveKnn(np.array([[0.0], [1.0]]), np.array([0, 1]), k=2)
        assert clf(np.array([[0.5]]))[0] == 1

    def test_distance_ties_broken_by_draw_order(self):
        clf = PassiveKnn(np.array([[0.0], [0.0], [0.0]]), np.array([1, 0, 0]), k=1)
        assert clf(np.array([[0.7]]))[0] == 1

    @pytest.mark.parametrize("d, n, k, side", [
        (1, 40, 1, 6), (1, 40, 5, 6), (1, 40, 40, 6),
        (3, 40, 1, 6), (3, 40, 5, 6), (3, 40, 40, 6),
        (2, 500, 7, 9),
    ])
    def test_matches_naive_oracle(self, d, n, k, side):
        # Integer lattices make squared distances exact, so planted ties are real.
        # Queries are separate draws: none is excluded from its own neighbours,
        # and some land on a labeled point at distance 0.
        rng = substream(8, "points")
        X = rng.integers(0, side, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        queries = rng.integers(0, side, size=(60, d)).astype(np.float64)
        got = PassiveKnn(X, y, k=k)(queries)
        mask = nearest_mask(sq_dists(X, queries), k)
        for qi, q in enumerate(queries):
            keyed = sorted(range(n), key=lambda j: (((X[j] - q) ** 2).sum(), j))
            assert np.flatnonzero(mask[qi]).tolist() == sorted(keyed[:k])
            votes = y[keyed[:k]].sum()
            assert got[qi] == (1 if 2 * votes >= k else 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_rejected(self, d):
        # a NaN or infinite coordinate anywhere, in a query or a labelled point
        rng = substream(10, "points", d)
        X, y, queries = rng.random((20, d)), rng.integers(0, 2, 20), rng.random((5, d))
        for c in range(d):
            for bad in (np.nan, np.inf, -np.inf):
                bad_q, bad_X = queries.copy(), X.copy()
                bad_q[2, c], bad_X[4, c] = bad, bad
                with pytest.raises(ValueError, match="queries must be finite"):
                    PassiveKnn(X, y, k=3)(bad_q)
                with pytest.raises(ValueError, match="points must be finite"):
                    PassiveKnn(bad_X, y, k=3)(queries)

    def test_noiseless_risk_improves_with_more_labels(self):
        p = make_problem("power_margin_uniform_1d", kappa=0.0, seed=0)
        wins = 0
        for seed in range(20):
            small = passive_knn(p, 50, 1, substream(seed, "passive", 0))
            large = passive_knn(p, 500, 1, substream(seed, "passive", 1))
            X = p.sample(4000, substream(seed, "evaluation"))
            err_small = excess_risk(small, p, 4000, 0.2,
                                    substream(seed, "evaluation", 2)).excess_risk
            err_large = excess_risk(large, p, 4000, 0.2,
                                    substream(seed, "evaluation", 2)).excess_risk
            wins += err_large < err_small
        assert wins >= 18

    def test_default_k_exact_integer_root(self):
        assert default_passive_k(1000, alpha=1.0, d=1) == 100  # 1000^(2/3)
        assert default_passive_k(10, alpha=1.0, d=1) == 5      # ceil(10^(2/3)) = ceil(4.64)
        assert default_passive_k(1, alpha=0.5, d=3) == 1

    def test_default_k_refuses_no_labels(self):
        with pytest.raises(ValueError, match="^n_labels must be >= 1$"):
            default_passive_k(0, alpha=1.0, d=1)

    def test_default_k_matches_mpmath_rule(self):
        def reference(n, alpha, d):
            # the same rule in mpmath arbitrary precision
            with mp.workdps(60):
                v = mp.mpf(n) ** ((2 * mp.mpf(alpha)) / (2 * mp.mpf(alpha) + d))
                nearest = mp.nint(v)
                if abs(v - nearest) <= mp.mpf("1e-40") * max(nearest, 1):
                    return max(1, int(nearest))
                return max(1, int(mp.ceil(v)))

        # the squares of 1..100 and of 1000, and every cube and fifth power up to 10^6
        ns = set(range(1, 501)) | {200, 1000, 5000, 1000 ** 2}
        for power in (2, 3, 5):
            ns |= {b ** power for b in range(1, 101) if b ** power <= 10 ** 6}
        # one either side of every square, cube and fifth power up to 10^6,
        # where the float power lies nearest a whole number without being one,
        # and n from 10^9 to 10^15
        for power in (2, 3, 5):
            ns |= {b ** power + e for b in range(2, 1001) if b ** power <= 10 ** 6
                   for e in (-1, 1)}
        ns |= {10 ** e for e in range(9, 16)}
        for alpha in (1.0, 0.5, 0.7, 1 / 3, 0.25):
            for d in (1, 2, 3):
                got = [default_passive_k(n, alpha, d) for n in sorted(ns)]
                assert got == [reference(n, alpha, d) for n in sorted(ns)], (alpha, d)

    def test_k_larger_than_labels_rejected(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)
        with pytest.raises(ValueError):
            passive_knn(p, 5, 6, substream(9, "passive"))


class TestCompare:
    def setup_method(self):
        self.p = make_problem("power_margin_uniform_1d", kappa=1.0, seed=0)
        self.cfg = KallsConfig(epsilon=0.25, delta=0.05, n=100)

    def test_zero_budget_rows_record_failures(self, tmp_path):
        table = compare(self.p, [0], self.cfg, seeds=[1], w=200, n_test=500)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.excess_active is None
        assert row.excess_passive is None
        assert row.deep_margin_agreement is None
        # an empty active set and no spent label are empty cells of the CSV
        path = tmp_path / "cmp.csv"
        table.to_csv(str(path))
        header, cells = (line.split(",") for line in path.read_text().splitlines())
        cell = dict(zip(header, cells))
        assert cell["excess_active"] == cell["excess_passive"] == ""
        assert cell["deep_margin_agreement"] == ""
        assert cell["labels_used_active"] == "0"

    def test_single_cell_has_both_risks(self):
        # seed 3 draws a deep-margin first point, so the cell yields a classifier
        # (an unlucky first point can legitimately exhaust the budget unaccepted)
        table = compare(self.p, [800], self.cfg, seeds=[3], w=4000, n_test=2000)
        row = table.rows[0]
        assert row.excess_active is not None
        assert row.excess_passive is not None
        assert 0 < row.labels_used_active <= 800

    def test_grid_shape_and_csv(self, tmp_path):
        table = compare(self.p, [100, 300], self.cfg, seeds=[1, 2], w=400,
                        n_test=500)
        assert len(table.rows) == 4
        path = str(tmp_path / "cmp.csv")
        table.to_csv(path, header_comment="prov")
        lines = [l for l in open(path) if not l.startswith("#")]
        # one column per CellResult field, in order
        assert lines[0].rstrip("\n").split(",") == [f.name for f in fields(CellResult)]
        assert len(lines) == 5  # header + 4 data rows

    def test_deterministic_rows(self):
        a = compare(self.p, [300], self.cfg, seeds=[5], w=400, n_test=500)
        b = compare(self.p, [300], self.cfg, seeds=[5], w=400, n_test=500)
        ra, rb = a.rows[0], b.rows[0]
        assert (ra.excess_active, ra.excess_passive, ra.labels_used_active) == \
            (rb.excess_active, rb.excess_passive, rb.labels_used_active)

    def test_threads_give_the_same_rows(self):
        # the process-pool branch (two workers) and the serial loop give one
        # table, apart from the wall times
        def rows(threads):
            table = compare(self.p, [100, 200], self.cfg, seeds=[1, 2], w=400,
                            n_test=500, threads=threads)
            return [replace(row, wall_ms=0.0) for row in table.rows]

        serial = rows(1)
        assert [(r.budget, r.seed) for r in serial] == [(100, 1), (100, 2), (200, 1), (200, 2)]
        assert any(r.informative_count for r in serial)
        assert rows(2) == serial

    def test_passive_k_follows_the_smoothness_of_the_run(self):
        # alpha 0.5 gives k = ceil(labels^(1/2)); the certified alpha of kappa 1
        # (1.0) would give ceil(labels^(2/3))
        smooth = SmoothnessParams(alpha=0.5, L=2.0, d=1)
        budgets, seeds = [200, 400], [1, 2]
        table = compare(self.p, budgets, self.cfg, seeds=seeds, w=400, n_test=500,
                        smooth=smooth)
        assert [(r.budget, r.seed) for r in table.rows] == [(b, s) for b in budgets
                                                            for s in seeds]
        for row in table.rows:
            labels = row.labels_used_active
            assert labels >= 1
            passive = passive_knn(self.p, labels, default_passive_k(labels, 0.5, 1),
                                  substream(row.seed, "passive", row.budget))
            # excess_risk draws the cell's shared test sample from the same key
            want = excess_risk(passive, self.p, 500, 0.0,
                               substream(row.seed, "evaluation", row.budget))
            assert row.excess_passive == want.excess_risk

    @pytest.mark.parametrize("family, d", [("power_margin_uniform_1d", 1),
                                           ("power_margin_gaussian_1d", 1),
                                           ("discrete_atoms", 1), ("product_uniform_nd", 2)])
    def test_rows_match_the_unsorted_scoring(self, family, d):
        # a d = 1 cell votes on its test draw sorted; each value must still be
        # excess_risk's on the draw in its own order, as kalls eval scores it
        problem = make_problem(family, kappa=1.0, d=d, seed=0)
        cfg = KallsConfig(epsilon=0.25, delta=0.05, n=200)
        smooth = problem.certified_smooth
        delta_margin = margin_delta(cfg.epsilon, problem.certified_margin)
        table = compare(problem, [0, 400, 3000], cfg, seeds=[3, 4], w=2000, n_test=2000)
        scored = empty_active = no_labels = 0
        for row in table.rows:
            active, _ = run_active(problem, replace(cfg, n=row.budget), 2000, row.seed, smooth)
            if len(active):
                scored += 1
                want = excess_risk(lambda X: one_nn_label_batch(active, X), problem, 2000,
                                   delta_margin, evaluation_stream(row.seed, row.budget))
                assert (row.excess_active, row.deep_margin_agreement) == \
                    (want.excess_risk, want.deep_margin_agreement)
            else:
                empty_active += 1
                assert row.excess_active is row.deep_margin_agreement is None
            labels = row.labels_used_active
            if labels:
                passive = passive_knn(problem, labels,
                                      default_passive_k(labels, smooth.alpha, d),
                                      substream(row.seed, "passive", row.budget))
                want = excess_risk(passive, problem, 2000, delta_margin,
                                   evaluation_stream(row.seed, row.budget))
                assert row.excess_passive == want.excess_risk
            else:
                no_labels += 1
                assert row.excess_passive is None
        # the grid holds scored, empty and zero-label cells
        assert scored and empty_active and no_labels

    def test_median_fallback_counts_failures_as_worst_case(self):
        table = compare(self.p, [0], self.cfg, seeds=[1, 2], w=200, n_test=500)
        assert table.median_excess_active(0, fallback=self.p.mean_abs_margin()) == 0.5

    def test_medians_of_an_even_count_are_midpoints(self):
        def cell(excess_active, excess_passive, agreement):
            return CellResult(family="f", kappa=1.0, budget=7, seed=0,
                              labels_used_active=1, excess_active=excess_active,
                              excess_passive=excess_passive,
                              deep_margin_agreement=agreement, informative_count=0,
                              wall_ms=0.0)

        table = ComparisonTable(rows=[cell(0.4, 0.125, 0.5), cell(None, 0.75, None),
                                      cell(0.1, 0.25, 1.0), cell(0.2, 0.5, 0.25)])
        assert table.median_excess_active(7, fallback=0.9) == (0.2 + 0.4) / 2
        assert table.median_excess_passive(7) == (0.25 + 0.5) / 2
        assert table.median_deep_agreement(7) == (0.25 + 0.5) / 2

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            compare(self.p, [], self.cfg, seeds=[1], w=100, n_test=500)

    def test_kappa_zero_needs_smoothness(self):
        noiseless = make_problem("power_margin_uniform_1d", kappa=0.0, seed=0)
        with pytest.raises(ValueError, match="smoothness"):
            compare(noiseless, [100], self.cfg, seeds=[1], w=200, n_test=500)


# Every field of a comparison.csv row but wall_ms, as compare gave it on these
# grids when the values were recorded: the d = 1 window vote, the d = 2 grid
# vote with its brute-force rows, and the discrete-atoms vote once per distinct
# query value.  A change to the neighbour search that claims the same results
# must leave them as they are.
PINNED_ROWS = {
    ("power_margin_uniform_1d", 1): [
        (400, 3, 400, 0.24938237234267427, 0.004216684016750015, 0.4994994994994995, 1),
        (400, 4, 400, 0.24375695886239027, 0.008673373542183668, 0.5180487804878049, 1),
        (3000, 3, 3000, 0.25187199027827983, 0.00019080701230126063, 0.4984771573604061, 3),
        (3000, 4, 3000, 0.25009734636016917, 0.001220070975936054, 0.504950495049505, 3),
    ],
    ("product_uniform_nd", 2): [
        (400, 3, 400, 0.24554941860905552, 0.008187903240700074, 0.4782157676348548, 1),
        (400, 4, 400, 0.24409382093292856, 0.014079679520390019, 0.5153922542204568, 1),
        (8000, 3, 8000, 0.2506790696781077, 0.005566144755298637, 0.48530901722391084, 5),
        (8000, 4, 8000, None, 0.0033735154602660667, None, 5),
    ],
    ("discrete_atoms", 1): [
        (400, 3, 400, 0.255033203125, 0.005048828125, 0.49615384615384617, 1),
        (400, 4, 400, None, 0.012763671875, None, 1),
        (3000, 3, 3000, 0.24144921875, 0.000193359375, 0.5079491255961844, 2),
        (3000, 4, 3000, 0.242380859375, 0.000791015625, 0.5075456711675933, 2),
    ],
    # the d = 1 window vote on the one marginal with unbounded support
    ("power_margin_gaussian_1d", 1): [
        (400, 3, 400, 0.24684753292739262, 0.0030936719729733548, 0.5149469623915139, 1),
        (400, 4, 400, None, 0.0008368726911815929, None, 1),
        (3000, 3, 3000, 0.2551712936451809, 5.6007821365299635e-05, 0.4793969849246231, 3),
        (3000, 4, 3000, None, 0.004659159939690222, None, 3),
    ],
}


@pytest.mark.parametrize("family, d", list(PINNED_ROWS))
def test_sweep_rows_are_pinned(family, d):
    problem = make_problem(family, kappa=1.0, d=d, seed=0)
    budgets = sorted({row[0] for row in PINNED_ROWS[family, d]})
    table = compare(problem, budgets, KallsConfig(epsilon=0.25, delta=0.05, n=200),
                    seeds=[3, 4], w=2000, n_test=2000)
    got = [(r.budget, r.seed, r.labels_used_active, r.excess_active, r.excess_passive,
            r.deep_margin_agreement, r.informative_count) for r in table.rows]
    assert {(r.family, r.kappa) for r in table.rows} == {(family, 1.0)}
    assert got == PINNED_ROWS[family, d]


class TestComparisonCsv:
    def test_exact_text(self, tmp_path):
        # None is an empty cell, a real has 17 significant digits, wall_ms is
        # milliseconds with 3 decimals
        rows = [CellResult(family="discrete_atoms", kappa=1.0, budget=200, seed=3,
                           labels_used_active=200, excess_active=None, excess_passive=0.1,
                           deep_margin_agreement=None, informative_count=0, wall_ms=12.3456),
                CellResult(family="discrete_atoms", kappa=0.5, budget=400, seed=4,
                           labels_used_active=0, excess_active=1 / 3, excess_passive=None,
                           deep_margin_agreement=0.875, informative_count=2, wall_ms=0.0004)]
        path = tmp_path / "cmp.csv"
        ComparisonTable(rows).to_csv(str(path), header_comment="prov\nsecond")
        assert path.read_text() == (
            "# prov\n# second\n"
            "family,kappa,budget,seed,labels_used_active,excess_active,excess_passive,"
            "deep_margin_agreement,informative_count,wall_ms\n"
            "discrete_atoms,1,200,3,200,,0.10000000000000001,,0,12.346\n"
            "discrete_atoms,0.5,400,4,0,0.33333333333333331,,0.875,2,0.000\n")


@pytest.mark.parametrize("family", ["power_margin_uniform_1d", "discrete_atoms"])
def test_active_beats_passive_where_the_claim_holds(family):
    """The paper's central claim, that the active learner outperforms its
    passive counterpart, on two regimes where it holds: kappa 2 at budget
    15,000 (w 50,000, ``cached_labels``, c 1, eps 0.2, delta 0.05, n_test
    20,000), on the uniform family and on discrete atoms, the abstract's
    discrete-distribution claim.  The active arm must have the lower excess
    risk in at least 15 of seeds 1-20 (one-sided sign-test p = 0.021 under no
    effect; a learner that wins 95% of seeds falls below 15 with probability
    about 3e-4).  The settings were fixed before the first run.

    A probe over w 50,000, budgets 1000, 5000 and 15,000, kappa 1 and 2 and
    all four families found no win in every budget-1000 cell, in Gaussian
    and discrete atoms at kappa 1 against this rate-k passive arm at every
    budget, and in almost every cell against the best passive k in
    {k0, 2k0, 4k0, 8k0}.  This test pins none of those regimes."""
    problem = make_problem(family, kappa=2.0, seed=0)
    config = KallsConfig(epsilon=0.2, delta=0.05, n=15_000, c_const=1.0,
                         budget_mode="cached_labels")
    table = compare(problem, [15_000], config, seeds=list(range(1, 21)), w=50_000,
                    n_test=20_000)
    wins = sum(r.excess_active is not None and r.excess_active < r.excess_passive
               for r in table.rows)
    assert len(table.rows) == 20 and wins >= 15, wins
