"""Excess-risk measurement against the analytic Bayes rule, and the passive
k-NN baseline for label-for-label active-vs-passive comparisons."""
from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from decimal import ROUND_CEILING, Decimal, localcontext
from functools import partial
from statistics import median

import numpy as np

from . import core
from .pool import LabelOracle, Pool, knn_vote
from .seeding import substream
from .synth import SyntheticProblem
from .thresholds import KallsConfig, SmoothnessParams, margin_delta


@dataclass(frozen=True)
class RiskEstimate:
    excess_risk: float
    std_error: float
    n_test: int
    deep_margin_agreement: float
    n_deep: int


def _bayes_terms(problem: SyntheticProblem, X: np.ndarray, delta_margin: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a test draw's risk takes that no classifier changes: the loss
    weights |2 eta - 1|, the Bayes labels and the mask |eta - 1/2| >
    delta_margin."""
    eta = problem.eta(X)
    return (np.abs(2.0 * eta - 1.0), (eta >= 0.5).astype(np.int64),
            np.abs(eta - 0.5) > delta_margin)


def _risk_on_sample(classifier, X: np.ndarray,
                    terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> RiskEstimate:
    """The risk of ``classifier`` on the test draw ``X``, whose ``_bayes_terms``
    are ``terms``."""
    weight, fstar, deep = terms
    pred = np.asarray(classifier(X), dtype=np.int64)
    loss = weight * (pred != fstar)
    n = X.shape[0]
    std_error = float(np.std(loss, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    n_deep = int(np.count_nonzero(deep))
    agreement = float(np.mean(pred[deep] == fstar[deep])) if n_deep else 1.0
    return RiskEstimate(excess_risk=float(np.mean(loss)), std_error=std_error,
                        n_test=n, deep_margin_agreement=agreement, n_deep=n_deep)


def excess_risk(classifier, problem: SyntheticProblem, n_test: int,
                delta_margin: float, rng: np.random.Generator) -> RiskEstimate:
    """Monte-Carlo excess risk E[|2 eta - 1| 1{f != f*}] over fresh draws, plus
    agreement with the Bayes rule restricted to |eta - 1/2| > delta_margin."""
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    X = problem.sample(n_test, rng)
    return _risk_on_sample(classifier, X, _bayes_terms(problem, X, delta_margin))


def default_passive_k(n_labels: int, alpha: float, d: int) -> int:
    """ceil(n^(2 alpha / (2 alpha + d))), resolved to 60 significant digits so
    exact integer powers (e.g. 1000^(2/3) = 100) round to the true integer."""
    if n_labels < 1:
        raise ValueError("n_labels must be >= 1")
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(alpha)
        v = Decimal(n_labels) ** (2 * a / (2 * a + d))
        nearest = v.to_integral_value()
        if abs(v - nearest) <= Decimal("1e-40") * max(nearest, 1):
            return max(1, int(nearest))
        return max(1, int(v.to_integral_value(rounding=ROUND_CEILING)))


class PassiveKnn:
    """Majority-vote k-NN over an i.i.d. labeled draw.

    Vote ties go to label 1 (the eta_hat >= 1/2 convention); distance ties go to
    the earlier draw (``pool.knn_vote``).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, k: int) -> None:
        if not 1 <= k <= X.shape[0]:
            raise ValueError(f"k_n must satisfy 1 <= k_n <= n_labels, got {k}")
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.k = int(k)

    def __call__(self, queries: np.ndarray) -> np.ndarray:
        return knn_vote(self.X, self.y, queries, self.k)


def passive_knn(problem: SyntheticProblem, n_labels: int, k_n: int,
                rng: np.random.Generator) -> PassiveKnn:
    """Draw n_labels labeled pairs from the problem and return the k_n-NN
    rule; ``PassiveKnn`` rejects a k_n outside [1, n_labels]."""
    X = problem.sample(n_labels, rng)
    y = (rng.random(n_labels) < problem.eta(X)).astype(np.int64)
    return PassiveKnn(X, y, k_n)


@dataclass
class CellResult:
    """One (budget, seed) cell, one ``comparison.csv`` row.  ``excess_active``
    and ``deep_margin_agreement`` are None when the active set is empty,
    ``excess_passive`` when the run spent no label."""

    family: str
    kappa: float
    budget: int
    seed: int
    labels_used_active: int
    excess_active: float | None
    excess_passive: float | None
    deep_margin_agreement: float | None
    informative_count: int
    wall_ms: float


@dataclass
class ComparisonTable:
    rows: list[CellResult]

    def budgets(self) -> list[int]:
        return sorted({r.budget for r in self.rows})

    def median_excess_active(self, budget: int, fallback: float) -> float:
        """Per-budget median; cells that produced no classifier count as the
        worst-case excess (the flipped-classifier bound) so failures are not
        silently dropped."""
        vals = [r.excess_active if r.excess_active is not None else fallback
                for r in self.rows if r.budget == budget]
        return float(median(vals))

    def median_excess_passive(self, budget: int) -> float:
        """Per-budget median over the cells that trained a passive baseline;
        nan when none did."""
        vals = [r.excess_passive for r in self.rows
                if r.budget == budget and r.excess_passive is not None]
        return float(median(vals)) if vals else float("nan")

    def median_deep_agreement(self, budget: int) -> float:
        """Per-budget median; a cell with an empty active set, which has no
        classifier, counts as agreement 0.0."""
        vals = [r.deep_margin_agreement if r.deep_margin_agreement is not None else 0.0
                for r in self.rows if r.budget == budget]
        return float(median(vals))

    def to_csv(self, path: str, header_comment: str | None = None) -> None:
        """One column per ``CellResult`` field, in order; ``wall_ms`` in
        milliseconds with 3 decimals."""
        core.write_csv(path, [f.name for f in fields(CellResult)],
                       ({**vars(r), "wall_ms": format(r.wall_ms, ".3f")}.values()
                        for r in self.rows),
                       header_comment)


def evaluation_stream(seed: int, budget: int) -> np.random.Generator:
    """The stream of the (seed, budget) cell's test draw, which ``run_cell``
    scores both arms on and ``kalls eval`` scores a saved active set on."""
    return substream(seed, "evaluation", budget)


def run_active(problem: SyntheticProblem, config: KallsConfig, w: int, seed: int,
               smooth: SmoothnessParams) -> tuple[core.ActiveSet, core.RunTrace]:
    """One active run with budget ``config.n``, at the smoothness ``smooth`` and
    the problem's ``certified_margin``: the pool, the oracle and the estimation
    stream come from substreams keyed by (seed, budget)."""
    budget = config.n
    pool = Pool(problem.sample(w, substream(seed, "pool", budget)))
    oracle = LabelOracle(pool, problem.eta, budget,
                         seed=int(substream(seed, "oracle", budget).integers(2**62)),
                         mode=config.budget_mode)
    return core.run_kalls(pool, oracle, config, smooth, problem.certified_margin,
                          est_rng=substream(seed, "estimation", budget))


def run_cell(problem: SyntheticProblem, config: KallsConfig, seed: int, w: int,
             n_test: int, delta_margin: float, smooth: SmoothnessParams) -> CellResult:
    """One (budget, seed) cell, budget ``config.n``: active run (``run_active``,
    at the problem's certified margin), label-matched passive baseline, paired
    evaluation on a shared test draw.  The passive k is ``default_passive_k`` at
    the alpha of ``smooth``, the smoothness the active run used."""
    t0 = time.perf_counter()
    budget = config.n
    active, trace = run_active(problem, config, w, seed, smooth)
    X_test = problem.sample(n_test, evaluation_stream(seed, budget))
    terms = _bayes_terms(problem, X_test, delta_margin)  # shared by both arms

    excess_active = agreement = excess_passive = None
    if len(active):
        est_a = _risk_on_sample(lambda X: core.one_nn_label_batch(active, X),
                                X_test, terms)
        excess_active, agreement = est_a.excess_risk, est_a.deep_margin_agreement
    labels_used = trace.labels_spent
    if labels_used >= 1:
        classifier_p = passive_knn(problem, labels_used,
                                   default_passive_k(labels_used, smooth.alpha, problem.d),
                                   substream(seed, "passive", budget))
        excess_passive = _risk_on_sample(classifier_p, X_test, terms).excess_risk

    return CellResult(
        family=problem.family, kappa=problem.kappa, budget=budget, seed=seed,
        labels_used_active=labels_used, excess_active=excess_active,
        excess_passive=excess_passive, deep_margin_agreement=agreement,
        informative_count=len(trace.per_point),
        wall_ms=(time.perf_counter() - t0) * 1e3)


def compare(problem: SyntheticProblem, budgets: list[int], config: KallsConfig,
            seeds: list[int], w: int, n_test: int,
            delta_margin: float | None = None, threads: int = 1,
            smooth: SmoothnessParams | None = None) -> ComparisonTable:
    """Active-vs-passive grid over budgets x seeds: one ``run_cell`` per
    (budget, seed), with ``config`` at ``n = budget``.

    The learner uses ``smooth``, by default the problem's certified
    smoothness, and always the problem's ``certified_margin``; a problem
    without certified smoothness (kappa = 0) needs ``smooth``.
    ``delta_margin`` defaults to ``margin_delta`` at ``config.epsilon`` and
    that margin.  The passive baseline is trained on the labels the active run
    actually spent (label-for-label fairness), with k from the alpha of
    ``smooth``.  A cell with no classifier has None in its row (``CellResult``
    says where), and nothing is raised.  Cells own independent substreams
    keyed by (seed, budget), so the result is identical however the grid is
    scheduled.
    """
    if not budgets or not seeds:
        raise ValueError("budgets and seeds must be nonempty")
    smooth = smooth or problem.certified_smooth
    if smooth is None:
        raise ValueError("problem has no certified smoothness (kappa=0); pass smooth")
    if delta_margin is None:
        delta_margin = margin_delta(config.epsilon, problem.certified_margin)
    cell = partial(run_cell, problem, w=w, n_test=n_test, delta_margin=delta_margin,
                   smooth=smooth)
    configs = [replace(config, n=b) for b in budgets]
    # the config and the seed of each cell, budget-major
    grid = ([c for c in configs for _ in seeds], [s for _ in configs for s in seeds])
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(cell, *grid))
    else:
        rows = list(map(cell, *grid))
    return ComparisonTable(rows=rows)
