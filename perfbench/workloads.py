"""The benchmark's workloads: what each one runs, why it was chosen, and the
regime it was measured in.

Every workload drives the user path, ``kalls.cli.main`` with ``run`` or
``sweep`` and ``--threads 1``, one process per CLI call.  The workload seed picks the
learner seeds; the program receives only the generated config.  Regimes were
measured on the seed commit on a 2-core x86-64 machine (Python 3.11, numpy
2.4, scipy 1.17); a run that leaves its regime prints a warning, so a change
that quietly trivialises a workload is visible.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "run": one `kalls run` per learner seed; "sweep": one `kalls sweep`
    config: dict
    # learner seeds per execution: more seeds average out how much work a seed
    # makes; fewer leave time for more executions, whose median rejects bursts
    # of host noise.  Each workload takes what fits one run of run_seconds.
    seeds_per_execution: int
    why: str
    regime: str
    # checks on every run (failures) and on the regime (warnings)
    stopped_reason: str = "pool_exhausted"
    min_records: int | None = None
    max_records: int | None = None
    dominant: tuple[str, float] = ("", 0.0)   # (.share metric, its floor in traced runs)

    @property
    def calls_per_execution(self) -> int:
        return self.seeds_per_execution if self.command == "run" else 1

    def learner_seeds(self, seed: int) -> list[int]:
        k = self.seeds_per_execution
        return [seed * k + i for i in range(k)]

    def config_for(self, seed: int) -> dict:
        cfg = dict(self.config)
        cfg["seeds"] = self.learner_seeds(seed)
        return cfg


_UNIFORM_1D = {"family": "power_margin_uniform_1d", "d": 1}

WORKLOADS = {w.name: w for w in [
    Workload(
        name="noiseless_scan",
        command="run",
        config={"problem": {**_UNIFORM_1D, "kappa": 0.0}, "pool_size": 2000,
                "budgets": [150_000], "epsilon": 0.4, "delta": 0.05,
                "budget_mode": "strict_paper",
                "smoothness_override": {"alpha": 1.0, "L": 1.2}},
        seeds_per_execution=6,
        why="the only workload where estimation does the work: core.reliable runs two "
            "est_prob calls per active record for every scanned point",
        regime="criterion-6 constants (w=2000, eps=0.4, delta=0.05, kappa=0, L=1.2) with "
               "the budget cut from 2e6 to 1.5e5 labels, so a run takes about 3 s instead of "
               "about 64 s: each run stops on the budget after about 175 of the 2000 points, "
               "with about 100 records and 28 reliable skips, about 815 labels per scanned "
               "point; core.reliable (estimation included) is 95% of the time",
        stopped_reason="budget_exhausted",
        min_records=80,
        dominant=("core.reliable.share", 0.90),
    ),
    Workload(
        name="label_inference",
        command="run",
        # delta=0.01, not 0.05: at 0.05 the cut-off fires on the first scanned point for
        # about one learner seed in eight (a point near x=0 or 1), one record is
        # accepted, and reliable then runs two estimates per point for the rest of the
        # scan, 1.5x the time; at 0.01 it fired for none of 25 seeds and the time is unchanged
        config={"problem": {**_UNIFORM_1D, "kappa": 1.0}, "pool_size": 2000,
                "budgets": [200_000], "epsilon": 0.2, "delta": 0.01,
                "budget_mode": "cached_labels"},
        seeds_per_execution=2,
        why="the mirror of noiseless_scan: no record is accepted, so reliable returns at "
            "once and confident_label (neighbor_order plus the oracle) does the work",
        regime="all 2000 points informative, no cut-off fires, 0 records and 2000 fresh "
               "labels per run under cached_labels, 1 label per scanned point; "
               "core.confident_label is 87% of the time, reliable 0.1%",
        max_records=0,
        dominant=("core.confident_label.share", 0.80),
    ),
    Workload(
        name="sweep_1d",
        command="sweep",
        config={"problem": {**_UNIFORM_1D, "kappa": 1.0}, "pool_size": 4000,
                "budgets": [200, 1000, 5000], "epsilon": 0.2, "delta": 0.05,
                "n_test": 20_000},
        seeds_per_execution=3,
        why="the criterion-8 grid: the label-matched passive k-NN baseline "
            "(evaluate.PassiveKnn) dominates, run_kalls is under 1%",
        regime="9 cells per execution (3 seeds x budgets 200, 1000, 5000); most budget-200 "
               "active sets are empty; about 20 informative points, 930 labels each; "
               "evaluate.PassiveKnn is 99% of the time, run_kalls under 1%",
        dominant=("evaluate.PassiveKnn.share", 0.90),
    ),
    Workload(
        name="sweep_2d",
        command="sweep",
        config={"problem": {"family": "product_uniform_nd", "d": 2, "kappa": 1.0},
                "pool_size": 4000, "budgets": [200, 1000, 5000], "epsilon": 0.2,
                "delta": 0.05, "n_test": 20_000},
        seeds_per_execution=1,
        why="the d=2 side of neighbour search: the criterion-8 grid on product_uniform_nd, so a "
            "dimension-dependent k-NN search is measured on both sides",
        regime="3 cells per execution with 5 or 6 informative points; evaluate.PassiveKnn "
               "is 99.7% of the time, 1-NN over the active set under 0.1%",
        dominant=("evaluate.PassiveKnn.share", 0.90),
    ),
]}
