"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the root."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = [
    Workload(name="tiny_run", command="run",
             config={"problem": {"family": "power_margin_uniform_1d", "d": 1, "kappa": 0.0},
                     "pool_size": 2000, "budgets": [30_000], "epsilon": 0.4, "delta": 0.05,
                     "smoothness_override": {"alpha": 1.0, "L": 1.2}},
             seeds_per_execution=1, why="", regime="", stopped_reason="budget_exhausted"),
    Workload(name="tiny_sweep", command="sweep",
             config={"problem": {"family": "product_uniform_nd", "d": 2, "kappa": 1.0},
                     "pool_size": 300, "budgets": [100, 400], "epsilon": 0.2,
                     "delta": 0.05, "n_test": 500},
             seeds_per_execution=1, why="", regime=""),
]


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,7]
    tracer = Tracer(clock=_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tracer.open("a", new_unit=True)
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    arrays = tracer.arrays()
    assert list(self_times(arrays["start"], arrays["end"], arrays["parent"])) == [3, 3, 3, 1]
    assert list(arrays["parent"]) == [-1, 0, 0, 2]
    assert list(arrays["unit"]) == [0, 0, 0, 0]
    assert tracer.by_name()["c"] == {"calls": 1, "incl_s": 4.0, "self_s": 3.0}


def test_self_time_sums_over_calls_and_units():
    tracer = Tracer(clock=_clock([0, 1, 3, 4, 10, 11, 12, 15]))
    for _ in range(2):
        outer = tracer.open("cell", new_unit=True)
        inner = tracer.open("knn")
        tracer.close(inner)
        tracer.close(outer)
    stats = tracer.by_name()
    assert stats["cell"] == {"calls": 2, "incl_s": 9.0, "self_s": 6.0}
    assert stats["knn"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0}
    assert list(tracer.arrays()["unit"]) == [0, 0, 1, 1]


def test_percentiles_interpolate():
    xs = [float(v) for v in range(10, 0, -1)]
    assert run.median(xs) == pytest.approx(5.5)
    assert run.percentile(xs, 0.9) == pytest.approx(9.1)
    assert run.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def _unit(uid, ms, labels, failures=()):
    return {"id": uid, "ms": ms, "labels": labels, "points": 5, "records": 0, "skips": 0,
            "excess_active": 0.5, "hash": "h", "failures": list(failures)}


def test_summary_reports_medians_and_sample_counts():
    setups = [{"setup_s": v, "setup_calib_s": run.CALIB_REF_S, "versions": {}}
              for v in (0.4, 0.5, 0.9)]
    executions = []
    for rss, walls, ms, fails in ((60.0, (1.0, 1.0), (100.0, 300.0), ()),
                                  (70.0, (2.0, 2.0), (200.0, 400.0), ("exit 2",))):
        calls = [{"setup_s": 0.6, "setup_calib_s": 2 * run.CALIB_REF_S, "peak_rss_mb": rss,
                  "wall_s": wall, "warnings": ["w"],
                  "calib_s": [2 * run.CALIB_REF_S] * 2,  # host at half speed
                  "units": [_unit(f"seed{i}", m, 10 * (i + 1), fails if i else ())]}
                 for i, (wall, m) in enumerate(zip(walls, ms))]
        executions.append(run.execution_of("exec", calls))
    res = run.summarize("label_inference", setups, executions, trace=False)
    shown = res["shown"]
    assert shown["setup_raw_s"] == (0.6, "s", 7)
    assert shown["setup_s"] == (0.3, "s", 7)
    assert shown["wall_s"] == (3.0, "s", 2)
    assert shown["wall_norm_s"] == (1.5, "s", 2)
    assert shown["calib_ms"] == (pytest.approx(80.0), "ms", 4)
    assert shown["cell_ms_p50"] == (250.0, "ms", 4)
    assert shown["cell_ms_p90"] == (pytest.approx(370.0), "ms", 4)
    assert shown["peak_rss_mb"] == (65.0, "MB", 2)
    assert shown["labels_spent"] == (30.0, "labels", 2)
    assert shown["labels_per_point"] == (3.0, "labels", 2)
    assert shown["ops_failed_frac"] == (0.25, "ratio", 4)
    assert (res["attempted"], res["failed"], res["correct"]) == (4, 1, False)
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert res["warnings"] == ["w"]


def _execute(wl, tmp_path, traced):
    import kalls.cli
    out = tmp_path / wl.name
    out.mkdir(exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(wl.config_for(0)))
    problem = kalls.cli.load_config(str(cfg_path)).build_problem()
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    try:
        execution = worker.execute(wl, str(cfg_path), str(out), 0, 0)
    finally:
        tracer.restore()
    worker.check(wl, problem, str(out), 0, execution)
    return execution, layers.spans_of(tracer)


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_traced_run_restores_every_wrapped_function(wl, tmp_path):
    import kalls.core
    import kalls.evaluate
    import kalls.pool
    tracer = Tracer()
    originals = (kalls.core.reliable, kalls.core.est_prob, kalls.pool.Pool.sq_dists_from,
                 kalls.evaluate.PassiveKnn.__call__, kalls.evaluate.run_cell)
    layers.install(tracer)
    patched = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer._patches]
    assert kalls.core.reliable is not originals[0]
    tracer.restore()
    for owner, attr, wrapper in patched:
        assert vars(owner)[attr] is not wrapper, f"{owner}.{attr} still wrapped"
    assert (kalls.core.reliable, kalls.core.est_prob, kalls.pool.Pool.sq_dists_from,
            kalls.evaluate.PassiveKnn.__call__, kalls.evaluate.run_cell) == originals

    execution, _ = _execute(wl, tmp_path, traced=True)
    assert not any(u["failures"] for u in execution["units"])
    assert (kalls.core.reliable, kalls.core.est_prob, kalls.pool.Pool.sq_dists_from,
            kalls.evaluate.PassiveKnn.__call__, kalls.evaluate.run_cell) == originals


def test_a_probe_whose_target_is_gone_reads_zero(monkeypatch):
    import kalls.estimation
    monkeypatch.delattr(kalls.estimation, "est_prob_from_sq_dists")
    tracer = Tracer()
    layers.install(tracer)
    patched = {attr for _, attr, _ in tracer._patches}
    tracer.restore()
    assert "est_prob" in patched and "est_prob_from_sq_dists" not in patched
    assert layers.metrics(layers.spans_of(tracer), 1.0)[
        "estimation.est_prob_from_sq_dists.calls"] == 0


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_traced_counts_repeat_for_one_seed(wl, tmp_path):
    units = dict(layers.PER_LAYER)
    timed = {"s", "ns"}

    def counts(metrics):
        return {k: v for k, v in metrics.items()
                if units[k] not in timed and not k.endswith(".share")}

    first, spans = _execute(wl, tmp_path, traced=True)
    second, spans2 = _execute(wl, tmp_path, traced=True)
    untraced, _ = _execute(wl, tmp_path, traced=False)
    m1 = layers.metrics(spans, first["wall_s"])
    m2 = layers.metrics(spans2, second["wall_s"])
    assert counts(m1) == counts(m2)
    assert m1["trace.spans"] > 0 and m1["core.run_kalls.self_s"] > 0
    busy = "estimation.est_prob.calls" if wl.command == "run" else "evaluate.PassiveKnn.calls"
    assert m1[busy] > 0
    # an execution of several CLI calls sums their spans and counters
    both = layers.metrics(layers.merge([spans, spans2]), first["wall_s"] + second["wall_s"])
    assert both[busy] == 2 * m1[busy] and both["trace.spans"] == 2 * m1["trace.spans"]
    assert both["synth.sample.points"] == 2 * m1["synth.sample.points"]
    assert [u["hash"] for u in first["units"]] == [u["hash"] for u in second["units"]] \
        == [u["hash"] for u in untraced["units"]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
