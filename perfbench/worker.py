"""One benchmark process: set up kalls, make one CLI call of a workload,
check its outputs, and print one JSON line for ``run.py``.

    python3 perfbench/worker.py {setup|exec|traced} <workload> <seed> <out-dir> <call>

Every mode times the set-up (``import kalls``, config load and
``build_problem``) and then ``calibrate()``; ``setup`` stops there.  ``exec``
adds the workload's CLI call number ``call`` (``kalls run`` for one learner
seed, or the one ``kalls sweep``); ``traced`` makes that call under the tracer
and adds its span statistics.  Every CLI call
gets a fresh process, as a user's does, so set-up, peak memory and first-call
costs are measured per call, and traced and untraced calls start alike.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TEST_POINTS = 10_000
GUARD_BAND = 0.1  # noiseless check: 1-NN must be exact where |x - 1/2| > GUARD_BAND


def _cli(argv: list[str]) -> int | str:
    """Call the kalls CLI in-process; a raise counts as a failed call."""
    from kalls.cli import main
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except Exception as exc:  # the benchmark must report the failure, not die of it
        return f"raised {type(exc).__name__}: {exc}"


def calibrate() -> float:
    """Seconds a fixed mix of numpy and interpreter work takes right now.

    On a shared 2-core x86-64 VM the same call was measured running 1.4x to 2x
    slower for stretches of seconds to minutes; timing this kernel right after
    the set-up and after each call lets run.py scale both to one reference
    speed.
    """
    import numpy as np
    x = np.random.default_rng(0).random(300_000)
    t0 = time.perf_counter()
    for _ in range(6):
        np.sort(x)
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - t0


def execute(wl: Workload, cfg_path: str, out: str, seed: int, call: int) -> dict:
    """Make CLI call number ``call`` of the workload, timed; hash its outputs."""
    seeds = wl.learner_seeds(seed)
    argv = [wl.command, "--config", cfg_path, "--out", out, "--threads", "1"]
    if wl.command == "run":
        argv += ["--seed-override", str(seeds[call])]
        stale = _run_files(wl, out, f"seed{seeds[call]}")
    else:
        stale = (os.path.join(out, "comparison.csv"),)
    for path in stale:  # so a call that writes nothing cannot pass on old outputs
        if os.path.exists(path):
            os.remove(path)
    t0 = time.perf_counter()
    rc = _cli(argv)
    wall_s = time.perf_counter() - t0
    if wl.command == "run":
        units = [{"id": f"seed{seeds[call]}", "ms": wall_s * 1e3, "rc": rc}]
    else:
        units = [{"id": f"seed{s}/n{b}", "rc": rc} for b in wl.config["budgets"] for s in seeds]
    for unit in units:
        unit["hash"] = _unit_hash(wl, out, unit["id"])
    return {"wall_s": wall_s, "units": units}


def _run_files(wl: Workload, out: str, unit_id: str) -> tuple[str, str]:
    seed, budget = unit_id[len("seed"):], wl.config["budgets"][0]
    return (os.path.join(out, f"trace_seed{seed}_n{budget}.json"),
            os.path.join(out, f"active_set_seed{seed}_n{budget}.csv"))


def _sweep_rows(out: str) -> dict[str, dict]:
    """comparison.csv rows keyed by unit id, as raw strings."""
    with open(os.path.join(out, "comparison.csv")) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    return {f"seed{r['seed']}/n{r['budget']}": r for r in rows}


def _unit_hash(wl: Workload, out: str, unit_id: str) -> str | None:
    """Digest of a unit's deterministic outputs: trace JSON and active set for a
    run; the comparison.csv row without its wall_ms column for a sweep cell."""
    h = hashlib.sha256()
    try:
        if wl.command == "run":
            for path in _run_files(wl, out, unit_id):
                with open(path, "rb") as fh:
                    h.update(fh.read())
        else:
            row = _sweep_rows(out)[unit_id]
            h.update(json.dumps({k: v for k, v in row.items() if k != "wall_ms"},
                                sort_keys=True).encode())
    except (OSError, KeyError):
        return None
    return h.hexdigest()


def check(wl: Workload, problem, out: str, seed: int, execution: dict) -> list[str]:
    """Check the outputs of an execution; fill each unit's facts and failures.

    Returns regime warnings.  A unit fails when its CLI call raised or exited
    nonzero, or an output check does not hold.
    """
    import numpy as np
    from kalls.core import ActiveSet, one_nn_label_batch

    warnings = []
    rows = _sweep_rows(out) if wl.command == "sweep" else {}
    for unit in execution["units"]:
        fails = unit["failures"] = []
        if unit["rc"] != 0:
            fails.append(f"exit {unit['rc']}")
            continue
        if unit["hash"] is None:
            fails.append("outputs missing")
            continue
        if wl.command == "sweep":
            row = rows[unit["id"]]
            budget, labels = int(row["budget"]), int(row["labels_used_active"])
            unit["ms"] = float(row["wall_ms"])
            unit["labels"] = labels
            # the table lists informative points only; reliable skips, none or
            # nearly none at the sweep constants, are not in it
            unit["points"] = int(row["informative_count"])
            if labels > budget:
                fails.append(f"labels_spent {labels} > budget {budget}")
            if not row["excess_passive"]:
                fails.append("no passive excess")
                continue
            unit["excess_passive"] = float(row["excess_passive"])
            unit["excess_active"] = (float(row["excess_active"]) if row["excess_active"]
                                     else problem.mean_abs_margin())
            continue

        trace_path, active_path = _run_files(wl, out, unit["id"])
        with open(trace_path) as fh:
            trace = json.load(fh)
        active = ActiveSet.from_csv(active_path)
        budget, labels = wl.config["budgets"][0], trace["labels_spent"]
        unit.update(labels=labels, points=trace["points_scanned"], records=len(active),
                    skips=trace["reliable_skips"])
        if labels > budget:
            fails.append(f"labels_spent {labels} > budget {budget}")
        if trace["stopped_reason"] != wl.stopped_reason:
            fails.append(f"stopped_reason {trace['stopped_reason']!r}, "
                         f"expected {wl.stopped_reason!r}")
        X = problem.sample(TEST_POINTS,
                           np.random.default_rng([seed, int(unit["id"][len("seed"):])]))
        eta = problem.eta(X)
        fstar = (eta >= 0.5).astype(np.int64)
        if len(active):
            pred = one_nn_label_batch(active, X)
            unit["excess_active"] = float(np.mean(np.abs(2 * eta - 1) * (pred != fstar)))
        else:
            pred = None
            unit["excess_active"] = problem.mean_abs_margin()
        if problem.kappa == 0.0:
            if len(active) and not np.array_equal(active.labels(),
                                                  problem.bayes(active.points())):
                fails.append("an active label differs from the Bayes label")
            off_band = np.abs(X[:, 0] - 0.5) > GUARD_BAND
            if pred is None or np.any(pred[off_band] != fstar[off_band]):
                fails.append(f"nonzero excess off the |x - 1/2| <= {GUARD_BAND} band")
        if wl.min_records is not None and len(active) < wl.min_records:
            warnings.append(f"{wl.name} {unit['id']}: {len(active)} records, "
                            f"regime has at least {wl.min_records}")
        if wl.max_records is not None and len(active) > wl.max_records:
            warnings.append(f"{wl.name} {unit['id']}: {len(active)} records, "
                            f"regime has at most {wl.max_records}")
    return warnings


def main(argv: list[str]) -> int:
    mode, name, seed, out, call = argv[1], argv[2], int(argv[3]), argv[4], int(argv[5])
    wl = WORKLOADS[name]
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(wl.config_for(seed), fh, sort_keys=True)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import kalls.cli
    problem = kalls.cli.load_config(cfg_path).build_problem()
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {"setup_s": setup_s, "setup_calib_s": calibrate(),
              "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if mode == "exec":
        result.update(execute(wl, cfg_path, out, seed, call))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["calib_s"] = [result["setup_calib_s"], calibrate()]
    elif mode == "traced":
        from tracer import Tracer
        import layers
        tracer = Tracer()
        layers.install(tracer)
        try:
            result.update(execute(wl, cfg_path, out, seed, call))
        finally:
            tracer.restore()
        result["calib_s"] = [result["setup_calib_s"], calibrate()]
        result["spans"] = layers.spans_of(tracer)
        tracer.save(os.path.join(out, f"spans_call{call}.npz"))
    if mode != "setup":
        result["warnings"] = check(wl, problem, out, seed, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
