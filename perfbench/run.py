"""Benchmark for kalls: drives ``kalls run`` and ``kalls sweep`` on fixed
workloads, checks their outputs, and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Within ``--seconds`` it repeats executions
of the workload on inputs made from ``--seed``; every CLI call of an execution
runs in a fresh process (see worker.py).  With ``--trace 0`` it reports the
end-to-end metrics, timings as medians; with ``--trace 1`` each execution is
paired with a traced one and it reports the per-layer metrics.  It prints each
metric with its unit and sample count, the regime warnings and the provenance,
writes the same to ``.bench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  A unit (a learner run or a
sweep cell) fails when it raised, exited nonzero, failed an output check, or
produced outputs that differ from another execution of the same seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_MIN = 5          # set-up-only processes before the executions of a run
CHILD_TIMEOUT_S = 170
# worker.calibrate() at the usual speed of the 2-core x86-64 VM the bounds
# were measured on; setup_s and wall_norm_s are times scaled to this speed
CALIB_REF_S = 0.040

END_TO_END = [  # (metric, unit); BENCHMARK.json's end_to_end list, in order
    ("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB"),
    ("labels_spent", "labels"),
]
# Printed and saved, not gated.  Raw times swing with the host's speed by more
# than any useful bound.  labels_per_point moves on noiseless_scan (a reliable
# skip costs no label), but a sweep scans 1 to 3 points a cell, so on the sweeps
# it jumps by a sixth between seeds.  Per-cell percentiles of a run workload
# sort a handful of learner seeds, so they spread with the seed; the rest are
# zero or undefined on some workload.
REPORTED = [
    ("setup_raw_s", "s"), ("wall_s", "s"), ("calib_ms", "ms"), ("labels_per_point", "labels"),
    ("cell_ms_p50", "ms"), ("cell_ms_p90", "ms"),
    ("excess_active_mean", "risk"), ("excess_passive_mean", "risk"),
    ("ops_failed_frac", "ratio"), ("records", "count"), ("reliable_skips", "count"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, interpolating linearly between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def _child(mode: str, name: str, seed: int, out: Path, call: int = 0) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, name, str(seed), str(out), str(call)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {name} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {name} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, versions: dict) -> dict:
    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                    text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "git_dirty": dirty, "src_sha256": _src_digest(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "workload_seed": seed}


def _check_determinism(name: str, seed: int, executions: list[dict]) -> None:
    """Fail every unit whose outputs differ between executions of this seed,
    here or in an earlier run of the same sources and config (the digests are
    kept in .bench_out/hashes.json)."""
    store_path = OUT / "hashes.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    config = json.dumps(WORKLOADS[name].config_for(seed), sort_keys=True).encode()
    inputs = f"{_src_digest()}:{hashlib.sha256(config).hexdigest()}"
    for execution in executions:
        for unit in execution["units"]:
            if unit["hash"] is None:
                continue
            key = f"{inputs}:{name}:{seed}:{unit['id']}"
            known = store.setdefault(key, unit["hash"])
            if known != unit["hash"]:
                unit["failures"].append("outputs differ from another execution of this seed")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def _execution(mode: str, name: str, seed: int, out: Path) -> dict:
    """Every CLI call of one execution, each in its own worker process."""
    return execution_of(mode, [_child(mode, name, seed, out, i)
                               for i in range(WORKLOADS[name].calls_per_execution)])


def execution_of(mode: str, calls: list[dict]) -> dict:
    """An execution from the results of its CLI calls."""
    return {"traced": mode == "traced", "calls": calls,
            "wall_s": sum(c["wall_s"] for c in calls),
            "wall_norm_s": sum(_norm(c["wall_s"], statistics.fmean(c["calib_s"]))
                               for c in calls),
            "units": [u for c in calls for u in c["units"]]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``SETUP_MIN`` times, then repeat rounds while the next one is
    expected to end within ``seconds`` (there is always at least one), then
    spend what is left of ``seconds`` on more set-ups.  A round is one
    untraced execution, followed by a traced one when tracing."""
    out = OUT / name / f"seed{seed}"
    start = time.monotonic()
    setups = [_child("setup", name, seed, out) for _ in range(SETUP_MIN)]
    modes = ["exec", "traced"] if trace else ["exec"]
    executions: list[dict] = []
    rounds_start = time.monotonic()
    per_setup = (rounds_start - start) / SETUP_MIN
    while True:
        executions += [_execution(mode, name, seed, out) for mode in modes]
        per_round = (time.monotonic() - rounds_start) * len(modes) / len(executions)
        if time.monotonic() - start + per_round > seconds:
            break
    while time.monotonic() - start + per_setup <= seconds:
        setups.append(_child("setup", name, seed, out))
    _check_determinism(name, seed, executions)
    res = summarize(name, setups, executions, trace)
    res["provenance"] = provenance(seed, setups[0]["versions"])
    return res


def _norm(seconds: float, calib_s: float) -> float:
    """``seconds`` measured while calibrate() took ``calib_s``, at the
    reference speed."""
    return seconds * CALIB_REF_S / calib_s


def _per_execution(executions: list[dict], key: str, agg=sum) -> list[float]:
    """``agg`` of a unit fact over each execution whose units all have it."""
    return [agg(u[key] for u in e["units"]) for e in executions
            if all(key in u for u in e["units"])]


def _labels_per_point(executions: list[dict]) -> list[float]:
    """Labels charged per pool point scanned, over each execution's units: a
    reliable skip costs none, an informative point what confident_label spent."""
    ratios = []
    for e in executions:
        if all("points" in u for u in e["units"]):
            points = sum(u["points"] for u in e["units"])
            if points:
                ratios.append(sum(u["labels"] for u in e["units"]) / points)
    return ratios


def summarize(name: str, setups: list[dict], executions: list[dict], trace: bool) -> dict:
    """Metrics of one run from its set-up-only results and its executions.

    ``shown`` maps each metric to (value, unit, sample count); ``metrics``
    holds the gated ones: the end-to-end list untraced, the per-layer list
    traced.
    """
    wl = WORKLOADS[name]
    calls = [c for e in executions for c in e["calls"]]
    units = [u for e in executions for u in e["units"]]
    failed = sum(1 for u in units if u["failures"])
    untraced = [e for e in executions if not e["traced"]]
    warnings = {w for c in calls for w in c["warnings"]}

    samples: dict[str, list[float]] = {
        # each set-up at the speed calibrate() measured right after it
        "setup_s": [_norm(c["setup_s"], c["setup_calib_s"]) for c in setups + calls],
        "setup_raw_s": [c["setup_s"] for c in setups + calls],
        "wall_s": [e["wall_s"] for e in untraced],
        "wall_norm_s": [e["wall_norm_s"] for e in untraced],
        "calib_ms": [1e3 * statistics.fmean(c["calib_s"]) for e in untraced for c in e["calls"]],
        # per execution, the mean over its CLI calls of each call's peak: one
        # call's peak jumps with the largest buffer any estimate allocated
        "peak_rss_mb": [statistics.fmean(c["peak_rss_mb"] for c in e["calls"])
                        for e in untraced],
        "labels_spent": _per_execution(untraced, "labels"),
        "labels_per_point": _labels_per_point(untraced),
        "records": _per_execution(untraced, "records"),
        "reliable_skips": _per_execution(untraced, "skips"),
        "excess_active_mean": _per_execution(untraced, "excess_active", statistics.fmean),
        "excess_passive_mean": _per_execution(untraced, "excess_passive", statistics.fmean),
    }
    values = {k: (median(xs), len(xs)) for k, xs in samples.items() if xs}
    cells_ms = [u["ms"] for e in untraced for u in e["units"] if "ms" in u]
    if cells_ms:
        values["cell_ms_p50"] = (percentile(cells_ms, 0.5), len(cells_ms))
        values["cell_ms_p90"] = (percentile(cells_ms, 0.9), len(cells_ms))
    values["ops_failed_frac"] = (failed / len(units), len(units))

    if trace:
        traced = [layers.metrics(layers.merge([c["spans"] for c in e["calls"]]), e["wall_s"])
                  for e in executions if e["traced"]]
        metrics = {k: median([t[k] for t in traced]) for k, _ in layers.PER_LAYER
                   if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median([e["wall_norm_s"] for e in executions
                                               if e["traced"]])
                                       - median(samples["wall_norm_s"]))
        shown = {k: (metrics[k], unit, len(traced)) for k, unit in layers.PER_LAYER}
        share, floor = wl.dominant
        if share and metrics[share] < floor:
            warnings.add(f"{name}: {share} = {metrics[share]:.3f} < {floor}")
    else:
        shown = {k: (values[k][0], unit, values[k][1])
                 for k, unit in END_TO_END + REPORTED if k in values}
        # a metric with no sample (every unit failed) reads 0, beside correct=false
        metrics = {k: values.get(k, (0.0, 0))[0] for k, _ in END_TO_END}
    return {
        "workload": name, "why": wl.why, "regime": wl.regime, "trace": trace,
        "correct": failed == 0, "attempted": len(units), "failed": failed,
        "metrics": metrics, "shown": shown, "samples": {**samples, "cells_ms": cells_ms},
        "warnings": sorted(warnings),
        "failures": sorted({f"{u['id']}: {f}" for u in units for f in u["failures"]}),
    }


def report(res: dict) -> None:
    print(f"== {res['workload']} (trace={int(res['trace'])}): {res['why']}")
    for key, (value, unit, n) in res["shown"].items():
        print(f"  {key:44s} {value:>16.6g} {unit:8s} n={n}")
    print(f"  units attempted={res['attempted']} failed={res['failed']}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for warning in res["warnings"]:
        print(f"warning: left the measured regime: {warning}", file=sys.stderr)
    print("  provenance " + json.dumps(res["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kalls" / "__init__.py").is_file():
        print(f"error: no kalls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        OUT.mkdir(exist_ok=True)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
        path = OUT / f"result_{res['workload']}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    units_of = dict(layers.PER_LAYER if args.trace else END_TO_END)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units_of[k]}
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
