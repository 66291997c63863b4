"""Measure the baseline the way acceptance does and write it to a JSON file.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it runs ``run.py`` once per seed with tracing off, then
once with tracing on (first seed), each for BENCHMARK.json's ``run_seconds``.
It records, per end-to-end metric, the ten values, their median and their
spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), beside the metrics run.py prints but
does not gate, the traced per-layer breakdown, and the provenance.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((ROOT / ".bench_out" /
                         f"result_{workload}_seed{seed}_trace{trace}.json").read_text())
    print(f"{workload} seed={seed} trace={trace} correct={line['correct']} "
          f"failed={line['failed']}/{line['attempted']}", flush=True)
    for warning in result["warnings"]:
        print(f"  warning: {warning}", flush=True)
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    out = {"command": "python3 perfbench/baseline.py --seeds " + args.seeds,
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], seconds, 1)
        entry = {"end_to_end": {}, "reported": {}, "per_layer": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "spread": spread(values), "bound": metric["bound"], "values": values}
        for key, (_, unit, _) in runs[0]["shown"].items():
            if key not in entry["end_to_end"]:
                values = [r["shown"][key][0] for r in runs if key in r["shown"]]
                entry["reported"][key] = {"unit": unit, "median": statistics.median(values)}
        entry["per_layer"] = {k: {"value": v, "unit": u, "samples": n}
                              for k, (v, u, n) in traced["shown"].items()}
        entry["failed"] = sum(r["failed"] for r in runs + [traced])
        entry["warnings"] = sorted({w for r in runs + [traced] for w in r["warnings"]})
        out["workloads"][name] = entry
        out["provenance"] = runs[0]["provenance"]
        print(json.dumps({k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()}),
              flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
