"""The committed ``BENCH_*.json`` records at the repository root keep one of
two shapes: a per-layer measurement (a ``layer`` entry), or an end-to-end one
for a workload of ``BENCHMARK.json`` with its parent revision, its command,
its pairs of runs and every end-to-end metric that ``BENCHMARK.json``
declares."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    if "layer" in record:
        return
    assert record.get("workload") in {w["name"] for w in spec["workloads"]}, \
        f"{path.name}: neither a layer nor a BENCHMARK.json workload"
    for key in ("parent_rev", "command", "pairs"):
        assert record.get(key), f"{path.name}: no {key}"
    end_to_end = record.get("end_to_end")
    assert isinstance(end_to_end, dict), f"{path.name}: no end_to_end"
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in end_to_end]
    assert not missing, f"{path.name}: end_to_end lacks {missing}"
