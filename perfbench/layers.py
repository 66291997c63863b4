"""The per-layer view of a traced run.

Each kalls module is a layer.  ``install`` wraps the public functions the
workloads reach, at the names their callers resolve, and ``metrics`` turns the
recorded spans and counters into the per-layer metrics listed in
``PER_LAYER``.  Every time metric is self time: the span's duration minus the
time its traced children cover.  A ``.share`` metric is inclusive time over
the traced program time, which is what the dominant-layer checks read.
"""
from __future__ import annotations

import inspect
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from tracer import Tracer

PACKAGE = "kalls"

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = [
    *[(f"estimation.{fn}.{m}", u) for fn in ("est_prob", "est_prob_from_sq_dists")
      for m, u in (("calls", "count"), ("self_s", "s"), ("draws_used", "draws"),
                   ("early_frac", "ratio"), ("ns_per_draw", "ns"))],
    ("core.reliable.calls", "count"), ("core.reliable.self_s", "s"),
    ("core.reliable.true_frac", "ratio"), ("core.reliable.share", "ratio"),
    ("core.confident_label.calls", "count"), ("core.confident_label.self_s", "s"),
    ("core.confident_label.labels", "labels"), ("core.confident_label.cutoff_frac", "ratio"),
    ("core.confident_label.share", "ratio"),
    ("core.run_kalls.self_s", "s"),
    ("pool.neighbor_order.calls", "count"), ("pool.neighbor_order.s", "s"),
    ("pool.Pool.sq_dists_from.calls", "count"), ("pool.Pool.sq_dists_from.s", "s"),
    ("pool.LabelOracle.request_batch.calls", "count"),
    ("pool.LabelOracle.request_batch.labels", "labels"),
    ("pool.LabelOracle.request_batch.fresh", "labels"),
    ("pool.LabelOracle.request_batch.s", "s"),
    ("evaluate.PassiveKnn.calls", "count"), ("evaluate.PassiveKnn.s", "s"),
    ("evaluate.PassiveKnn.queries", "queries"), ("evaluate.PassiveKnn.pairs", "pairs"),
    ("evaluate.PassiveKnn.share", "ratio"),
    ("evaluate.run_cell.self_s", "s"),
    ("core.one_nn_label_batch.calls", "count"), ("core.one_nn_label_batch.s", "s"),
    ("core.one_nn_label_batch.queries", "queries"),
    ("synth.sample.calls", "count"), ("synth.sample.s", "s"), ("synth.sample.points", "points"),
    ("synth.eta.calls", "count"), ("synth.eta.s", "s"), ("synth.eta.points", "points"),
    ("thresholds.calls", "count"), ("thresholds.s", "s"),
    ("seeding.substream.calls", "count"), ("seeding.substream.s", "s"),
    ("cli.cmd.self_s", "s"),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


def _add(bucket: dict, key: str, value: float) -> None:
    bucket[key] = bucket.get(key, 0) + value


def _count_draws(bucket, args, kwargs, result, state):
    _add(bucket, "draws_used", result.draws_used)
    _add(bucket, "early", int(result.terminated_early))


def _count_true(bucket, args, kwargs, result, state):
    _add(bucket, "true", int(bool(result)))


def _count_confident(bucket, args, kwargs, result, state):
    _add(bucket, "labels", len(result.q))
    _add(bucket, "cutoff", int(result.cut_off_fired))


def _oracle_state(args, kwargs):
    oracle = args[0]
    return oracle.remaining_budget, oracle.fresh_requests


def _count_oracle(bucket, args, kwargs, result, state):
    oracle = args[0]
    _add(bucket, "labels", state[0] - oracle.remaining_budget)
    _add(bucket, "fresh", oracle.fresh_requests - state[1])


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _count_queries(bucket, args, kwargs, result, state):
    _add(bucket, "queries", _rows(args[1]))


def _count_knn(bucket, args, kwargs, result, state):
    n = _rows(args[1])
    _add(bucket, "queries", n)
    _add(bucket, "pairs", n * args[0].X.shape[0])


def _count_sample(bucket, args, kwargs, result, state):
    _add(bucket, "points", int(args[1]))


def _count_eta(bucket, args, kwargs, result, state):
    _add(bucket, "points", _rows(args[1]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# (span name, "module.attribute" under kalls, count hook, starts a unit); a
# method is "module.Class.method".  A probe whose target the program no longer
# has is skipped and its metrics read 0, so a change that removes a function
# is measured by the same benchmark.
PROBES = [
    ("estimation.est_prob", "estimation.est_prob", _count_draws, False),
    ("estimation.est_prob_from_sq_dists", "estimation.est_prob_from_sq_dists", _count_draws,
     False),
    ("core.reliable", "core.reliable", _count_true, False),
    ("core.confident_label", "core.confident_label", _count_confident, False),
    ("core.run_kalls", "core.run_kalls", None, False),
    ("core.one_nn_label_batch", "core.one_nn_label_batch", _count_queries, False),
    ("pool.neighbor_order", "pool.neighbor_order", None, False),
    ("pool.Pool.sq_dists_from", "pool.Pool.sq_dists_from", None, False),
    ("pool.LabelOracle.request_batch", "pool.LabelOracle.request_batch", _count_oracle, False),
    ("evaluate.PassiveKnn", "evaluate.PassiveKnn.__call__", _count_knn, False),
    ("evaluate.run_cell", "evaluate.run_cell", None, True),
    ("seeding.substream", "seeding.substream", None, False),
    ("cli.cmd", "cli.cmd_run", None, True),
    ("cli.cmd", "cli.cmd_sweep", None, True),
]
BEFORE = {"pool.LabelOracle.request_batch": _oracle_state}


def _module(name: str):
    import importlib
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every probed kalls function; ``tracer.restore()`` undoes it."""
    for name, path, count, new_unit in PROBES:
        module, *attrs = path.split(".")
        owner = _module(module)
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        attr = attrs[-1]
        if owner is None or attr not in vars(owner):
            continue
        kw = {"count": count, "before": BEFORE.get(name), "new_unit": new_unit}
        if inspect.ismodule(owner):
            tracer.patch_function(name, vars(owner)[attr], PACKAGE, **kw)
        else:
            tracer.patch_method(name, owner, attr, **kw)

    thresholds = _module("thresholds")
    for attr, obj in list(vars(thresholds).items()) if thresholds else ():
        if (inspect.isfunction(obj) and obj.__module__ == thresholds.__name__
                and not attr.startswith("_")):
            tracer.patch_function("thresholds", obj, PACKAGE)
    base = getattr(_module("synth"), "SyntheticProblem", None)
    for cls in _subclasses(base) if base is not None else ():
        for attr, count in (("sample", _count_sample), ("eta", _count_eta)):
            if attr in vars(cls):
                tracer.patch_method(f"synth.{attr}", cls, attr, count=count)


def spans_of(tracer: Tracer) -> dict:
    """What ``metrics`` needs of a tracer, in a form that survives JSON."""
    return {"by_name": tracer.by_name(), "counts": tracer.counts, "n": len(tracer.start)}


def merge(parts: list[dict]) -> dict:
    """Sum the ``spans_of`` results of the CLI calls of one execution."""
    by_name: dict[str, dict] = {}
    counts: dict[str, dict] = {}
    for part in parts:
        for name, stats in part["by_name"].items():
            acc = by_name.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                acc[key] += value
        for name, bucket in part["counts"].items():
            acc = counts.setdefault(name, {})
            for key, value in bucket.items():
                _add(acc, key, value)
    return {"by_name": by_name, "counts": counts, "n": sum(p["n"] for p in parts)}


def metrics(spans: dict, wall_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric but ``trace.overhead_s``, which needs an
    untraced execution, from the merged spans of one traced execution; a layer
    the execution never entered reads 0."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans["by_name"].get(name, empty)

    def count(name, key):
        return spans["counts"].get(name, {}).get(key, 0)

    def frac(num, den):
        return num / den if den else 0.0

    program_s = span("cli.cmd")["incl_s"]
    out: dict[str, float] = {}
    for fn in ("est_prob", "est_prob_from_sq_dists"):
        name = f"estimation.{fn}"
        s, draws = span(name), count(name, "draws_used")
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
        out[f"{name}.draws_used"] = draws
        out[f"{name}.early_frac"] = frac(count(name, "early"), s["calls"])
        out[f"{name}.ns_per_draw"] = frac(s["self_s"] * 1e9, draws)
    s = span("core.reliable")
    out.update({"core.reliable.calls": s["calls"], "core.reliable.self_s": s["self_s"],
                "core.reliable.true_frac": frac(count("core.reliable", "true"), s["calls"]),
                "core.reliable.share": frac(s["incl_s"], program_s)})
    s = span("core.confident_label")
    out.update({
        "core.confident_label.calls": s["calls"],
        "core.confident_label.self_s": s["self_s"],
        "core.confident_label.labels": count("core.confident_label", "labels"),
        "core.confident_label.cutoff_frac": frac(count("core.confident_label", "cutoff"),
                                                 s["calls"]),
        "core.confident_label.share": frac(s["incl_s"], program_s)})
    out["core.run_kalls.self_s"] = span("core.run_kalls")["self_s"]
    for name in ("pool.neighbor_order", "pool.Pool.sq_dists_from",
                 "pool.LabelOracle.request_batch", "evaluate.PassiveKnn",
                 "core.one_nn_label_batch", "synth.sample", "synth.eta",
                 "thresholds", "seeding.substream"):
        out[f"{name}.calls"] = span(name)["calls"]
        out[f"{name}.s"] = span(name)["self_s"]
    for key in ("labels", "fresh"):
        out[f"pool.LabelOracle.request_batch.{key}"] = count("pool.LabelOracle.request_batch", key)
    for key in ("queries", "pairs"):
        out[f"evaluate.PassiveKnn.{key}"] = count("evaluate.PassiveKnn", key)
    out["evaluate.PassiveKnn.share"] = frac(span("evaluate.PassiveKnn")["incl_s"], program_s)
    out["evaluate.run_cell.self_s"] = span("evaluate.run_cell")["self_s"]
    out["core.one_nn_label_batch.queries"] = count("core.one_nn_label_batch", "queries")
    out["synth.sample.points"] = count("synth.sample", "points")
    out["synth.eta.points"] = count("synth.eta", "points")
    out["cli.cmd.self_s"] = span("cli.cmd")["self_s"]
    out["trace.spans"] = spans["n"]
    out["trace.wall_s"] = wall_s
    return out
