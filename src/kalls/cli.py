"""Command-line front end: run single experiments, sweep comparison grids,
check assumptions, print feasibility diagnostics, and re-evaluate saved
active sets.  One JSON config file describes one experiment; unknown keys are
a hard error so typos cannot silently change a run."""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields

from . import __version__, core
from .evaluate import compare, evaluation_stream, excess_risk, run_active
from .seeding import substream
from .synth import SyntheticProblem, check_doubling, check_margin, check_smoothness, make_problem
from .thresholds import (KallsConfig, SmoothnessParams, feasibility_report, margin_delta,
                         per_point_delta)


class ConfigError(ValueError):
    pass


# nested blocks: {key: kind} and the keys each must have
_BLOCKS = {
    "problem": ({"family": "str", "kappa": "float", "d": "int"}, {"family"}),
    "smoothness_override": ({"alpha": "float", "L": "float"}, {"alpha", "L"}),
}


@dataclass
class ExperimentConfig:
    """One experiment.  The fields are the config file's format: their names
    are the allowed keys, those without a default the required ones, and each
    annotation the kind ``_typed`` checks its value against."""

    problem: dict
    pool_size: int
    budgets: list[int]
    epsilon: float
    delta: float
    seeds: list[int]
    c_const: float = KallsConfig.c_const
    budget_mode: str = KallsConfig.budget_mode
    n_test: int = 20_000
    smoothness_override: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        values = _typed_block(raw, {f.name: f.type for f in fields(cls)},
                              {f.name for f in fields(cls) if f.default is MISSING}, "")
        for key, (kinds, required) in _BLOCKS.items():
            if values.get(key) is not None:
                values[key] = _typed_block(values[key], kinds, required, f"{key}.")
        cfg = cls(**values)
        for key in ("seeds", "budgets"):
            if not getattr(cfg, key):
                raise ConfigError(f"'{key}' must be nonempty")
        for key, low in (("pool_size", 2), ("n_test", 1)):
            if getattr(cfg, key) < low:
                raise ConfigError(f"'{key}' must be >= {low}, got {getattr(cfg, key)}")
        try:
            for budget in cfg.budgets:
                cfg.kalls_config(budget)
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        if cfg.smoothness_override is not None:
            # d comes from the problem; d=1 checks alpha and L alone
            _override(cfg.smoothness_override, d=1)
        return cfg

    def build_problem(self):
        try:
            return make_problem(**self.problem)
        except ValueError as exc:
            raise ConfigError(f"bad problem: {exc}") from exc

    def kalls_config(self, budget: int) -> KallsConfig:
        return KallsConfig(epsilon=self.epsilon, delta=self.delta, n=budget,
                           c_const=self.c_const, budget_mode=self.budget_mode)

    def smooth_params(self, problem) -> SmoothnessParams:
        """The smoothness the learner runs with: the override, else the
        problem's certified one.  It is refused where the run could not
        estimate a single record's ball masses (``core.record_accuracy`` at
        lb = 1/2), so such a config fails before any label is spent."""
        if self.smoothness_override is not None:
            smooth = _override(self.smoothness_override, d=problem.d)
        elif problem.certified_smooth is None:
            raise ConfigError(
                "problem has no certified smoothness (kappa=0); "
                "set 'smoothness_override'")
        else:
            smooth = problem.certified_smooth
        try:
            core.record_accuracy(smooth, 0.5, per_point_delta(self.delta, self.pool_size))
        except ValueError as exc:
            raise ConfigError(f"bad smoothness: {exc}") from exc
        return smooth


def _override(values: dict, d: int) -> SmoothnessParams:
    try:
        return SmoothnessParams(**values, d=d)
    except ValueError as exc:
        raise ConfigError(f"bad SmoothnessParams override: {exc}") from exc


def _typed_block(raw: dict, kinds: dict[str, str], required: set[str],
                 prefix: str) -> dict:
    """``raw`` with each value checked by ``_typed``; unknown or missing keys
    are a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{prefix or '<top>'}' must be an object")
    unknown = set(raw) - set(kinds)
    if unknown:
        keys = ", ".join(f"{prefix}{k}" for k in sorted(unknown))
        raise ConfigError(f"unknown config key(s): {keys}")
    missing = required - set(raw)
    if missing:
        keys = ", ".join(f"'{prefix}{k}'" for k in sorted(missing))
        raise ConfigError(f"missing required config key(s): {keys}")
    return {k: _typed(v, kinds[k], prefix + k) for k, v in raw.items()}


def _typed(value, kind: str, key: str):
    """``value`` as ``kind`` (``int``, ``float``, ``str``, ``dict``,
    ``list[<kind>]``, optionally ``| None``).  An int is a float; a float is an
    int only when integral; a bool is neither.  An int lies in [-2^63, 2^63),
    the range of a seed's 64 bits, where ``substream`` gives distinct seeds
    distinct streams.  Anything else is a ConfigError, never a rounded,
    truncated, wrapped or split value."""
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind.startswith("list[") and isinstance(value, list):
        return [_typed(v, kind[5:-1], f"{key}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and value % 1 == 0:
        if -2**63 <= value < 2**63:
            return int(value)
        raise ConfigError(f"'{key}' must be an int in [-2^63, 2^63), got {value!r}")
    if kind == "float" and number:
        try:
            return float(value)
        except OverflowError:  # an int too large for a double
            pass
    if (kind == "str" and isinstance(value, str)) or (kind == "dict" and isinstance(value, dict)):
        return value
    raise ConfigError(f"'{key}' must be {kind}, got {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a key given twice is a ConfigError, since
    json would otherwise keep the last value silently."""
    twice = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    if twice:
        raise ConfigError(f"config key(s) given twice: {', '.join(twice)}")
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # bytes not UTF-8, an int json cannot read
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _provenance(cfg: ExperimentConfig, seed: int | None = None) -> dict:
    """Tool version and config, plus ``resolved_seed`` next to them when a
    ``seed`` is given: the learner seed the subcommand drew from.  The config
    holds config keys alone, so it loads back through ``from_dict``."""
    meta = {"tool_version": __version__, "config": asdict(cfg)}
    if seed is not None:
        meta["resolved_seed"] = seed
    return meta


def _seed(args, cfg: ExperimentConfig) -> int:
    return args.seed_override if args.seed_override is not None else cfg.seeds[0]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args, cfg: ExperimentConfig, problem: SyntheticProblem) -> int:
    seed = _seed(args, cfg)
    budget = cfg.budgets[0]
    active, trace = run_active(problem, cfg.kalls_config(budget), cfg.pool_size, seed,
                               cfg.smooth_params(problem))

    out = _out_dir(args)
    meta = _provenance(cfg, seed)
    trace_path = os.path.join(out, f"trace_seed{seed}_n{budget}.json")
    with open(trace_path, "w") as fh:
        fh.write(trace.to_json(meta["config"], __version__, resolved_seed=seed))
    active_path = os.path.join(out, f"active_set_seed{seed}_n{budget}.csv")
    active.to_csv(active_path, header_comment=json.dumps(meta, sort_keys=True))
    print(f"wrote {trace_path}")
    print(f"wrote {active_path}")
    print(f"labels_spent={trace.labels_spent} records={len(active)} "
          f"stopped={trace.stopped_reason}")
    return 0


def cmd_sweep(args, cfg: ExperimentConfig, problem: SyntheticProblem) -> int:
    seeds = cfg.seeds if args.seed_override is None else [args.seed_override]
    table = compare(problem, cfg.budgets, cfg.kalls_config(cfg.budgets[0]), seeds,
                    w=cfg.pool_size, n_test=cfg.n_test, threads=args.threads,
                    smooth=cfg.smooth_params(problem))
    out = _out_dir(args)
    path = os.path.join(out, "comparison.csv")
    table.to_csv(path, header_comment=json.dumps(_provenance(cfg, args.seed_override),
                                                 sort_keys=True))
    print(f"wrote {path}")
    for budget in table.budgets():
        med_a = table.median_excess_active(budget, fallback=problem.mean_abs_margin())
        med_d = table.median_deep_agreement(budget)
        med_p = table.median_excess_passive(budget)
        cells = [r for r in table.rows if r.budget == budget]
        empty = sum(r.excess_active is None for r in cells)
        print(f"budget={budget} median_excess_active={med_a:.5f} "
              f"median_deep_agreement={med_d:.4f} median_excess_passive={med_p:.5f} "
              f"empty_active={empty}/{len(cells)}")
    return 0


def cmd_check_assumptions(args, cfg: ExperimentConfig, problem: SyntheticProblem) -> int:
    seed = _seed(args, cfg)
    # each of H2, H3 and H4 lands in exactly one of the two lists
    reports, not_checked = [], []

    def skip(assumption: str, reason: str) -> None:
        not_checked.append({"assumption": assumption, "reason": reason})

    if problem.certified_smooth is None:
        reason = "no certified smoothness constants (kappa = 0, the noiseless limit)"
        if cfg.smoothness_override is not None:
            reason += "; the run takes the smoothness_override's alpha and L as given"
        skip("H3", reason)
    else:
        smooth = cfg.smooth_params(problem)  # the run's: the override, if any
        try:
            reports.append(check_smoothness(problem, rng=substream(seed, "points"),
                                            smooth=smooth))
        except NotImplementedError as exc:  # the problem has no analytic ball mass
            skip("H3", str(exc))
    reports.append(check_margin(problem))
    if problem.certified_doubling is None:
        skip("H4", f"no certified doubling constants for {problem.family} "
                   f"with d = {problem.d}")
    else:
        reports.append(check_doubling(problem))
    payload = _provenance(cfg, seed)
    payload["reports"] = [r.as_dict() for r in reports]
    payload["not_checked"] = not_checked
    payload["all_passed"] = all(r.passed for r in reports)
    out = _out_dir(args)
    path = os.path.join(out, "assumptions.json")
    _write_json(path, payload)
    print(f"wrote {path}")
    for r in reports:
        print(f"{r.assumption}: {'passed' if r.passed else 'FAILED'} "
              f"(checked={r.checked}, max_violation={r.max_violation:.3g})")
    for skipped in not_checked:
        print(f"{skipped['assumption']}: not checked ({skipped['reason']})")
    return 0 if payload["all_passed"] else 2


def cmd_feasibility(args, cfg: ExperimentConfig, problem: SyntheticProblem) -> int:
    smooth = cfg.smooth_params(problem)
    for budget in cfg.budgets:
        report = feasibility_report(cfg.kalls_config(budget), smooth,
                                    problem.certified_margin, w=cfg.pool_size)
        print(report.render())
        print()
    return 0


def _saved_problem(path: str) -> dict | None:
    """The problem block of the config a saved artifact embeds in its leading
    '#' lines, or None when it embeds none."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            try:
                meta = json.loads(line[1:])
            except json.JSONDecodeError:
                continue
            if isinstance(meta, dict) and isinstance(meta.get("config"), dict):
                problem = meta["config"].get("problem")
                return problem if isinstance(problem, dict) else None
    return None


def cmd_eval(args, cfg: ExperimentConfig, problem: SyntheticProblem) -> int:
    active = core.ActiveSet.from_csv(args.active_set)
    saved = _saved_problem(args.active_set)
    d_default = inspect.signature(make_problem).parameters["d"].default
    for key, default in (("family", None), ("d", d_default)):
        if saved is not None and saved.get(key, default) != cfg.problem.get(key, default):
            print(f"warning: {args.active_set} was learned with problem.{key}="
                  f"{saved.get(key, default)!r}, the eval config has "
                  f"{cfg.problem.get(key, default)!r}", file=sys.stderr)
    seed = _seed(args, cfg)
    # the test draw of the (seed, budgets[0]) sweep cell, the cell `run` learns in
    est = excess_risk(lambda X: core.one_nn_label_batch(active, X), problem, cfg.n_test,
                      delta_margin=margin_delta(cfg.epsilon, problem.certified_margin),
                      rng=evaluation_stream(seed, cfg.budgets[0]))
    payload = _provenance(cfg, seed)
    payload["active_set"] = args.active_set
    payload["risk"] = asdict(est)
    if args.out:
        path = os.path.join(_out_dir(args), "risk.json")
        _write_json(path, payload)
        print(f"wrote {path}")
    else:
        print(json.dumps(payload["risk"], sort_keys=True, indent=2))
    return 0


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_override(text: str) -> int:
    """``--seed-override``: an int in the range ``_typed`` takes for a
    config seed, or argparse's usage error."""
    try:
        return _typed(int(text), "int", "--seed-override")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kalls",
                                     description="active nearest-neighbor learning bench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, draws=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        if draws:  # feasibility draws nothing and only prints: no seed, no output directory
            p.add_argument("--seed-override", type=_seed_override, default=None,
                           help="learner seed to use instead of the config's seeds")
            p.add_argument("--out", default=None,
                           help="output directory (default: .; eval: stdout)")
        p.add_argument("--threads", type=_threads, default=1)

    p_run = sub.add_parser("run", help="single active-learning run")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="active-vs-passive comparison grid")
    common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_chk = sub.add_parser("check-assumptions", help="run assumption checkers")
    common(p_chk)
    p_chk.set_defaults(fn=cmd_check_assumptions)

    p_feas = sub.add_parser("feasibility", help="print feasibility diagnostics")
    common(p_feas, draws=False)
    p_feas.set_defaults(fn=cmd_feasibility)

    p_eval = sub.add_parser("eval", help="re-evaluate a saved active set")
    common(p_eval)
    p_eval.add_argument("--active-set", required=True, help="active-set CSV path")
    p_eval.set_defaults(fn=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads > 1 and args.command != "sweep":
        print(f"note: --threads {args.threads} has no effect on '{args.command}', "
              "which runs serially", file=sys.stderr)
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg, cfg.build_problem())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
