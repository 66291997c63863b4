"""Command-line front end: run single experiments, sweep comparison grids,
check assumptions, print feasibility diagnostics, and re-evaluate saved
active sets.  One JSON config file describes one experiment; unknown keys are
a hard error so typos cannot silently change a run."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__, core
from .evaluate import compare, excess_risk, run_active
from .seeding import substream
from .synth import check_doubling, check_margin, check_smoothness, make_problem
from .thresholds import (KallsConfig, MarginParams, SmoothnessParams,
                         feasibility_report, margin_delta)


class ConfigError(ValueError):
    pass


_PROBLEM_KEYS = {"family", "kappa", "d", "n_atoms", "seed"}
_TOP_REQUIRED = {"problem", "pool_size", "budgets", "epsilon", "delta", "seeds"}
_TOP_KEYS = _TOP_REQUIRED | {"c_const", "u_const", "lb_factor", "budget_mode", "n_test",
                             "smoothness_override", "margin_override", "output_dir"}
_OVERRIDE_KEYS = {"smoothness_override": {"alpha", "L"}, "margin_override": {"beta", "C"}}


@dataclass
class ExperimentConfig:
    problem: dict
    pool_size: int
    budgets: list[int]
    epsilon: float
    delta: float
    seeds: list[int]
    c_const: float = 8.0
    u_const: int = 50
    lb_factor: float = 0.1
    budget_mode: str = "strict_paper"
    n_test: int = 20_000
    smoothness_override: dict | None = None
    margin_override: dict | None = None
    output_dir: str = "."

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, _TOP_KEYS, _TOP_REQUIRED, "")
        _check_keys(raw["problem"], _PROBLEM_KEYS, {"family"}, "problem.")
        for key, allowed in _OVERRIDE_KEYS.items():
            if raw.get(key) is not None:
                _check_keys(raw[key], allowed, allowed, f"{key}.")
        if not raw["seeds"]:
            raise ConfigError("'seeds' must be nonempty")
        if not raw["budgets"]:
            raise ConfigError("'budgets' must be nonempty")
        try:
            cfg = cls(
                problem=dict(raw["problem"]),
                pool_size=int(raw["pool_size"]),
                budgets=[int(b) for b in raw["budgets"]],
                epsilon=float(raw["epsilon"]),
                delta=float(raw["delta"]),
                seeds=[int(s) for s in raw["seeds"]],
                c_const=float(raw.get("c_const", 8.0)),
                u_const=int(raw.get("u_const", 50)),
                lb_factor=float(raw.get("lb_factor", 0.1)),
                budget_mode=str(raw.get("budget_mode", "strict_paper")),
                n_test=int(raw.get("n_test", 20_000)),
                smoothness_override=raw.get("smoothness_override"),
                margin_override=raw.get("margin_override"),
                output_dir=str(raw.get("output_dir", ".")),
            )
            for budget in cfg.budgets:
                cfg.kalls_config(budget)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        if cfg.smoothness_override is not None:
            # d comes from the problem; d=1 checks alpha and L alone
            _override(SmoothnessParams, cfg.smoothness_override, d=1)
        if cfg.margin_override is not None:
            _override(MarginParams, cfg.margin_override)
        return cfg

    def to_dict(self) -> dict:
        return {
            "problem": dict(self.problem),
            "pool_size": self.pool_size,
            "budgets": list(self.budgets),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seeds": list(self.seeds),
            "c_const": self.c_const,
            "u_const": self.u_const,
            "lb_factor": self.lb_factor,
            "budget_mode": self.budget_mode,
            "n_test": self.n_test,
            "smoothness_override": self.smoothness_override,
            "margin_override": self.margin_override,
            "output_dir": self.output_dir,
        }

    def build_problem(self):
        p = self.problem
        try:
            return make_problem(p["family"], kappa=float(p.get("kappa", 1.0)),
                                d=int(p.get("d", 1)), seed=int(p.get("seed", 0)),
                                n_atoms=int(p.get("n_atoms", 256)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad problem: {exc}") from exc

    def kalls_config(self, budget: int) -> KallsConfig:
        return KallsConfig(epsilon=self.epsilon, delta=self.delta, n=budget,
                           c_const=self.c_const, u_const=self.u_const,
                           lb_factor=self.lb_factor, budget_mode=self.budget_mode)

    def smooth_params(self, problem) -> SmoothnessParams:
        if self.smoothness_override is not None:
            return _override(SmoothnessParams, self.smoothness_override, d=problem.d)
        if problem.certified_smooth is None:
            raise ConfigError(
                "problem has no certified smoothness (kappa=0); "
                "set 'smoothness_override'")
        return problem.certified_smooth

    def margin_params(self, problem) -> MarginParams:
        if self.margin_override is not None:
            return _override(MarginParams, self.margin_override)
        return problem.certified_margin


def _override(cls, values: dict, **extra):
    try:
        return cls(**{k: float(v) for k, v in values.items()}, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__} override: {exc}") from exc


def _check_keys(raw: dict, allowed: set[str], required: set[str], prefix: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{prefix or '<top>'}' must be an object")
    unknown = set(raw) - allowed
    if unknown:
        keys = ", ".join(f"{prefix}{k}" for k in sorted(unknown))
        raise ConfigError(f"unknown config key(s): {keys}")
    missing = required - set(raw)
    if missing:
        keys = ", ".join(f"'{prefix}{k}'" for k in sorted(missing))
        raise ConfigError(f"missing required config key(s): {keys}")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _provenance(cfg: ExperimentConfig) -> dict:
    return {"tool_version": __version__, "config": cfg.to_dict()}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(args, cfg: ExperimentConfig) -> str:
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    seed = args.seed_override if args.seed_override is not None else cfg.seeds[0]
    budget = cfg.budgets[0]
    active, trace = run_active(problem, cfg.kalls_config(budget), cfg.pool_size, seed,
                               cfg.smooth_params(problem), cfg.margin_params(problem))

    out = _out_dir(args, cfg)
    meta = _provenance(cfg)
    meta["config"]["resolved_seed"] = int(seed)
    trace_path = os.path.join(out, f"trace_seed{seed}_n{budget}.json")
    with open(trace_path, "w") as fh:
        fh.write(trace.to_json(meta["config"], __version__))
    active_path = os.path.join(out, f"active_set_seed{seed}_n{budget}.csv")
    active.to_csv(active_path, header_comment=json.dumps(meta, sort_keys=True))
    print(f"wrote {trace_path}")
    print(f"wrote {active_path}")
    print(f"labels_spent={trace.labels_spent} records={len(active)} "
          f"stopped={trace.stopped_reason}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    table = compare(problem, cfg.budgets, cfg.kalls_config(cfg.budgets[0]), cfg.seeds,
                    w=cfg.pool_size, n_test=cfg.n_test, threads=args.threads,
                    smooth=cfg.smooth_params(problem), margin=cfg.margin_params(problem))
    out = _out_dir(args, cfg)
    path = os.path.join(out, "comparison.csv")
    table.to_csv(path, header_comment=json.dumps(_provenance(cfg), sort_keys=True))
    print(f"wrote {path}")
    for budget in table.budgets():
        med_a = table.median_excess_active(budget, fallback=problem.mean_abs_margin())
        med_d = table.median_deep_agreement(budget)
        print(f"budget={budget} median_excess_active={med_a:.5f} "
              f"median_deep_agreement={med_d:.4f}")
    return 0


def cmd_check_assumptions(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    reports = []
    if problem.certified_smooth is not None:
        reports.append(check_smoothness(problem, rng=substream(cfg.seeds[0], "points")))
    reports.append(check_margin(problem))
    if problem.certified_doubling is not None:
        reports.append(check_doubling(problem))
    payload = _provenance(cfg)
    payload["reports"] = [r.as_dict() for r in reports]
    payload["all_passed"] = all(r.passed for r in reports)
    out = _out_dir(args, cfg)
    path = os.path.join(out, "assumptions.json")
    _write_json(path, payload)
    print(f"wrote {path}")
    for r in reports:
        print(f"{r.assumption}: {'passed' if r.passed else 'FAILED'} "
              f"(checked={r.checked}, max_violation={r.max_violation:.3g})")
    return 0 if payload["all_passed"] else 2


def cmd_feasibility(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    smooth = cfg.smooth_params(problem)
    margin = cfg.margin_params(problem)
    for budget in cfg.budgets:
        report = feasibility_report(cfg.kalls_config(budget), smooth, margin,
                                    w=cfg.pool_size)
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


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.build_problem()
    active = core.ActiveSet.from_csv(args.active_set)
    saved = _saved_problem(args.active_set)
    for key, default in (("family", None), ("d", 1)):
        if saved is not None and saved.get(key, default) != cfg.problem.get(key, default):
            print(f"warning: {args.active_set} was learned with problem.{key}="
                  f"{saved.get(key, default)!r}, the eval config has "
                  f"{cfg.problem.get(key, default)!r}", file=sys.stderr)
    seed = args.seed_override if args.seed_override is not None else cfg.seeds[0]
    est = excess_risk(core.as_classifier(active), problem, cfg.n_test,
                      delta_margin=margin_delta(cfg.epsilon, cfg.margin_params(problem)),
                      rng=substream(seed, "evaluation"))
    payload = _provenance(cfg)
    payload["active_set"] = args.active_set
    payload["risk"] = {
        "excess_risk": est.excess_risk,
        "std_error": est.std_error,
        "n_test": est.n_test,
        "deep_margin_agreement": est.deep_margin_agreement,
        "n_deep": est.n_deep,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "risk.json")
        _write_json(path, payload)
        print(f"wrote {path}")
    else:
        print(json.dumps(payload["risk"], sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kalls",
                                     description="active nearest-neighbor learning bench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1)

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
    common(p_feas)
    p_feas.set_defaults(fn=cmd_feasibility)

    p_eval = sub.add_parser("eval", help="re-evaluate a saved active set")
    common(p_eval)
    p_eval.add_argument("--active-set", required=True, help="active-set CSV path")
    p_eval.set_defaults(fn=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads > 1 and args.command != "sweep":
        print(f"note: --threads {args.threads} has no effect on '{args.command}', "
              "which runs serially", file=sys.stderr)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
