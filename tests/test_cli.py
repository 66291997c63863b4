from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

import kalls.cli
import kalls.core
from kalls.cli import ConfigError, ExperimentConfig, load_config, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"family": "power_margin_uniform_1d", "kappa": 1.0, "d": 1},
        "pool_size": 1500,
        "budgets": [400],
        "epsilon": 0.25,
        "delta": 0.05,
        "seeds": [3],
        "n_test": 1000,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def write_active_set(tmp_path, problem, points):
    """A saved active set with ``problem`` as the embedded config's problem block."""
    active = kalls.core.ActiveSet()
    for i, x in enumerate(points):
        active.append(kalls.core.ActiveRecord(point=np.asarray(x, dtype=np.float64),
                                              inferred_label=i % 2, lb=0.1,
                                              source_index=i))
    path = tmp_path / "active.csv"
    meta = {"tool_version": "0", "config": {"problem": problem}}
    active.to_csv(str(path), header_comment=json.dumps(meta, sort_keys=True))
    return str(path)


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        again = ExperimentConfig.from_dict(asdict(cfg))
        assert again == cfg

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, buget=3)
        with pytest.raises(ConfigError, match="buget"):
            load_config(path)
        assert main(["run", "--config", path]) == 1

    @pytest.mark.parametrize("key", ["atoms", "seed"])
    def test_unknown_problem_key(self, tmp_path, key):
        # make_problem takes a seed, but every CLI draw passes its own stream
        path = write_config(tmp_path, problem={"family": "discrete_atoms", key: 64})
        with pytest.raises(ConfigError, match=f"problem.{key}"):
            load_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problem": {},\n  oops\n}\n')
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert ":3:" in err  # line number of the syntax error

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"problem": {"family": "power_margin_uniform_1d"}}))
        with pytest.raises(ConfigError, match="pool_size"):
            load_config(path)

    def test_bad_value_type_exits_1(self, tmp_path):
        path = write_config(tmp_path, pool_size="abc")
        with pytest.raises(ConfigError, match="abc"):
            load_config(path)
        assert main(["run", "--config", path]) == 1

    @pytest.mark.parametrize("overrides,key", [
        ({"pool_size": "abc"}, "pool_size"),
        ({"pool_size": 1500.7}, "pool_size"),
        ({"pool_size": True}, "pool_size"),
        ({"pool_size": 1}, "pool_size"),
        ({"budgets": "123"}, "budgets"),
        ({"budgets": [400.5]}, "budgets"),
        ({"seeds": "12"}, "seeds"),
        ({"u_const": 50.9}, "u_const"),
        ({"n_test": 0}, "n_test"),
        ({"problem": {"family": "product_uniform_nd", "kappa": 1.0, "d": 2.7}}, "problem.d"),
        ({"problem": {"family": "discrete_atoms", "n_atoms": 64.9}}, "problem.n_atoms"),
    ], ids=["pool_size-str", "pool_size-float", "pool_size-bool", "pool_size-1",
            "budgets-str", "budgets-float", "seeds-str", "u_const-float", "n_test-0",
            "d-float", "n_atoms-float"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, overrides, key):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)
        assert main(["run", "--config", path]) == 1
        assert key in capsys.readouterr().err

    def test_integral_values_keep_their_kind(self, tmp_path):
        path = write_config(tmp_path, pool_size=1500.0, c_const=8,
                            problem={"family": "product_uniform_nd", "kappa": 1, "d": 2.0})
        cfg = load_config(path)
        assert type(cfg.pool_size) is int and cfg.pool_size == 1500
        assert type(cfg.c_const) is float and cfg.c_const == 8.0
        assert cfg.problem == {"family": "product_uniform_nd", "kappa": 1.0, "d": 2}
        assert type(cfg.problem["d"]) is int

    def test_override_missing_key_exits_1(self, tmp_path):
        path = write_config(tmp_path, smoothness_override={"alpha": 1.0})
        with pytest.raises(ConfigError, match="smoothness_override.L"):
            load_config(path)
        assert main(["run", "--config", path]) == 1

    @pytest.mark.parametrize("family", ["power_margin_uniform_1d",
                                        "power_margin_gaussian_1d", "product_uniform_nd"])
    def test_n_atoms_without_atoms_exits_1(self, tmp_path, capsys, family):
        path = write_config(tmp_path, problem={"family": family, "n_atoms": 64})
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "n_atoms" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_n_atoms_with_atoms_runs(self, tmp_path):
        path = write_config(tmp_path, problem={"family": "discrete_atoms", "n_atoms": 64},
                            budgets=[200], pool_size=400)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_value_error_inside_a_run_exits_2(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("deep failure")

        monkeypatch.setattr(kalls.core, "run_kalls", broken)
        path = write_config(tmp_path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: deep failure" in err
        assert "config error" not in err


class TestReadme:
    def test_example_config_loads(self, tmp_path):
        example = README.read_text().split("Example config")[1]
        path = tmp_path / "example.json"
        path.write_text(example.split("```json\n")[1].split("```")[0])
        load_config(str(path))

    def test_key_table_is_the_schema(self):
        rows = re.findall(r"^\| `(\w+)` \|.*\| (required|`[^`|]*`) \|$",
                          README.read_text(), re.M)
        documented = dict(rows)
        assert set(documented) == {f.name for f in fields(ExperimentConfig)}
        for f in fields(ExperimentConfig):
            if f.default is MISSING:
                assert documented[f.name] == "required", f.name
            else:
                assert json.loads(documented[f.name].strip("`")) == f.default, f.name


class TestRunCommand:
    def test_run_twice_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["run", "--config", path, "--out", out1]) == 0
        assert main(["run", "--config", path, "--out", out2]) == 0
        t1 = open(os.path.join(out1, "trace_seed3_n400.json"), "rb").read()
        t2 = open(os.path.join(out2, "trace_seed3_n400.json"), "rb").read()
        assert t1 == t2
        a1 = open(os.path.join(out1, "active_set_seed3_n400.csv"), "rb").read()
        a2 = open(os.path.join(out2, "active_set_seed3_n400.csv"), "rb").read()
        assert a1 == a2

    def test_trace_embeds_provenance(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["run", "--config", path, "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "trace_seed3_n400.json")))
        assert payload["tool_version"]
        assert payload["config"]["pool_size"] == 1500
        assert payload["resolved_seed"] == 3
        assert payload["labels_spent"] <= 400
        assert set(payload) == {"tool_version", "config", "resolved_seed",
                                "labels_spent", "stopped_reason",
                                "points_scanned", "reliable_skips", "informative_indices",
                                "per_point"}
        assert payload["per_point"]
        for point in payload["per_point"]:
            assert set(point) == {"s", "q_size", "lb", "accepted", "eta_hat", "y_hat",
                                  "cut_off_fired", "k_cap", "k_tilde"}

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["run", "--config", path, "--out", out,
                     "--seed-override", "11"]) == 0
        assert os.path.exists(os.path.join(out, "trace_seed11_n400.json"))

    def test_empty_ball_at_tiny_accuracy(self, tmp_path):
        # kappa 0 on atoms: scanned points land on record points, so both of a
        # record's balls are empty, and alpha 0.12 makes eps_o = (lb/64L)^(1/0.12)
        # so small that the last stage, 2^i_max draws, is past numpy's C long
        path = write_config(tmp_path, problem={"family": "discrete_atoms", "kappa": 0.0},
                            smoothness_override={"alpha": 0.12, "L": 1.2},
                            pool_size=1000, budgets=[50000], epsilon=0.4)
        out = str(tmp_path / "o")
        assert main(["run", "--config", path, "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "trace_seed3_n50000.json")))
        assert payload["stopped_reason"] == "budget_exhausted"
        assert payload["reliable_skips"] > 0
        active = kalls.core.ActiveSet.from_csv(os.path.join(out, "active_set_seed3_n50000.csv"))
        assert len(active) == 8

    def test_input_config_not_mutated(self, tmp_path):
        path = write_config(tmp_path)
        before = open(path, "rb").read()
        main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert open(path, "rb").read() == before


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        path = write_config(tmp_path, budgets=[200, 400], seeds=[1, 2],
                            pool_size=800, n_test=500)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", path, "--out", out]) == 0
        lines = [l for l in open(os.path.join(out, "comparison.csv"))
                 if not l.startswith("#")]
        assert len(lines) == 5  # header + 2x2 cells

    def test_seed_override_runs_one_seed(self, tmp_path):
        path = write_config(tmp_path, budgets=[200, 400], seeds=[1, 2],
                            pool_size=800, n_test=500)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--seed-override", "5"]) == 0
        with open(out / "comparison.csv") as fh:
            comments = [l for l in fh if l.startswith("#")]
            fh.seek(0)
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        assert [(r["budget"], r["seed"]) for r in rows] == [("200", "5"), ("400", "5")]
        meta = json.loads(comments[0][1:])
        assert meta["resolved_seed"] == 5
        assert meta["config"]["seeds"] == [1, 2]

    def test_summary_reports_both_arms(self, tmp_path, capsys):
        path = write_config(tmp_path, budgets=[200, 400], seeds=[1, 2],
                            pool_size=800, n_test=500)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("budget=")]
        assert len(lines) == 2
        for budget, line in zip(("200", "400"), lines):
            parts = dict(part.split("=", 1) for part in line.split())
            cells = [r for r in rows if r["budget"] == budget]
            passive = [float(r["excess_passive"]) for r in cells if r["excess_passive"]]
            assert float(parts["median_excess_passive"]) == \
                pytest.approx(float(np.median(passive)), abs=5e-6)
            empty = sum(r["excess_active"] == "" for r in cells)
            assert parts["empty_active"] == f"{empty}/{len(cells)}"
            assert "median_excess_active" in parts

    def test_cell_matches_run_under_margin_override(self, tmp_path):
        # the override cuts k' from 1335 to 331 labels per point, under the budget
        path = write_config(tmp_path, budgets=[1000],
                            margin_override={"beta": 2.0, "C": 1.0})
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", path, "--out", str(run_out)]) == 0
        assert main(["sweep", "--config", path, "--out", str(sweep_out)]) == 0
        trace = json.load(open(run_out / "trace_seed3_n1000.json"))
        with open(sweep_out / "comparison.csv") as fh:
            (row,) = csv.DictReader(l for l in fh if not l.startswith("#"))
        assert int(row["labels_used_active"]) == trace["labels_spent"]
        assert int(row["informative_count"]) == len(trace["informative_indices"])


class TestCheckAssumptionsCommand:
    def test_uniform_all_pass(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "chk")
        assert main(["check-assumptions", "--config", path, "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "assumptions.json")))
        assert payload["all_passed"] is True
        names = {r["assumption"] for r in payload["reports"]}
        assert names == {"H2", "H3", "H4"}
        assert payload["not_checked"] == []
        assert payload["resolved_seed"] == 3

    def test_seed_override_draws_h3_pairs(self, tmp_path):
        override, direct = tmp_path / "override", tmp_path / "direct"
        assert main(["check-assumptions", "--config", write_config(tmp_path), "--out",
                     str(override), "--seed-override", "11"]) == 0
        assert main(["check-assumptions", "--config", write_config(tmp_path, seeds=[11]),
                     "--out", str(direct)]) == 0
        got = json.load(open(override / "assumptions.json"))
        want = json.load(open(direct / "assumptions.json"))
        assert got["reports"] == want["reports"]
        assert got["resolved_seed"] == 11
        assert got["config"]["seeds"] == [3]

    @staticmethod
    def check_partition(payload):
        # each assumption in exactly one of the two lists, a skip with a reason
        checked = [r["assumption"] for r in payload["reports"]]
        skipped = [s["assumption"] for s in payload["not_checked"]]
        assert sorted(checked + skipped) == ["H2", "H3", "H4"]
        assert all(s["reason"] for s in payload["not_checked"])
        return checked, skipped

    def test_product_d3_checks_what_it_can(self, tmp_path, capsys):
        # no analytic ball mass and no doubling constants for d >= 3: H3 and H4
        # are named as not checked, H2 decides
        path = write_config(tmp_path, problem={"family": "product_uniform_nd", "d": 3,
                                               "kappa": 1.0})
        out = tmp_path / "chk"
        assert main(["check-assumptions", "--config", path, "--out", str(out)]) == 0
        payload = json.load(open(out / "assumptions.json"))
        assert self.check_partition(payload) == (["H2"], ["H3", "H4"])
        assert "d = 2 only" in payload["not_checked"][0]["reason"]
        assert "doubling" in payload["not_checked"][1]["reason"]
        assert payload["all_passed"] is True
        printed = capsys.readouterr().out
        assert "H2: passed" in printed
        assert "H3: not checked (" in printed
        assert "H4: not checked (" in printed

    @pytest.mark.parametrize("override", [None, {"alpha": 1.0, "L": 1.2}])
    def test_noiseless_names_h3(self, tmp_path, capsys, override):
        path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                               "kappa": 0.0},
                            smoothness_override=override)
        out = tmp_path / "chk"
        assert main(["check-assumptions", "--config", path, "--out", str(out)]) == 0
        payload = json.load(open(out / "assumptions.json"))
        assert self.check_partition(payload) == (["H2", "H4"], ["H3"])
        reason = payload["not_checked"][0]["reason"]
        assert "kappa = 0" in reason
        assert ("smoothness_override" in reason) == (override is not None)
        assert payload["all_passed"] is True
        assert "H3: not checked (" in capsys.readouterr().out


class TestFeasibilityCommand:
    def test_prints_table(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["feasibility", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "p_tilde_eps" in out
        assert "budget_ok" in out

    def test_takes_no_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["feasibility", "--config", path, "--seed-override", "5"])
        assert exc.value.code == 2
        assert "--seed-override" in capsys.readouterr().err


class TestEvalCommand:
    def test_reevaluate_saved_active_set(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["run", "--config", path, "--out", out]) == 0
        active_path = os.path.join(out, "active_set_seed3_n400.csv")
        capsys.readouterr()
        assert main(["eval", "--config", path, "--active-set", active_path]) == 0
        risk = json.loads(capsys.readouterr().out)
        assert 0.0 <= risk["excess_risk"] <= 0.5
        assert risk["n_test"] == 1000


    def test_eval_scores_the_cell_of_the_run(self, tmp_path):
        # the CI noiseless smoke config: run keeps 2 records at budget 20000;
        # budgets[0] is the larger budget, so a key of the last budget differs
        path = write_config(tmp_path,
                            problem={"family": "power_margin_uniform_1d", "kappa": 0.0},
                            smoothness_override={"alpha": 1.0, "L": 1.2},
                            pool_size=800, budgets=[20000, 5000], epsilon=0.4,
                            n_test=500)
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert main(["eval", "--config", path, "--out", str(out),
                     "--active-set", str(out / "active_set_seed3_n20000.csv")]) == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        (cell,) = [r for r in rows if r["budget"] == "20000" and r["seed"] == "3"]
        risk = json.load(open(out / "risk.json"))["risk"]
        assert risk["excess_risk"] == float(cell["excess_active"])
        assert risk["deep_margin_agreement"] == float(cell["deep_margin_agreement"])


class TestEvalProvenance:
    UNIFORM = {"family": "power_margin_uniform_1d", "kappa": 1.0, "d": 1}

    def test_matching_problem_is_silent(self, tmp_path, capsys):
        active = write_active_set(tmp_path, self.UNIFORM, [[0.25], [0.75]])
        path = write_config(tmp_path)
        assert main(["eval", "--config", path, "--active-set", active]) == 0
        assert capsys.readouterr().err == ""

    def test_other_family_warns(self, tmp_path, capsys):
        active = write_active_set(tmp_path, self.UNIFORM, [[0.25], [0.75]])
        path = write_config(tmp_path, problem={"family": "power_margin_gaussian_1d",
                                               "kappa": 1.0, "d": 1})
        assert main(["eval", "--config", path, "--active-set", active]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "problem.family='power_margin_uniform_1d'" in err
        assert "problem.d" not in err

    def test_other_dimension_warns(self, tmp_path, capsys):
        saved = {"family": "product_uniform_nd", "kappa": 1.0, "d": 3}
        active = write_active_set(tmp_path, saved, [[0.25, 0.25], [0.75, 0.75]])
        path = write_config(tmp_path, problem={"family": "product_uniform_nd",
                                               "kappa": 1.0, "d": 2})
        assert main(["eval", "--config", path, "--active-set", active]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "problem.d=3" in err
        assert "problem.family" not in err

    def test_omitted_dimension_is_make_problems_default(self, tmp_path, capsys):
        saved = {"family": "product_uniform_nd", "kappa": 1.0}
        active = write_active_set(tmp_path, saved, [[0.25, 0.25], [0.75, 0.75]])
        path = write_config(tmp_path, problem={"family": "product_uniform_nd",
                                               "kappa": 1.0, "d": 2})
        assert main(["eval", "--config", path, "--active-set", active]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "problem.d=1" in err

    @pytest.mark.parametrize("body,match", [
        ("y0,label,lb,source_index\n0.25,0,0.1,0\n", "has header"),
        ("x0,x1,label,lb,source_index\n0.25,0,0.1,0\n", "record 1 has 4 fields"),
        # records that parse but do not hold: a label outside {0, 1}, a
        # non-finite coordinate or lb, source indices that do not increase
        ("x0,label,lb,source_index\n0.25,2,0.1,0\n0.75,1,0.1,1\n",
         "record 1: label 2 is not 0 or 1"),
        ("x0,label,lb,source_index\n0.25,0,0.1,0\n0.75,-1,0.1,1\n",
         "record 2: label -1 is not 0 or 1"),
        ("x0,label,lb,source_index\n0.25,0,0.1,0\nnan,1,0.1,1\n",
         "record 2: a coordinate or lb is not finite"),
        ("x0,x1,label,lb,source_index\n0.25,-inf,0,0.1,0\n",
         "record 1: a coordinate or lb is not finite"),
        ("x0,label,lb,source_index\n0.25,0,inf,0\n", "record 1: a coordinate or lb is not finite"),
        ("x0,label,lb,source_index\n0.25,0,0.1,4\n0.75,1,0.1,4\n",
         "record 2: source indices must be strictly increasing"),
        ("x0,label,lb,source_index\n0.25,0,0.1,4\n0.75,1,0.1,3\n",
         "record 2: source indices must be strictly increasing"),
        ("x0,label,lb,source_index\n0.25,one,0.1,0\n", "record 1: invalid literal"),
    ])
    def test_bad_layout_exits_2(self, tmp_path, capsys, body, match):
        active = tmp_path / "active.csv"
        active.write_text(body)
        path = write_config(tmp_path)
        assert main(["eval", "--config", path, "--active-set", str(active)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err and str(active) in err


class TestThreadsFlag:
    @pytest.mark.parametrize("command", ["run", "check-assumptions", "feasibility", "eval"])
    def test_note_where_unused(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(kalls.cli, "cmd_" + command.replace("-", "_"), lambda args: 0)
        path = write_config(tmp_path)
        extra = ["--active-set", "unused.csv"] if command == "eval" else []
        assert main([command, "--config", path, "--threads", "2"] + extra) == 0
        assert capsys.readouterr().err == \
            f"note: --threads 2 has no effect on '{command}', which runs serially\n"
        assert main([command, "--config", path, "--threads", "1"] + extra) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setattr(kalls.cli, "cmd_sweep", lambda args: 0)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", write_config(tmp_path), "--threads", value])
        assert exc.value.code == 2
        assert f"argument --threads: must be >= 1, got {value}" in capsys.readouterr().err

    def test_malformed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", write_config(tmp_path), "--threads", "two"])
        assert exc.value.code == 2
        assert "argument --threads: invalid int value: 'two'" in capsys.readouterr().err

    def test_sweep_uses_it_silently(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(kalls.cli, "cmd_sweep", lambda args: 0)
        assert main(["sweep", "--config", write_config(tmp_path), "--threads", "2"]) == 0
        assert capsys.readouterr().err == ""


class TestEmbeddedConfig:
    """The config a subcommand writes out loads back as the config it ran."""

    def _check(self, meta, path, seed):
        assert ExperimentConfig.from_dict(meta["config"]) == load_config(path)
        assert meta["resolved_seed"] == seed

    def test_run(self, tmp_path):
        path, out = write_config(tmp_path), tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        self._check(json.load(open(out / "trace_seed3_n400.json")), path, 3)
        with open(out / "active_set_seed3_n400.csv") as fh:
            self._check(json.loads(fh.readline()[1:]), path, 3)

    def test_sweep_seed_override(self, tmp_path):
        path = write_config(tmp_path, budgets=[200], pool_size=800, n_test=500)
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out),
                     "--seed-override", "5"]) == 0
        with open(out / "comparison.csv") as fh:
            self._check(json.loads(fh.readline()[1:]), path, 5)

    def test_check_assumptions(self, tmp_path):
        path, out = write_config(tmp_path), tmp_path / "o"
        assert main(["check-assumptions", "--config", path, "--out", str(out)]) == 0
        self._check(json.load(open(out / "assumptions.json")), path, 3)

    def test_eval(self, tmp_path):
        path = write_config(tmp_path)
        active = write_active_set(tmp_path, TestEvalProvenance.UNIFORM, [[0.25], [0.75]])
        out = tmp_path / "o"
        assert main(["eval", "--config", path, "--active-set", active, "--out", str(out),
                     "--seed-override", "7"]) == 0
        self._check(json.load(open(out / "risk.json")), path, 7)


class TestImportHygiene:
    """Start-up leaves out scipy.special, mpmath and numpy.ma, every command
    runs without mpmath, and a run or sweep call imports no numpy or scipy
    module inside the call."""

    @staticmethod
    def _modules_after(code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_import_leaves_out_scipy_special(self):
        modules = self._modules_after(
            "import json, sys\nimport kalls.cli\nprint(json.dumps(sorted(sys.modules)))")
        assert "kalls.synth" in modules
        assert not [m for m in modules if m.split(".")[:2] == ["scipy", "special"]]
        assert "mpmath" not in modules
        assert "numpy.ma" not in modules

    def test_every_command_runs_without_mpmath(self, tmp_path):
        path = write_config(tmp_path, n_test=500)
        out = str(tmp_path / "o")
        code = f"""
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of it raises ImportError
from kalls.cli import main
codes = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("run", "sweep", "feasibility"):
        codes[command] = main([command, "--config", {path!r}, "--out", {out!r}])
    codes["eval"] = main(["eval", "--config", {path!r}, "--active-set",
                          {os.path.join(out, "active_set_seed3_n400.csv")!r}])
print(json.dumps(codes))
"""
        assert self._modules_after(code) == {"run": 0, "sweep": 0, "feasibility": 0,
                                             "eval": 0}

    def test_run_and_sweep_import_no_numpy_or_scipy_module(self, tmp_path):
        path = write_config(tmp_path, budgets=[200], pool_size=800, n_test=500)
        code = f"""
import contextlib, io, json, sys
from kalls.cli import main
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("run", "sweep"):
        assert main([command, "--config", {path!r}, "--out", {str(tmp_path / "o")!r},
                     "--threads", "1"]) == 0
print(json.dumps(sorted(set(sys.modules) - before)))
"""
        new = self._modules_after(code)
        assert [m for m in new if m.split(".")[0] in ("numpy", "scipy")] == []
