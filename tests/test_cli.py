from __future__ import annotations

import csv
import hashlib
import json
import math
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
from kalls import thresholds
from kalls.cli import ConfigError, ExperimentConfig, load_config, main
from kalls.thresholds import per_point_delta

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


def write_active_set(tmp_path, problem, points, **config):
    """A saved active set with ``problem`` as the embedded config's problem
    block, beside the other embedded ``config`` keys."""
    active = kalls.core.ActiveSet()
    for i, x in enumerate(points):
        active.append(kalls.core.ActiveRecord(point=np.asarray(x, dtype=np.float64),
                                              inferred_label=i % 2, lb=0.1,
                                              source_index=i))
    path = tmp_path / "active.csv"
    meta = {"tool_version": "0", "config": {"problem": problem, **config}}
    active.to_csv(str(path), header_comment=json.dumps(meta, sort_keys=True))
    return str(path)


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        again = ExperimentConfig.from_dict(asdict(cfg))
        assert again == cfg

    # older configs set u_const, lb_factor, margin_override or output_dir; u
    # is the core's constant 50 (75/94 = 1/g(50)), lb_factor is 0.1, the
    # margin is the problem's certified one and the output directory is --out.
    # json reads NaN and Infinity: a removed key is refused whatever its value
    @pytest.mark.parametrize("key,value", [
        ("buget", 3), ("u_const", 50),
        ("lb_factor", -1.0), ("lb_factor", 0.0), ("lb_factor", float("nan")),
        ("lb_factor", float("inf")),
        ("margin_override", {"beta": 1.0, "C": 2.0}), ("output_dir", "elsewhere"),
    ], ids=["buget", "u_const", "lb_factor-negative", "lb_factor-0", "lb_factor-nan",
            "lb_factor-inf", "margin_override", "output_dir"])
    def test_unknown_top_level_key(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
            load_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown config key(s): {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["atoms", "seed"])
    def test_unknown_problem_key(self, tmp_path, key):
        # make_problem takes a seed, but every CLI draw passes its own stream
        path = write_config(tmp_path, problem={"family": "discrete_atoms", key: 64})
        with pytest.raises(ConfigError, match=f"problem.{key}"):
            load_config(path)
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1

    def _refused(self, tmp_path, capsys, path, named):
        """``kalls run`` on ``path`` is a config error naming ``named``, and
        writes nothing."""
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "o").exists()

    def test_bytes_not_utf8_exits_1(self, tmp_path, capsys):
        path = Path(write_config(tmp_path))
        path.write_bytes(path.read_bytes().replace(b'"kappa"', b'"\xffkappa"'))
        self._refused(tmp_path, capsys, path, str(path))

    def test_int_json_cannot_read_exits_1(self, tmp_path, capsys):
        # past 4300 digits, json's int() refuses the literal
        path = Path(write_config(tmp_path, pool_size=1500))
        path.write_text(path.read_text().replace("1500", "1" * 5000))
        self._refused(tmp_path, capsys, path, str(path))

    @pytest.mark.parametrize("old,new,key", [
        ('"epsilon": 0.25', '"epsilon": 0.25, "epsilon": 0.4', "epsilon"),
        ('"kappa": 1.0', '"kappa": 1.0, "kappa": 2.0', "kappa"),
    ], ids=["top", "problem"])
    def test_key_given_twice_exits_1(self, tmp_path, capsys, old, new, key):
        # json keeps the last of two values, which would change the run silently
        path = Path(write_config(tmp_path))
        text = json.dumps(json.loads(path.read_text()))
        path.write_text(text.replace(old, new, 1))
        self._refused(tmp_path, capsys, path, f"config key(s) given twice: {key}")

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
        ({"n_test": 0}, "n_test"),
        ({"problem": {"family": "product_uniform_nd", "kappa": 1.0, "d": 2.7}}, "problem.d"),
        # json reads NaN and Infinity, which a plain `x < low` check lets through
        ({"c_const": float("nan")}, "c_const"),
        ({"c_const": float("inf")}, "c_const"),
        # an int too large for a double, where a real is expected
        ({"epsilon": 10**400}, "epsilon"),
        ({"c_const": 10**400}, "c_const"),
        ({"problem": {"family": "power_margin_uniform_1d", "kappa": 10**400}}, "problem.kappa"),
        ({"smoothness_override": {"alpha": 1.0, "L": 10**400}}, "smoothness_override.L"),
        # an int outside [-2^63, 2^63): a budget or pool size that fails only
        # after the run, and a seed whose stream is that of its low 64 bits
        ({"budgets": [10**400]}, "budgets[0]"),
        ({"seeds": [2**64 + 1]}, "seeds[0]"),
        ({"seeds": [2**63]}, "seeds[0]"),
        ({"seeds": [-2**63 - 1]}, "seeds[0]"),
        ({"pool_size": 10**400}, "pool_size"),
        ({"n_test": 1e300}, "n_test"),
    ], ids=["pool_size-str", "pool_size-float", "pool_size-bool", "pool_size-1",
            "budgets-str", "budgets-float", "seeds-str", "n_test-0",
            "d-float", "c_const-nan", "c_const-inf",
            "epsilon-huge", "c_const-huge", "kappa-huge", "L-huge",
            "budgets-huge", "seeds-2^64+1", "seeds-2^63", "seeds-below-int64", "pool_size-huge",
            "n_test-huge-float"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, overrides, key):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)
        self._refused(tmp_path, capsys, path, key)

    @pytest.mark.parametrize("seed", [-1, 2**63 - 1, -2**63])
    def test_seeds_at_the_ends_of_64_bits_load(self, tmp_path, seed):
        cfg = load_config(write_config(tmp_path, seeds=[seed]))
        assert cfg.seeds == [seed] and type(cfg.seeds[0]) is int

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

    # the largest accuracy (1/(128 L))^(d/alpha) has no stage table: it underflows
    # to 0.0 at d = 1 for alpha 0.005, only at the problem's d = 2 for alpha
    # 0.008, and at alpha 0.007 it is 4.6e-313, too small for i_max
    @pytest.mark.parametrize("problem,alpha", [
        ({"family": "power_margin_uniform_1d", "kappa": 0.0}, 0.005),
        ({"family": "product_uniform_nd", "kappa": 0.0, "d": 2}, 0.008),
        ({"family": "power_margin_uniform_1d", "kappa": 0.0}, 0.007),
    ])
    def test_accuracy_without_a_stage_table_exits_1_before_any_label(
            self, tmp_path, monkeypatch, capsys, problem, alpha):
        def forbidden(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(kalls.core, "run_kalls", forbidden)
        path = write_config(tmp_path, problem=problem, pool_size=2000, budgets=[150_000],
                            epsilon=0.4, seeds=[1],
                            smoothness_override={"alpha": alpha, "L": 1.2})
        d = problem.get("d", 1)
        for command in ("run", "sweep"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: bad smoothness:")
            assert f"of lb 0.5, alpha {alpha}, L 1.2, d {d}" in err
        assert not (tmp_path / "o").exists()

    def test_certified_smoothness_is_checked_only_where_it_is_used(self, tmp_path, capsys):
        # kappa 0.005 certifies alpha 0.005, L 2, whose largest accuracy
        # underflows: a run with it is refused, and so is check-assumptions,
        # which checks H3 at the smoothness the run uses; but a run with a
        # valid override, and eval, which uses no smoothness, still work
        problem = {"family": "power_margin_uniform_1d", "kappa": 0.005}
        path = write_config(tmp_path, problem=problem, pool_size=300, budgets=[3000],
                            epsilon=0.4, seeds=[1])
        for command in ("run", "check-assumptions"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
            assert "of lb 0.5, alpha 0.005, L 2.0, d 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        active = write_active_set(tmp_path, problem, [[0.25], [0.75]])
        assert main(["eval", "--config", path, "--active-set", active]) == 0
        override = write_config(tmp_path, problem=problem, pool_size=300, budgets=[3000],
                                epsilon=0.4, seeds=[1],
                                smoothness_override={"alpha": 1.0, "L": 1.2})
        assert main(["run", "--config", override, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_kappa_not_finite_exits_1_before_any_label(self, tmp_path, monkeypatch, capsys,
                                                        kappa):
        def forbidden(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(kalls.core, "run_kalls", forbidden)
        path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                               "kappa": kappa})
        for command in ("run", "sweep", "feasibility", "check-assumptions"):
            out = [] if command == "feasibility" else ["--out", str(tmp_path / "o")]
            assert main([command, "--config", path] + out) == 1, command
            assert capsys.readouterr().err.startswith("config error: bad problem: kappa")
        assert not (tmp_path / "o").exists()

    # discrete_atoms has 256 atoms, so n_atoms is no key, whatever the family
    @pytest.mark.parametrize("family", ["power_margin_uniform_1d", "power_margin_gaussian_1d",
                                        "discrete_atoms", "product_uniform_nd"])
    def test_n_atoms_without_atoms_exits_1(self, tmp_path, capsys, family):
        path = write_config(tmp_path, problem={"family": family, "n_atoms": 64})
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: unknown config key(s): problem.n_atoms\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["seeds", "budgets"])
    def test_empty_list_exits_1(self, tmp_path, capsys, key):
        path = write_config(tmp_path, **{key: []})
        with pytest.raises(ConfigError, match=f"^'{key}' must be nonempty$"):
            load_config(path)
        self._refused(tmp_path, capsys, path, f"'{key}' must be nonempty")

    def test_top_level_not_an_object_exits_1(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match=r"^config section '<top>' must be an object$"):
            load_config(path)
        self._refused(tmp_path, capsys, path, "config section '<top>' must be an object")

    def test_kappa_0_without_override_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                               "kappa": 0.0})
        message = "problem has no certified smoothness (kappa=0); set 'smoothness_override'"
        cfg = load_config(path)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cfg.smooth_params(cfg.build_problem())
        self._refused(tmp_path, capsys, path, message)

    def test_override_with_l_1_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, smoothness_override={"alpha": 1.0, "L": 1.0})
        with pytest.raises(ConfigError,
                           match=r"^bad SmoothnessParams override: L must be > 1, got 1.0$"):
            load_config(path)
        self._refused(tmp_path, capsys, path, "bad SmoothnessParams override: L must be > 1")

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
                                "points_scanned", "reliable_skips", "per_point",
                                "estimator_calls", "estimator_draws", "estimator_bounded",
                                "skip_certificates"}
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

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_seed_override_at_the_ends_of_64_bits_runs(self, tmp_path, seed):
        path = write_config(tmp_path, pool_size=300)
        out = str(tmp_path / "o")
        assert main(["run", "--config", path, "--out", out,
                     "--seed-override", str(seed)]) == 0
        assert os.path.exists(os.path.join(out, f"trace_seed{seed}_n400.json"))

    # 2^64 + 1 would run seed 1's stream, since substream keeps the low 64 bits
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 2**64 + 1])
    def test_seed_override_outside_64_bits_is_a_usage_error(self, tmp_path, capsys,
                                                            command, seed):
        path = write_config(tmp_path, pool_size=300)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(out), "--seed-override", str(seed)])
        assert exc.value.code == 2
        assert (f"argument --seed-override: '--seed-override' must be an int in "
                f"[-2^63, 2^63), got {seed}") in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_not_an_int_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, pool_size=300)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", path, "--out", str(out), "--seed-override", "abc"])
        assert exc.value.code == 2
        assert "argument --seed-override: invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()

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


# The CI smoke configs that run records through reliable, and one uniform
# kappa 1 cached_labels run that keeps 417 records (R up to 417 per point)
_SMOOTH = {"alpha": 1.0, "L": 1.2}
PINNED_RUNS = {
    # d = 1: every ball is cut
    "noiseless": ({"problem": {"family": "power_margin_uniform_1d", "kappa": 0.0},
                   "smoothness_override": _SMOOTH, "pool_size": 800, "budgets": [20000],
                   "epsilon": 0.4, "delta": 0.05, "seeds": [3], "n_test": 500},
                  (20000, "budget_exhausted", 27, 0, 0, 0, 102, 27, 2),
                  "82aaea7872a7ec6286a44ec2fcf24d50bf99f54ff61a5421f55654c1279c4387",
                  "e1b464a281a32e4369c59c3cf6840ba146d62c6dcd0b78bd45317f2e6c286b79"),
    "noiseless_2d": ({"problem": {"family": "product_uniform_nd", "d": 2, "kappa": 0.0},
                      "smoothness_override": _SMOOTH, "pool_size": 2000, "budgets": [20000],
                      "epsilon": 0.4, "delta": 0.05, "budget_mode": "cached_labels",
                      "seeds": [3]},
                     (2000, "pool_exhausted", 2000, 0, 0, 0, 206150, 2000, 59),
                     "344cd3bc2d147672ca8cb0756bd518570b5db9f492decf7111be4bf8bab39193",
                     "1b021cd950cb7c8cda1500659622981cf21c2a707c022d30de2096876aa34a09"),
    # d = 1 on a pool of 2000: 36 of the 181 points tested against records
    # have a ball below its record's bound, so reliable takes c* there
    "noiseless_band": ({"problem": {"family": "power_margin_uniform_1d", "kappa": 0.0},
                        "smoothness_override": _SMOOTH, "pool_size": 2000, "budgets": [150000],
                        "epsilon": 0.4, "delta": 0.05, "seeds": [3]},
                       (150000, "budget_exhausted", 182, 26, 43, 11272192, 16668, 156, 101),
                       "44cb096b51cb782907bb4ba4bcd63ce04cfc4339abbd26f6f8d360793a73c3a1",
                       "7f56e8472e356ea3b7dc6d12f46926bb4122abf98390efc6a24f4de9caf4622a"),
    # i_max 80: the last stage holds 2^80 draws, and its two passes are on
    # empty balls
    "atoms_empty_ball": ({"problem": {"family": "discrete_atoms", "kappa": 0.0},
                          "smoothness_override": {"alpha": 0.12, "L": 1.2}, "pool_size": 1000,
                          "budgets": [50000], "epsilon": 0.4, "delta": 0.05, "seeds": [3]},
                         (50000, "budget_exhausted", 57, 2, 2, 2**81, 790, 55, 8),
                         "46739c0281aaea099c36105a091a89282b33e7406ef696b6d1ee7328d1d7caea",
                         "db333028c350f45ef14a808ae276dbbdd7b27ce818ab22bab5f3139753d295e3"),
    "uniform_cached": ({"problem": {"family": "power_margin_uniform_1d", "kappa": 1.0},
                        "pool_size": 2000, "budgets": [4000], "epsilon": 0.25, "delta": 0.05,
                        "c_const": 1.0, "budget_mode": "cached_labels", "seeds": [3]},
                       (2000, "pool_exhausted", 2000, 27, 137, 287309824, 850524, 1973, 417),
                       "f19f8127c5d098552261ee24001f3c036073084598d9d84cf95b781ad651876f",
                       "1c23bede06d2ae8ac679afeaadbc34b2ca627df3f0aff99c5835d3eb6ad13b03"),
    # label inference: every cap is past the cut-off floor, 8 points have a
    # deviation above 2 b(delta_s, cap), and no cut-off fires
    "cached_noisy": ({"problem": {"family": "power_margin_uniform_1d", "kappa": 0.5},
                      "pool_size": 1000, "budgets": [200000], "epsilon": 0.2, "delta": 0.05,
                      "budget_mode": "cached_labels", "seeds": [3]},
                     (1000, "pool_exhausted", 1000, 0, 0, 0, 0, 1000, 0),
                     "e07ef12d77f04b746db016ea4839bba070954d668baef2c936dc548b9753a528",
                     "21a04d9cf7157844456c5770ae133f629cb66bac38881923080c1d11f13bf5ab"),
    # duplicate coordinates: caps of 194 make Q depend on the order among
    # equal coordinates, 115 records put reliable on duplicate-coordinate
    # rows, and the whole pool is revealed
    "atoms_cached": ({"problem": {"family": "discrete_atoms", "kappa": 0.5},
                      "pool_size": 1000, "budgets": [200000], "epsilon": 0.2, "delta": 0.05,
                      "c_const": 1.0, "budget_mode": "cached_labels", "seeds": [3]},
                     (1000, "pool_exhausted", 1000, 361, 361, 3163243413504, 109642, 639, 115),
                     "a926056bcd97d4ed92c28e0c5288fff308879c2e7f6e8aae9457dac3d657c21f",
                     "806f9f99f8ce0f4708c657f371e963fc2cc909fba15db6b5edc17b9bd768886b"),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_run_outputs_are_pinned(tmp_path, name):
    """``kalls run`` writes the same trace and active set as when these pins
    were recorded: the counters as numbers, and the SHA-256 of the trace
    without ``tool_version`` and ``config`` (sorted-key JSON) and of the
    active-set rows (the CSV without its '#' lines)."""
    config, counters, trace_sha, rows_sha = PINNED_RUNS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    tag = f"seed3_n{config['budgets'][0]}"
    trace = json.loads((tmp_path / f"trace_{tag}.json").read_text())
    del trace["tool_version"], trace["config"]
    rows = "".join(line for line in open(tmp_path / f"active_set_{tag}.csv")
                   if not line.startswith("#"))
    assert (*(trace[key] for key in ("labels_spent", "stopped_reason", "points_scanned",
                                     "reliable_skips", "estimator_calls", "estimator_draws",
                                     "estimator_bounded")),
            len(trace["per_point"]), rows.count("\n") - 1) == counters
    assert hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest() == trace_sha
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha


def test_one_log_term_per_scanned_point(tmp_path, monkeypatch):
    """``kalls run`` forms log(1/delta_s) + loglog(1/delta_s) once per
    informative point: on the benchmark's label_inference execution 7
    (learner seeds 14 and 15, every one of 2000 points informative), 4000
    times in all."""
    formed = []
    log_loglog = thresholds._log_loglog

    def counted(delta):
        formed.append(delta)
        return log_loglog(delta)

    monkeypatch.setattr(thresholds, "_log_loglog", counted)
    monkeypatch.setattr(thresholds, "_HEAD", (math.nan, math.nan))
    config = {"problem": {"family": "power_margin_uniform_1d", "d": 1, "kappa": 1.0},
              "pool_size": 2000, "budgets": [200000], "epsilon": 0.2, "delta": 0.01,
              "budget_mode": "cached_labels", "seeds": [14, 15]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for seed in (14, 15):
        assert main(["run", "--config", str(path), "--out", str(tmp_path),
                     "--seed-override", str(seed)]) == 0
        trace = json.loads((tmp_path / f"trace_seed{seed}_n200000.json").read_text())
        assert len(trace["per_point"]) == trace["points_scanned"] == 2000
    assert len(formed) == 4000
    assert formed[:2000] == [per_point_delta(0.01, s) for s in range(1, 2001)]


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

    def test_cell_matches_run_at_c_const_1(self, tmp_path):
        # c 1 cuts k' from 1335 to 167-274 labels per point, under the budget
        path = write_config(tmp_path, budgets=[1000], c_const=1.0)
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", path, "--out", str(run_out)]) == 0
        assert main(["sweep", "--config", path, "--out", str(sweep_out)]) == 0
        trace = json.load(open(run_out / "trace_seed3_n1000.json"))
        with open(sweep_out / "comparison.csv") as fh:
            (row,) = csv.DictReader(l for l in fh if not l.startswith("#"))
        assert int(row["labels_used_active"]) == trace["labels_spent"]
        assert int(row["informative_count"]) == len(trace["per_point"])


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

    @pytest.mark.parametrize("problem", [
        {"family": "power_margin_uniform_1d", "kappa": 3.0},
        {"family": "power_margin_gaussian_1d", "kappa": 3.0},
        {"family": "discrete_atoms", "kappa": 3.0},
        {"family": "product_uniform_nd", "d": 2, "kappa": 2.0}])
    def test_steep_margins_pass_at_their_certificate(self, tmp_path, problem):
        # L grows past 2 with kappa; at L = 2 the d = 1 families fail H3 here
        path = write_config(tmp_path, problem=problem, pool_size=800)
        out = tmp_path / "chk"
        assert main(["check-assumptions", "--config", path, "--out", str(out)]) == 0
        payload = json.load(open(out / "assumptions.json"))
        assert [r["assumption"] for r in payload["reports"]] == ["H3", "H2", "H4"]
        assert payload["all_passed"] is True

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

    def test_h3_is_checked_at_the_smoothness_the_run_uses(self, tmp_path, capsys):
        # kappa 2 certifies L 2, which holds; the override's L 1.01 does not
        path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                               "kappa": 2.0},
                            pool_size=800, smoothness_override={"alpha": 1.0, "L": 1.01})
        out = tmp_path / "chk"
        assert main(["check-assumptions", "--config", path, "--out", str(out)]) == 2
        payload = json.load(open(out / "assumptions.json"))
        (h3,) = [r for r in payload["reports"] if r["assumption"] == "H3"]
        problem = load_config(path).build_problem()
        want = kalls.cli.check_smoothness(problem, rng=kalls.cli.substream(3, "points"),
                                          smooth=kalls.cli.SmoothnessParams(1.0, 1.01, 1))
        assert h3 == want.as_dict() and not want.passed
        assert payload["all_passed"] is False
        assert "H3: FAILED" in capsys.readouterr().out


class TestFeasibilityCommand:
    def test_prints_table(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["feasibility", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "p_tilde_eps" in out
        assert "budget_ok" in out

    def test_delta_a_run_accepts_above_one_over_e(self, tmp_path, capsys):
        # k(eps, delta) and phi_n need loglog(1/delta) > 0: both print as nan
        path = write_config(tmp_path, delta=0.5)
        assert main(["feasibility", "--config", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  k_budget +nan$", out, re.M)
        assert re.search(r"^  phi_n +nan$", out, re.M)

    def test_scales_that_underflow(self, tmp_path, capsys):
        # alpha 0.0076 has a stage table, so a run accepts it, but p_tilde_eps
        # and the unlabeled-sampling scale underflow to 0.0
        path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                               "kappa": 0.0},
                            smoothness_override={"alpha": 0.0076, "L": 1.2},
                            pool_size=2000, budgets=[1000], epsilon=0.2)
        assert main(["feasibility", "--config", path]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^  t_eps_delta +inf$", out, re.M)
        assert re.search(r"^  estprob_pool_rhs +inf$", out, re.M)
        assert re.search(r"^  pool_estprob_ok +no$", out, re.M)

    def test_takes_no_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["feasibility", "--config", path, "--seed-override", "5"])
        assert exc.value.code == 2
        assert "--seed-override" in capsys.readouterr().err

    def test_takes_no_out(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["feasibility", "--config", path, "--out", str(tmp_path / "fo")])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not (tmp_path / "fo").exists()


@pytest.mark.parametrize("command", ["feasibility", "run", "sweep"])
def test_margin_width_that_squares_to_zero(tmp_path, capsys, command):
    # kappa 100 at epsilon 1e-300: Delta is 4.67e-298, and Delta^2
    # underflows to 0.0; the per-point budget saturates, so the cap is the
    # remaining label budget
    path = write_config(tmp_path, problem={"family": "power_margin_uniform_1d",
                                           "kappa": 100.0},
                        pool_size=2000, budgets=[200], epsilon=1e-300, seeds=[1])
    out = [] if command == "feasibility" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", path, *out]) == 0
    if command == "feasibility":
        assert re.search(r"^  k_budget +9223372036854775807$", capsys.readouterr().out, re.M)
    elif command == "run":
        trace = json.load(open(tmp_path / "o" / "trace_seed1_n200.json"))
        assert trace["labels_spent"] == 200
        assert trace["per_point"][0]["k_cap"] == 200


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

    @pytest.mark.parametrize("key,value", [
        ("u_const", 50), ("lb_factor", 0.1), ("margin_override", None), ("output_dir", "."),
    ], ids=["u_const", "lb_factor", "margin_override", "output_dir"])
    def test_config_with_a_removed_key(self, tmp_path, capsys, key, value):
        # an active set saved while the key was a config key: eval reads the
        # embedded problem block alone, so it scores the set as before
        path = write_config(tmp_path)
        old = {**asdict(load_config(path)), key: value}
        problem = old.pop("problem")
        scores = []
        for config in ({}, old):
            active = write_active_set(tmp_path, problem, [[0.25], [0.75]], **config)
            assert main(["eval", "--config", path, "--active-set", active]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            scores.append(json.loads(out.out))
        assert scores[0] == scores[1]

    def test_saved_problem_with_n_atoms(self, tmp_path, capsys):
        # an active set saved while n_atoms was a problem key: eval reads the
        # family and d alone, so it scores the set without a warning
        path = write_config(tmp_path, problem={"family": "discrete_atoms", "kappa": 1.0})
        scores = []
        for extra in ({}, {"n_atoms": 256}):
            problem = {"family": "discrete_atoms", "kappa": 1.0, **extra}
            active = write_active_set(tmp_path, problem, [[0.25], [0.75]])
            assert main(["eval", "--config", path, "--active-set", active]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            scores.append(json.loads(out.out))
        assert scores[0] == scores[1]

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
        monkeypatch.setattr(kalls.cli, "cmd_" + command.replace("-", "_"), lambda *args: 0)
        path = write_config(tmp_path)
        extra = ["--active-set", "unused.csv"] if command == "eval" else []
        assert main([command, "--config", path, "--threads", "2"] + extra) == 0
        assert capsys.readouterr().err == \
            f"note: --threads 2 has no effect on '{command}', which runs serially\n"
        assert main([command, "--config", path, "--threads", "1"] + extra) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_below_one_is_a_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setattr(kalls.cli, "cmd_sweep", lambda *args: 0)
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
        monkeypatch.setattr(kalls.cli, "cmd_sweep", lambda *args: 0)
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

    def test_the_package_imports_no_module(self):
        # kalls binds only __version__, so a module loads no other kalls module
        for module in ("kalls.pool", "kalls.estimation"):
            code = (f"import json, sys, {module}, kalls\n"
                    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('kalls')),"
                    " hasattr(kalls, 'run_kalls')]))")
            assert self._modules_after(code) == [["kalls", module], False]

    def test_every_command_runs_without_mpmath(self, tmp_path):
        path = write_config(tmp_path, n_test=500)
        out = str(tmp_path / "o")
        code = f"""
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of it raises ImportError
from kalls.cli import main
codes = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("run", "sweep"):
        codes[command] = main([command, "--config", {path!r}, "--out", {out!r}])
    codes["feasibility"] = main(["feasibility", "--config", {path!r}])
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
