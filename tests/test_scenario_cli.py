"""Scenario parsing, CLI exit codes, bundle determinism, CSV emission."""
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hpqkd
from hpqkd import attacks, cli, keystream, protocol, reporting, scenario
from hpqkd.optics import ModulationPlan, SmallSignalWarning, tuned_fiber
from hpqkd.protocol import MODES, ChannelModel, SecurityConditionWarning, run_session


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MINIMAL = {"schema_version": 1}

FAST_SIM = {
    "schema_version": 1,
    "seed": 99,
    "simulate": {"num_slots": 1500},
}

FAST_SWEEP = {
    "schema_version": 1,
    "seed": 7,
    "attack_sweep": {
        "m_bases": 8,
        "alpha_sq_over_m_grid": [0.25, 4.0, 64.0],
        "trials": 150,
        "pns_mc_trials": 20000,
    },
}

FAST_VERIFY = {
    "schema_version": 1,
    "optics_verify": {"sweep_points": 12, "num_samples": 4096, "cross_sweep_points": 6},
}


class TestScenarioParsing:
    def test_minimal_document_gets_all_defaults(self):
        resolved = scenario.resolve(dict(MINIMAL))
        assert resolved["simulate"]["num_slots"] == 10000
        assert resolved["channel"]["mu_weak"] == 0.5
        assert resolved["plan"]["m1"] == 0.1
        assert resolved["attack_sweep"]["m_bases"] == 64

    def test_physical_defaults_are_the_dataclass_defaults(self):
        resolved = scenario.resolve(dict(MINIMAL))
        assert resolved["channel"] == dataclasses.asdict(ChannelModel())
        assert resolved["plan"] == dataclasses.asdict(ModulationPlan())
        assert resolved["fiber"] == dataclasses.asdict(tuned_fiber(ModulationPlan()))

    def test_objects_warn_when_built_not_when_resolved(self):
        doc = {"schema_version": 1, "channel": {"m_bases": 16}, "plan": {"m1": 0.5}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved = scenario.resolve(doc)
        assert caught == []
        with pytest.warns(SecurityConditionWarning) as record:
            scenario.build(resolved, "channel")
        with pytest.warns(SmallSignalWarning) as record_plan:
            scenario.build(resolved, "plan")
        assert record[0].filename == record_plan[0].filename == scenario.__file__

    @pytest.mark.parametrize(
        "command, warned", [("simulate", True), ("attack-sweep", False), ("optics-verify", False)]
    )
    def test_security_warning_only_from_the_command_that_uses_the_channel(self, tmp_path, command, warned):
        doc = {**FAST_SIM, **FAST_SWEEP, **FAST_VERIFY, "channel": {"m_bases": 16}}
        path = write_scenario(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--scenario", path]) == cli.EXIT_OK
        assert any(issubclass(w.category, SecurityConditionWarning) for w in caught) is warned

    def test_missing_schema_version_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="schema_version"):
            scenario.resolve({})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="schema_version"):
            scenario.resolve({"schema_version": 2})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="mystery"):
            scenario.resolve({"schema_version": 1, "mystery": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="typo_key"):
            scenario.resolve({"schema_version": 1, "channel": {"typo_key": 3}})

    def test_overrides_survive_resolution(self):
        resolved = scenario.resolve({"schema_version": 1, "channel": {"mu_weak": 0.2}})
        assert resolved["channel"]["mu_weak"] == 0.2
        assert resolved["channel"]["dark_count_prob"] == 0.0

    def test_wrong_typed_value_rejected(self):
        with pytest.raises(scenario.ScenarioError, match="must be a number"):
            scenario.resolve({"schema_version": 1, "channel": {"mu_weak": "bright"}})
        with pytest.raises(scenario.ScenarioError, match="must be a list"):
            scenario.resolve({"schema_version": 1, "simulate": {"modes": "hybrid"}})

    def test_explicit_seed_key(self):
        resolved = scenario.resolve(
            {
                "schema_version": 1,
                "simulate": {
                    "modes": ["hybrid"],
                    "num_slots": 200,
                    "seed_key_hex": "00112233445566778899aabbccddeeff",
                },
            }
        )
        (config,) = scenario.build_session_configs(resolved)
        digest = hashlib.blake2b(config.resolved_seed_key().to_bytes(), digest_size=8).hexdigest()
        assert digest == "3300654a1259b4b6"

    def test_every_schema_key_is_described(self):
        text = scenario.describe_keys()
        for section, keys in scenario.SCHEMA.items():
            for name in keys:
                assert name in text

    def test_invalid_json_is_scenario_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(scenario.ScenarioError, match="JSON"):
            scenario.load(str(path))


class TestSimulateCommand:
    def test_runs_and_writes_bundle(self, tmp_path, capsys):
        path = write_scenario(tmp_path, FAST_SIM)
        out = tmp_path / "report.json"
        assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        bundle = json.loads(out.read_text())
        table = bundle["data"]["results"]["rates_table"]
        by_mode = {row["mode"]: row for row in table}
        assert by_mode["baseline_bb84"]["rate_ratio_vs_baseline"] == 1.0
        assert by_mode["hybrid_parallel"]["rate_ratio_vs_baseline"] == pytest.approx(4.0, abs=0.8)
        assert bundle["data"]["scenario"] == FAST_SIM
        assert bundle["data"]["results"]["stream_layout"] == 7
        summary = capsys.readouterr().out
        assert "hybrid_parallel" in summary

    def test_sessions_and_table_share_one_ratio(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SIM)
        out = tmp_path / "report.json"
        assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["data"]["results"]
        sessions, rows = results["sessions"], results["rates_table"]
        assert [s["mode"] for s in sessions] == [row["mode"] for row in rows] == list(MODES)
        for session, row in zip(sessions, rows):
            assert session["rate_ratio_vs_baseline"] == row["rate_ratio_vs_baseline"]
        assert sessions[0]["rate_ratio_vs_baseline"] == 1.0

    def test_ratio_without_listed_baseline(self):
        doc = {"schema_version": 1, "seed": 28, "simulate": {"modes": ["hybrid"], "num_slots": 10_000}}
        (session,) = reporting.simulate_results(scenario.resolve(doc))["sessions"]
        baseline_doc = {**doc, "simulate": {**doc["simulate"], "modes": ["baseline_bb84"]}}
        (baseline_config,) = scenario.build_session_configs(scenario.resolve(baseline_doc))
        baseline_rate = run_session(baseline_config).useful_rate_bits_per_slot
        ratio = session["rate_ratio_vs_baseline"]
        assert ratio == session["useful_rate_bits_per_slot"] / baseline_rate
        assert abs(ratio - 2.0) <= 3 * 2.0 * 0.045

    @pytest.mark.parametrize("modes", [list(MODES), ["hybrid_parallel"]])
    def test_rates_per_sent_slot(self, modes):
        # Per sent slot the erased meso slots count; the sifted modes erase none.
        simulate = {"num_slots": 4000, "modes": modes}
        doc = {"schema_version": 1, "seed": 5, "channel": {"length_km": 60}, "simulate": simulate}
        results = reporting.simulate_results(scenario.resolve(doc))
        (baseline_config,) = scenario.build_session_configs(
            scenario.resolve({**doc, "simulate": {**doc["simulate"], "modes": ["baseline_bb84"]}})
        )
        baseline_rate = run_session(baseline_config).sifted_bits / 4000
        for session in results["sessions"]:
            per_channel = [c["sifted_bits"] / session["slots"] for c in session["per_channel"]]
            assert [c["useful_rate_bits_per_sent_slot"] for c in session["per_channel"]] == per_channel
            assert session["useful_rate_bits_per_sent_slot"] == sum(per_channel)
            assert session["rate_ratio_per_sent_slot_vs_baseline"] == sum(per_channel) / baseline_rate
            if session["mode"] in ("baseline_bb84", "parallel"):
                assert session["useful_rate_bits_per_sent_slot"] == session["useful_rate_bits_per_slot"]
            else:
                assert session["meso_erasures"] > 0
                assert session["useful_rate_bits_per_sent_slot"] < session["useful_rate_bits_per_slot"]
        assert all("useful_rate_bits_per_sent_slot" not in row for row in results["rates_table"])

    def test_ratio_per_sent_slot_is_null_against_a_dead_baseline(self):
        doc = {"schema_version": 1, "channel": {"length_km": 1000}, "simulate": {"num_slots": 500}}
        sessions = reporting.simulate_results(scenario.resolve(doc))["sessions"]
        assert [s["rate_ratio_per_sent_slot_vs_baseline"] for s in sessions] == [None] * 4
        assert [s["useful_rate_bits_per_sent_slot"] for s in sessions] == [0.0] * 4

    def test_rerun_reproduces_data_section(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SIM)
        raw, resolved = scenario.load(path)
        first = reporting.make_bundle("simulate", raw, resolved, reporting.simulate_results(resolved))
        second = reporting.make_bundle("simulate", raw, resolved, reporting.simulate_results(resolved))
        assert reporting.data_bytes(first) == reporting.data_bytes(second)

    def test_seed_override_changes_data(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SIM)
        outputs = []
        for seed in ("123", "456"):
            out = tmp_path / f"r{seed}.json"
            assert cli.main(["simulate", "--scenario", path, "--seed", seed, "--out", str(out)]) == 0
            outputs.append(json.loads(out.read_text())["data"])
        assert outputs[0] != outputs[1]
        assert outputs[0]["resolved_scenario"]["seed"] == 123

    def test_csv_table(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SIM)
        out = tmp_path / "r.json"
        assert cli.main(["simulate", "--scenario", path, "--out", str(out), "--csv"]) == 0
        csv_path = tmp_path / "r_rates.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["mode", "slots"]

    def test_config_error_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, {"schema_version": 1, "nope": {}})
        assert cli.main(["simulate", "--scenario", path]) == cli.EXIT_CONFIG

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["simulate", "--scenario", str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG

    def test_detuned_parallel_link_is_config_error(self, tmp_path, capsys, monkeypatch):
        # A parallel mode on a detuned link is refused while the session
        # configs are built, before any session runs.
        def never(config):
            raise AssertionError("no session may run")

        monkeypatch.setattr(protocol, "run_session", never)
        monkeypatch.setattr(reporting, "run_session", never)
        doc = {
            "schema_version": 1,
            "simulate": {"modes": ["baseline_bb84", "parallel"], "num_slots": 100},
            "fiber": {"length_m": 0.123},
        }
        path = write_scenario(tmp_path, doc)
        assert cli.main(["simulate", "--scenario", path]) == cli.EXIT_CONFIG
        assert "tuning" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise RuntimeError("detector exploded")

        monkeypatch.setattr(reporting, "run_session", fail)
        path = write_scenario(tmp_path, FAST_SIM)
        assert cli.main(["simulate", "--scenario", path]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: RuntimeError: detector exploded" in err
        assert "Traceback" not in err

    def test_bad_seed_rejected(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SIM)
        assert cli.main(["simulate", "--scenario", path, "--seed", "-5"]) == cli.EXIT_CONFIG

    def test_dead_channel_emits_strict_json(self, tmp_path):
        # Zero detector efficiency kills every rate; ratios become null, and
        # the bundle must still be strict JSON (no NaN tokens).
        doc = {
            "schema_version": 1,
            "simulate": {"modes": ["baseline_bb84", "hybrid"], "num_slots": 300},
            "channel": {"detector_efficiency": 0.0},
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "dead.json"
        assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        text = out.read_text()
        assert "NaN" not in text
        rows = json.loads(text)["data"]["results"]["rates_table"]
        assert all(row["rate_ratio_vs_baseline"] is None for row in rows)


class TestAttackSweepCommand:
    def test_rows_ordered_by_grid(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SWEEP)
        out = tmp_path / "sweep.json"
        assert cli.main(["attack-sweep", "--scenario", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())["data"]["results"]
        table = data["brute_force_table"]
        assert [row["alpha_sq"] for row in table] == [2.0, 32.0, 512.0]
        assert data["monotone_within_2_stderr"] is True
        pns = data["pns_table"]
        assert len(pns) == 6  # default mu grid {0.05, 0.1, 0.2} x thresholds {2, 3}
        assert {row["threshold"] for row in pns} == {2, 3}
        for row in pns:
            assert row["mc_fraction"] == pytest.approx(row["analytic_fraction"], abs=5 * row["mc_stderr"] + 1e-9)

    def test_pns_stderr_floor_is_the_analytic_spread(self):
        # At mu = 1e6 both fractions are exactly 1 and so is the spread's
        # floor: the row reports no error.  At mu = 0 both read exactly 0.
        sweep = {"pns_mu": [0.0, 0.1, 1e6], "pns_thresholds": [2, 3]}
        rows = reporting._pns_rows({"attack_sweep": sweep}, 1000, np.random.default_rng(3))
        ends = [row for row in rows if row["mu"] != 0.1]
        assert [(row["analytic_fraction"], row["mc_fraction"], row["mc_stderr"]) for row in ends] == [(0.0, 0.0, 0.0)] * 2 + [
            (1.0, 1.0, 0.0)
        ] * 2
        for row in rows:
            analytic, mc = row["analytic_fraction"], row["mc_fraction"]
            assert row["mc_stderr"] == math.sqrt(max(mc * (1 - mc), analytic * (1 - analytic)) / 1000)

    def test_trials_override(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SWEEP)
        out = tmp_path / "sweep.json"
        assert cli.main(["attack-sweep", "--scenario", path, "--out", str(out), "--trials", "200"]) == 0
        table = json.loads(out.read_text())["data"]["results"]["brute_force_table"]
        assert all(row["trials"] == 200 for row in table)

    def test_parallel_workers_reproduce_serial_bytes(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SWEEP)
        raw, resolved = scenario.load(path)
        serial = reporting.attack_sweep_results(resolved, workers=1)
        parallel = reporting.attack_sweep_results(resolved, workers=3)
        serial_bundle = reporting.make_bundle("attack-sweep", raw, resolved, serial)
        parallel_bundle = reporting.make_bundle("attack-sweep", raw, resolved, parallel)
        assert reporting.data_bytes(serial_bundle) == reporting.data_bytes(parallel_bundle)

    @pytest.mark.parametrize(
        "workers, cpus, processes",
        [(64, 8, 3), (2, 8, 2), (64, 2, 2), (64, None, None), (1, 8, None)],
    )
    def test_pool_sized_by_grid_and_cpus(self, tmp_path, monkeypatch, workers, cpus, processes):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        path = write_scenario(tmp_path, FAST_SWEEP)  # three grid points
        raw, resolved = scenario.load(path)
        serial = reporting.attack_sweep_results(resolved)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(attacks.os, "cpu_count", lambda: cpus)
        results = reporting.attack_sweep_results(resolved, workers=workers)
        assert started == ([] if processes is None else [processes])
        assert reporting.data_bytes(reporting.make_bundle("attack-sweep", raw, resolved, results)) == (
            reporting.data_bytes(reporting.make_bundle("attack-sweep", raw, resolved, serial))
        )

    def test_cli_import_leaves_the_process_pool_out(self):
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        code = "import sys, hpqkd.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_bundle_records_stream_layout(self, tmp_path):
        path = write_scenario(tmp_path, FAST_SWEEP)
        out = tmp_path / "sweep.json"
        assert cli.main(["attack-sweep", "--scenario", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["data"]["results"]["stream_layout"] == attacks.STREAM_LAYOUT == 4

    @pytest.mark.parametrize(
        "sweep, argv",
        [
            ({"m_bases": 1}, []),
            ({"m_bases": 64.7}, []),
            ({"alpha_sq_over_m_grid": [1.0, -0.5]}, []),
            ({"alpha_sq_over_m_grid": ["bright"]}, []),
            ({"trials": 5}, []),
            ({}, ["--trials", "5"]),
            ({}, ["--trials", "0"]),
        ],
        ids=["m-one", "m-fraction", "grid-negative", "grid-string", "trials-5", "override-5", "override-0"],
    )
    def test_bad_sweep_input_is_config_error(self, tmp_path, capsys, sweep, argv):
        doc = {**FAST_SWEEP, "attack_sweep": {**FAST_SWEEP["attack_sweep"], **sweep}}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["attack-sweep", "--scenario", path, *argv]) == cli.EXIT_CONFIG
        assert "scenario error" in capsys.readouterr().err

    def test_missing_grid_is_config_error(self, tmp_path):
        doc = {"schema_version": 1, "attack_sweep": {"alpha_sq_over_m_grid": []}}
        path = write_scenario(tmp_path, doc)
        assert cli.main(["attack-sweep", "--scenario", path]) == cli.EXIT_CONFIG

    def test_degenerate_two_candidate_grid(self, tmp_path):
        doc = {
            "schema_version": 1,
            "seed": 3,
            "attack_sweep": {
                "m_bases": 2,
                "alpha_sq_over_m_grid": [0.0],
                "trials": 400,
                "pns_mc_trials": 1000,
            },
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "sweep.json"
        assert cli.main(["attack-sweep", "--scenario", path, "--out", str(out)]) == 0
        row = json.loads(out.read_text())["data"]["results"]["brute_force_table"][0]
        assert 0.5 - 3 * (0.25 / 400) ** 0.5 <= row["success_rate"] <= 1.0


class TestOpticsVerifyCommand:
    def test_tuned_scenario_passes(self, tmp_path):
        path = write_scenario(tmp_path, FAST_VERIFY)
        out = tmp_path / "verify.json"
        assert cli.main(["optics-verify", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["data"]["results"]
        assert results["tuned"] is True
        assert results["checks_passed"] is True
        fits = results["fits"]
        assert fits["channel1"]["upper_max_residual"] <= 0.01
        assert fits["channel2"]["upper_model"] == "sin2"
        assert results["prefactor"]["confirmed"] == "e0^2*m1^2/8"
        assert results["cross_channel"]["channel1_relative_spread"] <= 0.01

    def test_detuned_scenario_warns_but_passes(self, tmp_path):
        doc = dict(FAST_VERIFY)
        doc["fiber"] = {"length_m": 0.0623}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "verify.json"
        assert cli.main(["optics-verify", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["data"]["results"]
        assert results["tuned"] is False
        assert "warnings" in results
        assert results["fits"]["channel1"]["oracle_visibility"] < 0.999

    def test_broken_small_signal_fails_checks(self, tmp_path):
        # Deep modulation breaks the first-order fringe law beyond 1%.
        doc = {
            "schema_version": 1,
            "plan": {"m1": 0.44, "m3": 0.22},
            "optics_verify": {"sweep_points": 8, "num_samples": 4096, "cross_sweep_points": 4},
        }
        path = write_scenario(tmp_path, doc)
        with pytest.warns(UserWarning):
            code = cli.main(["optics-verify", "--scenario", path])
        assert code == cli.EXIT_CHECK_FAILED

    def test_zero_depths_give_all_zero_table(self, tmp_path):
        doc = {
            "schema_version": 1,
            "plan": {"m1": 0.0, "m2": 0.0, "m3": 0.0, "m4": 0.0},
            "optics_verify": {"sweep_points": 6, "num_samples": 2048, "cross_sweep_points": 4},
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "verify.json"
        assert cli.main(["optics-verify", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["data"]["results"]
        for channel in ("channel1", "channel2"):
            for row in results["fringe_sweeps"][channel]["rows"]:
                assert row["oracle_upper"] == pytest.approx(0.0, abs=1e-18)
                assert row["oracle_lower"] == pytest.approx(0.0, abs=1e-18)
        assert results["prefactor"]["confirmed"] == "undefined"

    def test_csv_tables(self, tmp_path):
        path = write_scenario(tmp_path, FAST_VERIFY)
        out = tmp_path / "verify.json"
        assert cli.main(["optics-verify", "--scenario", path, "--out", str(out), "--csv"]) == 0
        for name in ("verify_fringe_ch1.csv", "verify_fringe_ch2.csv", "verify_cross_channel.csv"):
            assert (tmp_path / name).exists()


class TestHelp:
    def test_help_lists_every_scenario_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for section, keys in scenario.SCHEMA.items():
            for name, key in keys.items():
                path = f"{section}.{name}" if section else name
                (line,) = [text for text in lines if text.split()[:1] == [path]]
                # The line states the key's rule: its type and every bound or choice.
                kind = key.default[0] if isinstance(key.default, list) else key.default
                assert {int: "an integer", float: "a number"}.get(type(kind), "a string") in line
                for bound in (key.low, key.high, *(key.choices or ())):
                    if bound is not None:
                        assert repr(bound) in line
        text = "\n".join(lines)
        assert "a list of one or more entries" in text
        assert f"in [1, {scenario.MAX_NUM_SLOTS}]" in text
        assert f"in [2, {scenario.MAX_ATTACK_M_BASES}]" in text
        assert f"in [100, {scenario.MAX_ATTACK_TRIALS}]" in text
        assert "16 to 128 hex digits (8 to 64 bytes)" in text

    def test_key_table_is_pinned(self):
        # The key table is the whole per-key contract.  A change to any key
        # (name, unit, help, rule or default) re-pins this digest and says so
        # in CHANGES.md.
        table = scenario.describe_keys()
        assert len(table.splitlines()) == 37
        digest = hashlib.sha256(table.encode()).hexdigest()
        assert digest == "5a4db2b6bcdbe8797d286bb42338785e0c7eac78769f3d8bdbe4f09540058fbe"


class TestPublicApi:
    def test_exports_are_pinned(self):
        # The package's public names.  Adding or removing one edits this list
        # and says so in CHANGES.md.
        assert sorted(hpqkd.__all__) == [
            "ChannelModel",
            "ExpandedKey",
            "FiberLink",
            "ModulationPlan",
            "SeedKey",
            "SessionConfig",
            "SessionReport",
            "SidebandSpectrum",
            "__version__",
            "attack_success_curve",
            "expand_key",
            "overlap_exact",
            "pns_exploitable_fraction",
            "run_session",
            "sideband_intensities_closed_form",
            "sideband_intensities_oracle",
            "tuned_fiber",
        ]
        assert all(hasattr(hpqkd, name) for name in hpqkd.__all__)


class TestBoundary:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, constant):
        path = tmp_path / "scenario.json"
        path.write_text('{"schema_version": 1, "channel": {"mu_weak": %s}}' % constant)
        assert cli.main(["simulate", "--scenario", str(path)]) == cli.EXIT_CONFIG
        assert constant in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, None])
    @pytest.mark.parametrize("command", ["simulate", "attack-sweep", "optics-verify"])
    def test_bad_scenario_seed_is_config_error(self, tmp_path, command, seed):
        path = write_scenario(tmp_path, {"schema_version": 1, "seed": seed})
        assert cli.main([command, "--scenario", path]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("optics-verify", {"optics_verify": {"num_samples": 8}}),
            ("optics-verify", {"optics_verify": {"num_samples": 0}}),
            ("optics-verify", {"optics_verify": {"num_samples": 16384.5}}),
            ("optics-verify", {"plan": {"omega2": 2 * math.pi * 1.0e9 * math.sqrt(2)}}),
            ("optics-verify", {"optics_verify": {"sweep_points": 0}}),
            ("optics-verify", {"optics_verify": {"sweep_points": -1}}),
            ("optics-verify", {"optics_verify": {"sweep_points": 1}}),
            ("optics-verify", {"optics_verify": {"cross_sweep_points": 0}}),
            ("attack-sweep", {"attack_sweep": {"pns_mc_trials": 0}}),
            ("attack-sweep", {"attack_sweep": {"pns_thresholds": [4]}}),
            ("attack-sweep", {"attack_sweep": {"pns_mu": [-0.1]}}),
            ("attack-sweep", {"attack_sweep": {"pns_mu": [1e30]}}),
            ("simulate", {"simulate": {"num_slots": 100.7}}),
            ("optics-verify", {"plan": {"omega2": 1e-300}}),
        ],
        ids=[
            "nyquist", "samples-0", "samples-fraction", "incommensurate", "sweep-0",
            "sweep-negative", "sweep-1", "cross-0", "pns-trials-0", "pns-threshold-4", "pns-mu-negative",
            "pns-mu-huge", "slots-fraction", "omega2-tiny",
        ],
    )
    def test_bad_oracle_and_pns_input_is_config_error(self, tmp_path, capsys, command, doc):
        path = write_scenario(tmp_path, {"schema_version": 1, **doc})
        out = tmp_path / "report.json"
        assert cli.main([command, "--scenario", path, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc, argv",
        [
            ("simulate", {"simulate": {"modes": []}}, []),
            ("simulate", {"simulate": {"modes": None}}, []),
            ("attack-sweep", {"attack_sweep": {"pns_mu": None}}, []),
            ("attack-sweep", {"attack_sweep": {"pns_thresholds": None}}, []),
            ("simulate", {"simulate": {"seed_key_hex": "zz"}}, []),
            ("simulate", {"simulate": {"seed_key_hex": "00"}}, []),
            ("simulate", {"simulate": {"seed_key_hex": 5}}, []),
            ("simulate", {"simulate": {"seed_key_hex": "ab" * 65}}, []),
            ("attack-sweep", {"simulate": {"seed_key_hex": "zz"}}, []),
            ("attack-sweep", {"simulate": {"seed_key_hex": "00"}}, []),
            ("attack-sweep", {"simulate": {"seed_key_hex": "ab" * 65}}, []),
            ("optics-verify", {"simulate": {"seed_key_hex": "zz"}}, []),
            ("optics-verify", {"simulate": {"seed_key_hex": "00"}}, []),
            ("optics-verify", {"simulate": {"seed_key_hex": "ab" * 65}}, []),
            ("simulate", {"fiber": {"length_m": 1.0}}, []),
            ("simulate", {"channel": {"m_bases": 256.0}}, []),
            ("simulate", {"schema_version": True}, []),
            ("simulate", {"simulate": {"num_slots": 1e14}}, []),
            ("simulate", {"simulate": {"num_slots": scenario.MAX_NUM_SLOTS + 1}}, []),
            ("attack-sweep", {"attack_sweep": {"m_bases": 100000}}, []),
            ("attack-sweep", {"attack_sweep": {"m_bases": scenario.MAX_ATTACK_M_BASES + 1}}, []),
            ("attack-sweep", {}, ["--workers", "0"]),
            ("attack-sweep", {}, ["--workers", "-5"]),
            ("simulate", {}, ["--trials", "5"]),
            ("simulate", {"channel": {"mu_weak": 1e300}}, []),
            ("simulate", {"channel": {"alpha_sq_meso": 1e300}}, []),
            ("attack-sweep", {"attack_sweep": {"alpha_sq_over_m_grid": [1.0, 1e300]}}, []),
            ("simulate", {"channel": {"length_km": 10**400}}, []),
            ("simulate", {"channel": {"m_bases": 2**64}}, []),
            ("simulate", {"channel": {"m_bases": 2 * keystream.MAX_M_BASES}}, []),
            ("optics-verify", {"plan": {"e0": 1e160}}, []),
            ("optics-verify", {"plan": {"e0": 1e300}}, []),
            ("simulate", {"plan": {"m1": 1e160}}, []),
            ("optics-verify", {"plan": {"m1": 1e300}}, []),
            ("simulate", {"plan": {"m2": 1e300}}, []),
            ("optics-verify", {"plan": {"m3": 1e160}}, []),
            ("simulate", {"plan": {"m4": 1e300}}, []),
            ("attack-sweep", {"attack_sweep": {"pns_mc_trials": scenario.MAX_PNS_MC_TRIALS + 1}}, []),
            ("attack-sweep", {"attack_sweep": {"trials": scenario.MAX_ATTACK_TRIALS + 1}}, []),
            ("attack-sweep", {}, ["--trials", str(scenario.MAX_ATTACK_TRIALS + 1)]),
            ("optics-verify", {"optics_verify": {"num_samples": scenario.MAX_ORACLE_SAMPLES + 1}}, []),
            ("optics-verify", {"optics_verify": {"sweep_points": scenario.MAX_SWEEP_POINTS + 1}}, []),
            ("optics-verify", {"optics_verify": {"cross_sweep_points": scenario.MAX_SWEEP_POINTS + 1}}, []),
            ("attack-sweep", {"attack_sweep": {"alpha_sq_over_m_grid": [1.0] * (scenario.MAX_GRID_POINTS + 1)}}, []),
            ("attack-sweep", {"attack_sweep": {"pns_mu": [0.1] * (scenario.MAX_PNS_MU + 1)}}, []),
            ("simulate", {"simulate": {"modes": ["hybrid", "hybrid", "hybrid"]}}, []),
            ("attack-sweep", {"attack_sweep": {"pns_thresholds": [2, 3, 2]}}, []),
        ],
        ids=[
            "modes-empty", "modes-null", "pns-mu-null", "pns-thresholds-null", "seed-key-not-hex",
            "seed-key-short", "seed-key-int", "seed-key-long", "sweep-seed-key-not-hex", "sweep-seed-key-short",
            "sweep-seed-key-long", "verify-seed-key-not-hex", "verify-seed-key-short", "verify-seed-key-long",
            "detuned-default-modes", "m-bases-float",
            "schema-version-true", "slots-1e14", "slots-above-cap", "sweep-m-100000",
            "sweep-m-above-cap", "workers-0", "workers-negative", "trials-override-simulate",
            "mu-weak-huge", "meso-huge", "grid-huge", "int-beyond-float", "m-bases-2**64",
            "m-bases-above-cap", "e0-1e160", "e0-1e300", "m1-1e160-simulate", "m1-1e300-verify",
            "m2-1e300", "m3-1e160", "m4-1e300", "pns-trials-above-cap", "trials-above-cap",
            "trials-override-above-cap", "samples-above-cap",
            "sweep-above-cap", "cross-above-cap", "grid-above-cap", "pns-mu-above-cap",
            "modes-repeated", "pns-thresholds-repeated",
        ],
    )
    def test_scenario_contract_violation_is_config_error(self, tmp_path, capsys, command, doc, argv):
        base = {"simulate": FAST_SIM["simulate"], "attack_sweep": FAST_SWEEP["attack_sweep"]}
        merged = {"schema_version": 1, **{k: {**v, **doc.get(k, {})} for k, v in base.items()}}
        merged.update({k: v for k, v in doc.items() if k not in base})
        path = write_scenario(tmp_path, merged)
        out = tmp_path / "report.json"
        assert cli.main([command, "--scenario", path, "--out", str(out), *argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_key_at_its_length_rule_runs(self, tmp_path):
        # 128 hex digits are 64 bytes: 512 bits, the longest seed key, twice
        # the 256-bit security strength of the SHAKE256 keystream.
        sim = {**FAST_SIM["simulate"], "seed_key_hex": "ab" * 64}
        path = write_scenario(tmp_path, {**FAST_SIM, "simulate": sim})
        out = tmp_path / "report.json"
        assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == cli.EXIT_OK
        assert out.exists()

    def test_lists_at_their_length_rule_resolve(self):
        sweep = {"alpha_sq_over_m_grid": [1.0] * scenario.MAX_GRID_POINTS, "pns_mu": [0.1] * scenario.MAX_PNS_MU}
        sweep["pns_thresholds"] = [3, 2]
        doc = {"schema_version": 1, "simulate": {"modes": list(reversed(MODES))}, "attack_sweep": sweep}
        resolved = scenario.resolve(doc)
        assert resolved["attack_sweep"] == {**resolved["attack_sweep"], **sweep}
        assert resolved["simulate"]["modes"] == list(reversed(MODES))

    @pytest.mark.parametrize(
        "doc",
        [
            {"channel": {"length_km": -1}},
            {"channel": {"loss_db_per_km": -1}},
            {"channel": {"detector_efficiency": 1.5}},
            {"channel": {"dark_count_prob": -0.1}},
            {"fiber": {"refractive_index": 0.5}},
            {"fiber": {"length_m": -1}},
            {"channel": {"m_bases": 3}},
            {"plan": {"omega1": -1}},
            {"plan": {"omega2": 2 * math.pi * 1.0e9}},
            {"simulate": {"basis_flip_fault_fraction": 2}},
            {"simulate": {"basis_flip_fault_fraction": -0.5}},
        ],
        ids=[
            "length-km-negative", "loss-negative", "efficiency-1.5", "dark-negative", "index-0.5",
            "length-m-negative", "m-bases-3", "omega1-negative", "equal-tones", "fault-2", "fault-negative",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "attack-sweep", "optics-verify"])
    def test_physical_rule_holds_for_every_command(self, tmp_path, capsys, command, doc):
        # Each rule holds whichever command runs, before any work starts.
        path = write_scenario(tmp_path, {"schema_version": 1, **doc})
        out = tmp_path / "report.json"
        assert cli.main([command, "--scenario", path, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "plan, code",
        # A dark link passes; Bob's sidebands alone break the channel-1 fringe law.
        [({"e0": 1e-300}, cli.EXIT_OK), ({"m1": 1e-300}, cli.EXIT_CHECK_FAILED)],
        ids=["e0-tiny", "m1-tiny"],
    )
    def test_underflowing_prefactor_unit_is_undefined(self, tmp_path, plan, code):
        # e0^2*m1^2 underflows to 0: the prefactor is undefined, not a division by zero.
        path = write_scenario(tmp_path, {**FAST_VERIFY, "plan": plan})
        out = tmp_path / "verify.json"
        assert cli.main(["optics-verify", "--scenario", path, "--out", str(out)]) == code
        assert json.loads(out.read_text())["data"]["results"]["prefactor"]["confirmed"] == "undefined"

    def test_session_at_the_basis_count_cap_decodes_cleanly(self):
        doc = {"schema_version": 1, "simulate": {"num_slots": 2000, "modes": ["hybrid"]}}
        doc["channel"] = {"m_bases": keystream.MAX_M_BASES}
        (session,) = reporting.simulate_results(scenario.resolve(doc))["sessions"]
        assert session["meso_erasures"] == 0 and session["qber"] == 0.0

    @pytest.mark.parametrize(
        "content",
        [
            b'{"schema_version": 1, "seed": "\xff"}',
            b'{"schema_version": 1, "seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
            b'{"schema_version": 1, "seed": ' + b"1" * 5000 + b"}",
        ],
        ids=["not-utf8", "nested-too-deep", "int-too-long"],
    )
    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert cli.main(["simulate", "--scenario", str(path)]) == cli.EXIT_CONFIG
        assert "scenario is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["bundle", "csv"])
    def test_write_failure_is_runtime_error(self, tmp_path, capsys, target):
        path = write_scenario(tmp_path, {"schema_version": 1, "simulate": {"num_slots": 300}})
        if target == "bundle":
            out = tmp_path / "missing" / "report.json"
        else:
            out = tmp_path / "report.json"
            (tmp_path / "report_rates.csv").mkdir()  # the CSV target cannot be opened
        assert cli.main(["simulate", "--scenario", path, "--out", str(out), "--csv"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "attack-sweep", "optics-verify"])
    def test_csv_without_out_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        # The CSV files are written next to the bundle, so --csv alone has nowhere to go.
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--scenario", path, "--csv"])
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "--csv needs --out" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize(
        "command, doc, blocked",
        [("simulate", {"simulate": {"num_slots": 300}}, "rates"), ("attack-sweep", FAST_SWEEP, "pns")],
        ids=["simulate", "attack-sweep"],
    )
    def test_unwritable_csv_leaves_no_output(self, tmp_path, capsys, command, doc, blocked, existing):
        # A directory in the way of one CSV (for attack-sweep, the second of
        # two): no bundle and no CSV may appear, and older files stay intact.
        path = write_scenario(tmp_path, {**doc, "schema_version": 1})
        out = tmp_path / "report.json"
        (tmp_path / f"report_{blocked}.csv").mkdir()
        older = {"report.json": "old bundle", "report_brute_force.csv": "old table"} if existing else {}
        for name, text in older.items():
            (tmp_path / name).write_text(text)
        assert cli.main([command, "--scenario", path, "--out", str(out), "--csv"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: IsADirectoryError" in err
        assert "Traceback" not in err
        expected = sorted(["scenario.json", f"report_{blocked}.csv", *older])
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        assert {name: (tmp_path / name).read_text() for name in older} == older

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_unencodable_result_leaves_no_bundle(self, tmp_path, capsys, monkeypatch, existing):
        # The NaN surfaces halfway through the write; neither a partial bundle
        # nor the temporary file may remain, and an older bundle stays intact.
        monkeypatch.setattr(reporting, "simulate_results", lambda resolved: {"a": [1, 2], "z": float("nan")})
        path = write_scenario(tmp_path, {"schema_version": 1})
        out = tmp_path / "report.json"
        if existing:
            out.write_text("old bundle")
        assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: ValueError" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["report.json"] if existing else []) + ["scenario.json"]
        if existing:
            assert out.read_text() == "old bundle"
