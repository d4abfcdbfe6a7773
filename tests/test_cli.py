import hashlib
import json
from pathlib import Path

import pytest

from chipchain.cli import load_config, main

SMALL_CONFIG = {
    "sim": {
        "chiplet_mfrs": 4,
        "chiplet_dists": 8,
        "ic_mfrs": 3,
        "ic_dists": 6,
        "si_count": 3,
        "chains": [["TC-1", True], ["UC-1", False]],
        "n_transactions": 400,
        "rng_seed": 11,
    },
    "reputation": {"decrease_rate": 0.1},
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["basic", "--n", "100"])  # no --seed
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestBasicCommand:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        code = run(
            ["basic", "--m", "0.01", "--defect-prob", "1e-2", "--n", "2000",
             "--seed", "7", "--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "basic_m0.01_p0.01_seed7.csv").exists()
        assert "final_normalized" in capsys.readouterr().out


class TestAttackCommand:
    def test_happy_path(self, tmp_path, capsys):
        code = run(
            ["attack", "--malicious-p", "0.002", "--switch-at", "500", "--n", "1000",
             "--seed", "3", "--out", tmp_path, "--stride", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sleeper-0.002" in out
        assert (tmp_path / "attack_benign_seed3.csv").exists()

    def test_bad_switch_is_diagnosed(self, tmp_path, capsys):
        code = run(
            ["attack", "--malicious-p", "0.002", "--switch-at", "1000", "--n", "1000",
             "--seed", "3"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


#: Valid arguments of each curve command; a case's flags are appended to them.
CURVE_ARGS = {
    "basic": ["basic", "--n", "10", "--seed", "0"],
    "attack": ["attack", "--malicious-p", "0.002", "--switch-at", "5", "--n", "10", "--seed", "0"],
}


class TestCurveInputs:
    """A curve input out of range ends in exit 1 and one line, never a traceback or a NaN."""

    @pytest.mark.parametrize("command", sorted(CURVE_ARGS))
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--stride", "0"], "stride must be an integer >= 1, got 0"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["--n", "0"], "n_txn must be an integer >= 1, got 0"),
            (["--m", "nan"], "decrease rate must be finite and > 0, got nan"),
            (["--m", "inf"], "decrease rate must be finite and > 0, got inf"),
            (["--m", "0"], "decrease rate must be finite and > 0, got 0.0"),
        ],
        ids=["zero_stride", "negative_seed", "zero_n", "nan_m", "inf_m", "zero_m"],
    )
    def test_shared_inputs(self, capsys, command, flags, message):
        assert run(CURVE_ARGS[command] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("basic", ["--defect-prob", "nan"], "defect probability must be in [0, 1], got nan"),
            ("basic", ["--defect-prob", "2"], "defect probability must be in [0, 1], got 2.0"),
            ("basic", ["--defect-prob", "-0.1"],
             "defect probability must be in [0, 1], got -0.1"),
            ("attack", ["--benign-p", "nan"], "defect probability must be in [0, 1], got nan"),
            ("attack", ["--malicious-p", "2"], "defect probability must be in [0, 1], got 2.0"),
            ("attack", ["--malicious-p=-inf"],
             "defect probability must be in [0, 1], got -inf"),
            ("attack", ["--switch-at", "10"], "switch_at must be an integer in [0, 10), got 10"),
            ("attack", ["--switch-at", "-1"], "switch_at must be an integer in [0, 10), got -1"),
            ("basic", ["--defect-prob", "0.0015", "--defect-prob", "0.00150000001"],
             "defect probabilities 0.0015 and 0.00150000001 share the label 0.0015"),
            ("basic", ["--m", "0.01", "--m", "0.0100000001"],
             "decrease rates 0.01 and 0.0100000001 share the label 0.01"),
            ("attack", ["--malicious-p", "0.0015", "--malicious-p", "0.00150000001"],
             "defect probabilities 0.0015 and 0.00150000001 share the label 0.0015"),
            ("basic", ["--defect-prob", "0.5", "--defect-prob", "0", "--defect-prob", "-0"],
             "defect probability must be 0, not -0.0"),
            ("attack", ["--malicious-p", "0", "--malicious-p", "-0"],
             "defect probability must be 0, not -0.0"),
            ("attack", ["--benign-p", "-0"], "defect probability must be 0, not -0.0"),
        ],
        ids=[
            "basic_nan_p", "basic_p_above_1", "basic_negative_p", "attack_nan_benign_p",
            "attack_malicious_p_above_1", "attack_negative_malicious_p", "attack_switch_at_n",
            "attack_negative_switch", "basic_colliding_p_labels", "basic_colliding_m_labels",
            "attack_colliding_p_labels", "basic_signed_zero_p", "attack_signed_zero_malicious_p",
            "attack_signed_zero_benign_p",
        ],
    )
    def test_probabilities_and_switch(self, capsys, command, flags, message):
        assert run(CURVE_ARGS[command] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulatePipeline:
    def test_simulate_writes_artifacts(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run(["simulate", "--config", config_file, "--out", out]) == 0
        for name in ("ledger.ndjson", "scores.csv", "penalties.ndjson", "run.json"):
            assert (out / name).exists(), name
        assert not (out / "events.ndjson").exists()

    def test_verify_oracle_passes_on_simulate_log(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        code = run(
            ["verify-oracle", "--log", out / "ledger.ndjson",
             "--trusted-chains", "TC-1", "--m", "0.1"]
        )
        assert code == 0
        assert "max_relative_deviation" in capsys.readouterr().out

    def test_replay_reproduces_simulate(self, tmp_path, config_file):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        replayed = tmp_path / "replayed"
        code = run(
            ["replay", "--log", out / "ledger.ndjson", "--out", replayed,
             "--trusted-chains", "TC-1", "--m", "0.1"]
        )
        assert code == 0
        assert (replayed / "ledger.ndjson").read_bytes() == (out / "ledger.ndjson").read_bytes()
        # Same view and parameters as simulate; only the comment line differs.
        replayed_rows = (replayed / "scores.csv").read_text().splitlines()
        assert replayed_rows[1:] == (out / "scores.csv").read_text().splitlines()[1:]

    def test_score_queries_one_entity(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        capsys.readouterr()
        code = run(
            ["score", "--log", out / "ledger.ndjson", "--entity", "cm001",
             "--trusted-chains", "TC-1", "--m", "0.1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entity_id"] == "cm001"
        assert 0.0 <= payload["normalized"] <= 1.0

    def test_score_unknown_entity_fails(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        capsys.readouterr()
        code = run(
            ["score", "--log", out / "ledger.ndjson", "--entity", "ghost",
             "--trusted-chains", "TC-1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown entity 'ghost'\n"

    def test_seed_override_changes_stream(self, tmp_path, config_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", config_file, "--out", a])
        run(["simulate", "--config", config_file, "--seed", "99", "--out", b])
        assert (a / "ledger.ndjson").read_bytes() != (b / "ledger.ndjson").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", config_file, "--out", a])
        run(["simulate", "--config", config_file, "--out", b])
        for name in ("ledger.ndjson", "scores.csv", "penalties.ndjson"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestEndToEndCommand:
    def test_happy_path(self, tmp_path, config_file, capsys):
        out = tmp_path / "e2e"
        code = run(["end-to-end", "--config", config_file, "--out", out])
        assert code == 0
        assert (out / "end_to_end_seed11.csv").exists()
        assert (out / "scores.csv").exists()
        assert "mean_normalized" in capsys.readouterr().out

    def test_verify_oracle_on_e2e_log(self, tmp_path, config_file):
        out = tmp_path / "e2e"
        run(["end-to-end", "--config", config_file, "--out", out])
        assert (
            run(["verify-oracle", "--log", out / "ledger.ndjson",
                 "--trusted-chains", "TC-1", "--m", "0.1"])
            == 0
        )

    def test_bad_config_is_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sim": {"chiplet_mfrs": 0}}))
        code = run(["end-to-end", "--config", bad, "--out", tmp_path / "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def small_config_with(section, values):
    """``SMALL_CONFIG`` as JSON text, with ``values`` merged into ``section``."""
    config = json.loads(json.dumps(SMALL_CONFIG))
    config.setdefault(section, {}).update(values)
    return json.dumps(config)


class TestMalformedConfigs:
    """A malformed config ends in exit 1 and one line naming the file, never a traceback."""

    @pytest.mark.parametrize("command", ("simulate", "end-to-end"))
    @pytest.mark.parametrize(
        "text, message",
        [
            (small_config_with("reputation", {"decay": 0.1}),
             "unknown reputation config keys: ['decay']"),
            (small_config_with("reputation", {"exchange": {"EUR": 2.0}}),
             "unknown reputation config keys: ['exchange']"),
            (small_config_with("behaviors", {"uniform": 0.1}),
             "unknown behaviors config keys: ['uniform']"),
            (small_config_with("sim", {"assignment": {"cm001": "UC-1"}}),
             "unknown sim config keys: ['assignment']"),
            (small_config_with("simulation", {}), "unknown config section 'simulation'"),
            (small_config_with("reputation", {"decrease_rate": "0.1"}),
             "decrease_rate must be finite and positive"),
            (small_config_with("sim", {"n_transactions": "400"}),
             "n_transactions must be an integer >= 1, got '400'"),
            (small_config_with("sim", {"rng_seed": -1}), "rng_seed must be an integer >= 0"),
            (small_config_with("behaviors", {"uniform_p": "0.1"}), "defect_prob must be in [0, 1]"),
            (small_config_with("sim", {"hop_range": 2}), "not iterable"),
            (small_config_with("behaviors", {"sleepers": {"cm001": 5}}), "cannot unpack"),
            (small_config_with("behaviors", {"sleepers": {"cm001": ["9", 0.5]}}),
             "switch_at must be an integer"),
            (json.dumps({"sim": [1, 2]}), "config section 'sim' must be a JSON object"),
            (json.dumps([SMALL_CONFIG]), "config must be a JSON object"),
            ('{"sim": ', "Expecting value"),
            (small_config_with("sim", {"chains": [["A_B", True]]}),
             "chain id 'A_B' may not contain '_' or '^'"),
            (small_config_with("sim", {"chains": [["X^Y", True]]}),
             "chain id 'X^Y' may not contain '_' or '^'"),
            (small_config_with("sim", {"chains": [[7, True]]}),
             "chain id must be a non-empty string"),
            (small_config_with("sim", {"base_unit_cost": True}),
             "base_unit_cost must be a finite number >= 0, got True"),
            (small_config_with("sim", {"base_unit_cost": {"amount": 1, "currency": "EUR"}}),
             "base_unit_cost must be a finite number >= 0, got {'amount': 1, 'currency': 'EUR'}"),
            (small_config_with("sim", {"markup_pct": float("nan")}),
             "markup_pct must be a finite number >= 0, got nan"),
            (small_config_with("sim", {"markup_pct": float("inf")}),
             "markup_pct must be a finite number >= 0, got inf"),
            (small_config_with("sim", {"markup_pct": 1e60}),
             "markup_pct 1e+60 overflows prices within 7 markups"),
            # A JSON true or false is no number, and a JSON string is no trust flag.
            (small_config_with("sim", {"n_transactions": True}),
             "n_transactions must be an integer >= 1, got True"),
            (small_config_with("sim", {"rng_seed": False}),
             "rng_seed must be an integer >= 0, got False"),
            (small_config_with("sim", {"hop_range": [True, 3]}),
             "hop_range must be integers 1 <= lo <= hi, got (True, 3)"),
            (small_config_with("sim", {"cross_chain_prob": True}),
             "cross_chain_prob must be in [0, 1]"),
            (small_config_with("sim", {"markup_pct": True}),
             "markup_pct must be a finite number >= 0, got True"),
            (small_config_with("sim", {"chains": [["TC-1", "false"], ["UC-1", False]]}),
             "chain 'TC-1' trust flag must be a boolean, got 'false'"),
            (small_config_with("behaviors", {"uniform_p": True}), "defect_prob must be in [0, 1]"),
            (small_config_with("behaviors", {"sleepers": {"cm001": [False, 0.5]}}),
             "switch_at must be an integer, got False"),
            (small_config_with("behaviors", {"sleepers": {"cm001": [5, True]}}),
             "post_switch_prob must be in [0, 1]"),
            (small_config_with("reputation", {"decrease_rate": True}),
             "decrease_rate must be finite and positive"),
            (small_config_with("reputation", {"trusted_discount": True}),
             "trusted_discount must be finite and >= 1"),
            # Integers beyond the double range, which no float conversion may meet.
            (small_config_with("reputation", {"decrease_rate": 10**400}),
             "decrease_rate must be finite and positive"),
            (small_config_with("sim", {"chiplets_per_ic": 10**400}),
             "markup_pct 10.0 overflows prices within 7 markups"),
        ],
        ids=[
            "unknown_reputation_key", "reputation_exchange", "unknown_behaviors_key",
            "sim_assignment", "unknown_section", "string_decrease_rate",
            "string_n_transactions", "negative_seed", "string_uniform_p", "scalar_hop_range",
            "scalar_sleeper", "string_switch_at", "section_not_object", "top_level_array",
            "bad_json", "separator_chain_id", "meta_prefix_chain_id", "numeric_chain_id",
            "bool_base_unit_cost", "object_base_unit_cost", "nan_markup", "inf_markup",
            "overflowing_markup", "bool_n_transactions", "bool_rng_seed", "bool_hop_range",
            "bool_cross_chain_prob", "bool_markup", "string_trust_flag", "bool_uniform_p",
            "bool_switch_at", "bool_post_switch_prob", "bool_decrease_rate",
            "bool_trusted_discount", "huge_int_decrease_rate", "huge_int_chiplets_per_ic",
        ],
    )
    def test_diagnosed_with_path(self, tmp_path, capsys, command, text, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {config}: ")
        assert message in err

    def test_negative_seed_flag_without_config(self, tmp_path, capsys):
        assert run(["simulate", "--seed", "-1", "--out", tmp_path]) == 1
        assert capsys.readouterr().err == "error: rng_seed must be an integer >= 0, got -1\n"

    def test_seed_flag_replaces_an_invalid_file_seed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(small_config_with("sim", {"rng_seed": -1}))
        assert load_config(str(config), 3)[0].rng_seed == 3


VALID_PREFIX = '{"op":"chain","id":"TB"}\n{"op":"entity","id":"ta","role":"TA","chain":"TB"}\n'

#: A chiplet sale whose amount is a string: every field is present, one value is bad.
STRING_AMOUNT = [
    '{"op":"entity","id":"cm","role":"CM","chain":"TB"}',
    '{"op":"entity","id":"cd","role":"CD","chain":"TB"}',
    '{"op":"type","name":"t","kind":"chiplet","maker":"cm"}',
    '{"op":"devices","maker":"cm","type":"t","ids":["%s"]}' % ("a" * 64),
    '{"op":"transfer","kind":"chiplet","type":"t","src":"cm","dst":"cd",'
    '"ids":["%s"],"amounts":["5"],"currency":"STD"}' % ("a" * 64),
]


class TestMalformedLogs:
    """A malformed log ends in exit 1 and a one-line diagnostic, never a traceback."""

    COMMANDS = ("replay", "score", "verify-oracle")

    @staticmethod
    def argv(command, log, tmp_path):
        extra = {"replay": ["--out", tmp_path / "replayed"], "score": ["--entity", "ta"]}
        return [command, "--log", log, *extra.get(command, [])]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"op":"entity",', "invalid JSON"),
            (b"[1, 2, 3]", "not a JSON object"),
            (b'{"op":"meta","src":"TB","dst":"UB"}', "unknown log operation 'meta'"),
            (b'{"op":"chain"}', "lacks field 'id'"),
            (b'{"op":"chain","id":"\xff\xfe"}', "not valid UTF-8"),
            (b'{"op":"entity","id":5,"role":"CM","chain":"TB"}', "expected a string, got 5"),
            (b'{"op":"devices","maker":"ta","type":"t","ids":[[1]]}', "expected a string, got [1]"),
            (b'{"op":"type","name":3,"kind":"chiplet","maker":"ta"}', "expected a string, got 3"),
        ],
        ids=[
            "bad_json", "not_object", "unknown_op", "missing_field", "bad_utf8",
            "numeric_id", "nested_ids", "numeric_name",
        ],
    )
    def test_decode_errors_name_path_and_line(self, tmp_path, capsys, command, line, message):
        log = tmp_path / "bad.ndjson"
        log.write_bytes(VALID_PREFIX.encode() + line + b"\n")
        assert run(self.argv(command, log, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {log}:3: ")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_adjudication_of_unknown_report(self, tmp_path, capsys, command):
        log = tmp_path / "orphan.ndjson"
        log.write_text(
            VALID_PREFIX
            + '{"op":"adjudicate","ta":"ta","report":"R000001","defective":[],"origins":{}}\n'
        )
        assert run(self.argv(command, log, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {log}: record 3: unknown report 'R000001'\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_ownership_violation_names_record(self, tmp_path, capsys, command):
        log = tmp_path / "thief.ndjson"
        sale = STRING_AMOUNT[-1].replace('"src":"cm","dst":"cd"', '"src":"cd","dst":"cm"')
        sale = sale.replace('["5"]', "[5]")
        log.write_text(VALID_PREFIX + "".join(line + "\n" for line in STRING_AMOUNT[:-1] + [sale]))
        assert run(self.argv(command, log, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {log}: record 7: 'cd' does not own device '{'a' * 64}'\n"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"op":"entity","id":"x","role":"BOGUS","chain":"TB"}'], "'BOGUS' is not a valid"),
            (['{"op":"type","name":"t","kind":"gizmo","maker":"cm"}'], "'gizmo' is not a valid"),
            (STRING_AMOUNT, "must be real number, not str"),
            (STRING_AMOUNT[:-1] + [STRING_AMOUNT[-1].replace('["5"]', "[true]")],
             "must be real number, not bool"),
        ],
        ids=["bad_role", "bad_kind", "string_amount", "bool_amount"],
    )
    def test_bad_field_values_are_diagnosed(self, tmp_path, capsys, command, lines, message):
        log = tmp_path / "bad_field.ndjson"
        log.write_text(VALID_PREFIX + "".join(line + "\n" for line in lines))
        assert run(self.argv(command, log, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = 2 + len(lines)
        assert err.startswith(f"error: {log}: record {record}: malformed log field: ")
        assert message in err
        assert "Traceback" not in err


class TestViewFlags:
    """A view flag must name a chain that the log registers."""

    @pytest.mark.parametrize("command", TestMalformedLogs.COMMANDS)
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trusted-chains", "TC-1,TC2"], "--trusted-chains: the log registers no chain 'TC2'"),
            (["--trusted-chains", "TC-1,"], "--trusted-chains: the log registers no chain ''"),
            (["--observer", "NOPE"], "--observer: the log registers no chain 'NOPE'"),
        ],
        ids=["typo", "trailing_comma", "unknown_observer"],
    )
    def test_unknown_chain_is_refused(
        self, tmp_path, config_file, capsys, command, flags, message
    ):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        capsys.readouterr()
        argv = TestMalformedLogs.argv(command, out / "ledger.ndjson", tmp_path)
        assert run(argv + flags) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_registered_chains_are_accepted(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        run(["simulate", "--config", config_file, "--out", out])
        log = out / "ledger.ndjson"
        assert run(["verify-oracle", "--log", log, "--trusted-chains", "TC-1,UC-1",
                    "--observer", "UC-1"]) == 0
        assert run(["verify-oracle", "--log", log, "--trusted-chains", "TC-1",
                    "--observer", "UC-1"]) == 0

    def test_a_log_without_chains_is_read_as_chain_main(self, tmp_path, capsys):
        log = tmp_path / "empty.ndjson"
        log.write_text("")
        assert run(["verify-oracle", "--log", log]) == 0
        assert run(["verify-oracle", "--log", log, "--trusted-chains", "main"]) == 0
        assert run(["verify-oracle", "--log", log, "--observer", "TC-1"]) == 1
        assert capsys.readouterr().err == "error: --observer: the log registers no chain 'TC-1'\n"


#: A small world with defects (chiplet and IC) and frequent chain crossings.
GOLDEN_CONFIG = {
    "sim": {
        "chiplet_mfrs": 4,
        "chiplet_dists": 8,
        "ic_mfrs": 3,
        "ic_dists": 6,
        "si_count": 3,
        "chains": [["TC-1", True], ["TC-2", True], ["UC-1", False]],
        "n_transactions": 600,
        "cross_chain_prob": 0.5,
        "rng_seed": 5,
    },
    "behaviors": {"uniform_p": 0.05, "per_chain": {"UC-1": 0.2}},
    "reputation": {"decrease_rate": 0.1},
}

#: sha256 of each output, computed before the simulator emitted ledger records
#: directly (when simulate still wrote and replayed an events.ndjson stream).
GOLDEN_DIGESTS = {
    "sim/ledger.ndjson": "b3806c4d021f1c45914ab71bbd379a19635d7c71bf7342c4afac03f4611362c1",
    "sim/scores.csv": "0a1fbf10dd08669d653338ff735a1e31f89aac10b7eb128ef87353e8fb94495e",
    "sim/penalties.ndjson": "625b8eb9f17520c661d68a31edb4408cdc9e6d228705c8bdf2d7d75c6af1b79a",
    "e2e/end_to_end_seed5.csv": "f332b0177bbbd1b7208727ebe915ebe51f74a275e8ee7b50af2e78cae9f3934c",
    "e2e/ledger.ndjson": "b3806c4d021f1c45914ab71bbd379a19635d7c71bf7342c4afac03f4611362c1",
    "e2e/scores.csv": "86cf7398ea3e8b697d2a4a7381a77711a62e32d2c7b09c7a94f03cb5e3925afa",
    # Re-recorded when base_unit_cost became a plain amount: the only change
    # is its line, which now reads `"base_unit_cost": 100.0` where it held an
    # object with an amount and a currency.
    "sim/run.json": "35e43f78a569a0353b01af3164f7b5415d12e5eb18e0da69be1a321e2b66ac9b",
    # Recorded while run_basic still drew the uniform stream once per cell and
    # the sleeper's mask came from a per-position threshold array.
    "basic/basic_m0.001_p0.002_seed7.csv":
        "5fc672bc9095a4a9a5960bd951359f8664c03ae88d7d7d56785bfe5e59cc0b75",
    "basic/basic_m0.001_p0.05_seed7.csv":
        "f38f8901e7acef2595a90ebc6a39b38a1ede1d5b2bda7c6344fda04ba1661391",
    "basic/basic_m0.01_p0.002_seed7.csv":
        "48d6d53306098d02dee005fec93bfddab555a89e966828e29e03516eda72f5a8",
    "basic/basic_m0.01_p0.05_seed7.csv":
        "4f117964df98f90bffda1dad494b8a1f0f4339773de458144308cbf697cbd2b9",
    "attack/attack_benign_seed3.csv":
        "84c078d11e675b12197a571cc9bd9e9970dbaeeb5d883eb807ca988a2712dee2",
    "attack/attack_malicious-0.01_seed3.csv":
        "1a4d335f8c1cbe2182f1a20a5df6f790b5299523e2febfd65c7c32639c442890",
    "attack/attack_malicious-0.05_seed3.csv":
        "515b446443f7498beae6b970be11e76da19cec1c764408767fb0b1df87132648",
    "attack/attack_sleeper-0.01_seed3.csv":
        "55abd55a75004f2ab185c83140f6ce0d7beecf58fcd965b63dd50939e372c652",
    "attack/attack_sleeper-0.05_seed3.csv":
        "8178959107f0497689025b1f1103f09b6ee14356c2e7c21c13275da8ba69d7ed",
}

#: Curve runs behind the basic/ and attack/ digests: a 2 x 2 grid, and a
#: sleeper per malicious level, over a stream whose length the stride does
#: not divide.
GOLDEN_CURVE_RUNS = (
    ["basic", "--m", "0.001", "--m", "0.01", "--defect-prob", "0.002", "--defect-prob", "0.05",
     "--n", "5003", "--seed", "7", "--stride", "250"],
    ["attack", "--benign-p", "0.002", "--malicious-p", "0.01", "--malicious-p", "0.05",
     "--switch-at", "2000", "--n", "5003", "--seed", "3", "--stride", "250", "--m", "0.05"],
)


class TestAtomicWrites:
    """A writer that fails part-way leaves the earlier file whole under its name."""

    LINES_BEFORE_FAILURE = 2

    @pytest.mark.parametrize(
        "name", ["ledger.ndjson", "scores.csv", "penalties.ndjson", "run.json"]
    )
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, name):
        from chipchain import files

        config = tmp_path / "golden.json"
        config.write_text(json.dumps(GOLDEN_CONFIG))
        out = tmp_path / "sim"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        earlier = (out / name).read_bytes()
        real_open = open
        k = self.LINES_BEFORE_FAILURE

        class FailingFile:
            """A file whose writes fail once ``k`` lines are out, as on a full disk."""

            def __init__(self, fh):
                self.fh, self.lines = fh, 0

            def write(self, text):
                if self.lines >= k:
                    raise OSError(28, "No space left on device")
                self.lines += text.count("\n")
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FailingFile(fh) if Path(path).name == f"{name}.tmp" else fh

        monkeypatch.setattr(files, "open", failing_open, raising=False)
        argv = ["simulate", "--config", config, "--out", out, "--seed", "6"]
        assert run(argv) == 1
        assert (out / name).read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["ledger.ndjson", "scores.csv", "penalties.ndjson", "run.json"]
        )
        monkeypatch.undo()
        assert run(argv) == 0
        assert (out / name).read_bytes() != earlier


class TestGoldenOutputs:
    def test_outputs_match_recorded_digests(self, tmp_path):
        config = tmp_path / "golden.json"
        config.write_text(json.dumps(GOLDEN_CONFIG))
        for command, out in (("simulate", "sim"), ("end-to-end", "e2e")):
            argv = [command, "--config", config, "--out", tmp_path / out, "--stride", "50"]
            assert run(argv) == 0
        for argv in GOLDEN_CURVE_RUNS:
            assert run([*argv, "--out", tmp_path / argv[0]]) == 0
        penalties = (tmp_path / "sim/penalties.ndjson").read_text().splitlines()
        assert len(penalties) == 16
        assert sum("X^" in line for line in penalties) > 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_DIGESTS
        }
        assert digests == GOLDEN_DIGESTS
