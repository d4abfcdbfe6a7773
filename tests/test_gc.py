"""The program builds no reference cycles, and only ``cli.main`` pauses the collector.

``cli.main`` pauses the cyclic garbage collector while a command works, which
is sound only because reference counting frees everything the program makes.
The first test holds the program to that: with the collector off, a
defect-heavy cross-chain world goes through the write and the read path, and a
collection afterwards must find nothing. The others check that the pause covers
a command's work, that the collector's setting is restored on every exit, and
that the library leaves the setting as its caller made it.
"""

import gc
from collections import Counter

import pytest

from chipchain import cli, harness
from chipchain.errors import ChipchainError
from chipchain.harness import ORACLE_TOLERANCE, oracle_max_deviation, run_end_to_end
from chipchain.ledger import load_log_records
from chipchain.reputation import ReputationEngine, ReputationParams
from chipchain.simulator import SimConfig, assign_behaviors, build_topology, replay


def audit_round_trip(out_dir) -> Counter:
    """Build, save, reload, replay, check and read an audit-style world; return its op counts."""
    cfg = SimConfig(n_transactions=2_000, cross_chain_prob=0.5, rng_seed=0)
    topology = build_topology(cfg)
    untrusted = {chain: 0.1 for chain, trusted in cfg.chains if not trusted}
    behaviors = assign_behaviors(topology, uniform_p=0.02, per_chain=untrusted)
    result = run_end_to_end(cfg, behaviors=behaviors)
    out_dir.mkdir()
    path = out_dir / "ledger.ndjson"
    result.replay.ledger.save_log(path)
    records = load_log_records(path)
    engine = ReputationEngine(topology.view, ReputationParams())
    ledger = replay(records, engine).ledger
    assert oracle_max_deviation(engine, records) <= ORACLE_TOLERANCE
    assert ledger.state_json() == result.replay.ledger.state_json()
    for hid, part in ledger.parts.items():
        ledger.provenance(hid, joined=part.consumed_into is not None)
    ops = Counter(rec[0] for rec in records)
    ops["meta_hops"] = sum(1 for eid in ledger.entities if eid.startswith("X^"))
    return ops


def test_the_program_builds_no_reference_cycles(tmp_path):
    audit_round_trip(tmp_path / "warm-up")  # absorbs one-time cycles of lazy imports
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ops = audit_round_trip(tmp_path / "run")
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        cyclic = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert ops["transfer"] == 2_000
    assert ops["adjudicate"] > 0 and ops["consume"] > 0 and ops["meta_hops"] > 0
    assert found == 0, f"{found} objects in reference cycles: {cyclic.most_common(10)}"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector set on or off for the test, and restored after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorRestored:
    def test_cli_exit_0(self, collector):
        assert cli.main(["basic", "--n", "100", "--seed", "0", "--m", "0.01",
                         "--defect-prob", "0.01"]) == 0
        assert gc.isenabled() is collector

    def test_cli_exit_1_on_an_os_error(self, collector, tmp_path):
        missing = str(tmp_path / "missing.ndjson")
        assert cli.main(["score", "--log", missing, "--entity", "cm-0"]) == 1
        assert gc.isenabled() is collector

    def test_cli_exit_1_on_a_raised_chipchain_error(self, collector, tmp_path, capsys):
        log = tmp_path / "ledger.ndjson"
        log.write_text('{"op":"chain","id":"TC-1"}\n')
        assert cli.main(["score", "--log", str(log), "--entity", "nobody"]) == 1
        assert "unknown entity 'nobody'" in capsys.readouterr().err
        assert gc.isenabled() is collector

    def test_run_end_to_end_returns(self, collector):
        run_end_to_end(SimConfig(n_transactions=50))
        assert gc.isenabled() is collector

    def test_run_end_to_end_raises(self, collector, monkeypatch):
        monkeypatch.setattr(harness, "generate_stream", lambda *args: iter([("chain", "")]))
        with pytest.raises(ChipchainError, match="record 1"):
            run_end_to_end(SimConfig(n_transactions=50))
        assert gc.isenabled() is collector


def test_commands_and_replay_run_with_the_collector_paused(monkeypatch, tmp_path):
    seen = []

    def observed(func):
        def wrapper(*args, **kwargs):
            seen.append((func.__name__, gc.isenabled()))
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "run_basic", observed(harness.run_basic))
    monkeypatch.setattr(harness, "replay", observed(harness.replay))
    config = tmp_path / "config.json"
    config.write_text('{"sim": {"n_transactions": 50}}')
    gc.enable()
    assert cli.main(["basic", "--n", "100", "--seed", "0", "--m", "0.01",
                     "--defect-prob", "0.01"]) == 0
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    # The library leaves the collector as its caller set it.
    run_end_to_end(SimConfig(n_transactions=50))
    assert seen == [("run_basic", False), ("replay", False), ("replay", True)]
    assert gc.isenabled()
