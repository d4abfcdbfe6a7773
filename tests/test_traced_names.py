"""Every name the benchmark's span tracer wraps must exist in the program.

``bench/spans.py`` replaces functions where their callers look them up. A name
the program no longer has becomes an absent layer there, and the benchmark's
``trace.*`` reconciliation checks then fail.
"""

import collections
import importlib.util
from pathlib import Path

from chipchain import cli, harness, ledger, reputation, simulator
from chipchain.simulator import SimConfig, assign_behaviors, build_topology, generate_stream

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

MODULES = {
    "harness": harness,
    "cli": cli,
    "ledger": ledger,
    "simulator": simulator,
    "reputation": reputation,
}


def traced_names() -> list[tuple[object, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(owner, attr) for owner, attr, _span, _measure in spans.targets(MODULES)]


def test_every_traced_name_resolves():
    names = traced_names()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in names if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
    for owner, attr in (
        (harness, "replay"),
        (ledger.Ledger, "_transfer"),
        (cli, "load_log_records"),
        (cli, "oracle_max_deviation"),
    ):
        assert (owner, attr) in names


#: The traced method that every record of each op passes through once.
PER_OP = {
    "_transfer": "transfer",
    "confirm_transfer": "confirm",
    "register_devices": "devices",
    "report": "report",
    "adjudicate": "adjudicate",
    "consume_chiplets": "consume",
}


def test_every_record_passes_its_ops_traced_method(monkeypatch, tmp_path):
    # Patch the class attributes, as the tracer does. A dispatch that kept
    # its own references to the methods would bypass these counters, and the
    # benchmark's per-op spans would read zero.
    names = traced_names()
    calls = collections.Counter()

    def counting(attr):
        original = getattr(ledger.Ledger, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        return counted

    for attr in (*PER_OP, "apply_record"):
        assert (ledger.Ledger, attr) in names
        monkeypatch.setattr(ledger.Ledger, attr, counting(attr))

    cfg = SimConfig(n_transactions=400, rng_seed=5)
    topology = build_topology(cfg)
    stream = list(generate_stream(topology, cfg, assign_behaviors(topology, uniform_p=0.2)))
    path = tmp_path / "log.ndjson"
    simulator.replay(stream).ledger.save_log(path)
    ops = collections.Counter(rec[0] for rec in stream)
    assert all(ops[op] > 0 for op in PER_OP.values())

    for records in (stream, ledger.load_log_records(path)):
        calls.clear()
        simulator.replay(records)
        assert calls["apply_record"] == len(records)
        assert {attr: calls[attr] for attr in PER_OP} == {
            attr: ops[op] for attr, op in PER_OP.items()
        }
