"""Every name the benchmark's span tracer wraps must exist in the program.

``bench/spans.py`` replaces functions where their callers look them up. A name
the program no longer has becomes an absent layer there, and the benchmark's
``trace.*`` reconciliation checks then fail.
"""

import importlib.util
from pathlib import Path

from chipchain import cli, harness, ledger, reputation, simulator

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
