"""Command-line entry point for simulations, experiments, and log tooling.

Subcommands:

  simulate      generate a stream from a config, replay it, write artifacts
  basic         single-manufacturer reputation curves over an (m, p) grid
  end-to-end    full supply-chain run with per-consortium aggregation
  attack        benign / malicious / sleeper comparison curves
  replay        re-apply a ledger log without regeneration
  score         query one entity's reputation off a ledger log
  verify-oracle check a ledger log against the brute-force recompute

Every run is reproducible from its flags and seed; output files carry the
parameters in a leading comment line. Only ``main`` touches the garbage
collector: it pauses it around each command. Exit codes: 0 on success, 1
with a one-line diagnostic on failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import inspect
import json
import sys
from pathlib import Path
from typing import Iterator

from .errors import ChipchainError, InvalidConfig, NotFound
from .files import atomic_write
from .harness import (
    ATTACK_DECREASE_RATE,
    BASIC_DEFECT_PROBS,
    BASIC_M_VALUES,
    DEFAULT_STRIDE,
    ORACLE_TOLERANCE,
    EndToEndResult,
    oracle_max_deviation,
    run_attack,
    run_basic,
    run_end_to_end,
    write_aggregate_csv,
    write_scores_csv,
    write_traces,
)
from .ledger import Ledger, load_log_records
from .reputation import PENALTY_FORMS, ObserverView, ReputationEngine, ReputationParams
from .simulator import SimConfig, assign_behaviors, build_topology, replay


#: The keys of each config section: the fields or parameters they set.
CONFIG_KEYS = {
    "sim": frozenset(f.name for f in dataclasses.fields(SimConfig)),
    "behaviors": frozenset(inspect.signature(assign_behaviors).parameters) - {"topology"},
    "reputation": frozenset(f.name for f in dataclasses.fields(ReputationParams)),
}


def load_config(
    path: str | None, seed: int | None
) -> tuple[SimConfig, dict | None, ReputationParams]:
    """Parse the JSON config file: {"sim": {...}, "behaviors": {...}, "reputation": {...}}.

    Behaviors are None without a ``behaviors`` section. Any malformed content
    raises ``InvalidConfig`` naming the file.
    """
    try:
        raw = json.loads(Path(path).read_bytes()) if path else {}
    except (ValueError, RecursionError) as exc:
        reason = "nested too deeply" if isinstance(exc, RecursionError) else exc
        raise InvalidConfig(f"{path}: invalid JSON: {reason}") from None
    try:
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
        for name, section in raw.items():
            if name not in CONFIG_KEYS:
                raise InvalidConfig(f"unknown config section {name!r}")
            if not isinstance(section, dict):
                raise InvalidConfig(f"config section {name!r} must be a JSON object")
            unknown = set(section) - CONFIG_KEYS[name]
            if unknown:
                raise InvalidConfig(f"unknown {name} config keys: {sorted(unknown)}")
        sim_raw = dict(raw.get("sim", {}))
        if seed is not None:
            sim_raw["rng_seed"] = seed
        cfg = SimConfig(**sim_raw)
        params = ReputationParams(**raw.get("reputation", {}))
        spec = raw.get("behaviors")
        behaviors = assign_behaviors(build_topology(cfg), **spec) if spec else None
    except ChipchainError as exc:
        raise InvalidConfig(f"{path}: {exc}" if path else str(exc)) from None
    return cfg, behaviors, params


def view_from_flags(args, chains) -> ObserverView:
    """The view of ``--trusted-chains`` and ``--observer`` over a log that registers ``chains``.

    A flag that names a chain the log does not register raises ``InvalidConfig``.
    """
    trusted = (
        frozenset(args.trusted_chains.split(","))
        if args.trusted_chains
        else frozenset(chains)
    )
    observer = args.observer or sorted(trusted)[0]
    named = [("--trusted-chains", chain) for chain in sorted(trusted)]
    for flag, chain in [*named, ("--observer", observer)]:
        if chain not in chains:
            raise InvalidConfig(f"{flag}: the log registers no chain {chain!r}")
    return ObserverView(observer, trusted | {observer})


def _run_config(args, stride: int) -> tuple[Path, SimConfig, EndToEndResult]:
    """Run the world of ``--config`` and ``--seed``; save its log in ``--out``, returned first."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg, behaviors, params = load_config(args.config, args.seed)
    result = run_end_to_end(cfg, behaviors=behaviors, params=params, stride=stride)
    result.replay.ledger.save_log(out / "ledger.ndjson")
    return out, cfg, result


def cmd_simulate(args) -> int:
    # None of the files written here holds reputation samples, so none are taken.
    out, cfg, result = _run_config(args, stride=0)
    write_scores_csv(
        out / "scores.csv", result.engine, {"seed": cfg.rng_seed, "n": cfg.n_transactions}
    )
    write_traces(out / "penalties.ndjson", result.replay.traces)
    manifest = {
        "sim": dataclasses.asdict(cfg),
        "reputation": dataclasses.asdict(result.engine.params),
        "view": {
            "observer_chain": result.topology.view.observer_chain,
            "trusted_chains": sorted(result.topology.view.trusted_chains),
        },
    }
    with atomic_write(out / "run.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"simulated {result.replay.txn_count} transactions -> {out}")
    return 0


def cmd_basic(args) -> int:
    m_values = args.m if args.m else list(BASIC_M_VALUES)
    probs = args.defect_prob if args.defect_prob else list(BASIC_DEFECT_PROBS)
    curves = run_basic(m_values, probs, args.n, args.seed, out_dir=args.out, stride=args.stride)
    for (m, p), series in sorted(curves.items()):
        print(f"m={m:g} p={p:g} final_normalized={series.final_normalized():.6f}")
    return 0


def cmd_end_to_end(args) -> int:
    out, cfg, result = _run_config(args, stride=args.stride)
    write_aggregate_csv(
        out / f"end_to_end_seed{cfg.rng_seed}.csv",
        result.aggregate,
        {"n": cfg.n_transactions, "seed": cfg.rng_seed},
    )
    write_scores_csv(out / "scores.csv", result.engine, {"seed": cfg.rng_seed})
    for chain, mean in result.consortium_final_normalized().items():
        print(f"{chain} mean_normalized={mean:.6f}")
    return 0


def cmd_attack(args) -> int:
    curves = run_attack(
        args.benign_p, args.malicious_p, args.switch_at, args.n, args.seed,
        out_dir=args.out, stride=args.stride, decrease_rate=args.m,
    )
    for label in sorted(curves):
        print(f"{label} final_normalized={curves[label].final_normalized():.6f}")
    return 0


def _replay_log(args) -> tuple[list[tuple], ReputationEngine, Ledger]:
    """The records of ``--log``, replayed into a fresh engine for the flagged view."""
    records = load_log_records(args.log)
    chains = [rec[1] for rec in records if rec[0] == "chain"]
    params = ReputationParams(
        decrease_rate=args.m, trusted_discount=args.trusted_discount, penalty_form=args.penalty_form
    )
    engine = ReputationEngine(view_from_flags(args, chains or ["main"]), params)
    try:
        return records, engine, replay(records, engine).ledger
    except ChipchainError as exc:
        raise type(exc)(f"{args.log}: {exc}") from exc


def cmd_replay(args) -> int:
    records, engine, ledger = _replay_log(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ledger.save_log(out / "ledger.ndjson")
    write_scores_csv(out / "scores.csv", engine, {"log": str(args.log)})
    print(f"replayed {len(records)} records -> {out}")
    return 0


def cmd_score(args) -> int:
    engine = _replay_log(args)[1]
    entity = engine.entities.get(args.entity)
    if entity is None:
        raise NotFound(f"unknown entity {args.entity!r}")
    rep = engine.reputation(args.entity)
    print(
        json.dumps(
            {
                "entity_id": args.entity,
                "role": entity.role.value,
                "chain_id": entity.chain,
                "r": rep.r,
                "r_ideal": rep.r_ideal,
                "normalized": engine.normalized(args.entity),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_verify_oracle(args) -> int:
    # The replayed ledger is dropped here, not kept alive through the oracle.
    records, engine = _replay_log(args)[:2]
    deviation = oracle_max_deviation(engine, records)
    print(f"max_relative_deviation={deviation:.3e} tolerance={ORACLE_TOLERANCE:.0e}")
    return 0 if deviation <= ORACLE_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipchain",
        description="supply-chain provenance ledger and reputation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags that several commands share, each group declared once.
    world, curve, view = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    world.add_argument("--config", help="JSON config file")
    world.add_argument("--seed", type=int, help="override the config seed")
    world.add_argument("--out", required=True, help="output directory")
    curve.add_argument("--n", type=int, required=True, help="number of transactions")
    curve.add_argument("--seed", type=int, required=True)
    curve.add_argument("--out", help="output directory for CSVs")
    curve.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    defaults = ReputationParams()
    view.add_argument("--log", required=True, help="ledger.ndjson")
    view.add_argument(
        "--m", type=float, default=defaults.decrease_rate, help="multiplicative decrease rate"
    )
    view.add_argument("--trusted-discount", type=float, default=defaults.trusted_discount)
    view.add_argument("--penalty-form", choices=PENALTY_FORMS, default=defaults.penalty_form)
    view.add_argument("--trusted-chains", help="comma-separated trusted chain ids")
    view.add_argument("--observer", help="observer chain (default: first trusted)")

    p = sub.add_parser("simulate", parents=[world], help="generate and replay a full stream")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("basic", parents=[curve], help="single-manufacturer curve sweep")
    p.add_argument("--m", type=float, action="append", help="decrease rate (repeatable)")
    p.add_argument(
        "--defect-prob", type=float, action="append", help="defect probability (repeatable)"
    )
    p.set_defaults(func=cmd_basic)

    p = sub.add_parser("end-to-end", parents=[world], help="full supply-chain simulation")
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.set_defaults(func=cmd_end_to_end)

    p = sub.add_parser("attack", parents=[curve], help="benign / malicious / sleeper comparison")
    p.add_argument("--benign-p", type=float, default=0.001)
    p.add_argument(
        "--malicious-p", type=float, action="append", required=True, help="repeatable"
    )
    p.add_argument("--switch-at", type=int, required=True)
    p.add_argument("--m", type=float, default=ATTACK_DECREASE_RATE)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("replay", parents=[view], help="re-apply a ledger log")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("score", parents=[view], help="query one entity's reputation from a log")
    p.add_argument("--entity", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "verify-oracle", parents=[view], help="check a log against the brute-force oracle"
    )
    p.set_defaults(func=cmd_verify_oracle)

    return parser


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector paused.

    The program builds no reference cycles, so reference counting frees all
    it makes and a collection pass over a large world finds nothing. The
    setting is process-wide, so only ``main`` pauses it, never the library.
    The collector is re-enabled only if it was on before, so pauses nest and
    an error restores it too.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with collector_paused():
            return args.func(args)
    except (ChipchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
