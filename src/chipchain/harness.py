"""Experiment runners, the brute-force reputation oracle, and CSV export.

Three experiment families are covered:

  basic       one manufacturer sells one unit-price part per transaction with
              immediate verification, swept over decrease rates and defect
              probabilities. Every cell of a seed thresholds the same uniform
              stream: one pass draws it in fixed blocks and keeps only the
              positions and values below the largest probability, and each
              cell's defect positions are the subset of those below its own.
              So a curve holds memory in proportion to its defects and
              samples, never to the transaction count. The recurrence is
              folded in closed form from those positions (reputation grows
              linearly while nothing fails), which keeps million-transaction
              curves in the millisecond range; tests cross-check the fold
              against the same scenario driven through the full ledger.
  end_to_end  full pipeline: build a population, generate a stream, replay it
              against a ledger with a reputation engine attached, and
              aggregate reputation by consortium and role.
  attack      benign, malicious, and sleeper behaviors for a single seller,
              sharing one uniform stream and one block-wise threshold pass
              per seed. A sleeper's defects are the benign positions up to its
              switch point followed by the malicious positions after it, so
              its trajectory is exactly the benign one until the switch.

The oracle recomputes every entity's (r, r_ideal) from scratch by walking a
serialized operation log and re-deriving each completed lifecycle's path and
its reward or penalty directly. It shares no state with the incremental
engine, so agreement within 1e-9 relative is the correctness check for the
whole reputation pipeline.

All CSV output is deterministic: a comment line recording the experiment
parameters and seed, a header row, then fixed-point values with six decimals.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .domain import EntityId, ExchangeTable, is_real
from .errors import InvalidConfig
from .files import atomic_write
from .ledger import TRANSFER_ROLES, PenaltyTrace
from .reputation import ObserverView, ReputationEngine, ReputationParams
from .simulator import (
    BehaviorProfile,
    ReplayResult,
    SimConfig,
    Topology,
    assign_behaviors,
    build_topology,
    generate_stream,
    replay,
)

#: Roles whose members actually sell parts, those that may start a transfer;
#: consortium aggregates cover these.
SELLING_ROLES = frozenset().union(*TRANSFER_ROLES.values())

DEFAULT_STRIDE = 1000

#: Default grid for the basic sweep.
BASIC_M_VALUES = (0.001, 0.01)
BASIC_DEFECT_PROBS = (1e-5, 1e-4, 1e-3, 1e-2)

#: Default decrease rate for single-seller attack curves.
ATTACK_DECREASE_RATE = 0.01

#: Elevated default defect probability of untrusted-consortium manufacturers.
UNTRUSTED_DEFECT_PROB = 0.005


# ---------------------------------------------------------------------------
# Single-seller curves (basic and attack experiments)
# ---------------------------------------------------------------------------


@dataclass
class Series:
    """One sampled reputation trajectory."""

    txn_index: np.ndarray
    r: np.ndarray
    normalized: np.ndarray
    meta: dict = field(default_factory=dict)

    def final_normalized(self) -> float:
        return float(self.normalized[-1])


#: Doubles ``uniform_draws`` takes from the generator at a time.
_BLOCK = 1 << 16


def uniform_draws(n: int, seed: int, level: float) -> tuple[np.ndarray, np.ndarray]:
    """The draws below ``level`` among the first ``n`` of a seed's uniform stream.

    The stream is ``Generator(PCG64(seed)).random(n)``, the one stream behind
    every behavior at a seed. It is drawn ``_BLOCK`` doubles at a time, and
    each double takes one 64-bit word, so the blocks join into exactly that
    stream. Returns the 0-based positions (int64, ascending) and the values
    (float64) of the draws below ``level``. Every block is drawn into one
    reused buffer, so the pass holds one block of draws however large n is.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    block = np.empty(min(n, _BLOCK))
    positions = [np.empty(0, dtype=np.int64)]
    values = [np.empty(0, dtype=np.float64)]
    for start in range(0, n, _BLOCK):
        u = rng.random(out=block[: n - start])
        below = np.flatnonzero(u < level)
        positions.append(below + start)
        values.append(u[below])
    return np.concatenate(positions), np.concatenate(values)


def defect_mask(n: int, p: float, seed: int) -> np.ndarray:
    """The length-``n`` mask of a seed's draws below ``p``: ``random(n) < p``."""
    mask = np.zeros(n, dtype=bool)
    mask[uniform_draws(n, seed, p)[0]] = True
    return mask


def _sample_positions(n: int, stride: int) -> np.ndarray:
    positions = np.arange(stride, n + 1, stride, dtype=np.int64)
    if len(positions) == 0 or positions[-1] != n:
        positions = np.append(positions, n)
    return positions


def fold_single_seller(
    defects: np.ndarray, n: int, decrease_rate: float, stride: int = DEFAULT_STRIDE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled (txn_index, r, normalized) for one seller, folded in closed form.

    ``defects`` holds the 1-based positions of the seller's failed
    transactions: an int64 array, sorted, unique and at most ``n``. Per
    transaction the seller either gains 1 (pass) or has r divided by the
    rate-form divisor 1 + decrease_rate (fail); the ideal reputation is the
    transaction index. Between failures r grows linearly, so only failure and
    sample positions need visiting, and a defect on a sample position is
    folded before that sample is taken. Each event's gap to the event before
    it is found in numpy; the loop adds the gaps as Python ints to a Python
    float r, in the per-transaction rule's order, so every sampled r is the
    same double the rule gives.
    """
    samples = _sample_positions(n, stride)
    # The event before a defect is the later of the previous defect and the
    # last sample below it; the one before a sample is the later of the
    # previous sample and the last defect at or below it; 0 stands for none.
    sample_at = np.concatenate(([0], samples))
    defect_at = np.concatenate(([0], defects))
    samples_below = np.searchsorted(samples, defects, side="left")
    defects_upto = np.searchsorted(defects, samples, side="right")
    defect_gaps = (defects - 1 - np.maximum(defect_at[:-1], sample_at[samples_below])).tolist()
    sample_gaps = samples - np.maximum(sample_at[:-1], defect_at[defects_upto])
    divisor = 1.0 + decrease_rate
    out = []
    r = 0.0
    di = 0
    for upto, gap in zip(defects_upto.tolist(), sample_gaps.tolist()):
        while di < upto:
            r = (r + defect_gaps[di]) / divisor
            di += 1
        r += gap
        out.append(r)
    r_samples = np.array(out, dtype=np.float64)
    return samples, r_samples, r_samples / samples


def naive_single_seller(mask: np.ndarray, decrease_rate: float) -> np.ndarray:
    """Reference per-transaction loop for the fold; returns r after every txn."""
    divisor = 1.0 + decrease_rate
    r = 0.0
    out = np.empty(len(mask), dtype=np.float64)
    for t, bad in enumerate(mask):
        if bad:
            r /= divisor
        else:
            r += 1.0
        out[t] = r
    return out


def _check_curve_inputs(
    n_txn: int, seed: int, stride: int, rates: Sequence[float], probs: Sequence[float]
) -> None:
    """Raise ``InvalidConfig`` unless every single-seller curve input is in range."""
    for name, value, low in (("n_txn", n_txn, 1), ("stride", stride, 1), ("seed", seed, 0)):
        if type(value) is not int or value < low:
            raise InvalidConfig(f"{name} must be an integer >= {low}, got {value!r}")
    for m in rates:
        if not is_real(m) or m <= 0:
            raise InvalidConfig(f"decrease rate must be finite and > 0, got {m!r}")
    for p in probs:
        if not is_real(p) or not 0.0 <= p <= 1.0:
            raise InvalidConfig(f"defect probability must be in [0, 1], got {p!r}")
        if math.copysign(1.0, p) < 0.0:
            # -0.0 equals 0.0 as a curve key but prints as -0 in labels and
            # CSV names, so one of the two curves would silently go missing.
            raise InvalidConfig(f"defect probability must be 0, not {p!r}")


def _check_distinct_labels(name: str, values: Sequence[float]) -> None:
    """Raise ``InvalidConfig`` if two distinct values print alike as ``:g``.

    Curves, their labels and their CSV names are keyed by that text, so one
    curve would silently replace the other.
    """
    seen: dict[str, float] = {}
    for value in values:
        first = seen.setdefault(f"{value:g}", value)
        if first != value:
            raise InvalidConfig(f"{name} {first!r} and {value!r} share the label {value:g}")


def run_basic(
    m_values: Sequence[float],
    defect_probs: Sequence[float],
    n_txn: int,
    seed: int,
    out_dir: str | Path | None = None,
    stride: int = DEFAULT_STRIDE,
) -> dict[tuple[float, float], Series]:
    """Sweep the (decrease rate, defect prob) grid over one uniform draw; CSVs if out_dir.

    An exactly repeated rate or probability names one curve, folded and
    written once.
    """
    if not m_values or not defect_probs:
        raise InvalidConfig("basic sweep needs a non-empty grid")
    _check_curve_inputs(n_txn, seed, stride, m_values, defect_probs)
    _check_distinct_labels("decrease rates", m_values)
    _check_distinct_labels("defect probabilities", defect_probs)
    # Every cell's defects are a subset of those below the largest threshold.
    below, u_below = uniform_draws(n_txn, seed, max(defect_probs))
    defects = {p: below[u_below < p] + 1 for p in dict.fromkeys(defect_probs)}
    curves = {}
    for m in dict.fromkeys(m_values):
        for p, cell in defects.items():
            idx, r, norm = fold_single_seller(cell, n_txn, m, stride)
            meta = {"m": m, "defect_prob": p, "seed": seed, "n": n_txn}
            series = Series(idx, r, norm, meta)
            curves[(m, p)] = series
            if out_dir is not None:
                path = Path(out_dir) / f"basic_m{m:g}_p{p:g}_seed{seed}.csv"
                write_series_csv(path, series)
    return curves


def run_attack(
    benign_p: float,
    malicious_ps: Sequence[float],
    switch_at: int,
    n_txn: int,
    seed: int,
    out_dir: str | Path | None = None,
    stride: int = DEFAULT_STRIDE,
    decrease_rate: float = ATTACK_DECREASE_RATE,
) -> dict[str, Series]:
    """Benign, always-malicious, and sleeper trajectories on shared uniforms.

    The sleeper behaves at the benign level until ``switch_at``, then at the
    malicious level; sharing one uniform stream per seed makes its pre-switch
    trajectory identical to the benign one.
    """
    _check_curve_inputs(n_txn, seed, stride, [decrease_rate], [benign_p, *malicious_ps])
    if type(switch_at) is not int or not 0 <= switch_at < n_txn:
        raise InvalidConfig(f"switch_at must be an integer in [0, {n_txn}), got {switch_at!r}")
    if not malicious_ps:
        raise InvalidConfig("at least one malicious level is required")
    _check_distinct_labels("defect probabilities", malicious_ps)
    below, u_below = uniform_draws(n_txn, seed, max(benign_p, *malicious_ps))
    benign = below[u_below < benign_p] + 1
    behaviors: dict[str, np.ndarray] = {"benign": benign}
    for p in malicious_ps:
        malicious = below[u_below < p] + 1
        behaviors[f"malicious-{p:g}"] = malicious
        behaviors[f"sleeper-{p:g}"] = np.concatenate(
            (benign[benign <= switch_at], malicious[malicious > switch_at])
        )
    curves = {}
    for label, defects in behaviors.items():
        idx, r, norm = fold_single_seller(defects, n_txn, decrease_rate, stride)
        meta = {
            "behavior": label,
            "benign_p": benign_p,
            "switch_at": switch_at,
            "seed": seed,
            "m": decrease_rate,
            "n": n_txn,
        }
        curves[label] = Series(idx, r, norm, meta)
        if out_dir is not None:
            path = Path(out_dir) / f"attack_{label}_seed{seed}.csv"
            write_series_csv(path, curves[label], behavior=label)
    return curves


# ---------------------------------------------------------------------------
# End-to-end experiment
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector paused.

    The program builds no reference cycles, so reference counting frees all
    it makes and a collection pass over a large world finds nothing. The
    setting is process-wide, so only the entry points pause it (``cli.main``
    and ``run_end_to_end``), never the library. The collector is re-enabled
    only if it was on before, so pauses nest and an error restores it too.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class AggregateSeries:
    """Mean and 95th-percentile reputation per (consortium, role) over time."""

    txn_index: np.ndarray
    groups: dict[tuple[str, str], dict[str, np.ndarray]]


@dataclass
class EndToEndResult:
    topology: Topology
    replay: ReplayResult
    aggregate: AggregateSeries
    engine: ReputationEngine

    def consortium_final_normalized(self) -> dict[str, float]:
        """Mean final normalized score per consortium over selling roles."""
        engine = self.engine
        sums: dict[str, list[float]] = {}
        for entity in self.topology.entities:
            if entity.role in SELLING_ROLES:
                sums.setdefault(entity.chain, []).append(engine.normalized(entity.id))
        return {chain: float(np.mean(vals)) for chain, vals in sorted(sums.items())}


def aggregate_by_consortium(result: ReplayResult) -> AggregateSeries:
    groups: dict[tuple[str, str], list[int]] = {}
    for j, eid in enumerate(result.sample_entities):
        entity = result.ledger.entities[eid]
        if entity.role in SELLING_ROLES:
            groups.setdefault((entity.chain, entity.role.value), []).append(j)
    series: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for key in sorted(groups):
        cols = groups[key]
        r = result.sample_r[:, cols]
        norm = result.sample_norm[:, cols]
        series[key] = {
            "mean_r": r.mean(axis=1),
            "p95_r": np.percentile(r, 95, axis=1),
            "mean_norm": norm.mean(axis=1),
            "p95_norm": np.percentile(norm, 95, axis=1),
        }
    return AggregateSeries(result.sample_indices, series)


def run_end_to_end(
    cfg: SimConfig,
    behaviors: Mapping[EntityId, BehaviorProfile] | None = None,
    seed: int | None = None,
    params: ReputationParams | None = None,
    stride: int = DEFAULT_STRIDE,
    out_dir: str | Path | None = None,
) -> EndToEndResult:
    """Full pipeline: topology, stream, replay, consortium aggregation.

    Without an explicit behavior map, trusted-consortium manufacturers produce
    defects at the benign rate and untrusted-consortium ones at an elevated
    rate.
    """
    if seed is not None and seed != cfg.rng_seed:
        cfg = dataclasses.replace(cfg, rng_seed=seed)
    params = params or ReputationParams()
    topology = build_topology(cfg)
    if behaviors is None:
        per_chain = {chain: UNTRUSTED_DEFECT_PROB for chain, trusted in cfg.chains if not trusted}
        behaviors = assign_behaviors(topology, per_chain=per_chain)
    engine = ReputationEngine(topology.view, params)
    with collector_paused():
        result = replay(generate_stream(topology, cfg, behaviors), engine, sample_stride=stride)
    aggregate = aggregate_by_consortium(result)
    out = EndToEndResult(topology, result, aggregate, engine)
    if out_dir is not None:
        write_aggregate_csv(
            Path(out_dir) / f"end_to_end_seed{cfg.rng_seed}.csv",
            aggregate,
            {"n": cfg.n_transactions, "seed": cfg.rng_seed},
        )
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def oracle_recompute(
    records: Iterable[tuple],
    params: ReputationParams,
    view: ObserverView,
    exchange: ExchangeTable,
) -> dict[EntityId, tuple[float, float]]:
    """Recompute every entity's (r, r_ideal) from scratch off an operation log.

    Walks the serialized records, rebuilds each part's provenance path
    (including cross-chain split hops), and applies the reward and penalty
    rules directly per completed lifecycle. Deliberately shares no code with
    the incremental engine beyond the parameter set.
    """
    entity_info: dict[str, tuple[str, str]] = {}  # id -> (role, chain)
    paths: dict[str, list[tuple[str, str, float, str]]] = {}
    pending: dict[frozenset, tuple] = {}
    rep_r: dict[str, float] = {}
    rep_ideal: dict[str, float] = {}
    rates = exchange.rates
    raw_form = params.penalty_form == "raw"

    def credit(seller: str, value: float, ideal_only: bool = False) -> None:
        rep_ideal[seller] = rep_ideal.get(seller, 0.0) + value
        if not ideal_only:
            rep_r[seller] = rep_r.get(seller, 0.0) + value

    for rec in records:
        op = rec[0]
        if op == "entity":
            entity_info[rec[1]] = (rec[2], rec[3])
        elif op == "devices":
            for hid in rec[3]:
                paths[hid] = []
        elif op == "transfer":
            _, _kind, _ptype, src, dst, ids, amounts, currency = rec
            pending[frozenset(ids)] = (src, dst, ids, amounts, currency)
        elif op == "confirm":
            src, dst, ids, amounts, currency = pending.pop(frozenset(rec[3]))
            src_chain = entity_info[src][1]
            dst_chain = entity_info[dst][1]
            if src_chain != dst_chain:
                meta_id = f"X^{src_chain}_{dst_chain}"
                entity_info.setdefault(meta_id, ("META", src_chain))
                for hid, amount in zip(ids, amounts):
                    paths[hid].append((src, meta_id, amount, currency))
                    paths[hid].append((meta_id, dst, amount, currency))
            else:
                for hid, amount in zip(ids, amounts):
                    paths[hid].append((src, dst, amount, currency))
        elif op == "reject":
            pending.pop(frozenset(rec[3]))
        elif op == "report":
            if rec[3] == 0:
                for hid in rec[2]:
                    for seller, _buyer, amount, currency in paths[hid]:
                        credit(seller, amount * rates[currency])
        elif op == "adjudicate":
            _, _ta, _rid, defective, origin_pairs = rec
            origins = dict(origin_pairs)
            for hid in defective:
                own = paths[hid]
                for seller, _buyer, amount, currency in own:
                    credit(seller, amount * rates[currency], ideal_only=True)
                origin = origins.get(hid)
                pen = (paths[origin] + own) if origin is not None else own
                rate = params.decrease_rate
                for k, (seller, _buyer, _amount, _currency) in enumerate(pen):
                    if k > 0:
                        prev_role, prev_chain = entity_info[pen[k - 1][0]]
                        if prev_role != "META" and prev_chain in view.trusted_chains:
                            rate /= params.trusted_discount
                    divisor = rate if raw_form else 1.0 + rate
                    if seller in rep_r:
                        rep_r[seller] /= divisor
                    else:
                        rep_r[seller] = 0.0
    out = {}
    for eid in set(rep_r) | set(rep_ideal):
        out[eid] = (rep_r.get(eid, 0.0), rep_ideal.get(eid, 0.0))
    return out


def relative_deviation(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def oracle_max_deviation(
    engine: ReputationEngine,
    records: Iterable[tuple],
) -> float:
    """Max relative deviation between the engine and a from-scratch recompute."""
    oracle = oracle_recompute(records, engine.params, engine.view, engine.exchange)
    worst = 0.0
    ids = set(oracle) | set(engine.known_entities())
    for eid in ids:
        rep = engine.reputation(eid)
        o_r, o_ideal = oracle.get(eid, (0.0, 0.0))
        worst = max(worst, relative_deviation(rep.r, o_r), relative_deviation(rep.r_ideal, o_ideal))
    return worst


ORACLE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# CSV and trace export
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.6f}"
    return str(value)


def export_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comment: str = "",
) -> Path:
    """Write rows as CSV with an optional leading '#' comment line.

    Output is deterministic for deterministic input; floats are fixed-point
    with six decimals. I/O errors carry the target path.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as fh:
            if comment:
                fh.write(f"# {comment}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    return path


def _meta_comment(meta: Mapping) -> str:
    return " ".join(f"{k}={v}" for k, v in meta.items())


def write_series_csv(path, series: Series, behavior: str | None = None) -> Path:
    comment = _meta_comment(series.meta)
    if behavior is None:
        header = ["txn_index", "r", "normalized"]
        rows = zip(series.txn_index, series.r, series.normalized)
    else:
        header = ["txn_index", "behavior", "r", "normalized"]
        rows = (
            (t, behavior, r, norm)
            for t, r, norm in zip(series.txn_index, series.r, series.normalized)
        )
    return export_csv(path, header, rows, comment)


def write_aggregate_csv(path, aggregate: AggregateSeries, meta: Mapping) -> Path:
    header = ["txn_index", "consortium_id", "role", "mean_r", "p95_r", "mean_norm", "p95_norm"]

    def rows():
        for i, t in enumerate(aggregate.txn_index):
            for (chain, role), arrs in aggregate.groups.items():
                yield (
                    t,
                    chain,
                    role,
                    arrs["mean_r"][i],
                    arrs["p95_r"][i],
                    arrs["mean_norm"][i],
                    arrs["p95_norm"][i],
                )

    return export_csv(path, header, rows(), _meta_comment(meta))


def write_scores_csv(path, engine: ReputationEngine, meta: Mapping | None = None) -> Path:
    header = ["entity_id", "role", "chain_id", "r", "r_ideal", "normalized"]
    return export_csv(path, header, engine.score_rows(), _meta_comment(meta or {}))


def write_traces(path, traces: Sequence[PenaltyTrace]) -> Path:
    """Penalty traces as newline-delimited JSON for audit."""
    path = Path(path)
    with atomic_write(path) as fh:
        for trace in traces:
            obj = {
                "part": trace.part,
                "entries": [
                    {"entity": eid, "rate": rate, "divisor": divisor}
                    for eid, rate, divisor in trace.entries
                ],
            }
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")
    return path

