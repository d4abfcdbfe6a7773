"""Seeded supply-chain simulator: populations, topologies, and record streams.

The generator mimics real part flows. Each chiplet is registered by its
manufacturer, hops through one or more distributors, and lands at an IC
manufacturer that verifies it and reports the outcome. Verified chiplets pool
up at the IC manufacturer; once enough accumulate they are consumed into a
freshly registered IC, which then hops through IC distributors to a system
integrator for its own verification. Unit cost compounds by a configurable
markup on every hop, and hop partners prefer the current holder's own chain,
crossing consortium boundaries with a configurable probability (cross-chain
hops are recorded through meta-entities by the ledger). A route is drawn hop
by hop as the part ships: its hop count first, then each partner just before
the part is transferred to it, so generation stops at the hop that spends the
transfer budget.

Defects are latent: sampled from the manufacturer's behavior profile at
fabrication time, they surface only at the lifecycle verifier. Behavior
profiles support benign, malicious, and sleeper (benign-then-malicious)
entities.

Everything is a pure function of (config, seed). The randomness is numpy's
PCG64 stream, drawn in blocks of raw 64-bit words (``_Draws``): each draw
equals the ``np.random.Generator(np.random.PCG64(seed))`` call it stands for,
for integer bounds up to 2**32 (``SimConfig.validate`` keeps the hop-count
span within it), so identical configs yield bit-identical streams. A stream
is a sequence of ledger log records: applied to a fresh ledger it never
violates an operation precondition and reproduces itself as the ledger's log,
so a saved log replays without regeneration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .domain import (
    STANDARD_CURRENCY,
    ChainId,
    Entity,
    EntityId,
    Role,
    chain_id_error,
    hash_device_id,
    is_amount,
    is_real,
)
from .errors import ChipchainError, InvalidConfig
from .ledger import Ledger, PartKind
from .reputation import ObserverView, PenaltyTrace, ReputationEngine

_ROLE_PREFIX = {
    Role.CHIPLET_MANUFACTURER: "cm",
    Role.CHIPLET_DISTRIBUTOR: "cd",
    Role.IC_MANUFACTURER: "icm",
    Role.IC_DISTRIBUTOR: "icd",
    Role.SYSTEM_INTEGRATOR: "si",
}


@dataclass(frozen=True)
class SimConfig:
    """Population sizes, chain layout, economics, and the stream seed."""

    chiplet_mfrs: int = 100
    chiplet_dists: int = 1000
    ic_mfrs: int = 100
    ic_dists: int = 500
    si_count: int = 50
    chains: tuple[tuple[ChainId, bool], ...] = (
        ("TC-1", True),
        ("TC-2", True),
        ("UC-1", False),
        ("UC-2", False),
    )
    n_transactions: int = 10_000
    markup_pct: float = 10.0
    base_unit_cost: float = 100.0  # per chiplet, in STANDARD_CURRENCY
    chiplets_per_ic: int = 2
    hop_range: tuple[int, int] = (1, 3)
    cross_chain_prob: float = 0.15
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # A config read from JSON holds lists where the fields declare tuples.
        object.__setattr__(self, "chains", tuple(map(tuple, self.chains)))
        object.__setattr__(self, "hop_range", tuple(self.hop_range))
        self.validate()

    def validate(self) -> None:
        counts = {
            "chiplet_mfrs": self.chiplet_mfrs,
            "chiplet_dists": self.chiplet_dists,
            "ic_mfrs": self.ic_mfrs,
            "ic_dists": self.ic_dists,
            "si_count": self.si_count,
            "n_transactions": self.n_transactions,
            "chiplets_per_ic": self.chiplets_per_ic,
        }
        for name, value in counts.items():
            if type(value) is not int or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.rng_seed) is not int or self.rng_seed < 0:
            raise InvalidConfig(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        if not is_amount(self.markup_pct):
            raise InvalidConfig(f"markup_pct must be a finite number >= 0, got {self.markup_pct!r}")
        if not is_amount(self.base_unit_cost):
            raise InvalidConfig(
                f"base_unit_cost must be a finite number >= 0, got {self.base_unit_cost!r}"
            )
        lo, hi = self.hop_range
        if type(lo) is not int or type(hi) is not int or lo < 1 or hi < lo:
            raise InvalidConfig(f"hop_range must be integers 1 <= lo <= hi, got {self.hop_range}")
        if hi - lo + 1 > 2**32:  # the hop count is one draw below the span
            raise InvalidConfig(f"hop_range spans more than 2**32 hop counts, got {self.hop_range}")
        # The largest price generate_stream can write: chiplets bought after hi
        # markups each, built into an IC marked up once, then hi more markups.
        markups = 2 * hi + 1
        try:
            top = (1.0 + self.markup_pct / 100.0) ** markups
            top *= self.base_unit_cost * self.chiplets_per_ic
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise InvalidConfig(
                f"markup_pct {self.markup_pct!r} overflows prices within {markups} markups"
            )
        if not is_real(self.cross_chain_prob) or not 0.0 <= self.cross_chain_prob <= 1.0:
            raise InvalidConfig("cross_chain_prob must be in [0, 1]")
        if not self.chains:
            raise InvalidConfig("at least one chain is required")
        for name, trusted in self.chains:
            error = chain_id_error(name)
            if error is not None:
                raise InvalidConfig(error)
            if type(trusted) is not bool:
                raise InvalidConfig(f"chain {name!r} trust flag must be a boolean, got {trusted!r}")
        names = [c for c, _ in self.chains]
        if len(set(names)) != len(names):
            raise InvalidConfig("chain ids must be unique")
        if not any(trusted for _, trusted in self.chains):
            raise InvalidConfig("at least one chain must be trusted")


@dataclass(frozen=True)
class BehaviorProfile:
    """Defect behavior of a manufacturer, with an optional mid-stream switch."""

    defect_prob: float
    switch_at: int | None = None
    post_switch_prob: float | None = None

    def __post_init__(self) -> None:
        if not is_real(self.defect_prob) or not 0.0 <= self.defect_prob <= 1.0:
            raise InvalidConfig("defect_prob must be in [0, 1]")
        if (self.switch_at is None) != (self.post_switch_prob is None):
            raise InvalidConfig("switch_at and post_switch_prob must be given together")
        if self.switch_at is not None and type(self.switch_at) is not int:
            raise InvalidConfig(f"switch_at must be an integer, got {self.switch_at!r}")
        post = self.post_switch_prob
        if post is not None and (not is_real(post) or not 0.0 <= post <= 1.0):
            raise InvalidConfig("post_switch_prob must be in [0, 1]")

    def prob_at(self, txn_index: int) -> float:
        if self.switch_at is not None and txn_index >= self.switch_at:
            return float(self.post_switch_prob)
        return self.defect_prob


BENIGN_DEFECT_PROB = 0.001


@dataclass
class Topology:
    """Generated entity population with chain assignment and one observer view."""

    entities: list[Entity]
    by_role: dict[Role, list[EntityId]]
    chain_of: dict[EntityId, ChainId]
    tas: dict[ChainId, EntityId]
    chiplet_type_of: dict[EntityId, str]
    ic_type_of: dict[EntityId, str]
    view: ObserverView

    def manufacturer_ids(self) -> list[EntityId]:
        return self.by_role[Role.CHIPLET_MANUFACTURER] + self.by_role[Role.IC_MANUFACTURER]


def build_topology(cfg: SimConfig) -> Topology:
    """Deterministic population for a config: no randomness is involved.

    Entities of each role are partitioned round-robin across the configured
    chains. One trusted authority is created per chain.
    """
    chain_names = [c for c, _ in cfg.chains]
    trusted = frozenset(c for c, t in cfg.chains if t)

    role_counts = [
        (Role.CHIPLET_MANUFACTURER, cfg.chiplet_mfrs),
        (Role.CHIPLET_DISTRIBUTOR, cfg.chiplet_dists),
        (Role.IC_MANUFACTURER, cfg.ic_mfrs),
        (Role.IC_DISTRIBUTOR, cfg.ic_dists),
        (Role.SYSTEM_INTEGRATOR, cfg.si_count),
    ]
    entities: list[Entity] = []
    by_role: dict[Role, list[EntityId]] = {role: [] for role, _ in role_counts}
    chain_of: dict[EntityId, ChainId] = {}
    for role, count in role_counts:
        width = max(3, len(str(count)))
        for i in range(count):
            eid = f"{_ROLE_PREFIX[role]}{i + 1:0{width}d}"
            chain = chain_names[i % len(chain_names)]
            entities.append(Entity(eid, role, chain))
            by_role[role].append(eid)
            chain_of[eid] = chain

    tas = {}
    for chain in chain_names:
        ta_id = f"ta@{chain}"
        entities.append(Entity(ta_id, Role.TRUSTED_AUTHORITY, chain))
        chain_of[ta_id] = chain
        tas[chain] = ta_id

    chiplet_type_of = {cm: f"{cm}-chiplet" for cm in by_role[Role.CHIPLET_MANUFACTURER]}
    ic_type_of = {icm: f"{icm}-ic" for icm in by_role[Role.IC_MANUFACTURER]}
    view = ObserverView(observer_chain=sorted(trusted)[0], trusted_chains=trusted)
    return Topology(entities, by_role, chain_of, tas, chiplet_type_of, ic_type_of, view)


def assign_behaviors(
    topology: Topology,
    uniform_p: float = BENIGN_DEFECT_PROB,
    per_chain: Mapping[ChainId, float] | None = None,
    sleepers: Mapping[EntityId, tuple[int, float]] | None = None,
) -> dict[EntityId, BehaviorProfile]:
    """Behavior profile for every manufacturer.

    ``uniform_p`` is the default defect probability, ``per_chain`` overrides it
    per consortium, and ``sleepers`` maps entities to (switch_at,
    post_switch_prob) pairs for benign-then-malicious behavior.
    """
    per_chain = dict(per_chain or {})
    sleepers = dict(sleepers or {})
    known_chains = set(topology.chain_of.values())
    for chain in set(per_chain) - known_chains:
        raise InvalidConfig(f"behavior map names unknown chain {chain!r}")
    manufacturer_ids = set(topology.manufacturer_ids())
    for eid in set(sleepers) - manufacturer_ids:
        raise InvalidConfig(f"sleeper set names unknown manufacturer {eid!r}")
    profiles = {}
    for eid in sorted(manufacturer_ids):
        p = per_chain.get(topology.chain_of[eid], uniform_p)
        if eid in sleepers:
            switch_at, post_p = sleepers[eid]
            profiles[eid] = BehaviorProfile(p, switch_at=switch_at, post_switch_prob=post_p)
        else:
            profiles[eid] = BehaviorProfile(p)
    return profiles


#: Raw 64-bit words ``_Draws`` takes from the bit generator at a time.
_BLOCK = 1024
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


def _raw_words(bits: np.random.PCG64) -> Iterator[int]:
    """The bit generator's raw 64-bit outputs, fetched ``_BLOCK`` at a time."""
    while True:
        yield from bits.random_raw(_BLOCK).tolist()


class _Draws:
    """numpy's PCG64 stream for ``seed``, drawn in blocks of raw words.

    ``random()`` and ``below(n)`` return what ``Generator.random()`` and
    ``Generator.integers(0, n)`` return on ``Generator(PCG64(seed))`` after the
    same sequence of calls, for 1 <= n <= 2**32: a double is the top 53 bits of
    a word, and a bounded integer is Lemire's multiply-and-reject on 32-bit
    halves, each word giving its low half first and keeping its high half for
    the next 32-bit draw, as PCG64's ``next_uint32`` does.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, seed: int):
        self._word = _raw_words(np.random.PCG64(seed)).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._word() >> 11) * _TWO_POW_MINUS_53

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def below(self, n: int) -> int:
        """A uniform integer in [0, n); numpy draws nothing for n == 1."""
        if n == 1:
            return 0
        m = self._next32() * n
        threshold = (0x100000000 - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = self._next32() * n
        return m >> 32


class _PartnerPools:
    """Per-role candidate lists, split into same-chain and other-chain pools."""

    def __init__(self, topology: Topology, chains: Sequence[ChainId]):
        self.same: dict[tuple[Role, ChainId], list[EntityId]] = {}
        self.other: dict[tuple[Role, ChainId], list[EntityId]] = {}
        for role, members in topology.by_role.items():
            for chain in chains:
                self.same[(role, chain)] = [e for e in members if topology.chain_of[e] == chain]
                self.other[(role, chain)] = [e for e in members if topology.chain_of[e] != chain]

    def pick(
        self,
        rng: _Draws,
        role: Role,
        home: ChainId,
        exclude: EntityId,
        cross_prob: float,
    ) -> EntityId:
        same = self.same[(role, home)]
        other = self.other[(role, home)]
        if other and (not same or rng.random() < cross_prob):
            pool = other
        else:
            pool = same or other
        idx = rng.below(len(pool))
        choice = pool[idx]
        if choice == exclude and len(pool) > 1:
            choice = pool[(idx + 1) % len(pool)]
        return choice  # equals exclude only for a degenerate one-entity pool


def generate_stream(
    topology: Topology,
    cfg: SimConfig,
    behaviors: Mapping[EntityId, BehaviorProfile] | None = None,
) -> Iterator[tuple]:
    """Yield the ledger log records of a run: world setup, then lifecycles.

    The records are exactly those ``Ledger.log_records()`` holds after they
    are applied to a fresh ledger. Each hop is a transfer record followed by
    its confirm record, and each adjudicate record names its failed report by
    the sequential id the ledger assigns it. Emits exactly
    ``cfg.n_transactions`` hops. Each hop's partner is drawn as the part ships
    to it, so the hop that spends the budget ends the stream: the lifecycle it
    cuts draws nothing more, and its part simply remains in flight.
    """
    if behaviors is None:
        behaviors = assign_behaviors(topology)
    for eid in topology.manufacturer_ids():
        if eid not in behaviors:
            raise InvalidConfig(f"no behavior profile for manufacturer {eid!r}")

    rng = _Draws(cfg.rng_seed)
    chain_names = [c for c, _ in cfg.chains]

    for chain in chain_names:
        yield ("chain", chain)
    for entity in topology.entities:
        yield ("entity", entity.id, entity.role.value, entity.chain)
    chiplet_kind, ic_kind = PartKind.CHIPLET.value, PartKind.IC.value
    for cm, type_name in topology.chiplet_type_of.items():
        yield ("type", type_name, chiplet_kind, cm)
    for icm, type_name in topology.ic_type_of.items():
        yield ("type", type_name, ic_kind, icm)

    pools = _PartnerPools(topology, chain_names)
    cms = topology.by_role[Role.CHIPLET_MANUFACTURER]
    currency = STANDARD_CURRENCY
    markup = 1.0 + cfg.markup_pct / 100.0
    lo, hi = cfg.hop_range
    cross_prob = cfg.cross_chain_prob
    chain_of = topology.chain_of
    # Roles with one member in the whole world: a pick of one draws nothing.
    lone = {role for role, members in topology.by_role.items() if len(members) == 1}

    serial = 0
    txns = 0
    reports = 0
    budget = cfg.n_transactions
    # Verified chiplets waiting at each IC manufacturer: (chiplet id, acquisition cost).
    ic_pools: dict[EntityId, list[tuple[str, float]]] = {
        icm: [] for icm in topology.by_role[Role.IC_MANUFACTURER]
    }

    def leg(
        kind: str, type_name: str, ids: tuple[str, ...], holder: EntityId, amount: float,
        mid_role: Role, end_role: Role, defect: bool,
    ) -> Generator[tuple, None, tuple[EntityId, float] | None]:
        """Ship a part from its maker through 'lo..hi' mid-role hops to a verifier.

        Returns the verifier and the price it paid when the part passes its
        report, and None when the part fails it or the budget ends the route
        before the verifier (the part stays in flight).
        """
        nonlocal txns, reports
        left = lo + rng.below(hi - lo + 1)
        while left >= 0:
            role = mid_role if left else end_role
            nxt = pools.pick(rng, role, chain_of[holder], holder, cross_prob)
            if nxt == holder:
                # A one-member pool holds the part already: no hop. When that
                # member is its role's only one, every pick left before the
                # verifier lands on it again and draws nothing, so skip them.
                left = 0 if role in lone else left - 1
                continue
            yield ("transfer", kind, type_name, holder, nxt, ids, (amount,), currency)
            yield ("confirm", nxt, type_name, ids)
            txns += 1
            holder, paid = nxt, amount
            amount *= markup
            if txns >= budget and left:
                return None  # the budget ends the route: the part stays in flight
            left -= 1
        reports += 1
        yield ("report", holder, ids, int(defect))
        if defect:
            yield ("adjudicate", topology.tas[chain_of[holder]], f"R{reports:06d}", ids, ())
            return None
        return holder, paid

    while txns < budget:
        cm = cms[rng.below(len(cms))]
        serial += 1
        hid = hash_device_id(f"c{serial:09d}")
        ids = (hid,)
        defect = rng.random() < behaviors[cm].prob_at(txns)
        type_name = topology.chiplet_type_of[cm]
        yield ("devices", cm, type_name, ids)
        verified = yield from leg(
            chiplet_kind, type_name, ids, cm, cfg.base_unit_cost,
            Role.CHIPLET_DISTRIBUTOR, Role.IC_MANUFACTURER, defect,
        )
        if verified is None:
            continue
        icm, acquisition = verified
        pool = ic_pools[icm]
        pool.append((hid, acquisition))
        if len(pool) < cfg.chiplets_per_ic or txns >= budget:
            continue

        # Enough verified chiplets: build and ship an IC.
        serial += 1
        ic_hid = hash_device_id(f"i{serial:09d}")
        ic_ids = (ic_hid,)
        ic_defect = rng.random() < behaviors[icm].prob_at(txns)
        ic_type = topology.ic_type_of[icm]
        yield ("devices", icm, ic_type, ic_ids)
        yield ("consume", icm, tuple(sorted(h for h, _ in pool)), ic_hid)
        cost = sum(a for _, a in pool) * markup
        pool.clear()
        yield from leg(
            ic_kind, ic_type, ic_ids, icm, cost,
            Role.IC_DISTRIBUTOR, Role.SYSTEM_INTEGRATOR, ic_defect,
        )


@dataclass
class ReplayResult:
    """Final world state, reputation samples taken at a stride, and penalty traces."""

    ledger: Ledger
    txn_count: int
    sample_indices: np.ndarray
    sample_entities: list[EntityId]
    sample_r: np.ndarray
    sample_norm: np.ndarray
    traces: list[PenaltyTrace]


def replay(
    records: Iterable[tuple],
    engine: ReputationEngine | None = None,
    sample_stride: int = 0,
) -> ReplayResult:
    """Apply log records to a fresh ledger, sampling reputation as it goes.

    This is the one way a log becomes a ledger. With an engine attached and a
    nonzero ``sample_stride``, the engine is sampled each time the running
    count of confirm records hits a multiple of the stride (plus once at
    stream end), for every non-meta entity known at the first sample. A
    ``ChipchainError`` from a record names the record's 1-based position.
    """
    ledger = Ledger()
    if engine is not None:
        ledger.attach(engine)
    sampling = engine is not None and sample_stride != 0

    txn_count = 0
    traces: list[PenaltyTrace] = []
    columns: list[EntityId] = []
    indices: list[int] = []
    rows_r: list[np.ndarray] = []
    rows_norm: list[np.ndarray] = []

    def snapshot() -> None:
        if not indices:
            columns.extend(
                sorted(e for e, ent in ledger.entities.items() if ent.role is not Role.META_ENTITY)
            )
        indices.append(txn_count)
        row_r, row_norm = engine.sample(columns)
        rows_r.append(np.array(row_r, dtype=np.float64))
        rows_norm.append(np.array(row_norm, dtype=np.float64))

    apply = ledger.apply_record
    for position, rec in enumerate(records, start=1):
        try:
            outcome = apply(rec)
        except ChipchainError as exc:
            raise type(exc)(f"record {position}: {exc}") from exc
        if rec[0] == "confirm":
            txn_count += 1
            if sampling and txn_count % sample_stride == 0:
                snapshot()
        elif outcome is not None:
            traces.extend(outcome.traces)

    if sampling and (not indices or indices[-1] != txn_count):
        snapshot()

    n_cols = len(columns)
    return ReplayResult(
        ledger=ledger,
        txn_count=txn_count,
        sample_indices=np.asarray(indices, dtype=np.int64),
        sample_entities=columns,
        sample_r=np.asarray(rows_r, dtype=np.float64).reshape(len(indices), n_cols),
        sample_norm=np.asarray(rows_norm, dtype=np.float64).reshape(len(indices), n_cols),
        traces=traces,
    )
