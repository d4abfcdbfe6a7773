"""Deterministic append-only multi-chain ledger.

The ledger is a single-writer state machine over an ordered operation log:
every mutating call validates its arguments against current state, appends one
log record, then applies it. State is a pure function of the log, so replaying
the records into a fresh ledger reproduces the state byte-for-byte (checked by
comparing canonical JSON serializations). The log persists as newline-delimited
JSON, one operation per line with fixed field order; replay from that file is
the recovery mechanism.

Device transfers are two-phase: the seller initiates, parts are locked in
transit, and ownership moves only when the named destination confirms. A
destination may instead reject, returning the parts to their owner. Transfers
whose endpoints sit on different chains are routed through a per-ordered-pair
meta-entity, so the recorded provenance of a cross-chain sale is two edges,
seller to meta-entity and meta-entity to buyer.

Read-only verification never touches the log: looking up an unknown id emits a
suspicious-device flag into a side event list and nothing else.

One reputation engine may be attached; it reads the ledger's entity registry
and exchange table, so everything it reads was validated before the log grew.
The ledger notifies it when a part's lifecycle completes: a passing report
rewards every seller along the part's path, and a trusted-authority
adjudication penalizes the sellers along the defective part's attribution path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _q
from typing import Iterable, Iterator, Mapping, Sequence

from .domain import (
    STANDARD_CURRENCY,
    STANDARD_TABLE,
    ChainId,
    Entity,
    EntityId,
    ExchangeTable,
    HashedDeviceId,
    Money,
    Role,
    chain_id_error,
    is_amount,
    is_hashed_id,
)
from .errors import (
    AlreadyExists,
    Conflict,
    CountMismatch,
    InvalidArgument,
    InvalidState,
    NotFound,
    NotOwner,
    PermissionDenied,
)
from .files import atomic_write
from .reputation import Edge, PenaltyTrace, ReputationEngine


class PartKind(str, Enum):
    CHIPLET = "chiplet"
    IC = "ic"


#: Part kinds by value, so that replay need not call the enum.
_KINDS: Mapping[str, PartKind] = {kind.value: kind for kind in PartKind}


class PartStatus(str, Enum):
    REGISTERED = "registered"
    IN_TRANSIT = "in_transit"
    OWNED = "owned"
    CONSUMED = "consumed_into_ic"
    VERIFIED_OK = "verified_ok"
    DEFECTIVE = "defective"
    SUSPICIOUS = "suspicious"


#: Prefix of meta-entity ids; user entities may not take it.
META_PREFIX = "X^"

#: Statuses from which a part may be transferred or consumed.
TRANSFERABLE = frozenset({PartStatus.REGISTERED, PartStatus.OWNED, PartStatus.VERIFIED_OK})

#: Caller roles allowed to initiate transfers, by part kind.
TRANSFER_ROLES: Mapping[PartKind, frozenset[Role]] = {
    PartKind.CHIPLET: frozenset({Role.CHIPLET_MANUFACTURER, Role.CHIPLET_DISTRIBUTOR}),
    PartKind.IC: frozenset({Role.IC_MANUFACTURER, Role.IC_DISTRIBUTOR}),
}

#: Reporter roles allowed to verify a lifecycle, by part kind. Chiplets are
#: verified where their lifecycle ends (an IC manufacturer); ICs at a system
#: integrator or end user.
REPORTER_ROLES: Mapping[PartKind, frozenset[Role]] = {
    PartKind.CHIPLET: frozenset({Role.IC_MANUFACTURER}),
    PartKind.IC: frozenset({Role.SYSTEM_INTEGRATOR, Role.END_USER}),
}

#: Roles with exclusive authority to register device types, by kind.
TYPE_REGISTRAR_ROLES: Mapping[PartKind, Role] = {
    PartKind.CHIPLET: Role.CHIPLET_MANUFACTURER,
    PartKind.IC: Role.IC_MANUFACTURER,
}


@dataclass(slots=True)
class PartType:
    id: str
    kind: PartKind
    registrant: EntityId


@dataclass(slots=True)
class PartRecord:
    """One chiplet or IC instance and its accumulated provenance path."""

    hashed_id: HashedDeviceId
    part_type: str
    owner: EntityId
    status: PartStatus = PartStatus.REGISTERED
    consumed_into: HashedDeviceId | None = None
    path: list[Edge] = field(default_factory=list)


@dataclass(slots=True)
class VerifyResult:
    """Outcome of a read-only lookup; absence is a result, not an error."""

    found: bool
    owner: EntityId | None = None
    status: PartStatus | None = None


@dataclass(slots=True)
class AdjudicationResult:
    report_id: str
    defective: tuple[HashedDeviceId, ...]
    traces: list[PenaltyTrace]


class Ledger:
    """In-process deterministic ledger over an ordered operation log."""

    def __init__(self, exchange: ExchangeTable = STANDARD_TABLE) -> None:
        self.exchange = exchange
        self._chains: set[ChainId] = set()
        self._entities: dict[EntityId, Entity] = {}
        self._types: dict[str, PartType] = {}
        self._parts: dict[HashedDeviceId, PartRecord] = {}
        # Each operation is stored once, as its log record: the transfer record
        # of each pending ids tuple, and the report and adjudicate record of
        # each report id.
        self._pending: dict[tuple[HashedDeviceId, ...], tuple] = {}
        self._reports: dict[str, tuple] = {}
        self._adjudications: dict[str, tuple] = {}
        self._meta: dict[tuple[ChainId, ChainId], EntityId] = {}
        self._log: list[tuple] = []
        self.suspicious_events: list[tuple[EntityId, HashedDeviceId]] = []
        self.engine: ReputationEngine | None = None

    # -- registries ----------------------------------------------------------

    @property
    def entities(self) -> Mapping[EntityId, Entity]:
        return self._entities

    @property
    def chains(self) -> frozenset[ChainId]:
        return frozenset(self._chains)

    @property
    def parts(self) -> Mapping[HashedDeviceId, PartRecord]:
        return self._parts

    def entity(self, entity_id: EntityId) -> Entity:
        entity = self._entities.get(entity_id)
        if entity is None:
            raise NotFound(f"unknown entity {entity_id!r}")
        return entity

    def part(self, hashed_id: HashedDeviceId) -> PartRecord:
        part = self._parts.get(hashed_id)
        if part is None:
            raise NotFound(f"unknown part {hashed_id!r}")
        return part

    def part_type(self, name: str) -> PartType:
        ptype = self._types.get(name)
        if ptype is None:
            raise NotFound(f"unknown part type {name!r}")
        return ptype

    def log_length(self) -> int:
        return len(self._log)

    def attach(self, engine: ReputationEngine) -> ReputationEngine:
        """Feed ``engine`` lifecycle events, the ledger's registry and its exchange table.

        A ledger has at most one engine; a second raises ``Conflict``.
        """
        if self.engine is not None:
            raise Conflict("a reputation engine is already attached to this ledger")
        engine.entities = self._entities
        engine.exchange = self.exchange
        self.engine = engine
        return engine

    # -- world setup ----------------------------------------------------------

    def add_chain(self, chain_id: ChainId) -> None:
        error = chain_id_error(chain_id)
        if error is not None:
            raise InvalidArgument(error)
        if chain_id in self._chains:
            raise AlreadyExists(f"chain {chain_id!r} already registered")
        self._log.append(("chain", chain_id))
        self._chains.add(chain_id)

    def add_entity(self, entity: Entity) -> None:
        if entity.id in self._entities:
            raise AlreadyExists(f"entity {entity.id!r} already registered")
        if entity.chain not in self._chains:
            raise NotFound(f"unknown chain {entity.chain!r}")
        if entity.role is Role.META_ENTITY or entity.id.startswith(META_PREFIX):
            raise PermissionDenied("meta-entities are created only by cross-chain transfers")
        self._log.append(("entity", entity.id, entity.role.value, entity.chain))
        self._entities[entity.id] = entity

    # -- type and device registration -----------------------------------------

    def register_chiplet_type(self, caller: EntityId, type_name: str) -> str:
        return self._register_type(caller, type_name, PartKind.CHIPLET)

    def register_ic_type(self, caller: EntityId, type_name: str) -> str:
        return self._register_type(caller, type_name, PartKind.IC)

    def _register_type(self, caller: EntityId, type_name: str, kind: PartKind) -> str:
        if not isinstance(type_name, str):
            raise InvalidArgument(f"type name must be a string, got {type_name!r}")
        if not type_name:
            raise InvalidArgument("type name must be non-empty")
        entity = self.entity(caller)
        if entity.role is not TYPE_REGISTRAR_ROLES[kind]:
            raise PermissionDenied(
                f"role {entity.role.value} may not register {kind.value} types"
            )
        if type_name in self._types:
            raise AlreadyExists(f"part type {type_name!r} already registered")
        self._log.append(("type", type_name, kind.value, caller))
        self._types[type_name] = PartType(type_name, kind, caller)
        return type_name

    def register_devices(
        self, caller: EntityId, part_type: str, ids: Iterable[HashedDeviceId]
    ) -> int:
        ptype = self.part_type(part_type)
        self.entity(caller)
        if caller != ptype.registrant:
            raise PermissionDenied(f"{caller!r} is not the registrant of {part_type!r}")
        id_tuple = _sorted_ids(ids)
        if not id_tuple:
            raise InvalidArgument("no device ids supplied")
        for hid in id_tuple:
            if not is_hashed_id(hid):
                raise InvalidArgument(f"malformed hashed id {hid!r}")
            if hid in self._parts:
                raise AlreadyExists(f"device {hid!r} already registered")
        self._log.append(("devices", caller, part_type, id_tuple))
        for hid in id_tuple:
            self._parts[hid] = PartRecord(hid, part_type, caller)
        return len(id_tuple)

    # -- two-phase transfer ----------------------------------------------------

    def transfer_chiplets(
        self,
        caller: EntityId,
        part_type: str,
        n: int,
        ids: Iterable[HashedDeviceId],
        sale_prices: Sequence[Money],
        dest: EntityId,
    ) -> None:
        amounts, currency = _amounts(sale_prices)
        self._transfer(PartKind.CHIPLET, caller, part_type, n, ids, amounts, currency, dest)

    def transfer_ics(
        self,
        caller: EntityId,
        part_type: str,
        n: int,
        ids: Iterable[HashedDeviceId],
        sale_prices: Sequence[Money],
        dest: EntityId,
    ) -> None:
        amounts, currency = _amounts(sale_prices)
        self._transfer(PartKind.IC, caller, part_type, n, ids, amounts, currency, dest)

    def _transfer(
        self,
        kind: PartKind,
        caller: EntityId,
        part_type: str,
        n: int,
        ids: Iterable[HashedDeviceId],
        amounts: tuple[float, ...],
        currency: str,
        dest: EntityId,
    ) -> None:
        """Initiate a transfer; ``amounts`` are valid amounts, per unit, in ``currency``."""
        id_tuple = _sorted_ids(ids)
        if n != len(id_tuple) or n != len(amounts):
            raise CountMismatch(
                f"declared {n} units, got {len(id_tuple)} ids and {len(amounts)} prices"
            )
        if n == 0:
            raise InvalidArgument("cannot transfer zero devices")
        if dest == caller:
            raise InvalidArgument("source and destination must differ")
        src_entity = self.entity(caller)
        dst_entity = self.entity(dest)
        if dst_entity.role is Role.META_ENTITY:
            raise InvalidArgument("meta-entities cannot be a transfer destination")
        if src_entity.role not in TRANSFER_ROLES[kind]:
            raise PermissionDenied(
                f"role {src_entity.role.value} may not transfer {kind.value}s"
            )
        ptype = self.part_type(part_type)
        if ptype.kind is not kind:
            raise InvalidArgument(f"part type {part_type!r} is not a {kind.value} type")
        self.exchange.rate(currency)  # unknown currencies never enter the log
        for hid in id_tuple:
            part = self.part(hid)
            if part.part_type != part_type:
                raise InvalidArgument(f"device {hid!r} is not of type {part_type!r}")
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own device {hid!r}")
            if part.status is PartStatus.IN_TRANSIT:
                raise Conflict(f"device {hid!r} is already in transit")
            if part.status not in TRANSFERABLE:
                raise Conflict(f"device {hid!r} is {part.status.value}, not transferable")
        rec = ("transfer", kind.value, part_type, caller, dest, id_tuple, amounts, currency)
        self._log.append(rec)
        self._pending[id_tuple] = rec
        for hid in id_tuple:
            self._parts[hid].status = PartStatus.IN_TRANSIT

    def _find_pending(
        self, caller: EntityId, part_type: str, ids: tuple[HashedDeviceId, ...]
    ) -> tuple:
        """The transfer record pending on exactly ``ids`` (sorted, no duplicates) to ``caller``."""
        rec = self._pending.get(ids)
        if rec is None or rec[2] != part_type:
            raise NotFound("no matching pending transfer for these ids")
        if rec[4] != caller:
            raise PermissionDenied(f"{caller!r} is not the destination of this transfer")
        return rec

    def confirm_transfer(
        self, caller: EntityId, part_type: str, n: int, ids: Iterable[HashedDeviceId]
    ) -> None:
        id_tuple = _sorted_ids(ids)
        if n != len(id_tuple):
            raise CountMismatch(f"declared {n} units, got {len(id_tuple)} ids")
        _, _, _, source, dest, id_tuple, amounts, currency = self._find_pending(
            caller, part_type, id_tuple
        )
        self._log.append(("confirm", caller, part_type, id_tuple))
        del self._pending[id_tuple]
        src_chain = self._entities[source].chain
        dst_chain = self._entities[dest].chain
        via_meta = None
        if src_chain != dst_chain:
            via_meta = self._get_or_create_meta(src_chain, dst_chain)
        for hid, amount in zip(id_tuple, amounts):
            part = self._parts[hid]
            part.owner = caller
            part.status = PartStatus.OWNED
            if via_meta is None:
                part.path.append((source, dest, amount, currency))
            else:
                part.path.append((source, via_meta, amount, currency))
                part.path.append((via_meta, dest, amount, currency))

    def reject_transfer(
        self, caller: EntityId, part_type: str, ids: Iterable[HashedDeviceId]
    ) -> None:
        """Decline a pending transfer, returning the parts to their owner."""
        id_tuple = self._find_pending(caller, part_type, _sorted_ids(ids))[5]
        self._log.append(("reject", caller, part_type, id_tuple))
        del self._pending[id_tuple]
        for hid in id_tuple:
            self._parts[hid].status = PartStatus.OWNED

    # -- cross-chain meta-entities ----------------------------------------------

    def _get_or_create_meta(self, src_chain: ChainId, dst_chain: ChainId) -> EntityId:
        """The meta-entity of an ordered chain pair, created on first crossing.

        Its id is ``X^<src>_<dst>``; chain ids may contain neither separator
        and user entities may not take the ``X^`` prefix, so the id names
        exactly one pair. Creation is implied by the confirm record.
        """
        meta_id = self._meta.get((src_chain, dst_chain))
        if meta_id is None:
            meta_id = f"{META_PREFIX}{src_chain}_{dst_chain}"
            self._meta[(src_chain, dst_chain)] = meta_id
            self._entities[meta_id] = Entity(meta_id, Role.META_ENTITY, src_chain)
        return meta_id

    # -- read-only verification ---------------------------------------------------

    def verify(self, caller: EntityId, hashed_id: HashedDeviceId) -> VerifyResult:
        """Look up a device id. Never modifies ledger state or the log.

        An unknown id raises a suspicious-device flag in the side event list.
        """
        part = self._parts.get(hashed_id)
        if part is None:
            self.suspicious_events.append((caller, hashed_id))
            return VerifyResult(found=False)
        return VerifyResult(found=True, owner=part.owner, status=part.status)

    # -- lifecycle: consume, report, adjudicate ------------------------------------

    def consume_chiplets(
        self, caller: EntityId, chiplet_ids: Iterable[HashedDeviceId], ic_id: HashedDeviceId
    ) -> None:
        """Record chiplets as built into an IC, linking the two provenance paths."""
        entity = self.entity(caller)
        if entity.role is not Role.IC_MANUFACTURER:
            raise PermissionDenied("only IC manufacturers consume chiplets")
        chiplets = _sorted_ids(chiplet_ids)
        if not chiplets:
            raise InvalidArgument("no chiplet ids supplied")
        ic = self.part(ic_id)
        if self._types[ic.part_type].kind is not PartKind.IC:
            raise InvalidArgument(f"{ic_id!r} is not an IC")
        if ic.owner != caller:
            raise NotOwner(f"{caller!r} does not own IC {ic_id!r}")
        if ic.status not in (PartStatus.REGISTERED, PartStatus.OWNED):
            raise Conflict(f"IC {ic_id!r} is {ic.status.value}")
        for hid in chiplets:
            part = self.part(hid)
            if self._types[part.part_type].kind is not PartKind.CHIPLET:
                raise InvalidArgument(f"{hid!r} is not a chiplet")
            if part.status is PartStatus.CONSUMED:
                raise Conflict(f"chiplet {hid!r} already consumed")
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own chiplet {hid!r}")
            if part.status not in (PartStatus.OWNED, PartStatus.VERIFIED_OK):
                raise Conflict(f"chiplet {hid!r} is {part.status.value}")
        self._log.append(("consume", caller, chiplets, ic_id))
        for hid in chiplets:
            part = self._parts[hid]
            part.status = PartStatus.CONSUMED
            part.consumed_into = ic_id
        return None

    def report(self, caller: EntityId, ids: Iterable[HashedDeviceId], result: int) -> str:
        """File a verification report: 0 = pass, 1 = fail.

        A pass immediately rewards every seller along each part's path and
        marks the parts verified. A fail defers to the chain's trusted
        authority: no reputation changes until adjudication.
        """
        if type(result) is not int or result not in (0, 1):
            raise InvalidArgument("result must be 0 (pass) or 1 (fail)")
        entity = self.entity(caller)
        id_tuple = _sorted_ids(ids)
        if not id_tuple:
            raise InvalidArgument("no device ids supplied")
        kinds = {self._types[self.part(hid).part_type].kind for hid in id_tuple}
        if len(kinds) != 1:
            raise InvalidArgument("a report must cover one part kind")
        kind = kinds.pop()
        if entity.role not in REPORTER_ROLES[kind]:
            raise PermissionDenied(f"role {entity.role.value} may not report {kind.value}s")
        for hid in id_tuple:
            part = self._parts[hid]
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own device {hid!r}")
            if part.status is not PartStatus.OWNED:
                raise Conflict(f"device {hid!r} is {part.status.value}, not reportable")
        rec = ("report", caller, id_tuple, result)
        self._log.append(rec)
        report_id = f"R{len(self._reports) + 1:06d}"
        self._reports[report_id] = rec
        if result == 0:
            for hid in id_tuple:
                part = self._parts[hid]
                part.status = PartStatus.VERIFIED_OK
                if self.engine is not None:
                    self.engine.lifecycle_passed(part.path)
        return report_id

    def adjudicate(
        self,
        ta: EntityId,
        report_id: str,
        defective: Iterable[HashedDeviceId],
        defect_origins: Mapping[HashedDeviceId, HashedDeviceId] | None = None,
    ) -> AdjudicationResult:
        """Record a trusted authority's outcome for a failed report.

        The outcome is recorded even when ``defective`` is empty, so entities
        that raise false alarms remain identifiable. Each defective part is
        penalized along its own provenance path, unless ``defect_origins``
        traces the defect of a reported IC back to one of its consumed
        chiplets, in which case the joined chiplet-then-IC path is penalized.
        """
        ta_entity = self.entity(ta)
        if ta_entity.role is not Role.TRUSTED_AUTHORITY:
            raise PermissionDenied(f"{ta!r} is not a trusted authority")
        report = self._reports.get(report_id)
        if report is None:
            raise NotFound(f"unknown report {report_id!r}")
        _, reporter, report_ids, result = report
        if self._entities[reporter].chain != ta_entity.chain:
            raise PermissionDenied("adjudicating TA must sit on the reporter's chain")
        if result != 1:
            raise InvalidState("only failed reports are adjudicated")
        if report_id in self._adjudications:
            raise Conflict(f"report {report_id!r} already adjudicated")
        bad = _sorted_ids(defective)
        if not set(bad) <= set(report_ids):
            raise InvalidArgument("defective ids must be a subset of the report's ids")
        origins = dict(defect_origins or {})
        for ic_id, chiplet_id in origins.items():
            if ic_id not in bad:
                raise InvalidArgument(f"origin given for non-defective part {ic_id!r}")
            origin = self.part(chiplet_id)
            if origin.consumed_into != ic_id:
                raise InvalidArgument(f"{chiplet_id!r} was not consumed into {ic_id!r}")
        origin_pairs = tuple(sorted(origins.items()))
        rec = ("adjudicate", ta, report_id, bad, origin_pairs)
        self._log.append(rec)
        self._adjudications[report_id] = rec
        traces: list[PenaltyTrace] = []
        for hid in bad:
            part = self._parts[hid]
            part.status = PartStatus.DEFECTIVE
            own_path = part.path
            origin_id = origins.get(hid)
            if origin_id is not None:
                penalty_path = self._parts[origin_id].path + part.path
            else:
                penalty_path = own_path
            if self.engine is not None:
                traces.append(self.engine.lifecycle_failed(own_path, penalty_path, part=hid))
        return AdjudicationResult(report_id, bad, traces)

    # -- queries ---------------------------------------------------------------

    def provenance(
        self, hashed_id: HashedDeviceId, joined: bool = False
    ) -> list[tuple[EntityId, EntityId, float]]:
        """Provenance edges (seller, buyer, standard amount) in acquisition order.

        With ``joined`` a consumed chiplet's path continues through the IC it
        was built into.
        """
        part = self.part(hashed_id)
        edges = list(part.path)
        if joined and part.consumed_into is not None:
            edges.extend(self._parts[part.consumed_into].path)
        rates = self.exchange.rates
        return [(s, b, amount * rates[cur]) for s, b, amount, cur in edges]

    # -- serialization and replay ---------------------------------------------

    def state_json(self) -> str:
        """Canonical JSON of the full ledger state (side event list excluded)."""
        state = {
            "chains": sorted(self._chains),
            "entities": [
                {"id": e.id, "role": e.role.value, "chain": e.chain}
                for e in sorted(self._entities.values(), key=lambda e: e.id)
            ],
            "types": [
                {"name": t.id, "kind": t.kind.value, "registrant": t.registrant}
                for t in sorted(self._types.values(), key=lambda t: t.id)
            ],
            "parts": [
                {
                    "id": p.hashed_id,
                    "type": p.part_type,
                    "owner": p.owner,
                    "status": p.status.value,
                    "consumed_into": p.consumed_into,
                    "path": [list(edge) for edge in p.path],
                }
                for p in sorted(self._parts.values(), key=lambda p: p.hashed_id)
            ],
            "transactions": self._transaction_rows(),
            "reports": [
                self._report_row(report_id, rec)
                for report_id, rec in sorted(self._reports.items())
            ],
            "meta_entities": [
                {"src": src, "dst": dst, "id": meta_id}
                for (src, dst), meta_id in sorted(self._meta.items())
            ],
        }
        return json.dumps(state, sort_keys=True, separators=(",", ":"))

    def _transaction_rows(self) -> list[dict]:
        """One row per transfer record, numbered in log order, with its outcome.

        A transfer stays pending until a confirm or reject record names its
        ids; a confirmed transfer between two chains went through the meta-entity
        of that chain pair.
        """
        rows: list[dict] = []
        open_rows: dict[tuple[HashedDeviceId, ...], dict] = {}
        for rec in self._log:
            op = rec[0]
            if op == "transfer":
                _, _, part_type, source, dest, ids, amounts, currency = rec
                row = {
                    "seq": len(rows) + 1,
                    "type": part_type,
                    "source": source,
                    "dest": dest,
                    "ids": list(ids),
                    "amounts": list(amounts),
                    "currency": currency,
                    "status": "pending",
                    "via_meta": None,
                }
                rows.append(row)
                open_rows[ids] = row
            elif op == "confirm":
                row = open_rows.pop(rec[3])
                row["status"] = "confirmed"
                src_chain = self._entities[row["source"]].chain
                dst_chain = self._entities[row["dest"]].chain
                if src_chain != dst_chain:
                    row["via_meta"] = self._meta[src_chain, dst_chain]
            elif op == "reject":
                open_rows.pop(rec[3])["status"] = "rejected"
        return rows

    def _report_row(self, report_id: str, rec: tuple) -> dict:
        """A report and, once adjudicated, the trusted authority's outcome."""
        _, reporter, ids, result = rec
        adjudication = self._adjudications.get(report_id)
        return {
            "id": report_id,
            "reporter": reporter,
            "ids": list(ids),
            "result": result,
            "ta_outcome": list(adjudication[3]) if adjudication else None,
            "defect_origins": [list(p) for p in adjudication[4]] if adjudication else [],
        }

    def log_records(self) -> Sequence[tuple]:
        return self._log

    def log_lines(self) -> Iterator[str]:
        """The operation log as JSON lines (without the newline), fields in fixed order."""
        return map(_encode_record, self._log)

    def save_log(self, path) -> None:
        """Write the log as newline-delimited JSON; ``path`` is replaced atomically."""
        with atomic_write(path) as fh:
            write = fh.write
            for line in self.log_lines():
                write(line + "\n")

    def apply_record(self, rec: tuple) -> AdjudicationResult | None:
        """Apply one log record through the public (validating) API.

        Returns the ``AdjudicationResult`` of an adjudicate record, else None.
        A field that names no role or part kind, or holds no valid amount,
        raises ``InvalidArgument``.
        """
        op = rec[0]
        if op == "chain":
            self.add_chain(rec[1])
        elif op == "entity":
            self.add_entity(Entity(rec[1], _field(Role, rec[2]), rec[3]))
        elif op == "type":
            self._register_type(rec[3], rec[1], _part_kind(rec[2]))
        elif op == "devices":
            self.register_devices(rec[1], rec[2], rec[3])
        elif op == "transfer":
            _, kind, part_type, src, dst, ids, amounts, currency = rec
            for amount in amounts:
                if not is_amount(amount) or not currency:
                    _field(Money, amount, currency)  # raises the error Money gives
            self._transfer(_part_kind(kind), src, part_type, len(ids), ids, amounts, currency, dst)
        elif op == "confirm":
            self.confirm_transfer(rec[1], rec[2], len(rec[3]), rec[3])
        elif op == "reject":
            self.reject_transfer(rec[1], rec[2], rec[3])
        elif op == "consume":
            self.consume_chiplets(rec[1], rec[2], rec[3])
        elif op == "report":
            self.report(rec[1], rec[2], rec[3])
        elif op == "adjudicate":
            return self.adjudicate(rec[1], rec[2], rec[3], dict(rec[4]))
        else:
            raise InvalidArgument(f"unknown log operation {op!r}")
        return None


def _sorted_ids(ids: Iterable[HashedDeviceId]) -> tuple[HashedDeviceId, ...]:
    """``ids`` sorted and without duplicates; a one-id tuple is already both."""
    if type(ids) is tuple and len(ids) == 1:
        return ids
    return tuple(sorted(set(ids)))


def _amounts(sale_prices: Sequence[Money]) -> tuple[tuple[float, ...], str]:
    """The amounts of ``sale_prices`` and the one currency they share."""
    currencies = {price.currency for price in sale_prices}
    if len(currencies) > 1:
        raise InvalidArgument("all sale prices in one transfer must share a currency")
    currency = currencies.pop() if currencies else STANDARD_CURRENCY
    return tuple(price.amount for price in sale_prices), currency


def _field(build, *args):
    """``build(*args)`` over log record fields; a bad value is an ``InvalidArgument``."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        raise InvalidArgument(f"malformed log field: {exc}") from None


def _part_kind(value) -> PartKind:
    """The part kind named ``value``; a miss raises what ``_field(PartKind, value)`` does."""
    try:
        return _KINDS[value]
    except (KeyError, TypeError):
        return _field(PartKind, value)


# -- log line encoding ----------------------------------------------------------
#
# Each operation has its own line template, with fields in the order that the
# README's log format gives and ``_obj_to_record`` reads. Strings go through
# ``encode_basestring_ascii`` and numbers through ``repr``, exactly as
# ``json.dumps(obj, separators=(",", ":"))`` would write them. Every field the
# ledger accepts is a ``str``, an amount that ``is_amount`` accepts (a built-in
# ``int`` or finite ``float``, whose ``repr`` is ``int.__repr__`` or
# ``float.__repr__``) or a result of 0 or 1, so every record in the log can be
# written.


def _ids(ids: Iterable[str]) -> str:
    return ",".join(map(_q, ids))


def _chain_line(rec: tuple) -> str:
    return f'{{"op":"chain","id":{_q(rec[1])}}}'


def _entity_line(rec: tuple) -> str:
    _, eid, role, chain = rec
    return f'{{"op":"entity","id":{_q(eid)},"role":{_q(role)},"chain":{_q(chain)}}}'


def _type_line(rec: tuple) -> str:
    _, name, kind, maker = rec
    return f'{{"op":"type","name":{_q(name)},"kind":{_q(kind)},"maker":{_q(maker)}}}'


def _devices_line(rec: tuple) -> str:
    _, maker, part_type, ids = rec
    return f'{{"op":"devices","maker":{_q(maker)},"type":{_q(part_type)},"ids":[{_ids(ids)}]}}'


def _transfer_line(rec: tuple) -> str:
    _, kind, part_type, src, dst, ids, amounts, currency = rec
    return (
        f'{{"op":"transfer","kind":{_q(kind)},"type":{_q(part_type)},"src":{_q(src)},'
        f'"dst":{_q(dst)},"ids":[{_ids(ids)}],"amounts":[{",".join(map(repr, amounts))}],'
        f'"currency":{_q(currency)}}}'
    )


def _confirm_line(rec: tuple) -> str:
    op, caller, part_type, ids = rec
    return f'{{"op":"{op}","caller":{_q(caller)},"type":{_q(part_type)},"ids":[{_ids(ids)}]}}'


def _consume_line(rec: tuple) -> str:
    _, caller, chiplets, ic = rec
    return f'{{"op":"consume","caller":{_q(caller)},"chiplets":[{_ids(chiplets)}],"ic":{_q(ic)}}}'


def _report_line(rec: tuple) -> str:
    _, reporter, ids, result = rec
    return f'{{"op":"report","reporter":{_q(reporter)},"ids":[{_ids(ids)}],"result":{result!r}}}'


def _adjudicate_line(rec: tuple) -> str:
    _, ta, report_id, defective, origins = rec
    pairs = ",".join(f"{_q(ic)}:{_q(chip)}" for ic, chip in origins)
    return (
        f'{{"op":"adjudicate","ta":{_q(ta)},"report":{_q(report_id)},'
        f'"defective":[{_ids(defective)}],"origins":{{{pairs}}}}}'
    )


#: The line template of each operation; ``reject`` shares the confirm layout.
_LINE = {
    "chain": _chain_line,
    "entity": _entity_line,
    "type": _type_line,
    "devices": _devices_line,
    "transfer": _transfer_line,
    "confirm": _confirm_line,
    "reject": _confirm_line,
    "consume": _consume_line,
    "report": _report_line,
    "adjudicate": _adjudicate_line,
}


def _encode_record(rec: tuple) -> str:
    """The JSON line of one log record."""
    return _LINE[rec[0]](rec)


def _obj_to_record(obj: dict) -> tuple:
    """The record of one decoded log line; names must be strings, ids lists of strings."""
    op = obj["op"]
    if op == "chain":
        return _strings(op, obj["id"])
    if op == "entity":
        return _strings(op, obj["id"], obj["role"], obj["chain"])
    if op == "type":
        return _strings(op, obj["name"], obj["kind"], obj["maker"])
    if op == "devices":
        return (*_strings(op, obj["maker"], obj["type"]), _id_list(obj, "ids"))
    if op == "transfer":
        return (
            *_strings(op, obj["kind"], obj["type"], obj["src"], obj["dst"]),
            _id_list(obj, "ids"),
            tuple(obj["amounts"]),
            *_strings(obj["currency"]),
        )
    if op in ("confirm", "reject"):
        return (*_strings(op, obj["caller"], obj["type"]), _id_list(obj, "ids"))
    if op == "consume":
        return (*_strings(op, obj["caller"]), _id_list(obj, "chiplets"), *_strings(obj["ic"]))
    if op == "report":
        return (*_strings(op, obj["reporter"]), _id_list(obj, "ids"), obj["result"])
    if op == "adjudicate":
        origins = obj["origins"]
        if type(origins) is not dict:
            raise InvalidArgument(f"field 'origins' must be an object of strings, got {origins!r}")
        _strings(*origins.values())
        return (
            *_strings(op, obj["ta"], obj["report"]),
            _id_list(obj, "defective"),
            tuple(sorted(origins.items())),
        )
    raise InvalidArgument(f"unknown log operation {op!r}")


def _strings(*values) -> tuple:
    """``values``, unless one is not a ``str``, which raises ``InvalidArgument``."""
    for value in values:
        if type(value) is not str:
            raise InvalidArgument(f"expected a string, got {value!r}")
    return values


def _id_list(obj: dict, key: str) -> tuple[str, ...]:
    """The field ``key`` of ``obj``, a JSON list of strings, as a tuple."""
    value = obj[key]
    if type(value) is not list:
        raise InvalidArgument(f"field {key!r} must be a list of strings, got {value!r}")
    return _strings(*value)


def load_log_records(path) -> list[tuple]:
    """Parse a newline-delimited ledger log file back into records.

    A line that is not UTF-8 or not a well-formed record raises
    ``InvalidArgument`` naming ``path:line``.
    """
    records = []
    obj = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    obj = json.loads(line)
                    records.append(_obj_to_record(obj))
            except (ValueError, TypeError, KeyError, AttributeError, InvalidArgument) as exc:
                raise InvalidArgument(f"{path}:{lineno}: {_line_error(obj, exc)}") from None
    return records


def _line_error(obj, exc: Exception) -> str:
    """Diagnostic for a failed line; ``obj`` is its JSON value once that has decoded."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not valid UTF-8 at byte {exc.start}"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON: {exc.msg} at column {exc.colno}"
    if not isinstance(obj, dict):
        return "log line is not a JSON object"
    if isinstance(exc, KeyError):
        return f"log record lacks field {exc.args[0]!r}"
    if isinstance(exc, InvalidArgument):
        return str(exc)
    return f"malformed log record: {exc}"
