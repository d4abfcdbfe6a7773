"""Deterministic append-only multi-chain ledger.

The ledger is a single-writer state machine over an ordered operation log:
every mutating call validates its arguments against current state, appends one
log record, then applies it. State is a pure function of the log, so replaying
the records into a fresh ledger reproduces the state byte-for-byte (checked by
comparing canonical JSON serializations). The log persists as newline-delimited
JSON, one operation per line with fixed field order; replay from that file is
the recovery mechanism.

Each operation has one validating body. ``apply_record`` hands every log
record to the body of its op through one ``match`` on the op,
``_encode_record`` writes every record's line through another, and
``_obj_to_record`` reads every decoded line through a third. A transfer's
body takes the record itself and logs that very tuple when it is canonical (a
tuple with a ``str`` kind, a sorted ``tuple`` of ids without duplicates and a
``tuple`` of amounts), so a log that is replayed shares its records with the
ledger it builds; other input is logged as an equal canonical record.

Nothing here builds a reference cycle (an engine never holds its ledger), so
reference counting frees it all; only ``cli.main`` pauses the cyclic collector.

Device transfers are two-phase: the seller initiates, parts are locked in
transit, and ownership moves only when the named destination confirms. A
destination may instead reject, returning the parts to their owner. Transfers
whose endpoints sit on different chains are routed through a per-ordered-pair
meta-entity, so the provenance of a cross-chain sale is two edges, seller to
meta-entity and meta-entity to buyer.

A part's path holds each hop once: it is the list of the transfer records that
moved the part, the very tuples in the log. Its edges (seller, buyer, amount,
currency) are derived from those records where they are read, by reports,
adjudications, ``provenance`` and ``state_json``. A record's amounts follow its
sorted ids, so a part's amount sits at its id's position.

Confirm and reject close a transfer through one body, ``_close``, which refuses
all but the buyer, part type and ids of a pending transfer. So the log stores
that transfer record again at the closing position, with a one-byte mark,
instead of a tuple of its own. ``log_records`` reads the list through the marks
and rebuilds ``(op, caller, type, ids)`` at a marked position; ``log_lines`` and
``state_json`` read the list and the marks directly.

Reports are numbered by position: the ledger keeps their records in a list in
filing order, and report ``k`` (1-based) has the id ``f"R{k:06d}"``, which
``report`` returns and ``adjudicate`` parses back. Only that exact string names
the report, so ``R1`` and ``R0000001`` name none.

Read-only verification never touches the log: looking up an unknown id emits a
suspicious-device flag into a side event list and nothing else.

One reputation engine may be attached; it reads the ledger's entity registry
and exchange table, so everything it reads was validated before the log grew.
The ledger notifies it when a part's lifecycle completes: a passing report
rewards every seller along the part's path, and a trusted-authority
adjudication penalizes the sellers along the defective part's attribution path.
A raw-form penalty can fail, so the ledger asks the engine to check an
adjudication's penalties before it appends the record.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _q

from .domain import (
    MAX_STANDARD_AMOUNT,
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


#: Part kinds by value, so that replay need not call the enum, and values by kind.
_KINDS: Mapping[str, PartKind] = {kind.value: kind for kind in PartKind}
_KIND_VALUES: Mapping[PartKind, str] = {kind: kind.value for kind in PartKind}


class PartStatus(str, Enum):
    REGISTERED = "registered"
    IN_TRANSIT = "in_transit"
    OWNED = "owned"
    CONSUMED = "consumed_into_ic"
    VERIFIED_OK = "verified_ok"
    DEFECTIVE = "defective"


#: The statuses and role that transfer, confirm and report read once per call,
#: as module names: a member read through its enum class costs ten times as much.
_IN_TRANSIT, _OWNED, _VERIFIED_OK = PartStatus.IN_TRANSIT, PartStatus.OWNED, PartStatus.VERIFIED_OK
_META = Role.META_ENTITY

#: The marks of a log position that stores the transfer record it closes, and
#: the op of each mark.
_CONFIRMED, _REJECTED = 1, 2
_CLOSING_OPS = (None, "confirm", "reject")

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
    """One chiplet or IC instance and its provenance path.

    ``path`` lists the transfer records that moved the part, in the order they
    were confirmed: each is the record held in the log, not a copy. The ledger
    derives the part's edges from them where it reads them.
    """

    hashed_id: HashedDeviceId
    part_type: str
    owner: EntityId
    status: PartStatus = PartStatus.REGISTERED
    consumed_into: HashedDeviceId | None = None
    path: list[tuple] = field(default_factory=list)


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
        # of each pending ids tuple, the report records in filing order, and
        # the adjudicate record of each report id.
        self._pending: dict[tuple[HashedDeviceId, ...], tuple] = {}
        self._reports: list[tuple] = []
        self._adjudications: dict[str, tuple] = {}
        self._meta: dict[tuple[ChainId, ChainId], EntityId] = {}
        # A confirm or reject is stored as the transfer record it closes, and
        # marked as such: one byte per log position, 0 where the stored record
        # is the position's own.
        self._log: list[tuple] = []
        self._marks = bytearray()
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
        self._marks.append(0)
        self._chains.add(chain_id)

    def add_entity(self, entity: Entity) -> None:
        if entity.id in self._entities:
            raise AlreadyExists(f"entity {entity.id!r} already registered")
        if entity.chain not in self._chains:
            raise NotFound(f"unknown chain {entity.chain!r}")
        if entity.role is Role.META_ENTITY or entity.id.startswith(META_PREFIX):
            raise PermissionDenied("meta-entities are created only by cross-chain transfers")
        self._log.append(("entity", entity.id, entity.role.value, entity.chain))
        self._marks.append(0)
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
        self._marks.append(0)
        self._types[type_name] = PartType(type_name, kind, caller)
        return type_name

    def register_devices(
        self, caller: EntityId, part_type: str, ids: Iterable[HashedDeviceId]
    ) -> int:
        ptype = self._types.get(part_type) or self.part_type(part_type)
        if caller not in self._entities:
            self.entity(caller)
        if caller != ptype.registrant:
            raise PermissionDenied(f"{caller!r} is not the registrant of {part_type!r}")
        id_tuple = _sorted_ids(ids)
        if not id_tuple:
            raise InvalidArgument("no device ids supplied")
        parts = self._parts
        for hid in id_tuple:
            if not is_hashed_id(hid):
                raise InvalidArgument(f"malformed hashed id {hid!r}")
            if hid in parts:
                raise AlreadyExists(f"device {hid!r} already registered")
        self._log.append(("devices", caller, part_type, id_tuple))
        self._marks.append(0)
        for hid in id_tuple:
            parts[hid] = PartRecord(hid, part_type, caller)
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
        self._transfer(_sale_record("chiplet", caller, part_type, n, ids, sale_prices, dest))

    def transfer_ics(
        self,
        caller: EntityId,
        part_type: str,
        n: int,
        ids: Iterable[HashedDeviceId],
        sale_prices: Sequence[Money],
        dest: EntityId,
    ) -> None:
        self._transfer(_sale_record("ic", caller, part_type, n, ids, sale_prices, dest))

    def _transfer(self, rec: tuple) -> None:
        """Initiate the transfer of a ``transfer`` record: amounts per unit, in its currency.

        A canonical record (a tuple with a ``str`` kind and tuples of ids and
        amounts) is logged and held as pending itself; any other is logged as
        its canonical form, with the ids sorted and each amount moved with its
        id, so a caller's list never reaches the log. An amount that is not
        valid or converts to more than ``MAX_STANDARD_AMOUNT``, or a kind that
        names no part kind, raises ``InvalidArgument``.
        """
        _, kind_value, part_type, caller, dest, ids, amounts, currency = rec
        for amount in amounts:
            if not is_amount(amount) or not currency:
                _field(Money, amount, currency)  # raises the error Money gives
        kind = _part_kind(kind_value)
        id_tuple = _sorted_ids(ids)
        n = len(ids)
        _check_count(n, id_tuple, amounts)
        if n == 0:
            raise InvalidArgument("cannot transfer zero devices")
        if dest == caller:
            raise InvalidArgument("source and destination must differ")
        entities = self._entities
        src_entity = entities.get(caller) or self.entity(caller)
        dst_entity = entities.get(dest) or self.entity(dest)
        if dst_entity.role is _META:
            raise InvalidArgument("meta-entities cannot be a transfer destination")
        if src_entity.role not in TRANSFER_ROLES[kind]:
            raise PermissionDenied(
                f"role {src_entity.role.value} may not transfer {kind.value}s"
            )
        ptype = self._types.get(part_type) or self.part_type(part_type)
        if ptype.kind is not kind:
            raise InvalidArgument(f"part type {part_type!r} is not a {kind.value} type")
        if currency not in self.exchange.rates:
            self.exchange.rate(currency)  # raises: unknown currencies never enter the log
        top = max(amounts)
        if top * self.exchange.rates[currency] > MAX_STANDARD_AMOUNT:
            raise InvalidArgument(
                f"amount {top!r} {currency} exceeds {MAX_STANDARD_AMOUNT:.6g} {STANDARD_CURRENCY}"
            )
        parts = self._parts
        for hid in id_tuple:
            part = parts.get(hid) or self.part(hid)
            if part.part_type != part_type:
                raise InvalidArgument(f"device {hid!r} is not of type {part_type!r}")
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own device {hid!r}")
            if part.status not in TRANSFERABLE:
                if part.status is _IN_TRANSIT:
                    raise Conflict(f"device {hid!r} is already in transit")
                raise Conflict(f"device {hid!r} is {part.status.value}, not transferable")
        if (id_tuple is not ids or type(amounts) is not tuple or type(kind_value) is not str
                or type(rec) is not tuple):
            if id_tuple is not ids:
                # The ids are distinct, so sorting the pairs never compares amounts.
                amounts = [amount for _, amount in sorted(zip(ids, amounts))]
            rec = ("transfer", _KIND_VALUES[kind], part_type, caller, dest, id_tuple,
                   tuple(amounts), currency)
        self._log.append(rec)
        self._marks.append(0)
        self._pending[id_tuple] = rec
        for hid in id_tuple:
            parts[hid].status = _IN_TRANSIT

    def _close(
        self, caller: EntityId, part_type: str, ids: tuple[HashedDeviceId, ...], mark: int
    ) -> tuple:
        """Log the transfer pending on ``ids`` (sorted, distinct) to ``caller`` as ``mark``."""
        rec = self._pending.get(ids)
        if rec is None or rec[2] != part_type:
            raise NotFound("no matching pending transfer for these ids")
        if rec[4] != caller:
            raise PermissionDenied(f"{caller!r} is not the destination of this transfer")
        self._log.append(rec)
        self._marks.append(mark)
        del self._pending[ids]
        return rec

    def confirm_transfer(
        self, caller: EntityId, part_type: str, n: int, ids: Iterable[HashedDeviceId]
    ) -> None:
        id_tuple = _sorted_ids(ids)
        if n != len(id_tuple):
            raise CountMismatch(f"declared {n} units, got {len(id_tuple)} ids")
        rec = self._close(caller, part_type, id_tuple, _CONFIRMED)
        entities = self._entities
        src_chain = entities[rec[3]].chain
        dst_chain = entities[caller].chain
        if src_chain != dst_chain:
            self._get_or_create_meta(src_chain, dst_chain)
        parts = self._parts
        for hid in rec[5]:
            part = parts[hid]
            part.owner = caller
            part.status = _OWNED
            part.path.append(rec)

    def reject_transfer(
        self, caller: EntityId, part_type: str, ids: Iterable[HashedDeviceId]
    ) -> None:
        """Decline a pending transfer, returning the parts to their owner."""
        for hid in self._close(caller, part_type, _sorted_ids(ids), _REJECTED)[5]:
            self._parts[hid].status = _OWNED

    # -- cross-chain meta-entities ----------------------------------------------

    def _get_or_create_meta(self, src_chain: ChainId, dst_chain: ChainId) -> EntityId:
        """The meta-entity of an ordered chain pair, created on first crossing.

        Its id is ``X^<src>_<dst>``; chain ids may contain neither separator
        and user entities may not take the ``X^`` prefix, so the id names
        exactly one pair. Creation is implied by the confirm record, and the
        edges of every confirmed crossing read the pair's id back from ``_meta``.
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
        entity = self._entities.get(caller) or self.entity(caller)
        if entity.role is not Role.IC_MANUFACTURER:
            raise PermissionDenied("only IC manufacturers consume chiplets")
        chiplets = _sorted_ids(chiplet_ids)
        if not chiplets:
            raise InvalidArgument("no chiplet ids supplied")
        parts, types = self._parts, self._types
        ic = parts.get(ic_id) or self.part(ic_id)
        if types[ic.part_type].kind is not PartKind.IC:
            raise InvalidArgument(f"{ic_id!r} is not an IC")
        if ic.owner != caller:
            raise NotOwner(f"{caller!r} does not own IC {ic_id!r}")
        if ic.status not in (PartStatus.REGISTERED, PartStatus.OWNED):
            raise Conflict(f"IC {ic_id!r} is {ic.status.value}")
        for hid in chiplets:
            part = parts.get(hid) or self.part(hid)
            if types[part.part_type].kind is not PartKind.CHIPLET:
                raise InvalidArgument(f"{hid!r} is not a chiplet")
            if part.status is PartStatus.CONSUMED:
                raise Conflict(f"chiplet {hid!r} already consumed")
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own chiplet {hid!r}")
            if part.status not in (PartStatus.OWNED, PartStatus.VERIFIED_OK):
                raise Conflict(f"chiplet {hid!r} is {part.status.value}")
        self._log.append(("consume", caller, chiplets, ic_id))
        self._marks.append(0)
        for hid in chiplets:
            part = parts[hid]
            part.status = PartStatus.CONSUMED
            part.consumed_into = ic_id

    def report(self, caller: EntityId, ids: Iterable[HashedDeviceId], result: int) -> str:
        """File a verification report: 0 = pass, 1 = fail. Returns its id, ``R000001`` first.

        A pass immediately rewards every seller along each part's path and
        marks the parts verified. A fail defers to the chain's trusted
        authority: no reputation changes until adjudication.
        """
        if type(result) is not int or result not in (0, 1):
            raise InvalidArgument("result must be 0 (pass) or 1 (fail)")
        entity = self._entities.get(caller) or self.entity(caller)
        id_tuple = _sorted_ids(ids)
        if not id_tuple:
            raise InvalidArgument("no device ids supplied")
        parts, types = self._parts, self._types
        kind = types[(parts.get(id_tuple[0]) or self.part(id_tuple[0])).part_type].kind
        if len(id_tuple) > 1:
            kinds = {types[(parts.get(hid) or self.part(hid)).part_type].kind for hid in id_tuple}
            if len(kinds) != 1:
                raise InvalidArgument("a report must cover one part kind")
        if entity.role not in REPORTER_ROLES[kind]:
            raise PermissionDenied(f"role {entity.role.value} may not report {kind.value}s")
        for hid in id_tuple:
            part = parts[hid]
            if part.owner != caller:
                raise NotOwner(f"{caller!r} does not own device {hid!r}")
            if part.status is not _OWNED:
                raise Conflict(f"device {hid!r} is {part.status.value}, not reportable")
        rec = ("report", caller, id_tuple, result)
        self._log.append(rec)
        self._marks.append(0)
        self._reports.append(rec)
        if result == 0:
            engine = self.engine
            for hid in id_tuple:
                part = parts[hid]
                part.status = _VERIFIED_OK
                if engine is not None:
                    engine.lifecycle_passed(self._edges(part))
        return f"R{len(self._reports):06d}"

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
        An attached engine checks every penalty first (``check_penalties``),
        so a refused one raises before the append and changes nothing.
        """
        ta_entity = self.entity(ta)
        if ta_entity.role is not Role.TRUSTED_AUTHORITY:
            raise PermissionDenied(f"{ta!r} is not a trusted authority")
        try:
            k = int(report_id[1:])
        except (TypeError, ValueError):
            k = 0
        # int() reads the number of "R1", "R 1", "R0_1" or other digits too, so
        # only the id that the number writes back names the report.
        if not 0 < k <= len(self._reports) or f"R{k:06d}" != report_id:
            raise NotFound(f"unknown report {report_id!r}")
        _, reporter, report_ids, result = self._reports[k - 1]
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
        engine = self.engine
        penalties: list[tuple[HashedDeviceId, list[Edge], list[Edge]]] = []  # part, own, penalty
        if engine is not None:
            for hid in bad:
                own_path = penalty_path = self._edges(self._parts[hid])
                origin_id = origins.get(hid)
                if origin_id is not None:
                    penalty_path = self._edges(self._parts[origin_id]) + own_path
                penalties.append((hid, own_path, penalty_path))
            engine.check_penalties([(hid, penalty_path) for hid, _, penalty_path in penalties])
        rec = ("adjudicate", ta, report_id, bad, tuple(sorted(origins.items())))
        self._log.append(rec)
        self._marks.append(0)
        self._adjudications[report_id] = rec
        for hid in bad:
            self._parts[hid].status = PartStatus.DEFECTIVE
        traces = [
            engine.lifecycle_failed(own_path, penalty_path, part=hid)
            for hid, own_path, penalty_path in penalties
        ]
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
        edges = self._edges(part)
        if joined and part.consumed_into is not None:
            edges += self._edges(self._parts[part.consumed_into])
        rates = self.exchange.rates
        return [(s, b, amount * rates[cur]) for s, b, amount, cur in edges]

    def _edges(self, part: PartRecord) -> list[Edge]:
        """The edges (seller, buyer, amount, currency) of ``part``'s path, in order.

        Each transfer record gives the part's amount, at its id's position in
        the record's sorted ids, and one edge, or two through the meta-entity
        of the chain pair when seller and buyer sit on different chains.
        """
        entities, metas, hid = self._entities, self._meta, part.hashed_id
        edges: list[Edge] = []
        for _, _, _, source, dest, ids, amounts, currency in part.path:
            amount = amounts[bisect_left(ids, hid)]
            src_chain, dst_chain = entities[source].chain, entities[dest].chain
            if src_chain == dst_chain:
                edges.append((source, dest, amount, currency))
            else:
                meta_id = metas[src_chain, dst_chain]
                edges.append((source, meta_id, amount, currency))
                edges.append((meta_id, dest, amount, currency))
        return edges

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
                    "path": [list(edge) for edge in self._edges(p)],
                }
                for p in sorted(self._parts.values(), key=lambda p: p.hashed_id)
            ],
            "transactions": self._transaction_rows(),
            "reports": [
                self._report_row(report_id, rec)
                for report_id, rec in sorted(
                    (f"R{k:06d}", rec) for k, rec in enumerate(self._reports, start=1)
                )
            ],
            "meta_entities": [
                {"src": src, "dst": dst, "id": meta_id}
                for (src, dst), meta_id in sorted(self._meta.items())
            ],
        }
        return json.dumps(state, sort_keys=True, separators=(",", ":"))

    def _transaction_rows(self) -> list[dict]:
        """One row per transfer record, numbered in log order, with its outcome.

        A transfer stays pending until a confirm or reject closes it; a
        confirmed transfer between two chains went through the meta-entity of
        that chain pair.
        """
        rows: list[dict] = []
        open_rows: dict[tuple[HashedDeviceId, ...], dict] = {}
        for rec, mark in zip(self._log, self._marks):
            if mark == _CONFIRMED:
                row = open_rows.pop(rec[5])
                row["status"] = "confirmed"
                src_chain = self._entities[rec[3]].chain
                dst_chain = self._entities[rec[4]].chain
                if src_chain != dst_chain:
                    row["via_meta"] = self._meta[src_chain, dst_chain]
            elif mark == _REJECTED:
                open_rows.pop(rec[5])["status"] = "rejected"
            elif rec[0] == "transfer":
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
        """The log's records in order, read-only: a view over the stored records.

        A confirm or reject reads as ``(op, caller, type, ids)``, rebuilt from
        the transfer record that the ledger stores in its place; every other
        record is the stored tuple itself.
        """
        return _LogRecords(self._log, self._marks)

    def log_lines(self) -> Iterator[str]:
        """The operation log as JSON lines (without the newline), fields in fixed order."""
        for rec, mark in zip(self._log, self._marks):
            if mark:
                yield _closing_line(_CLOSING_OPS[mark], rec[4], rec[2], rec[5])
            else:
                yield _encode_record(rec)

    def save_log(self, path) -> None:
        """Write the log as newline-delimited JSON; ``path`` is replaced atomically."""
        with atomic_write(path) as fh:
            write = fh.write
            for line in self.log_lines():
                write(line + "\n")

    def apply_record(self, rec: tuple) -> AdjudicationResult | None:
        """Apply one log record through the validating body of its op.

        Each case calls its op's method on ``self``, so a method replaced on
        the class (a tracer's wrapper) sees every record of its op. The cases
        run from the most frequent op to the least. Returns the
        ``AdjudicationResult`` of an adjudicate record, else None. An unknown
        op, a field that names no role or part kind, or one that holds no
        valid amount raises ``InvalidArgument``.
        """
        match rec[0]:
            case "transfer":
                self._transfer(rec)
            case "confirm":
                self.confirm_transfer(rec[1], rec[2], len(rec[3]), rec[3])
            case "devices":
                self.register_devices(rec[1], rec[2], rec[3])
            case "report":
                self.report(rec[1], rec[2], rec[3])
            case "consume":
                self.consume_chiplets(rec[1], rec[2], rec[3])
            case "adjudicate":
                return self.adjudicate(rec[1], rec[2], rec[3], dict(rec[4]))
            case "reject":
                self.reject_transfer(rec[1], rec[2], rec[3])
            case "entity":
                self.add_entity(Entity(rec[1], _field(Role, rec[2]), rec[3]))
            case "type":
                self._register_type(rec[3], rec[1], _part_kind(rec[2]))
            case "chain":
                self.add_chain(rec[1])
            case op:
                raise InvalidArgument(f"unknown log operation {op!r}")


class _LogRecords(Sequence):
    """``Ledger.log_records()``: the stored list read through its marks.

    It holds the list and the marks, never the ledger.
    """

    __slots__ = ("_log", "_marks")

    def __init__(self, log: list[tuple], marks: bytearray) -> None:
        self._log = log
        self._marks = marks

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        if type(index) is slice:
            return list(_LogRecords(self._log[index], self._marks[index]))
        return _record_at(self._log[index], self._marks[index])

    def __iter__(self) -> Iterator[tuple]:
        return map(_record_at, self._log, self._marks)


def _record_at(rec: tuple, mark: int) -> tuple:
    """The record at a log position that stores ``rec`` with ``mark``."""
    return (_CLOSING_OPS[mark], rec[4], rec[2], rec[5]) if mark else rec


def _sorted_ids(ids: Iterable[HashedDeviceId]) -> tuple[HashedDeviceId, ...]:
    """``ids`` sorted and without duplicates: ``ids`` itself when it is a tuple that is both."""
    if type(ids) is tuple and len(ids) == 1:
        return ids
    id_tuple = tuple(sorted(set(ids)))
    return ids if type(ids) is tuple and id_tuple == ids else id_tuple


def _check_count(n: int, id_tuple: tuple, amounts: Sequence) -> None:
    """Refuse a transfer of ``n`` declared units that is not one amount per distinct id."""
    if n != len(id_tuple) or n != len(amounts):
        raise CountMismatch(
            f"declared {n} units, got {len(id_tuple)} ids and {len(amounts)} prices"
        )


def _sale_record(
    kind: str,
    caller: EntityId,
    part_type: str,
    n: int,
    ids: Iterable[HashedDeviceId],
    sale_prices: Sequence[Money],
    dest: EntityId,
) -> tuple:
    """The transfer record of a sale of ``n`` devices, ``sale_prices[i]`` for ``ids[i]``.

    The ids keep the caller's order: ``Ledger._transfer`` sorts them and moves
    each amount with its id. The prices must share one currency; with no prices
    it is the standard one.
    """
    currencies = {price.currency for price in sale_prices}
    if len(currencies) > 1:
        raise InvalidArgument("all sale prices in one transfer must share a currency")
    currency = currencies.pop() if currencies else STANDARD_CURRENCY
    amounts = tuple(price.amount for price in sale_prices)
    ids = tuple(ids)
    _check_count(n, _sorted_ids(ids), amounts)
    return ("transfer", kind, part_type, caller, dest, ids, amounts, currency)


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
# ``_encode_record`` writes each operation's line from its own f-string, with
# fields in the order that the README's log format gives and ``_obj_to_record``
# reads. Strings go through ``encode_basestring_ascii`` and numbers through
# ``repr``, exactly as ``json.dumps(obj, separators=(",", ":"))`` would write
# them. Every field the ledger accepts is a ``str``, an amount that
# ``is_amount`` accepts (a built-in ``int`` or finite ``float``, whose ``repr``
# is ``int.__repr__`` or ``float.__repr__``) or a result of 0 or 1, so every
# record in the log can be written.


def _ids(ids: Sequence[str]) -> str:
    return _q(ids[0]) if len(ids) == 1 else ",".join(map(_q, ids))


def _numbers(amounts: Sequence[float]) -> str:
    return repr(amounts[0]) if len(amounts) == 1 else ",".join(map(repr, amounts))


def _encode_record(rec: tuple) -> str:
    """The JSON line of one log record."""
    match rec[0]:
        case "transfer":
            _, kind, part_type, src, dst, ids, amounts, currency = rec
            return (
                f'{{"op":"transfer","kind":{_q(kind)},"type":{_q(part_type)},"src":{_q(src)},'
                f'"dst":{_q(dst)},"ids":[{_ids(ids)}],"amounts":[{_numbers(amounts)}],'
                f'"currency":{_q(currency)}}}'
            )
        case "confirm" | "reject":
            return _closing_line(*rec)
        case "devices":
            _, maker, part_type, ids = rec
            return (
                f'{{"op":"devices","maker":{_q(maker)},"type":{_q(part_type)},'
                f'"ids":[{_ids(ids)}]}}'
            )
        case "report":
            _, reporter, ids, result = rec
            return (
                f'{{"op":"report","reporter":{_q(reporter)},"ids":[{_ids(ids)}],'
                f'"result":{result!r}}}'
            )
        case "consume":
            _, caller, chiplets, ic = rec
            return (
                f'{{"op":"consume","caller":{_q(caller)},"chiplets":[{_ids(chiplets)}],'
                f'"ic":{_q(ic)}}}'
            )
        case "adjudicate":
            _, ta, report_id, defective, origins = rec
            pairs = ",".join(f"{_q(ic)}:{_q(chip)}" for ic, chip in origins)
            return (
                f'{{"op":"adjudicate","ta":{_q(ta)},"report":{_q(report_id)},'
                f'"defective":[{_ids(defective)}],"origins":{{{pairs}}}}}'
            )
        case "entity":
            _, eid, role, chain = rec
            return f'{{"op":"entity","id":{_q(eid)},"role":{_q(role)},"chain":{_q(chain)}}}'
        case "type":
            _, name, kind, maker = rec
            return f'{{"op":"type","name":{_q(name)},"kind":{_q(kind)},"maker":{_q(maker)}}}'
        case "chain":
            return f'{{"op":"chain","id":{_q(rec[1])}}}'


def _closing_line(op: str, caller: str, part_type: str, ids: Sequence[str]) -> str:
    """The JSON line of a confirm or reject record."""
    return f'{{"op":"{op}","caller":{_q(caller)},"type":{_q(part_type)},"ids":[{_ids(ids)}]}}'


def _obj_to_record(obj: dict, share) -> tuple:
    """The record of one decoded log line; names must be strings, ids lists of strings.

    ``share(value)`` returns a name or an id tuple as the one object of its
    value in the log, and refuses any other value. Every name field of a line
    is read before any is checked, so a line that lacks a field says so first.
    """
    match obj["op"]:
        case "transfer":
            kind, part_type, src, dst = obj["kind"], obj["type"], obj["src"], obj["dst"]
            return (
                "transfer", share(kind), share(part_type), share(src), share(dst),
                _id_tuple(obj, "ids", share), _amounts(obj["amounts"], share),
                share(obj["currency"]),
            )
        case "confirm" | "reject" as op:
            caller, part_type = obj["caller"], obj["type"]
            return (share(op), share(caller), share(part_type), _id_tuple(obj, "ids", share))
        case "devices":
            maker, part_type = obj["maker"], obj["type"]
            return ("devices", share(maker), share(part_type), _id_tuple(obj, "ids", share))
        case "report":
            return ("report", share(obj["reporter"]), _id_tuple(obj, "ids", share), obj["result"])
        case "consume":
            return (
                "consume", share(obj["caller"]), _id_tuple(obj, "chiplets", share), share(obj["ic"])
            )
        case "adjudicate":
            origins = obj["origins"]
            if type(origins) is not dict:
                raise InvalidArgument(
                    f"field 'origins' must be an object of strings, got {origins!r}"
                )
            pairs = sorted(zip(map(share, origins), map(share, origins.values())))
            ta, report_id = obj["ta"], obj["report"]
            return (
                "adjudicate", share(ta), share(report_id), _id_tuple(obj, "defective", share),
                tuple(pairs),
            )
        case "entity":
            eid, role, chain = obj["id"], obj["role"], obj["chain"]
            return ("entity", share(eid), share(role), share(chain))
        case "type":
            name, kind, maker = obj["name"], obj["kind"], obj["maker"]
            return ("type", share(name), share(kind), share(maker))
        case "chain":
            return ("chain", share(obj["id"]))
        case op:
            raise InvalidArgument(f"unknown log operation {op!r}")


def _id_tuple(obj: dict, key: str, share) -> tuple[str, ...]:
    """The field ``key`` of ``obj``, a JSON list of strings, as a shared tuple."""
    value = obj[key]
    if type(value) is not list:
        raise InvalidArgument(f"field {key!r} must be a list of strings, got {value!r}")
    return share(tuple(map(share, value)))


def _amounts(value, share) -> tuple:
    """The amounts field ``value`` as a tuple, shared when each amount is a nonzero float.

    Equal nonzero floats write the same ``repr``, so sharing them keeps every
    byte of the log. ``1`` and ``1.0``, ``true`` and ``1``, and ``0.0`` and
    ``-0.0`` are equal but do not, and the decoder reads every ``NaN`` as one
    object, so none of those is shared.
    """
    amounts = tuple(value)
    for amount in amounts:
        if type(amount) is not float or not amount or amount != amount:
            return amounts
    return share(amounts)


def _checked(value):
    """``value`` if it is a ``str`` or a tuple; anything else is no string field.

    A decoded JSON value is never a tuple: the only tuples here are id tuples
    that ``_id_tuple`` built from strings that passed this check, and amounts
    tuples of nonzero floats from ``_amounts``.
    """
    if type(value) is str or type(value) is tuple:
        return value
    raise InvalidArgument(f"expected a string, got {value!r}")


class _Shared(dict):
    """The names, id tuples and float amounts tuples of one log file, each stored under itself.

    ``shared[value]`` is the first value equal to ``value`` that the file
    decoded, so equal fields of different records are one object and a hit is
    one C-level lookup. A miss checks the value with ``_checked``. A list or an
    object is unhashable, so its lookup raises ``TypeError`` before that check.
    """

    __slots__ = ()

    def __missing__(self, value):
        self[value] = _checked(value)
        return value


def load_log_records(path) -> list[tuple]:
    """Parse a newline-delimited ledger log file back into records.

    A line that is not UTF-8 or not a well-formed record raises
    ``InvalidArgument`` naming ``path:line``. Each line goes straight to the
    scanner behind ``json.loads``; a line it does not take whole as one JSON
    value is handed to ``json.loads``, so the error it reports is unchanged.

    Within one file, equal names, equal id tuples and equal amounts tuples of
    nonzero floats are one object: a hashed id occurs in about nine records,
    and a default world sells at 19 prices. The table that shares them belongs
    to this call, so nothing is shared between files or kept after a failed load.
    """
    records = []
    obj = None
    scan = json.JSONDecoder().scan_once
    share = _Shared().__getitem__
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    try:
                        obj, end = scan(line, 0)
                    except StopIteration:
                        end = None
                    if end != len(line):
                        obj = json.loads(line)
                    try:
                        record = _obj_to_record(obj, share)
                    except TypeError:
                        # An unhashable field fails its lookup before its check:
                        # decoding unshared reports the line as its first bad field.
                        record = _obj_to_record(obj, _checked)
                    records.append(record)
            except (
                ValueError, TypeError, KeyError, AttributeError, RecursionError, InvalidArgument
            ) as exc:
                raise InvalidArgument(f"{path}:{lineno}: {_line_error(obj, exc)}") from None
    return records


def _line_error(obj, exc: Exception) -> str:
    """Diagnostic for a failed line; ``obj`` is its JSON value once that has decoded."""
    if isinstance(exc, RecursionError):
        return "invalid JSON: nested too deeply"
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
