"""Additive-increase / multiplicative-decrease reputation engine.

Reputation is tracked per observer view: each view names the chains it trusts,
and two observers may legitimately disagree about the same entity. Within one
view every entity carries two numbers:

  r        absolute reputation, grown additively by the converted sale amount
           each time a part the entity sold completes verification cleanly,
           and divided by a penalty divisor each time a part it sold is
           adjudicated defective;
  r_ideal  what r would have been had the entity never sold a defective part.
           It grows by the sale amount on every completed lifecycle, pass or
           fail.

The normalized score r / r_ideal therefore sits in [0, 1] and equals 1 exactly
for entities that were never penalized.

Penalty propagation walks a part's provenance path manufacturer-first. The
manufacturer is penalized at the base decrease rate; each later seller's rate
is the previous seller's rate divided by the discount of the edge by which the
seller acquired the part. That discount is 1 whenever the edge's seller sits
on an untrusted chain (so sybil sub-paths are penalized uniformly, and the
buyer who let a part cross a trust boundary inherits the full rate), and 1 for
meta-entity hops (a cross-chain split never consumes a discount step). Only
trusted-internal edges decay the rate, geometrically by the trusted discount.

Two penalty forms are supported:

  rate  (default) divisor = 1 + rate. Well-behaved for any positive decrease
        rate: divisors never drop below 1, so penalization never increases r.
  raw   divisor = rate. Reproduces the literal divide-by-factor rule; only
        sensible for decrease rates above 1, and deep trusted paths can yield
        divisors below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .domain import (
    STANDARD_TABLE,
    ChainId,
    Entity,
    EntityId,
    ExchangeTable,
    Role,
    is_real,
)
from .errors import InvalidArgument

#: A provenance edge: (seller, buyer, amount, currency).
Edge = tuple[EntityId, EntityId, float, str]

PENALTY_FORMS = ("rate", "raw")


@dataclass(frozen=True)
class ReputationParams:
    """Tuning knobs for the penalty side of the engine."""

    decrease_rate: float = 0.1
    trusted_discount: float = 2.0
    penalty_form: str = "rate"

    def __post_init__(self) -> None:
        if not is_real(self.decrease_rate) or self.decrease_rate <= 0:
            raise InvalidArgument("decrease_rate must be finite and positive")
        if not is_real(self.trusted_discount) or self.trusted_discount < 1:
            raise InvalidArgument("trusted_discount must be finite and >= 1")
        if self.penalty_form not in PENALTY_FORMS:
            raise InvalidArgument(f"penalty_form must be one of {PENALTY_FORMS}")


@dataclass(frozen=True)
class ObserverView:
    """Which chains one observer trusts. The observer's own chain is always trusted."""

    observer_chain: ChainId
    trusted_chains: frozenset[ChainId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_chains", frozenset(self.trusted_chains))
        if self.observer_chain not in self.trusted_chains:
            raise InvalidArgument("observer's own chain must be trusted")


@dataclass(slots=True)
class EntityReputation:
    """Per-entity reputation state: exactly two floats, nothing else."""

    r: float = 0.0
    r_ideal: float = 0.0


@dataclass
class PenaltyTrace:
    """Audit record of one penalization pass: (entity, rate, divisor) per path seller."""

    part: str = ""
    entries: list[tuple[EntityId, float, float]] = field(default_factory=list)


def edge_discount(seller: Entity, view: ObserverView, params: ReputationParams) -> float:
    """Discount contributed by an edge, determined by the edge's seller.

    Untrusted-chain sellers and meta-entity hops contribute no discount (1),
    trusted-chain sellers the trusted discount.
    """
    if seller.role is Role.META_ENTITY or seller.chain not in view.trusted_chains:
        return 1.0
    return params.trusted_discount


def penalty_divisor(rate: float, params: ReputationParams) -> float:
    return rate if params.penalty_form == "raw" else 1.0 + rate


def penalty_rates(
    path: Sequence[Edge],
    entities: Mapping[EntityId, Entity],
    view: ObserverView,
    params: ReputationParams,
    part: str = "",
) -> PenaltyTrace:
    """Penalty rate and divisor for every seller along a provenance path.

    The first seller (the manufacturer) gets the base decrease rate; each
    subsequent seller's rate is the previous seller's rate divided by the
    discount of its acquiring edge. Rates are non-increasing along the path.
    """
    if not path:
        raise InvalidArgument("penalty path must be non-empty")
    trace = PenaltyTrace(part=part)
    rate = params.decrease_rate
    trace.entries.append((path[0][0], rate, penalty_divisor(rate, params)))
    for k in range(1, len(path)):
        upstream_seller = entities[path[k - 1][0]]
        rate = rate / edge_discount(upstream_seller, view, params)
        trace.entries.append((path[k][0], rate, penalty_divisor(rate, params)))
    return trace


def normalized_score(rep: EntityReputation) -> float:
    """Normalized reputation in [0, 1]: r / r_ideal, or 1 when r_ideal is 0."""
    if rep.r_ideal == 0:
        return 1.0
    return rep.r / rep.r_ideal


class ReputationEngine:
    """Incremental reputation tracker for one observer view.

    The engine keeps O(1) state per entity (the two floats of
    ``EntityReputation``) and no per-transaction history. It is driven by
    lifecycle notifications from the ledger it is attached to, which also hands
    it the entity registry and exchange table (else ``STANDARD_TABLE``).
    """

    def __init__(
        self,
        view: ObserverView,
        params: ReputationParams,
        entities: Mapping[EntityId, Entity] | None = None,
    ) -> None:
        self.view = view
        self.params = params
        self.entities: Mapping[EntityId, Entity] = entities if entities is not None else {}
        self.exchange: ExchangeTable = STANDARD_TABLE
        self._rep: dict[EntityId, EntityReputation] = {}

    # -- state access ------------------------------------------------------

    def reputation(self, entity_id: EntityId) -> EntityReputation:
        rep = self._rep.get(entity_id)
        return EntityReputation(rep.r, rep.r_ideal) if rep else EntityReputation()

    def normalized(self, entity_id: EntityId) -> float:
        rep = self._rep.get(entity_id)
        return normalized_score(rep) if rep else 1.0

    def chain_reputation(self, meta_id: EntityId) -> tuple[float, float]:
        """(absolute, normalized) reputation of a cross-chain meta-entity."""
        entity = self.entities.get(meta_id)
        if entity is None or entity.role is not Role.META_ENTITY:
            raise InvalidArgument(f"{meta_id!r} is not a meta-entity")
        rep = self._rep.get(meta_id)
        if rep is None:
            return 0.0, 1.0
        return rep.r, normalized_score(rep)

    def known_entities(self) -> list[EntityId]:
        return sorted(self._rep)

    def sample(self, ids: Iterable[EntityId]) -> tuple[list[float], list[float]]:
        """The r and normalized rows of ``ids``; an unseen id reads 0.0 and 1.0."""
        reps = self._rep
        row_r: list[float] = []
        row_norm: list[float] = []
        for entity_id in ids:
            rep = reps.get(entity_id, _ZERO_REP)
            row_r.append(rep.r)
            row_norm.append(1.0 if rep.r_ideal == 0 else rep.r / rep.r_ideal)
        return row_r, row_norm

    # -- lifecycle notifications --------------------------------------------

    def _get(self, entity_id: EntityId) -> EntityReputation:
        rep = self._rep.get(entity_id)
        if rep is None:
            rep = EntityReputation()
            self._rep[entity_id] = rep
        return rep

    def lifecycle_passed(self, path: Iterable[Edge]) -> None:
        """Reward every seller along the path with the converted sale amount."""
        rates, reps = self.exchange.rates, self._rep
        for seller, _buyer, amount, currency in path:
            value = amount * (rates.get(currency) or self.exchange.rate(currency))
            rep = reps.get(seller)
            if rep is None:
                rep = reps[seller] = EntityReputation()
            rep.r += value
            rep.r_ideal += value

    def lifecycle_failed(
        self,
        own_path: Sequence[Edge],
        penalty_path: Sequence[Edge] | None = None,
        part: str = "",
    ) -> PenaltyTrace:
        """Penalize a defective part.

        Sellers along ``penalty_path`` (the attribution path; defaults to the
        part's own path) have r divided by their penalty divisor. Sellers
        along ``own_path`` additionally accrue their foregone sale amount into
        r_ideal: the failed lifecycle still completed.
        """
        if penalty_path is None:
            penalty_path = own_path
        rate = self.exchange.rate
        for seller, _buyer, amount, currency in own_path:
            self._get(seller).r_ideal += amount * rate(currency)
        trace = penalty_rates(penalty_path, self.entities, self.view, self.params, part=part)
        for entity_id, _rate, divisor in trace.entries:
            self._get(entity_id).r /= divisor
        return trace

    # -- export --------------------------------------------------------------

    def score_rows(self) -> list[tuple[EntityId, str, str, float, float, float]]:
        """(entity_id, role, chain_id, r, r_ideal, normalized), sorted by entity id.

        Includes every entity known to the engine's registry, not just the
        ones that were touched.
        """
        rows = []
        ids = set(self._rep)
        ids.update(self.entities)
        for entity_id in sorted(ids):
            entity = self.entities.get(entity_id)
            rep = self._rep.get(entity_id, _ZERO_REP)
            rows.append(
                (
                    entity_id,
                    entity.role.value if entity else "",
                    entity.chain if entity else "",
                    rep.r,
                    rep.r_ideal,
                    normalized_score(rep),
                )
            )
        return rows


_ZERO_REP = EntityReputation()
