"""Randomized cross-module invariants: state purity, conservation, oracle agreement.

A seeded operation soup throws diverse valid call sequences at the ledger
(batches, rejects, cross-chain hops, consumption, empty and joined
adjudications) by attempting random operations and skipping the ones that
fail validation; failed calls must leave no trace, so the surviving log
exercises replay determinism far beyond the happy path.

Metamorphic relations check how scores must change when a log or a view
changes in a known way, which the oracle cannot check when it shares a
misreading with the engine: doubling every amount doubles every r and r_ideal
exactly, re-expressing every sale in a currency worth half at twice the amounts
changes no score, and trusting more chains lowers no r and leaves every r_ideal
as it is.
"""

import random

import pytest

from chipchain.domain import STANDARD_TABLE, Entity, ExchangeTable, Money, Role, hash_device_id
from chipchain.errors import ChipchainError
from chipchain.harness import oracle_max_deviation, oracle_recompute
from chipchain.ledger import Ledger, PartKind, PartStatus, _encode_record, load_log_records
from chipchain.reputation import (
    EntityReputation,
    ObserverView,
    ReputationEngine,
    ReputationParams,
    normalized_score,
)
from chipchain.simulator import (
    SimConfig,
    assign_behaviors,
    build_topology,
    generate_stream,
    replay,
)

CHAINS = ("TB", "UB-1", "UB-2")
ROLE_POP = {
    Role.CHIPLET_MANUFACTURER: 3,
    Role.CHIPLET_DISTRIBUTOR: 4,
    Role.IC_MANUFACTURER: 3,
    Role.IC_DISTRIBUTOR: 4,
    Role.SYSTEM_INTEGRATOR: 2,
    Role.END_USER: 1,
}


def build_soup_world(params: ReputationParams | None = None):
    ledger = Ledger()
    view = ObserverView("TB", frozenset({"TB"}))
    engine = None
    if params is not None:
        engine = ledger.attach(ReputationEngine(view, params))
    for chain in CHAINS:
        ledger.add_chain(chain)
        ledger.add_entity(Entity(f"ta@{chain}", Role.TRUSTED_AUTHORITY, chain))
    entities = {role: [] for role in ROLE_POP}
    i = 0
    for role, count in ROLE_POP.items():
        for _ in range(count):
            eid = f"{role.value.lower()}-{i}"
            ledger.add_entity(Entity(eid, role, CHAINS[i % len(CHAINS)]))
            entities[role].append(eid)
            i += 1
    types = {}
    for kind, makers in ((PartKind.CHIPLET, entities[Role.CHIPLET_MANUFACTURER]),
                         (PartKind.IC, entities[Role.IC_MANUFACTURER])):
        for maker in makers:
            name = f"{maker}-t"
            if kind is PartKind.CHIPLET:
                ledger.register_chiplet_type(maker, name)
            else:
                ledger.register_ic_type(maker, name)
            types[name] = (kind, maker)
    return ledger, engine, entities, types


def pending_transfers(ledger) -> list[tuple]:
    """The transfer records that no confirm or reject record has closed, in log order."""
    pending = {}
    for rec in ledger.log_records():
        if rec[0] == "transfer":
            pending[rec[5]] = rec
        elif rec[0] in ("confirm", "reject"):
            del pending[rec[3]]
    return list(pending.values())


def run_soup(ledger, entities, types, rng, steps):
    """Attempt random operations; invalid ones must raise and change nothing."""
    serial = 0
    open_reports = []

    def owned_by(eid, kind):
        return [
            h for h, p in ledger.parts.items()
            if p.owner == eid
            and ledger.part_type(p.part_type).kind is kind
            and p.status in (PartStatus.REGISTERED, PartStatus.OWNED, PartStatus.VERIFIED_OK)
        ]

    all_ids = list(ledger.entities)
    movers = (
        entities[Role.CHIPLET_MANUFACTURER]
        + entities[Role.CHIPLET_DISTRIBUTOR]
        + entities[Role.IC_MANUFACTURER]
        + entities[Role.IC_DISTRIBUTOR]
    )
    receivers = {
        PartKind.CHIPLET: (
            entities[Role.CHIPLET_DISTRIBUTOR] + entities[Role.IC_MANUFACTURER]
        ),
        PartKind.IC: (
            entities[Role.IC_DISTRIBUTOR]
            + entities[Role.SYSTEM_INTEGRATOR]
            + entities[Role.END_USER]
        ),
    }
    # Weighted action plan keeps transfers and reports frequent.
    actions = [0, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 6, 6, 7]
    for _ in range(steps):
        action = rng.choice(actions)
        try:
            if action == 0:  # register a batch
                name = rng.choice(list(types))
                kind, maker = types[name]
                batch = []
                for _ in range(rng.randint(1, 3)):
                    serial += 1
                    batch.append(hash_device_id(f"soup-{serial}"))
                ledger.register_devices(maker, name, batch)
            elif action == 1:  # transfer part of the caller's actual holdings
                caller = rng.choice(movers)
                holdings: dict[str, list] = {}
                for h, p in ledger.parts.items():
                    if p.owner == caller and p.status in (
                        PartStatus.REGISTERED, PartStatus.OWNED, PartStatus.VERIFIED_OK
                    ):
                        holdings.setdefault(p.part_type, []).append(h)
                if not holdings:
                    continue
                name = rng.choice(sorted(holdings))
                kind = ledger.part_type(name).kind
                pool = holdings[name]
                batch = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                dest = rng.choice([e for e in receivers[kind] if e != caller])
                prices = [Money(round(rng.uniform(1, 50), 2))] * len(batch)
                transfer = (
                    ledger.transfer_chiplets if kind is PartKind.CHIPLET else ledger.transfer_ics
                )
                transfer(caller, name, len(batch), batch, prices, dest)
            elif action == 2:  # confirm or reject a pending transfer
                pendings = pending_transfers(ledger)
                if not pendings:
                    continue
                _, _, part_type, _, dest, ids, _, _ = rng.choice(pendings)
                if rng.random() < 0.8:
                    ledger.confirm_transfer(dest, part_type, len(ids), ids)
                else:
                    ledger.reject_transfer(dest, part_type, ids)
            elif action == 3:  # verify known or unknown ids (read-only)
                target = (
                    rng.choice(list(ledger.parts))
                    if ledger.parts and rng.random() < 0.5
                    else hash_device_id(f"ghost-{rng.random()}")
                )
                ledger.verify(rng.choice(all_ids), target)
            elif action == 4:  # consume chiplets into an IC
                icm = rng.choice(entities[Role.IC_MANUFACTURER])
                chiplets = owned_by(icm, PartKind.CHIPLET)
                ics = [
                    h for h in owned_by(icm, PartKind.IC)
                    if ledger.part(h).status in (PartStatus.REGISTERED, PartStatus.OWNED)
                ]
                if chiplets and ics:
                    take = rng.sample(chiplets, rng.randint(1, min(2, len(chiplets))))
                    ledger.consume_chiplets(icm, take, rng.choice(ics))
            elif action == 5:  # report a lifecycle outcome
                if rng.random() < 0.5:
                    reporter = rng.choice(entities[Role.IC_MANUFACTURER])
                    kind = PartKind.CHIPLET
                else:
                    reporter = rng.choice(
                        entities[Role.SYSTEM_INTEGRATOR] + entities[Role.END_USER]
                    )
                    kind = PartKind.IC
                pool = [
                    h for h in owned_by(reporter, kind)
                    if ledger.part(h).status is PartStatus.OWNED
                ]
                if not pool:
                    continue
                batch = rng.sample(pool, rng.randint(1, min(2, len(pool))))
                result = int(rng.random() < 0.4)
                rid = ledger.report(reporter, batch, result)
                if result == 1:
                    open_reports.append((rid, ledger.log_records()[-1]))
            elif action == 6:  # adjudicate an open failed report
                if not open_reports:
                    continue
                rid, (_, reporter, ids, _) = open_reports.pop(rng.randrange(len(open_reports)))
                chain = ledger.entity(reporter).chain
                defective = [h for h in ids if rng.random() < 0.6]
                origins = {}
                for h in defective:
                    part = ledger.part(h)
                    if ledger.part_type(part.part_type).kind is PartKind.IC:
                        inside = [
                            c for c, p in ledger.parts.items() if p.consumed_into == h
                        ]
                        if inside and rng.random() < 0.5:
                            origins[h] = rng.choice(inside)
                ledger.adjudicate(f"ta@{chain}", rid, defective, origins)
            else:  # duplicate registrations and bad calls must bounce cleanly
                name = rng.choice(list(types))
                kind, maker = types[name]
                existing = list(ledger.parts)
                if existing:
                    ledger.register_devices(maker, name, [rng.choice(existing)])
        except ChipchainError:
            continue
    return ledger


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_soup_replay_is_byte_identical(seed):
    ledger, _, entities, types = build_soup_world()
    run_soup(ledger, entities, types, random.Random(seed), steps=400)
    replayed = replay(ledger.log_records()).ledger
    assert replayed.state_json() == ledger.state_json()
    assert list(replayed.log_lines()) == list(ledger.log_lines())


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_soup_oracle_agreement(seed):
    rng = random.Random(seed)
    params = ReputationParams(
        decrease_rate=rng.uniform(0.01, 2.0),
        trusted_discount=rng.uniform(1.0, 3.0),
    )
    ledger, engine, entities, types = build_soup_world(params)
    run_soup(ledger, entities, types, rng, steps=400)
    assert oracle_max_deviation(engine, ledger.log_records()) <= 1e-9


@pytest.mark.parametrize("seed", [20, 21])
def test_soup_reputation_bounds(seed):
    params = ReputationParams(decrease_rate=0.7, trusted_discount=2.5)
    ledger, engine, entities, types = build_soup_world(params)
    run_soup(ledger, entities, types, random.Random(seed), steps=400)
    assert engine.known_entities(), "soup produced no reputation activity"
    for eid in engine.known_entities():
        rep = engine.reputation(eid)
        assert 0.0 <= rep.r <= rep.r_ideal + 1e-12
        assert 0.0 <= normalized_score(rep) <= 1.0


@pytest.mark.parametrize("seed", [30, 31])
def test_soup_single_owner_conservation(seed):
    ledger, _, entities, types = build_soup_world()
    run_soup(ledger, entities, types, random.Random(seed), steps=300)
    for part in ledger.parts.values():
        assert part.owner in ledger.entities


def test_failed_calls_leave_no_trace():
    ledger, _, entities, types = build_soup_world()
    # A pending sale cm-0 -> cd-3 and an adjudicated report on a part icm-9 bought.
    sold, pending = hash_device_id("sold"), hash_device_id("pending")
    ledger.register_devices("cm-0", "cm-0-t", [sold, pending])
    ledger.transfer_chiplets("cm-0", "cm-0-t", 1, [sold], [Money(1)], "icm-9")
    ledger.confirm_transfer("icm-9", "cm-0-t", 1, [sold])
    rid = ledger.report("icm-9", [sold], 1)
    ledger.adjudicate("ta@TB", rid, [])
    ledger.transfer_chiplets("cm-0", "cm-0-t", 1, [pending], [Money(1)], "cd-3")
    state = ledger.state_json()
    log_len = ledger.log_length()
    bad = hash_device_id("never-registered")
    for attempt in (
        lambda: ledger.register_devices("cd-3", "cm-0-t", [bad]),
        lambda: ledger.transfer_chiplets("cm-0", "cm-0-t", 1, [bad], [Money(1)], "cd-3"),
        lambda: ledger.confirm_transfer("cd-3", "cm-0-t", 1, [bad]),
        lambda: ledger.report("icm-7", [bad], 0),
        lambda: ledger.adjudicate("ta@TB", "R999999", []),
        lambda: ledger.reject_transfer("cd-6", "cm-0-t", [pending]),
        lambda: ledger.adjudicate("ta@TB", rid, [sold]),
    ):
        with pytest.raises(ChipchainError):
            attempt()
    assert ledger.log_length() == log_len
    assert ledger.state_json() == state


def test_oracle_equivalence_under_multiple_views():
    # The same log recomputes consistently under disagreeing observers.
    ledger, _, entities, types = build_soup_world()
    run_soup(ledger, entities, types, random.Random(99), steps=400)
    records = ledger.log_records()
    for trusted in ({"TB"}, {"TB", "UB-1"}, {"TB", "UB-1", "UB-2"}):
        view = ObserverView("TB", frozenset(trusted))
        params = ReputationParams(decrease_rate=0.4, trusted_discount=2.0)
        engine = ReputationEngine(view, params)
        replay(records, engine)
        assert oracle_max_deviation(engine, records) <= 1e-9


def assert_log_reads_as(ledger, records):
    """``ledger.log_records()`` reads as ``records``, field types included, by
    iteration and by index, and ``log_lines`` encodes them; no confirm or reject
    is stored as its own tuple."""
    view = ledger.log_records()
    assert list(view) == records
    assert [list(map(type, rec)) for rec in view] == [list(map(type, rec)) for rec in records]
    assert len(view) == ledger.log_length() == len(records)
    assert [view[i] for i in range(-len(records), 0)] == records
    assert view[-1] == records[-1] and view[1:4] == records[1:4]
    with pytest.raises(IndexError):
        view[len(records)]
    assert list(ledger.log_lines()) == [_encode_record(rec) for rec in records]
    assert not any(rec[0] in ("confirm", "reject") for rec in ledger._log)


def test_log_view_of_a_generated_stream():
    cfg = SimConfig(n_transactions=2_000, cross_chain_prob=0.5, rng_seed=0)
    topology = build_topology(cfg)
    records = list(generate_stream(topology, cfg))
    assert {"confirm", "adjudicate", "consume"} <= {rec[0] for rec in records}
    assert_log_reads_as(replay(records).ledger, records)


@pytest.mark.parametrize("seed", [0, 1])
def test_log_view_of_the_soup(seed):
    ledger, _, entities, types = build_soup_world()
    run_soup(ledger, entities, types, random.Random(seed), steps=400)
    records = list(ledger.log_records())
    # Each confirm or reject names the buyer, part type and ids of the transfer it closes.
    pending, closed = {}, []
    for rec in records:
        if rec[0] == "transfer":
            pending[rec[5]] = rec
        elif rec[0] in ("confirm", "reject"):
            transfer = pending.pop(rec[3])
            assert rec[1:] == (transfer[4], transfer[2], transfer[5])
            closed.append(rec[0])
    assert set(closed) == {"confirm", "reject"}
    assert_log_reads_as(ledger, records)
    assert_log_reads_as(replay(records).ledger, records)


def doubled(rec: tuple) -> tuple:
    """``rec`` with every amount times 2."""
    if rec[0] != "transfer":
        return rec
    return (*rec[:6], tuple(2 * amount for amount in rec[6]), rec[7])


def audit_world(seed: int):
    """The topology and stream of an audit-style world: many cross-chain hops,
    untrusted makers defecting often."""
    cfg = SimConfig(n_transactions=5_000, cross_chain_prob=0.5, rng_seed=seed)
    topology = build_topology(cfg)
    untrusted = {chain: 0.1 for chain, trusted in cfg.chains if not trusted}
    behaviors = assign_behaviors(topology, uniform_p=0.02, per_chain=untrusted)
    return topology, list(generate_stream(topology, cfg, behaviors))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_doubling_every_amount_doubles_every_score(seed, tmp_path):
    topology, stream = audit_world(seed)
    params = ReputationParams()
    scores = []
    for name, records in (("base", stream), ("doubled", list(map(doubled, stream)))):
        path = tmp_path / f"{name}.ndjson"
        replay(records).ledger.save_log(path)
        records = load_log_records(path)
        engine = ReputationEngine(topology.view, params)
        replay(records, engine)
        oracle = oracle_recompute(records, params, topology.view, engine.exchange)
        reps = {eid: engine.reputation(eid) for eid in engine.known_entities()}
        scores.append((reps, oracle))
    (base, base_oracle), (twice, twice_oracle) = scores
    assert base.keys() == twice.keys() == base_oracle.keys() == twice_oracle.keys()
    assert any(0 < rep.r < rep.r_ideal for rep in base.values())
    for eid, rep in base.items():
        assert (twice[eid].r, twice[eid].r_ideal) == (2 * rep.r, 2 * rep.r_ideal), eid
        assert normalized_score(twice[eid]) == normalized_score(rep), eid
        (r, r_ideal), (r2, r_ideal2) = base_oracle[eid], twice_oracle[eid]
        assert (r2, r_ideal2) == (2 * r, 2 * r_ideal), eid
        assert normalized_score(EntityReputation(r2, r_ideal2)) == normalized_score(
            EntityReputation(r, r_ideal)
        ), eid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trusting_more_chains_lowers_no_score(seed):
    # A trusted seller discounts the rate of the sellers after it, so growing
    # the trusted set can only shrink divisors. Rounding is monotone, so the
    # relation holds bit for bit; rewards do not depend on trust at all.
    topology, records = audit_world(seed)
    params = ReputationParams()
    scores = []
    for trusted in ({"TC-1"}, {"TC-1", "TC-2"}, set(topology.chain_of.values())):
        view = ObserverView("TC-1", frozenset(trusted))
        engine = ReputationEngine(view, params)
        replay(records, engine)
        reps = {}
        for eid in engine.known_entities():
            rep = engine.reputation(eid)
            reps[eid] = (rep.r, rep.r_ideal)
        scores.append((reps, oracle_recompute(records, params, view, engine.exchange)))
    for (less, less_oracle), (more, more_oracle) in zip(scores, scores[1:]):
        assert less.keys() == more.keys() == less_oracle.keys() == more_oracle.keys()
        for before, after in ((less, more), (less_oracle, more_oracle)):
            for eid, (r, r_ideal) in before.items():
                assert after[eid][0] >= r, eid
                assert after[eid][1] == r_ideal, eid
            assert any(after[eid][0] > r for eid, (r, _) in before.items())


def in_half_currency(rec: tuple) -> tuple:
    """``rec`` with every amount times 2, in a currency worth half the standard one."""
    if rec[0] != "transfer":
        return rec
    return (*rec[:6], tuple(2 * amount for amount in rec[6]), "HALF")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_currency_worth_half_at_twice_the_amounts_scores_the_same(seed):
    # Amount x 2 x 0.5 is the amount exactly, so the relation holds bit for bit.
    topology, stream = audit_world(seed)
    params = ReputationParams()
    scores = []
    for exchange, records in (
        (STANDARD_TABLE, stream),
        (ExchangeTable({"HALF": 0.5}), list(map(in_half_currency, stream))),
    ):
        ledger = Ledger(exchange)
        engine = ledger.attach(ReputationEngine(topology.view, params))
        for rec in records:
            ledger.apply_record(rec)
        reps = {}
        for eid in engine.known_entities():
            rep = engine.reputation(eid)
            reps[eid] = (rep.r, rep.r_ideal)
        scores.append((reps, oracle_recompute(records, params, topology.view, exchange)))
    (base, base_oracle), (half, half_oracle) = scores
    assert any(0 < r < r_ideal for r, r_ideal in base.values())
    assert half == base
    assert half_oracle == base_oracle
