import dataclasses
import hashlib
import gc
import json
import random
import tracemalloc

import numpy as np
import pytest

from chipchain import simulator
from chipchain.domain import Role
from chipchain.errors import InvalidConfig
from chipchain.ledger import PartKind, PartStatus, load_log_records
from chipchain.reputation import ReputationEngine, ReputationParams
from chipchain.simulator import (
    BehaviorProfile,
    SimConfig,
    assign_behaviors,
    build_topology,
    generate_stream,
    replay,
)

SMALL = SimConfig(
    chiplet_mfrs=4,
    chiplet_dists=8,
    ic_mfrs=3,
    ic_dists=6,
    si_count=3,
    chains=(("TC-1", True), ("UC-1", False)),
    n_transactions=400,
    rng_seed=11,
)


def make_engine(topology):
    return ReputationEngine(topology.view, ReputationParams(decrease_rate=1.0))


def in_flight(ledger):
    """Ids of parts whose lifecycle has not ended: not consumed, verified or defective."""
    terminal = {
        PartKind.CHIPLET: {PartStatus.CONSUMED, PartStatus.DEFECTIVE},
        PartKind.IC: {PartStatus.VERIFIED_OK, PartStatus.DEFECTIVE},
    }
    return {
        h for h, part in ledger.parts.items()
        if part.status not in terminal[ledger.part_type(part.part_type).kind]
    }


class TestBuildTopology:
    def test_population_counts(self):
        cfg = SimConfig(n_transactions=10)
        topo = build_topology(cfg)
        role_entities = [e for e in topo.entities if e.role is not Role.TRUSTED_AUTHORITY]
        assert len(role_entities) == 100 + 1000 + 100 + 500 + 50
        tas = [e for e in topo.entities if e.role is Role.TRUSTED_AUTHORITY]
        assert len(tas) == len(cfg.chains)  # one TA per chain

    def test_deterministic(self):
        a = build_topology(SMALL)
        b = build_topology(SMALL)
        assert a.entities == b.entities
        assert a.chain_of == b.chain_of

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidConfig):
            build_topology(SimConfig(chiplet_mfrs=0))

    def test_round_robin_covers_all_chains(self):
        topo = build_topology(SMALL)
        chains_used = {topo.chain_of[e] for e in topo.by_role[Role.CHIPLET_DISTRIBUTOR]}
        assert chains_used == {"TC-1", "UC-1"}

    def test_view_trusts_configured_chains(self):
        topo = build_topology(SMALL)
        assert topo.view.trusted_chains == frozenset({"TC-1"})


class TestAssignBehaviors:
    def test_uniform_default(self):
        topo = build_topology(SMALL)
        profiles = assign_behaviors(topo, uniform_p=0.001)
        assert set(profiles) == set(topo.manufacturer_ids())
        assert all(p == BehaviorProfile(0.001) for p in profiles.values())

    def test_sleeper_set(self):
        topo = build_topology(SMALL)
        profiles = assign_behaviors(topo, sleepers={"cm001": (500, 0.002)})
        assert profiles["cm001"].switch_at == 500
        assert profiles["cm001"].post_switch_prob == 0.002
        assert profiles["cm002"].switch_at is None

    def test_per_chain_override(self):
        topo = build_topology(SMALL)
        profiles = assign_behaviors(topo, per_chain={"UC-1": 0.01})
        for eid, profile in profiles.items():
            expected = 0.01 if topo.chain_of[eid] == "UC-1" else 0.001
            assert profile.defect_prob == expected

    def test_unknown_entity_rejected(self):
        topo = build_topology(SMALL)
        with pytest.raises(InvalidConfig):
            assign_behaviors(topo, sleepers={"ghost": (1, 0.5)})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"per_chain": [("UC-1", 0.1)]}, "per_chain must be a mapping"),
         ({"sleepers": [("cm001", (1, 0.5))]}, "sleepers must be a mapping"),
         ({"sleepers": {"cm001": 5}}, "sleeper 'cm001' must be a [switch_at, post_switch_prob]"),
         ({"sleepers": {"cm001": (1, 0.5, 2)}}, "sleeper 'cm001' must be a"),
         # A sleeper with no switch point would be a plain benign profile.
         ({"sleepers": {"cm001": (None, None)}},
          "sleeper 'cm001' switch_at must be an integer, got None"),
         ({"sleepers": {"cm001": (None, 0.5)}},
          "sleeper 'cm001' switch_at must be an integer, got None")],
    )
    def test_shapes_checked_by_field(self, kwargs, message):
        with pytest.raises(InvalidConfig) as exc:
            assign_behaviors(build_topology(SMALL), **kwargs)
        assert str(exc.value).startswith(message)

    def test_switch_fields_must_pair(self):
        with pytest.raises(InvalidConfig):
            BehaviorProfile(0.1, switch_at=5)

    @pytest.mark.parametrize("args", [(True,), ("0.1",), (0.1, True, 0.5), (0.1, 5, True)])
    def test_bools_and_strings_rejected(self, args):
        with pytest.raises(InvalidConfig):
            BehaviorProfile(*args)


class TestProbAt:
    """The defect probability of a part fabricated at a stream position."""

    def test_zero_probability(self):
        assert all(BehaviorProfile(0.0).prob_at(i) == 0.0 for i in range(1000))

    def test_unit_probability(self):
        assert all(BehaviorProfile(1.0).prob_at(i) == 1.0 for i in range(1000))

    def test_switch_changes_rate(self):
        profile = BehaviorProfile(0.0, switch_at=100, post_switch_prob=1.0)
        assert profile.prob_at(99) == 0.0
        assert profile.prob_at(100) == 1.0

    def test_empirical_rate_binomial_bound(self):
        # Mixed profile over 1e6 draws: expect about n/2 * (p1 + p2) defects.
        n = 1_000_000
        profile = BehaviorProfile(0.001, switch_at=n // 2, post_switch_prob=0.002)
        rng = np.random.Generator(np.random.PCG64(42))
        draws = rng.random(n)
        thresholds = np.where(np.arange(n) < profile.switch_at, 0.001, 0.002)
        count = int((draws < thresholds).sum())
        expected = n // 2 * 0.001 + n // 2 * 0.002
        sigma = (n * 0.0015 * (1 - 0.0015)) ** 0.5
        assert abs(count - expected) <= 3 * sigma


class TestDraws:
    """The generator's draws equal numpy's ``Generator`` on the same PCG64 seed."""

    #: Small bounds, and bounds near 2**31 and 2**32 where numpy often rejects a draw.
    BOUNDS = (1, 2, 3, 5, 250, 1000, 2**31 - 1, 2**31 + 11, 3 * 2**30 + 7, 2**32 - 1, 2**32)

    @pytest.mark.parametrize("block", [simulator._BLOCK, 7])
    @pytest.mark.parametrize("seed", [0, 1, 11, 7919, 2**64 - 1])
    def test_interleaved_calls_match_numpy(self, monkeypatch, block, seed):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        numpy_rng = np.random.Generator(np.random.PCG64(seed))
        draws = simulator._Draws(seed)
        calls = random.Random(seed)
        want, got = [], []
        for _ in range(5 * block + 50):  # crosses several block refills
            if calls.random() < 0.4:
                want.append(numpy_rng.random())
                got.append(draws.random())
            else:
                n = calls.choice(self.BOUNDS) if calls.random() < 0.8 else calls.randint(1, 2**32)
                want.append((n, int(numpy_rng.integers(0, n))))
                got.append((n, draws.below(n)))
        assert got == want


class TestGenerateStream:
    def test_exact_transfer_budget(self):
        topo = build_topology(SMALL)
        ops = [rec[0] for rec in generate_stream(topo, SMALL)]
        assert ops.count("transfer") == SMALL.n_transactions
        assert ops.count("confirm") == SMALL.n_transactions

    def test_bit_identical_streams(self):
        topo = build_topology(SMALL)
        a = list(generate_stream(topo, SMALL))
        b = list(generate_stream(build_topology(SMALL), SMALL))
        assert a == b

    def test_different_seeds_differ(self):
        topo = build_topology(SMALL)
        other_cfg = dataclasses.replace(SMALL, rng_seed=12)
        a = list(generate_stream(topo, SMALL))
        b = list(generate_stream(build_topology(other_cfg), other_cfg))
        assert a != b

    def test_markup_compounds_per_hop(self):
        cfg = SimConfig(
            chiplet_mfrs=1, chiplet_dists=3, ic_mfrs=1, ic_dists=2, si_count=1,
            chains=(("TC-1", True),),
            n_transactions=3,
            markup_pct=10.0,
            base_unit_cost=100.0,
            hop_range=(2, 2),
            rng_seed=0,
        )
        topo = build_topology(cfg)
        xfers = [rec for rec in generate_stream(topo, cfg) if rec[0] == "transfer"]
        assert [rec[6][0] for rec in xfers[:3]] == [
            pytest.approx(100.0),
            pytest.approx(110.0),
            pytest.approx(121.0),
        ]

    def test_stream_replays_without_errors(self):
        topo = build_topology(SMALL)
        result = replay(generate_stream(topo, SMALL), engine=make_engine(topo))
        assert result.txn_count == SMALL.n_transactions

    @pytest.mark.parametrize("p, failed", [(0.0, 0), (1.0, 1)])
    def test_report_results_follow_the_defect_probability(self, p, failed):
        topo = build_topology(SMALL)
        stream = generate_stream(topo, SMALL, assign_behaviors(topo, uniform_p=p))
        results = {rec[3] for rec in stream if rec[0] == "report"}
        assert results == {failed}

    def test_widest_hop_span_stops_at_the_budget(self):
        # Each hop is drawn as the part ships, so a route of up to 2**32 hops
        # costs no more than the budget's three.
        cfg = SimConfig(markup_pct=0.0, hop_range=(1, 2**32), n_transactions=3)
        ops = [rec[0] for rec in generate_stream(build_topology(cfg), cfg)]
        assert ops.count("transfer") == 3
        assert ops[-1] == "confirm"

    def test_missing_profile_rejected(self):
        topo = build_topology(SMALL)
        profiles = assign_behaviors(topo)
        profiles.pop("cm001")
        with pytest.raises(InvalidConfig):
            list(generate_stream(topo, SMALL, profiles))


class TestSharedPrices:
    """Transfers at equal nonzero float prices share one amounts tuple, and no byte changes."""

    #: The saved log of each world, recorded before prices were shared. The
    #: first logs the int price 100 at each first sale and 100.0 after it; the
    #: second logs -0.0 for chiplets and 0.0 for ICs, whose cost is a sum.
    CASES = {
        "int_cost_no_markup": (
            dataclasses.replace(SMALL, base_unit_cost=100, markup_pct=0),
            "b2a480e16379fe762a8e087e5290d11d9e3b83046848ecf4f84eff164ac6ca91",
            {"chiplet": {"[100]", "[100.0]"}, "ic": {"[200.0]"}},
        ),
        "negative_zero_cost": (
            dataclasses.replace(SMALL, base_unit_cost=-0.0),
            "3abc540fcb57111f5500cf108f9c2d23f544ba5893093201e0edcbe9b66d8dcf",
            {"chiplet": {"[-0.0]"}, "ic": {"[0.0]"}},
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_equal_prices_that_write_otherwise_keep_their_bytes(self, tmp_path, name):
        cfg, digest, amounts = self.CASES[name]
        path = tmp_path / "ledger.ndjson"
        replay(generate_stream(build_topology(cfg), cfg)).ledger.save_log(path)
        written: dict[str, set[str]] = {}
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            if obj["op"] == "transfer":
                text = line.split('"amounts":')[1].split("]")[0] + "]"
                written.setdefault(obj["kind"], set()).add(text)
        assert written == amounts
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_one_amounts_tuple_per_price(self):
        cfg = SimConfig(n_transactions=2_000)
        transfers = [rec for rec in generate_stream(build_topology(cfg), cfg) if rec[0] == "transfer"]
        first: dict[tuple, tuple] = {}
        for rec in transfers:
            assert first.setdefault(rec[6], rec[6]) is rec[6], rec[6]
        assert len(transfers) > 20 * len(first)


class TestReplay:
    def test_empty_stream_touches_nothing(self):
        result = replay([])
        assert result.txn_count == 0
        assert result.ledger.log_length() == 0

    def test_flow_conservation(self):
        topo = build_topology(SMALL)
        ledger = replay(generate_stream(topo, SMALL)).ledger
        waiting = [ledger.part(h) for h in in_flight(ledger)]
        assert all(part.status is not PartStatus.IN_TRANSIT for part in waiting)  # pairs are atomic
        # Besides the one lifecycle the transfer budget may cut off mid-route,
        # the parts in flight are verified chiplets pooled at IC manufacturers.
        mid_route = [part for part in waiting if part.status is PartStatus.OWNED]
        pooled = [part.owner for part in waiting if part.status is PartStatus.VERIFIED_OK]
        assert len(mid_route) <= 1
        assert len(pooled) + len(mid_route) == len(waiting)
        assert all(ledger.entity(icm).role is Role.IC_MANUFACTURER for icm in pooled)
        assert all(pooled.count(icm) <= SMALL.chiplets_per_ic for icm in pooled)

    def test_cost_monotone_along_paths(self):
        topo = build_topology(SMALL)
        result = replay(generate_stream(topo, SMALL))
        ledger = result.ledger
        checked = 0
        for h, part in ledger.parts.items():
            amounts = [amt for _, _, amt in ledger.provenance(h, joined=True)]
            if len(amounts) >= 2:
                checked += 1
                # Meta-split edges repeat an amount; otherwise strictly rising.
                assert all(a <= b or a == b for a, b in zip(amounts, amounts[1:]))
                assert amounts[-1] >= amounts[0]
        assert checked > 0

    def test_sampling_stride(self):
        topo = build_topology(SMALL)
        engine = make_engine(topo)
        result = replay(
            generate_stream(topo, SMALL), engine=engine, sample_stride=100
        )
        assert list(result.sample_indices) == [100, 200, 300, 400]
        assert result.sample_r.shape == (4, len(result.sample_entities))
        metas = [e for e in result.sample_entities if e.startswith("X^")]
        assert metas == []

    @pytest.mark.parametrize("stride", [-3000, 2.5, True, None])
    def test_invalid_stride_rejected(self, stride):
        topo = build_topology(SMALL)
        with pytest.raises(InvalidConfig) as exc:
            replay(generate_stream(topo, SMALL), engine=make_engine(topo), sample_stride=stride)
        assert str(exc.value) == f"stride must be an integer >= 0, got {stride!r}"

    @pytest.mark.parametrize(
        "stride, rows", [(0, 0), (10 * SMALL.n_transactions, 1), (100, 4)],
        ids=["no_snapshot", "one_snapshot", "four_snapshots"],
    )
    def test_sample_arrays_are_float64_rows(self, stride, rows):
        topo = build_topology(SMALL)
        engine = make_engine(topo)
        result = replay(generate_stream(topo, SMALL), engine=engine, sample_stride=stride)
        assert len(result.sample_indices) == rows
        for samples in (result.sample_r, result.sample_norm):
            assert samples.dtype == np.float64
            assert samples.shape == (rows, len(result.sample_entities))

    def test_samples_are_held_once(self):
        # 100 samples of the default world's 1,754 columns, 1.4 MB a matrix.
        # Rows kept beside the matrices they are copied into peak two
        # matrices above what replay retains.
        cfg = SimConfig(n_transactions=1_000)
        topo = build_topology(cfg)
        records = list(generate_stream(topo, cfg, assign_behaviors(topo)))
        gc.collect()
        tracemalloc.start()
        try:
            result = replay(records, engine=make_engine(topo), sample_stride=10)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = result.sample_r.nbytes
        assert result.sample_r.shape == (100, 1_754)
        assert peak - retained < matrix, f"peak {peak - retained} B above {retained} B retained"

    def test_samples_track_engine_values(self):
        topo = build_topology(SMALL)
        engine = make_engine(topo)
        result = replay(
            generate_stream(topo, SMALL), engine=engine, sample_stride=SMALL.n_transactions
        )
        col = result.sample_entities.index("cm001")
        assert result.sample_r[-1, col] == pytest.approx(engine.reputation("cm001").r)

    def test_round_trip_through_file(self, tmp_path):
        topo = build_topology(SMALL)
        path = tmp_path / "ledger.ndjson"
        direct = replay(generate_stream(topo, SMALL))
        direct.ledger.save_log(path)
        from_file = replay(load_log_records(path))
        assert direct.ledger.state_json() == from_file.ledger.state_json()


#: Many defects (so many adjudications, chiplet and IC) and many chain crossings.
DEFECT_HEAVY = SimConfig(
    chiplet_mfrs=4,
    chiplet_dists=8,
    ic_mfrs=3,
    ic_dists=6,
    si_count=3,
    chains=(("TC-1", True), ("TC-2", True), ("UC-1", False)),
    n_transactions=1_500,
    cross_chain_prob=0.8,
    rng_seed=3,
)


class TestRecordContract:
    """A generated stream is the ledger log it produces, record for record."""

    @pytest.mark.parametrize("cfg", [SMALL, DEFECT_HEAVY], ids=["small", "defect_heavy"])
    def test_stream_equals_its_log(self, cfg):
        topo = build_topology(cfg)
        behaviors = None
        if cfg is DEFECT_HEAVY:
            behaviors = assign_behaviors(topo, uniform_p=0.1, per_chain={"UC-1": 0.4})
        stream = list(generate_stream(topo, cfg, behaviors))
        result = replay(generate_stream(topo, cfg, behaviors), engine=make_engine(topo))
        assert stream == list(result.ledger.log_records())
        assert [rec[0] for rec in stream].count("adjudicate") == len(result.traces)

    def test_defect_heavy_world_crosses_chains_and_fails_ics(self):
        topo = build_topology(DEFECT_HEAVY)
        behaviors = assign_behaviors(topo, uniform_p=0.1, per_chain={"UC-1": 0.4})
        result = replay(generate_stream(topo, DEFECT_HEAVY, behaviors))
        ledger = result.ledger
        transactions = json.loads(ledger.state_json())["transactions"]
        crossings = sum(1 for t in transactions if t["via_meta"])
        assert crossings > len(transactions) // 3
        failed_kinds = {
            ledger.part_type(ledger.part(h).part_type).kind
            for rec in ledger.log_records() if rec[0] == "adjudicate" for h in rec[3]
        }
        assert failed_kinds == {PartKind.CHIPLET, PartKind.IC}


#: One entity per role on one chain: every partner pool has one member, so a
#: distributor's next pick is itself and that hop is skipped.
ONE_PER_ROLE = SimConfig(
    chiplet_mfrs=1, chiplet_dists=1, ic_mfrs=1, ic_dists=1, si_count=1,
    chains=(("TC-1", True),),
)
#: Two chains with odd role counts, so some same-chain pools have one member.
TWO_CHAINS = SimConfig(
    chiplet_mfrs=2, chiplet_dists=3, ic_mfrs=2, ic_dists=3, si_count=2,
    chains=(("TC-1", True), ("UC-1", False)),
)


def corner_case_streams():
    """(config, stream) for small worlds, every budget from 1 to 30 and seeds 0-1.

    The budgets cut routes at every hop position, chiplet and IC, and a 0.2
    defect rate makes both kinds of adjudication common.
    """
    for world, cross in ((ONE_PER_ROLE, 0.15), (TWO_CHAINS, 0.0), (TWO_CHAINS, 1.0)):
        for hop_range in ((1, 1), (2, 5)):
            for budget in range(1, 31):
                for seed in (0, 1):
                    cfg = dataclasses.replace(
                        world, cross_chain_prob=cross, hop_range=hop_range,
                        n_transactions=budget, rng_seed=seed,
                    )
                    topo = build_topology(cfg)
                    behaviors = assign_behaviors(topo, uniform_p=0.2)
                    yield cfg, list(generate_stream(topo, cfg, behaviors))


class TestCornerCaseStreams:
    #: Recorded before the route legs were drawn as the part ships, when
    #: ``plan_route`` drew each whole route before its first hop.
    DIGEST = "e085f0ff4c217700a775c8e5aa645fca76756a03319c364026502a0e7e0cf72a"

    def test_only_a_verifier_reports(self):
        # A route the budget ends before its verifier leaves its part in
        # flight at a distributor, unreported.
        verifiers = {Role.IC_MANUFACTURER.value, Role.SYSTEM_INTEGRATOR.value}
        for _, stream in corner_case_streams():
            roles = {rec[1]: rec[2] for rec in stream if rec[0] == "entity"}
            assert all(roles[rec[1]] in verifiers for rec in stream if rec[0] == "report")

    def test_one_member_pool_skips_the_hop_to_the_holder(self):
        for cfg, stream in corner_case_streams():
            transfers = [rec for rec in stream if rec[0] == "transfer"]
            assert all(rec[3] != rec[4] for rec in transfers)
            if cfg.chiplet_dists == 1:
                # The only distributor cannot pass the part to itself, so
                # every route is maker, distributor, verifier.
                routes = [rec[5] for rec in transfers]
                assert all(routes.count(ids) <= 2 for ids in routes)

    def test_lone_role_route_goes_straight_to_its_verifier(self, monkeypatch):
        # The only distributor in the world is picked again at every hop left
        # once it holds the part, and each of those picks draws nothing, so
        # the route skips them: picks follow the budget, not hop_range.
        calls = []
        pick = simulator._PartnerPools.pick

        def counted(*args):
            calls.append(args[2])
            assert len(calls) <= 100, "a route walked the picks of a one-member role"
            return pick(*args)

        monkeypatch.setattr(simulator._PartnerPools, "pick", counted)
        cfg = dataclasses.replace(
            ONE_PER_ROLE, hop_range=(10**6, 10**6), markup_pct=0.0, n_transactions=6
        )
        ops = [rec[0] for rec in generate_stream(build_topology(cfg), cfg)]
        # Two chiplets and the IC built from them, each route maker,
        # distributor, verifier: three picks per route, one of them skipped.
        assert ops.count("transfer") == 6
        assert ops.count("devices") == 3
        chiplet = [Role.CHIPLET_DISTRIBUTOR, Role.CHIPLET_DISTRIBUTOR, Role.IC_MANUFACTURER]
        ic = [Role.IC_DISTRIBUTOR, Role.IC_DISTRIBUTOR, Role.SYSTEM_INTEGRATOR]
        assert calls == chiplet * 2 + ic

    def test_streams_match_recorded_digest(self):
        digest = hashlib.sha256()
        for _, stream in corner_case_streams():
            for rec in stream:
                digest.update(repr(rec).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_transactions": 0},
            {"markup_pct": -1.0},
            {"chiplets_per_ic": 0},
            {"hop_range": (0, 2)},
            {"hop_range": (3, 2)},
            {"cross_chain_prob": 1.5},
            {"chains": ()},
            {"chains": (("A", False),)},
            {"chains": (("A", True), ("A", False))},
            # A bool is neither a count nor a number, and a trust flag is a bool.
            {"n_transactions": True},
            {"rng_seed": False},
            {"hop_range": (True, 3)},
            {"markup_pct": True},
            {"cross_chain_prob": True},
            {"chains": (("A", 1),)},
            # A pair, or a list of pairs, of the wrong shape.
            {"chains": 5},
            {"chains": (("A", True, 3),)},
            {"chains": ("AB",)},
            {"hop_range": 2},
            {"hop_range": (1, 2, 3)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs).validate()

    def test_checked_when_built(self):
        with pytest.raises(InvalidConfig, match="n_transactions"):
            SimConfig(n_transactions=0)
        with pytest.raises(InvalidConfig, match="rng_seed"):
            dataclasses.replace(SMALL, rng_seed=-1)

    def test_lists_become_tuples(self):
        cfg = SimConfig(chains=[["A", True], ["B", False]], hop_range=[1, 2])
        assert cfg.chains == (("A", True), ("B", False))
        assert cfg.hop_range == (1, 2)

    def test_hop_span_beyond_one_draw_rejected(self):
        # A hop count is one draw below the span, exact only up to 2**32.
        SimConfig(markup_pct=0.0, hop_range=(1, 2**32)).validate()
        with pytest.raises(InvalidConfig, match="hop_range"):
            SimConfig(markup_pct=0.0, hop_range=(1, 2**32 + 1)).validate()
