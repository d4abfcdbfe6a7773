import math
import random

import pytest

from chipchain.domain import Entity, ExchangeTable, Role
from chipchain.errors import InvalidArgument, UnknownCurrency
from chipchain.reputation import (
    ObserverView,
    ReputationEngine,
    ReputationParams,
    normalized_score,
)

UB, TB = "UB", "TB"
META_ID = "X^UB_TB"


def sellers(trace):
    return [eid for eid, _, _ in trace.entries]


def rates(trace):
    return [rate for _, rate, _ in trace.entries]


def divisors(trace):
    return [div for _, _, div in trace.entries]


def engine_for(view, params, entities):
    """An engine that reads ``entities``, the way ``Ledger.attach`` hands it a registry."""
    engine = ReputationEngine(view, params)
    engine.entities = entities
    return engine


def two_chain_entities():
    entities = {
        "cm1": Entity("cm1", Role.CHIPLET_MANUFACTURER, UB),
        "cd1": Entity("cd1", Role.CHIPLET_DISTRIBUTOR, UB),
        META_ID: Entity(META_ID, Role.META_ENTITY, UB),
        "cd3": Entity("cd3", Role.CHIPLET_DISTRIBUTOR, TB),
        "icm1": Entity("icm1", Role.IC_MANUFACTURER, TB),
        "icd1": Entity("icd1", Role.IC_DISTRIBUTOR, TB),
        "icd2": Entity("icd2", Role.IC_DISTRIBUTOR, TB),
        "si1": Entity("si1", Role.SYSTEM_INTEGRATOR, TB),
    }
    view = ObserverView(TB, frozenset({TB}))
    return entities, view


def boundary_crossing_path():
    """A chiplet's joined provenance: untrusted origin, cross-chain hop, trusted tail."""
    return [
        ("cm1", "cd1", 100.0, "STD"),
        ("cd1", META_ID, 110.0, "STD"),
        (META_ID, "cd3", 110.0, "STD"),
        ("cd3", "icm1", 121.0, "STD"),
        ("icm1", "icd1", 400.0, "STD"),
        ("icd1", "icd2", 440.0, "STD"),
        ("icd2", "si1", 484.0, "STD"),
    ]


class TestEdgeDiscount:
    """The discount of an edge, read off the rates of the sellers on either side of it."""

    def setup_method(self):
        self.entities, self.view = two_chain_entities()
        self.params = ReputationParams(decrease_rate=1.0, trusted_discount=2.0)

    def discount(self, seller):
        path = [(seller, "icd1", 1.0, "STD"), ("icd1", "si1", 1.0, "STD")]
        engine = engine_for(self.view, self.params, self.entities)
        first, second = rates(engine.lifecycle_failed([], path, "p"))
        return first / second

    def test_untrusted_seller(self):
        assert self.discount("cd1") == 1.0

    def test_meta_entity_seller(self):
        # The cross-chain hop never consumes a discount step.
        assert self.discount(META_ID) == 1.0

    def test_trusted_internal_seller(self):
        assert self.discount("icm1") == 2.0


class TestPenaltyRates:
    def setup_method(self):
        self.entities, self.view = two_chain_entities()

    def trace(self, path, params):
        return engine_for(self.view, params, self.entities).lifecycle_failed(path, path, "p")

    def test_boundary_crossing_path(self):
        m, d = 1.0, 2.0
        params = ReputationParams(decrease_rate=m, trusted_discount=d)
        trace = self.trace(boundary_crossing_path(), params)
        assert trace.part == "p"
        assert sellers(trace) == ["cm1", "cd1", META_ID, "cd3", "icm1", "icd1", "icd2"]
        assert rates(trace) == [m, m, m, m, m / d, m / d**2, m / d**3]

    def test_single_hop_path(self):
        params = ReputationParams(decrease_rate=0.25)
        trace = self.trace([("cm1", "icm1", 1.0, "STD")], params)
        assert rates(trace) == [0.25]

    def test_all_trusted_path(self):
        m, d = 2.0, 2.0
        params = ReputationParams(decrease_rate=m, trusted_discount=d)
        path = [
            ("icm1", "icd1", 10.0, "STD"),
            ("icd1", "icd2", 11.0, "STD"),
            ("icd2", "si1", 12.0, "STD"),
        ]
        trace = self.trace(path, params)
        assert rates(trace) == [m, m / d, m / d**2]

    def test_empty_path_rejected(self):
        params = ReputationParams()
        with pytest.raises(InvalidArgument, match="penalty path must be non-empty"):
            self.trace([], params)

    def test_rates_non_increasing(self):
        params = ReputationParams(decrease_rate=3.0, trusted_discount=4.0)
        trace = self.trace(boundary_crossing_path(), params)
        seq = rates(trace)
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_untrusted_prefix_penalized_equally(self):
        # Everything up to and including the first trusted-internal acquisition
        # gets the full base rate.
        params = ReputationParams(decrease_rate=1.5, trusted_discount=3.0)
        trace = self.trace(boundary_crossing_path(), params)
        assert rates(trace)[:4] == [1.5, 1.5, 1.5, 1.5]

    def test_divisor_forms(self):
        m, d = 2.0, 2.0
        raw = ReputationParams(decrease_rate=m, trusted_discount=d, penalty_form="raw")
        rate = ReputationParams(decrease_rate=m, trusted_discount=d, penalty_form="rate")
        path = boundary_crossing_path()
        raw_divs = divisors(self.trace(path, raw))
        rate_divs = divisors(self.trace(path, rate))
        assert raw_divs == [2.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.25]
        assert rate_divs == [3.0, 3.0, 3.0, 3.0, 2.0, 1.5, 1.25]


class TestRewards:
    def setup_method(self):
        self.entities, self.view = two_chain_entities()

    def engine(self, **kwargs):
        return engine_for(self.view, ReputationParams(**kwargs), self.entities)

    def test_each_seller_gains_sale_amount(self):
        engine = self.engine()
        engine.lifecycle_passed([("cm1", "cd1", 10.0, "STD"), ("cd1", "cd3", 12.0, "STD")])
        assert engine.reputation("cm1").r == 10.0
        assert engine.reputation("cd1").r == 12.0
        assert engine.reputation("cd3").r == 0.0  # buyers gain nothing

    def test_empty_path_no_change(self):
        engine = self.engine()
        engine.lifecycle_passed([])
        assert engine.known_entities() == []

    def test_meta_entity_rewarded_like_any_seller(self):
        engine = self.engine()
        engine.lifecycle_passed([(META_ID, "cd3", 12.0, "STD")])
        assert engine.reputation(META_ID).r == 12.0

    def test_converts_with_the_exchange_table(self):
        engine = self.engine()
        engine.exchange = ExchangeTable({"EUR": 2.0})
        engine.lifecycle_passed([("cm1", "cd1", 10.0, "EUR"), ("cd1", "cd3", 3.0, "STD")])
        assert engine.reputation("cm1").r == 20.0
        assert engine.reputation("cd1").r == 3.0
        with pytest.raises(UnknownCurrency, match="no exchange rate for currency 'JPY'"):
            engine.lifecycle_passed([("cm1", "cd1", 1.0, "JPY")])
        assert engine.reputation("cm1").r == 20.0

    def test_reward_linearity(self):
        one = self.engine()
        one.lifecycle_passed([("cm1", "cd1", 8.0, "STD")])
        split = self.engine()
        split.lifecycle_passed([("cm1", "cd1", 4.0, "STD")])
        split.lifecycle_passed([("cm1", "cd1", 4.0, "STD")])
        assert one.reputation("cm1").r == pytest.approx(split.reputation("cm1").r)
        assert one.reputation("cm1").r_ideal == pytest.approx(split.reputation("cm1").r_ideal)

    def test_never_rewarded_at_transfer_time(self):
        # Rewards arrive only via lifecycle notifications, which the ledger
        # sends when verification completes, never on transfer.
        engine = self.engine()
        assert engine.reputation("cm1").r == 0.0


class TestPenalties:
    def setup_method(self):
        self.entities, self.view = two_chain_entities()

    def engine(self, **kwargs):
        return engine_for(self.view, ReputationParams(**kwargs), self.entities)

    def test_manufacturer_only_small_rate(self):
        engine = self.engine(decrease_rate=0.01)
        path = [("cm1", "icm1", 50.0, "STD")]
        engine.lifecycle_passed(path)
        engine.lifecycle_failed(path, path, "p")
        assert engine.reputation("cm1").r == pytest.approx(50.0 / 1.01)
        assert engine.reputation("cm1").r_ideal == pytest.approx(100.0)

    def test_twice_appearing_entity_compounds(self):
        # Hand-computed: A sells at positions 0 and 2 of an all-trusted path,
        # so it is divided once per appearance.
        m, d = 1.0, 2.0
        engine = self.engine(decrease_rate=m, trusted_discount=d)
        path = [
            ("icm1", "icd1", 10.0, "STD"),
            ("icd1", "icm1", 12.0, "STD"),
            ("icm1", "icd2", 14.0, "STD"),
        ]
        engine.lifecycle_passed(path)
        trace = engine.lifecycle_failed(path, path, "p")
        assert sellers(trace) == ["icm1", "icd1", "icm1"]
        expected_r = (10.0 + 14.0) / (1 + m) / (1 + m / d**2)
        assert engine.reputation("icm1").r == pytest.approx(expected_r)
        assert engine.reputation("icm1").r_ideal == pytest.approx(2 * (10.0 + 14.0))

    def test_divisors_never_below_one_in_rate_form(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.uniform(1e-4, 5.0)
            d = rng.uniform(1.0, 5.0)
            engine = self.engine(decrease_rate=m, trusted_discount=d)
            path = boundary_crossing_path()
            trace = engine.lifecycle_failed(path, path, "p")
            assert all(div >= 1.0 for div in divisors(trace))

    def test_penalization_never_increases_r(self):
        engine = self.engine(decrease_rate=0.5, trusted_discount=3.0)
        path = boundary_crossing_path()
        engine.lifecycle_passed(path)
        before = {eid: engine.reputation(eid).r for eid in engine.known_entities()}
        engine.lifecycle_failed(path, path, "p")
        for eid, prev in before.items():
            assert engine.reputation(eid).r <= prev

    def test_separate_penalty_path(self):
        # Attribution over a joined path divides its sellers, while only the
        # failed part's own sellers accrue ideal reputation.
        engine = self.engine(decrease_rate=1.0)
        chiplet_path = [("cm1", "icm1", 100.0, "STD")]
        ic_path = [("icm1", "icd1", 200.0, "STD")]
        engine.lifecycle_failed(ic_path, chiplet_path + ic_path, "p")
        assert engine.reputation("cm1").r_ideal == 0.0
        assert engine.reputation("icm1").r_ideal == 200.0
        # cm1 was still penalized (r stays 0 here, but it is in the trace).
        trace = engine.lifecycle_failed(ic_path, chiplet_path + ic_path, "p")
        assert sellers(trace)[0] == "cm1"


class TestNormalizedScore:
    def test_zero_ideal_scores_one(self):
        from chipchain.reputation import EntityReputation

        assert normalized_score(EntityReputation(0.0, 0.0)) == 1.0

    def test_ratio(self):
        from chipchain.reputation import EntityReputation

        assert normalized_score(EntityReputation(50.0, 100.0)) == 0.5

    def test_defect_free_entity_scores_exactly_one(self):
        entities, view = two_chain_entities()
        engine = engine_for(view, ReputationParams(), entities)
        for _ in range(10):
            engine.lifecycle_passed([("cm1", "cd1", 3.5, "STD")])
        assert engine.normalized("cm1") == 1.0


class TestChainReputation:
    def setup_method(self):
        self.entities, self.view = two_chain_entities()
        self.engine = engine_for(self.view, ReputationParams(decrease_rate=1.0), self.entities)

    def test_passing_only_scores_one(self):
        self.engine.lifecycle_passed([(META_ID, "cd3", 10.0, "STD")])
        absolute, norm = self.engine.chain_reputation(META_ID)
        assert absolute == 10.0
        assert norm == 1.0

    def test_defective_crossing_drops_below_one(self):
        path = [("cd1", META_ID, 10.0, "STD"), (META_ID, "cd3", 10.0, "STD")]
        self.engine.lifecycle_passed(path)
        self.engine.lifecycle_failed(path, path, "p")
        _, norm = self.engine.chain_reputation(META_ID)
        assert norm < 1.0

    def test_regular_entity_rejected(self):
        with pytest.raises(InvalidArgument):
            self.engine.chain_reputation("cd1")


class TestObserverRelativity:
    def test_two_views_disagree(self):
        entities, _ = two_chain_entities()
        params = ReputationParams(decrease_rate=1.0, trusted_discount=2.0)
        view_tb = ObserverView(TB, frozenset({TB}))
        view_both = ObserverView(TB, frozenset({TB, UB}))
        path = boundary_crossing_path()
        e1 = engine_for(view_tb, params, entities)
        e2 = engine_for(view_both, params, entities)
        for engine in (e1, e2):
            engine.lifecycle_passed(path)
            engine.lifecycle_failed(path, path, "p")
        # Trusting UB discounts the later untrusted-prefix sellers, so scores differ.
        assert e1.reputation("cd3").r != e2.reputation("cd3").r

    def test_observer_chain_must_be_trusted(self):
        with pytest.raises(InvalidArgument):
            ObserverView(TB, frozenset({UB}))


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidArgument):
            ReputationParams(decrease_rate=0.0)
        with pytest.raises(InvalidArgument):
            ReputationParams(trusted_discount=0.5)
        with pytest.raises(InvalidArgument):
            ReputationParams(penalty_form="other")
        with pytest.raises(InvalidArgument):
            ReputationParams(decrease_rate=True)
        with pytest.raises(InvalidArgument):
            ReputationParams(trusted_discount=True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["decrease_rate", "trusted_discount"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidArgument, match="finite"):
            ReputationParams(**{field: value})


class TestRandomizedInvariants:
    def test_score_bounds_and_order(self):
        # Random reward/penalty interleavings keep 0 <= r <= r_ideal and the
        # normalized score in [0, 1] under the rate form.
        entities, view = two_chain_entities()
        rng = random.Random(123)
        sellers = [e for e in entities if entities[e].role is not Role.SYSTEM_INTEGRATOR]
        for trial in range(25):
            params = ReputationParams(
                decrease_rate=rng.uniform(1e-3, 4.0),
                trusted_discount=rng.uniform(1.0, 4.0),
            )
            engine = engine_for(view, params, entities)
            for _ in range(40):
                k = rng.randint(1, 4)
                hops = rng.sample(sellers, k) + ["si1"]
                path = [
                    (hops[i], hops[i + 1], rng.uniform(0.5, 200.0), "STD")
                    for i in range(len(hops) - 1)
                ]
                engine.lifecycle_passed(path)
                if rng.random() < 0.4:
                    engine.lifecycle_failed(path, path, "p")
            for eid in engine.known_entities():
                rep = engine.reputation(eid)
                assert 0.0 <= rep.r <= rep.r_ideal + 1e-12
                assert 0.0 <= normalized_score(rep) <= 1.0 + 1e-12
