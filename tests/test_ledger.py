import json
import math

import pytest

from chipchain.domain import STANDARD_TABLE, Entity, Money, Role, hash_device_id
from chipchain.errors import (
    AlreadyExists,
    ChipchainError,
    Conflict,
    CountMismatch,
    InvalidArgument,
    InvalidState,
    NotFound,
    NotOwner,
    PermissionDenied,
    UnknownCurrency,
)
from chipchain.harness import oracle_max_deviation
from chipchain.ledger import (
    Ledger,
    PartStatus,
    _encode_record,
    _LINE,
    load_log_records,
)
from chipchain.reputation import ObserverView, ReputationEngine, ReputationParams
from chipchain.simulator import replay


def hid(label: str) -> str:
    return hash_device_id(label)


def small_world() -> Ledger:
    """One untrusted and one trusted chain with one entity per role."""
    ledger = Ledger()
    ledger.add_chain("UB")
    ledger.add_chain("TB")
    for eid, role, chain in [
        ("cm1", Role.CHIPLET_MANUFACTURER, "UB"),
        ("cd1", Role.CHIPLET_DISTRIBUTOR, "UB"),
        ("cd3", Role.CHIPLET_DISTRIBUTOR, "TB"),
        ("icm1", Role.IC_MANUFACTURER, "TB"),
        ("icd1", Role.IC_DISTRIBUTOR, "TB"),
        ("icd2", Role.IC_DISTRIBUTOR, "TB"),
        ("si1", Role.SYSTEM_INTEGRATOR, "TB"),
        ("eu1", Role.END_USER, "TB"),
        ("ta-ub", Role.TRUSTED_AUTHORITY, "UB"),
        ("ta-tb", Role.TRUSTED_AUTHORITY, "TB"),
    ]:
        ledger.add_entity(Entity(eid, role, chain))
    return ledger


def price(amount: float, n: int = 1) -> list[Money]:
    return [Money(amount)] * n


def owned(ledger, owner, part_type):
    return sum(1 for p in ledger.parts.values() if p.owner == owner and p.part_type == part_type)


def ship(ledger, src, dst, type_name, ids, amount, kind="chiplet"):
    transfer = ledger.transfer_chiplets if kind == "chiplet" else ledger.transfer_ics
    transfer(src, type_name, len(ids), ids, price(amount, len(ids)), dst)
    ledger.confirm_transfer(dst, type_name, len(ids), ids)


def transaction_rows(ledger) -> list[dict]:
    """The ``transactions`` section of the ledger's state, one row per transfer."""
    return json.loads(ledger.state_json())["transactions"]


def report_row(ledger, report_id: str) -> dict:
    """The ``reports`` row of ``report_id`` in the ledger's state."""
    (row,) = [r for r in json.loads(ledger.state_json())["reports"] if r["id"] == report_id]
    return row


class TestTypeRegistration:
    def test_chiplet_type_happy_path(self):
        ledger = small_world()
        assert ledger.register_chiplet_type("cm1", "hbm-phy-v1") == "hbm-phy-v1"

    def test_distributor_cannot_register_types(self):
        ledger = small_world()
        with pytest.raises(PermissionDenied):
            ledger.register_chiplet_type("cd1", "x")
        with pytest.raises(PermissionDenied):
            ledger.register_ic_type("icd1", "x")

    def test_duplicate_name(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "hbm-phy-v1")
        with pytest.raises(AlreadyExists):
            ledger.register_chiplet_type("cm1", "hbm-phy-v1")

    def test_ic_type_happy_path(self):
        ledger = small_world()
        assert ledger.register_ic_type("icm1", "snapdragon-800") == "snapdragon-800"

    def test_chiplet_maker_cannot_register_ic_type(self):
        ledger = small_world()
        with pytest.raises(PermissionDenied):
            ledger.register_ic_type("cm1", "x")

    def test_duplicate_across_kinds(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "shared-name")
        with pytest.raises(AlreadyExists):
            ledger.register_ic_type("icm1", "shared-name")

    @pytest.mark.parametrize("name", [3, None, b"t", ("t",)])
    def test_type_name_must_be_a_string(self, name, tmp_path):
        # A non-string name would be logged as a JSON value the decoder refuses.
        ledger = small_world()
        length = ledger.log_length()
        with pytest.raises(InvalidArgument, match="type name must be a string"):
            ledger.register_chiplet_type("cm1", name)
        assert ledger.log_length() == length
        ledger.save_log(tmp_path / "ledger.ndjson")
        assert len(load_log_records(tmp_path / "ledger.ndjson")) == length


class TestDeviceRegistration:
    def setup_method(self):
        self.ledger = small_world()
        self.ledger.register_chiplet_type("cm1", "T")

    def test_happy_path(self):
        ids = {hid("a"), hid("b"), hid("c")}
        assert self.ledger.register_devices("cm1", "T", ids) == 3
        for h in ids:
            part = self.ledger.part(h)
            assert part.owner == "cm1"
            assert part.status is PartStatus.REGISTERED

    def test_duplicate_id(self):
        self.ledger.register_devices("cm1", "T", [hid("a")])
        with pytest.raises(AlreadyExists):
            self.ledger.register_devices("cm1", "T", [hid("a")])

    def test_non_registrant_denied(self):
        with pytest.raises(PermissionDenied):
            self.ledger.register_devices("cd1", "T", [hid("z")])

    def test_malformed_id_rejected(self):
        with pytest.raises(InvalidArgument):
            self.ledger.register_devices("cm1", "T", ["not-a-digest"])


class TestTwoPhaseTransfer:
    def setup_method(self):
        self.ledger = small_world()
        self.ledger.register_chiplet_type("cm1", "T")
        self.ids = [hid(f"d{i}") for i in range(5)]
        self.ledger.register_devices("cm1", "T", self.ids)

    def test_pending_does_not_move_ownership(self):
        subset = sorted(self.ids)[:3]
        assert self.ledger.transfer_chiplets("cm1", "T", 3, subset, price(10, 3), "cd1") is None
        assert transaction_rows(self.ledger)[-1]["status"] == "pending"
        for h in subset:
            assert self.ledger.part(h).owner == "cm1"
            assert self.ledger.part(h).status is PartStatus.IN_TRANSIT

    def test_confirmation_moves_exactly_the_batch(self):
        subset = sorted(self.ids)[:3]
        self.ledger.transfer_chiplets("cm1", "T", 3, subset, price(10, 3), "cd1")
        assert self.ledger.confirm_transfer("cd1", "T", 3, subset) is None
        assert transaction_rows(self.ledger)[-1]["status"] == "confirmed"
        assert owned(self.ledger, "cd1", "T") == 3
        assert owned(self.ledger, "cm1", "T") == 2

    def test_not_owner(self):
        with pytest.raises(NotOwner):
            self.ledger.transfer_chiplets("cd1", "T", 1, [self.ids[0]], price(10), "cd3")

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            self.ledger.transfer_chiplets(
                "cm1", "T", 2, self.ids[:2], price(10, 3), "cd1"
            )

    def test_already_in_transit(self):
        self.ledger.transfer_chiplets("cm1", "T", 1, [self.ids[0]], price(10), "cd1")
        with pytest.raises(Conflict):
            self.ledger.transfer_chiplets("cm1", "T", 1, [self.ids[0]], price(10), "cd3")

    def test_self_transfer_rejected(self):
        with pytest.raises(InvalidArgument):
            self.ledger.transfer_chiplets("cm1", "T", 1, [self.ids[0]], price(10), "cm1")

    def test_confirm_by_non_destination(self):
        self.ledger.transfer_chiplets("cm1", "T", 1, [self.ids[0]], price(10), "cd1")
        with pytest.raises(PermissionDenied):
            self.ledger.confirm_transfer("cd3", "T", 1, [self.ids[0]])

    def test_confirm_twice(self):
        self.ledger.transfer_chiplets("cm1", "T", 1, [self.ids[0]], price(10), "cd1")
        self.ledger.confirm_transfer("cd1", "T", 1, [self.ids[0]])
        with pytest.raises(NotFound):
            self.ledger.confirm_transfer("cd1", "T", 1, [self.ids[0]])

    def test_confirm_without_transfer(self):
        with pytest.raises(NotFound):
            self.ledger.confirm_transfer("cd1", "T", 1, [self.ids[0]])

    def test_reject_returns_parts(self):
        self.ledger.transfer_chiplets("cm1", "T", 2, self.ids[:2], price(10, 2), "cd1")
        assert self.ledger.reject_transfer("cd1", "T", self.ids[:2]) is None
        assert transaction_rows(self.ledger)[-1]["status"] == "rejected"
        for h in self.ids[:2]:
            assert self.ledger.part(h).owner == "cm1"
            assert self.ledger.part(h).status is PartStatus.OWNED

    def test_provenance_unchanged_until_confirmation(self):
        subset = [self.ids[0]]
        before = self.ledger.provenance(self.ids[0])
        self.ledger.transfer_chiplets("cm1", "T", 1, subset, price(10), "cd1")
        assert self.ledger.provenance(self.ids[0]) == before

    def test_mixed_currencies_rejected(self):
        with pytest.raises(InvalidArgument):
            self.ledger.transfer_chiplets(
                "cm1", "T", 2, self.ids[:2], [Money(10, "STD"), Money(10, "EUR")], "cd1"
            )


class TestTransferICs:
    def setup_method(self):
        self.ledger = small_world()
        self.ledger.register_ic_type("icm1", "IC-T")
        self.ledger.register_chiplet_type("cm1", "CH-T")
        self.ic_ids = [hid(f"ic{i}") for i in range(10)]
        self.ledger.register_devices("icm1", "IC-T", self.ic_ids)

    def test_happy_path(self):
        assert self.ledger.transfer_ics(
            "icm1", "IC-T", 10, self.ic_ids, price(500, 10), "icd1"
        ) is None
        (row,) = transaction_rows(self.ledger)
        assert row["status"] == "pending"
        assert len(row["ids"]) == 10

    def test_kind_gate(self):
        self.ledger.register_devices("cm1", "CH-T", [hid("c1")])
        # Role passes but the named type is of the other kind.
        with pytest.raises(InvalidArgument):
            self.ledger.transfer_ics("icm1", "CH-T", 1, [hid("c1")], price(10), "icd1")
        with pytest.raises(InvalidArgument):
            self.ledger.transfer_chiplets(
                "cm1", "IC-T", 1, [self.ic_ids[0]], price(10), "cd1"
            )

    def test_role_gate(self):
        with pytest.raises(PermissionDenied):
            # A chiplet distributor may not move ICs even if it owned them.
            self.ledger.transfer_ics("cd1", "IC-T", 1, [self.ic_ids[0]], price(10), "icd1")


class TestVerify:
    def setup_method(self):
        self.ledger = small_world()
        self.ledger.register_chiplet_type("cm1", "T")
        self.ledger.register_devices("cm1", "T", [hid("known")])

    def test_found(self):
        res = self.ledger.verify("si1", hid("known"))
        assert res.found and res.owner == "cm1" and res.status is PartStatus.REGISTERED

    def test_unknown_raises_flag(self):
        res = self.ledger.verify("si1", hid("ghost"))
        assert not res.found
        assert self.ledger.suspicious_events == [("si1", hid("ghost"))]

    def test_effect_free(self):
        state_before = self.ledger.state_json()
        log_before = self.ledger.log_length()
        for _ in range(3):
            self.ledger.verify("si1", hid("known"))
            self.ledger.verify("si1", hid("ghost"))
        assert self.ledger.log_length() == log_before
        assert self.ledger.state_json() == state_before

    def test_repeated_identical_results(self):
        first = self.ledger.verify("si1", hid("known"))
        second = self.ledger.verify("si1", hid("known"))
        assert first == second


class TestConsume:
    def setup_method(self):
        self.ledger = small_world()
        self.ledger.register_chiplet_type("cm1", "CH")
        self.ledger.register_ic_type("icm1", "IC")
        self.chiplets = sorted(hid(f"c{i}") for i in range(2))
        self.ledger.register_devices("cm1", "CH", self.chiplets)
        ship(self.ledger, "cm1", "cd3", "CH", self.chiplets, 10)
        ship(self.ledger, "cd3", "icm1", "CH", self.chiplets, 11)
        self.ic = hid("the-ic")
        self.ledger.register_devices("icm1", "IC", [self.ic])

    def test_happy_path(self):
        self.ledger.consume_chiplets("icm1", self.chiplets, self.ic)
        for h in self.chiplets:
            part = self.ledger.part(h)
            assert part.status is PartStatus.CONSUMED
            assert part.consumed_into == self.ic

    def test_double_consume(self):
        self.ledger.consume_chiplets("icm1", self.chiplets, self.ic)
        with pytest.raises(Conflict):
            self.ledger.consume_chiplets("icm1", self.chiplets, self.ic)

    def test_role_gate(self):
        with pytest.raises(PermissionDenied):
            self.ledger.consume_chiplets("cd1", self.chiplets, self.ic)

    def test_must_own_chiplets(self):
        other = hid("foreign")
        self.ledger.register_devices("cm1", "CH", [other])
        with pytest.raises(NotOwner):
            self.ledger.consume_chiplets("icm1", [other], self.ic)


def fig_path_world():
    """Drive the boundary-crossing example end to end through ledger calls.

    A chiplet goes cm1 -> cd1 -> (cross-chain) cd3 -> icm1, is consumed into
    an IC that goes icm1 -> icd1 -> icd2 -> si1, and the IC fails at si1 with
    the defect traced back to the chiplet.
    """
    ledger = small_world()
    view = ObserverView("TB", frozenset({"TB"}))
    ledger.register_chiplet_type("cm1", "CH")
    ledger.register_ic_type("icm1", "IC")
    chiplet, ic = hid("chiplet-1"), hid("ic-1")
    ledger.register_devices("cm1", "CH", [chiplet])
    ship(ledger, "cm1", "cd1", "CH", [chiplet], 100.0)
    ship(ledger, "cd1", "cd3", "CH", [chiplet], 110.0)  # crosses UB -> TB
    ship(ledger, "cd3", "icm1", "CH", [chiplet], 121.0)
    ledger.register_devices("icm1", "IC", [ic])
    ledger.consume_chiplets("icm1", [chiplet], ic)
    ship(ledger, "icm1", "icd1", "IC", [ic], 400.0, kind="ic")
    ship(ledger, "icd1", "icd2", "IC", [ic], 440.0, kind="ic")
    ship(ledger, "icd2", "si1", "IC", [ic], 484.0, kind="ic")
    return ledger, view, chiplet, ic


class TestCrossChainSplit:
    def test_confirmed_cross_chain_transfer_is_split(self):
        ledger, _, chiplet, _ = fig_path_world()
        edges = ledger.provenance(chiplet)
        assert edges == [
            ("cm1", "cd1", 100.0),
            ("cd1", "X^UB_TB", 110.0),
            ("X^UB_TB", "cd3", 110.0),
            ("cd3", "icm1", 121.0),
        ]
        meta = ledger.entity("X^UB_TB")
        assert meta.role is Role.META_ENTITY
        assert meta.chain == "UB"

    def test_split_halves_share_amount(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        h = hid("x")
        ledger.register_devices("cm1", "CH", [h])
        ledger.transfer_chiplets("cm1", "CH", 1, [h], price(42), "cd3")
        ledger.confirm_transfer("cd3", "CH", 1, [h])
        assert transaction_rows(ledger)[-1]["via_meta"] == "X^UB_TB"
        assert ledger.provenance(h) == [("cm1", "X^UB_TB", 42.0), ("X^UB_TB", "cd3", 42.0)]

    def test_meta_entity_reused(self):
        ledger, _, _, _ = fig_path_world()
        ledger.register_devices("cm1", "CH", [hid("second")])
        ship(ledger, "cm1", "cd1", "CH", [hid("second")], 5.0)
        ship(ledger, "cd1", "cd3", "CH", [hid("second")], 6.0)
        metas = [e for e in ledger.entities.values() if e.role is Role.META_ENTITY]
        assert len(metas) == 1

    def test_same_chain_transfer_has_no_meta(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        h = hid("y")
        ledger.register_devices("cm1", "CH", [h])
        ship(ledger, "cm1", "cd1", "CH", [h], 1.0)
        assert transaction_rows(ledger)[-1]["via_meta"] is None
        assert ledger.provenance(h) == [("cm1", "cd1", 1.0)]
        assert not any(e.role is Role.META_ENTITY for e in ledger.entities.values())

    def test_opposite_directions_get_distinct_metas(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        a, b = hid("a"), hid("b")
        ledger.register_devices("cm1", "CH", [a, b])
        ship(ledger, "cm1", "cd3", "CH", [a], 1.0)  # UB -> TB
        ship(ledger, "cd3", "cd1", "CH", [a], 2.0)  # TB -> UB
        metas = sorted(e.id for e in ledger.entities.values() if e.role is Role.META_ENTITY)
        assert metas == ["X^TB_UB", "X^UB_TB"]


class TestReportAndAdjudication:
    def setup_method(self):
        self.ledger = small_world()
        self.view = ObserverView("TB", frozenset({"TB"}))
        self.engine = self.ledger.attach(
            ReputationEngine(self.view, ReputationParams(decrease_rate=1.0))
        )
        self.ledger.register_chiplet_type("cm1", "CH")
        self.chiplets = sorted(hid(f"r{i}") for i in range(3))
        self.ledger.register_devices("cm1", "CH", self.chiplets)
        ship(self.ledger, "cm1", "cd3", "CH", self.chiplets, 10.0)
        ship(self.ledger, "cd3", "icm1", "CH", self.chiplets, 11.0)

    def test_pass_report_rewards_path_sellers(self):
        self.ledger.report("icm1", self.chiplets, 0)
        assert self.engine.reputation("cm1").r == pytest.approx(30.0)
        assert self.engine.reputation("cd3").r == pytest.approx(33.0)
        for h in self.chiplets:
            assert self.ledger.part(h).status is PartStatus.VERIFIED_OK

    def test_verified_part_cannot_be_reported_again(self):
        # A second pass report would reward every seller on the path again.
        self.ledger.report("icm1", self.chiplets, 0)
        length, state = self.ledger.log_length(), self.ledger.state_json()
        for result in (0, 1):
            with pytest.raises(Conflict, match="verified_ok, not reportable"):
                self.ledger.report("icm1", self.chiplets[:1], result)
        assert self.ledger.log_length() == length
        assert self.ledger.state_json() == state
        assert self.engine.reputation("cm1").r == pytest.approx(30.0)
        assert self.engine.reputation("cd3").r == pytest.approx(33.0)

    def test_fail_report_defers_reputation(self):
        self.ledger.report("icm1", self.chiplets, 1)
        assert self.engine.reputation("cm1").r == 0.0
        assert self.engine.reputation("cm1").r_ideal == 0.0

    def test_role_kind_matrix(self):
        with pytest.raises(PermissionDenied):
            self.ledger.report("eu1", self.chiplets, 0)  # end user, chiplet ids

    @pytest.mark.parametrize("result", [2, -1, False, True, 0.0, "0"])
    def test_result_must_be_integer_zero_or_one(self, result):
        length = self.ledger.log_length()
        with pytest.raises(InvalidArgument, match="result must be 0"):
            self.ledger.report("icm1", self.chiplets, result)
        assert self.ledger.log_length() == length

    def test_adjudication_with_empty_outcome_is_recorded(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        result = self.ledger.adjudicate("ta-tb", rid, [])
        assert result.defective == ()
        assert result.traces == []
        assert report_row(self.ledger, rid)["ta_outcome"] == []

    def test_adjudication_penalizes_each_defective_part(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        result = self.ledger.adjudicate("ta-tb", rid, [self.chiplets[0]])
        assert len(result.traces) == 1
        # cm1 -> cd3 crossed UB into TB, so the meta hop sits on the path.
        assert [eid for eid, _, _ in result.traces[0].entries] == ["cm1", "X^UB_TB", "cd3"]
        assert self.ledger.part(self.chiplets[0]).status is PartStatus.DEFECTIVE
        # Failed lifecycle still accrues ideal reputation for its own sellers.
        assert self.engine.reputation("cm1").r_ideal == pytest.approx(10.0)

    def test_second_adjudication_conflicts(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        self.ledger.adjudicate("ta-tb", rid, [])
        with pytest.raises(Conflict):
            self.ledger.adjudicate("ta-tb", rid, [self.chiplets[0]])

    def test_wrong_chain_ta_denied(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        with pytest.raises(PermissionDenied):
            self.ledger.adjudicate("ta-ub", rid, [])

    def test_non_ta_denied(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        with pytest.raises(PermissionDenied):
            self.ledger.adjudicate("si1", rid, [])

    def test_pass_report_cannot_be_adjudicated(self):
        rid = self.ledger.report("icm1", self.chiplets, 0)
        with pytest.raises(InvalidState):
            self.ledger.adjudicate("ta-tb", rid, [])

    def test_defective_must_be_subset(self):
        rid = self.ledger.report("icm1", self.chiplets, 1)
        with pytest.raises(InvalidArgument):
            self.ledger.adjudicate("ta-tb", rid, [hid("other")])


class TestTrustedCrossing:
    """A sale between two trusted chains: the meta hop never uses up a discount step."""

    M, D = 1.0, 2.0

    def setup_method(self):
        self.ledger = Ledger()
        for chain in ("T1", "T2"):
            self.ledger.add_chain(chain)
        for eid, role, chain in [
            ("cm", Role.CHIPLET_MANUFACTURER, "T1"),
            ("cd", Role.CHIPLET_DISTRIBUTOR, "T2"),
            ("icm", Role.IC_MANUFACTURER, "T2"),
            ("ta", Role.TRUSTED_AUTHORITY, "T2"),
        ]:
            self.ledger.add_entity(Entity(eid, role, chain))
        view = ObserverView("T1", frozenset({"T1", "T2"}))
        params = ReputationParams(decrease_rate=self.M, trusted_discount=self.D)
        self.engine = self.ledger.attach(ReputationEngine(view, params))
        self.ledger.register_chiplet_type("cm", "CH")
        self.part = hid("crossing")
        self.ledger.register_devices("cm", "CH", [self.part])
        ship(self.ledger, "cm", "cd", "CH", [self.part], 8.0)  # crosses T1 -> T2
        ship(self.ledger, "cd", "icm", "CH", [self.part], 10.0)

    def test_path_runs_through_the_meta_entity(self):
        assert self.ledger.provenance(self.part) == [
            ("cm", "X^T1_T2", 8.0), ("X^T1_T2", "cd", 8.0), ("cd", "icm", 10.0)
        ]

    def test_penalty_rates_are_exact(self):
        rid = self.ledger.report("icm", [self.part], 1)
        (trace,) = self.ledger.adjudicate("ta", rid, [self.part]).traces
        m, d = self.M, self.D
        # cm's trusted sale discounts the meta hop once; the meta hop itself
        # passes the rate on to the next seller unchanged.
        assert trace.entries == [
            ("cm", m, 1 + m), ("X^T1_T2", m / d, 1 + m / d), ("cd", m / d, 1 + m / d)
        ]
        assert self.engine.reputation("cm").r == 0.0
        assert self.engine.reputation("X^T1_T2").r == 0.0
        assert self.engine.reputation("cd").r == 0.0
        assert [self.engine.reputation(e).r_ideal for e in ("cm", "X^T1_T2", "cd")] == [
            8.0, 8.0, 10.0
        ]

    def test_next_seller_after_a_pass_keeps_the_exact_rate(self):
        # Rewards first, so that each division shows in r.
        self.ledger.report("icm", [self.part], 0)
        other = hid("crossing-2")
        self.ledger.register_devices("cm", "CH", [other])
        ship(self.ledger, "cm", "cd", "CH", [other], 8.0)
        ship(self.ledger, "cd", "icm", "CH", [other], 10.0)
        rid = self.ledger.report("icm", [other], 1)
        self.ledger.adjudicate("ta", rid, [other])
        m, d = self.M, self.D
        assert self.engine.reputation("cm").r == 8.0 / (1 + m)
        assert self.engine.reputation("X^T1_T2").r == 8.0 / (1 + m / d)
        assert self.engine.reputation("cd").r == 10.0 / (1 + m / d)


class TestJoinedAttribution:
    def test_defect_traced_to_consumed_chiplet_penalizes_joined_path(self):
        ledger, view, chiplet, ic = fig_path_world()
        engine = ledger.attach(
            ReputationEngine(view, ReputationParams(decrease_rate=1.0, trusted_discount=2.0))
        )
        rid = ledger.report("si1", [ic], 1)
        result = ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplet})
        trace = result.traces[0]
        sellers = [eid for eid, _, _ in trace.entries]
        assert sellers == ["cm1", "cd1", "X^UB_TB", "cd3", "icm1", "icd1", "icd2"]
        assert [rate for _, rate, _ in trace.entries] == [1.0, 1.0, 1.0, 1.0, 0.5, 0.25, 0.125]

    def test_origin_must_be_consumed_into_the_part(self):
        ledger, _, chiplet, ic = fig_path_world()
        other = hid("unrelated")
        ledger.register_devices("cm1", "CH", [other])
        rid = ledger.report("si1", [ic], 1)
        with pytest.raises(InvalidArgument):
            ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: other})


class TestProvenance:
    def test_full_joined_path(self):
        ledger, _, chiplet, ic = fig_path_world()
        edges = ledger.provenance(chiplet, joined=True)
        assert [(s, b) for s, b, _ in edges] == [
            ("cm1", "cd1"),
            ("cd1", "X^UB_TB"),
            ("X^UB_TB", "cd3"),
            ("cd3", "icm1"),
            ("icm1", "icd1"),
            ("icd1", "icd2"),
            ("icd2", "si1"),
        ]

    def test_fresh_part_has_empty_path(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        ledger.register_devices("cm1", "CH", [hid("fresh")])
        assert ledger.provenance(hid("fresh")) == []

    def test_unknown_id(self):
        ledger = small_world()
        with pytest.raises(NotFound):
            ledger.provenance(hid("nope"))

    def test_every_confirmed_edge_lands_on_its_parts(self):
        ledger, _, chiplet, ic = fig_path_world()
        confirmed = [t for t in transaction_rows(ledger) if t["status"] == "confirmed"]
        for txn in confirmed:
            source, dest, via_meta = txn["source"], txn["dest"], txn["via_meta"]
            for h in txn["ids"]:
                pairs = [(s, b) for s, b, _, _ in ledger.part(h).path]
                if via_meta is None:
                    assert (source, dest) in pairs
                else:
                    assert (source, via_meta) in pairs
                    assert (via_meta, dest) in pairs


class TestReplayDeterminism:
    def test_byte_identical_state_after_replay(self):
        ledger, _, chiplet, ic = fig_path_world()
        rid = ledger.report("si1", [ic], 1)
        ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplet})
        replayed = replay(ledger.log_records()).ledger
        assert replayed.state_json() == ledger.state_json()
        assert list(replayed.log_lines()) == list(ledger.log_lines())

    def test_log_file_round_trip(self, tmp_path):
        ledger, _, chiplet, ic = fig_path_world()
        path = tmp_path / "ledger.ndjson"
        ledger.save_log(path)
        restored = replay(load_log_records(path)).ledger
        assert restored.state_json() == ledger.state_json()

    def test_replayed_engine_matches_live(self):
        ledger, view, chiplet, ic = fig_path_world()
        params = ReputationParams(decrease_rate=1.0)
        live = ledger.attach(ReputationEngine(view, params))
        rid = ledger.report("si1", [ic], 1)
        ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplet})
        fresh = ReputationEngine(view, params)
        replay(ledger.log_records(), fresh)
        for eid in live.known_entities():
            assert fresh.reputation(eid) == live.reputation(eid)

    def test_log_lines_are_canonical_json(self):
        ledger, _, _, _ = fig_path_world()
        for line in ledger.log_lines():
            obj = json.loads(line)
            assert "op" in obj
            assert json.dumps(obj, separators=(",", ":")) == line


#: Field names of each operation's log line, in the documented order.
LOG_FIELDS = {
    "chain": ("id",),
    "entity": ("id", "role", "chain"),
    "type": ("name", "kind", "maker"),
    "devices": ("maker", "type", "ids"),
    "transfer": ("kind", "type", "src", "dst", "ids", "amounts", "currency"),
    "confirm": ("caller", "type", "ids"),
    "reject": ("caller", "type", "ids"),
    "consume": ("caller", "chiplets", "ic"),
    "report": ("reporter", "ids", "result"),
    "adjudicate": ("ta", "report", "defective", "origins"),
}

#: Strings that JSON must escape or that ``ensure_ascii`` writes as \u escapes.
ODD_STRINGS = [
    "plain",
    'quote"inside',
    "back\\slash",
    "control\x00\x01\x1f\t\n\r\x7f",
    "non-ascii \u00e9\u4e2d\u2028\U0001f600",
    "</script>",
    "",
]


def documented_obj(rec: tuple) -> dict:
    """The JSON object of a record, built from ``LOG_FIELDS``."""
    obj = {"op": rec[0]}
    for name, value in zip(LOG_FIELDS[rec[0]], rec[1:]):
        if name == "origins":
            value = dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        obj[name] = value
    return obj


def records_with(s: str, amounts: tuple) -> list[tuple]:
    """One record of every operation, with ``s`` in every string field."""
    ids = (s, s + "2")
    return [
        ("chain", s),
        ("entity", s, s, s),
        ("type", s, s, s),
        ("devices", s, s, ids),
        ("transfer", s, s, s, s, ids, amounts, s),
        ("confirm", s, s, ids),
        ("reject", s, s, (s,)),
        ("consume", s, ids, s),
        ("report", s, ids, 0),
        ("report", s, (), 1),
        ("adjudicate", s, s, ids, ((s, s + "c"), (s + "2", s))),
        ("adjudicate", s, s, (), ()),
    ]


class TestLogEncoding:
    @pytest.mark.parametrize("s", ODD_STRINGS)
    @pytest.mark.parametrize(
        "amounts",
        [(5,), (0, 7, 10**15), (1e16, 5e-324, 0.1 + 0.2), (100.0, 110.00000000000001), ()],
    )
    def test_every_op_encodes_like_json_dumps(self, s, amounts):
        for rec in records_with(s, amounts):
            line = _encode_record(rec)
            assert line == json.dumps(documented_obj(rec), separators=(",", ":"))
            assert line.isascii()

    def test_every_op_is_covered(self):
        assert {rec[0] for rec in records_with("x", (1.0,))} == set(LOG_FIELDS) == set(_LINE)

    def test_odd_names_round_trip_through_a_saved_log(self, tmp_path):
        from chipchain.domain import ExchangeTable

        odd = [s for s in ODD_STRINGS if s and "_" not in s and "^" not in s]
        ledger = Ledger(exchange=ExchangeTable({odd[-1]: 2.0}))
        for k, s in enumerate(odd):
            ledger.add_chain(s)
            ledger.add_entity(Entity(f"cm{s}", Role.CHIPLET_MANUFACTURER, s))
            ledger.add_entity(Entity(f"cd{s}", Role.CHIPLET_DISTRIBUTOR, s))
            ledger.register_chiplet_type(f"cm{s}", f"type {s}")
            part = hid(f"odd-{k}")
            ledger.register_devices(f"cm{s}", f"type {s}", [part])
            ledger.transfer_chiplets(
                f"cm{s}", f"type {s}", 1, [part], [Money(k + 0.1, odd[-1])], f"cd{s}"
            )
            ledger.confirm_transfer(f"cd{s}", f"type {s}", 1, [part])
        path = tmp_path / "odd.ndjson"
        ledger.save_log(path)
        for line, rec in zip(path.read_text(encoding="utf-8").splitlines(), ledger.log_records()):
            assert line == json.dumps(documented_obj(rec), separators=(",", ":"))
        restored = Ledger(exchange=ledger.exchange)
        for rec in load_log_records(path):
            restored.apply_record(rec)
        assert restored.state_json() == ledger.state_json()


#: A world in which cm owns two registered chiplets of type t and may sell them to cd.
SALE_SETUP = [
    ("chain", "TB"),
    ("entity", "cm", "CM", "TB"),
    ("entity", "cd", "CD", "TB"),
    ("type", "t", "chiplet", "cm"),
    ("devices", "cm", "t", ("a" * 64, "b" * 64)),
]


def sale(ids=("a" * 64,), amounts=(5.0,), currency="STD", kind="chiplet"):
    return ("transfer", kind, "t", "cm", "cd", ids, amounts, currency)


class TestMalformedTransferRecords:
    """Each malformed transfer record fails with a fixed error type and message.

    All but the last two cases raised the same error before amounts were
    checked without building a ``Money``; a bool was then taken as a number
    and a huge int ended in an ``OverflowError``.
    """

    @pytest.mark.parametrize(
        "rec, error, message",
        [
            (sale(amounts=(-1.0,)), InvalidArgument,
             "money amount must be finite and >= 0, got -1.0"),
            (sale(amounts=(-3,)), InvalidArgument, "money amount must be finite and >= 0, got -3"),
            (sale(amounts=(math.nan,)), InvalidArgument,
             "money amount must be finite and >= 0, got nan"),
            (sale(amounts=(math.inf,)), InvalidArgument,
             "money amount must be finite and >= 0, got inf"),
            (sale(amounts=("5",)), InvalidArgument,
             "malformed log field: must be real number, not str"),
            (sale(amounts=(None,)), InvalidArgument,
             "malformed log field: must be real number, not NoneType"),
            (sale(amounts=()), CountMismatch, "declared 1 units, got 1 ids and 0 prices"),
            (sale(ids=("a" * 64, "b" * 64), amounts=(5.0, "5")), InvalidArgument,
             "malformed log field: must be real number, not str"),
            (sale(ids=("a" * 64, "b" * 64), amounts=(5.0, -5.0)), InvalidArgument,
             "money amount must be finite and >= 0, got -5.0"),
            (sale(kind="gizmo"), InvalidArgument,
             "malformed log field: 'gizmo' is not a valid PartKind"),
            (sale(kind="gizmo", amounts=("5",)), InvalidArgument,
             "malformed log field: must be real number, not str"),
            (sale(kind="ic"), PermissionDenied, "role CM may not transfer ics"),
            (sale(ids=()), CountMismatch, "declared 0 units, got 0 ids and 1 prices"),
            (sale(ids=(), amounts=()), InvalidArgument, "cannot transfer zero devices"),
            (sale(ids=("a" * 64, "a" * 64), amounts=(5.0, 5.0)), CountMismatch,
             "declared 2 units, got 1 ids and 2 prices"),
            (sale(currency=""), InvalidArgument, "currency code must be non-empty"),
            (sale(amounts=("5",), currency=""), InvalidArgument,
             "malformed log field: must be real number, not str"),
            (sale(ids=("a" * 64, "b" * 64), amounts=(5.0, "5"), currency=""), InvalidArgument,
             "currency code must be non-empty"),
            (sale(amounts=(), currency=""), CountMismatch,
             "declared 1 units, got 1 ids and 0 prices"),
            (sale(currency="EUR"), UnknownCurrency, "no exchange rate for currency 'EUR'"),
            (sale(amounts=(True,)), InvalidArgument,
             "malformed log field: must be real number, not bool"),
            (sale(amounts=(10**400,)), InvalidArgument,
             "money amount must be finite and >= 0, got 1000"),
        ],
        ids=[
            "negative", "negative_int", "nan", "inf", "string", "null", "empty_amounts",
            "mixed", "mixed_negative", "bad_kind", "bad_kind_and_amount", "ic_kind",
            "empty_ids", "empty_ids_and_amounts", "duplicate_ids", "empty_currency",
            "empty_currency_string_amount", "empty_currency_mixed", "empty_currency_no_amounts",
            "unknown_currency", "bool", "huge_int",
        ],
    )
    def test_error_type_and_message(self, rec, error, message):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        state = ledger.state_json()
        with pytest.raises(ChipchainError) as exc:
            ledger.apply_record(rec)
        assert type(exc.value) is error
        assert str(exc.value).startswith(message)
        assert ledger.log_length() == len(SALE_SETUP)
        assert ledger.state_json() == state

    def test_valid_amounts_are_logged_as_given(self):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        rec = sale(ids=("a" * 64, "b" * 64), amounts=(5, 0.1 + 0.2))
        ledger.apply_record(rec)
        assert ledger.log_records()[-1] == rec
        assert transaction_rows(ledger)[-1]["amounts"] == [5, 0.1 + 0.2]


class TestMetaIdentity:
    @pytest.mark.parametrize("chain_id", ["A_B", "B_C", "X^Y", "^", "_"])
    def test_separator_chain_ids_refused(self, chain_id):
        ledger = Ledger()
        with pytest.raises(InvalidArgument):
            ledger.add_chain(chain_id)
        assert ledger.log_length() == 0
        assert ledger.chains == frozenset()

    def test_colliding_chain_pairs_cannot_both_exist(self):
        # ("A_B", "C") and ("A", "B_C") would both name the meta-entity X^A_B_C.
        ledger = Ledger()
        for chain in ("A", "B", "C"):
            ledger.add_chain(chain)
        for chain in ("A_B", "B_C"):
            with pytest.raises(InvalidArgument):
                ledger.add_chain(chain)
        assert ledger.chains == frozenset({"A", "B", "C"})

    def test_meta_prefix_reserved(self):
        ledger = Ledger()
        ledger.add_chain("P")
        ledger.add_chain("Q")
        with pytest.raises(PermissionDenied):
            ledger.add_entity(Entity("X^P_Q", Role.CHIPLET_MANUFACTURER, "P"))
        assert "X^P_Q" not in ledger.entities
        assert ledger.log_length() == 2


class TestLogDecoding:
    VALID = '{"op":"chain","id":"TB"}'

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"op":"chain",', "invalid JSON"),
            ("[1, 2]", "not a JSON object"),
            ("42", "not a JSON object"),
            ('"chain"', "not a JSON object"),
            ("null", "not a JSON object"),
            ('{"op":"teleport","id":"x"}', "unknown log operation 'teleport'"),
            ('{"op":"chain"}', "lacks field 'id'"),
            ('{"id":"x"}', "lacks field 'op'"),
            ('{"op":"devices","maker":"cm1","type":"T","ids":7}',
             "field 'ids' must be a list of strings, got 7"),
            ('{"op":"adjudicate","ta":"t","report":"R1","defective":[],"origins":[]}',
             "field 'origins' must be an object of strings"),
            ('{"op":"entity","id":5,"role":"CM","chain":"TB"}', "expected a string, got 5"),
            ('{"op":"type","name":3,"kind":"chiplet","maker":"cm1"}', "expected a string, got 3"),
            ('{"op":"devices","maker":"cm1","type":"T","ids":[[1]]}',
             r"expected a string, got \[1\]"),
            ('{"op":"chain","id":7}', "expected a string, got 7"),
            ('{"op":"transfer","kind":"chiplet","type":"T","src":"a","dst":null,'
             '"ids":[],"amounts":[],"currency":"STD"}', "expected a string, got None"),
            ('{"op":"confirm","caller":"a","type":"T","ids":"abc"}',
             "field 'ids' must be a list of strings, got 'abc'"),
            ('{"op":"consume","caller":"a","chiplets":[],"ic":{}}', "expected a string, got {}"),
            ('{"op":"report","reporter":["a"],"ids":[],"result":0}',
             r"expected a string, got \['a'\]"),
            ('{"op":"adjudicate","ta":"t","report":"R1","defective":[],"origins":{"i":2}}',
             "expected a string, got 2"),
        ],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.ndjson"
        path.write_text(f"{self.VALID}\n\n{line}\n{self.VALID}\n")
        with pytest.raises(InvalidArgument, match=message) as exc:
            load_log_records(path)
        assert str(exc.value).startswith(f"{path}:3: ")
        assert "\n" not in str(exc.value)

    def test_valid_lines_decode(self, tmp_path):
        path = tmp_path / "ok.ndjson"
        path.write_text(f"{self.VALID}\n\n")
        assert load_log_records(path) == [("chain", "TB")]


class TestOwnershipConservation:
    def test_every_part_has_exactly_one_owner(self):
        ledger, _, chiplet, ic = fig_path_world()
        for part in ledger.parts.values():
            assert part.owner in ledger.entities

    def test_counts_change_only_on_confirm_or_consume(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        ids = sorted(hid(f"o{i}") for i in range(4))
        ledger.register_devices("cm1", "CH", ids)
        assert owned(ledger, "cm1", "CH") == 4
        ledger.transfer_chiplets("cm1", "CH", 2, ids[:2], price(10, 2), "cd1")
        assert owned(ledger, "cm1", "CH") == 4  # pending moves nothing
        ledger.confirm_transfer("cd1", "CH", 2, ids[:2])
        assert owned(ledger, "cm1", "CH") == 2
        assert owned(ledger, "cd1", "CH") == 2


class TestMultiCurrency:
    def setup_method(self):
        from chipchain.domain import ExchangeTable

        self.table = ExchangeTable({"EUR": 2.0})
        self.ledger = Ledger(exchange=self.table)
        self.ledger.add_chain("TB")
        for eid, role in [
            ("cm1", Role.CHIPLET_MANUFACTURER),
            ("icm1", Role.IC_MANUFACTURER),
        ]:
            self.ledger.add_entity(Entity(eid, role, "TB"))
        self.ledger.register_chiplet_type("cm1", "CH")
        self.ledger.register_devices("cm1", "CH", [hid("euro-part")])

    def test_unknown_currency_rejected_at_transfer(self):
        from chipchain.errors import UnknownCurrency

        with pytest.raises(UnknownCurrency):
            self.ledger.transfer_chiplets(
                "cm1", "CH", 1, [hid("euro-part")], [Money(10.0, "JPY")], "icm1"
            )
        assert self.ledger.log_length() == 5  # nothing was logged

    def sell_euro_part(self):
        self.ledger.transfer_chiplets(
            "cm1", "CH", 1, [hid("euro-part")], [Money(10.0, "EUR")], "icm1"
        )
        self.ledger.confirm_transfer("icm1", "CH", 1, [hid("euro-part")])

    def test_provenance_and_rewards_convert_to_standard(self):
        view = ObserverView("TB", frozenset({"TB"}))
        engine = self.ledger.attach(ReputationEngine(view, ReputationParams(decrease_rate=0.5)))
        self.sell_euro_part()
        assert self.ledger.provenance(hid("euro-part")) == [("cm1", "icm1", 20.0)]
        self.ledger.report("icm1", [hid("euro-part")], 0)
        assert engine.reputation("cm1").r == 20.0

    def test_attached_engine_converts_with_the_ledger_table(self):
        # The engine has no table of its own: default params convert EUR
        # through the table the ledger validated the sale with.
        engine = ReputationEngine(ObserverView("TB", frozenset({"TB"})), ReputationParams())
        assert engine.exchange is STANDARD_TABLE
        self.ledger.attach(engine)
        assert engine.exchange is self.table
        self.sell_euro_part()
        self.ledger.report("icm1", [hid("euro-part")], 0)
        assert engine.reputation("cm1").r == 20.0
        assert oracle_max_deviation(engine, self.ledger.log_records()) == 0.0


class TestAttach:
    def test_second_engine_is_refused(self):
        ledger, _, _, _ = fig_path_world()
        view = ObserverView("TB", frozenset({"TB"}))
        first = ledger.attach(ReputationEngine(view, ReputationParams()))
        log, state = list(ledger.log_records()), ledger.state_json()
        second = ReputationEngine(view, ReputationParams())
        with pytest.raises(Conflict):
            ledger.attach(second)
        assert ledger.engine is first
        assert second.entities == {} and second.exchange is STANDARD_TABLE
        assert list(ledger.log_records()) == log
        assert ledger.state_json() == state


class TestEq6View:
    def test_transaction_stream_shape(self):
        ledger, _, chiplet, ic = fig_path_world()
        stream = transaction_rows(ledger)
        # 6 transfers, one of which crossed chains and so has two path edges.
        assert [t["seq"] for t in stream] == [1, 2, 3, 4, 5, 6]
        assert [t["via_meta"] for t in stream].count("X^UB_TB") == 1
        assert sum(2 if t["via_meta"] else 1 for t in stream) == 7
        for txn in stream:
            assert txn["status"] == "confirmed"
            assert len(txn["ids"]) == len(txn["amounts"])


class TestDerivedRows:
    """The transaction and report rows of ``state_json`` follow from the log records."""

    def setup_method(self):
        # cm1 sits on UB and cd3 on TB, so every sale from cm1 to cd3 crosses chains.
        self.ledger = small_world()
        self.ledger.register_chiplet_type("cm1", "CH")
        self.a, self.b = hid("row-a"), hid("row-b")
        self.ledger.register_devices("cm1", "CH", [self.a, self.b])

    def test_each_operation_is_stored_once(self):
        self.ledger.transfer_chiplets("cm1", "CH", 2, [self.a, self.b], price(5, 2), "cd3")
        transfer = self.ledger.log_records()[-1]
        assert transfer[0] == "transfer"
        assert self.ledger._pending[transfer[5]] is transfer

    def test_pending_and_rejected_crossings_have_no_meta(self):
        self.ledger.transfer_chiplets("cm1", "CH", 1, [self.a], price(5), "cd3")
        self.ledger.transfer_chiplets("cm1", "CH", 1, [self.b], price(6), "cd3")
        self.ledger.reject_transfer("cd3", "CH", [self.b])
        assert [(r["status"], r["via_meta"]) for r in transaction_rows(self.ledger)] == [
            ("pending", None), ("rejected", None)
        ]
        assert "X^UB_TB" not in self.ledger.entities
        # Once the meta-entity exists, a pending crossing still shows none.
        self.ledger.confirm_transfer("cd3", "CH", 1, [self.a])
        self.ledger.transfer_chiplets("cm1", "CH", 1, [self.b], price(6), "cd3")
        assert [(r["status"], r["via_meta"]) for r in transaction_rows(self.ledger)] == [
            ("confirmed", "X^UB_TB"), ("rejected", None), ("pending", None)
        ]

    def test_retried_transfer_is_a_second_row(self):
        self.ledger.transfer_chiplets("cm1", "CH", 1, [self.a], price(5), "cd3")
        self.ledger.reject_transfer("cd3", "CH", [self.a])
        self.ledger.transfer_chiplets("cm1", "CH", 1, [self.a], price(7), "cd3")
        self.ledger.confirm_transfer("cd3", "CH", 1, [self.a])
        rows = transaction_rows(self.ledger)
        assert [(r["seq"], r["status"], r["amounts"], r["via_meta"]) for r in rows] == [
            (1, "rejected", [5], None), (2, "confirmed", [7], "X^UB_TB")
        ]

    def test_report_row_before_and_after_adjudication(self):
        ledger, _, chiplet, ic = fig_path_world()
        rid = ledger.report("si1", [ic], 1)
        assert ledger._reports[rid] is ledger.log_records()[-1]
        filed = {
            "id": rid, "reporter": "si1", "ids": [ic], "result": 1,
            "ta_outcome": None, "defect_origins": [],
        }
        assert report_row(ledger, rid) == filed
        ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplet})
        assert report_row(ledger, rid) == {
            **filed, "ta_outcome": [ic], "defect_origins": [[ic, chiplet]]
        }
