import gc
import json
import math
import sys
import tracemalloc

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
from chipchain.harness import oracle_max_deviation, oracle_recompute, run_end_to_end
from chipchain.ledger import (
    Ledger,
    PartKind,
    PartStatus,
    _checked,
    _encode_record,
    _obj_to_record,
    load_log_records,
)
from chipchain.reputation import (
    EntityReputation,
    ObserverView,
    ReputationEngine,
    ReputationParams,
)
from chipchain.simulator import (
    SimConfig,
    assign_behaviors,
    build_topology,
    generate_stream,
    replay,
)


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

    @pytest.mark.parametrize(
        "report_id",
        ["R1", "R0000001", "r000001", "R\u0660\u0660\u0660\u0660\u0660\u0661", "R000000",
         "R000002", "R 00001", "R00000_1", "R+00001", 1, None, b"R000001", ["R000001"]],
        ids=["short", "seven_digits", "lower_case", "arabic_indic_digits", "zero", "unfiled",
             "space", "underscore", "plus", "int", "none", "bytes", "list"],
    )
    def test_only_a_filed_reports_exact_id_names_it(self, report_id):
        # Each of these reads back as a number, or as none; only the id that
        # report() returned names the report.
        rid = self.ledger.report("icm1", self.chiplets, 1)
        assert rid == "R000001"
        length, state = self.ledger.log_length(), self.ledger.state_json()
        with pytest.raises(NotFound) as exc:
            self.ledger.adjudicate("ta-tb", report_id, [])
        assert str(exc.value) == f"unknown report {report_id!r}"
        assert self.ledger.log_length() == length
        assert self.ledger.state_json() == state
        self.ledger.adjudicate("ta-tb", rid, [])
        assert report_row(self.ledger, rid)["ta_outcome"] == []


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


class TestRefusedPenalty:
    """A refused penalty leaves no trace: no record, no defective part, no score change."""

    VIEW = ObserverView("TB", frozenset({"TB"}))
    #: params, the number of defective ICs, the refused part's index among
    #: them (sorted), and the rest of the message.
    CASES = {
        # The third seller's rate, 2 / 1e300 / 1e300, underflows to 0.0.
        "zero_divisor": (
            ReputationParams(decrease_rate=2.0, trusted_discount=1e300, penalty_form="raw"),
            1, 0, "penalty divisor 0.0 of seller 'icd2' is not a positive finite number",
        ),
        # A positive subnormal divisor takes icm1's r of 5.0 to inf.
        "subnormal_divisor": (
            ReputationParams(decrease_rate=1e-320, penalty_form="raw"),
            1, 0, "penalty divisor 1e-320 of seller 'icm1' would make its r inf",
        ),
        # Each part alone leaves every r finite; icm1's second division, in
        # the second part, overflows (5.0 / 1e-160 / 1e-160).
        "shared_seller": (
            ReputationParams(decrease_rate=1e-160, penalty_form="raw"),
            2, 1, "penalty divisor 1e-160 of seller 'icm1' would make its r inf",
        ),
    }

    def world(self, n_bad, engine=None):
        """ICs sold icm1 -> icd1 -> icd2 -> si1 on TB; one passes, ``n_bad`` fail together."""
        ledger = small_world()
        if engine is not None:
            ledger.attach(engine)
        ledger.register_ic_type("icm1", "IC")
        good = hid("ic-good")
        bad = sorted(hid(f"ic-bad-{k}") for k in range(n_bad))
        ledger.register_devices("icm1", "IC", [good, *bad])
        for ic in (good, *bad):
            ship(ledger, "icm1", "icd1", "IC", [ic], 5.0, kind="ic")
            ship(ledger, "icd1", "icd2", "IC", [ic], 6.0, kind="ic")
            ship(ledger, "icd2", "si1", "IC", [ic], 7.0, kind="ic")
        ledger.report("si1", [good], 0)
        return ledger, ledger.report("si1", bad, 1), bad

    @pytest.mark.parametrize("case", CASES)
    def test_the_ledger_and_engine_are_unchanged(self, case):
        params, n_bad, refused, message = self.CASES[case]
        engine = ReputationEngine(self.VIEW, params)
        ledger, rid, bad = self.world(n_bad, engine)
        def state():
            statuses = [ledger.part(b).status for b in bad]
            return engine.score_rows(), ledger.log_length(), ledger.state_json(), statuses

        before = state()
        with pytest.raises(InvalidArgument) as exc:
            ledger.adjudicate("ta-tb", rid, bad)
        assert str(exc.value) == f"part {bad[refused]!r}: {message}"
        assert state() == before
        assert PartStatus.DEFECTIVE not in before[3]

    def test_parts_that_share_a_seller_are_each_accepted_alone(self):
        params, n_bad, *_ = self.CASES["shared_seller"]
        for k in range(n_bad):
            engine = ReputationEngine(self.VIEW, params)
            ledger, rid, bad = self.world(n_bad, engine)
            ledger.adjudicate("ta-tb", rid, [bad[k]])
            assert all(math.isfinite(row[3]) for row in engine.score_rows())

    @pytest.mark.parametrize("case", CASES)
    def test_oracle_refuses_the_same_penalty(self, case):
        params, n_bad, refused, message = self.CASES[case]
        ledger, rid, bad = self.world(n_bad)
        ledger.adjudicate("ta-tb", rid, bad)
        with pytest.raises(InvalidArgument) as exc:
            oracle_recompute(ledger.log_records(), params, self.VIEW, STANDARD_TABLE)
        assert str(exc.value) == f"part {bad[refused]!r}: {message}"


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
                pairs = [(s, b) for s, b, _ in ledger.provenance(h)]
                if via_meta is None:
                    assert (source, dest) in pairs
                else:
                    assert (source, via_meta) in pairs
                    assert (via_meta, dest) in pairs


def multi_id_world():
    """Three chiplets that cross chains and then move on one chain in one transfer each.

    Each hop prices each chiplet differently, so a path that read another
    part's amount would show it. Chiplet 2 passes its report; chiplet 1 is
    built into an IC that fails at si1, with the defect traced to it.
    """
    ledger = small_world()
    view = ObserverView("TB", frozenset({"TB"}))
    engine = ledger.attach(ReputationEngine(view, ReputationParams(decrease_rate=1.0)))
    ledger.register_chiplet_type("cm1", "CH")
    ledger.register_ic_type("icm1", "IC")
    chiplets = sorted(hid(f"multi-{i}") for i in range(3))
    ic = hid("multi-ic")
    ledger.register_devices("cm1", "CH", chiplets)
    crossing = [Money(10.0), Money(20.0), Money(30.0)]
    ledger.transfer_chiplets("cm1", "CH", 3, chiplets, crossing, "cd3")
    ledger.confirm_transfer("cd3", "CH", 3, chiplets)  # crosses UB -> TB
    onward = [Money(11.0), Money(22.0), Money(33.0)]
    ledger.transfer_chiplets("cd3", "CH", 3, chiplets, onward, "icm1")
    ledger.confirm_transfer("icm1", "CH", 3, chiplets)
    ledger.report("icm1", [chiplets[2]], 0)
    ledger.register_devices("icm1", "IC", [ic])
    ledger.consume_chiplets("icm1", [chiplets[1]], ic)
    ship(ledger, "icm1", "si1", "IC", [ic], 400.0, kind="ic")
    rid = ledger.report("si1", [ic], 1)
    ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplets[1]})
    return ledger, engine, chiplets


class TestPathRecords:
    """A part's path is its transfer records; its edges are derived from them."""

    def test_prices_follow_their_ids(self):
        ledger = small_world()
        ledger.register_chiplet_type("cm1", "CH")
        a, b = sorted([hid("priced-a"), hid("priced-b")])
        ledger.register_devices("cm1", "CH", [a, b])
        ledger.transfer_chiplets("cm1", "CH", 2, [b, a], [Money(1.0), Money(2.0)], "cd1")
        ledger.confirm_transfer("cd1", "CH", 2, [a, b])
        assert ledger.provenance(b) == [("cm1", "cd1", 1.0)]
        assert ledger.provenance(a) == [("cm1", "cd1", 2.0)]

    def test_multi_id_paths_derive_each_parts_amount(self, tmp_path):
        ledger, engine, chiplets = multi_id_world()
        for i, chiplet in enumerate(chiplets, start=1):
            assert ledger.provenance(chiplet) == [
                ("cm1", "X^UB_TB", 10.0 * i), ("X^UB_TB", "cd3", 10.0 * i),
                ("cd3", "icm1", 11.0 * i),
            ]
        assert ledger.provenance(chiplets[1], joined=True)[-1] == ("icm1", "si1", 400.0)
        # Chiplet 2's reward, then the joined penalty at divisor 1 + 1.
        assert engine.reputation("cm1") == EntityReputation(15.0, 30.0)
        assert oracle_max_deviation(engine, ledger.log_records()) == 0.0
        path = tmp_path / "ledger.ndjson"
        ledger.save_log(path)
        assert replay(load_log_records(path)).ledger.state_json() == ledger.state_json()

    def test_paths_hold_the_logs_own_records(self, tmp_path):
        cfg = SimConfig(n_transactions=2_000, cross_chain_prob=0.5, rng_seed=0)
        ledger = run_end_to_end(cfg).replay.ledger
        path = tmp_path / "ledger.ndjson"
        ledger.save_log(path)
        for world in (ledger, replay(load_log_records(path)).ledger):
            records = world.log_records()
            logged = {id(rec) for rec in records if rec[0] == "transfer"}
            hops = [rec for part in world.parts.values() for rec in part.path]
            assert len(hops) == sum(len(rec[3]) for rec in records if rec[0] == "confirm")
            assert all(id(rec) in logged for rec in hops)


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
        lines = {}
        for rec in records_with("x", (1.0,)):
            lines.setdefault(rec[0], _encode_record(rec))
        assert set(lines) == set(LOG_FIELDS)
        assert lines == {
            "chain": '{"op":"chain","id":"x"}',
            "entity": '{"op":"entity","id":"x","role":"x","chain":"x"}',
            "type": '{"op":"type","name":"x","kind":"x","maker":"x"}',
            "devices": '{"op":"devices","maker":"x","type":"x","ids":["x","x2"]}',
            "transfer": '{"op":"transfer","kind":"x","type":"x","src":"x","dst":"x",'
            '"ids":["x","x2"],"amounts":[1.0],"currency":"x"}',
            "confirm": '{"op":"confirm","caller":"x","type":"x","ids":["x","x2"]}',
            "reject": '{"op":"reject","caller":"x","type":"x","ids":["x"]}',
            "consume": '{"op":"consume","caller":"x","chiplets":["x","x2"],"ic":"x"}',
            "report": '{"op":"report","reporter":"x","ids":["x","x2"],"result":0}',
            "adjudicate": '{"op":"adjudicate","ta":"x","report":"x","defective":["x","x2"],'
            '"origins":{"x":"xc","x2":"x"}}',
        }

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


class TestUnknownOperation:
    @pytest.mark.parametrize("rec", [("teleport", "x"), (["chain"], "x")])
    def test_is_refused_by_name(self, rec):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        state = ledger.state_json()
        with pytest.raises(InvalidArgument) as exc:
            ledger.apply_record(rec)
        assert str(exc.value) == f"unknown log operation {rec[0]!r}"
        assert ledger.log_length() == len(SALE_SETUP)
        assert ledger.state_json() == state


A, B, C, D, E, F, G, IC, IC2, IC3 = (c * 64 for c in "abcdef0123")

#: One world for every precondition: A at cd; B, C and D at icm, where B has
#: passed its report (R000001), C failed R000002 and was found defective, and D
#: failed R000003, not yet adjudicated; E is on its way from cm to cd; F is
#: still at cm; icm holds IC, IC2 is on its way to icd on chain TB, and IC3
#: crossed to icd, which made the meta-entity X^TA_TB.
PRECONDITION_WORLD = [
    ("chain", "TA"),
    ("chain", "TB"),
    ("entity", "cm", "CM", "TA"),
    ("entity", "cd", "CD", "TA"),
    ("entity", "icm", "ICM", "TA"),
    ("entity", "ta", "TA", "TA"),
    ("entity", "tb", "TA", "TB"),
    ("entity", "icd", "ICD", "TB"),
    ("type", "ch", "chiplet", "cm"),
    ("type", "ic", "ic", "icm"),
    ("devices", "cm", "ch", (A, B, C, D, E, F)),
    ("devices", "icm", "ic", (IC, IC2, IC3)),
    ("transfer", "chiplet", "ch", "cm", "cd", (A,), (1.0,), "STD"),
    ("confirm", "cd", "ch", (A,)),
    ("transfer", "chiplet", "ch", "cm", "icm", (B, C, D), (1.0, 1.0, 1.0), "STD"),
    ("confirm", "icm", "ch", (B, C, D)),
    ("report", "icm", (B,), 0),
    ("report", "icm", (C,), 1),
    ("adjudicate", "ta", "R000002", (C,), ()),
    ("report", "icm", (D,), 1),
    ("transfer", "chiplet", "ch", "cm", "cd", (E,), (1.0,), "STD"),
    ("transfer", "ic", "ic", "icm", "icd", (IC3,), (1.0,), "STD"),
    ("confirm", "icd", "ic", (IC3,)),
    ("transfer", "ic", "ic", "icm", "icd", (IC2,), (1.0,), "STD"),
]


class TestPreconditions:
    """Each op refuses a record that breaks one of its preconditions.

    The error types and messages were recorded before each op had one
    record-keyed body, and the refused record leaves no trace.
    """

    @pytest.mark.parametrize(
        "rec, error, message",
        [
            (("transfer", "chiplet", "ch", "icm", "cd", (D,), (1.0,), "STD"),
             PermissionDenied, "role ICM may not transfer chiplets"),
            (("transfer", "chiplet", "ch", "cd", "icm", (F,), (1.0,), "STD"),
             NotOwner, f"'cd' does not own device '{F}'"),
            (("transfer", "chiplet", "ch", "cm", "icm", (E,), (1.0,), "STD"),
             Conflict, f"device '{E}' is already in transit"),
            (("transfer", "chiplet", "ch", "cm", "cd", (F, F), (1.0, 1.0), "STD"),
             CountMismatch, "declared 2 units, got 1 ids and 2 prices"),
            (("transfer", "chiplet", "ch", "cm", "cd", (F,), (1.0,), "EUR"),
             UnknownCurrency, "no exchange rate for currency 'EUR'"),
            (("confirm", "icm", "ch", (E,)),
             PermissionDenied, "'icm' is not the destination of this transfer"),
            (("confirm", "cd", "ch", (A,)), NotFound, "no matching pending transfer for these ids"),
            (("confirm", "cd", "ch", (E, E)), CountMismatch, "declared 2 units, got 1 ids"),
            (("reject", "icm", "ch", (E,)),
             PermissionDenied, "'icm' is not the destination of this transfer"),
            (("devices", "cd", "ch", (G,)), PermissionDenied, "'cd' is not the registrant of 'ch'"),
            (("devices", "cm", "ch", (A,)), AlreadyExists, f"device '{A}' already registered"),
            (("consume", "cd", (A,), IC),
             PermissionDenied, "only IC manufacturers consume chiplets"),
            (("consume", "icm", (A,), IC), NotOwner, f"'icm' does not own chiplet '{A}'"),
            (("consume", "icm", (C,), IC), Conflict, f"chiplet '{C}' is defective"),
            (("report", "cd", (A,), 0), PermissionDenied, "role CD may not report chiplets"),
            (("report", "icm", (F,), 0), NotOwner, f"'icm' does not own device '{F}'"),
            (("report", "icm", (B,), 0), Conflict, f"device '{B}' is verified_ok, not reportable"),
            (("report", "icm", (), 0), InvalidArgument, "no device ids supplied"),
            (("report", "icm", (D, IC), 0), InvalidArgument, "a report must cover one part kind"),
            (("adjudicate", "icm", "R000003", (D,), ()),
             PermissionDenied, "'icm' is not a trusted authority"),
            (("adjudicate", "tb", "R000003", (D,), ()),
             PermissionDenied, "adjudicating TA must sit on the reporter's chain"),
            (("adjudicate", "ta", "R000001", (B,), ()),
             InvalidState, "only failed reports are adjudicated"),
            (("adjudicate", "ta", "R000002", (C,), ()),
             Conflict, "report 'R000002' already adjudicated"),
            (("adjudicate", "ta", "R000003", (B,), ()),
             InvalidArgument, "defective ids must be a subset of the report's ids"),
            # Confirm and reject close a transfer through one body.
            (("confirm", "cd", "ic", (E,)), NotFound, "no matching pending transfer for these ids"),
            (("reject", "cd", "ic", (E,)), NotFound, "no matching pending transfer for these ids"),
            (("reject", "cd", "ch", (A,)), NotFound, "no matching pending transfer for these ids"),
            # Lookups and world setup.
            (("report", "nobody", (A,), 0), NotFound, "unknown entity 'nobody'"),
            (("devices", "cm", "nope", (G,)), NotFound, "unknown part type 'nope'"),
            (("chain", "TA"), AlreadyExists, "chain 'TA' already registered"),
            (("entity", "cm", "CM", "TA"), AlreadyExists, "entity 'cm' already registered"),
            (("entity", "x", "CM", "TC"), NotFound, "unknown chain 'TC'"),
            (("type", "", "chiplet", "cm"), InvalidArgument, "type name must be non-empty"),
            (("devices", "cm", "ch", ()), InvalidArgument, "no device ids supplied"),
            (("transfer", "chiplet", "ch", "cd", "X^TA_TB", (A,), (1.0,), "STD"),
             InvalidArgument, "meta-entities cannot be a transfer destination"),
            (("transfer", "ic", "ic", "icm", "icd", (D,), (1.0,), "STD"),
             InvalidArgument, f"device '{D}' is not of type 'ic'"),
            (("consume", "icm", (), IC), InvalidArgument, "no chiplet ids supplied"),
            (("consume", "icm", (B,), D), InvalidArgument, f"'{D}' is not an IC"),
            (("consume", "icm", (B,), IC3), NotOwner, f"'icm' does not own IC '{IC3}'"),
            (("consume", "icm", (B,), IC2), Conflict, f"IC '{IC2}' is in_transit"),
            (("consume", "icm", (IC,), IC), InvalidArgument, f"'{IC}' is not a chiplet"),
            (("adjudicate", "ta", "R000003", (D,), ((B, A),)),
             InvalidArgument, f"origin given for non-defective part '{B}'"),
            # A converted amount is bounded so that no sum of them overflows;
            # an unknown currency is refused first.
            (("transfer", "chiplet", "ch", "cm", "cd", (F,), (1e300,), "STD"),
             InvalidArgument, "amount 1e+300 STD exceeds 9.9792e+291 STD"),
            (("transfer", "chiplet", "ch", "cm", "cd", (F,), (1e300,), "EUR"),
             UnknownCurrency, "no exchange rate for currency 'EUR'"),
        ],
        ids=[
            "transfer_role", "transfer_owner", "transfer_status", "transfer_count",
            "transfer_currency", "confirm_role", "confirm_status", "confirm_count", "reject_role",
            "devices_role", "devices_status", "consume_role", "consume_owner", "consume_status",
            "report_role", "report_owner", "report_status", "report_count", "report_kinds",
            "adjudicate_role", "adjudicate_chain", "adjudicate_status", "adjudicate_twice",
            "adjudicate_count", "confirm_type", "reject_type", "reject_status",
            "entity_unknown", "type_unknown", "chain_twice", "entity_twice", "entity_chain",
            "type_empty", "devices_count", "transfer_meta", "transfer_type", "consume_count",
            "consume_not_ic", "consume_ic_owner", "consume_ic_status", "consume_not_chiplet",
            "adjudicate_origin", "transfer_amount_bound", "transfer_currency_before_bound",
        ],
    )
    def test_error_type_and_message(self, rec, error, message):
        ledger = Ledger()
        for setup in PRECONDITION_WORLD:
            ledger.apply_record(setup)
        state = ledger.state_json()
        with pytest.raises(ChipchainError) as exc:
            ledger.apply_record(rec)
        assert type(exc.value) is error
        assert str(exc.value) == message
        assert ledger.log_length() == len(PRECONDITION_WORLD)
        assert ledger.state_json() == state

    @pytest.mark.parametrize("status", [PartStatus.CONSUMED, PartStatus.DEFECTIVE])
    def test_a_spent_part_is_not_transferable(self, status):
        # No op leaves a part that its holder may ship consumed or defective,
        # so the state is set directly: the check stands behind the role check.
        ledger = Ledger()
        for setup in PRECONDITION_WORLD:
            ledger.apply_record(setup)
        ledger.parts[A].status = status
        with pytest.raises(Conflict) as exc:
            ledger.apply_record(("transfer", "chiplet", "ch", "cd", "icm", (A,), (1.0,), "STD"))
        assert str(exc.value) == f"device '{A}' is {status.value}, not transferable"
        assert ledger.log_length() == len(PRECONDITION_WORLD)
        assert ledger.parts[A].status is status

    def test_the_world_applies(self):
        ledger = Ledger()
        for rec in PRECONDITION_WORLD:
            ledger.apply_record(rec)
        assert list(ledger.log_records()) == PRECONDITION_WORLD

    def test_a_crossed_meta_entity_without_reputation_reads_zero_and_one(self):
        ledger = Ledger()
        engine = ledger.attach(
            ReputationEngine(ObserverView("TA", frozenset({"TA"})), ReputationParams())
        )
        for rec in PRECONDITION_WORLD:
            ledger.apply_record(rec)
        assert ledger.entities["X^TA_TB"].role is Role.META_ENTITY
        assert engine.chain_reputation("X^TA_TB") == (0.0, 1.0)


class TestRecordIdentity:
    """A canonical transfer record is logged as itself; any other as its canonical form."""

    def test_replay_logs_the_applied_transfer_records(self, tmp_path):
        cfg = SimConfig(n_transactions=300, rng_seed=3)
        stream = list(generate_stream(build_topology(cfg), cfg))
        path = tmp_path / "log.ndjson"
        replay(stream).ledger.save_log(path)
        for records in (stream, load_log_records(path)):
            logged = replay(records).ledger.log_records()
            assert len(logged) == len(records)
            transfers = [(a, b) for a, b in zip(records, logged) if a[0] == "transfer"]
            assert len(transfers) == 300
            assert all(applied is kept for applied, kept in transfers)

    @pytest.mark.parametrize(
        "rec, logged",
        [
            (sale(ids=["a" * 64]), sale()),
            (sale(ids=("b" * 64, "a" * 64), amounts=(1.0, 2.0)),
             sale(ids=("a" * 64, "b" * 64), amounts=(2.0, 1.0))),
            (sale(kind=PartKind.CHIPLET), sale()),
            (sale(amounts=[5.0]), sale(amounts=(5.0,))),
            (list(sale()), sale()),
        ],
        ids=["list_ids", "unsorted_ids", "enum_kind", "list_amounts", "list_record"],
    )
    def test_other_records_log_their_canonical_form(self, rec, logged):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        ledger.apply_record(rec)
        got = ledger.log_records()[-1]
        assert got == logged
        assert [type(field) for field in got] == [type(field) for field in logged]

    def test_a_callers_amounts_list_never_reaches_the_log(self):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        amounts = [5.0]
        ledger.apply_record(sale(amounts=amounts))
        lines = list(ledger.log_lines())
        amounts[0] = -1.0
        amounts.append(math.nan)
        assert list(ledger.log_lines()) == lines
        ledger.apply_record(("confirm", "cd", "t", ("a" * 64,)))
        assert ledger.provenance("a" * 64) == [("cm", "cd", 5.0)]
        assert list(ledger.log_lines())[:-1] == lines

    def test_duplicate_ids_still_mismatch_the_count(self):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        with pytest.raises(CountMismatch, match="declared 2 units, got 1 ids and 1 prices"):
            ledger.apply_record(sale(ids=("a" * 64, "a" * 64)))
        assert ledger.log_length() == len(SALE_SETUP)

    def test_public_transfers_log_canonical_records(self):
        ledger = Ledger()
        for setup in SALE_SETUP:
            ledger.apply_record(setup)
        ledger.transfer_chiplets("cm", "t", 2, ["b" * 64, "a" * 64], [Money(1), Money(2.5)], "cd")
        got = ledger.log_records()[-1]
        assert got == sale(ids=("a" * 64, "b" * 64), amounts=(2.5, 1))
        assert type(got[1]) is str and type(got[5]) is tuple and type(got[6]) is tuple


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
            # Lists and objects are unhashable, so each of these fails a dict lookup
            # before any type check runs; the message must still name the value.
            ('{"op":"transfer","kind":["chiplet"],"type":"T","src":"a","dst":"b",'
             '"ids":[],"amounts":[],"currency":"STD"}', r"expected a string, got \['chiplet'\]$"),
            ('{"op":"confirm","caller":"a","type":"T","ids":["h",{"i":"h"}]}',
             r"expected a string, got \{'i': 'h'\}$"),
            ('{"op":"adjudicate","ta":"t","report":"R1","defective":[],"origins":{"i":["c"]}}',
             r"expected a string, got \['c'\]$"),
            ('{"op":"adjudicate","ta":5,"report":"R1","defective":[],"origins":{"i":[1]}}',
             r"expected a string, got \[1\]$"),
            # Every name field of a record is read before any is checked.
            ('{"op":"transfer","kind":5,"type":"T","src":"a",'
             '"ids":[],"amounts":[],"currency":"STD"}', "log record lacks field 'dst'$"),
            ("\ufeff" + VALID,
             r"invalid JSON: Unexpected UTF-8 BOM \(decode using utf-8-sig\) at column 1$"),
            (VALID + VALID, "invalid JSON: Extra data at column 25$"),
            (VALID + " x", "invalid JSON: Extra data at column 26$"),
            ("[]", "log line is not a JSON object$"),
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


@pytest.fixture(scope="module")
def audit_log(tmp_path_factory):
    """The saved log of a seeded cross-chain world whose untrusted makers defect often."""
    cfg = SimConfig(n_transactions=2_000, cross_chain_prob=0.5, rng_seed=0)
    topology = build_topology(cfg)
    untrusted = {chain: 0.1 for chain, trusted in cfg.chains if not trusted}
    behaviors = assign_behaviors(topology, uniform_p=0.02, per_chain=untrusted)
    path = tmp_path_factory.mktemp("audit") / "ledger.ndjson"
    run_end_to_end(cfg, behaviors=behaviors).replay.ledger.save_log(path)
    return path


def traced_bytes() -> int:
    return tracemalloc.get_traced_memory()[0]


def hashed_id_strings() -> int:
    """The number of traced blocks that are the size of a hashed id's string."""
    size = sys.getsizeof(hash_device_id("x"))
    return sum(1 for trace in tracemalloc.take_snapshot().traces if trace.size == size)


def shared_fields(records):
    """Every string field after the op, every non-empty tuple of strings and its
    members, and every amounts tuple of nonzero floats."""
    for rec in records:
        for value in rec[1:]:
            if type(value) is str:
                yield value
            elif type(value) is tuple and value and all(type(v) is str for v in value):
                yield value
                yield from value
            elif type(value) is tuple and value and all(type(v) is float and v for v in value):
                yield value


class TestDecodedSharing:
    def test_shared_decode_takes_at_most_two_fifths_of_an_unshared_one(self, audit_log):
        # The same lines decoded without the memo: every field of every line is
        # its own object. Sharing takes about 0.37 of that. The unshared list
        # stays alive, so the shared decode reuses none of its memory.
        lines = audit_log.read_bytes().splitlines()
        load_log_records(audit_log)
        gc.collect()
        tracemalloc.start()
        try:
            start = traced_bytes()
            unshared = [_obj_to_record(json.loads(line), _checked) for line in lines]
            alone = traced_bytes() - start
            start = traced_bytes()
            records = load_log_records(audit_log)
            shared = traced_bytes() - start
        finally:
            tracemalloc.stop()
        assert records == unshared
        assert shared <= 0.40 * alone, f"shared decode {shared} B, unshared {alone} B"

    def test_sharing_is_limited_to_one_load(self, audit_log, tmp_path):
        first = load_log_records(audit_log)
        second = load_log_records(audit_log)
        assert first == second
        shared = {}
        for value in shared_fields(first):
            assert shared.setdefault(value, value) is value, value
        assert sum(1 for _ in shared_fields(first)) > 3 * len(shared)
        amounts = [value for value in shared if type(value[0]) is float]
        assert len(amounts) > 10
        in_first = {id(value) for value in shared}
        assert not any(id(value) in in_first for value in shared_fields(second))

        bad = tmp_path / "bad.ndjson"
        bad.write_bytes(audit_log.read_bytes() + b'{"op":"chain","id":7}\n')

        def failed_load() -> str:
            try:
                load_log_records(bad)
            except InvalidArgument as exc:
                return str(exc)
            return "loaded"

        assert failed_load().endswith("expected a string, got 7")
        del first, second, shared
        # Counted by size, since the records of the failed load fill the tuple
        # free lists, which keep their memory: a hashed id's string is 113 bytes.
        tracemalloc.start()
        try:
            start = hashed_id_strings()
            failed_load()
            left = hashed_id_strings() - start
            records = load_log_records(audit_log)
            held = hashed_id_strings() - start - left
        finally:
            tracemalloc.stop()
        assert len(records) > 5_000 and held > 500
        assert left < held / 100, f"a failed load left {left} hashed ids; a load holds {held}"


#: A chiplet sold from cm to cd and rejected once for each amount but the last.
AMOUNTS_LOG = [
    '{"op":"chain","id":"TB"}',
    '{"op":"entity","id":"cm","role":"CM","chain":"TB"}',
    '{"op":"entity","id":"cd","role":"CD","chain":"TB"}',
    '{"op":"type","name":"t","kind":"chiplet","maker":"cm"}',
    '{"op":"devices","maker":"cm","type":"t","ids":["%s"]}' % ("a" * 64),
]
SALE = ('{"op":"transfer","kind":"chiplet","type":"t","src":"cm","dst":"cd","ids":["%s"],'
        '"amounts":%%s,"currency":"STD"}' % ("a" * 64))
REJECT = '{"op":"reject","caller":"cd","type":"t","ids":["%s"]}' % ("a" * 64)
CONFIRM = '{"op":"confirm","caller":"cd","type":"t","ids":["%s"]}' % ("a" * 64)


def amounts_log(path, amounts: list[str]):
    """A log that sells one chiplet at each of ``amounts``, rejected but the last."""
    sales = [line for amount in amounts for line in (SALE % amount, REJECT)]
    path.write_text("".join(line + "\n" for line in AMOUNTS_LOG + sales[:-1] + [CONFIRM]))
    return path


class TestDecodedAmounts:
    """Decoding shares an amounts tuple only where equal amounts write the same bytes."""

    def test_equal_amounts_that_write_otherwise_save_back_unchanged(self, tmp_path):
        path = amounts_log(
            tmp_path / "in.ndjson", ["[1]", "[1.0]", "[-0.0]", "[0.0]", "[1e+291]", "[1e+291]"]
        )
        records = load_log_records(path)
        sales = [rec[6] for rec in records if rec[0] == "transfer"]
        assert [type(a[0]) for a in sales[:4]] == [int, float, float, float]
        assert len({id(a) for a in sales[:5]}) == 5 and sales[4] is sales[5]
        out = tmp_path / "out.ndjson"
        replay(records).ledger.save_log(out)
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "amount, message",
        [("[true]", "record 8: malformed log field: must be real number, not bool"),
         ("[NaN]", "record 8: money amount must be finite and >= 0, got nan")],
        ids=["true", "nan"],
    )
    def test_true_and_nan_are_refused_at_their_record(self, tmp_path, amount, message):
        # true equals the 1 before it, and the decoder reads both NaNs as one
        # object, so the two would compare equal: none of the three is shared.
        path = amounts_log(tmp_path / "bad.ndjson", ["[1]", amount, amount])
        sales = [rec[6] for rec in load_log_records(path) if rec[0] == "transfer"]
        assert len({id(a) for a in sales}) == 3
        with pytest.raises(InvalidArgument) as exc:
            replay(load_log_records(path))
        assert str(exc.value) == message


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
        # Reports are stored in filing order, and report k has the id f"R{k:06d}".
        assert ledger._reports[int(rid[1:]) - 1] is ledger.log_records()[-1]
        filed = {
            "id": rid, "reporter": "si1", "ids": [ic], "result": 1,
            "ta_outcome": None, "defect_origins": [],
        }
        assert report_row(ledger, rid) == filed
        ledger.adjudicate("ta-tb", rid, [ic], defect_origins={ic: chiplet})
        assert report_row(ledger, rid) == {
            **filed, "ta_outcome": [ic], "defect_origins": [[ic, chiplet]]
        }
