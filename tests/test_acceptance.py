"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete. The end-to-end criteria replay five
million-transaction worlds, so this module takes a few minutes.
"""

import dataclasses
import gc
import time
from dataclasses import dataclass

import numpy as np
import pytest

from chipchain.domain import Entity, ExchangeTable, Money, Role, hash_device_id
from chipchain.errors import ChipchainError, PermissionDenied
from chipchain.harness import (
    ORACLE_TOLERANCE,
    oracle_max_deviation,
    run_attack,
    run_basic,
)
from chipchain.ledger import Ledger
from chipchain.reputation import (
    EntityReputation,
    ObserverView,
    ReputationEngine,
    ReputationParams,
    normalized_score,
)
from chipchain.simulator import SimConfig, build_topology, generate_stream, replay
from references import ledger_single_seller

SEEDS = (0, 1, 2, 3, 4)
N_TXN = 1_000_000

PAPER_SCALE = SimConfig(
    chiplet_mfrs=100,
    chiplet_dists=1000,
    ic_mfrs=100,
    ic_dists=500,
    si_count=50,
    n_transactions=N_TXN,
)


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip(), flush=True)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example exactness on the boundary-crossing path
# ---------------------------------------------------------------------------


def build_worked_example():
    """The blue-arrow scenario: one chiplet crossing UB into TB, joined to its IC."""
    ledger = Ledger()
    ledger.add_chain("UB")
    ledger.add_chain("TB")
    for eid, role, chain in [
        ("CM1", Role.CHIPLET_MANUFACTURER, "UB"),
        ("CD1", Role.CHIPLET_DISTRIBUTOR, "UB"),
        ("CD3", Role.CHIPLET_DISTRIBUTOR, "TB"),
        ("ICM1", Role.IC_MANUFACTURER, "TB"),
        ("ICD1", Role.IC_DISTRIBUTOR, "TB"),
        ("ICD2", Role.IC_DISTRIBUTOR, "TB"),
        ("SI1", Role.SYSTEM_INTEGRATOR, "TB"),
        ("TA", Role.TRUSTED_AUTHORITY, "TB"),
    ]:
        ledger.add_entity(Entity(eid, role, chain))
    ledger.register_chiplet_type("CM1", "CH")
    ledger.register_ic_type("ICM1", "IC")
    chiplet, ic = hash_device_id("worked-chiplet"), hash_device_id("worked-ic")
    ledger.register_devices("CM1", "CH", [chiplet])
    route = [("CM1", "CD1"), ("CD1", "CD3"), ("CD3", "ICM1")]
    for src, dst in route:
        ledger.transfer_chiplets(src, "CH", 1, [chiplet], [Money(100.0)], dst)
        ledger.confirm_transfer(dst, "CH", 1, [chiplet])
    ledger.register_devices("ICM1", "IC", [ic])
    ledger.consume_chiplets("ICM1", [chiplet], ic)
    for src, dst in [("ICM1", "ICD1"), ("ICD1", "ICD2"), ("ICD2", "SI1")]:
        ledger.transfer_ics(src, "IC", 1, [ic], [Money(400.0)], dst)
        ledger.confirm_transfer(dst, "IC", 1, [ic])
    return ledger, chiplet, ic


NAMED_SELLERS = ["CM1", "CD1", "CD3", "ICM1", "ICD1", "ICD2"]


@pytest.mark.parametrize(
    "form,expected",
    [
        ("raw", [2.0, 2.0, 2.0, 1.0, 0.5, 0.25]),
        ("rate", [3.0, 3.0, 3.0, 2.0, 1.5, 1.25]),
    ],
)
def test_criterion_1_worked_example_divisors(form, expected):
    ledger, chiplet, ic = build_worked_example()
    view = ObserverView("TB", frozenset({"TB"}))
    params = ReputationParams(decrease_rate=2.0, trusted_discount=2.0, penalty_form=form)
    engine = ledger.attach(ReputationEngine(view, params))
    rid = ledger.report("SI1", [ic], 1)
    result = ledger.adjudicate("TA", rid, [ic], defect_origins={ic: chiplet})
    trace = result.traces[0]
    divisors = {eid: div for eid, _, div in trace.entries}
    got = [divisors[eid] for eid in NAMED_SELLERS]
    ok = got == expected
    verdict("1", ok, f"penalty_form={form} divisors={got}")
    assert got == expected  # exact equality, no tolerance


# ---------------------------------------------------------------------------
# Criterion 2: basic-simulation anchors (5 seeds, 1e6 transactions each)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def basic_grid():
    """Per (m, p, seed): final normalized, minimum over the first 1e4 txns, and
    the first sampled txn with normalized <= 0.05 (None if never reached)."""
    t0 = time.time()
    finals = {}
    early_min = {}
    crossing = {}
    for seed in SEEDS:
        curves = run_basic((0.001, 0.01), (1e-5, 1e-4, 1e-3, 1e-2), N_TXN, seed, stride=1000)
        for (m, p), series in curves.items():
            finals[(m, p, seed)] = series.final_normalized()
            head = series.normalized[series.txn_index <= 10_000]
            early_min[(m, p, seed)] = float(head.min())
            hits = np.flatnonzero(series.normalized <= 0.05)
            crossing[(m, p, seed)] = int(series.txn_index[hits[0]]) if len(hits) else None
    return finals, early_min, crossing, time.time() - t0


def test_criterion_2a_low_defect_keeps_reputation(basic_grid):
    finals, _, _, elapsed = basic_grid
    values = [finals[(0.001, 1e-5, s)] for s in SEEDS]
    ok = all(v >= 0.99 for v in values)
    verdict("2a", ok, f"final normalized={np.round(values, 4).tolist()} (all >= 0.99)")
    assert ok


def test_criterion_2b_high_defect_rate_drops_within_10k_txns(basic_grid):
    # Claim: at m=0.01, p=1e-2 a high defect rate drops the score fast, down
    # to 0.05. The targets follow from the rate-form rule (+1 per clean sale,
    # r divided by d = 1 + m per defect, ideal = transaction index): after n
    # transactions a sale made k defects ago is worth d^-k, and defects arrive
    # at rate p, so r ~ integral of exp(-p ln(d) (n - t)) dt and
    #     normalized(n) ~ (1 - e^-x) / x,   x = n * p * ln(1 + m).
    # The score depends on n, p and m only through x. 2b at n=1e4, p=1e-2 and
    # 2q at n=1e6, p=1e-4 both have n*p = 100 and m = 0.01, so they share one
    # distribution (~0.633); no divisor that depends only on m can put one at
    # <= 0.05 and the other in [0.4, 0.8]. Hence two checks:
    #   1. Early drop: the minimum over the first 1e4 txns is within 0.10 of
    #      (1 - e^-x)/x at n=1e4. Over held-out seeds 1000-2999 that minimum
    #      has sigma = 0.032 (6 of 2000 seeds fall outside the band), so 0.10
    #      is about 3 sigma. "No drop" (>= 0.74) and a divisor of 1 + m/2
    #      (~0.79) or (1 + m)^2 (~0.44) lie outside it.
    #   2. Drop to 0.05 where the rule puts it: (1 - e^-x)/x = 0.05 at x ~ 20,
    #      i.e. n* = 20 / (p ln(1 + m)) ~ 2.0e5. The first sampled txn with
    #      normalized <= 0.05 must be within 25% of n*; held-out seeds
    #      1000-2999 cross between 158k and 226k. A decay rate p ln(d) off by
    #      a third either way moves the expected crossing to 1.5 n* or
    #      0.75 n*, past or onto the window's edge.
    m, p, n_early = 0.01, 1e-2, 10_000
    _, early_min, crossing, _ = basic_grid

    def closed_form(x: float) -> float:
        return float(-np.expm1(-x) / x)

    rate = p * np.log1p(m)  # x per transaction
    x_target = 20.0
    assert abs(closed_form(x_target) - 0.05) < 1e-9
    n_star = x_target / rate
    predicted, band, window = closed_form(n_early * rate), 0.10, 0.25
    values = [early_min[(m, p, s)] for s in SEEDS]
    crossings = [crossing[(m, p, s)] for s in SEEDS]
    early_ok = all(abs(v - predicted) <= band for v in values)
    cross_ok = all(c is not None and abs(c - n_star) <= window * n_star for c in crossings)
    ok = early_ok and cross_ok
    verdict(
        "2b", ok,
        f"min normalized in first 1e4 txns={np.round(values, 3).tolist()} "
        f"(predicted {predicted:.3f} +/- {band}); first txn <= 0.05={crossings} "
        f"(predicted {n_star:.0f} +/- {window:.0%})",
    )
    assert early_ok, (values, predicted)
    assert cross_ok, (crossings, n_star)


def test_criterion_2c_monotone_in_defect_probability(basic_grid):
    finals, _, _, _ = basic_grid
    probs = (1e-5, 1e-4, 1e-3, 1e-2)
    majorities = []
    for m in (0.001, 0.01):
        votes = 0
        for seed in SEEDS:
            series = [finals[(m, p, seed)] for p in probs]
            votes += all(a >= b for a, b in zip(series, series[1:]))
        majorities.append(votes)
    ok = all(v >= 3 for v in majorities)
    verdict("2c", ok, f"monotone seed votes per m={majorities} (majority of 5)")
    assert ok


def test_criterion_2_qualitative_anchor(basic_grid):
    finals, _, _, elapsed = basic_grid
    values = [finals[(0.01, 1e-4, s)] for s in SEEDS]
    ok = all(0.4 <= v <= 0.8 for v in values)
    per_curve = elapsed / (2 * 4 * len(SEEDS))
    verdict(
        "2q", ok,
        f"final normalized={np.round(values, 3).tolist()} in [0.4, 0.8]; "
        f"~{per_curve:.2f}s/curve (target < 120s)",
    )
    assert ok
    assert per_curve < 120.0


# ---------------------------------------------------------------------------
# Criteria 3 and 5: paper-scale end-to-end runs and oracle equivalence
# ---------------------------------------------------------------------------


@dataclass
class E2ESummary:
    seed: int
    runtime_s: float
    oracle_dev: float
    trusted_means: list[float]
    untrusted_means: list[float]
    norm_in_bounds: bool
    untouched_score_one: bool
    unpenalized_score_one: bool
    engine_state_ok: bool


@pytest.fixture(scope="module")
def e2e_summaries():
    """Run the five paper-scale worlds one at a time, keeping only summaries."""
    from chipchain.harness import run_end_to_end

    trusted_flags = dict(PAPER_SCALE.chains)
    summaries = []
    for seed in SEEDS:
        t0 = time.time()
        result = run_end_to_end(PAPER_SCALE, seed=seed, stride=1000)
        runtime = time.time() - t0
        engine = result.engine
        records = result.replay.ledger.log_records()
        dev = oracle_max_deviation(engine, records)
        means = result.consortium_final_normalized()

        norms = [normalized_score(engine.reputation(e)) for e in engine.known_entities()]
        untouched = [
            e.id for e in result.topology.entities
            if engine.reputation(e.id).r_ideal == 0.0
        ]
        unpenalized_ok = True
        for eid in engine.known_entities():
            rep = engine.reputation(eid)
            if rep.r == rep.r_ideal and rep.r_ideal > 0:
                unpenalized_ok &= normalized_score(rep) == 1.0
        state_ok = _engine_state_is_o1(engine, len(result.replay.ledger.entities))

        summaries.append(
            E2ESummary(
                seed=seed,
                runtime_s=runtime,
                oracle_dev=dev,
                trusted_means=[v for c, v in means.items() if trusted_flags[c]],
                untrusted_means=[v for c, v in means.items() if not trusted_flags[c]],
                norm_in_bounds=all(0.0 <= v <= 1.0 for v in norms),
                untouched_score_one=all(engine.normalized(e) == 1.0 for e in untouched),
                unpenalized_score_one=unpenalized_ok,
                engine_state_ok=state_ok,
            )
        )
        del result, engine, records
        gc.collect()
    return summaries


def test_criterion_3_trusted_consortiums_outperform(e2e_summaries):
    wins = sum(
        min(s.trusted_means) > max(s.untrusted_means) for s in e2e_summaries
    )
    runtimes = [round(s.runtime_s, 1) for s in e2e_summaries]
    ok = wins >= 4
    verdict(
        "3", ok,
        f"strict trusted>untrusted in {wins}/5 seeds; runtimes={runtimes}s (target < 300s)",
    )
    assert ok
    assert all(s.runtime_s < 300 for s in e2e_summaries)


def test_criterion_5_oracle_equivalence(e2e_summaries, tiny_logs):
    devs = [s.oracle_dev for s in e2e_summaries]
    small_devs = tiny_logs
    ok = all(d <= ORACLE_TOLERANCE for d in devs + small_devs)
    verdict(
        "5", ok,
        f"max deviation e2e={max(devs):.2e} small-logs={max(small_devs):.2e} (<= 1e-9)",
    )
    assert ok


@pytest.fixture(scope="module")
def tiny_logs():
    """Oracle deviations for a small simulated world and a ledger-backed basic run."""
    cfg = dataclasses.replace(
        PAPER_SCALE, chiplet_mfrs=5, chiplet_dists=10, ic_mfrs=4, ic_dists=8,
        si_count=4, n_transactions=5_000,
    )
    topo = build_topology(cfg)
    engine = ReputationEngine(topo.view, ReputationParams(decrease_rate=0.3))
    result = replay(generate_stream(topo, cfg), engine=engine)
    dev_sim = oracle_max_deviation(engine, result.ledger.log_records())

    mask = np.random.Generator(np.random.PCG64(5)).random(400) < 0.1
    _, _, _, ledger = ledger_single_seller(mask, 0.2, stride=100)
    dev_basic = oracle_max_deviation(ledger.engine, ledger.log_records())
    return [dev_sim, dev_basic]


# ---------------------------------------------------------------------------
# Criterion 4: sleeper-agent resilience
# ---------------------------------------------------------------------------


def test_criterion_4_sleeper_resilience():
    switch = 500_000
    levels = (0.0015, 0.002)
    wins = {p: 0 for p in levels}
    preswitch_ok = True
    for seed in SEEDS:
        curves = run_attack(0.001, list(levels), switch, N_TXN, seed)
        benign = curves["benign"]
        for p in levels:
            sleeper = curves[f"sleeper-{p:g}"]
            malicious = curves[f"malicious-{p:g}"]
            if abs(sleeper.final_normalized() - malicious.final_normalized()) <= 0.05:
                wins[p] += 1
            pre = sleeper.txn_index <= switch
            gap = float((sleeper.normalized[pre] - benign.normalized[pre]).min())
            preswitch_ok &= gap >= -0.01
    ok = all(w >= 4 for w in wins.values()) and preswitch_ok
    verdict(
        "4", ok,
        f"|sleeper-malicious|<=0.05 in {list(wins.values())}/5 seeds per level; "
        f"pre-switch gap ok={preswitch_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: ledger properties
# ---------------------------------------------------------------------------


def test_criterion_6_replay_two_phase_verify_and_roles():
    cfg = dataclasses.replace(
        PAPER_SCALE, chiplet_mfrs=6, chiplet_dists=12, ic_mfrs=4, ic_dists=8,
        si_count=4, n_transactions=20_000,
    )
    topo = build_topology(cfg)
    result = replay(generate_stream(topo, cfg))
    ledger = result.ledger
    replay_ok = replay(ledger.log_records()).ledger.state_json() == ledger.state_json()

    two_phase_ok = _two_phase_holds()
    verify_ok = _verify_is_effect_free(ledger)
    matrix_failures = _role_matrix_failures()
    ok = replay_ok and two_phase_ok and verify_ok and not matrix_failures
    verdict(
        "6", ok,
        f"replay_identical={replay_ok} two_phase={two_phase_ok} "
        f"verify_effect_free={verify_ok} role_matrix_failures={matrix_failures}",
    )
    assert replay_ok
    assert two_phase_ok
    assert verify_ok
    assert matrix_failures == []


def _two_phase_holds() -> bool:
    ledger, chiplet, ic = build_worked_example()
    extra = hash_device_id("two-phase-probe")
    ledger.register_devices("CM1", "CH", [extra])
    before_owner = ledger.part(extra).owner
    before_prov = ledger.provenance(extra)
    ledger.transfer_chiplets("CM1", "CH", 1, [extra], [Money(5.0)], "CD1")
    pending_ok = (
        ledger.part(extra).owner == before_owner
        and ledger.provenance(extra) == before_prov
    )
    ledger.confirm_transfer("CD1", "CH", 1, [extra])
    return pending_ok and ledger.part(extra).owner == "CD1"


def _verify_is_effect_free(ledger) -> bool:
    state = ledger.state_json()
    log_len = ledger.log_length()
    some_part = next(iter(ledger.parts))
    for _ in range(5):
        ledger.verify("cm001", some_part)
        ledger.verify("cm001", hash_device_id("unknown-probe"))
    return ledger.log_length() == log_len and ledger.state_json() == state


ROLES = [
    Role.CHIPLET_MANUFACTURER,
    Role.CHIPLET_DISTRIBUTOR,
    Role.IC_MANUFACTURER,
    Role.IC_DISTRIBUTOR,
    Role.SYSTEM_INTEGRATOR,
    Role.END_USER,
    Role.TRUSTED_AUTHORITY,
]

# The documented permission matrix: operation -> roles allowed to call it.
ALLOWED = {
    "register_chiplet_type": {Role.CHIPLET_MANUFACTURER},
    "register_ic_type": {Role.IC_MANUFACTURER},
    "register_devices_chiplet": {Role.CHIPLET_MANUFACTURER},
    "register_devices_ic": {Role.IC_MANUFACTURER},
    "transfer_chiplets": {Role.CHIPLET_MANUFACTURER, Role.CHIPLET_DISTRIBUTOR},
    "transfer_ics": {Role.IC_MANUFACTURER, Role.IC_DISTRIBUTOR},
    "consume_chiplets": {Role.IC_MANUFACTURER},
    "report_chiplet": {Role.IC_MANUFACTURER},
    "report_ic": {Role.SYSTEM_INTEGRATOR, Role.END_USER},
    "adjudicate": {Role.TRUSTED_AUTHORITY},
}


def _matrix_world(actor_role: Role):
    """Fresh world where 'actor' of the given role owns one part of each kind."""
    ledger = Ledger()
    ledger.add_chain("main")
    ledger.add_entity(Entity("cm", Role.CHIPLET_MANUFACTURER, "main"))
    ledger.add_entity(Entity("icm", Role.IC_MANUFACTURER, "main"))
    ledger.add_entity(Entity("cd", Role.CHIPLET_DISTRIBUTOR, "main"))
    ledger.add_entity(Entity("icd", Role.IC_DISTRIBUTOR, "main"))
    ledger.add_entity(Entity("ta", Role.TRUSTED_AUTHORITY, "main"))
    names = {e.role: e.id for e in ledger.entities.values()}
    if actor_role in names:
        actor = names[actor_role]
    else:
        actor = "actor"
        ledger.add_entity(Entity(actor, actor_role, "main"))
    ledger.register_chiplet_type("cm", "CH")
    ledger.register_ic_type("icm", "IC")
    chiplet, ic = hash_device_id(f"mx-ch-{actor_role}"), hash_device_id(f"mx-ic-{actor_role}")
    ledger.register_devices("cm", "CH", [chiplet])
    ledger.register_devices("icm", "IC", [ic])
    if actor != "cm":
        ledger.transfer_chiplets("cm", "CH", 1, [chiplet], [Money(1)], actor)
        ledger.confirm_transfer(actor, "CH", 1, [chiplet])
    if actor != "icm":
        ledger.transfer_ics("icm", "IC", 1, [ic], [Money(1)], actor)
        ledger.confirm_transfer(actor, "IC", 1, [ic])
    return ledger, actor, chiplet, ic


def _role_matrix_failures() -> list:
    """Exhaustively enumerate (role, operation); return deviations from the matrix."""
    failures = []
    for role in ROLES:
        ledger, actor, chiplet, ic = _matrix_world(role)
        dest = next(e for e in ("icd", "cd", "icm", "cm") if e != actor)
        attempts = {
            "register_chiplet_type": lambda: ledger.register_chiplet_type(actor, f"t-{role}"),
            "register_ic_type": lambda: ledger.register_ic_type(actor, f"u-{role}"),
            "register_devices_chiplet": lambda: ledger.register_devices(
                actor, "CH", [hash_device_id(f"new-ch-{role}")]
            ),
            "register_devices_ic": lambda: ledger.register_devices(
                actor, "IC", [hash_device_id(f"new-ic-{role}")]
            ),
            "transfer_chiplets": lambda: ledger.transfer_chiplets(
                actor, "CH", 1, [chiplet], [Money(1)], dest
            ),
            "transfer_ics": lambda: ledger.transfer_ics(
                actor, "IC", 1, [ic], [Money(1)], dest
            ),
            "consume_chiplets": lambda: ledger.consume_chiplets(actor, [chiplet], ic),
            "report_chiplet": lambda: ledger.report(actor, [chiplet], 0),
            "report_ic": lambda: ledger.report(actor, [ic], 0),
        }
        for op, attempt in attempts.items():
            allowed = role in ALLOWED[op]
            try:
                attempt()
                outcome = True
            except PermissionDenied:
                outcome = False
            except ChipchainError:
                # Denied for a non-permission reason (e.g. ownership); the
                # permission gate itself admitted the role.
                outcome = True
            if outcome != allowed:
                failures.append((role.value, op))

        # Adjudication needs an open failed report in a fresh world.
        ledger2, actor2, chiplet2, ic2 = _matrix_world(role)
        si = "si-probe"
        ledger2.add_entity(Entity(si, Role.SYSTEM_INTEGRATOR, "main"))
        probe_ic = hash_device_id(f"adj-{role}")
        ledger2.register_devices("icm", "IC", [probe_ic])
        ledger2.transfer_ics("icm", "IC", 1, [probe_ic], [Money(1)], si)
        ledger2.confirm_transfer(si, "IC", 1, [probe_ic])
        rid = ledger2.report(si, [probe_ic], 1)
        allowed = role in ALLOWED["adjudicate"]
        try:
            ledger2.adjudicate(actor2, rid, [])
            outcome = True
        except PermissionDenied:
            outcome = False
        except ChipchainError:
            outcome = True
        if outcome != allowed:
            failures.append((role.value, "adjudicate"))
    return failures


def test_meta_entities_cannot_be_added_directly():
    ledger = Ledger()
    ledger.add_chain("main")
    with pytest.raises(PermissionDenied):
        ledger.add_entity(Entity("X^a_b", Role.META_ENTITY, "main"))


# ---------------------------------------------------------------------------
# Criterion 7: normalized-score properties and O(1) engine state
# ---------------------------------------------------------------------------


def test_criterion_7_normalized_score_properties(e2e_summaries):
    bounds_ok = all(s.norm_in_bounds for s in e2e_summaries)
    untouched_ok = all(s.untouched_score_one for s in e2e_summaries)
    unpenalized_ok = all(s.unpenalized_score_one for s in e2e_summaries)
    slots_ok = EntityReputation.__slots__ == ("r", "r_ideal")
    state_ok = all(s.engine_state_ok for s in e2e_summaries)
    ok = bounds_ok and untouched_ok and unpenalized_ok and slots_ok and state_ok
    verdict(
        "7", ok,
        f"norm_in_[0,1]={bounds_ok} zero_ideal_scores_1={untouched_ok} "
        f"never_penalized_scores_1={unpenalized_ok} per_entity_state=two floats "
        f"no_history={state_ok}",
    )
    assert ok


def _engine_state_is_o1(engine: ReputationEngine, n_entities: int) -> bool:
    """The engine keeps two floats per entity and no per-transaction history.

    Besides its view, parameters and scores it holds only what the ledger
    hands it at attach: the entity registry and the frozen exchange table.
    """
    attrs = vars(engine)
    if set(attrs) != {"view", "params", "entities", "exchange", "_rep"}:
        return False
    if not isinstance(engine.exchange, ExchangeTable):
        return False
    if len(engine._rep) > n_entities:
        return False
    return all(isinstance(v, EntityReputation) for v in engine._rep.values())
