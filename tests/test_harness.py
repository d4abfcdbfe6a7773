import numpy as np
import pytest

from chipchain.domain import STANDARD_TABLE
from chipchain.errors import InvalidConfig
from chipchain.harness import (
    ATTACK_DECREASE_RATE,
    defect_mask,
    export_csv,
    fold_single_seller,
    ledger_single_seller,
    naive_single_seller,
    oracle_max_deviation,
    oracle_recompute,
    run_attack,
    run_basic,
    run_end_to_end,
    uniform_draws,
    write_series_csv,
    write_traces,
)
from chipchain.reputation import ObserverView, ReputationEngine, ReputationParams
from chipchain.simulator import SimConfig, build_topology, generate_stream, replay

E2E_SMALL = SimConfig(
    chiplet_mfrs=6,
    chiplet_dists=12,
    ic_mfrs=4,
    ic_dists=8,
    si_count=4,
    chains=(("TC-1", True), ("UC-1", False)),
    n_transactions=2_000,
    rng_seed=5,
)


class TestSingleSellerFold:
    def test_fold_matches_naive_loop(self):
        mask = defect_mask(10_000, 0.01, seed=3)
        idx, r, _ = fold_single_seller(mask, 0.01, stride=137)
        reference = naive_single_seller(mask, 0.01)
        assert np.allclose(r, reference[idx - 1], rtol=1e-12)

    def test_fold_matches_full_ledger(self):
        mask = defect_mask(2_000, 0.02, seed=9)
        idx_a, r_a, norm_a = fold_single_seller(mask, 0.05, stride=250)
        idx_b, r_b, norm_b, _ = ledger_single_seller(mask, 0.05, stride=250)
        assert np.array_equal(idx_a, idx_b)
        assert np.allclose(r_a, r_b, rtol=1e-12)
        assert np.allclose(norm_a, norm_b, rtol=1e-12)

    def test_final_sample_always_present(self):
        mask = defect_mask(1_050, 0.0, seed=0)
        idx, _, _ = fold_single_seller(mask, 0.01, stride=500)
        assert list(idx) == [500, 1000, 1050]

    @staticmethod
    def mask_with(n, defects):
        """A length-``n`` mask with defects at the given 1-based positions."""
        mask = np.zeros(n, dtype=bool)
        mask[[d - 1 for d in defects]] = True
        return mask

    @pytest.mark.parametrize(
        "n, defects, stride",
        [
            (100, [1], 10),
            (100, [1, 2, 3], 1),
            (100, [30, 55, 100], 10),
            (100, [10, 11, 20, 21, 99, 100], 10),
            (100, range(1, 101), 10),
            (100, [], 10),
            (100, [7, 40], 250),
            (1, [1], 1),
        ],
        ids=[
            "defect_at_first_txn", "leading_run", "defects_on_samples_and_at_n",
            "defects_beside_samples", "all_defects", "no_defects", "stride_beyond_n",
            "single_defective_txn",
        ],
    )
    def test_edge_masks_match_naive_loop(self, n, defects, stride):
        mask = self.mask_with(n, defects)
        idx, r, norm = fold_single_seller(mask, 0.25, stride)
        reference = naive_single_seller(mask, 0.25)
        assert idx[-1] == n
        assert np.allclose(r, reference[idx - 1], rtol=1e-12, atol=0.0)
        assert np.allclose(norm, reference[idx - 1] / idx, rtol=1e-12, atol=0.0)

    def test_all_defects_keep_r_at_zero_and_none_keep_it_at_n(self):
        assert np.all(fold_single_seller(np.ones(50, dtype=bool), 0.1, 10)[1] == 0.0)
        idx, r, norm = fold_single_seller(np.zeros(50, dtype=bool), 0.1, 10)
        assert np.array_equal(r, idx.astype(np.float64))
        assert np.all(norm == 1.0)

    def test_stride_beyond_n_samples_only_the_end(self):
        idx, _, _ = fold_single_seller(self.mask_with(30, [5]), 0.1, stride=1_000)
        assert list(idx) == [30]


class TestRunBasic:
    def test_zero_defects_keep_normalized_at_one(self):
        series = run_basic([0.01], [0.0], 5_000, seed=4, stride=500)[(0.01, 0.0)]
        assert np.all(series.normalized == 1.0)
        assert series.r[-1] == 5_000.0

    def test_grid_runs_and_writes(self, tmp_path):
        curves = run_basic([0.01], [0.0, 0.5], 1_000, seed=1, out_dir=tmp_path, stride=200)
        assert set(curves) == {(0.01, 0.0), (0.01, 0.5)}
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["basic_m0.01_p0.5_seed1.csv", "basic_m0.01_p0_seed1.csv"]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            run_basic([], [0.1], 10, seed=0)
        with pytest.raises(InvalidConfig):
            run_basic([0.01], [], 10, seed=0)
        with pytest.raises(InvalidConfig):
            run_basic([0.01], [0.1], 0, seed=0)


class TestRunAttack:
    def test_sleeper_tracks_benign_before_switch(self):
        curves = run_attack(0.001, [0.002], 5_000, 10_000, seed=2, stride=500)
        benign = curves["benign"]
        sleeper = curves["sleeper-0.002"]
        pre = benign.txn_index <= 5_000
        assert np.array_equal(benign.r[pre], sleeper.r[pre])

    @pytest.mark.parametrize("switch_at", [0, 1, 59])
    @pytest.mark.parametrize("benign_p, p", [(0.0, 1.0), (0.2, 0.7)])
    def test_sleeper_matches_threshold_construction(self, switch_at, benign_p, p):
        # The sleeper's mask is the benign level before switch_at and the
        # malicious level from it on, as one per-position threshold gives.
        n, seed = 60, 11
        curves = run_attack(benign_p, [p], switch_at, n, seed, stride=1)
        u = uniform_draws(n, seed)
        mask = u < np.where(np.arange(n) < switch_at, benign_p, p)
        idx, r, norm = fold_single_seller(mask, ATTACK_DECREASE_RATE, stride=1)
        sleeper = curves[f"sleeper-{p:g}"]
        assert np.array_equal(sleeper.txn_index, idx)
        assert np.array_equal(sleeper.r, r)
        assert np.array_equal(sleeper.normalized, norm)

    def test_degenerate_levels_identical(self):
        curves = run_attack(0.001, [0.001], 5_000, 10_000, seed=2)
        assert np.array_equal(curves["benign"].r, curves["malicious-0.001"].r)
        assert np.array_equal(curves["benign"].r, curves["sleeper-0.001"].r)

    def test_bad_switch_rejected(self):
        with pytest.raises(InvalidConfig):
            run_attack(0.001, [0.002], 10_000, 10_000, seed=0)

    def test_no_malicious_level_rejected(self):
        with pytest.raises(InvalidConfig):
            run_attack(0.001, [], 5, 10, seed=0)

    def test_writes_one_csv_per_behavior(self, tmp_path):
        run_attack(0.001, [0.002], 100, 1_000, seed=0, out_dir=tmp_path, stride=100)
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "attack_benign_seed0.csv",
            "attack_malicious-0.002_seed0.csv",
            "attack_sleeper-0.002_seed0.csv",
        ]


class TestRunEndToEnd:
    def test_pipeline_produces_aggregates(self):
        result = run_end_to_end(E2E_SMALL, stride=500)
        agg = result.aggregate
        assert agg.txn_index[-1] == E2E_SMALL.n_transactions
        lengths = {len(v["mean_norm"]) for v in agg.groups.values()}
        assert lengths == {len(agg.txn_index)}  # equal series lengths
        assert ("TC-1", "CM") in agg.groups

    def test_all_trusted_uniform_is_symmetric(self):
        cfg = SimConfig(
            chiplet_mfrs=6, chiplet_dists=12, ic_mfrs=4, ic_dists=8, si_count=4,
            chains=(("TC-1", True), ("TC-2", True)),
            n_transactions=20_000, rng_seed=3,
        )
        result = run_end_to_end(cfg, stride=5_000)
        means = result.consortium_final_normalized()
        gap = abs(means["TC-1"] - means["TC-2"])
        assert gap < 0.02

    def test_distinct_seeds_distinct_series(self):
        a = run_end_to_end(E2E_SMALL, stride=500)
        b = run_end_to_end(E2E_SMALL, seed=6, stride=500)
        assert not np.array_equal(
            a.aggregate.groups[("TC-1", "CM")]["mean_norm"],
            b.aggregate.groups[("TC-1", "CM")]["mean_norm"],
        )

    def test_same_seed_reproduces(self):
        a = run_end_to_end(E2E_SMALL, stride=500)
        b = run_end_to_end(E2E_SMALL, stride=500)
        assert np.array_equal(
            a.aggregate.groups[("UC-1", "CD")]["mean_norm"],
            b.aggregate.groups[("UC-1", "CD")]["mean_norm"],
        )


class TestOracle:
    def test_empty_log(self):
        view = ObserverView("main", frozenset({"main"}))
        assert oracle_recompute([], ReputationParams(), view, STANDARD_TABLE) == {}

    def test_single_pass_lifecycle_sums_path_amounts(self):
        mask = np.zeros(3, dtype=bool)
        _, _, _, ledger = ledger_single_seller(mask, 0.1, stride=10)
        engine = ledger.engine
        oracle = oracle_recompute(ledger.log_records(), engine.params, engine.view, engine.exchange)
        assert oracle["maker"] == (3.0, 3.0)

    def test_matches_engine_on_simulated_world(self):
        topology = build_topology(E2E_SMALL)
        engine = ReputationEngine(topology.view, ReputationParams(decrease_rate=0.3))
        result = replay(generate_stream(topology, E2E_SMALL), engine=engine)
        deviation = oracle_max_deviation(engine, result.ledger.log_records())
        assert deviation <= 1e-9

    def test_matches_engine_with_raw_form_and_discounts(self):
        topology = build_topology(E2E_SMALL)
        params = ReputationParams(decrease_rate=2.0, trusted_discount=3.0, penalty_form="raw")
        engine = ReputationEngine(topology.view, params)
        result = replay(generate_stream(topology, E2E_SMALL), engine=engine)
        assert oracle_max_deviation(engine, result.ledger.log_records()) <= 1e-9

    def test_detects_engine_divergence(self):
        # Sanity: the check is not vacuous.
        mask = np.ones(5, dtype=bool)
        _, _, _, ledger = ledger_single_seller(mask, 0.5, stride=10)
        engine = ledger.engine
        engine._rep["maker"].r += 1.0
        assert oracle_max_deviation(engine, ledger.log_records()) > 1e-9


class TestCsvExport:
    def test_empty_series_header_only(self, tmp_path):
        path = export_csv(tmp_path / "empty.csv", ["a", "b"], [], comment="x=1")
        assert path.read_text() == "# x=1\na,b\n"

    def test_reexport_byte_identical(self, tmp_path):
        series = run_basic([0.01], [0.1], 500, seed=0, stride=100)[(0.01, 0.1)]
        p1 = write_series_csv(tmp_path / "one.csv", series)
        p2 = write_series_csv(tmp_path / "two.csv", series)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_count_and_fixed_point(self, tmp_path):
        series = run_basic([0.01], [0.1], 1_000, seed=0, stride=100)[(0.01, 0.1)]
        path = write_series_csv(tmp_path / "s.csv", series)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "txn_index,r,normalized"
        assert len(lines) == 2 + 10
        assert lines[2].count(".") == 2  # six-decimal fixed point values

    def test_io_error_carries_path(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        with pytest.raises(OSError, match="dir-not-file"):
            export_csv(target, ["a"], [])


class TestTraces:
    def test_replay_collects_penalty_traces(self, tmp_path):
        mask = np.array([False, True, False, True])
        _, _, _, ledger = ledger_single_seller(mask, 0.5, stride=10)
        live = ledger.engine
        fresh = ReputationEngine(live.view, live.params)
        result = replay(ledger.log_records(), engine=fresh)
        assert [trace.part for trace in result.traces] == [f"{2:064x}", f"{4:064x}"]
        out = write_traces(tmp_path / "traces.ndjson", result.traces)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert '"rate":0.5' in lines[0]
