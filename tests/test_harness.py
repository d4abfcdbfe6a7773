import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipchain import harness
from chipchain.domain import STANDARD_TABLE
from chipchain.errors import InvalidConfig
from chipchain.harness import (
    ATTACK_DECREASE_RATE,
    BASIC_DEFECT_PROBS,
    BASIC_M_VALUES,
    _BLOCK,
    _p95,
    _sample_positions,
    defect_mask,
    export_csv,
    fold_single_seller,
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
from references import ledger_single_seller, mask_fold_single_seller

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


class TestUniformDraws:
    """The block-wise threshold pass gives exactly the one-shot stream's draws."""

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("level", [0.0, 5e-324, 0.01, 0.5, 1.0])
    def test_blocks_join_into_one_stream(self, n, level):
        seed = 21
        u = np.random.Generator(np.random.PCG64(seed)).random(n)
        want = np.flatnonzero(u < level)
        positions, values = uniform_draws(n, seed, level)
        assert positions.dtype == want.dtype
        assert values.dtype == u.dtype
        assert np.array_equal(positions, want)
        assert np.array_equal(values, u[want])
        assert np.array_equal(defect_mask(n, level, seed), u < level)

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: run_basic(BASIC_M_VALUES, BASIC_DEFECT_PROBS, n, seed=0),
            lambda n: run_attack(0.001, [0.0015, 0.002], n // 2, n, seed=0),
        ],
        ids=["basic", "attack"],
    )
    def test_curve_memory_follows_defects_not_n(self, run):
        # One float64 per transaction would be 30.5 MiB at this n.
        tracemalloc.start()
        try:
            run(4_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSingleSellerFold:
    def test_fold_matches_naive_loop(self):
        mask = defect_mask(10_000, 0.01, seed=3)
        idx, r, _ = fold_single_seller(np.flatnonzero(mask) + 1, len(mask), 0.01, stride=137)
        reference = naive_single_seller(mask, 0.01)
        assert np.allclose(r, reference[idx - 1], rtol=1e-12)

    def test_fold_matches_full_ledger(self):
        mask = defect_mask(2_000, 0.02, seed=9)
        idx_a, r_a, norm_a = fold_single_seller(
            np.flatnonzero(mask) + 1, len(mask), 0.05, stride=250
        )
        idx_b, r_b, norm_b, _ = ledger_single_seller(mask, 0.05, stride=250)
        assert np.array_equal(idx_a, idx_b)
        assert np.allclose(r_a, r_b, rtol=1e-12)
        assert np.allclose(norm_a, norm_b, rtol=1e-12)

    def test_final_sample_always_present(self):
        mask = defect_mask(1_050, 0.0, seed=0)
        idx, _, _ = fold_single_seller(np.flatnonzero(mask) + 1, len(mask), 0.01, stride=500)
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
        idx, r, norm = fold_single_seller(np.flatnonzero(mask) + 1, len(mask), 0.25, stride)
        reference = naive_single_seller(mask, 0.25)
        assert idx[-1] == n
        assert np.allclose(r, reference[idx - 1], rtol=1e-12, atol=0.0)
        assert np.allclose(norm, reference[idx - 1] / idx, rtol=1e-12, atol=0.0)

    def test_all_defects_keep_r_at_zero_and_none_keep_it_at_n(self):
        all_defects = np.flatnonzero(np.ones(50, dtype=bool)) + 1
        assert np.all(fold_single_seller(all_defects, 50, 0.1, 10)[1] == 0.0)
        idx, r, norm = fold_single_seller(np.flatnonzero(np.zeros(50, dtype=bool)) + 1, 50, 0.1, 10)
        assert np.array_equal(r, idx.astype(np.float64))
        assert np.all(norm == 1.0)

    def test_stride_beyond_n_samples_only_the_end(self):
        idx, _, _ = fold_single_seller(
            np.flatnonzero(self.mask_with(30, [5])) + 1, 30, 0.1, stride=1_000
        )
        assert list(idx) == [30]


@st.composite
def fold_cases(draw):
    """(n, stride, decrease rate, defect mask) with the fold's edge cases likely."""
    n = draw(st.integers(1, 2_000))
    stride = draw(st.integers(1, n + 10))
    m = draw(st.sampled_from([1e-9, 0.01, 0.25, 3.0]))
    mask = np.zeros(n, dtype=bool)
    shape = draw(st.sampled_from(["none", "all", "sparse", "dense"]))
    if shape == "all":
        mask[:] = True
    elif shape == "sparse":
        mask[[d - 1 for d in draw(st.sets(st.integers(1, n), max_size=40))]] = True
    elif shape == "dense":
        seed = draw(st.integers(0, 2**32 - 1))
        mask = np.random.default_rng(seed).random(n) < draw(st.floats(0.0, 1.0))
    if shape != "none":
        mask[0] |= draw(st.booleans())
        mask[-1] |= draw(st.booleans())
        if draw(st.booleans()):
            mask[_sample_positions(n, stride) - 1] = True
    return n, stride, m, mask


class TestPositionFold:
    """The position fold gives the mask fold's doubles, bit for bit."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fold_cases())
    def test_matches_the_mask_fold(self, case):
        n, stride, m, mask = case
        got = fold_single_seller(np.flatnonzero(mask) + 1, n, m, stride)
        want = mask_fold_single_seller(mask, m, stride)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def assert_same_series(a, b):
    assert np.array_equal(a.txn_index, b.txn_index)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.normalized, b.normalized)


class TestSharedThresholdPass:
    """A curve folded from the shared pass equals the curve run on its own."""

    def test_basic_grid_cells_equal_lone_cells(self):
        ms, ps = [0.25, 0.001], [0.3, 0.0, 1.0, 0.05]
        grid = run_basic(ms, ps, 3_000, seed=5, stride=7)
        for m in ms:
            for p in ps:
                assert_same_series(grid[(m, p)], run_basic([m], [p], 3_000, 5, stride=7)[(m, p)])

    @pytest.mark.parametrize("switch_at", [0, 1, 1_500, 2_999])
    def test_attack_curves_equal_lone_levels(self, switch_at):
        benign_p, levels = 0.1, [0.3, 0.02]  # one above the benign level, one below
        both = run_attack(benign_p, levels, switch_at, 3_000, seed=4, stride=7)
        for p in levels:
            lone = run_attack(benign_p, [p], switch_at, 3_000, seed=4, stride=7)
            for label in ("benign", f"malicious-{p:g}", f"sleeper-{p:g}"):
                assert_same_series(both[label], lone[label])


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

    def test_repeated_grid_values_fold_and_write_once(self, tmp_path, monkeypatch):
        folds, writes = [], []

        def fold(*args):
            folds.append(args)
            return fold_single_seller(*args)

        def write(path, series):
            writes.append(path.name)
            return write_series_csv(path, series)

        monkeypatch.setattr(harness, "fold_single_seller", fold)
        monkeypatch.setattr(harness, "write_series_csv", write)
        curves = run_basic([0.01, 0.01], [0.5, 0.5], 1_000, 0, out_dir=tmp_path)
        assert (len(folds), writes) == (1, ["basic_m0.01_p0.5_seed0.csv"])
        lone = run_basic([0.01], [0.5], 1_000, 0)
        assert list(curves) == list(lone) == [(0.01, 0.5)]
        assert_same_series(curves[(0.01, 0.5)], lone[(0.01, 0.5)])

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            run_basic([], [0.1], 10, seed=0)
        with pytest.raises(InvalidConfig):
            run_basic([0.01], [], 10, seed=0)
        with pytest.raises(InvalidConfig):
            run_basic([0.01], [0.1], 0, seed=0)

    @pytest.mark.parametrize(
        "m_values, probs, n_txn",
        [([0.01], [True], 100), ([True], [0.1], 100), ([0.01], [0.1], True)],
    )
    def test_bool_inputs_rejected(self, m_values, probs, n_txn):
        with pytest.raises(InvalidConfig):
            run_basic(m_values, probs, n_txn, seed=0)


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
        u = np.random.Generator(np.random.PCG64(seed)).random(n)
        mask = u < np.where(np.arange(n) < switch_at, benign_p, p)
        idx, r, norm = fold_single_seller(
            np.flatnonzero(mask) + 1, len(mask), ATTACK_DECREASE_RATE, stride=1
        )
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
        with pytest.raises(InvalidConfig, match="switch_at"):
            run_attack(0.001, [0.01], False, 100, seed=0)

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


def curve_digest_runs():
    """Every curve the recorded digest covers, each run's curves in sorted order."""
    n = 200_000
    for seed in range(3):
        yield run_basic(BASIC_M_VALUES, BASIC_DEFECT_PROBS, n, seed)
        for switch_at in (0, 1, n // 2, n - 1):
            yield run_attack(0.001, [0.0015, 0.002], switch_at, n, seed)
    # The shapes of the golden CLI curve runs, and stride 1 at a small n.
    yield run_basic([0.001, 0.01], [0.002, 0.05], 5_003, seed=7, stride=250)
    yield run_attack(0.002, [0.01, 0.05], 2_000, 5_003, seed=3, stride=250, decrease_rate=0.05)
    yield run_basic([0.001, 0.01, 0.25], [1.0, 0.0, 0.3, 0.05], 300, seed=1, stride=1)
    yield run_attack(0.05, [0.3, 0.01], 150, 300, seed=2, stride=1)


class TestCurveDigest:
    """The sampled doubles of the single-seller curves, pinned bit for bit.

    The CSVs print six decimals, so the golden CSV digests cannot see a change
    in the last bits of ``r``; this digest hashes the arrays themselves.
    """

    #: Recorded while the fold still walked a length-n defect mask.
    DIGEST = "1dc3a39eeac07cf0a986d97c4ef2e79be90cdea2d6338f65ba70a5ba29f5b2cf"

    def test_curves_match_recorded_digest(self):
        digest = hashlib.sha256()
        for curves in curve_digest_runs():
            for key in sorted(curves):
                series = curves[key]
                for array in (series.txn_index, series.r, series.normalized):
                    digest.update(array.tobytes())
        assert digest.hexdigest() == self.DIGEST


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


def percentile_cases():
    """Seeded random matrices, then edge cases: one column, one row, ties, ±inf, NaN."""
    rng = np.random.default_rng(95)
    for n in (2, 3, 7, 20, 21, 22, 41, 100, 1754):
        yield f"normal_{n}", rng.normal(size=(5, n)) * 10.0 ** rng.integers(-3, 4, size=(5, 1))
    yield "one_column", rng.normal(size=(4, 1))
    yield "one_row", rng.normal(size=(1, 30))
    yield "no_rows", np.empty((0, 9))
    yield "repeated", rng.integers(0, 3, size=(6, 25)).astype(np.float64)
    yield "signed_zeros", rng.choice([-0.0, 0.0], size=(6, 25))
    yield "infinities", rng.choice([-np.inf, -1.0, 0.0, 2.5, np.inf], size=(8, 21))
    with_nan = rng.normal(size=(6, 40))
    with_nan[1, 3] = with_nan[4, 39] = np.nan
    with_nan[4, 0] = -np.nan
    yield "nan_in_some_rows", with_nan
    yield "all_nan_one_column", np.array([[np.nan], [1.0], [-np.inf]])


class TestP95:
    """The aggregate's p95 is ``np.percentile(x, 95, axis=1)`` to the bit."""

    @pytest.mark.parametrize("x", [pytest.param(x, id=name) for name, x in percentile_cases()])
    def test_same_bytes_as_np_percentile(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            want = np.percentile(x, 95, axis=1)
            got = _p95(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_an_end_to_end_run_never_imports_numpy_ma(self):
        # numpy.ma costs about 1.1 MB a process; np.percentile imports it.
        code = (
            "import sys\n"
            "from chipchain.harness import run_end_to_end\n"
            "from chipchain.simulator import SimConfig\n"
            "run_end_to_end(SimConfig(n_transactions=300), stride=50)\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "True False\n"), proc.stderr


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

    @pytest.mark.parametrize(
        "engine_rep, oracle_rep",
        [((math.nan, 3.0), (3.0, 3.0)), ((3.0, math.nan), (3.0, 3.0)),
         ((math.inf, 3.0), (3.0, 3.0)), ((3.0, math.inf), (3.0, 3.0)),
         ((3.0, 3.0), (math.nan, 3.0)), ((3.0, 3.0), (3.0, math.nan)),
         ((3.0, 3.0), (math.inf, 3.0)), ((3.0, 3.0), (3.0, math.inf)),
         ((math.inf, 3.0), (math.inf, 3.0))],
        ids=["engine_r_nan", "engine_ideal_nan", "engine_r_inf", "engine_ideal_inf",
             "oracle_r_nan", "oracle_ideal_nan", "oracle_r_inf", "oracle_ideal_inf", "both_inf"],
    )
    def test_a_non_finite_reputation_is_an_infinite_deviation(
        self, monkeypatch, engine_rep, oracle_rep
    ):
        # max(0.0, nan) is 0.0, and inf against a finite number or inf is nan:
        # a fold by max alone would report each of these as agreement.
        _, _, _, ledger = ledger_single_seller(np.zeros(3, dtype=bool), 0.1, stride=10)
        engine = ledger.engine
        assert oracle_max_deviation(engine, ledger.log_records()) == 0.0
        engine._rep["maker"].r, engine._rep["maker"].r_ideal = engine_rep
        recompute = harness.oracle_recompute
        monkeypatch.setattr(
            harness, "oracle_recompute", lambda *args: {**recompute(*args), "maker": oracle_rep}
        )
        assert oracle_max_deviation(engine, ledger.log_records()) == math.inf


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
