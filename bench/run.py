"""chipchain benchmark: one workload, one seed, one measuring window.

Usage (from the repository root):

    python3 bench/run.py --workload paper_world --seed 0 --seconds 30 --trace 0

Workloads (see bench/baseline.json for their configs and reasons):

  paper_world  write path: ``run_end_to_end`` on the default 1,750-entity,
               4-chain population, then ``Ledger.save_log``.
  audit_views  read path: ``chipchain verify-oracle`` for three observer
               views, then one ``chipchain score``, on a saved log of a
               defect-heavy, cross-chain-heavy world built during set-up.
  curves       harness folds: ``run_basic`` over the default grid and
               ``run_attack`` for five seeds.

The loop is closed with one client: the process is single-threaded and one
iteration starts only after the previous one completes. Iterations repeat the
same input until ``--seconds`` have passed. The benchmark turns ``--seed``
into the inputs (``SimConfig.rng_seed`` and the curve seeds); the program
receives only those.

End-to-end metrics (``--trace 0``):

  setup_s        the median over five fresh interpreters of the time from
                 launch until this file's imports are done, plus the median
                 of five repeats of the workload's set-up
  run_ref        median over iterations of the iteration's wall time divided
                 by the mean wall time of a fixed reference loop run just
                 before and just after it (see ``reference_loop``)
  peak_rss_mb    ``ru_maxrss`` of this process, read when the timed loop
                 ends, before the output checks

The line before the JSON also prints the raw median iteration time
``run_s``, the workload's throughput in items per second (transfers, log
records verified as records x views, or folded transactions), ``failed_share``
and the collector's time per iteration.

With ``--trace 1`` every second iteration runs with the tracer of
bench/spans.py installed; per-layer metrics come from those iterations and
``trace.overhead_s`` is the median traced minus the median untraced time.

Outputs are checked after the timed part. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import chipchain  # noqa: E402

if not Path(chipchain.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"chipchain imported from {chipchain.__file__}, not from this checkout's src/")

from chipchain import cli, harness, ledger, reputation, simulator  # noqa: E402
from chipchain.simulator import SimConfig, assign_behaviors, build_topology  # noqa: E402

from spans import Tracer, targets  # noqa: E402

#: Fresh interpreters started, and set-ups repeated, per run; medians reported.
SETUP_REPEATS = 5

#: Steps of the reference loop timed around every untraced iteration (~40 ms).
REFERENCE_STEPS = 400_000

RELATIVE_TOLERANCE = harness.ORACLE_TOLERANCE

LEDGER_OPS = ("transfer", "confirm", "register", "report", "adjudicate", "consume")

#: (metric, unit, span, field) for every per-layer metric read off the trace.
SPAN_METRICS = [
    ("simulator.generate.self_s", "s", "simulator.generate", "self_s"),
    ("simulator.generate.events", "count", "simulator.generate", "amount"),
    ("simulator.replay.self_s", "s", "simulator.replay", "self_s"),
    ("simulator.samples", "count", "simulator.replay", "amount"),
    *(
        (f"ledger.{op}.{field}", unit, f"ledger.{op}", field)
        for op in LEDGER_OPS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_p99", "us"))
    ),
    ("ledger.apply_record.calls", "count", "ledger.apply_record", "calls"),
    ("ledger.apply_record.self_s", "s", "ledger.apply_record", "self_s"),
    ("ledger.encode_s", "s", "ledger.encode", "self_s"),
    ("ledger.log_bytes", "bytes", "ledger.encode", "amount"),
    ("ledger.decode_s", "s", "ledger.decode", "self_s"),
    ("ledger.records", "count", "ledger.decode", "amount"),
    ("reputation.passed.calls", "count", "reputation.passed", "calls"),
    ("reputation.passed.self_s", "s", "reputation.passed", "self_s"),
    ("reputation.passed.edges", "count", "reputation.passed", "amount"),
    ("reputation.failed.calls", "count", "reputation.failed", "calls"),
    ("reputation.failed.self_s", "s", "reputation.failed", "self_s"),
    ("reputation.failed.penalty_entries", "count", "reputation.failed", "amount"),
    ("domain.is_hashed_id.calls", "count", "domain.is_hashed_id", "calls"),
    ("domain.is_hashed_id.self_s", "s", "domain.is_hashed_id", "self_s"),
    ("domain.hash_device_id.calls", "count", "domain.hash_device_id", "calls"),
    ("domain.hash_device_id.self_s", "s", "domain.hash_device_id", "self_s"),
    ("harness.oracle.self_s", "s", "harness.oracle", "self_s"),
    ("harness.oracle.records", "count", "harness.oracle", "amount"),
    ("harness.aggregate.self_s", "s", "harness.aggregate", "self_s"),
    ("harness.fold.self_s", "s", "harness.fold", "self_s"),
    ("harness.fold.curves", "count", "harness.fold", "calls"),
    ("harness.uniform_draws.self_s", "s", "harness.uniform_draws", "self_s"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("cli.commands", "count", "cli", "calls"),
]


def relative_deviation(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def log_op_counts(path: Path) -> dict[str, int]:
    """Counts read back from a saved NDJSON log, for the trace reconciliation."""
    counts = {"transfer": 0, "report": 0, "passed_ids": 0, "defective_ids": 0}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            op = obj["op"]
            if op == "transfer":
                counts["transfer"] += 1
            elif op == "report":
                counts["report"] += 1
                if obj["result"] == 0:
                    counts["passed_ids"] += len(obj["ids"])
            elif op == "adjudicate":
                counts["defective_ids"] += len(obj["defective"])
    return counts


class Tally:
    """Commands and output checks attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def command(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED command {what}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())


class PaperWorld:
    """Write path: generate, apply, sample and encode the default paper world."""

    name = "paper_world"
    item_metric = ("transfers_per_s", "transfers/s")

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.n = 1_500 if tiny else 10_000
        self.seed = seed
        self.log_path = workdir / "ledger.ndjson"
        self.digests: list[str] = []

    def config(self) -> dict:
        return {"n_transactions": self.n, "population": "SimConfig defaults",
                "defect_probs": "trusted 0.001, untrusted 0.005", "stride": harness.DEFAULT_STRIDE}

    def setup(self) -> None:
        self.cfg = SimConfig(n_transactions=self.n, rng_seed=self.seed)
        self.cfg.validate()

    def items(self) -> int:
        return self.n

    def run_once(self, tally: Tally):
        result = harness.run_end_to_end(self.cfg, seed=self.seed)
        result.replay.ledger.save_log(self.log_path)
        tally.attempted += 2
        return result

    def after_iteration(self, result) -> None:
        self.digests.append(sha256_file(self.log_path))

    def check(self, result, tally: Tally, metrics: dict) -> None:
        led = result.replay.ledger
        deviation = harness.oracle_max_deviation(result.engine, led.log_records())
        tally.check("oracle_max_deviation", deviation <= RELATIVE_TOLERANCE, f"{deviation:.3e}")
        self.counts = log_op_counts(self.log_path)
        tally.check(
            "transfer_count",
            result.replay.txn_count == self.n == self.counts["transfer"],
            f"replay={result.replay.txn_count} log={self.counts['transfer']} n={self.n}",
        )
        norm = result.replay.sample_norm
        tally.check(
            "sampled_normalized_in_0_1",
            norm.size > 0 and bool(np.all((norm >= 0.0) & (norm <= 1.0))),
            f"samples={norm.shape}",
        )
        tally.check(
            "log_identical_across_iterations",
            len(set(self.digests)) == 1,
            f"iterations={len(self.digests)}",
        )
        t = perf_counter()
        state = led.state_json()
        metrics["ledger.state_json_s"] = (perf_counter() - t, "s")
        metrics["ledger.state_bytes"] = (len(state.encode()), "bytes")
        print(f"fingerprint ledger.ndjson sha256={self.digests[-1]}")
        print(f"fingerprint state_json sha256={hashlib.sha256(state.encode()).hexdigest()}")

    def reconcile(self, calls, tally: Tally) -> None:
        c = self.counts
        for check, span, expected in (
            ("trace.transfer_calls", "ledger.transfer", c["transfer"]),
            ("trace.report_calls", "ledger.report", c["report"]),
            ("trace.failed_calls", "reputation.failed", c["defective_ids"]),
            ("trace.passed_calls", "reputation.passed", c["passed_ids"]),
        ):
            got = calls(span)
            tally.check(check, set(got) == {expected}, f"{sorted(set(got))} vs {expected}")


class AuditViews:
    """Read path: validating replay plus oracle, per observer view, off a saved log."""

    name = "audit_views"
    item_metric = ("records_per_s", "records/s")
    VIEWS = (["--trusted-chains", "TC-1,TC-2"], ["--trusted-chains", "TC-1"], [])

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.n = 800 if tiny else 5_000
        self.seed = seed
        self.log_path = workdir / "audit.ndjson"
        self.digests: list[str] = []
        self.score_outputs: list[str] = []

    def config(self) -> dict:
        return {"n_transactions": self.n, "cross_chain_prob": 0.5, "uniform_p": 0.02,
                "untrusted_p": 0.1, "views": [" ".join(v) or "all chains" for v in self.VIEWS],
                "score": "lowest-normalized seller, view TC-1,TC-2"}

    def setup(self) -> None:
        cfg = SimConfig(n_transactions=self.n, cross_chain_prob=0.5, rng_seed=self.seed)
        topology = build_topology(cfg)
        untrusted = {chain: 0.1 for chain, trusted in cfg.chains if not trusted}
        behaviors = assign_behaviors(topology, uniform_p=0.02, per_chain=untrusted)
        result = harness.run_end_to_end(cfg, behaviors=behaviors)
        result.replay.ledger.save_log(self.log_path)
        self.digests.append(sha256_file(self.log_path))
        self.records = result.replay.ledger.log_length()
        engine = result.engine
        sellers = [e.id for e in topology.entities if e.role in harness.SELLING_ROLES]
        self.entity = min(sellers, key=lambda eid: (engine.normalized(eid), eid))
        rep = engine.reputation(self.entity)
        self.expected = (rep.r, rep.r_ideal)

    def items(self) -> int:
        return self.records * len(self.VIEWS)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_once(self, tally: Tally):
        log = str(self.log_path)
        for view in self.VIEWS:
            code, _ = self._cli(["verify-oracle", "--log", log, *view])
            tally.command(code == 0, f"verify-oracle {' '.join(view)}")
        code, out = self._cli(
            ["score", "--log", log, "--entity", self.entity, *self.VIEWS[0]]
        )
        tally.command(code == 0, "score")
        return out

    def after_iteration(self, score_out: str) -> None:
        self.score_outputs.append(score_out)

    def check(self, score_out, tally: Tally, metrics: dict) -> None:
        tally.check("setup_log_identical_across_builds", len(set(self.digests)) == 1)
        r, r_ideal = self.expected
        worst = 0.0
        for out in self.score_outputs:
            try:
                got = json.loads(out)
                worst = max(
                    worst, relative_deviation(got["r"], r), relative_deviation(got["r_ideal"], r_ideal)
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                worst = math.inf
        tally.check(
            "score_matches_setup_engine",
            worst <= RELATIVE_TOLERANCE,
            f"{worst:.3e} over {len(self.score_outputs)} iterations",
        )
        print(f"fingerprint audit.ndjson sha256={self.digests[-1]} records={self.records}")

    def reconcile(self, calls, tally: Tally) -> None:
        expected = self.records * (len(self.VIEWS) + 1)
        got = calls("ledger.apply_record")
        tally.check("trace.apply_record_calls", set(got) == {expected}, f"{sorted(set(got))} vs {expected}")


class Curves:
    """Closed-form single-seller folds: the acceptance grid and attack curves."""

    name = "curves"
    item_metric = ("curve_txns_per_s", "txns/s")
    SEEDS_PER_RUN = 5
    ATTACK_BENIGN_P = 0.001
    ATTACK_MALICIOUS_PS = (0.0015, 0.002)
    CHECK_N = 100_000

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.n = 20_000 if tiny else 1_000_000
        self.seeds = [seed * self.SEEDS_PER_RUN + k for k in range(self.SEEDS_PER_RUN)]

    def config(self) -> dict:
        return {"n_txn": self.n, "seeds_per_run": self.SEEDS_PER_RUN,
                "basic_grid": [list(harness.BASIC_M_VALUES), list(harness.BASIC_DEFECT_PROBS)],
                "attack": {"benign_p": self.ATTACK_BENIGN_P,
                           "malicious_ps": list(self.ATTACK_MALICIOUS_PS), "switch_at": "n/2"}}

    def setup(self) -> None:
        self.grid = (harness.BASIC_M_VALUES, harness.BASIC_DEFECT_PROBS)
        self.n_curves = len(self.grid[0]) * len(self.grid[1]) + 1 + 2 * len(self.ATTACK_MALICIOUS_PS)

    def items(self) -> int:
        return self.n * self.n_curves * len(self.seeds)

    def run_once(self, tally: Tally):
        out = []
        for s in self.seeds:
            basic = harness.run_basic(*self.grid, self.n, s)
            attack = harness.run_attack(
                self.ATTACK_BENIGN_P, list(self.ATTACK_MALICIOUS_PS), self.n // 2, self.n, s
            )
            tally.attempted += 2
            out.append((basic, attack))
        return out

    def after_iteration(self, result) -> None:
        pass

    def check(self, result, tally: Tally, metrics: dict) -> None:
        series = [c for basic, attack in result for c in (*basic.values(), *attack.values())]
        tally.check("curve_count", len(series) == self.n_curves * len(self.seeds), str(len(series)))
        tally.check(
            "normalized_in_0_1",
            all(np.all((c.normalized >= 0.0) & (c.normalized <= 1.0)) for c in series),
        )
        switch = self.n // 2
        same = True
        for _basic, attack in result:
            benign = attack["benign"]
            before = benign.txn_index <= switch
            for p in self.ATTACK_MALICIOUS_PS:
                same &= bool(np.array_equal(attack[f"sleeper-{p:g}"].r[before], benign.r[before]))
        tally.check("sleeper_matches_benign_before_switch", same)
        m, p = self.grid[0][-1], self.grid[1][-1]
        cell = harness.run_basic([m], [p], self.CHECK_N, self.seeds[0])[(m, p)]
        naive = harness.naive_single_seller(harness.defect_mask(self.CHECK_N, p, self.seeds[0]), m)
        worst = max(
            relative_deviation(a, b) for a, b in zip(cell.r, naive[cell.txn_index - 1])
        )
        tally.check("fold_matches_naive", worst <= RELATIVE_TOLERANCE, f"{worst:.3e}")

    def reconcile(self, calls, tally: Tally) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperWorld, AuditViews, Curves)}


def import_seconds() -> float:
    """Seconds from launching a fresh interpreter until this file's imports are done."""
    t = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = ['src', 'bench']; import run"],
        cwd=ROOT, check=True,
    )
    return perf_counter() - t


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop.

    The loop runs no chipchain code and creates no container objects, so
    neither the program nor its collector settings can change its cost; only
    the host's speed does. On a shared host that speed drifts by a quarter
    within seconds, and dividing each iteration's time by the mean time of
    the loop run just before and just after it cancels most of the drift.
    """
    t = perf_counter()
    x = 0
    for i in range(REFERENCE_STEPS):
        x = (x * 31 + i) & 0xFFFFF
    return perf_counter() - t


class GcClock:
    """``gc.callbacks`` hook: seconds spent in collections and their number."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections += 1


def layer_metrics(tracer: Tracer, metrics: dict) -> None:
    """Median over traced iterations of every span-derived metric."""
    table = tracer.per_iteration()
    for metric, unit, span, field in SPAN_METRICS:
        if field in ("us_p50", "us_p99"):
            durations = tracer.durations_us(span)
            q = 50 if field == "us_p50" else 99
            value = float(np.percentile(durations, q)) if len(durations) else 0.0
        else:
            value = float(np.median(table[field][:, tracer.index(span)]))
            if unit == "count" or unit == "bytes":
                value = int(round(value))
        metrics[metric] = (value, unit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, Path(tmp))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t)
        imports = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
        setup_s = imports + statistics.median(setup_times)

        modules = {"harness": harness, "cli": cli, "ledger": ledger,
                   "reputation": reputation, "simulator": simulator}
        tracer = Tracer(targets(modules)) if args.trace else None
        clock = GcClock()
        gc.callbacks.append(clock)
        plain, reference, traced, gc_s, gc_n = [], [], [], [], []
        result = None
        min_iterations = 2 if args.trace else 1
        window = perf_counter()
        i = 0
        while i < min_iterations or perf_counter() - window < args.seconds:
            is_traced = bool(args.trace) and i % 2 == 1
            result = None  # release the previous world before building the next
            gc.collect()  # every iteration starts from the same collector state
            if is_traced:
                tracer.install()
            else:
                before = reference_loop()
            g_s, g_n = clock.seconds, clock.collections
            t = perf_counter()
            result = workload.run_once(tally)
            dt = perf_counter() - t
            if is_traced:
                tracer.uninstall()
                traced.append(dt)
            else:
                reference.append((before + reference_loop()) / 2)
                plain.append(dt)
                gc_s.append(clock.seconds - g_s)
                gc_n.append(clock.collections - g_n)
            workload.after_iteration(result)
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracked = len(gc.get_objects())
        gc.callbacks.remove(clock)

        workload.check(result, tally, metrics)
        result = None
        run_s = statistics.median(plain)
        reference_s = statistics.median(reference)
        run_ref = statistics.median(t / ref for t, ref in zip(plain, reference))
        items = workload.items()
        if tracer is not None:
            layer_metrics(tracer, metrics)
            calls = tracer.per_iteration()["calls"]
            workload.reconcile(lambda span: [int(c) for c in calls[:, tracer.index(span)]], tally)
            metrics.setdefault("ledger.state_json_s", (0.0, "s"))  # only paper_world
            metrics.setdefault("ledger.state_bytes", (0, "bytes"))
            metrics["process.gc_s"] = (statistics.median(gc_s), "s")
            metrics["process.gc_collections"] = (int(statistics.median(gc_n)), "count")
            metrics["process.gc_tracked_objects"] = (tracked, "count")
            metrics["trace.overhead_s"] = (statistics.median(traced) - run_s, "s")
            for name in tracer.absent:
                print(f"absent layer {name}")
            for name in sorted(tracer.unmeasured):
                print(f"unmeasured amount for layer {name}")
            tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")

    item_name, item_unit = workload.item_metric
    failed_share = tally.failed / tally.attempted
    print(
        f"workload={args.workload} seed={args.seed} iterations={len(plain)} "
        f"traced_iterations={len(traced)} items_per_iteration={items}"
    )
    summary = [
        ("setup_s", setup_s, "s"),
        ("run_s", run_s, "s"),
        (item_name, items / run_s, item_unit),
        ("reference_s", reference_s, "s"),
        ("run_ref", run_ref, "ref"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("failed_share", failed_share, "share"),
        ("gc_s", statistics.median(gc_s), "s"),
    ]
    print("  ".join(f"{name}={value:.6g} {unit}" for name, value, unit in summary))

    if args.trace:
        reported = metrics
    else:
        reported = {
            "setup_s": (setup_s, "s"),
            "run_ref": (run_ref, "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
