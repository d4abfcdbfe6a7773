"""Run every workload over seeds 0-9 twice, check the spread, write a baseline.

    python3 bench/baseline.py

Each run is a fresh ``bench/run.py`` process, started only after the previous
one ended. The first set covers every workload in BENCHMARK.json, then the
second set repeats it. For every end-to-end metric and set the summary gives
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the quartile distance as a share of the median, next
to a third of the metric's bound. ``agreement`` records how much worse the
second set's median is than the first's, as a share of the first, against the
bound. One traced run at the default seed gives the per-layer baseline. The
result, with the machine and the workload configs, is written to
bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The seed quoted by default, and one never used while the benchmark was tuned.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

SEEDS = range(10)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_set(names: list[str], seconds: int) -> dict:
    """End-to-end summaries of one set: every workload over SEEDS."""
    summaries = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = run(name, seed, seconds, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        summaries[name] = {m: summarize(v) for m, v in values.items()}
    return summaries


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sys.path.insert(0, str(BENCH_DIR))
    import run as bench  # noqa: E402  (imports chipchain from this checkout)

    out = {
        "machine": machine(),
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED, "runs": list(SEEDS)},
        "run_seconds": spec["run_seconds"],
        "load": "closed loop, one client, one single-threaded process per run",
        "workloads": {},
        "end_to_end": {},
        "agreement": {},
        "per_layer": {},
    }
    for w in spec["workloads"]:
        workload = bench.WORKLOADS[w["name"]](DEFAULT_SEED, False, BENCH_DIR / "out")
        out["workloads"][w["name"]] = {"why": w["why"], "config": workload.config()}
    sets = [run_set(names, spec["run_seconds"]) for _ in range(SETS)]
    for name in names:
        out["end_to_end"][name] = {
            metric: {f"set{k + 1}": sets[k][name][metric] for k in range(SETS)}
            for metric in metrics
        }
        out["agreement"][name] = {}
        for metric, m in metrics.items():
            first, second = (sets[k][name][metric]["median"] for k in range(2))
            worse_by = (second - first) / first * (1 if m["better"] == "lower" else -1)
            out["agreement"][name][metric] = {"worse_by": worse_by, "bound": m["bound"]}
            for k in range(SETS):
                q = sets[k][name][metric]
                limit = m["bound"] / 3
                flag = "ok" if q["spread"] < limit or metric == "setup_s" else "WIDE"
                print(
                    f"set{k + 1} {name:12s} {metric:12s} median={q['median']:<12.6g} "
                    f"q1={q['q1']:<12.6g} q3={q['q3']:<12.6g} spread={q['spread']:.4f} "
                    f"bound/3={limit:.4f} {flag}"
                )
            flag = "ok" if worse_by <= m["bound"] else "WORSE"
            print(f"agreement {name:12s} {metric:12s} worse_by={worse_by:+.4f} bound={m['bound']} {flag}")
        traced = run(name, DEFAULT_SEED, spec["run_seconds"], 1)
        out["per_layer"][name] = {m: e["value"] for m, e in traced["metrics"].items()}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
