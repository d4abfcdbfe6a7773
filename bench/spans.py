"""Span tracer that wraps chipchain's public functions from outside the package.

Each wrapped name is replaced at the place where it is looked up (a module
global or a class attribute), so the program itself is never edited. Spans
(name, start, end, parent, amount) are kept in flat arrays, which the garbage
collector does not track, and are written out when the run ends. A layer's
self time is its span's duration minus the time its child spans cover.

A name that the program no longer has is reported as an absent layer; the
tracer skips it instead of failing.
"""

from __future__ import annotations

import array
import os
from time import perf_counter
from typing import Callable

import numpy as np

#: Marker for a function that returns a generator: each ``next()`` is a span,
#: and the span's amount is 1 for every item it yields.
GENERATOR = "generator"

#: Span name of the root the benchmark opens around one traced iteration.
ITERATION = "bench.iteration"


def _first_arg_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result)


def _penalty_entries(args, result):
    return len(result.entries)


def _sample_count(args, result):
    return len(result.sample_indices)


def _file_size(args, result):
    return os.path.getsize(args[1])


def targets(modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, measure) for every traced name.

    ``measure(args, result)`` gives the span's amount: events yielded, edges
    rewarded, bytes written and so on. Names are looked up where callers
    find them: ``run_end_to_end`` resolves ``replay`` in ``harness``, and
    the CLI resolves ``load_log_records`` in ``cli``.
    """
    harness, cli, ledger, simulator = (
        modules["harness"], modules["cli"], modules["ledger"], modules["simulator"]
    )
    Ledger, Engine = ledger.Ledger, modules["reputation"].ReputationEngine
    return [
        (harness, "generate_stream", "simulator.generate", GENERATOR),
        (harness, "replay", "simulator.replay", _sample_count),
        (harness, "aggregate_by_consortium", "harness.aggregate", None),
        (harness, "fold_single_seller", "harness.fold", None),
        (harness, "uniform_draws", "harness.uniform_draws", None),
        (Ledger, "transfer_chiplets", "ledger.transfer", None),
        (Ledger, "transfer_ics", "ledger.transfer", None),
        # Log replay reaches transfers through the shared helper, not the two
        # public wrappers; a span inside a same-named span is not counted again.
        (Ledger, "_transfer", "ledger.transfer", None),
        (Ledger, "confirm_transfer", "ledger.confirm", None),
        (Ledger, "register_devices", "ledger.register", None),
        (Ledger, "report", "ledger.report", None),
        (Ledger, "adjudicate", "ledger.adjudicate", None),
        (Ledger, "consume_chiplets", "ledger.consume", None),
        (Ledger, "apply_record", "ledger.apply_record", None),
        (Ledger, "save_log", "ledger.encode", _file_size),
        (cli, "load_log_records", "ledger.decode", _result_len),
        (cli, "oracle_max_deviation", "harness.oracle", _first_arg_len),
        (Engine, "lifecycle_passed", "reputation.passed", _first_arg_len),
        (Engine, "lifecycle_failed", "reputation.failed", _penalty_entries),
        (ledger, "is_hashed_id", "domain.is_hashed_id", None),
        (simulator, "hash_device_id", "domain.hash_device_id", None),
        (cli, "main", "cli", None),
    ]


class Tracer:
    """Records nested spans around wrapped callables while installed."""

    def __init__(self, target_list) -> None:
        self.names: list[str] = [ITERATION]
        self._ids = {ITERATION: 0}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.amount = array.array("q")
        self.iterations = array.array("i")  # span index of each iteration root
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()
        for owner, attr, span, measure in target_list:
            if span not in self._ids:
                self._ids[span] = len(self.names)
                self.names.append(span)
            nid = self._ids[span]
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{span} ({attr})")
                continue
            if measure == GENERATOR:
                wrapper = self._wrap_generator(original, nid)
            else:
                wrapper = self._wrap(original, nid, span, measure)
            self._patches.append((owner, attr, original, wrapper))

    # -- span recording -----------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.amount.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, span: str, measure: Callable | None):
        def traced(*args, **kwargs):
            top = self._stack[-1]
            if top >= 0 and self.name[top] == nid:
                return fn(*args, **kwargs)  # a wrapper delegating to a wrapped helper
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                try:
                    self.amount[idx] = measure(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.unmeasured.add(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, nid: int):
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.amount[idx] = 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every traced name and open the root span of one iteration."""
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.iterations.append(self.open(0))

    def uninstall(self) -> None:
        """Close the iteration's root span and restore the original names."""
        self.close(self.iterations[-1])
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- aggregation and output ---------------------------------------------

    def per_iteration(self) -> dict[str, np.ndarray]:
        """Per traced iteration and span name: calls, self seconds and amount.

        Each result is an array of shape (iterations, names). Spans are
        recorded only while the tracer is installed, so each lies under the
        root span of one iteration.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        roots = np.frombuffer(self.iterations, dtype=np.int32)
        it = np.searchsorted(roots, np.arange(len(dur)), side="right") - 1
        k, n = len(roots), len(self.names)
        cell = it * n + names

        def table(weights):
            return np.bincount(cell, weights=weights, minlength=k * n).reshape(k, n)

        return {
            "calls": table(None),
            "self_s": table(own),
            "amount": table(np.frombuffer(self.amount, dtype=np.int64).astype(np.float64)),
        }

    def durations_us(self, span: str) -> np.ndarray:
        """Inclusive duration of every recorded span with this name, in µs."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[names == self._ids[span]] * 1e6

    def index(self, span: str) -> int:
        return self._ids[span]

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            amount=np.frombuffer(self.amount, dtype=np.int64),
        )
