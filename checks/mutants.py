"""Mutants that the fast test suite must kill.

Each mutant breaks one rule of the program by replacing text in a copy of
``src/``; a shared mutant edits the engine and the oracle together, the way a
misreading of the rules would. For every mutant the script copies ``src/``,
``tests/`` and ``demos/`` (which ``tests/test_demos.py`` runs), and
``bench/spans.py`` (which ``tests/test_traced_names.py`` reads), to a temporary
directory, applies the mutant's edits and runs

    python -m pytest tests --ignore=tests/test_acceptance.py

A mutant is killed only when a test other than ``TestGoldenOutputs`` fails:
a golden digest fails on every change, wanted or not, so it checks no rule.
An old text that does not occur exactly once is reported as stale, never
skipped. The unmutated copy runs first and must pass.

Usage, from the repository root:

    python3 checks/mutants.py

It prints each mutant's verdict with the first tests that killed it, and
exits 1 unless every mutant is killed: a survivor, a stale mutant, a pytest
run that ends in neither pass nor fail (or runs past ``TIMEOUT_S``), or a
failing unmutated copy.

A change that adds a check adds a mutant that the check kills here. A
surviving mutant is fixed by adding a test, never by deleting the mutant.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "bench/spans.py")
PYTEST = [
    sys.executable, "-m", "pytest", "tests", "--ignore=tests/test_acceptance.py",
    "-q", "-rfE", "-p", "no:cacheprovider",
]
#: Failures of these tests do not count as a kill.
NOT_A_KILL = "::TestGoldenOutputs::"
TIMEOUT_S = 600

LEDGER = "src/chipchain/ledger.py"
ENGINE = "src/chipchain/reputation.py"
ORACLE = "src/chipchain/harness.py"
DOMAIN = "src/chipchain/domain.py"
HARNESS = "src/chipchain/harness.py"
SIMULATOR = "src/chipchain/simulator.py"
CLI = "src/chipchain/cli.py"


class Mutant(NamedTuple):
    name: str
    rule: str
    #: (file under the repository root, old text, new text) for each edit.
    edits: tuple[tuple[str, str, str], ...]


MUTANTS = [
    Mutant(
        "re_report",
        "a verified part cannot be reported again",
        ((LEDGER, "            if part.status is not _OWNED:\n",
          "            if part.status is PartStatus.CONSUMED:\n"),),
    ),
    Mutant(
        "half_rate_divisor",
        "the rate-form penalty divisor is 1 + rate (shared)",
        ((ENGINE, 'return rate if params.penalty_form == "raw" else 1.0 + rate\n',
          'return rate if params.penalty_form == "raw" else 1.0 + rate / 2\n'),
         (ORACLE, "divisor = rate if raw_form else 1.0 + rate\n",
          "divisor = rate if raw_form else 1.0 + rate / 2\n")),
    ),
    Mutant(
        "failed_lifecycle_skips_ideal",
        "a failed lifecycle still adds its sale amounts to r_ideal (shared)",
        ((ENGINE, "            self._get(seller).r_ideal += amount * rate(currency)\n",
          "            self._get(seller)\n"),
         (ORACLE, "credit(seller, amount * rates[currency], ideal_only=True)",
          "credit(seller, 0.0, ideal_only=True)")),
    ),
    Mutant(
        "untrusted_edge_discounts",
        "an edge sold from an untrusted chain passes the rate on undiscounted (shared)",
        ((ENGINE,
          "    if seller.role is Role.META_ENTITY or seller.chain not in view.trusted_chains:\n",
          "    if seller.role is Role.META_ENTITY:\n"),
         (ORACLE, 'if prev_role != "META" and prev_chain in view.trusted_chains:\n',
          'if prev_role != "META":\n')),
    ),
    Mutant(
        "meta_entity_unrewarded",
        "a meta-entity on a passing path is rewarded like any seller (shared)",
        ((ENGINE,
          "        for seller, _buyer, amount, currency in path:\n"
          "            value = amount * (rates.get(currency) or self.exchange.rate(currency))\n",
          "        for seller, _buyer, amount, currency in path:\n"
          '            if seller.startswith("X^"):\n'
          "                continue\n"
          "            value = amount * (rates.get(currency) or self.exchange.rate(currency))\n"),
         (ORACLE, "                        credit(seller, amount * rates[currency])\n",
          '                        if not seller.startswith("X^"):\n'
          "                            credit(seller, amount * rates[currency])\n")),
    ),
    Mutant(
        "meta_hop_uses_a_discount_step",
        "a meta hop never uses up a discount step (shared)",
        ((ENGINE,
          "    if seller.role is Role.META_ENTITY or seller.chain not in view.trusted_chains:\n",
          "    if seller.role is not Role.META_ENTITY"
          " and seller.chain not in view.trusted_chains:\n"),
         (ORACLE, 'if prev_role != "META" and prev_chain in view.trusted_chains:\n',
          'if prev_role == "META" or prev_chain in view.trusted_chains:\n')),
    ),
    Mutant(
        "rejected_row_confirmed",
        "state_json shows a rejected transfer as rejected",
        ((LEDGER, 'open_rows.pop(rec[5])["status"] = "rejected"',
          'open_rows.pop(rec[5])["status"] = "confirmed"'),),
    ),
    Mutant(
        "via_meta_while_pending",
        "state_json names a meta-entity only for a confirmed crossing",
        ((LEDGER, '"via_meta": None,',
          '"via_meta": self._meta.get('
          "(self._entities[source].chain, self._entities[dest].chain)),"),),
    ),
    Mutant(
        "seq_off_by_one",
        "state_json numbers transactions from 1 in log order",
        ((LEDGER, '"seq": len(rows) + 1,', '"seq": len(rows),'),),
    ),
    Mutant(
        "entity_id_type_unchecked",
        "an entity id is a non-empty string",
        ((DOMAIN, "        if type(self.id) is not str or not self.id:\n",
          "        if not self.id:\n"),),
    ),
    Mutant(
        "sleeper_switch_off_by_one",
        "a sleeper sells at the benign level before switch_at and the malicious one from it",
        ((HARNESS, "(benign[benign <= switch_at], malicious[malicious > switch_at])",
          "(benign[benign <= switch_at + 1], malicious[malicious > switch_at + 1])"),),
    ),
    Mutant(
        "fold_defect_after_sample",
        "a defect at a sampled transaction divides r before that sample is taken",
        ((HARNESS, 'np.searchsorted(samples, defects, side="left")',
          'np.searchsorted(samples, defects, side="right")'),
         (HARNESS, 'np.searchsorted(defects, samples, side="right")',
          'np.searchsorted(defects, samples, side="left")')),
    ),
    Mutant(
        "sample_gap_ignores_defects",
        "a sample's gap runs from the event before it, a defect included",
        ((HARNESS, "samples - np.maximum(sample_at[:-1], defect_at[defects_upto])",
          "samples - sample_at[:-1]"),),
    ),
    Mutant(
        "threshold_below_max",
        "the shared threshold pass keeps every defect of the largest probability",
        ((HARNESS, "uniform_draws(n_txn, seed, max(defect_probs))",
          "uniform_draws(n_txn, seed, min(defect_probs))"),
         (HARNESS, "uniform_draws(n_txn, seed, max(benign_p, *malicious_ps))",
          "uniform_draws(n_txn, seed, min(benign_p, *malicious_ps))")),
    ),
    Mutant(
        "draw_block_offset_dropped",
        "a block's threshold positions are shifted by the block's start in the stream",
        ((HARNESS, "positions.append(below + start)", "positions.append(below)"),),
    ),
    Mutant(
        "draw_block_unbounded",
        "a threshold pass holds one fixed-size block of draws, never the whole stream",
        ((HARNESS,
          "    block = np.empty(min(n, _BLOCK))\n",
          "    block = np.empty(n)\n"),
         (HARNESS,
          "    for start in range(0, n, _BLOCK):\n",
          "    for start in range(0, n, max(n, 1)):\n"),),
    ),
    Mutant(
        "conversion_by_division",
        "a sale amount is converted to the standard currency by multiplying by its rate (shared)",
        ((ENGINE, "value = amount * (rates.get(currency) or self.exchange.rate(currency))",
          "value = amount / (rates.get(currency) or self.exchange.rate(currency))"),
         (ENGINE, "self._get(seller).r_ideal += amount * rate(currency)",
          "self._get(seller).r_ideal += amount / rate(currency)"),
         (ORACLE, "                        credit(seller, amount * rates[currency])\n",
          "                        credit(seller, amount / rates[currency])\n"),
         (ORACLE, "credit(seller, amount * rates[currency], ideal_only=True)",
          "credit(seller, amount / rates[currency], ideal_only=True)")),
    ),
    Mutant(
        "discount_from_own_chain",
        "a seller's penalty rate is discounted by the upstream seller's chain, not its own (shared)",
        ((ENGINE, "upstream_seller = entities[path[k - 1][0]]",
          "upstream_seller = entities[path[k][0]]"),
         (ORACLE, "prev_role, prev_chain = entity_info[pen[k - 1][0]]",
          "prev_role, prev_chain = entity_info[pen[k][0]]")),
    ),
    Mutant(
        "stride_unchecked",
        "a curve's sampling stride is an integer >= 1",
        ((HARNESS, '("stride", stride, 1), ', ""),),
    ),
    Mutant(
        "markup_overflow_unchecked",
        "a config's markup leaves the largest price it can write finite",
        ((SIMULATOR, "        if not math.isfinite(top):\n", "        if False:\n"),),
    ),
    Mutant(
        "config_count_accepts_bool",
        "a config count is an int, never a bool",
        ((SIMULATOR, "            if type(value) is not int or value < 1:\n",
          "            if not isinstance(value, int) or value < 1:\n"),),
    ),
    Mutant(
        "draw_high_half_dropped",
        "a bounded draw takes the kept high half of the previous word before a fresh word",
        ((SIMULATOR, "        self._half = word >> 32\n", "        self._half = None\n"),),
    ),
    Mutant(
        "draw_rejection_removed",
        "a bounded draw rejects a low product below (2**32 - n) % n, as numpy's Lemire method does",
        ((SIMULATOR,
          "        while m & 0xFFFFFFFF < threshold:\n            m = self._next32() * n\n", ""),),
    ),
    Mutant(
        "draw_for_one_choice",
        "a draw below 1 takes no bits from the stream, as numpy's integers(0, 1) takes none",
        ((SIMULATOR, "        if n == 1:\n            return 0\n", ""),),
    ),
    Mutant(
        "curve_labels_unchecked",
        "two distinct curve rates or probabilities never share a label",
        ((HARNESS, "        if first != value:\n", "        if False:\n"),),
    ),
    Mutant(
        "signed_zero_probability_unchecked",
        "a curve probability of -0.0, which prints as -0 but keys as 0, is refused",
        ((HARNESS, "        if math.copysign(1.0, p) < 0.0:\n", "        if False:\n"),),
    ),
    Mutant(
        "cut_route_reported",
        "a route the budget ends before its verifier leaves its part in flight, unreported",
        ((SIMULATOR,
          "                return None  # the budget ends the route: the part stays in flight\n",
          "                break\n"),),
    ),
    Mutant(
        "hop_to_own_holder",
        "a one-member pool never ships a part to its own holder",
        ((SIMULATOR, "            if nxt == holder:\n", "            if False:\n"),),
    ),
    Mutant(
        "hop_span_unchecked",
        "a config's hop-count span is one draw, at most 2**32",
        ((SIMULATOR, "        if hi - lo + 1 > 2**32:", "        if False:"),),
    ),
    Mutant(
        "lone_role_walked",
        "a route whose next pick lands on its role's only member goes straight to its verifier",
        ((SIMULATOR, "                left = 0 if role in lone else left - 1\n",
          "                left -= 1\n"),),
    ),
    Mutant(
        "dispatch_captures_functions",
        "replay calls each op's method on the ledger, so a method replaced on the class"
        " sees its records",
        ((LEDGER, "                self.confirm_transfer(rec[1], rec[2], len(rec[3]), rec[3])\n",
          "                _CONFIRM(self, rec[1], rec[2], len(rec[3]), rec[3])\n"),
         (LEDGER, "\n\ndef _sorted_ids(",
          "\n_CONFIRM = Ledger.confirm_transfer\n\n\ndef _sorted_ids(")),
    ),
    Mutant(
        "encoder_fields_reordered",
        "a confirm or reject line writes its fields in the documented order",
        ((LEDGER, """f'{{"op":"{op}","caller":{_q(caller)},"type":{_q(part_type)},""",
          """f'{{"op":"{op}","type":{_q(part_type)},"caller":{_q(caller)},"""),),
    ),
    # One mutant per precondition of each ledger op: role, owner, status,
    # count, currency and trusted-authority chain.
    Mutant(
        "transfer_role_unchecked",
        "only a role that may sell a part kind transfers it",
        ((LEDGER, "        if src_entity.role not in TRANSFER_ROLES[kind]:\n",
          "        if False:\n"),),
    ),
    Mutant(
        "transfer_owner_unchecked",
        "only a device's owner transfers it",
        ((LEDGER,
          "            if part.owner != caller:\n"
          '                raise NotOwner(f"{caller!r} does not own device {hid!r}")\n'
          "            if part.status not in TRANSFERABLE:\n",
          "            if part.status not in TRANSFERABLE:\n"),),
    ),
    Mutant(
        "transfer_status_unchecked",
        "a device in transit, consumed or defective is not transferred",
        ((LEDGER, "            if part.status not in TRANSFERABLE:\n", "            if False:\n"),),
    ),
    Mutant(
        "transfer_count_unchecked",
        "a transfer record carries one amount per distinct id",
        ((LEDGER, "        _check_count(n, id_tuple, amounts)\n", ""),),
    ),
    Mutant(
        "transfer_currency_unchecked",
        "a sale in a currency the exchange table lacks never enters the log",
        ((LEDGER, "        if currency not in self.exchange.rates:\n", "        if False:\n"),),
    ),
    Mutant(
        "confirm_destination_unchecked",
        "only a pending transfer's destination confirms or rejects it",
        ((LEDGER, "        if rec[4] != caller:\n", "        if False:\n"),),
    ),
    Mutant(
        "confirm_count_unchecked",
        "a confirm declares as many units as it names distinct ids",
        ((LEDGER, "        if n != len(id_tuple):\n", "        if False:\n"),),
    ),
    Mutant(
        "devices_registrant_unchecked",
        "only a part type's registrant registers devices of it",
        ((LEDGER, "        if caller != ptype.registrant:\n", "        if False:\n"),),
    ),
    Mutant(
        "devices_reregistered",
        "a device id is registered once",
        ((LEDGER, "            if hid in parts:\n", "            if False:\n"),),
    ),
    Mutant(
        "consume_role_unchecked",
        "only an IC manufacturer consumes chiplets",
        ((LEDGER, "        if entity.role is not Role.IC_MANUFACTURER:\n", "        if False:\n"),),
    ),
    Mutant(
        "consume_owner_unchecked",
        "an IC manufacturer consumes only chiplets it owns",
        ((LEDGER,
          "            if part.owner != caller:\n"
          '                raise NotOwner(f"{caller!r} does not own chiplet {hid!r}")\n', ""),),
    ),
    Mutant(
        "consume_status_unchecked",
        "only an owned or verified chiplet is consumed",
        ((LEDGER, "            if part.status not in (PartStatus.OWNED, PartStatus.VERIFIED_OK):\n",
          "            if False:\n"),),
    ),
    Mutant(
        "report_role_unchecked",
        "only a part kind's verifier role reports it",
        ((LEDGER, "        if entity.role not in REPORTER_ROLES[kind]:\n", "        if False:\n"),),
    ),
    Mutant(
        "report_owner_unchecked",
        "a reporter reports only devices it owns",
        ((LEDGER,
          "            if part.owner != caller:\n"
          '                raise NotOwner(f"{caller!r} does not own device {hid!r}")\n'
          "            if part.status is not _OWNED:\n",
          "            if part.status is not _OWNED:\n"),),
    ),
    Mutant(
        "report_kinds_unchecked",
        "a report covers one part kind",
        ((LEDGER, '                raise InvalidArgument("a report must cover one part kind")\n',
          "                pass\n"),),
    ),
    Mutant(
        "adjudicator_role_unchecked",
        "only a trusted authority adjudicates",
        ((LEDGER, "        if ta_entity.role is not Role.TRUSTED_AUTHORITY:\n",
          "        if False:\n"),),
    ),
    Mutant(
        "adjudicator_chain_unchecked",
        "the adjudicating trusted authority sits on the reporter's chain",
        ((LEDGER, "        if self._entities[reporter].chain != ta_entity.chain:\n",
          "        if False:\n"),),
    ),
    Mutant(
        "passed_report_adjudicated",
        "only a failed report is adjudicated",
        ((LEDGER, "        if result != 1:\n", "        if False:\n"),),
    ),
    Mutant(
        "transfer_untransferable_unchecked",
        "a consumed or defective part is not transferable",
        ((LEDGER,
          '                raise Conflict(f"device {hid!r} is {part.status.value}, not transferable")\n',
          "                pass\n"),),
    ),
    Mutant(
        "list_amounts_aliased",
        "a transfer logs its own tuple of amounts, never the caller's list",
        ((LEDGER, "                   tuple(amounts), currency)\n",
          "                   amounts, currency)\n"),),
    ),
    Mutant(
        "collector_left_paused",
        "an entry point restores the collector setting it found",
        ((HARNESS, "        if was_enabled:\n            gc.enable()\n", "        pass\n"),),
    ),
    Mutant(
        "collector_never_paused",
        "the entry points run their work with the collector paused",
        ((HARNESS, "    gc.disable()\n", "    pass\n"),),
    ),
    Mutant(
        "engine_back_reference",
        "the program builds no reference cycles",
        ((LEDGER, "        self.engine = engine\n        return engine\n",
          "        self.engine = engine\n        engine.ledger = self\n        return engine\n"),),
    ),
    Mutant(
        "decode_memo_dropped",
        "a decoded log holds each of its names and id tuples once",
        ((LEDGER, "        self[value] = _checked(value)\n        return value\n",
          "        return _checked(value)\n"),),
    ),
    Mutant(
        "reward_plus_constant",
        "a reward is the converted sale amount, so scores scale with amounts (shared)",
        ((ENGINE, "value = amount * (rates.get(currency) or self.exchange.rate(currency))\n",
          "value = amount * (rates.get(currency) or self.exchange.rate(currency)) + 1.0\n"),
         (ORACLE, "                        credit(seller, amount * rates[currency])\n",
          "                        credit(seller, amount * rates[currency] + 1.0)\n")),
    ),
    Mutant(
        "amounts_not_permuted_with_ids",
        "each amount of a multi-id transfer moves with its id when the ids are sorted",
        ((LEDGER,
          "            if id_tuple is not ids:\n"
          "                # The ids are distinct, so sorting the pairs never compares amounts.\n"
          "                amounts = [amount for _, amount in sorted(zip(ids, amounts))]\n", ""),),
    ),
    Mutant(
        "path_amount_of_first_id",
        "a part's edge carries the amount at its own id's position in the transfer record",
        ((LEDGER, "            amount = amounts[bisect_left(ids, hid)]\n",
          "            amount = amounts[0]\n"),),
    ),
    Mutant(
        "path_holds_record_copies",
        "a part's path holds the log's own transfer records, never copies",
        ((LEDGER, "            part.path.append(rec)\n",
          "            part.path.append(tuple(list(rec)))\n"),),
    ),
    Mutant(
        "trusted_discount_multiplies",
        "a trusted seller's discount divides the next seller's rate, so more trust lowers"
        " no score (shared)",
        ((ENGINE, "rate = rate / edge_discount(upstream_seller, view, params)",
          "rate = rate * edge_discount(upstream_seller, view, params)"),
         (ORACLE, "rate /= params.trusted_discount", "rate *= params.trusted_discount")),
    ),
    Mutant(
        "closed_record_from_seller",
        "a confirm or reject reads back with the transfer's buyer as its caller",
        ((LEDGER, "    return (_CLOSING_OPS[mark], rec[4], rec[2], rec[5]) if mark else rec\n",
          "    return (_CLOSING_OPS[mark], rec[3], rec[2], rec[5]) if mark else rec\n"),),
    ),
    Mutant(
        "view_flags_unchecked",
        "a view flag names only chains that the log registers",
        ((CLI, "        if chain not in chains:\n", "        if False:\n"),),
    ),
    Mutant(
        "exchange_rate_ignored",
        "rewards and foregone amounts are converted at the currency's rate, so a currency"
        " worth half at twice the amounts scores the same (shared)",
        ((ENGINE, "value = amount * (rates.get(currency) or self.exchange.rate(currency))\n",
          "value = amount\n"),
         (ENGINE, "            self._get(seller).r_ideal += amount * rate(currency)\n",
          "            self._get(seller).r_ideal += amount\n"),
         (ORACLE, "                        credit(seller, amount * rates[currency])\n",
          "                        credit(seller, amount)\n"),
         (ORACLE, "credit(seller, amount * rates[currency], ideal_only=True)",
          "credit(seller, amount, ideal_only=True)")),
    ),
]


@contextlib.contextmanager
def copied_tree():
    """A temporary directory holding a copy of ``COPIED``."""
    with tempfile.TemporaryDirectory(prefix="chipchain-mutant-") as tmp:
        tree = Path(tmp)
        for rel in COPIED:
            src = ROOT / rel
            if src.is_dir():
                shutil.copytree(src, tree / rel, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                (tree / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, tree / rel)
        yield tree


def apply_edits(tree: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` to ``tree``; the reason it cannot be applied, or None."""
    for rel, old, new in mutant.edits:
        path = tree / rel
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return f"old text matches {count} times in {rel}: {old.strip()[:60]!r}"
        path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def failed_tests(tree: Path) -> tuple[int, list[str]]:
    """pytest's exit code and the ids of the tests that failed or errored.

    A run past ``TIMEOUT_S`` (a mutant that makes a test loop forever) gives
    exit code -1, which ``verdict`` reports as an error.
    """
    try:
        proc = subprocess.run(
            PYTEST, cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, []
    failed = [
        line.split()[1] for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    ]
    return proc.returncode, failed


def verdict(mutant: Mutant) -> tuple[str, str]:
    """(killed, survived, stale or error; a detail) for one mutant."""
    with copied_tree() as tree:
        stale = apply_edits(tree, mutant)
        if stale is not None:
            return "stale", stale
        code, failed = failed_tests(tree)
    if code not in (0, 1):
        return "error", f"pytest exit code {code}"
    kills = [test for test in failed if NOT_A_KILL not in test]
    if kills:
        more = f" and {len(kills) - 3} more" if len(kills) > 3 else ""
        return "killed", ", ".join(kills[:3]) + more
    return "survived", "only TestGoldenOutputs failed" if failed else "no test failed"


def main() -> int:
    with copied_tree() as tree:
        code, failed = failed_tests(tree)
    if code != 0:
        print(f"unmutated copy does not pass (pytest exit code {code}): {failed[:3]}")
        return 1
    counts: dict[str, int] = {}
    for mutant in MUTANTS:
        result, detail = verdict(mutant)
        counts[result] = counts.get(result, 0) + 1
        print(f"{result:8} {mutant.name}: {mutant.rule}\n         {detail}", flush=True)
    summary = ", ".join(f"{n} {result}" for result, n in sorted(counts.items()))
    print(f"{len(MUTANTS)} mutants: {summary}")
    return 0 if counts.get("killed", 0) == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
