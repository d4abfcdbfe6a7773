"""Mutants that the fast test suite must kill.

Each mutant breaks one rule of the program by replacing text in a copy of
``src/``; a shared mutant edits the engine and the oracle together, the way a
misreading of the rules would. For every mutant the script copies ``src/``
and ``tests/`` (and ``bench/spans.py``, which ``tests/test_traced_names.py``
reads) to a temporary directory, applies the mutant's edits and runs

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
COPIED = ("src", "tests", "bench/spans.py")
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


class Mutant(NamedTuple):
    name: str
    rule: str
    #: (file under the repository root, old text, new text) for each edit.
    edits: tuple[tuple[str, str, str], ...]


MUTANTS = [
    Mutant(
        "re_report",
        "a verified part cannot be reported again",
        ((LEDGER, "            if part.status is not PartStatus.OWNED:\n",
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
          "            value = amount * rate(currency)\n",
          "        for seller, _buyer, amount, currency in path:\n"
          '            if seller.startswith("X^"):\n'
          "                continue\n"
          "            value = amount * rate(currency)\n"),
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
        ((LEDGER, 'open_rows.pop(rec[3])["status"] = "rejected"',
          'open_rows.pop(rec[3])["status"] = "confirmed"'),),
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
