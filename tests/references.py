"""Slow reference implementations that tests check the program against."""

from __future__ import annotations

import numpy as np

from chipchain.domain import Entity, Money, Role
from chipchain.harness import DEFAULT_STRIDE, _sample_positions
from chipchain.ledger import Ledger
from chipchain.reputation import ObserverView, ReputationEngine, ReputationParams, normalized_score


def mask_fold_single_seller(
    mask: np.ndarray, decrease_rate: float, stride: int = DEFAULT_STRIDE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled (txn_index, r, normalized) for one seller, folded in closed form.

    Per transaction the seller either gains 1 (pass) or has r divided by the
    rate-form divisor 1 + decrease_rate (fail); the ideal reputation is the
    transaction index.
    Between failures r grows linearly, so only failure and sample positions
    need visiting.

    This is the fold as it walked a length-n defect mask, kept to check that
    the position fold gives the same doubles.
    """
    n = len(mask)
    divisor = 1.0 + decrease_rate
    defects = (np.flatnonzero(mask) + 1).tolist()  # 1-based transaction positions
    samples = _sample_positions(n, stride)
    out = []
    r = 0.0
    last = 0
    di = 0
    n_defects = len(defects)
    for t in samples.tolist():
        while di < n_defects and defects[di] <= t:
            d = defects[di]
            r += d - 1 - last
            r /= divisor
            last = d
            di += 1
        r += t - last
        last = t
        out.append(r)
    r_samples = np.array(out, dtype=np.float64)
    return samples, r_samples, r_samples / samples


def ledger_single_seller(
    mask: np.ndarray, decrease_rate: float, stride: int = DEFAULT_STRIDE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Ledger]:
    """Drive the basic scenario through the full ledger; slow, the fold's reference."""
    ledger = Ledger()
    ledger.add_chain("main")
    ledger.add_entity(Entity("maker", Role.CHIPLET_MANUFACTURER, "main"))
    ledger.add_entity(Entity("checker", Role.IC_MANUFACTURER, "main"))
    ledger.add_entity(Entity("ta@main", Role.TRUSTED_AUTHORITY, "main"))
    ledger.register_chiplet_type("maker", "part")
    view = ObserverView("main", frozenset({"main"}))
    engine = ledger.attach(ReputationEngine(view, ReputationParams(decrease_rate=decrease_rate)))
    samples = _sample_positions(len(mask), stride)
    out_r = np.empty(len(samples))
    out_norm = np.empty(len(samples))
    price = [Money(1.0)]
    si = 0
    for t, bad in enumerate(mask, start=1):
        hid = f"{t:064x}"
        ledger.register_devices("maker", "part", [hid])
        ledger.transfer_chiplets("maker", "part", 1, [hid], price, "checker")
        ledger.confirm_transfer("checker", "part", 1, [hid])
        rid = ledger.report("checker", [hid], int(bad))
        if bad:
            ledger.adjudicate("ta@main", rid, [hid])
        if si < len(samples) and samples[si] == t:
            rep = engine.reputation("maker")
            out_r[si] = rep.r
            out_norm[si] = normalized_score(rep)
            si += 1
    return samples, out_r, out_norm, ledger
