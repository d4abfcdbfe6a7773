"""Slow reference implementations that tests check the program against."""

from __future__ import annotations

import numpy as np

from chipchain.harness import DEFAULT_STRIDE, _sample_positions


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
