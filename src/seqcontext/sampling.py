"""Finite-statistics resampling of marginal tables."""

from __future__ import annotations

import numpy as np

from .sequence import MarginalTable


def sample_counts(table: MarginalTable, trials_per_setting: int, seed: int) -> MarginalTable:
    """Replace every entry with a binomial frequency estimate from N trials.

    Deterministic for a fixed seed and input. Entries that are exactly 0 or 1
    are reproduced exactly. The sigma column carries the plug-in standard
    error sqrt(p(1-p)/N) of each estimate.
    """
    # the binomial draw takes a 64-bit count
    if not 1 <= trials_per_setting <= np.iinfo(np.int64).max:
        raise ValueError(f"trials_per_setting must lie in 1..2**63 - 1, got {trials_per_setting}")
    rng = np.random.default_rng(seed)
    counts = rng.binomial(trials_per_setting, table.win)
    win = counts / float(trials_per_setting)
    sigma = np.sqrt(win * (1.0 - win) / trials_per_setting)
    return MarginalTable(n=table.n, win=win, sigma=sigma)
