"""Finite-statistics resampling of marginal tables."""

from __future__ import annotations

import numpy as np

from .operators import _require_int
from .sequence import MarginalTable


def sample_counts(table: MarginalTable, trials_per_setting: int, seed: int) -> MarginalTable:
    """Replace every entry with a binomial frequency estimate from N trials.

    Deterministic for a fixed seed and input. Entries that are exactly 0 or 1
    are reproduced exactly. The sigma column carries the plug-in standard
    error sqrt(p(1-p)/N) of each estimate.
    """
    # The binomial draw takes a whole 64-bit count: it would truncate 2.5 to 2 trials and run True as 1.
    _require_int(trials_per_setting, "trials_per_setting", 1, np.iinfo(np.int64).max)
    _require_int(seed, "seed", 0)  # None would draw OS entropy, and numpy raises TypeError for 1.5
    rng = np.random.default_rng(seed)
    counts = rng.binomial(trials_per_setting, np.clip(table.win, 0.0, 1.0))  # MarginalTable allows 1e-12 outside
    win = counts / float(trials_per_setting)
    sigma = np.sqrt(win * (1.0 - win) / trials_per_setting)
    return MarginalTable(n=table.n, win=win, sigma=sigma)
