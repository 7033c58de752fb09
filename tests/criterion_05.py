"""Criterion 05's generated request sequences, stated once.

`tests/test_acceptance.py` checks the policy ordering on these instances and
`tests/output_hashes.py` writes their `opt` outputs, so both import them from
here. Instance k runs on world seed 5000 + k with 3 ERVs and no UAVs.
"""
import numpy as np


def schedules() -> list[tuple[int, ...]]:
    """20 five-stage schedules, each stage's request count drawn from a
    fixed list of 35 counts (1 to 5 requests) on the stream 2205."""
    rng = np.random.default_rng(2205)
    counts = [1] * 8 + [2] * 13 + [3] * 9 + [4] * 2 + [5] * 3
    return [tuple(int(c) for c in rng.choice(counts, size=5)) for _ in range(20)]
