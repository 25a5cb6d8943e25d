"""Medians and tail percentiles over the quiet part of a run.

The host this benchmark was written on is shared: neighbours slow every
process by up to 60% for stretches of 0.2 s to several seconds, so a plain
median over one stretch of time lands in the slow or the fast mode by luck.
A run is therefore made of rounds that each run every phase briefly, and a
phase's samples are grouped into windows: 20 ms of calls, or 100 ms of layer
flips. Beside the timed work runs a reference that runs no kontext code, so
its time says how busy the host was: the C programs time a batch of
libc-style environment scans and stat calls after every few timed batches
(native/reference.h), and the churn writer an fsync'ed write after every
flip. Over the steady phase's 20 ms windows the reference and the timed
calls correlated at 0.91 to 0.95. At each offset into a phase, the n // KEEP
(at least one) of its n windows whose references ran fastest on average are
kept, and the statistics are taken over the timed samples of those windows.
The ranking never looks at the timings of the code under test: a change that
slows some windows of the program and not others moves the result. Ranking
only windows at the same offset keeps a trend that every round repeats (the
churn reader's answer store grows as flips accumulate) in the result. Whole
processes (spawns, CLI calls, threaded drivers) take plain medians in
run.py: no reference predicted them well.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np

WINDOW_US = 20_000
# keep n // KEEP (at least one) of the n windows at each offset: one of a
# run's twelve rounds. Keeping a quarter or a half let runs whose quiet
# windows were few report busy ones, which spread results three times wider.
KEEP = 8
REF = 0  # the reference batch's class code in every samples file
_OFFSETS = 1_000_000  # window key = round * _OFFSETS + offset


@dataclass
class Stat:
    samples: int
    p50: float
    p90: float
    p95: float
    p99: float


def read_samples(path: Path) -> np.ndarray:
    """A samples file: rows of (class, end in us, duration in ns)."""
    return np.fromfile(path, dtype=np.uint32).reshape(-1, 3).astype(np.float64)


def window_keys(rounds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return rounds.astype(np.int64) * _OFFSETS + offsets.astype(np.int64)


def quiet_mask(keys: np.ndarray, ref_keys: np.ndarray, ref_values: np.ndarray) -> np.ndarray:
    """Which samples (by window key) lie in the n // KEEP windows at their
    offset whose reference values have the lowest mean. A window without
    reference values ranks last."""
    windows, inverse = np.unique(keys, return_inverse=True)
    ref_windows, ref_inverse = np.unique(ref_keys, return_inverse=True)
    means = np.bincount(ref_inverse, weights=ref_values) / np.bincount(ref_inverse)
    pos = np.minimum(np.searchsorted(ref_windows, windows), max(len(ref_windows) - 1, 0))
    found = (ref_windows[pos] == windows) if len(ref_windows) else np.zeros(len(windows), bool)
    score = np.where(found, means[pos] if len(means) else 0.0, np.inf)
    offset = windows % _OFFSETS
    order = np.lexsort((score, offset))
    counts = np.bincount(np.unique(offset, return_inverse=True)[1])
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    rank = np.arange(len(order)) - starts
    keep = np.zeros(len(windows), dtype=bool)
    keep[order] = rank < np.maximum(1, np.repeat(counts, counts) // KEEP)
    return keep[inverse]


def stat(values: np.ndarray) -> Stat:
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    return Stat(n, *(float(ordered[(n * q) // 100]) for q in (50, 90, 95, 99)))


class HotPath:
    """Timed batches of one phase, gathered over the rounds, by class name;
    classes[REF] names the reference batch."""

    def __init__(self, classes: Sequence[str]):
        self.classes = tuple(classes)
        self._parts: List[np.ndarray] = []

    def add(self, rnd: int, samples: Path, seconds: float,
            calls_per_sample: Mapping[str, int]) -> None:
        """Read a program's samples; only whole windows inside the run count."""
        raw = read_samples(samples)
        windows = int(seconds * 1e6) // WINDOW_US
        raw = raw[raw[:, 1] // WINDOW_US < max(windows, 1)]
        calls = np.array([calls_per_sample.get(c, 1) for c in self.classes])[raw[:, 0].astype(int)]
        part = np.column_stack([raw[:, 0], np.full(len(raw), rnd), raw[:, 1] // WINDOW_US,
                                raw[:, 2] / calls])
        self._parts.append(part)

    def quiet(self) -> Dict[str, Stat]:
        """ns per call by class, over the windows whose reference ran fastest."""
        cls, rnd, win, per_call = np.concatenate(self._parts).T
        keys = window_keys(rnd, win)
        is_ref = cls == REF
        keep = quiet_mask(keys, keys[is_ref], per_call[is_ref])
        return {name: stat(per_call[keep & (cls == c)])
                for c, name in enumerate(self.classes)
                if c != REF and np.any(keep & (cls == c))}
