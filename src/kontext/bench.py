"""Lookup latency benchmark.

Three phases, each timed per call with the monotonic ns counter:

    baseline  plain dict-backed environment lookups (cost floor)
    lookup    bare engine resolution, no staleness check (engine cost)
    steady    session lookups with the layer state left untouched
    churn     session lookups while the layer state is rewritten ten
              times, forcing staleness checks to reload

Reported figures are medians, which are robust against scheduler noise.
The churn phase also reports how many reloads the session performed; with
ten state changes and at least one lookup after each, that count is ten.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional

from .engine import SpecLike
from .layerstate import state_set_layer, state_write
from .context import ContextState
from .shim import GETENV_PREFIX, ShimSession

CHURN_CHANGES = 10


@dataclass
class BenchReport:
    iterations: int
    key: str
    baseline_ns: float
    lookup_ns: float
    steady_ns: float
    churn_ns: float
    steady_reloads: int
    reload_count: int

    @property
    def overhead_ratio(self) -> float:
        return self.steady_ns / max(self.baseline_ns, 1.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "iterations": self.iterations,
            "key": self.key,
            "baseline_ns": self.baseline_ns,
            "lookup_ns": self.lookup_ns,
            "steady_ns": self.steady_ns,
            "churn_ns": self.churn_ns,
            "overhead_ratio": self.overhead_ratio,
            "steady_reloads": self.steady_reloads,
            "reload_count": self.reload_count,
        }


def _median_call_ns(fn, iterations: int) -> float:
    samples = []
    clock = time.perf_counter_ns
    for _ in range(iterations):
        t0 = clock()
        fn()
        t1 = clock()
        samples.append(t1 - t0)
    return float(statistics.median(samples))


# kept with ShimSession, which it times, until the benchmark retires shim.session_getenv_us
def run_bench(
    spec: SpecLike,
    key: str,
    iterations: int = 100_000,
    state_path: Optional[str] = None,
    churn_layer: str = "bench",
) -> BenchReport:
    """Measure lookup latency for one key against a spec.

    `key` is the environment variable name (the session prepends the
    getenv registration prefix itself).
    """
    if iterations < CHURN_CHANGES:
        raise ValueError("iterations must be at least %d" % CHURN_CHANGES)

    own_dir = None
    if state_path is None:
        own_dir = tempfile.TemporaryDirectory(prefix="kontext-bench-")
        state_path = os.path.join(own_dir.name, "state.ks")
    try:
        if not os.path.exists(state_path):
            state_write(state_path, ContextState())

        baseline_env = {key: "baseline"}
        baseline_ns = _median_call_ns(lambda: baseline_env.get(key), iterations)

        session = ShimSession(spec, state_path=state_path)
        engine = session.backend
        full_name = GETENV_PREFIX + key
        ctx = session.context
        lookup_ns = _median_call_ns(lambda: engine.lookup(full_name, ctx), iterations)

        reloads_before = session.reloads
        steady_ns = _median_call_ns(lambda: session.getenv(key), iterations)
        steady_reloads = session.reloads - reloads_before

        # Churn: rewrite the state every iterations/10 calls, starting at
        # call 0, for exactly CHURN_CHANGES rewrites.
        stride = iterations // CHURN_CHANGES
        reloads_before = session.reloads
        samples = []
        clock = time.perf_counter_ns
        flip = 0
        for i in range(iterations):
            if i % stride == 0 and flip < CHURN_CHANGES:
                state_set_layer(state_path, churn_layer, "v%d" % flip)
                flip += 1
            t0 = clock()
            session.getenv(key)
            t1 = clock()
            samples.append(t1 - t0)
        churn_ns = float(statistics.median(samples))
        reload_count = session.reloads - reloads_before

        return BenchReport(
            iterations=iterations,
            key=key,
            baseline_ns=baseline_ns,
            lookup_ns=lookup_ns,
            steady_ns=steady_ns,
            churn_ns=churn_ns,
            steady_reloads=steady_reloads,
            reload_count=reload_count,
        )
    finally:
        if own_dir is not None:
            own_dir.cleanup()
