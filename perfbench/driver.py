"""Run the benchmark's C programs and check every answer they saw."""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from kontext.context import ContextState

from workload import PRELOAD_SENTINEL, Plan, Workload, fnv1a_text

DRIVER_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The run cannot produce trustworthy numbers; no result is printed."""


@dataclass
class DriverRun:
    first_call_ns: int = 0
    warm_ns: int = 0  # the untimed single-threaded pass before "ready"
    first: Optional[str] = None
    ready_ns: int = 0
    deadline_ns: int = 0
    rss_kb: Tuple[int, int] = (0, 0)
    timed_calls: int = 0
    timed_wall_ns: int = 0
    # (worker, slot, t_ns, value or None); worker 0 is the untimed warm pass
    events: List[Tuple[int, int, int, Optional[str]]] = field(default_factory=list)
    ready_s: float = 0.0  # from spawning the driver to its "ready" line


def _parse_line(run: DriverRun, line: str) -> None:
    parts = line.rstrip("\n").split(" ")
    tag = parts[0]
    if tag == "first_call_ns":
        run.first_call_ns = int(parts[1])
    elif tag == "warm_ns":
        run.warm_ns = int(parts[1])
    elif tag == "first":
        run.first = " ".join(parts[2:]) if parts[1] == "1" else None
    elif tag == "ready":
        run.ready_ns, run.deadline_ns = int(parts[1]), int(parts[2])
    elif tag == "rss_kb":
        run.rss_kb = (int(parts[1]), int(parts[2]))
    elif tag == "timed":
        run.timed_calls, run.timed_wall_ns = int(parts[1]), int(parts[2])
    elif tag == "ev":
        value = " ".join(parts[5:]) if parts[4] == "1" else None
        run.events.append((int(parts[1]), int(parts[2]), int(parts[3]), value))


def run_mixdriver(exe: Path, plan_path: Path, mode: str, seconds: float, threads: int,
                  env: Dict[str, str], cwd: Path, samples: Path,
                  on_ready: Optional[Callable[[DriverRun], None]] = None) -> DriverRun:
    """Run one driver; on_ready runs in the harness while the clock runs."""
    run = DriverRun()
    argv = [str(exe), str(plan_path), mode, f"{seconds:.3f}", str(threads), PRELOAD_SENTINEL,
            str(samples)]
    t0 = time.perf_counter()
    # stderr goes to a file: reading one pipe line by line while another
    # fills could block both processes
    with tempfile.TemporaryFile(mode="w+", dir=cwd) as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        try:
            for line in proc.stdout:
                _parse_line(run, line)
                if line.startswith("ready"):
                    run.ready_s = time.perf_counter() - t0
                    break
            if on_ready is not None and run.ready_ns:
                on_ready(run)
            out = proc.stdout.read()
            proc.wait(timeout=DRIVER_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        message = err.read().strip()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or lines[-1] != "end":
        raise BenchError(f"mixdriver {mode} failed ({proc.returncode}): {message}")
    for line in lines:
        _parse_line(run, line)
    return run


def calls_made(plan: Plan, run: DriverRun, threads: int) -> int:
    """The first call, the warm pass, the timed calls and a pass per thread."""
    plan_calls = sum(len(idx) for _, idx in plan.batches)
    return 1 + plan_calls * (1 + threads) + run.timed_calls


class Checker:
    """Counts attempted operations and wrong answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def wrong(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def check_first(self, wl: Workload, run: DriverRun, preload: bool, ctx: ContextState) -> None:
        want = wl.getenv_answer(PRELOAD_SENTINEL, ctx) if preload else wl.env[PRELOAD_SENTINEL]
        if run.first != want:
            state = "not active" if preload else "active where it must not be"
            raise BenchError(f"preload {state}: {PRELOAD_SENTINEL}={run.first!r}, "
                             f"expected {want!r}")


def expected_answers(wl: Workload, plan: Plan, ctx: ContextState,
                     preload: bool) -> List[Optional[str]]:
    """What each slot of the plan must answer under ctx."""
    out: List[Optional[str]] = []
    for kind, text in plan.slots:
        if kind == "g":
            out.append(wl.getenv_answer(text, ctx) if preload else wl.env.get(text))
        else:
            data = wl.open_answer(text, ctx) if preload else wl.real_files[text]
            out.append(fnv1a_text(data))
    return out


def check_steady(checker: Checker, wl: Workload, plan: Plan, run: DriverRun,
                 ctx: ContextState, preload: bool = True) -> None:
    """The state never changed: every answer must be ctx's."""
    checker.check_first(wl, run, preload, ctx)
    want = expected_answers(wl, plan, ctx, preload)
    for worker, slot, _, value in run.events:
        if value != want[slot]:
            checker.wrong(f"{plan.slots[slot][1]}: got {value!r}, expected {want[slot]!r}")


def check_churn(checker: Checker, wl: Workload, plan: Plan, run: DriverRun,
                states: Sequence[ContextState], final: ContextState) -> None:
    """Every answer is one of the states'; each reader's last one is final's."""
    checker.check_first(wl, run, True, states[0])
    allowed: List[Set[Optional[str]]] = [set() for _ in plan.slots]
    for ctx in states:
        for slot, answer in enumerate(expected_answers(wl, plan, ctx, True)):
            allowed[slot].add(answer)
    final_want = expected_answers(wl, plan, final, True)
    last: Dict[Tuple[int, int], Optional[str]] = {}
    for worker, slot, _, value in run.events:
        if value not in allowed[slot]:
            checker.wrong(f"{plan.slots[slot][1]}: {value!r} is no state's answer")
        last[(worker, slot)] = value
    for (worker, slot), value in last.items():
        if worker > 0 and value != final_want[slot]:
            checker.wrong(f"{plan.slots[slot][1]}: last answer {value!r}, "
                          f"final state says {final_want[slot]!r}")
