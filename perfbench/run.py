#!/usr/bin/env python3
"""Benchmark of the real kontext LD_PRELOAD shim.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It compiles src/kontext/native/*.c and the
programs under perfbench/native with plain cc, generates the workload from
the seed, and measures four phases, each of them once per round:

  steady   one single-threaded preloaded process replays the call mix:
           85% unregistered getenv, 12% registered getenv, 3% read-only open
  threads  the same mix on nproc threads of one process
  churn    a reader makes only registered getenv calls while this process
           flips one layer A->B->A with layerstate.state_set_layer on an
           open-loop schedule; switch latency counts from when a flip was due
  spawn    short-lived preloaded programs, `kontext layer set` and
           `kontext get`, one after another

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones, timed by spans this benchmark keeps around each layer's
public entry points (see README.md). Every answer the programs saw is
checked against kontext's Python engine; wrong answers count as failed.
Every metric is printed with its unit and sample count; the last line is the
JSON result. A run record (machine, seed, command) goes to stdout and, with
every metric, to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from driver import (BenchError, Checker, DriverRun, calls_made, check_churn,  # noqa: E402
                    check_steady, run_mixdriver)
from kontext.context import ContextState, contextual_lookup  # noqa: E402
from kontext.engine import make_backend  # noqa: E402
from kontext.layerstate import state_read, state_set_layer, state_write  # noqa: E402
from kontext.shim import ShimSession  # noqa: E402
from kontext.specfile import parse_spec  # noqa: E402
from nativebuild import BuildError, build_all, cc_version  # noqa: E402
from stats import HotPath, quiet_mask, stat, window_keys  # noqa: E402
from workload import (BATCH_SIZE, CALL_SHARE, CLASS_CODE, FLIP_LAYER,  # noqa: E402
                      PRELOAD_SENTINEL, SWITCH_SENTINEL, churn_plan, generate, mix_plan)

# workload name -> spec size in keys; the rest of the inputs are shared
WORKLOADS = {"small_spec": 500, "large_spec": 4000}
# the mixdriver's sample classes by code; code 0 is its reference batch
DRIVER_CLASSES = ("ref",) + tuple(sorted(CLASS_CODE, key=CLASS_CODE.get))
ROUNDS = 12
# how well threads share the lock varies from process to process, so the
# threads phase starts several per round and takes their median
THREAD_PROCESSES = 5
FLIP_PERIOD_NS = 5_000_000
FLIP_LEAD_NS, FLIP_TAIL_NS = 50_000_000, 150_000_000  # no flips this near a reader's ends
SWITCH_WINDOW_NS = 100_000_000
TINY_PER_ROUND = 20
IMPORTTIME_REPEATS = 3
TRACE_FILE_SECONDS = 0.25  # the trace file grows by ~50 bytes per call

# share of each round's time per phase (--trace 0) ...
E2E_SHARE = {"steady": 0.2, "threads": 0.15, "churn": 0.4, "spawn": 0.25}
# ... and of the whole run per step (--trace 1)
TRACE_SHARE = {"span": 0.12, "batch": 0.1, "libc": 0.06, "threads": 0.1, "churn": 0.2,
               "probe": 0.15, "python": 0.12}


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _wait_until(t_ns: int) -> None:
    """Sleep most of the way, then spin: sleep alone runs late."""
    while True:
        left = t_ns - time.monotonic_ns()
        if left <= 0:
            return
        if left > 1_000_000:
            time.sleep((left - 500_000) / 1e9)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, tmp: Path,
                 artifacts: Dict[str, Path]):
        self.seconds = seconds
        self.tmp = tmp
        self.bin = artifacts
        self.nproc = len(os.sched_getaffinity(0))
        self.checker = Checker()
        self.metrics: Dict[str, Tuple[float, int]] = {}
        self.import_top: List[Tuple[float, str]] = []
        base_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LANG": "C"}
        self.wl = generate(workload, seed, WORKLOADS[workload], tmp, base_env)
        rng = random.Random(f"plans:{workload}:{seed}")
        self.mix = mix_plan(self.wl, rng)
        self.churn_plan = churn_plan(self.wl, rng)
        self.mix_path, self.churn_path = tmp / "mix.plan", tmp / "churn.plan"
        self.mix.write(self.mix_path)
        self.churn_plan.write(self.churn_path)
        self.ctx = self.wl.state_a  # always what the state file holds
        state_write(self.wl.state_path, self.ctx)
        # samples gathered over the rounds
        self.steady_hot, self.churn_hot = HotPath(DRIVER_CLASSES), HotPath(DRIVER_CLASSES)
        self.switches: List[Tuple[int, int, float]] = []  # round, window, ms
        self.switch_refs: List[Tuple[int, int, int]] = []  # round, window, reference fsync ns
        self.flip_writes: List[Tuple[int, int, int]] = []  # due, start, done
        self.rss_growth: List[int] = []
        self.setups: List[Tuple[float, int]] = []  # s to ready, first call ns
        self.threaded: List[float] = []  # calls/s of each threaded process
        self.unseen_flips = 0
        self.spawned: Dict[str, List[float]] = {"spawn_ms": [], "layer_set_cli_ms": [],
                                                "get_cli_ms": []}
        self.probe_hot: Optional[HotPath] = None

    # ------------------------------------------------------------ helpers

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    def env(self, preload: bool = True, trace_file: Optional[Path] = None) -> Dict[str, str]:
        env = dict(self.wl.env)
        env.update(KONTEXT_SPEC=str(self.wl.spec_path), KONTEXT_STATE=str(self.wl.state_path),
                   TMPDIR=str(self.tmp))
        if preload:
            env["LD_PRELOAD"] = str(self.bin["_preload.so"])
        if trace_file is not None:
            env["KONTEXT_TRACE"] = str(trace_file)
        return env

    def cli_env(self) -> Dict[str, str]:
        return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LANG": "C",
                "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(self.tmp),
                "HOME": str(self.tmp)}

    def mixdriver(self, mode: str, seconds: float, threads: int = 1, preload: bool = True,
                  trace_file: Optional[Path] = None, churn: bool = False,
                  on_ready: Optional[Callable[[DriverRun], None]] = None) -> DriverRun:
        plan, path = (self.churn_plan, self.churn_path) if churn else (self.mix, self.mix_path)
        run = run_mixdriver(self.bin["mixdriver"], path, mode, seconds, threads,
                            self.env(preload, trace_file), self.tmp, self.tmp / "samples.bin",
                            on_ready)
        self.checker.attempted += calls_made(plan, run, threads)
        if preload:
            self.setups.append((run.ready_s, run.first_call_ns))
        if not churn:
            check_steady(self.checker, self.wl, plan, run, self.ctx, preload)
        return run

    def hot(self, into: HotPath, rnd: int, mode: str, seconds: float, **kwargs) -> DriverRun:
        run = self.mixdriver(mode, seconds, **kwargs)
        into.add(rnd, self.tmp / "samples.bin", seconds,
                 BATCH_SIZE if mode == "batch" else {})
        return run

    @staticmethod
    def rate(run: DriverRun) -> float:
        return run.timed_calls * 1e9 / run.timed_wall_ns

    # ------------------------------------------------------------ phases

    def put_setup(self) -> None:
        """Every driver start: exec, shim init on the first call, one warm
        pass over the plan, until it reports ready."""
        ready_s, first_ns = zip(*self.setups)
        self.put("setup_s", _median(ready_s), len(ready_s))
        self.put("interpose.first_call_us", _median(first_ns) / 1e3, len(first_ns))

    def churn(self, rnd: int, seconds: float) -> None:
        """One reader, flipped A->B->A on schedule while its clock runs."""
        wl = self.wl
        start_value = self.ctx.layers[FLIP_LAYER]
        other = (wl.state_b if start_value == wl.state_a.layers[FLIP_LAYER] else wl.state_a)
        values = [other.layers[FLIP_LAYER], start_value]
        flips: List[Tuple[int, str, int, int]] = []  # due, value, start, done
        reference = self.tmp / "reference.sync"

        def writer(run: DriverRun) -> None:
            due = run.ready_ns + FLIP_LEAD_NS
            with open(reference, "wb") as ref:
                while due < run.deadline_ns - FLIP_TAIL_NS:
                    value = values[len(flips) % 2]
                    _wait_until(due)
                    began = time.monotonic_ns()
                    if began >= run.deadline_ns - FLIP_TAIL_NS:
                        break  # a stalled writer: the reader must still see the last flip
                    state_set_layer(wl.state_path, FLIP_LAYER, value)
                    flips.append((due, value, began, time.monotonic_ns()))
                    # the reference: a durable write that runs no kontext code
                    r0 = time.monotonic_ns()
                    ref.write(b"x")
                    ref.flush()
                    os.fsync(ref.fileno())
                    window = (due - run.ready_ns - FLIP_LEAD_NS) // SWITCH_WINDOW_NS
                    self.switch_refs.append((rnd, window, time.monotonic_ns() - r0))
                    due += FLIP_PERIOD_NS

        first = self.ctx
        run = self.hot(self.churn_hot, rnd, "batch", seconds, churn=True, on_ready=writer)
        self.checker.attempted += len(flips)
        if flips:
            self.ctx = ContextState({**first.layers, FLIP_LAYER: flips[-1][1]},
                                    first.generation + len(flips))
        check_churn(self.checker, wl, self.churn_plan, run, [wl.state_a, wl.state_b], self.ctx)

        # An answer change at t reflects the newest flip of that value begun by t.
        # A flip superseded before the reader looked counts until the reader
        # caught up with it or with a later flip.
        value_of = {wl.getenv_answer(SWITCH_SENTINEL, first.with_layer(FLIP_LAYER, v)): v
                    for v in values}
        slot = self.churn_plan.slots.index(("g", SWITCH_SENTINEL))
        seen = sorted((t, value_of[v]) for w, s, t, v in run.events
                      if w == 1 and s == slot and v in value_of)
        latencies: List[float] = []
        newest: Dict[str, int] = {}
        begun = 0
        for t, value in seen:
            while begun < len(flips) and flips[begun][2] <= t:
                newest[flips[begun][1]] = begun
                begun += 1
            j = newest.get(value, -1)
            while len(latencies) <= j:
                latencies.append((t - flips[len(latencies)][0]) / 1e6)
        # Flips after the reader's last visible change restored the value it
        # held (A->B->A) before it looked again; check_churn has already
        # required its last answers to be the final state's.
        self.unseen_flips += len(flips) - len(latencies)
        for (due, _, began, done), ms in zip(flips, latencies):
            window = (due - run.ready_ns - FLIP_LEAD_NS) // SWITCH_WINDOW_NS
            self.switches.append((rnd, window, ms))
        self.flip_writes += [(due, began, done) for due, _, began, done in flips]
        self.rss_growth.append(run.rss_kb[1] - run.rss_kb[0])

    def spawn(self, seconds: float) -> None:
        """Short-lived preloaded programs and CLI calls, one after another."""
        wl = self.wl
        names = [PRELOAD_SENTINEL, SWITCH_SENTINEL,
                 next(n for c, n in wl.registered if c == "tpl3"),
                 wl.unregistered[0], wl.unregistered[-1]]
        py = [sys.executable, "-m", "kontext"]
        files = ["--spec", str(wl.spec_path), "--state", str(wl.state_path)]
        end = time.monotonic() + seconds
        while True:
            for _ in range(TINY_PER_ROUND):
                out, ms = self._timed_process([str(self.bin["tiny"]), *names], self.env())
                self.spawned["spawn_ms"].append(ms)
                self._check_tiny(names, out)

            a, b = wl.state_a.layers[FLIP_LAYER], wl.state_b.layers[FLIP_LAYER]
            value = b if self.ctx.layers[FLIP_LAYER] == a else a
            out, ms = self._timed_process(py + ["layer", "set", FLIP_LAYER, value] + files,
                                          self.cli_env())
            self.spawned["layer_set_cli_ms"].append(ms)
            self.ctx = self.ctx.with_layer(FLIP_LAYER, value)
            if out.strip() != f"generation={self.ctx.generation}":
                self.checker.wrong(f"layer set printed {out.strip()!r}, "
                                   f"expected generation={self.ctx.generation}")

            count = len(self.spawned["get_cli_ms"])
            name = wl.registered[count % len(wl.registered)][1]
            out, ms = self._timed_process(py + ["get", "getenv/" + name, "--porcelain"] + files,
                                          self.cli_env(), ok_codes=(0, 1))
            self.spawned["get_cli_ms"].append(ms)
            outcome = contextual_lookup(wl.keyset, "getenv/" + name, self.ctx)
            want = outcome.value if outcome is not None else None
            got = out.split("\t")[0] if out else None
            if got != want:
                self.checker.wrong(f"kontext get {name}: {got!r}, expected {want!r}")
            if time.monotonic() >= end:
                return

    def _timed_process(self, argv: List[str], env: Dict[str, str],
                       ok_codes=(0,)) -> Tuple[str, float]:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=self.tmp, capture_output=True, text=True,
                              timeout=60)
        ms = (time.perf_counter() - t0) * 1e3
        self.checker.attempted += 1
        if proc.returncode not in ok_codes:
            raise BenchError(f"{argv[0]} {' '.join(argv[1:3])} exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
        return proc.stdout, ms

    def _check_tiny(self, names: List[str], out: str) -> None:
        got = out.splitlines()
        for name, line in zip(names, got):
            want = self.wl.getenv_answer(name, self.ctx)
            value = line.partition("=")[2] if "=" in line else None
            if name == PRELOAD_SENTINEL and value != want:
                raise BenchError(f"preload not active in the spawned program: {line!r}")
            if value != want:
                self.checker.wrong(f"tiny {name}: {value!r}, expected {want!r}")
        if len(got) != len(names):
            self.checker.wrong(f"tiny printed {len(got)} lines for {len(names)} names")

    # ------------------------------------------------------------ the runs

    def end_to_end(self) -> None:
        """Every phase once per round, so each metric spans the whole run."""
        part = self.seconds / ROUNDS
        for rnd in range(ROUNDS):
            self.hot(self.steady_hot, rnd, "batch", part * E2E_SHARE["steady"])
            for _ in range(THREAD_PROCESSES):
                run = self.mixdriver("batch", part * E2E_SHARE["threads"] / THREAD_PROCESSES,
                                     threads=self.nproc)
                self.threaded.append(self.rate(run))
            self.churn(rnd, part * E2E_SHARE["churn"])
            self.spawn(part * E2E_SHARE["spawn"])
        self.put_end_to_end()

    def put_end_to_end(self) -> None:
        self.put_setup()
        steady = self.steady_hot.quiet()
        for cls in BATCH_SIZE:
            self.put(f"{cls}_ns", steady[cls].p50, steady[cls].samples)
            self.put(f"{cls}_p90_ns", steady[cls].p90, steady[cls].samples)
            self.put(f"{cls}_p99_ns", steady[cls].p99, steady[cls].samples)
        self.put_rate("calls_per_s", self.threaded)
        churn = self.churn_hot.quiet()["getenv_hit"]
        self.put("getenv_churn_ns", churn.p50, churn.samples)
        self.put("getenv_churn_p99_ns", churn.p99, churn.samples)
        self.put_switches()
        for name, values in self.spawned.items():
            self.put(name, _median(values), len(values))

    def put_rate(self, name: str, rates: List[float]) -> float:
        self.put(name, _median(rates), len(rates))
        return _median(rates)

    def put_switches(self) -> None:
        if not self.switches:
            raise BenchError("the churn reader saw no layer switch")
        rnd, window, ms = (np.array(column) for column in zip(*self.switches))
        ref = np.array(self.switch_refs, dtype=float)
        switch = stat(ms[quiet_mask(window_keys(rnd, window),
                                    window_keys(ref[:, 0], ref[:, 1]), ref[:, 2])])
        self.put("switch_ms", switch.p50, switch.samples)
        self.put("switch_p90_ms", switch.p90, switch.samples)
        self.put("switch_p95_ms", switch.p95, switch.samples)
        late = [(began - due) / 1e6 for due, began, _ in self.flip_writes]
        self.put("bench.flip_late_ms", _median(late), len(late))
        writes = stat(np.array([(done - began) / 1e3 for _, began, done in self.flip_writes]))
        self.put("layerstate.state_set_layer_us", writes.p50, writes.samples)
        self.put("layerstate.state_set_layer_p99_us", writes.p99, writes.samples)
        self.put("interpose.rss_growth_kb", _median(self.rss_growth), len(self.rss_growth))
        self.put("bench.unseen_flips", self.unseen_flips, len(self.flip_writes))

    def traced(self) -> None:
        """Per-layer timings: spans around each layer's entry points."""
        s = self.seconds
        part = {step: s * share / ROUNDS for step, share in TRACE_SHARE.items()}
        span_hot, batch_hot, libc_hot = (HotPath(DRIVER_CLASSES) for _ in range(3))
        single: List[float] = []
        span_wall = batch_wall = 0.0
        probe = self.write_probe_file()
        # whole 20 ms windows per coreprobe op; about 17 ops
        slot_ms = max(1, int(part["probe"] * 1e3 / 17 / 20)) * 20
        for rnd in range(ROUNDS):
            span = self.hot(span_hot, rnd, "span", part["span"])
            batch = self.hot(batch_hot, rnd, "batch", part["batch"])
            span_wall += span.timed_wall_ns / span.timed_calls / ROUNDS
            batch_wall += batch.timed_wall_ns / batch.timed_calls / ROUNDS
            single.append(self.rate(batch))
            self.hot(libc_hot, rnd, "batch", part["libc"], preload=False)
            run = self.mixdriver("batch", part["threads"], threads=self.nproc)
            self.threaded.append(self.rate(run))
            self.churn(rnd, part["churn"])
            self.core_probe(probe, rnd, slot_ms)
        spans, batches = span_hot.quiet(), batch_hot.quiet()
        for cls in BATCH_SIZE:
            self.put(f"interpose.{cls}_ns", spans[cls].p50, spans[cls].samples)
        # the same mix with and without per-call spans: wall time per call
        self.put("bench.span_overhead_ns", span_wall - batch_wall, ROUNDS)
        self.put("interpose.thread_scaling", self.put_rate("calls_per_s", self.threaded)
                 / self.put_rate("bench.single_calls_per_s", single), ROUNDS)
        self.put_switches()
        self.put_setup()

        libc = libc_hot.quiet()
        self.put("libc.getenv_ns", libc["getenv_unreg"].p50, libc["getenv_unreg"].samples)
        self.put("libc.open_ns", libc["open_unreg"].p50, libc["open_unreg"].samples)

        trace_file = self.tmp / "shim.trace"
        traced_hot = HotPath(DRIVER_CLASSES)
        traced = self.hot(traced_hot, 0, "batch", TRACE_FILE_SECONDS, trace_file=trace_file)
        classes = ("getenv_unreg", "getenv_hit")
        getenv = [traced_hot.quiet()[c] for c in classes]
        shares = [CALL_SHARE[c] for c in classes]
        self.put("tracing.getenv_traced_ns",
                 sum(g.p50 * w for g, w in zip(getenv, shares)) / sum(shares),
                 sum(g.samples for g in getenv))
        intercepted = calls_made(self.mix, traced, 1)
        self.put("tracing.bytes_per_call", trace_file.stat().st_size / intercepted, intercepted)
        trace_file.unlink()

        core = self.probe_hot.quiet()
        for name, st in core.items():
            self.put(name, st.p50 / (1e3 if name.endswith("_us") else 1), st.samples)
        # the in-process hit minus the same calls to core.h and stat, timed in
        # the same batch shape and reduced the same way
        hit = batches["getenv_hit"]
        self.put("interpose.hit_self_ns", hit.p50 - core["core.hit_parts_ns"].p50, hit.samples)
        self.python_layers(s * TRACE_SHARE["python"])
        self.import_time()

    def write_probe_file(self) -> Path:
        probe_file = self.tmp / "probe.txt"
        lines = [f"reg {c} {n}" for c, n in self.wl.registered]
        lines += [f"unreg {n}" for n in self.wl.unregistered]
        lines += [f"hit {n}" for n in self.mix.registered_calls()]
        probe_file.write_text("\n".join(lines) + "\n")
        return probe_file

    def core_probe(self, probe_file: Path, rnd: int, slot_ms: int) -> None:
        """One coreprobe pass over every op; its samples join self.probe_hot."""
        samples = self.tmp / "probe.bin"
        proc = subprocess.run([str(self.bin["coreprobe"]), str(self.wl.spec_path),
                               str(self.wl.state_path), str(probe_file), str(slot_ms),
                               str(samples)],
                              cwd=self.tmp, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"coreprobe failed: {proc.stderr.strip()}")
        ops = [line.split()[1:] for line in proc.stdout.splitlines()]
        classes = ("ref",) + tuple(name for _, name, _ in ops)
        if self.probe_hot is None:
            self.probe_hot = HotPath(classes)
        elif self.probe_hot.classes != classes:
            raise BenchError("coreprobe ran different ops from one pass to the next")
        self.probe_hot.add(rnd, samples, len(ops) * slot_ms / 1e3,
                           {name: int(calls) for _, name, calls in ops})

    def python_layers(self, seconds: float) -> None:
        wl = self.wl
        keys = ["getenv/" + n for _, n in wl.registered]
        doc = parse_spec(wl.spec_text)
        backend = make_backend(doc, "auto")
        session = ShimSession(doc, state_path=wl.state_path, environ=wl.env)
        getenv_calls = [self.mix.slots[i][1] for cls, idx in self.mix.batches
                        if cls.startswith("getenv") for i in idx]
        budget = seconds / 5

        def spans(name: str, calls: Sequence[Callable[[], object]], scale: float) -> None:
            """One span per call, kept in memory; the median over all of
            them, in the metric's unit, as for the CLI processes these
            functions explain."""
            took: List[int] = []
            end = time.monotonic() + budget
            while time.monotonic() < end or not took:
                for call in calls:
                    t0 = time.perf_counter_ns()
                    call()
                    took.append(time.perf_counter_ns() - t0)
            self.put(name, _median(took) / scale, len(took))

        spans("specfile.parse_spec_ms", [lambda: parse_spec(wl.spec_text)], 1e6)
        spans("context.contextual_lookup_us",
              [lambda k=k: contextual_lookup(doc.keyset, k, self.ctx) for k in keys], 1e3)
        spans("engine.lookup_us", [lambda k=k: backend.lookup(k, self.ctx) for k in keys], 1e3)
        spans("layerstate.state_read_us", [lambda: state_read(wl.state_path)], 1e3)
        spans("shim.session_getenv_us", [lambda n=n: session.getenv(n) for n in getenv_calls], 1e3)
        for name in set(getenv_calls):
            self.checker.attempted += 1
            if session.getenv(name) != wl.getenv_answer(name, self.ctx):
                self.checker.wrong(f"ShimSession.getenv({name}) disagrees with the reference")

    def import_time(self) -> None:
        """`python -X importtime -c "import kontext.cli"`: kontext's share."""
        totals, top = [], {}
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kontext.cli"],
                                  env=self.cli_env(), cwd=self.tmp, capture_output=True,
                                  text=True, timeout=60)
            self.checker.attempted += 1
            if proc.returncode != 0:
                raise BenchError(f"importing kontext.cli failed: {proc.stderr.strip()}")
            total = 0
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "cumulative" in line:
                    continue
                _, cumulative, module = line[len("import time:"):].split("|")
                name = module.strip()
                if name.startswith("kontext"):
                    top.setdefault(name, []).append(int(cumulative) / 1e3)
                    if module[1:2] != " ":  # not nested under another import
                        total += int(cumulative)
            totals.append(total / 1e3)
        self.put("cli.import_ms", _median(totals), len(totals))
        self.import_top = sorted(((_median(v), k) for k, v in top.items()), reverse=True)[:8]


def run_record(args) -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": [sys.executable] + sys.argv,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "cc": cc_version(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build_dir = ROOT / ".bench_build"
    record = run_record(args)
    print("# record " + json.dumps(record), flush=True)
    try:
        artifacts = build_all(ROOT, build_dir)
        tmp = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=build_dir)).resolve()
        try:
            bench = Bench(args.workload, args.seed, args.seconds, tmp, artifacts)
            if args.trace:
                bench.traced()
            else:
                bench.end_to_end()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, BuildError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    checker = bench.checker
    for message in checker.messages:
        print(f"# wrong answer: {message}")
    for ms, name in bench.import_top:
        print(f"# importtime {ms:9.3f} ms  {name}")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in bench.metrics:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 3
        metrics[name] = {"value": bench.metrics[name][0], "unit": entry["unit"]}
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, samples) in sorted(bench.metrics.items()):
        unit = units.get(name, "1/s" if name.endswith("_per_s") else name.rsplit("_", 1)[-1])
        print(f"{name:36s} {value:14.4f} {unit:6s} n={samples}")
    print(f"{'wrong_answers':36s} {checker.failed:14d} {'count':6s} n={checker.attempted}")

    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{os.getpid()}.json")
    record_path.write_text(json.dumps({"record": record, "result": result,
                                       "metrics": bench.metrics,
                                       "importtime_ms": bench.import_top}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
