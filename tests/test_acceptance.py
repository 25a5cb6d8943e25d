"""Acceptance gate: one test per shipping criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Each test also prints an explicit CRITERION line on success.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from conftest import KONTEXT_CMD, PROXY_SPEC
from kontext.context import ContextState, contextual_lookup
from kontext.context import candidates as pure_candidates
from kontext.errors import CycleDetectedError, DepthExceededError
from kontext.keydb import Key, KeySet
from kontext.layerstate import state_read, state_set_layer
from kontext.shim import child_environment
from kontext.specfile import parse_spec, serialize_spec
from kontext.tracing import parse_trace
from lookup_oracle import make_instance, oracle_candidates, oracle_lookup

STEADY_BUDGET_NS = 50_000  # 50 us per cached shimmed call
CHURN_CHANGES = 10


def entries_keyset(entries):
    ks = KeySet()
    for name, (value, template) in entries.items():
        meta = {"context": template} if template is not None else {}
        ks.insert(Key(name, value, meta))
    return ks


# --------------------------------------------------------------- criterion 1


def test_criterion_01_proxy_scenario_exact_values(kxcore):
    start = time.monotonic()
    scenarios = [
        ({"interface": "eth", "network": "work"}, "proxy.example.com"),
        ({"interface": "wlan", "network": "home"}, "proxy.example.org"),
        ({"interface": "wlan", "network": "cafe"}, "default.example.com"),
        ({"interface": "usb", "network": "work"}, "default.example.com"),
        ({}, "default.example.com"),
    ]
    engines = [("python", partial(contextual_lookup, parse_spec(PROXY_SPEC).keyset)),
               ("c", kxcore.Engine(PROXY_SPEC).lookup)]
    for engine, lookup in engines:
        for layers, expected in scenarios:
            out = lookup("getenv/http_proxy", ContextState(layers))
            assert out is not None
            assert out.value == expected, (engine, layers)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"scenario run took {elapsed:.3f}s"
    print(f"CRITERION 1: PASS ({len(scenarios)} contexts x {len(engines)} engines, {elapsed * 1000:.0f} ms)")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_live_retarget_without_restart(
    demo_bins, preload_so, proxy_spec, tmp_path
):
    state = tmp_path / "state.ks"
    start = time.monotonic()
    for args in (["interface", "wlan"], ["network", "work"]):
        ran = subprocess.run(
            KONTEXT_CMD + ["layer", "set", "--state", str(state)] + args,
            capture_output=True,
            timeout=30,
        )
        assert ran.returncode == 0

    child = subprocess.Popen(
        KONTEXT_CMD
        + ["run", "--spec", str(proxy_spec), "--state", str(state),
           str(demo_bins["sync_getenv"])],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        bufsize=1,
    )
    try:
        child.stdin.write("probe\n")
        child.stdin.flush()
        before = child.stdout.readline().strip()
        assert before == "default.example.com"

        ran = subprocess.run(
            KONTEXT_CMD + ["layer", "set", "--state", str(state), "network", "home"],
            capture_output=True,
            timeout=30,
        )
        assert ran.returncode == 0

        # the very next intercepted call in the running process retargets
        child.stdin.write("probe\n")
        child.stdin.flush()
        after = child.stdout.readline().strip()
        assert after == "proxy.example.org"

        child.stdin.close()
        assert child.wait(timeout=10) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"retarget test took {elapsed:.3f}s"
    print(f"CRITERION 2: PASS (retarget on the next call, {elapsed:.2f} s total)")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_lookup_oracle_equivalence(kxcore):
    start = time.monotonic()
    instances = 1000
    cycles = 0
    for seed in range(instances):
        rng = random.Random(30_000 + seed)
        seed_cycle = seed % 10 == 0
        entries, layers, query = make_instance(rng, seed_cycle=seed_cycle)
        text = serialize_spec(entries_keyset(entries))
        expected_kind, payload = oracle_lookup(entries, query, layers)

        for engine, lookup in (("python", partial(contextual_lookup, parse_spec(text).keyset)),
                               ("c", kxcore.Engine(text).lookup)):
            if expected_kind == "cycle":
                with pytest.raises(CycleDetectedError):
                    lookup(query, ContextState(layers))
            elif expected_kind == "depth":
                with pytest.raises(DepthExceededError):
                    lookup(query, ContextState(layers))
            elif expected_kind == "absent":
                assert lookup(query, ContextState(layers)) is None
            else:
                out = lookup(query, ContextState(layers))
                assert out is not None
                value, matched, chain = payload
                assert (out.value, out.matched_name, out.chain) == (
                    value,
                    matched,
                    tuple(chain),
                ), (seed, engine)
        if expected_kind == "cycle":
            cycles += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    assert cycles == instances // 10
    print(
        f"CRITERION 3: PASS ({instances} instances, {cycles} cycle-seeded, "
        f"2 engines, {elapsed:.1f} s)"
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_candidate_order_property(kxcore):
    cases = 500
    for seed in range(cases):
        rng = random.Random(40_000 + seed)
        k = rng.randint(0, 3)
        refs = [rng.choice(["l1", "l2", "l3"]) for _ in range(k)]
        template = "base" + "".join(f"/%{r}%" for r in refs)
        layers = {
            name: rng.choice(["red", "blue", "green"])
            for name in ("l1", "l2", "l3")
            if rng.random() < 0.6
        }
        expected = oracle_candidates(template, layers)
        got = pure_candidates(template, ContextState(layers))
        assert got == expected, (seed, template, layers)
        assert len(got) == 2 ** sum(1 for r in refs if r in layers)
        assert kxcore.candidates(template, layers) == expected, (seed, template)
    print(f"CRITERION 4: PASS ({cases} random templates, k in 0..3)")


# --------------------------------------------------------------- criterion 5

_NAME_ALPHA = "abcxyz019._-"
_VALUE_ALPHA = "abcxyz019 _*.%=/:-"


def _random_name(rng) -> str:
    segments = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.15:
            segments.append("*")
        else:
            segments.append(
                "".join(rng.choice(_NAME_ALPHA) for _ in range(rng.randint(1, 6)))
            )
    return "/".join(segments)


def _random_value(rng) -> str:
    while True:
        value = "".join(rng.choice(_VALUE_ALPHA) for _ in range(rng.randint(0, 12)))
        if value != value.strip(" \t"):
            continue
        if value.startswith("#") or " #" in value or "\t#" in value:
            continue
        return value


def _random_keyset(rng) -> KeySet:
    ks = KeySet()
    for _ in range(rng.randint(0, 12)):
        name = _random_name(rng)
        meta = {}
        for p in range(rng.randint(0, 3)):
            prop = "p" + "".join(rng.choice("abcxyz") for _ in range(rng.randint(1, 5)))
            meta[prop] = _random_value(rng)
        ks.insert(Key(name, _random_value(rng), meta))
    return ks


def _as_plain_dict(ks: KeySet):
    return {key.name.display: (key.value, dict(key.meta)) for key in ks}


def test_criterion_05_parser_round_trip():
    sets = 1000
    for seed in range(sets):
        rng = random.Random(50_000 + seed)
        original = _random_keyset(rng)
        text = serialize_spec(original)
        parsed = parse_spec(text).keyset
        assert _as_plain_dict(parsed) == _as_plain_dict(original), seed
        again = serialize_spec(parsed)
        assert again == text, seed  # byte-level idempotence
    print(f"CRITERION 5: PASS ({sets} generated key sets, byte-stable)")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_transparency_suite(demo_bins, preload_so, tmp_path):
    payload = tmp_path / "input.txt"
    payload.write_text("sample line one\nsample line two\n")
    scratch = tmp_path / "scratch-out.txt"
    programs = {
        "t01_env_present": [],
        "t02_env_missing": [],
        "t03_env_empty_name": [],
        "t04_env_loop": [],
        "t05_open_read": [str(payload)],
        "t06_open_missing": [],
        "t07_fopen_read": [str(payload)],
        "t08_open_write": [str(scratch)],
        "t09_env_long_name": [],
        "t10_mixed": [],
    }
    assert len(programs) == 10

    base_env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("KONTEXT_") and k != "LD_PRELOAD"
    }
    shim_env = dict(base_env)
    shim_env["LD_PRELOAD"] = str(preload_so)

    for stem, args in programs.items():
        argv = [str(demo_bins[stem])] + args
        plain = subprocess.run(argv, env=base_env, capture_output=True, timeout=60)
        shimmed = subprocess.run(argv, env=shim_env, capture_output=True, timeout=60)
        assert shimmed.stdout == plain.stdout, stem
        assert shimmed.stderr == plain.stderr, stem
        assert shimmed.returncode == plain.returncode, stem
    print("CRITERION 6: PASS (10 programs byte-identical under the idle shim)")


# --------------------------------------------------------------- criterion 7

_WRITER = """
import sys
from kontext.layerstate import state_set_layer
path, name = sys.argv[1], sys.argv[2]
for i in range(100):
    state_set_layer(path, name, "v%d" % i, timeout=30.0)
"""


def test_criterion_07_layer_state_concurrency(tmp_path):
    state = tmp_path / "state.ks"
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(state), name])
        for name in ("alpha", "beta")
    ]
    generations = [0]
    reads = 0
    try:
        while any(w.poll() is None for w in writers):
            ctx = state_read(state)  # raises on any torn/invalid content
            assert ctx.generation >= generations[-1]
            generations.append(ctx.generation)
            reads += 1
    finally:
        for w in writers:
            assert w.wait(timeout=120) == 0

    final = state_read(state)
    assert final.generation == 200
    assert final.get("alpha") == "v99"
    assert final.get("beta") == "v99"
    assert reads > 0
    print(f"CRITERION 7: PASS (2 writers x 100 -> generation 200, {reads} clean reads)")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_scan_fixture_exact_counts(cli):
    corpus = Path(__file__).parent / "fixtures" / "scancorpus"
    code, out, err = cli("scan", "--porcelain", str(corpus))
    assert code == 0
    total = out.splitlines()[-1].split("\t")
    assert total[0] == "total"
    loc, calls, comment_or_string, identifiers, lines_per_call = total[1:]
    assert calls == "3"
    assert comment_or_string == "1"
    assert identifiers == "1"
    assert loc == "12"
    assert lines_per_call == "4"  # round(12 / 3)
    print("CRITERION 8: PASS (planted counts 3/1/1 over 12 LOC, quotient 4)")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_trace_startup_window(cli, demo_bins, preload_so, proxy_spec):
    code, out, err = cli(
        "trace", "--startup-ms", "1000", "--porcelain", "--spec", str(proxy_spec),
        str(demo_bins["timed_getenv"]),
    )
    assert code == 0
    fields = dict(part.split("=") for part in out.strip().split("\t"))
    total = int(fields["getenv_all"])
    unique = int(fields["all_uniq"])
    later = int(fields["later_uniq"])
    assert total >= 2
    assert unique == 2
    assert later == 1
    assert later <= unique <= total
    print(f"CRITERION 9: PASS (total={total}, unique={unique}, later={later})")


# -------------------------------------------------------------- criterion 10


# a flip per line, each answered differently from the one before it
FLIPS = [("network", "work"), ("network", "home"), ("interface", "wlan"), ("network", "cafe"),
         ("network", "home"), ("interface", "eth"), ("network", "work"), ("interface", "usb"),
         ("interface", "eth"), ("network", "home")]


def test_criterion_10_overhead_characterization(demo_bins, preload_so, proxy_spec, tmp_path):
    assert len(FLIPS) == CHURN_CHANGES
    state = tmp_path / "state.ks"
    trace = tmp_path / "trace.log"
    state_set_layer(state, "interface", "eth")
    base = {k: v for k, v in os.environ.items() if k != "http_proxy"}
    keyset = parse_spec(PROXY_SPEC).keyset

    def expected():
        return contextual_lookup(keyset, "getenv/http_proxy", state_read(state)).value

    # steady per-call latency of a registered name under the real shim
    timed = subprocess.run(
        [str(demo_bins["getenv_latency"]), "http_proxy", "100000"],
        env=child_environment(spec=proxy_spec, state=state, base=base),
        capture_output=True, text=True, timeout=60,
    )
    assert timed.returncode == 0, timed.stderr
    steady_ns, answer = timed.stdout.split()
    assert answer == expected()
    assert int(steady_ns) <= STEADY_BUDGET_NS, (
        f"steady median {steady_ns} ns exceeds {STEADY_BUDGET_NS} ns"
    )

    # steady reads, then one read after each flip: only the flips reload
    child = subprocess.Popen(
        [str(demo_bins["sync_getenv"])],
        env=child_environment(spec=proxy_spec, state=state, trace=trace, base=base),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
    )
    try:
        child.stdin.write("probe\n" * 200)
        child.stdin.flush()
        answers = [child.stdout.readline().strip() for _ in range(200)]
        assert answers == [expected()] * 200
        for name, value in FLIPS:
            state_set_layer(state, name, value)
            child.stdin.write("probe\n")
            child.stdin.flush()
            answer = child.stdout.readline().strip()
            assert answer == expected() != answers[-1], (name, value)
            answers.append(answer)
        child.stdin.close()
        assert child.wait(timeout=10) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    # counted from the per-call and reload records
    records = parse_trace(trace.read_text())
    outcomes = [r.fields[1] for r in records if r.kind == "getenv"]
    reloads = sum(r.kind == "reload" for r in records)
    assert (len(outcomes), outcomes.count("hit"), reloads) == (210, 210, CHURN_CHANGES)
    print(f"CRITERION 10: PASS (steady {int(steady_ns)} ns/call, reloads {CHURN_CHANGES})")
