"""Seeded workload inputs and the pure-Python reference answers.

A workload is a spec, a layer state, a child environment and call plans,
all generated from the seed. The programs receive only these files; the
harness keeps the reference, which is kontext's own Python engine
(parse_spec + contextual_lookup) applied with the shim's rules:
unregistered names and failed lookups fall through to the environment,
registered read-only opens are served a rendered shadow file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from kontext.context import ContextState, contextual_lookup
from kontext.errors import KontextError
from kontext.keydb import KeySet
from kontext.specfile import parse_spec

GETENV_PREFIX = "getenv/"
PRELOAD_SENTINEL = "KX_PRELOAD_SENTINEL"  # spec and environment disagree on it
SWITCH_SENTINEL = "KX_SWITCH"  # answers differ between the two flip states
ABSENT_NAME = "KX_ABSENT"  # registered, but resolves to nothing
FLIP_LAYER = "net"

LAYERS = ("net", "loc", "role", "site", "mode")
UNSET_LAYER = "zone"  # referenced by templates, never set: pinned to '*'
LAYER_VALUES = 4

# calls per batch by class; batching keeps the clock read off a ~200 ns call
BATCH_SIZE = {"getenv_unreg": 64, "getenv_hit": 16, "open_unreg": 4, "open_hit": 4}
# the driver's batch class codes; 0 is its reference batch
CLASS_CODE = {"getenv_unreg": 1, "getenv_hit": 2, "open_unreg": 3, "open_hit": 4}
# share of calls: 85% unregistered getenv, 12% registered, 3% open
CALL_SHARE = {"getenv_unreg": 0.85, "getenv_hit": 0.12, "open_unreg": 0.015, "open_hit": 0.015}
PLAN_BATCHES = 512
ENV_VARS = 60  # variables in the programs' environment
CHURN_BATCHES = 256

# (class, count) of registered getenv names, 32 in all. Whatever the seed,
# the 19 template names change answer when the flipped layer changes and
# the 13 plain, chain and absent names do not.
REGISTERED_CLASSES = (("plain", 8), ("tpl1", 8), ("tpl2", 6), ("tpl3", 6), ("chain", 4))


@dataclass
class Workload:
    dir: Path
    spec_path: Path = field(init=False)
    state_path: Path = field(init=False)
    spec_text: str = ""
    keyset: KeySet = field(default_factory=KeySet)
    state_a: ContextState = field(default_factory=ContextState)
    state_b: ContextState = field(default_factory=ContextState)
    env: Dict[str, str] = field(default_factory=dict)
    registered: List[Tuple[str, str]] = field(default_factory=list)  # (class, name)
    unregistered: List[str] = field(default_factory=list)
    open_registered: List[str] = field(default_factory=list)
    open_plain: List[str] = field(default_factory=list)
    real_files: Dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self):
        self.spec_path = self.dir / "spec.ks"
        self.state_path = self.dir / "state.ks"

    # ------------------------------------------------------------ reference

    def getenv_answer(self, name: str, ctx: ContextState) -> Optional[str]:
        key = GETENV_PREFIX + name
        if self.keyset.get(key) is None:
            return self.env.get(name)
        try:
            outcome = contextual_lookup(self.keyset, key, ctx)
        except KontextError:
            outcome = None
        return outcome.value if outcome is not None else self.env.get(name)

    def open_answer(self, path: str, ctx: ContextState) -> bytes:
        real = self.real_files[path]
        key = self.keyset.get("open" + path)
        prefix = key.meta.get("template") if key is not None else None
        if not prefix:
            return real
        below = self.keyset.below(prefix)
        if not below:
            return real
        lines = []
        for entry in below:
            try:
                outcome = contextual_lookup(self.keyset, entry.name, ctx)
            except KontextError:
                return real
            if outcome is not None:
                rel = entry.name.display[len(prefix) + 1:]
                lines.append(f"{rel}={outcome.value}\n")
        return "".join(lines).encode()


def fnv1a_text(data: bytes) -> str:
    """The driver's content digest: '<length>:<fnv-1a 64 hex>'."""
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"{len(data)}:{h:016x}"


def _token(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(n))


def _layer_value(layer: str, i: int) -> str:
    return f"{layer[0]}{i}"


def _template_block(rng, lines, base, refs, fallback, flip=None):
    """Pattern entries under base for a template over refs: the all-'*'
    entry when fallback, plus a random half of the other concrete/'*'
    combinations. With flip = (layer, value indexes), each of those values
    gets an entry that names only it, and no entry that ignores the layer
    can shadow it, so the answer always changes when that layer flips."""
    pos = refs.index(flip[0]) if flip else -1
    combos = [[]]
    for _ in refs:
        combos = [c + [v] for c in combos for v in ["*"] + list(range(LAYER_VALUES))]
    for combo in combos:
        segs = [v if v == "*" else _layer_value(ref, v) for ref, v in zip(refs, combo)]
        entry = f"{base}/{'/'.join(segs)} = {_token(rng)}"
        wild = [j for j, v in enumerate(combo) if v == "*"]
        if len(wild) == len(refs):
            if fallback:
                lines.append(entry)
        elif flip and combo[pos] in flip[1] and len(wild) == len(refs) - 1:
            lines.append(entry)
        elif flip and combo[pos] == "*" and any(v != "*" for v in combo[:pos]):
            continue
        elif rng.random() < 0.5:
            lines.append(entry)


def generate(name: str, seed: int, spec_keys: int, dirpath: Path,
             base_env: Dict[str, str]) -> Workload:
    """Write the workload's spec, state and files under dirpath."""
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(dir=dirpath)
    etc = dirpath / "etc"
    etc.mkdir(parents=True, exist_ok=True)

    state = {layer: _layer_value(layer, rng.randrange(LAYER_VALUES)) for layer in LAYERS}
    flipped = dict(state)
    flipped[FLIP_LAYER] = _layer_value(
        FLIP_LAYER, (int(state[FLIP_LAYER][1:]) + 1 + rng.randrange(LAYER_VALUES - 1))
        % LAYER_VALUES)
    wl.state_a = ContextState(state, 1)
    wl.state_b = ContextState(flipped, 2)
    ref_layers = list(LAYERS) + [UNSET_LAYER]

    env = dict(base_env)
    env[PRELOAD_SENTINEL] = "from-env-" + _token(rng)
    lines: List[str] = []
    sections: List[str] = []

    def section(key, value, **props):
        sections.append(f"[{key}]")
        for prop, text in props.items():
            sections.append(f"{prop} = {text}")
        if value is not None:
            sections.append(f"value = {value}")

    # registered getenv names
    lines.append(f"{GETENV_PREFIX}{PRELOAD_SENTINEL} = from-spec-{_token(rng)}")
    wl.registered.append(("plain", PRELOAD_SENTINEL))
    section(GETENV_PREFIX + SWITCH_SENTINEL, "switch-default", context=f"switch/%{FLIP_LAYER}%")
    lines.append(f"switch/{state[FLIP_LAYER]} = switch-a-{_token(rng)}")
    lines.append(f"switch/{flipped[FLIP_LAYER]} = switch-b-{_token(rng)}")
    wl.registered.append(("tpl1", SWITCH_SENTINEL))
    # falls through to the environment: its only layer is never set
    section(GETENV_PREFIX + ABSENT_NAME, None, context=f"absent/%{UNSET_LAYER}%")
    env[ABSENT_NAME] = "env-" + _token(rng)
    wl.registered.append(("tpl1", ABSENT_NAME))
    flip = (FLIP_LAYER, [int(state[FLIP_LAYER][1:]), int(flipped[FLIP_LAYER][1:])])
    for cls, count in REGISTERED_CLASSES:
        have = sum(1 for c, _ in wl.registered if c == cls)
        for i in range(count - have):
            var = f"KX_{cls.upper()}_{i}"
            wl.registered.append((cls, var))
            if i % 3 == 0:
                env[var] = "env-" + _token(rng)  # shadowed by the spec
            if cls == "plain":
                lines.append(f"{GETENV_PREFIX}{var} = {_token(rng, 12)}")
                continue
            if cls == "chain":
                section(GETENV_PREFIX + var, None, context=f"chain/{i}/%site%")
                for site in ["*"] + [_layer_value("site", v) for v in range(LAYER_VALUES)]:
                    if site == "*" or rng.random() < 0.5:
                        section(f"chain/{i}/{site}", _token(rng), context=f"leaf/{i}/{site}/%mode%")
                        _template_block(rng, lines, f"leaf/{i}/{site}", ["mode"], True)
                continue
            # which layers, and where the flipped one sits, set how many
            # candidates a lookup probes: cycle them so every seed has the same
            nrefs = int(cls[-1])
            others = [r for r in ref_layers if r != FLIP_LAYER]
            refs = [others[(i + j) % len(others)] for j in range(nrefs - 1)]
            refs.insert(i % nrefs, FLIP_LAYER)
            base = f"{cls}/{i}"
            section(GETENV_PREFIX + var, _token(rng), context=base + "".join(f"/%{r}%" for r in refs))
            _template_block(rng, lines, base, refs, True, flip)

    # read-only files: two registered (served a shadow), four plain
    for j in range(2):
        path = str(etc / f"app{j}.conf")
        prefix = f"conf/app{j}"
        section("open" + path, None, template=prefix)
        for k in range(6):
            if k % 2:
                section(f"{prefix}/k{k}", _token(rng), context=f"confv/{j}/{k}/%{FLIP_LAYER}%")
                _template_block(rng, lines, f"confv/{j}/{k}", [FLIP_LAYER], False)
            else:
                lines.append(f"{prefix}/k{k} = {_token(rng)}")
        wl.open_registered.append(path)
        wl.real_files[path] = f"real file {j}\n".encode()
    for j in range(4):
        path = str(etc / f"plain{j}.conf")
        wl.open_plain.append(path)
        wl.real_files[path] = ("".join(f"line{n}={_token(rng)}\n" for n in range(8))).encode()

    # filler up to the target size: unrelated plain keys and some sections
    filler = 0
    while len(lines) + sum(1 for s in sections if s.startswith("[")) < spec_keys:
        group, item = divmod(filler, 40)
        key = f"misc/g{group:03d}/k{item:03d}"
        if filler % 10 == 9:
            section(key, _token(rng), owner=f"team-{_token(rng, 4)}")
        else:
            lines.append(f"{key} = {_token(rng)}")
        filler += 1

    # environment: ENV_VARS variables
    words = ("HOME", "PATH", "LANG", "USER", "SHELL", "TERM", "EDITOR", "PAGER")
    i = 0
    while len(env) < ENV_VARS:
        env[f"KXE_{rng.choice(words)}_{i}"] = _token(rng, rng.randrange(4, 40))
        i += 1
    # every generated variable is asked for, so the mean scan depth over the
    # environment is the same for every seed
    present = sorted(k for k in env if k.startswith("KXE_"))
    wl.unregistered = present + [f"KXA_MISSING_{n}" for n in range(len(present))]
    wl.env = env

    wl.spec_text = "\n".join(["# generated benchmark spec"] + lines + sections) + "\n"
    wl.keyset = parse_spec(wl.spec_text).keyset
    wl.spec_path.write_text(wl.spec_text)
    for path, data in wl.real_files.items():
        Path(path).write_bytes(data)
    return wl


@dataclass
class Plan:
    """Slots (getenv names or paths) and the batches that call them."""

    slots: List[Tuple[str, str]]  # ('g', name) or ('o', path)
    batches: List[Tuple[str, List[int]]]

    def write(self, path: Path) -> None:
        out = [f"S {kind} {text}" for kind, text in self.slots]
        out += [f"B {CLASS_CODE[cls]} {len(idx)} {' '.join(map(str, idx))}"
                for cls, idx in self.batches]
        path.write_text("\n".join(out) + "\n")

    def registered_calls(self) -> List[str]:
        return [self.slots[i][1] for cls, idx in self.batches if cls == "getenv_hit" for i in idx]


def mix_plan(wl: Workload, rng: random.Random) -> Plan:
    """The steady mix: 85/12/3 by calls, drawn batch by batch."""
    pools = {
        "getenv_unreg": [("g", n) for n in wl.unregistered],
        "getenv_hit": [("g", n) for _, n in wl.registered],
        "open_unreg": [("o", p) for p in wl.open_plain],
        "open_hit": [("o", p) for p in wl.open_registered],
    }
    slots: List[Tuple[str, str]] = []
    index: Dict[Tuple[str, str], int] = {}
    for pool in pools.values():
        for slot in pool:
            index[slot] = len(slots)
            slots.append(slot)
    classes = list(BATCH_SIZE)
    weights = [CALL_SHARE[c] / BATCH_SIZE[c] for c in classes]
    batches = []
    for _ in range(PLAN_BATCHES):
        cls = rng.choices(classes, weights)[0]
        batches.append((cls, [index[rng.choice(pools[cls])] for _ in range(BATCH_SIZE[cls])]))
    return Plan(slots, batches)


def churn_plan(wl: Workload, rng: random.Random) -> Plan:
    """Registered getenv only; every batch asks for the switch sentinel first."""
    slots = [("g", n) for _, n in wl.registered]
    sentinel = slots.index(("g", SWITCH_SENTINEL))
    size = BATCH_SIZE["getenv_hit"]
    batches = [("getenv_hit", [sentinel] + [rng.randrange(len(slots)) for _ in range(size - 1)])
               for _ in range(CHURN_BATCHES)]
    return Plan(slots, batches)
