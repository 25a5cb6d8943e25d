"""The C engine through its ctypes binding: symbol visibility, and the spec
and state parsers checked against the Python ones by differential testing
(McKeeman, "Differential Testing for Software", 1998).
"""

from __future__ import annotations

import ctypes
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kontext import CorruptStateError, SpecParseError, parse_spec, state_read

# bytes that exercise both grammars, plus what the engines once disagreed
# on: NUL, stray \r, non-ASCII digits and invalid UTF-8
_HOSTILE = [b"\x00", b"\r", "²".encode(), "٣".encode(), "é".encode(),
            b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe0\x80\x80"]
SPEC_TOKENS = [b"[", b"]", b"=", b"#", b" ", b"\t", b"/", b"*", b"%", b"a", b"b", b"a/b",
               b"value", b"context", b"%l%", b"0", b"9", b".", b"-"] + _HOSTILE
SPEC_PREFIXES = [b"", b"[", b"getenv/", b"a/b=", b"value=", b"context=", b"#"]
STATE_TOKENS = [b"=", b" ", b"\t", b"/", b"%", b"*", b"a", b"b", b"0", b"1", b"9",
                b"9223372036854775807", b"9223372036854775808"] + _HOSTILE
STATE_PREFIXES = [b"", b"generation=", b"layer/", b"layer/a="]


def _text(prefixes, tokens):
    line = st.tuples(st.sampled_from(prefixes), st.lists(st.sampled_from(tokens), max_size=6))
    return st.lists(line.map(lambda t: t[0] + b"".join(t[1])), max_size=6).map(b"\n".join)


def spec_outcome(parse):
    """("ok", {name: (value, meta)}) or ("error", kind, line)."""
    try:
        return ("ok", parse())
    except SpecParseError as exc:
        return ("error", exc.kind, exc.line)


def state_outcome(parse):
    """("ok", generation, layers) or ("error", line)."""
    try:
        return ("ok",) + tuple(parse())
    except CorruptStateError as exc:
        return ("error", exc.line)


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "state.ks"


def python_spec(data):
    return {key.name.display: (key.value, dict(key.meta)) for key in parse_spec(data).keyset}


def python_state(path, data):
    path.write_bytes(data)
    ctx = state_read(path)
    return ctx.generation, dict(ctx.layers)


def test_engine_symbols_exported_only_from_kxcore(kxcore, kxcore_so, preload_so):
    core = ctypes.CDLL(str(kxcore_so))
    assert [name for name in kxcore.SIGNATURES if not hasattr(core, name)] == []
    # in a child: loading _preload.so runs its constructor
    probe = "import ctypes, sys; lib = ctypes.CDLL(sys.argv[1]); " \
            "print(hasattr(lib, 'kx_lookup'), hasattr(lib, 'kx_parse_spec'))"
    ran = subprocess.run([sys.executable, "-c", probe, str(preload_so)],
                         capture_output=True, text=True, check=True)
    assert ran.stdout.split() == ["False", "False"]


@settings(max_examples=600, deadline=None)
@given(data=_text(SPEC_PREFIXES, SPEC_TOKENS))
@example(data=b"a\x00b=1\n")
@example(data=b"a=b\x00c\n")
@example(data=b"[s]\nk=v\x00\n")
@example(data=b"a=1\nb=\x00\xff\n")
@example(data=b"a=\xff\nb=\x00\n")
def test_spec_parsers_agree(kxcore, data):
    assert spec_outcome(lambda: kxcore.Engine(data).entries()) == spec_outcome(
        lambda: python_spec(data)
    )


@settings(max_examples=600, deadline=None)
@given(data=_text(STATE_PREFIXES, STATE_TOKENS))
@example(data="generation=²\n".encode())
@example(data="generation=٣\n".encode())
@example(data=b"generation=9223372036854775808\n")
@example(data=b"generation=9223372036854775807\n")
@example(data=b"generation=1\nlayer/a\x00=b\n")
@example(data=b"generation=1\nlayer/a=b\x00c\n")
@example(data=b"generation=1\nlayer/a=\xff\n")
@example(data=b"generation=1\rlayer/a=b\n")
def test_state_parsers_agree(kxcore, state_path, data):
    assert state_outcome(lambda: kxcore.parse_state(data)) == state_outcome(
        lambda: python_state(state_path, data)
    )


@pytest.mark.parametrize("data,line", [
    ("generation=\u00b2\n".encode(), 1),
    ("generation=\u0663\n".encode(), 1),
    (b"generation=9223372036854775808\n", 1),
    (b"generation=1\nlayer/a\x00=b\n", 0),
    (b"generation=1\nlayer/a=\xff\n", 0),
])
def test_corrupt_states_rejected(kxcore, state_path, data, line):
    assert state_outcome(lambda: kxcore.parse_state(data)) == ("error", line)
    assert state_outcome(lambda: python_state(state_path, data)) == ("error", line)
