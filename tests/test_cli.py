"""Command line interface: outputs and exit codes per subcommand."""

from __future__ import annotations

import argparse
import ast
import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import KONTEXT_CMD, PROXY_SPEC
from kontext import cli as cli_module
from kontext.layerstate import state_read, state_serialize, state_set_layer


class TestUsage:
    def test_no_command(self, cli):
        code, _, err = cli()
        assert code == 2

    def test_unknown_command(self, cli):
        code, _, err = cli("frobnicate")
        assert code == 2

    def test_missing_spec_is_usage_error(self, cli):
        code, _, err = cli("get", "getenv/http_proxy")
        assert code == 2
        assert "spec" in err


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


def _options(parser):
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}


def _leaf_parsers(name, parser):
    """(command words, parser) for every parser that takes no action."""
    subs = list(_subparsers(parser))
    if not subs:
        yield name, parser
    for sub_name, sub in subs:
        yield from _leaf_parsers(f"{name} {sub_name}".strip(), sub)


def _args_read():
    """{function name: the `args.X` attributes it reads} for each function
    of cli.py, counting those read by the cli.py functions it hands `args`
    to (_spec_path, _state_path, _child_env, _notify_plan, ...)."""
    tree = ast.parse(Path(cli_module.__file__).read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def is_args(node):
        return isinstance(node, ast.Name) and node.id == "args"

    direct, callees = {}, {}
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        direct[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute) and is_args(n.value)}
        callees[name] = {n.func.id for n in nodes
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                         and n.func.id in funcs and any(map(is_args, n.args))}

    def reads(name, seen):
        seen.add(name)
        out = set(direct[name])
        for callee in callees[name] - seen:
            out |= reads(callee, seen)
        return out

    return {name: reads(name, set()) for name in funcs}


class TestParser:
    def test_no_group_shares_an_option_with_its_actions(self):
        # argparse lets an action parser's defaults overwrite the values its
        # group parser read, so a flag given to both is silently dropped
        clashes = []
        pending = [("kontext", cli_module._build_parser())]
        while pending:
            name, parser = pending.pop()
            for sub_name, sub in _subparsers(parser):
                pending.append((f"{name} {sub_name}", sub))
                for action_name, action in _subparsers(sub):
                    for opt in sorted(_options(sub) & _options(action)):
                        clashes.append(f"{name} {sub_name} / {action_name}: {opt}")
        assert clashes == []

    def test_every_declared_option_is_read_by_its_handler(self):
        # the one flag kept unread: perfbench/run.py passes --spec to layer set
        reads = _args_read()
        unread = []
        for name, parser in _leaf_parsers("", cli_module._build_parser()):
            handler = parser.get_default("handler").__name__
            for action in parser._actions:
                if action.dest != "help" and action.dest not in reads[handler]:
                    unread.append(f"{name}: {action.dest}")
        assert sorted(unread) == ["layer set: spec", "layer unset: spec"]

    def test_scan_ext_help_names_the_scanners_default(self):
        from kontext.scan import DEFAULT_EXTENSIONS

        scan = dict(_subparsers(cli_module._build_parser()))["scan"]
        assert f"(default: {','.join(DEFAULT_EXTENSIONS)})" in scan.format_help()

    @pytest.mark.parametrize("argv", [
        ("scan", "--spec", "{spec}", "{root}"),
        ("scan", "--state", "{state}", "{root}"),
        ("scan", "-v", "{root}"),
        ("set", "--spec", "{spec}", "--state", "{state}", "a/b", "v"),
        ("set", "--spec", "{spec}", "--porcelain", "a/b", "v"),
        ("run", "--porcelain", "{missing}"),
        ("run", "-v", "{missing}"),
        ("layer", "set", "--state", "{state}", "--porcelain", "network", "home"),
        ("layer", "unset", "--state", "{state}", "--porcelain", "network"),
        ("spec-check", "--state", "{state}", "{spec}"),
        ("spec-check", "-v", "{spec}"),
        ("layer", "list", "--spec", "{spec}", "--state", "{state}"),
        ("layer", "list", "-v", "--state", "{state}"),
    ])
    def test_flag_the_handler_never_reads_is_usage_error(self, cli, tmp_path, proxy_spec,
                                                          argv):
        state, text = tmp_path / "chosen.ks", proxy_spec.read_text()
        code, out, _ = cli(*(arg.format(spec=proxy_spec, state=state, root=tmp_path,
                                        missing=tmp_path / "missing") for arg in argv))
        assert (code, out) == (2, "")
        assert not state.exists()
        assert proxy_spec.read_text() == text


# dataclasses also imports inspect, ast and dis, which every call would pay
# for; tempfile brings random, and a flip needs neither to name its temp file
_NOT_ON_CLI_PATH = ("dataclasses", "inspect", "tempfile", "random")
# a child, started with -S so that no site hook (a .pth file may import
# tempfile) loads modules ahead of the CLI, that runs the CLI, then prints
# the kontext modules and the _NOT_ON_CLI_PATH ones it loaded as the last
# line of its stderr
_SHOW_MODULES = f"""
import sys
preloaded = set(sys.modules)
from kontext.cli import main
try:
    main(sys.argv[1:])
finally:
    print(*sorted(m for m in set(sys.modules) - preloaded
                  if m.startswith("kontext.") or m in {_NOT_ON_CLI_PATH!r}),
          file=sys.stderr)
"""
_NOT_FOR_LAYER = ("kontext.scan", "kontext.tracing", "kontext.shim", "kontext.specfile",
                  "kontext.engine", *_NOT_ON_CLI_PATH)


class TestImports:
    # a context sensor runs `layer set` on every flip, so it must not pay for
    # the spec parser, the scanner, the trace reader or the shim plumbing
    @pytest.mark.parametrize("argv, unwanted", [
        (("layer", "set", "--state", "{state}", "network", "home"), _NOT_FOR_LAYER),
        (("layer", "unset", "--state", "{state}", "network"), _NOT_FOR_LAYER),
        (("layer", "list", "--state", "{state}"), _NOT_FOR_LAYER),
        (("get", "--spec", "{spec}", "--state", "{state}", "getenv/http_proxy"),
         ("kontext.scan", "kontext.tracing", "kontext.shim", "kontext.engine",
          *_NOT_ON_CLI_PATH)),
        (("scan", "{root}"), ("kontext.specfile", "kontext.shim", "kontext.engine",
                              "kontext.tracing")),
        (("trace", "true"), ("kontext.engine", "kontext.scan")),
    ], ids=["layer-set", "layer-unset", "layer-list", "get", "scan", "trace"])
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, proxy_spec, argv, unwanted):
        argv = [arg.format(spec=proxy_spec, state=tmp_path / "state.ks", root=tmp_path)
                for arg in argv]
        proc = subprocess.run([sys.executable, "-S", "-c", _SHOW_MODULES, *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.splitlines()[-1].split())
        assert "kontext.cli" in loaded
        assert sorted(loaded & set(unwanted)) == []


class TestUnreadableSpec:
    # a spec path that cannot be read as a file is a data error, exit 3,
    # not a traceback's exit 1, which means "not found"; it leaves no
    # temporary file behind
    @pytest.mark.parametrize("argv", [
        ("get", "--spec", "{spec}", "getenv/http_proxy"),
        ("spec-check", "{spec}"),
        ("set", "--spec", "{spec}", "a/b", "v"),
        ("trace", "--spec", "{spec}", "true"),
    ], ids=["get", "spec-check", "set", "trace"])
    def test_directory_is_data_error(self, tmp_path, argv):
        spec, temp = tmp_path / "spec", tmp_path / "tmp"
        spec.mkdir()
        temp.mkdir()
        proc = subprocess.run(KONTEXT_CMD + [arg.format(spec=spec) for arg in argv],
                              env=dict(os.environ, TMPDIR=str(temp)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            3, f"kontext: {spec}: {os.strerror(errno.EISDIR)}\n")
        assert list(temp.iterdir()) == []


class TestSpecCheck:
    def test_ok_summary(self, cli, proxy_spec):
        code, out, err = cli("spec-check", str(proxy_spec))
        assert code == 0
        assert out == "OK: 4 keys, 1 contextual, 3 pattern entries, 0 warnings\n"
        assert err == ""

    def test_porcelain(self, cli, proxy_spec):
        code, out, _ = cli("spec-check", "--porcelain", str(proxy_spec))
        assert code == 0
        assert out == "keys=4\tcontextual=1\tpatterns=3\twarnings=0\n"

    def test_spec_flag(self, cli, proxy_spec):
        code, out, _ = cli("spec-check", "--spec", str(proxy_spec))
        assert code == 0
        assert out.startswith("OK:")

    def test_env_var_honored(self, cli, proxy_spec, monkeypatch):
        monkeypatch.setenv("KONTEXT_SPEC", str(proxy_spec))
        code, out, _ = cli("spec-check")
        assert code == 0
        assert out.startswith("OK:")

    def test_missing_file(self, cli, tmp_path):
        code, _, err = cli("spec-check", str(tmp_path / "none.ks"))
        assert code == 3
        assert "no such spec file" in err

    def test_parse_error_reports_line(self, cli, tmp_path):
        path = tmp_path / "broken.ks"
        path.write_text("a=1\n[unclosed\n")
        code, _, err = cli("spec-check", str(path))
        assert code == 3
        assert f"{path}:2: error:" in err

    def test_duplicate_key_warning(self, cli, tmp_path):
        path = tmp_path / "dup.ks"
        path.write_text("a/b=1\na/b=2\n")
        code, out, err = cli("spec-check", str(path))
        assert code == 0
        assert "warning: duplicate-key" in err
        assert "1 warnings" in out

    def test_dangling_layer_ref_warning(self, cli, tmp_path):
        path = tmp_path / "dangling.ks"
        path.write_text(
            "pool/red/*=a\npool/blue/*=b\n\n[getenv/thing]\ncontext=pool/%color%/%shade%\nvalue=d\n"
        )
        code, out, err = cli("spec-check", str(path))
        assert code == 0
        assert "%shade%" in err and "never concretized" in err
        assert "%color%" not in err
        assert "1 warnings" in out

    # the base is the leading literal with its "%%" read as "%"; a leading
    # literal with no '/' gives no base, so nothing is analysed; a repeated
    # reference counts every segment it lands in and warns once
    @pytest.mark.parametrize("spec, summary, warned", [
        ("p%q/red/*=a\np%q/*/*=b\n\n[getenv/p]\ncontext=p%%q/%color%/%shade%\nvalue=d\n",
         (3, 1, 2), [(4, "shade", "getenv/p")]),
        ("flatred=a\nflat*=b\n\n[getenv/f]\ncontext=flat%color%/x\nvalue=d\n",
         (3, 1, 0), []),
        ("rep/*/red=a\nrep2/*/*=b\n\n[getenv/r]\ncontext=rep/%color%/%color%\nvalue=d\n\n"
         "[getenv/s]\ncontext=rep2/%shade%/%shade%\nvalue=e\n",
         (4, 2, 2), [(8, "shade", "getenv/s")]),
        ("pool/red/*=a\npool/*/*=b\n\n[getenv/n]\ncontext=pool/%color%/%shade%\nvalue=d\n",
         (3, 1, 2), [(4, "shade", "getenv/n")]),
    ], ids=["percent-in-base", "base-without-separator", "repeated-ref", "never-concretized"])
    def test_template_analysis_output(self, cli, tmp_path, spec, summary, warned):
        path = tmp_path / "analysed.ks"
        path.write_text(spec)
        keys, contextual, patterns = summary
        err = "".join(f"{path}:{line}: warning: layer ref %{ref}% of {name} is never "
                      "concretized by any entry\n" for line, ref, name in warned)
        assert cli("spec-check", str(path)) == (
            0, f"OK: {keys} keys, {contextual} contextual, {patterns} pattern entries, "
               f"{len(warned)} warnings\n", err)
        assert cli("spec-check", "--porcelain", str(path)) == (
            0, f"keys={keys}\tcontextual={contextual}\tpatterns={patterns}"
               f"\twarnings={len(warned)}\n", err)

    # the shim matches an opened path's canonical form against the registered
    # path as written, so a registered path with a . or .. segment is never
    # served; without a template the path is not registered at all
    @pytest.mark.parametrize("segment", [".", ".."])
    def test_open_path_with_dot_segment_warned(self, cli, tmp_path, segment):
        path = tmp_path / "dotted.ks"
        path.write_text(f"[open/tmp/y/{segment}/b.conf]\ntemplate = conf/app\n\n"
                        f"[open/tmp/y/{segment}/c.conf]\nnote = not registered\n\n"
                        "[open/tmp/y/d.conf]\ntemplate = conf/app\n")
        err = (f"{path}:1: warning: open/tmp/y/{segment}/b.conf: path has a '.' or '..' "
               "segment, so the shim never serves it\n")
        assert cli("spec-check", str(path)) == (
            0, "OK: 3 keys, 0 contextual, 0 pattern entries, 1 warnings\n", err)
        assert cli("spec-check", "--porcelain", str(path)) == (
            0, "keys=3\tcontextual=0\tpatterns=0\twarnings=1\n", err)

    def test_bad_template_is_error(self, cli, tmp_path):
        path = tmp_path / "badtmpl.ks"
        path.write_text("[getenv/x]\ncontext=a/%broken\nvalue=v\n")
        code, _, err = cli("spec-check", str(path))
        assert code == 3
        assert "context template" in err


class TestGet:
    def test_hit_prints_value(self, cli, proxy_spec, state_file):
        code, out, err = cli(
            "get", "--spec", str(proxy_spec), "--state", str(state_file), "getenv/http_proxy"
        )
        assert code == 0
        assert out == "default.example.com\n"
        assert err == ""

    def test_contextual_hit_with_state(self, cli, proxy_spec, state_file):
        state_set_layer(state_file, "interface", "eth")
        state_set_layer(state_file, "network", "work")
        code, out, _ = cli(
            "get", "--spec", str(proxy_spec), "--state", str(state_file), "getenv/http_proxy"
        )
        assert code == 0
        assert out == "proxy.example.com\n"

    def test_verbose_shows_match_and_chain(self, cli, proxy_spec, state_file):
        state_set_layer(state_file, "interface", "wlan")
        state_set_layer(state_file, "network", "home")
        code, out, _ = cli(
            "get", "-v", "--spec", str(proxy_spec), "--state", str(state_file),
            "getenv/http_proxy",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "proxy.example.org"
        assert lines[1] == "matched: http_proxy/wlan/home"
        assert lines[2] == "chain: getenv/http_proxy -> http_proxy/wlan/home"

    def test_porcelain(self, cli, proxy_spec, state_file):
        code, out, _ = cli(
            "get", "--porcelain", "--spec", str(proxy_spec), "--state", str(state_file),
            "getenv/http_proxy",
        )
        assert code == 0
        value, matched, chain = out.rstrip("\n").split("\t")
        assert value == "default.example.com"
        assert matched == "http_proxy/*/*"
        assert chain == "getenv/http_proxy,http_proxy/*/*"

    def test_absent_key_exit_one(self, cli, proxy_spec, state_file):
        code, out, err = cli(
            "get", "--spec", str(proxy_spec), "--state", str(state_file), "getenv/nope"
        )
        assert code == 1
        assert out == ""

    def test_invalid_name_is_data_error(self, cli, proxy_spec, state_file):
        code, _, err = cli(
            "get", "--spec", str(proxy_spec), "--state", str(state_file), "a//b"
        )
        assert code == 3
        assert "kontext:" in err

    def test_corrupt_state_is_data_error(self, cli, proxy_spec, state_file):
        state_file.write_text("garbage\n")
        code, _, err = cli(
            "get", "--spec", str(proxy_spec), "--state", str(state_file), "getenv/http_proxy"
        )
        assert code == 3
        assert "state" in err

    @pytest.mark.parametrize("generation", ["\u00b2", "\u0663", "9223372036854775808"])
    def test_bad_generation_is_data_error(self, cli, proxy_spec, state_file, generation):
        state_file.write_text(f"generation={generation}\n")
        for argv in (["get", "--spec", str(proxy_spec), "getenv/http_proxy"],
                     ["layer", "set", "network", "home"]):
            code, _, err = cli(*argv, "--state", str(state_file))
            assert code == 3, argv
            assert "state line 1: bad generation" in err


class TestSet:
    def test_creates_spec_file(self, cli, tmp_path):
        path = tmp_path / "new.ks"
        code, _, _ = cli("set", "--spec", str(path), "tool/editor", "vim")
        assert code == 0
        assert path.read_text() == "tool/editor=vim\n"

    def test_updates_value_in_place(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "tool/editor", "vim")
        code, _, _ = cli("set", "--spec", str(path), "tool/editor", "emacs")
        assert code == 0
        assert path.read_text() == "tool/editor=emacs\n"

    def test_prop_keeps_existing_value(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "getenv/pager", "less")
        code, _, _ = cli(
            "set", "--spec", str(path), "getenv/pager", "--prop", "context=pager/%ui%"
        )
        assert code == 0
        text = path.read_text()
        assert "[getenv/pager]" in text
        assert "value=less" in text
        assert "context=pager/%ui%" in text

    def test_value_keeps_existing_props(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "getenv/pager", "less", "--prop", "context=pager/%ui%")
        cli("set", "--spec", str(path), "getenv/pager", "more")
        text = path.read_text()
        assert "value=more" in text
        assert "context=pager/%ui%" in text

    def test_canonical_layout(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "zeta/plain", "2")
        cli("set", "--spec", str(path), "alpha/plain", "1")
        cli("set", "--spec", str(path), "getenv/x", "v", "--prop", "context=a/%l%")
        assert path.read_text() == (
            "alpha/plain=1\nzeta/plain=2\n\n[getenv/x]\nvalue=v\ncontext=a/%l%\n"
        )

    def test_remove(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "a/b", "1")
        cli("set", "--spec", str(path), "c/d", "2")
        code, _, _ = cli("set", "--spec", str(path), "a/b", "--remove")
        assert code == 0
        assert path.read_text() == "c/d=2\n"

    def test_remove_missing_exit_one(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "a/b", "1")
        code, _, err = cli("set", "--spec", str(path), "x/y", "--remove")
        assert code == 1
        assert "no such key" in err

    def test_nothing_to_set_is_usage(self, cli, tmp_path):
        code, _, err = cli("set", "--spec", str(tmp_path / "s.ks"), "a/b")
        assert code == 2
        assert "nothing to set" in err

    def test_bad_prop_is_usage(self, cli, tmp_path):
        code, _, err = cli(
            "set", "--spec", str(tmp_path / "s.ks"), "a/b", "v", "--prop", "noequals"
        )
        assert code == 2
        assert "--prop" in err

    def test_invalid_name_is_data_error(self, cli, tmp_path):
        code, _, _ = cli("set", "--spec", str(tmp_path / "s.ks"), "a//b", "v")
        assert code == 3

    def test_roundtrip_via_spec_check(self, cli, tmp_path):
        path = tmp_path / "s.ks"
        cli("set", "--spec", str(path), "getenv/http_proxy", "d", "--prop",
            "context=http_proxy/%interface%/%network%")
        cli("set", "--spec", str(path), "http_proxy/*/*", "d")
        code, out, _ = cli("spec-check", str(path))
        assert code == 0
        assert "2 keys, 1 contextual" in out


class TestLayer:
    def test_set_prints_generation(self, cli, state_file):
        code, out, _ = cli("layer", "set", "--state", str(state_file), "network", "home")
        assert code == 0
        assert out == "generation=1\n"
        code, out, _ = cli("layer", "set", "--state", str(state_file), "interface", "wlan")
        assert out == "generation=2\n"

    def test_unset(self, cli, state_file):
        cli("layer", "set", "--state", str(state_file), "network", "home")
        code, out, _ = cli("layer", "unset", "--state", str(state_file), "network")
        assert code == 0
        assert out == "generation=2\n"
        assert state_read(state_file).get("network") is None

    def test_list_human(self, cli, state_file):
        cli("layer", "set", "--state", str(state_file), "network", "home")
        cli("layer", "set", "--state", str(state_file), "interface", "wlan")
        code, out, _ = cli("layer", "list", "--state", str(state_file))
        assert code == 0
        assert out == "generation 2\ninterface = wlan\nnetwork = home\n"

    def test_list_porcelain_is_state_format(self, cli, state_file):
        cli("layer", "set", "--state", str(state_file), "network", "home")
        code, out, _ = cli("layer", "list", "--porcelain", "--state", str(state_file))
        assert code == 0
        assert out == state_serialize(state_read(state_file))

    def test_list_missing_state(self, cli, tmp_path):
        code, out, _ = cli("layer", "list", "--state", str(tmp_path / "none.ks"))
        assert code == 0
        assert out == "generation 0\n"

    @pytest.mark.parametrize("argv", [
        ("layer", "--state", "{state}", "set", "network", "home"),
        ("layer", "--porcelain", "list"),
        ("layer", "-v", "unset", "network"),
    ])
    def test_flag_before_action_is_usage_error(self, cli, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("XDG_RUNTIME_DIR", str(tmp_path))
        monkeypatch.delenv("KONTEXT_STATE", raising=False)
        state = tmp_path / "chosen.ks"
        code, out, _ = cli(*(arg.format(state=state) for arg in argv))
        assert (code, out) == (2, "")
        assert not state.exists()
        assert not (tmp_path / "kontext").exists()

    def test_invalid_layer_name_is_data_error(self, cli, state_file):
        code, _, err = cli("layer", "set", "--state", str(state_file), "a/b", "v")
        assert code == 3
        assert not state_file.exists()

    def test_bad_signal_rejected_before_state_change(self, cli, state_file):
        cli("layer", "set", "--state", str(state_file), "network", "home")
        code, _, err = cli(
            "layer", "set", "--state", str(state_file), "network", "work",
            "--notify", "1", "--signal", "KILL",
        )
        assert code == 2
        assert "not allowed" in err
        ctx = state_read(state_file)
        assert ctx.generation == 1  # the bad flag stopped the write
        assert ctx.get("network") == "home"

    def test_bad_pid_list_rejected_before_state_change(self, cli, state_file):
        code, _, err = cli(
            "layer", "set", "--state", str(state_file), "network", "home",
            "--notify", "12,abc",
        )
        assert code == 2
        assert not state_file.exists()

    def test_notify_dead_pid_warns_but_succeeds(self, cli, state_file):
        dead = subprocess.Popen(["true"])
        dead.wait()
        code, out, err = cli(
            "layer", "set", "--state", str(state_file), "network", "home",
            "--notify", str(dead.pid), "--signal", "USR1",
        )
        assert code == 0
        assert out == "generation=1\n"
        assert f"notify {dead.pid}:" in err


class TestRun:
    def test_exec_failure_exit_four(self, cli, preload_so, proxy_spec, state_file):
        code, _, err = cli(
            "run", "--spec", str(proxy_spec), "--state", str(state_file),
            "/no/such/binary-xyz",
        )
        assert code == 4
        assert "kontext:" in err

    def test_child_sees_contextual_value(self, demo_bins, preload_so, proxy_spec, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "wlan")
        state_set_layer(state, "network", "home")
        out = subprocess.run(
            KONTEXT_CMD + [
                "run", "--spec", str(proxy_spec), "--state", str(state),
                str(demo_bins["hello_proxy"]),
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0
        assert out.stdout == "proxy.example.org\n"

    def test_child_exit_status_propagates(self, preload_so, proxy_spec, tmp_path):
        out = subprocess.run(
            KONTEXT_CMD + [
                "run", "--spec", str(proxy_spec), "--state", str(tmp_path / "s.ks"),
                "sh", "-c", "exit 7",
            ],
            capture_output=True,
            timeout=30,
        )
        assert out.returncode == 7


class TestTrace:
    def test_table_output(self, cli, demo_bins, preload_so, proxy_spec, state_file):
        code, out, err = cli(
            "trace", "--spec", str(proxy_spec), "--state", str(state_file),
            str(demo_bins["hello_proxy"]),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["program", "getenv", "all", "all", "uniq", "later", "uniq", "later", "config"]
        row = lines[2].split()
        assert row[0] == str(demo_bins["hello_proxy"])
        assert row[1:] == ["1", "1", "0", "0"]

    def test_porcelain_fields(self, cli, demo_bins, preload_so, proxy_spec, state_file):
        code, out, _ = cli(
            "trace", "--porcelain", "--spec", str(proxy_spec), "--state", str(state_file),
            str(demo_bins["hello_proxy"]),
        )
        assert code == 0
        fields = dict(part.split("=") for part in out.strip().split("\t"))
        assert fields == {
            "getenv_all": "1",
            "all_uniq": "1",
            "later_uniq": "0",
            "later_config": "0",
        }

    def test_works_without_spec(self, cli, demo_bins, preload_so):
        code, out, _ = cli("trace", str(demo_bins["t01_env_present"]))
        assert code == 0
        assert "t01_env_present" in out

    def test_value_that_is_not_utf8(self, cli, demo_bins, preload_so, proxy_spec, monkeypatch):
        monkeypatch.setenv("KXBYTES", os.fsdecode(b"\xff"))
        code, out, err = cli(
            "trace", "-v", "--startup-ms", "0", "--spec", str(proxy_spec),
            str(demo_bins["getenv_latency"]), "KXBYTES", "3",
        )
        assert code == 0
        assert out.splitlines()[2].split()[1:] == ["3", "1", "1", "0"]
        assert "later: KXBYTES\n" in err

    def test_exec_failure_exit_four(self, cli, preload_so):
        code, _, err = cli("trace", "/no/such/binary-xyz")
        assert code == 4

    def test_child_failure_still_reports(self, cli, preload_so):
        code, out, _ = cli("trace", "sh", "-c", "exit 9")
        assert code == 0
        assert "sh" in out


class TestScan:
    def test_table_and_lines_per_call(self, cli):
        from test_scan import FIXTURES

        code, out, _ = cli("scan", str(FIXTURES))
        assert code == 0
        assert "TOTAL" in out
        assert "lines per call: 4" in out

    def test_porcelain_totals(self, cli):
        from test_scan import FIXTURES

        code, out, _ = cli("scan", "--porcelain", str(FIXTURES))
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "total\t12\t3\t1\t1\t4"
        assert len([l for l in lines if l.startswith("file\t")]) == 2

    def test_extension_filter(self, cli):
        from test_scan import FIXTURES

        code, out, _ = cli("scan", "--porcelain", "--ext", "py", str(FIXTURES))
        assert code == 0
        assert out.splitlines()[-1] == "total\t4\t1\t0\t1\t4"

    def test_missing_root_is_data_error(self, cli, tmp_path):
        code, _, err = cli("scan", str(tmp_path / "missing"))
        assert code == 3

    def test_empty_tree_has_no_ratio(self, cli, tmp_path):
        code, out, _ = cli("scan", "--porcelain", str(tmp_path))
        assert code == 0
        assert out.splitlines()[-1] == "total\t0\t0\t0\t0\t-"
