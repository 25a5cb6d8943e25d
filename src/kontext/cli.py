"""kontext command line tool.

Subcommands:

    spec-check   validate a spec file (parse, templates, dangling refs)
    get          resolve one key against the current layer state
    set          add or update a spec entry (canonical rewrite)
    layer        set / unset / list layers in the shared state file
    run          exec a program with the interception library preloaded
    trace        run a program with call tracing, then summarize
    scan         count getenv occurrences in a source tree

Exit codes: 0 success, 1 not found / lookup miss, 2 usage, 3 spec, state,
or trace data error, 4 exec failure.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from .context import contextual_lookup, template_pieces
from .errors import ExecFailedError, KontextError, SpecParseError, TemplateError
from .keydb import SEPARATOR, Key, KeyName, KeySet
from .layerstate import (
    ENV_STATE,
    default_state_path,
    notify,
    signal_number,
    state_read,
    state_serialize,
    state_set_layer,
)

# each handler imports the rest of what it runs, so `layer set`, which a
# context sensor runs on every flip, starts without the spec parser, the
# scanner, the trace reader or the shim plumbing
if TYPE_CHECKING:
    from .specfile import SpecDocument

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EXEC = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _spec_path(args, required: bool = True) -> Optional[Path]:
    from .specfile import ENV_SPEC

    raw = args.spec or os.environ.get(ENV_SPEC)
    if raw:
        return Path(raw)
    if required:
        raise _CliError(EXIT_USAGE, "no spec file: pass --spec or set KONTEXT_SPEC")
    return None


def _state_path(args, explicit_only: bool = False) -> Optional[Path]:
    raw = args.state or os.environ.get(ENV_STATE)
    if raw:
        return Path(raw)
    if explicit_only:
        return None
    return default_state_path()


def _load_spec_doc(path: Path) -> SpecDocument:
    from .specfile import load_spec

    try:
        return load_spec(path)
    except FileNotFoundError:
        raise _CliError(EXIT_DATA, f"{path}: no such spec file") from None
    except OSError as exc:  # a directory, or no read permission
        raise _CliError(EXIT_DATA, f"{path}: {exc.strerror}") from None


def _print_table(rows: Sequence[Sequence[str]], header: Optional[Sequence[str]] = None) -> None:
    table = ([list(header)] if header else []) + [list(r) for r in rows]
    if not table:
        return
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for idx, row in enumerate(table):
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        print(line)
        if header and idx == 0:
            print("  ".join("-" * w for w in widths))


# ---------------------------------------------------------------- spec-check


def _template_segment_map(template_text: str):
    """(base name or None, rendered segment count, {layer: {segment idx}}).

    Maps each layer reference to the name segments its value lands in: a
    literal piece moves the index by its separators, a reference never does,
    since a layer value holds no separator. The base is the literal text
    before the first reference, up to its last separator; when that text has
    no separator there is no usable base and the caller skips entry
    analysis. Raises TemplateError for a template that does not parse.
    """
    ref_segments: Dict[str, Set[int]] = {}
    leading, index = "", 0
    for is_ref, s in template_pieces(template_text):
        if is_ref:
            ref_segments.setdefault(s, set()).add(index)
        else:
            index += s.count(SEPARATOR)
            if not ref_segments:
                leading += s
    slash = leading.rfind(SEPARATOR)
    base: Optional[KeyName] = None
    if slash > 0:
        try:
            base = KeyName.parse(leading[:slash])
        except KontextError:
            base = None
    return base, index + 1, ref_segments


def cmd_spec_check(args) -> int:
    path = Path(args.path) if args.path else _spec_path(args)
    try:
        doc = _load_spec_doc(path)
    except SpecParseError as exc:
        print(f"{path}:{exc.line}: error: {exc}", file=sys.stderr)
        return EXIT_DATA

    warnings = [f"{path}:{w.line}: warning: {w.kind.value}: {w.message}" for w in doc.warnings]
    errors: List[str] = []
    contextual = 0
    pattern_names: Set[str] = set()

    for key in doc.keyset:
        line = doc.line_index.get(key.name.display, 0)
        head, *rest = key.name.segments
        if head == "open" and key.meta.get("template") and {".", ".."} & set(rest):
            # the shim compares an opened path's canonical form with the
            # registered path as written, so this one never matches
            warnings.append(
                f"{path}:{line}: warning: {key.name.display}: path has a '.' or '..' "
                "segment, so the shim never serves it"
            )
        context_text = key.meta.get("context")
        if context_text is None:
            continue
        contextual += 1
        try:
            base, nsegments, ref_segments = _template_segment_map(context_text)
        except TemplateError as exc:
            errors.append(f"{path}:{line}: error: context template: {exc}")
            continue
        if base is None:
            continue
        below = doc.keyset.below(base)
        pattern_names.update(k.name.display for k in below)
        entries = [segments for segments in (k.name.segments for k in below)
                   if len(segments) == nsegments]
        for ref_name, positions in ref_segments.items():
            concretized = any(
                segments[pos] != "*"
                for segments in entries
                for pos in positions
            )
            if not concretized:
                warnings.append(
                    f"{path}:{line}: warning: layer ref %{ref_name}% of "
                    f"{key.name.display} is never concretized by any entry"
                )

    for message in warnings:
        print(message, file=sys.stderr)
    for message in errors:
        print(message, file=sys.stderr)
    if errors:
        return EXIT_DATA

    total = len(doc.keyset.names())
    if args.porcelain:
        print(
            f"keys={total}\tcontextual={contextual}"
            f"\tpatterns={len(pattern_names)}\twarnings={len(warnings)}"
        )
    else:
        print(
            f"OK: {total} keys, {contextual} contextual, "
            f"{len(pattern_names)} pattern entries, {len(warnings)} warnings"
        )
    return EXIT_OK


# ----------------------------------------------------------------------- get


def cmd_get(args) -> int:
    doc = _load_spec_doc(_spec_path(args))
    ctx = state_read(_state_path(args))
    outcome = contextual_lookup(doc.keyset, args.name, ctx)
    if outcome is None:
        return EXIT_NOT_FOUND
    if args.porcelain:
        print(f"{outcome.value}\t{outcome.matched_name}\t{','.join(outcome.chain)}")
    else:
        print(outcome.value)
        if args.verbose:
            print(f"matched: {outcome.matched_name}")
            print("chain: " + " -> ".join(outcome.chain))
    return EXIT_OK


# ----------------------------------------------------------------------- set


def cmd_set(args) -> int:
    from .specfile import save_spec

    path = _spec_path(args)
    keyset = _load_spec_doc(path).keyset if path.exists() else KeySet()

    name = KeyName.parse(args.name)
    if args.remove:
        if keyset.get(name) is None:
            raise _CliError(EXIT_NOT_FOUND, f"{args.name}: no such key")
        keyset.remove(name)
    else:
        props: Dict[str, str] = {}
        for raw in args.prop or []:
            prop, sep, value = raw.partition("=")
            if not sep or not prop:
                raise _CliError(EXIT_USAGE, f"--prop needs NAME=VALUE, got {raw!r}")
            props[prop] = value
        existing = keyset.get(name)
        if args.value is None and not props:
            raise _CliError(EXIT_USAGE, "nothing to set: give VALUE and/or --prop")
        meta = dict(existing.meta) if existing else {}
        meta.update(props)
        value = args.value if args.value is not None else (existing.value if existing else "")
        keyset.insert(Key(name, value, meta))

    save_spec(path, keyset)
    if args.verbose:
        print(f"wrote {len(keyset.names())} keys to {path}", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------- layer


def _parse_pids(raw: str) -> List[int]:
    pids = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            pids.append(int(piece))
        except ValueError:
            raise _CliError(EXIT_USAGE, f"--notify takes pid[,pid...], got {piece!r}") from None
    return pids


def _notify_plan(args) -> Optional[List[int]]:
    """Validate --notify/--signal up front, before the state is touched."""
    if not args.notify:
        return None
    try:
        signal_number(args.signal)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None
    return _parse_pids(args.notify)


def cmd_layer(args) -> int:
    path = _state_path(args)
    if args.layer_cmd == "list":
        ctx = state_read(path)
        if args.porcelain:
            sys.stdout.write(state_serialize(ctx))
        else:
            print(f"generation {ctx.generation}")
            for name in sorted(ctx.layers):
                print(f"{name} = {ctx.layers[name]}")
        return EXIT_OK

    pids = _notify_plan(args)
    value = args.value if args.layer_cmd == "set" else None
    generation = state_set_layer(path, args.name, value)
    print(f"generation={generation}")
    if pids is not None:
        for res in notify(pids, args.signal):
            if not res.ok:
                print(f"notify {res.pid}: {res.error}", file=sys.stderr)
            elif args.verbose:
                print(f"notified {res.pid}", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------- run


def _child_env(args, trace: Optional[Path] = None):
    """(environment for a child under the shim, the spec it loads or None).

    The spec must be one the shim loads, or the child would run with the
    shim silently off: a regular file that parses. It is stat'ed before it
    is opened, since opening a FIFO would block.
    """
    from .shim import child_environment

    spec = _spec_path(args, required=False)
    doc = None
    if spec:
        try:
            mode = spec.stat().st_mode
        except OSError:
            mode = stat.S_IFREG  # missing or unreadable: _load_spec_doc says which
        # a directory fails to load as it does for every command
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise _CliError(EXIT_DATA, f"{spec}: not a regular file")
        try:
            doc = _load_spec_doc(spec)
        except SpecParseError as exc:
            raise _CliError(EXIT_DATA, f"{spec}: {exc}") from None
    state = _state_path(args, explicit_only=True)
    return child_environment(spec=spec, state=state, trace=trace), doc


def cmd_run(args) -> int:
    env, _ = _child_env(args)
    argv = [args.program] + list(args.args)
    try:
        os.execvpe(args.program, argv, env)
    except OSError as exc:
        raise ExecFailedError(args.program, exc.strerror or str(exc)) from None
    raise ExecFailedError(args.program)  # not reached


# --------------------------------------------------------------------- trace


def cmd_trace(args) -> int:
    import subprocess
    import tempfile

    from .tracing import aggregate, load_trace

    fd, trace_path = tempfile.mkstemp(prefix="kontext-trace-", suffix=".tsv")
    os.close(fd)
    try:
        env, doc = _child_env(args, trace=Path(trace_path))
        argv = [args.program] + list(args.args)
        t0 = time.monotonic_ns()
        try:
            proc = subprocess.run(argv, env=env)
        except OSError as exc:
            raise ExecFailedError(args.program, exc.strerror or str(exc)) from None
        if proc.returncode != 0 and args.verbose:
            print(f"child exited with status {proc.returncode}", file=sys.stderr)
        records = load_trace(trace_path)
    finally:
        try:
            os.unlink(trace_path)
        except OSError:
            pass

    report = aggregate(
        records,
        startup_ms=args.startup_ms,
        spec_keyset=doc.keyset if doc else None,
        fallback_t0_ns=t0,
    )
    if args.porcelain:
        print(f"getenv_all={report.total_calls}\tall_uniq={report.unique_names}"
              f"\tlater_uniq={report.later_unique}\tlater_config={report.config_candidates}")
    else:
        _print_table(
            [[
                args.program,
                str(report.total_calls),
                str(report.unique_names),
                str(report.later_unique),
                str(report.config_candidates),
            ]],
            header=["program", "getenv all", "all uniq", "later uniq", "later config"],
        )
        if args.verbose:
            if report.mode:
                print(f"mode: {report.mode}", file=sys.stderr)
            if report.later_names:
                print("later: " + ", ".join(sorted(report.later_names)), file=sys.stderr)
            if report.config_names:
                print("config candidates: " + ", ".join(sorted(report.config_names)), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------- scan


def cmd_scan(args) -> int:
    from .scan import DEFAULT_EXTENSIONS, OccurrenceKind, scan_tree

    extensions = (
        [e for chunk in args.ext for e in chunk.split(",") if e]
        if args.ext
        else list(DEFAULT_EXTENSIONS)
    )
    root = Path(args.root)
    if not root.exists():
        raise _CliError(EXIT_DATA, f"{root}: no such file or directory")
    report = scan_tree(root, extensions)
    totals = report.totals
    lpc = "-" if totals.lines_per_call is None else str(totals.lines_per_call)

    kinds = (OccurrenceKind.CALL, OccurrenceKind.COMMENT_OR_STRING, OccurrenceKind.IDENTIFIER)
    rows = []
    for rep in report.files:
        if rep.error is not None:
            print(f"skipped {rep.path}: {rep.error}", file=sys.stderr)
        else:
            rows.append([rep.path, str(rep.loc), *(str(rep.count(kind)) for kind in kinds)])
    total = [str(n) for n in (totals.loc, totals.calls, totals.comment_or_string,
                               totals.identifiers)]

    if args.porcelain:
        for row in rows:
            print("file\t" + "\t".join(row))
        print("\t".join(["total", *total, lpc]))
    else:
        _print_table(rows + [["TOTAL", *total]],
                     header=["file", "loc", "calls", "comment/string", "identifier"])
        print(f"lines per call: {lpc}")
    return EXIT_OK


# ---------------------------------------------------------------------- main


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared flags its handler reads, so a
    # flag it would ignore is a usage error
    spec = _flag("--spec", metavar="PATH", help="spec file (default: $KONTEXT_SPEC)")
    state = _flag("--state", metavar="PATH", help="layer state file (default: $KONTEXT_STATE)")
    verbose = _flag("--verbose", "-v", action="store_true", help="extra diagnostics")
    porcelain = _flag("--porcelain", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="kontext", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spec-check", parents=[spec, porcelain], help="validate a spec file")
    p.add_argument("path", nargs="?", help="spec file (overrides --spec)")
    p.set_defaults(handler=cmd_spec_check)

    p = sub.add_parser("get", parents=[spec, state, verbose, porcelain],
                       help="resolve one key contextually")
    p.add_argument("name", help="full key name, e.g. getenv/http_proxy")
    p.set_defaults(handler=cmd_get)

    p = sub.add_parser("set", parents=[spec, verbose], help="add or update a spec entry")
    p.add_argument("name", help="full key name")
    p.add_argument("value", nargs="?", default=None, help="key value")
    p.add_argument("--prop", action="append", metavar="NAME=VALUE", help="metadata property")
    p.add_argument("--remove", action="store_true", help="delete the key instead")
    p.set_defaults(handler=cmd_set)

    p = sub.add_parser("layer", help="manage the shared layer state")
    layer_sub = p.add_subparsers(dest="layer_cmd", required=True, metavar="ACTION")
    for action in ("set", "unset"):
        # --spec goes unread, but perfbench/run.py passes it
        lp = layer_sub.add_parser(action, parents=[spec, state, verbose])
        lp.add_argument("name", help="layer name")
        if action == "set":
            lp.add_argument("value", help="layer value")
        lp.add_argument("--notify", metavar="PID[,PID...]", help="signal these processes")
        lp.add_argument("--signal", default="HUP", help="signal name (HUP, USR1, USR2)")
        lp.set_defaults(handler=cmd_layer, layer_cmd=action)
    lp = layer_sub.add_parser("list", parents=[state, porcelain])
    lp.set_defaults(handler=cmd_layer, layer_cmd="list")

    p = sub.add_parser("run", parents=[spec, state], help="exec a program under the shim")
    p.add_argument("program")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("trace", parents=[spec, state, verbose, porcelain],
                       help="trace a program's getenv traffic")
    p.add_argument("--startup-ms", type=int, default=1000, metavar="N",
                   help="startup window for the 'later' classification (default 1000)")
    p.add_argument("program")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("scan", parents=[porcelain], help="count getenv occurrences in sources")
    p.add_argument("root", help="file or directory to scan")
    p.add_argument("--ext", action="append", metavar="EXT[,EXT...]",
                   help="extensions to scan (default: c,h,cc,cpp,hpp,py,sh,js)")
    p.set_defaults(handler=cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"kontext: {exc.message}", file=sys.stderr)
        return exc.code
    except ExecFailedError as exc:
        print(f"kontext: {exc}", file=sys.stderr)
        return EXIT_EXEC
    except SpecParseError as exc:
        print(f"kontext: spec {exc}", file=sys.stderr)
        return EXIT_DATA
    except KontextError as exc:
        print(f"kontext: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
