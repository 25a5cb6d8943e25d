"""Trace record parsing and startup-window call analysis."""

from __future__ import annotations

import os
import random

import pytest

from kontext.errors import UnparseableTraceError
from kontext.specfile import parse_spec
from kontext.tracing import (TraceRecord, aggregate, escape_field, load_trace, parse_trace,
                             unescape_field)

MS = 1_000_000  # ns per ms


def rec(ns, kind, *fields):
    return TraceRecord(ns, kind, tuple(fields))


class TestFieldEscaping:
    @pytest.mark.parametrize(
        "raw",
        [
            "",
            "plain",
            "with space",
            "tab\there",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "\\t literal backslash-t\t and a real tab",
            "\t\n\r\\",
            "unicode é中",
        ],
    )
    def test_round_trip(self, raw):
        assert unescape_field(escape_field(raw)) == raw

    def test_random_round_trip(self):
        rng = random.Random(7)
        alphabet = "ab\\\t\n\r xyz"
        for _ in range(300):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
            assert unescape_field(escape_field(raw)) == raw

    def test_escaped_form_has_no_separators(self):
        escaped = escape_field("a\tb\nc\rd\\e")
        assert "\t" not in escaped
        assert "\n" not in escaped
        assert "\r" not in escaped

    def test_trailing_backslash_rejected(self):
        with pytest.raises(UnparseableTraceError):
            unescape_field("oops\\")

    def test_unknown_escape_rejected(self):
        with pytest.raises(UnparseableTraceError):
            unescape_field("bad\\x")


class TestParseTrace:
    def test_empty(self):
        assert parse_trace("") == []

    def test_blank_lines_and_crlf(self):
        records = parse_trace("\n100\tnote\ttopic\tdetail\r\n\n")
        assert records == [rec(100, "note", "topic", "detail")]

    def test_getenv_record(self):
        (record,) = parse_trace("5\tgetenv\tPATH\tfallthrough\t\n")
        assert record == rec(5, "getenv", "PATH", "fallthrough", "")

    def test_getenv_hit_with_value(self):
        (record,) = parse_trace("5\tgetenv\thttp_proxy\thit\tproxy.example.com\n")
        assert record.fields == ("http_proxy", "hit", "proxy.example.com")

    @pytest.mark.parametrize("line", ["5\tgetenv\tPATH\thit", "5\tgetenv\tPATH\thit\tv\textra"])
    def test_getenv_arity_enforced(self, line):
        with pytest.raises(UnparseableTraceError):
            parse_trace(line + "\n")

    def test_getenv_outcome_enforced(self):
        with pytest.raises(UnparseableTraceError):
            parse_trace("5\tgetenv\tPATH\tmaybe\tv\n")

    @pytest.mark.parametrize("stamp", ["-1", "abc", "1.5", ""])
    def test_bad_timestamp(self, stamp):
        with pytest.raises(UnparseableTraceError):
            parse_trace(f"{stamp}\tnote\ta\tb\n")

    def test_ns_only_line_rejected(self):
        with pytest.raises(UnparseableTraceError):
            parse_trace("123\n")

    def test_error_carries_line_number(self):
        text = "1\tnote\ta\tb\n2\tnote\ta\tb\nbogus line\n"
        with pytest.raises(UnparseableTraceError) as exc:
            parse_trace(text)
        assert exc.value.line == 3

    def test_fields_are_unescaped(self):
        (record,) = parse_trace("7\tgetenv\ta\\tb\thit\tv1\\nv2\n")
        assert record.fields == ("a\tb", "hit", "v1\nv2")

    def test_unknown_kinds_pass_through(self):
        (record,) = parse_trace("9\tfuture-kind\tx\n")
        assert record.kind == "future-kind"

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_trace(tmp_path / "never-written.trace") == []

    def test_load_file(self, tmp_path):
        path = tmp_path / "shim.trace"
        path.write_text("1\tstart\tactive\t500\t1000\n2\tgetenv\tA\tnull\t\n")
        records = load_trace(path)
        assert [r.kind for r in records] == ["start", "getenv"]

    def test_load_file_with_bytes_that_are_not_utf8(self, tmp_path):
        # the shim writes names and values as the program's raw bytes
        path = tmp_path / "shim.trace"
        path.write_bytes(b"2\tgetenv\tK\xff\tfallthrough\tv\xff\n")
        (record,) = load_trace(path)
        assert record.fields == ("K\udcff", "fallthrough", "v\udcff")
        assert os.fsencode(record.fields[2]) == b"v\xff"


SPEC_KEYS = parse_spec(
    "http_proxy/*/*=d\n\n[getenv/http_proxy]\ncontext=http_proxy/%interface%/%network%\nvalue=d\n"
).keyset


class TestAggregate:
    def test_empty_records(self):
        report = aggregate([], startup_ms=1000)
        assert report.total_calls == 0
        assert report.unique_names == 0
        assert report.later_unique == 0
        assert report.t0_ns == 0

    def test_t0_from_start_record_field(self):
        records = [
            rec(5000, "start", "active", "1000", "4000"),
            rec(5500, "getenv", "A", "null", ""),
        ]
        report = aggregate(records, startup_ms=0, fallback_t0_ns=9_999)
        assert report.t0_ns == 4000
        assert report.mode == "active"

    def test_t0_falls_back_to_start_record_ns(self):
        # '-' marks an unset startup field; the record's own stamp wins
        records = [rec(5000, "start", "passthrough", "-", "-")]
        report = aggregate(records, startup_ms=0)
        assert report.t0_ns == 5000
        assert report.mode == "passthrough"

    def test_t0_from_parent_fallback(self):
        records = [rec(800, "getenv", "A", "null", "")]
        report = aggregate(records, startup_ms=0, fallback_t0_ns=700)
        assert report.t0_ns == 700

    def test_t0_from_first_record(self):
        records = [rec(800, "getenv", "A", "null", "")]
        assert aggregate(records, startup_ms=0).t0_ns == 800

    def test_cutoff_is_strictly_after(self):
        t0 = 1_000_000_000
        records = [
            rec(t0, "start", "active", "10", str(t0)),
            rec(t0 + 10 * MS, "getenv", "at_cutoff", "null", ""),
            rec(t0 + 10 * MS + 1, "getenv", "after_cutoff", "null", ""),
        ]
        report = aggregate(records, startup_ms=10)
        assert report.later_names == ["after_cutoff"]
        assert report.later_unique == 1

    def test_first_seen_uses_earliest_stamp(self):
        t0 = 0
        records = [
            rec(t0 + 50 * MS, "getenv", "A", "null", ""),  # later...
            rec(t0 + 1 * MS, "getenv", "A", "null", ""),  # ...but first seen early
        ]
        report = aggregate(records, startup_ms=10, fallback_t0_ns=t0)
        assert report.total_calls == 2
        assert report.unique_names == 1
        assert report.later_unique == 0

    def test_repeats_count_once_for_unique(self):
        records = [rec(i, "getenv", "A", "null", "") for i in range(5)]
        records += [rec(9, "getenv", "B", "null", "")]
        report = aggregate(records, startup_ms=0, fallback_t0_ns=0)
        assert report.total_calls == 6
        assert report.unique_names == 2

    def test_non_getenv_records_ignored_in_counts(self):
        records = [
            rec(1, "start", "active", "0", "1"),
            rec(2, "open", "/etc/hosts", "fallthrough"),
            rec(3, "note", "topic", "detail"),
            rec(4, "reload", "2"),
            rec(5, "getenv", "A", "null", ""),
        ]
        report = aggregate(records, startup_ms=0)
        assert report.total_calls == 1

    def test_config_candidates_need_spec_entry(self):
        t0 = 0
        records = [
            rec(t0 + 20 * MS, "getenv", "http_proxy", "hit", "d"),
            rec(t0 + 21 * MS, "getenv", "TERM", "fallthrough", "xterm"),
        ]
        report = aggregate(records, startup_ms=10, spec_keyset=SPEC_KEYS, fallback_t0_ns=t0)
        assert report.later_names == ["TERM", "http_proxy"]
        assert report.config_names == ["http_proxy"]
        assert report.config_candidates == 1

    def test_no_spec_means_no_candidates(self):
        records = [rec(20 * MS, "getenv", "http_proxy", "hit", "d")]
        report = aggregate(records, startup_ms=10, fallback_t0_ns=0)
        assert report.later_unique == 1
        assert report.config_candidates == 0

    def test_inequalities_hold(self):
        rng = random.Random(11)
        names = ["A", "B", "http_proxy", "TERM", "LANG"]
        records = [
            rec(rng.randint(0, 100 * MS), "getenv", rng.choice(names), "null", "")
            for _ in range(200)
        ]
        report = aggregate(records, startup_ms=50, spec_keyset=SPEC_KEYS, fallback_t0_ns=0)
        assert report.config_candidates <= report.later_unique
        assert report.later_unique <= report.unique_names
        assert report.unique_names <= report.total_calls

    def test_as_dict_shape(self):
        report = aggregate([], startup_ms=5)
        data = report.as_dict()
        assert data["getenv_all"] == 0
        assert data["startup_ms"] == 5
        assert set(data) == {
            "getenv_all",
            "all_uniq",
            "later_uniq",
            "later_config",
            "startup_ms",
            "later_names",
            "config_names",
            "mode",
        }
