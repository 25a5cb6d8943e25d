"""Source scanning: call-site classification and LOC counting."""

from __future__ import annotations

from pathlib import Path

from kontext.scan import (C_LIKE, JS, PYTHON, SHELL, FileReport, OccurrenceKind, ScanTotals,
                          scan_file, scan_text, scan_tree)

FIXTURES = Path(__file__).parent / "fixtures" / "scancorpus"

CALL = OccurrenceKind.CALL
CS = OccurrenceKind.COMMENT_OR_STRING
IDENT = OccurrenceKind.IDENTIFIER


def kinds(text, syntax=C_LIKE):
    return [occ.kind for occ in scan_text("<mem>", text, syntax).occurrences]


class TestCallDetection:
    def test_direct_call(self):
        assert kinds('x = getenv("HOME");') == [CALL]

    def test_space_before_paren(self):
        assert kinds('x = getenv ("PATH");') == [CALL]

    def test_paren_on_next_line(self):
        assert kinds('p = getenv\n    ("PATH");') == [CALL]

    def test_comment_between_name_and_paren(self):
        assert kinds('p = getenv /* why */ ("PATH");') == [CALL]

    def test_comment_line_between_name_and_paren(self):
        assert kinds('p = getenv\n// soon\n("PATH");') == [CALL]

    def test_pointer_taken_is_identifier(self):
        assert kinds("fn = &getenv;") == [IDENT]

    def test_assignment_is_identifier(self):
        assert kinds("getenv = shim_getenv;") == [IDENT]

    def test_name_at_eof_is_identifier(self):
        assert kinds("getenv") == [IDENT]

    def test_case_insensitive(self):
        assert kinds('GETENV("X")') == [CALL]
        assert kinds("GetEnv;") == [IDENT]

    def test_word_boundaries(self):
        assert kinds('mygetenv("X"); getenv2("Y"); _getenv("Z"); agetenvb;') == []

    def test_number_boundary(self):
        assert kinds('getenv9("X"); 9getenv("Y");') == []

    def test_multiple_on_one_line(self):
        assert kinds('a = getenv("A"); b = getenv; // getenv("C")') == [CALL, IDENT, CS]

    def test_columns_and_lines_reported(self):
        report = scan_text("<mem>", 'x;\ny = getenv("A");', C_LIKE)
        (occ,) = report.occurrences
        assert (occ.line, occ.column, occ.kind) == (2, 4, CALL)

    def test_block_comment_across_lines_between_name_and_paren(self):
        assert kinds("p = getenv /* why\n not */ (1);") == [CALL]

    def test_string_between_name_and_paren_is_identifier(self):
        assert kinds('getenv "x" (1);') == [IDENT]

    def test_column_on_line_after_multiline_comment(self):
        report = scan_text("<mem>", "/* a\n b */ y = getenv(1);", C_LIKE)
        assert [(o.line, o.column, o.kind) for o in report.occurrences] == [(2, 10, CALL)]


class TestRegions:
    def test_line_comment(self):
        assert kinds('// getenv("X")') == [CS]

    def test_block_comment_inline(self):
        assert kinds('/* getenv("X") */') == [CS]

    def test_block_comment_spans_lines(self):
        text = "/* start\n getenv here\n end */\ngetenv(1);"
        assert kinds(text) == [CS, CALL]

    def test_string_literal(self):
        assert kinds('puts("getenv");') == [CS]

    def test_escaped_quote_keeps_string_open(self):
        # the \" does not close the string, so the name sits inside it
        assert kinds('s = "a\\" getenv(b)";') == [CS]

    def test_shell_backslash_is_literal_in_quotes(self):
        # no escapes in shell quoting: the second quote closes the string
        assert kinds("s='a\\' getenv(b)", SHELL) == [CALL]

    def test_unterminated_quote_runs_to_eol_only(self):
        text = 'broken = "abc\ngetenv("H");'
        assert kinds(text) == [CALL]

    def test_backslash_before_line_end_in_string(self):
        # the escape never carries the string onto the next line
        assert kinds('s = "abc\\\ngetenv(1);') == [CALL]

    def test_unterminated_block_comment_runs_to_end_of_text(self):
        text = "/* open\ngetenv(1);\n"
        assert kinds(text) == [CS]
        assert scan_text("<mem>", text, C_LIKE).loc == 0

    def test_unterminated_triple_quote_runs_to_end_of_text(self):
        text = '"""open\ngetenv(1)\n'
        assert kinds(text, PYTHON) == [CS]
        assert scan_text("<mem>", text, PYTHON).loc == 2

    def test_comment_opener_inside_string(self):
        assert kinds('s = "/*"; getenv(1);') == [CALL]

    def test_quote_inside_line_comment(self):
        assert kinds('// "\ngetenv(1)') == [CALL]

    def test_python_empty_string_then_code(self):
        assert kinds("x = ''\ngetenv(1)", PYTHON) == [CALL]
        assert kinds("x = ''; getenv(1)", PYTHON) == [CALL]

    def test_python_hash_comment(self):
        assert kinds('# getenv("X")', PYTHON) == [CS]

    def test_python_triple_quote_spans_lines(self):
        text = '"""doc\ncalls getenv at startup\n"""\nvalue = getenv("A")'
        assert kinds(text, PYTHON) == [CS, CALL]

    def test_python_identifier_then_call(self):
        text = "getenv = os.environ.get\nvalue = getenv('SHELL')"
        assert kinds(text, PYTHON) == [IDENT, CALL]

    def test_js_template_literal(self):
        assert kinds("log(`getenv disabled`);", JS) == [CS]


class TestLoc:
    def test_counts_code_lines_only(self):
        text = "int x;\n\n// comment only\n/* block */\ny;\n"
        assert scan_text("<mem>", text, C_LIKE).loc == 2

    def test_string_only_line_counts(self):
        assert scan_text("<mem>", 's = "text";\n"bare string"\n', C_LIKE).loc == 2

    def test_whitespace_line_does_not_count(self):
        assert scan_text("<mem>", "   \n\t\nx;\n", C_LIKE).loc == 1

    def test_code_before_comment_counts(self):
        assert scan_text("<mem>", "x; // trailing\n", C_LIKE).loc == 1


class TestScanFile:
    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("getenv(1)")
        report = scan_file(path)
        assert report.error == "unknown extension"
        assert report.occurrences == []

    def test_missing_file_reports_error(self, tmp_path):
        report = scan_file(tmp_path / "gone.c")
        assert report.error is not None

    def test_fixture_reader(self):
        report = scan_file(FIXTURES / "reader.c")
        assert report.loc == 8
        assert [(o.line, o.kind) for o in report.occurrences] == [
            (1, CS),
            (6, CALL),
            (7, CALL),
        ]

    def test_fixture_wrapper(self):
        report = scan_file(FIXTURES / "wrapper.py")
        assert report.loc == 4
        assert [(o.line, o.kind) for o in report.occurrences] == [
            (3, IDENT),
            (4, CALL),
        ]


class TestScanTree:
    def test_fixture_totals(self):
        report = scan_tree(FIXTURES)
        totals = report.totals
        assert totals.files == 2
        assert totals.loc == 12
        assert totals.calls == 3
        assert totals.comment_or_string == 1
        assert totals.identifiers == 1
        assert totals.errors == 0
        assert totals.lines_per_call == 4

    def test_deterministic_order(self):
        paths = [rep.path for rep in scan_tree(FIXTURES).files]
        assert paths == sorted(paths)
        assert paths == [rep.path for rep in scan_tree(FIXTURES).files]

    def test_extension_filter(self):
        report = scan_tree(FIXTURES, extensions=("py",))
        assert [Path(rep.path).name for rep in report.files] == ["wrapper.py"]
        assert report.totals.loc == 4

    def test_single_file_root(self):
        report = scan_tree(FIXTURES / "reader.c")
        assert report.totals.files == 1
        assert report.totals.calls == 2

    def test_totals_are_sums_of_file_reports(self):
        report = scan_tree(FIXTURES)
        assert report.totals.loc == sum(rep.loc for rep in report.files)
        assert report.totals.calls == sum(rep.count(CALL) for rep in report.files)
        assert report.totals.comment_or_string == sum(
            rep.count(CS) for rep in report.files
        )
        assert report.totals.identifiers == sum(rep.count(IDENT) for rep in report.files)

    def test_nested_directories(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.c").write_text('getenv("X");\n')
        (tmp_path / "b.sh").write_text("# getenv probe\ntype getenv\n")
        report = scan_tree(tmp_path)
        assert report.totals.files == 2
        assert report.totals.calls == 1
        assert report.totals.comment_or_string == 1
        assert report.totals.identifiers == 1

    def test_shell_function_definition_counts_as_call(self, tmp_path):
        # the classification is purely syntactic: name then '('
        (tmp_path / "wrap.sh").write_text("getenv() { printenv \"$1\"; }\n")
        report = scan_tree(tmp_path)
        assert report.totals.calls == 1

    def test_error_files_counted_separately(self, tmp_path):
        (tmp_path / "ok.c").write_text('getenv("X");\n')
        (tmp_path / "broken.c").symlink_to(tmp_path / "no-such-target")
        report = scan_tree(tmp_path)
        assert report.totals.files == 1
        assert report.totals.errors == 1
        assert report.totals.calls == 1


class TestTotalsShape:
    def test_lines_per_call_none_without_calls(self):
        assert ScanTotals().lines_per_call is None
