import io
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confoundsim import ingest
from confoundsim.glm import DesignMatrix, fit_logistic
from confoundsim.ingest import (CAT, ORD, ColumnSpec, IngestError,
                                MappingParseError, MappingRule, StudySpec,
                                SurveyTable, apply_mappings, build_design, load_survey,
                                parse_mapping_file, parse_mapping_rule,
                                parse_study_json, staged_analysis)
from confoundsim.metamodel import ModelParams, draw_population

from conftest import log_odds_ratio

# population log odds ratio between two columns sharing the latent trait at
# p = 0.75: 2 * log((p^2 + q^2) / (2 p q))
MARGINAL_LOG_OR_P075 = 1.0216512475319814


def survey_bytes(names, columns):
    lines = ["\t".join(names)]
    data = np.column_stack(columns)
    for row in data:
        lines.append("\t".join(str(int(v)) for v in row))
    return ("\n".join(lines) + "\n").encode()


# every line end str.splitlines knows but \x1d, \x1e and \u2029, and CRLF
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]
# "||" overlaps itself, so a run of empty cells tests matching without overlap
DELIMITERS = ["\t", ",", ";", " ", "||", "\xa6"]
BAD_CELLS = ["x", "1.5", "--1", "0x1f", str(2**63), str(-(2**63) - 1)]


@st.composite
def survey_files(draw):
    """Survey text with mixed line ends, blank and whitespace-only lines,
    sometimes a bad cell or a ragged row; its delimiter; columns to load."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    n_cols = draw(st.integers(1, 5))
    n_rows = draw(st.integers(0, 12))
    pad = st.text(alphabet=" \xa0\u3000".replace(delimiter, ""), max_size=2)
    number = st.builds(
        lambda v, fmt: fmt.format(v), st.integers(-(2**63), 2**63 - 1),
        st.sampled_from(["{}", "{:+d}", "{:_d}"]))
    cell = st.builds(lambda a, v, b: a + v + b, pad,
                     st.one_of(st.just(""), number), pad)
    names = [f"C{j}" for j in range(n_cols)]
    rows = [[draw(cell) for _ in names] for _ in range(n_rows)]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n_cols - 1))] = draw(st.sampled_from(BAD_CELLS))
    if rows and draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from(rows)).append("7")
    lines = [delimiter.join(r) for r in [names, *rows]]
    blank = st.text(alphabet=" \t\xa0\u3000".replace(delimiter, ""), max_size=3)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    ends = st.sampled_from(LINE_ENDS)
    text = "".join(line + draw(ends) for line in lines[:-1])
    text += lines[-1] + draw(st.one_of(ends, st.just("")))
    columns = draw(st.lists(st.sampled_from(names), unique=True))
    return text, delimiter, columns


# read sizes that cut lines, line breaks and characters at every kind of
# place, and the loader's own
READ_BYTES = [1, 2, 7, ingest._READ_BYTES]


def reference_load(text, delimiter, columns=None):
    """load_survey's rules on text in plain Python: splitlines, split,
    strip and int.  Returns the header, the loaded names and the rows, a
    missing cell as None, or the IngestError message."""
    lines = [ln for ln in text.splitlines() if ln.strip() or delimiter in ln]
    if not lines:
        return str(IngestError("empty survey file"))
    header = tuple(h.strip() for h in lines[0].split(delimiter))
    keep = [j for j, name in enumerate(header)
            if columns is None or name in columns]
    rows = [ln.split(delimiter) for ln in lines[1:]]
    for i, cells in enumerate(rows, start=1):
        if len(cells) != len(header):
            return str(IngestError(
                f"expected {len(header)} cells, found {len(cells)}", row=i))
    values = []
    for i, cells in enumerate(rows, start=1):
        values.append([])
        for j in keep:
            cell = cells[j].strip()
            try:
                value = int(cell) if cell else None
            except ValueError:
                return str(IngestError(f"non-integer cell {cell!r}", row=i,
                                       column=header[j]))
            if value is not None and not -(2**63) <= value < 2**63:
                return str(IngestError(
                    f"cell {cell!r} is outside the 64-bit integer range",
                    row=i, column=header[j]))
            values[-1].append(value)
    return header, tuple(header[j] for j in keep), values


def load_outcome(data, delimiter, columns=None):
    """load_survey's table in reference_load's form, or its error message."""
    try:
        table = load_survey(data, delimiter=delimiter, columns=columns)
    except IngestError as exc:
        return str(exc)
    assert not table.values[table.missing].any()
    rows = [[None if m else v for v, m in zip(vr, mr)]
            for vr, mr in zip(table.values.tolist(), table.missing.tolist())]
    return table.header, table.names, rows


class TestRuleParsing:
    def test_single_and_range_rules(self):
        rules = parse_mapping_rule("2:0, 85-97:0")
        assert rules == (MappingRule(2, 2, 0), MappingRule(85, 97, 0))

    def test_empty_means_identity(self):
        assert parse_mapping_rule("") == ()
        assert parse_mapping_rule("   ") == ()

    def test_range_rule(self):
        assert parse_mapping_rule("985-998:80") == (MappingRule(985, 998, 80),)

    def test_malformed_token_reports_position(self):
        with pytest.raises(MappingParseError, match="token 1"):
            parse_mapping_rule("2:0, nope")

    def test_inverted_range_rejected(self):
        with pytest.raises(MappingParseError, match="inverted"):
            parse_mapping_rule("97-85:0")

    def test_round_trip_canonical_form(self):
        text = "2:0, 85-97:0, 975:4"
        rules = parse_mapping_rule(text)
        assert ", ".join(rule.text() for rule in rules) == text

    @given(st.lists(st.tuples(st.integers(0, 900), st.integers(0, 50),
                              st.integers(-5, 99)), max_size=6))
    def test_round_trip_property(self, triples):
        rules = tuple(MappingRule(lo, lo + span, t) for lo, span, t in triples)
        assert parse_mapping_rule(", ".join(r.text() for r in rules)) == rules


class TestMappingFile:
    def test_full_recode_table_parses(self, data_dir):
        text = (data_dir / "nsduh2023_mappings.txt").read_text()
        specs, warnings = parse_mapping_file(text)
        assert len(specs) == 79
        by_name = {s.name: s for s in specs}
        assert by_name["ALCEVER"].rules == parse_mapping_rule("2:0, 85-97:0")
        assert by_name["NEWRACE2"].kind == CAT
        assert by_name["IRKI17_2"].kind == ORD
        # COUTYP4 carries an overlapping rule pair; tolerated with a warning
        assert len(warnings) == 1
        assert "COUTYP4" in warnings[0]

    def test_alcever_recode_example(self, data_dir):
        specs, _ = parse_mapping_file((data_dir / "nsduh2023_mappings.txt").read_text())
        spec = next(s for s in specs if s.name == "ALCEVER")
        raw = np.array([1, 2, 85, 94, 97])
        assert spec.apply(raw).tolist() == [1, 0, 0, 0, 0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(MappingParseError, match="line 1"):
            parse_mapping_file("FOO BAR 1:0")

    def test_duplicate_column_rejected(self):
        with pytest.raises(MappingParseError, match="duplicate"):
            parse_mapping_file("A ORD\nA ORD 1:0\n")

    def test_rule_error_carries_line_number(self):
        with pytest.raises(MappingParseError) as info:
            parse_mapping_file("A ORD\nB ORD 1:0, 5:x\n")
        assert str(info.value) == "malformed rule '5:x' (line 2, token 1)"
        assert info.value.message == "malformed rule '5:x'"
        assert (info.value.line, info.value.token_index) == (2, 1)

    def test_comments_and_blank_lines_skipped(self):
        specs, _ = parse_mapping_file("# note\n\nA ORD 1:0\n")
        assert [s.name for s in specs] == ["A"]


class TestApplyMappings:
    def test_first_match_wins(self):
        spec = ColumnSpec("X", ORD, parse_mapping_rule("3:0, 2:1, 3:2"))
        assert spec.apply(np.array([3, 2, 1])).tolist() == [0, 1, 1]

    def test_unmapped_passes_through(self):
        spec = ColumnSpec("X", ORD, ())
        values = np.array([5, 7, 9])
        assert spec.apply(values).tolist() == [5, 7, 9]

    def test_irsex_example(self):
        spec = ColumnSpec("IRSEX", CAT, parse_mapping_rule("1:0, 2:1"))
        assert spec.apply(np.array([1, 2])).tolist() == [0, 1]

    def test_idempotent_when_targets_avoid_sources(self, data_dir):
        specs, _ = parse_mapping_file((data_dir / "nsduh2023_mappings.txt").read_text())
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1000, size=300)
        checked = 0
        for spec in specs:
            if any(r.low <= other.target <= r.high
                   for r in spec.rules for other in spec.rules):
                continue  # recode targets re-enter a source range; not a fixed point
            once = spec.apply(values)
            assert np.array_equal(spec.apply(once), once), spec.name
            checked += 1
        assert checked > 60

    def test_cat_relabeled_to_consecutive_codes(self):
        # merged categories end up as consecutive codes starting at 0
        table = load_survey(survey_bytes(["NEWRACE2"], [np.array([1, 2, 3, 4, 5, 6, 7])]))
        spec = ColumnSpec("NEWRACE2", CAT, parse_mapping_rule("3-4:3, 5:4, 6:5, 7:6"))
        mapped = apply_mappings(table, [spec])
        assert mapped.column("NEWRACE2").tolist() == [0, 1, 2, 2, 3, 4, 5]

    def test_missing_spec_column_rejected(self):
        table = load_survey(survey_bytes(["A"], [np.array([1, 2])]))
        with pytest.raises(IngestError, match="column B"):
            apply_mappings(table, [ColumnSpec("B", ORD, ())])

    def test_spec_for_a_column_not_loaded_is_skipped(self):
        table = load_survey(b"A\tB\n1\t2\n3\t4\n", columns=["A"])
        mapped = apply_mappings(table, [ColumnSpec("A", ORD, parse_mapping_rule("3:0")),
                                        ColumnSpec("B", CAT, ())])
        assert mapped.names == ("A",)
        assert mapped.column("A").tolist() == [1, 0]
        assert mapped.kinds == {"A": ORD}
        with pytest.raises(IngestError, match="absent from the data"):
            apply_mappings(table, [ColumnSpec("Z", ORD, ())])


class TestLoadSurvey:
    def test_missing_cells_tracked(self):
        table = load_survey(b"A\tB\n1\t\n\t2\n3\t4\n")
        assert table.values[2].tolist() == [3, 4]
        assert table.missing.tolist() == [[False, True], [True, False],
                                          [False, False]]

    def test_non_integer_cell_reports_position(self):
        with pytest.raises(IngestError, match=r"row 2.*column B"):
            load_survey(b"A\tB\n1\t2\n3\tx\n")

    def test_all_blank_row_is_a_row_and_empty_lines_are_not(self):
        table = load_survey(b"A\tB\n\n1\t2\n\t\n \n3\t4\n\n")
        assert table.values.tolist() == [[1, 2], [0, 0], [3, 4]]
        assert table.missing.tolist() == [[False, False], [True, True],
                                          [False, False]]
        with pytest.raises(IngestError, match=r"'x' \(row 3, column B\)"):
            load_survey(b"A\tB\n1\t2\n\t\n3\tx\n")

    def test_repeated_header_name_is_named(self):
        with pytest.raises(IngestError, match=r"duplicate column name in header "
                                              r"\(column A\)"):
            load_survey(b"A\tB\tA\n1\t2\t3\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(IngestError, match="row 1"):
            load_survey(b"A\tB\n1\n")

    def test_custom_delimiter(self):
        table = load_survey(b"A,B\n1,2\n", delimiter=",")
        assert table.values.tolist() == [[1, 2]]

    def test_only_requested_columns_are_loaded_in_header_order(self):
        table = load_survey(b"A\tB\tC\n1\t2\t3\n\t5\t6\n", columns=["C", "A", "C"])
        assert table.names == ("A", "C")
        assert table.header == ("A", "B", "C")
        assert table.values.tolist() == [[1, 3], [0, 6]]
        assert table.missing.tolist() == [[False, False], [True, False]]

    def test_no_requested_columns_keeps_the_rows(self):
        table = load_survey(b"A\tB\n1\t2\n3\t4\n", columns=[])
        assert table.values.shape == (2, 0)

    def test_one_column_file_loads_with_no_columns_or_whole(self):
        data = b"A\n1\n\n22\n 3 \n"
        assert load_survey(data, columns=[]).values.shape == (3, 0)
        for block_lines in (1, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                table = load_survey(data)
            assert table.values.tolist() == [[1], [22], [3]]
            assert not table.missing.any()

    @pytest.mark.parametrize("delimiter", [",", "<->"])
    @pytest.mark.parametrize("columns", [["A"], ["D"], ["A", "D"], ["B", "C"]],
                             ids=["first", "last", "first-and-last", "middle"])
    def test_cells_at_the_line_edges(self, delimiter, columns):
        # the first and last columns end at the line's edges, the others at
        # delimiters; a signed cell sends its block through the per-cell rule
        rows = [["A", "B", "C", "D"], ["1", "22", "", "4444"],
                ["", "6", "77", ""], ["8", "", "-9", "10"], ["11", "12", "13", "14"]]
        text = "\n".join(delimiter.join(row) for row in rows) + "\n"
        expected = reference_load(text, delimiter, columns)
        assert not isinstance(expected, str)
        for block_lines in (1, 256):
            for read_bytes in READ_BYTES:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                    mp.setattr(ingest, "_READ_BYTES", read_bytes)
                    assert load_outcome(text.encode(), delimiter, columns) == expected

    def test_ragged_row_reported_whether_or_not_its_columns_are_loaded(self):
        text = b"A\tB\tC\n1\t2\t3\n4\t5\t6\n7\t8\n"
        for columns in (None, ["A"], ["C"], []):
            with pytest.raises(IngestError, match=r"found 2 \(row 3\)"):
                load_survey(text, columns=columns)

    def test_first_bad_cell_in_loaded_columns_reported_row_by_row(self):
        # row 3 holds a bad B; row 2 holds a bad C, which comes first
        text = b"A\tB\tC\n1\t2\t3\n4\t5\ty\n7\tx\t9\n"
        with pytest.raises(IngestError, match=r"'y' \(row 2, column C\)"):
            load_survey(text)
        with pytest.raises(IngestError, match=r"'x' \(row 3, column B\)"):
            load_survey(text, columns=["A", "B"])

    def test_rows_past_the_first_block_land_in_place(self):
        rng = np.random.default_rng(8)
        cols = [rng.integers(-500, 500, 2000), rng.integers(0, 9, 2000)]
        table = load_survey(survey_bytes(["A", "B"], cols), columns=["B"])
        assert table.values[:, 0].tolist() == cols[1].tolist()

    def test_bad_cell_past_the_first_block_keeps_its_row(self):
        lines = ["A\tB"] + [f"{i}\t{i}" for i in range(1, 1000)]
        lines[700] = "700\t7.5"
        with pytest.raises(IngestError, match=r"'7.5' \(row 700, column B\)"):
            load_survey(("\n".join(lines) + "\n").encode())

    def test_non_integer_cell_in_a_column_not_loaded_is_not_an_error(self):
        table = load_survey(b"A\tB\n1\tx\n2\t3.5\n", columns=["A"])
        assert table.values.tolist() == [[1], [2]]

    def test_cell_outside_int64_reports_position(self):
        big = str(2**63)
        with pytest.raises(IngestError,
                           match=rf"'{big}' is outside the 64-bit integer range "
                                 r"\(row 2, column B\)"):
            load_survey(f"A\tB\n1\t2\n3\t{big}\n".encode())

    def test_int64_limits_parse(self):
        lo, hi = -(2**63), 2**63 - 1
        table = load_survey(f"A\tB\n{lo}\t{hi}\n".encode())
        assert table.values.tolist() == [[lo, hi]]

    @pytest.mark.parametrize("cell, problem", [
        # past the 4,300 digits int() reads: out of range, even zero-padded
        ("1" * 5000, "is outside the 64-bit integer range"),
        ("-" + "1_2" * 2000, "is outside the 64-bit integer range"),
        ("0" * 5000 + "7", "is outside the 64-bit integer range"),
        ("x" * 5000, "non-integer"),
        ("1" * 5000 + "x", "non-integer"),
        ("1" * 5000 + "__2", "non-integer"),
    ], ids=["digits", "grouped", "zero-padded", "letters", "digits-then-letter",
            "double-underscore"])
    def test_long_cell_is_named_by_its_start(self, cell, problem):
        quoted = repr(cell[:40]) + "..."
        message = (f"non-integer cell {quoted}" if problem == "non-integer"
                   else f"cell {quoted} {problem}")
        with pytest.raises(IngestError) as info:
            load_survey(f"A\tB\n1\t2\n3\t {cell}\n".encode())
        assert str(info.value) == f"{message} (row 2, column B)"

    def test_requested_column_absent_from_header(self):
        with pytest.raises(IngestError, match=r"absent from the data \(column Z\)"):
            load_survey(b"A\tB\n1\t2\n", columns=["A", "Z"])

    def test_empty_delimiter_rejected(self):
        with pytest.raises(IngestError, match="delimiter"):
            load_survey(b"A\tB\n1\t2\n", delimiter="")

    def test_nul_character_rejected(self):
        with pytest.raises(IngestError, match="NUL"):
            load_survey(b"A\tB\n1\t2\x00\n", columns=["A"])

    @settings(max_examples=150, deadline=None)
    @given(survey_files())
    def test_pruned_load_matches_full_load_and_per_cell_reference(self, case):
        text, delimiter, columns = case
        data = text.encode()
        for read_bytes in READ_BYTES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_READ_BYTES", read_bytes)
                pruned = load_outcome(data, delimiter, columns)
                full = load_outcome(data, delimiter)
            assert pruned == reference_load(text, delimiter, columns)
            assert full == reference_load(text, delimiter)
            if not isinstance(pruned, str) and not isinstance(full, str):
                keep = [j for j, name in enumerate(full[1]) if name in columns]
                assert pruned[1] == tuple(full[1][j] for j in keep)
                assert pruned[2] == [[row[j] for j in keep] for row in full[2]]

    @settings(max_examples=100, deadline=None)
    @given(survey_files())
    def test_block_size_changes_nothing(self, case):
        text, delimiter, columns = case
        data = text.encode()
        n = len(text.splitlines())
        outcomes = []
        # a block size of n - 1, n or n + 5 lines puts the whole body in one
        # block; parsing digits of at most 0 bytes sends every block through
        # the per-cell rule
        for block_lines, digit_bytes in (
                (1, 18), (3, 18), (max(n - 1, 1), 18), (n, 18), (n + 5, 18),
                (1, 0), (3, 0), (n + 5, 0)):
            for read_bytes in READ_BYTES:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                    mp.setattr(ingest, "_DIGIT_BYTES", digit_bytes)
                    mp.setattr(ingest, "_READ_BYTES", read_bytes)
                    outcomes.append(load_outcome(data, delimiter, columns))
        assert outcomes == [reference_load(text, delimiter, columns)] * len(outcomes)

    @pytest.mark.parametrize("text", [
        # 18 and 19 digits, the int64 maximum, and cells past it
        "A\tB\n999999999999999999\t1\n1000000000000000000\t9223372036854775807\n",
        "A\tB\n1\t2\n3\t9223372036854775808\n",
        "A\tB\n1\t2\n3\t12345678901234567890\n",
        # leading zeros past 18 bytes
        "A\tB\n0000000000000000000000042\t000000000000000000007\n00\t0\n",
        # blank and whitespace-only cells, a row of blanks among them
        "A\tB\n\t \n1\t\n\t\n \t2\n3\t4\n",
        # plain-digit rows among padded, signed and grouped ones
        "A\tB\tC\n1\t22\t333\n 4\t5\t6\n7\t8\t9\n+10\t-11\t1_2\n"
        "13\t14\t15\n16\t\u300017\t\n18\t19\t20\n",
        "A\tB\tC\n1\t22\t333\n4\t5\t6x\n7\t8\t9\n",
        # one column
        "A\n1\n\n 2\n30\n",
        "A\n5\n66\n",
    ])
    def test_digit_cells_match_the_reference(self, text):
        for block_lines in (1, 2, 256):
            for columns in (None, ["A"]):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                    assert (load_outcome(text.encode(), "\t", columns)
                            == reference_load(text, "\t", columns))

    def test_plain_digit_blocks_skip_the_string_path(self, monkeypatch):
        # with an int() that reads no text the per-cell rule fails, as the
        # last load shows
        def no_text(value, *args):
            if isinstance(value, str):
                raise TypeError(f"int({value!r}) reached the per-cell rule")
            return int(value, *args)

        monkeypatch.setattr(ingest, "int", no_text, raising=False)
        table = load_survey(b"A\tB\tC\n1\t\t999999999999999999\n\t\t\n0042\t7\t0\n")
        assert table.values.tolist() == [[1, 0, 999999999999999999], [0, 0, 0],
                                         [42, 7, 0]]
        assert table.missing.tolist() == [[False, True, False], [True, True, True],
                                          [False, False, False]]
        assert load_survey(b"A\n1\n2\n").values.tolist() == [[1], [2]]
        with pytest.raises(TypeError, match="per-cell rule"):
            load_survey(b"A\tB\n1\t 2\n")

    @pytest.mark.parametrize("body, bad", [
        # out of range, then not an integer: in one row, then in two
        ("1\t2\t3\n4\t{big}\tx\n", "'{big}' is outside the 64-bit integer "
                                        "range (row 2, column B)"),
        ("1\t2\t3\n4\tx\t{big}\n", "non-integer cell 'x' (row 2, column B)"),
        ("1\t{big}\t3\n4\tx\t6\n", "'{big}' is outside the 64-bit integer "
                                        "range (row 1, column B)"),
        ("1\tx\t3\n4\t{big}\t6\n", "non-integer cell 'x' (row 1, column B)"),
    ])
    def test_first_bad_cell_is_the_first_of_either_kind(self, body, bad):
        big = str(2**63)
        text = "A\tB\tC\n" + body.format(big=big)
        # one block, then a block edge between every two rows
        for block_lines in (256, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                with pytest.raises(IngestError) as info:
                    load_survey(text.encode())
            assert str(info.value).endswith(bad.format(big=big))
            assert str(info.value) == reference_load(text, "\t")

    @pytest.mark.parametrize("body", [
        ["1\t2", "", "3\t4", " \xa0", "5\t6", "", "", "7\t8", "\t", "9\t10"],
        ["1\t2", "", "3\t4", " \xa0", "5\tx", "", "", "7\t8", "\t", "9\t10"],
        ["1\t2", "", "3\t4", " \xa0", "5\tx", "", "", "7\t8", "\t", "9\t10\t"],
        ["", "1\t2", "\u3000", "3", "4\t5", " "],
    ])
    def test_blank_lines_at_every_block_edge(self, body):
        text = "\n".join(["A\tB", *body]) + "\n"
        expected = reference_load(text, "\t")
        for block_lines in range(1, len(body) + 6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_BLOCK_LINES", block_lines)
                assert load_outcome(text.encode(), "\t") == expected

    def test_wide_cells_are_decoded_one_by_one(self):
        text = ("A\tB\n" + " " * 100 + "5\t" + "\u3000" * 40 + "-7\n"
                "1\t" + "\xa0" * 50 + "\n")
        assert load_outcome(text.encode(), "\t") == (
            ("A", "B"), ("A", "B"), [[5, -7], [1, None]])
        bad = text.replace("-7", "7x")
        assert load_outcome(bad.encode(), "\t") == reference_load(bad, "\t")
        # copied out at its width, one 64 kB cell would cost every cell
        # of its block 64 kB
        data = ("A\tB\n" + "1\t2\n" * 100 + " " * 2**16 + "3\t4\n").encode()
        tracemalloc.start()
        try:
            assert load_survey(data).values[-1].tolist() == [3, 4]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("delimiter", ["\n", "\r\n", ";\r", "\u2028"])
    def test_delimiter_holding_a_line_break_is_in_no_line(self, delimiter):
        for text in ("A\r\n1\n \n2\n", "A;B\r1;2\r\n", "A\n\n"):
            assert (load_outcome(text.encode(), delimiter)
                    == reference_load(text, delimiter))

    def test_line_breaks_are_those_of_splitlines(self):
        breaks = {c.encode() for c in map(chr, range(0x110000))
                  if len(f"a{c}b".splitlines()) == 2}
        assert set(ingest._LINE_BREAKS) == breaks
        assert set(ingest._ASCII_BREAKS) == {b for b in breaks if b.isascii()}

    @pytest.mark.parametrize("text", [
        # the lead bytes of the multi-byte breaks, \xc2 in "\xa3" and \xe2 in
        # "\u2014", with no multi-byte break
        "A\tB\n\xe9\u2014\t\xa31\r2\t3",
        # a real \u2028 break among them
        "A\tB\n\xe9\u2014\t1\u20282\t\xa33\n4\t5",
    ])
    def test_line_bounds_match_splitlines(self, text):
        data = text.encode()
        starts, ends = ingest._line_bounds(data, np.frombuffer(data, dtype=np.uint8),
                                           data.isascii())
        assert [data[a:b].decode() for a, b in zip(starts, ends)] == text.splitlines()

    def test_bytes_not_utf8_rejected_at_the_first_bad_byte(self):
        with pytest.raises(UnicodeDecodeError, match="position 8: invalid start"):
            load_survey(b"Y\tX\tC\n1\t\xff\t3\n")

    def test_bad_byte_past_the_first_span_keeps_its_offset(self):
        data = b"Y\tX\n" + b"1\t2\n" * 20 + b"3\t\xff\n"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_SPAN_BYTES", 8)
            with pytest.raises(UnicodeDecodeError,
                               match="byte 0xff in position 86: invalid start"):
                load_survey(data)

    @pytest.mark.parametrize("data", [
        "A\tB\n1\t\u3000 2\n\U0001f600\t\xa03\n".encode(),
        # a character cut short, by a bad byte or by the end of the file
        b"A\tB\n1\t\xe3\x80 2\n",
        b"A\tB\n1\t\xf0\x9f\x98\n",
        b"A\tB\n1\t2\xe3\x80",
        # a byte that can start no character, amid or after a valid one
        b"A\tB\n1\t\xe3\x80\x80\x80\n",
        b"A\tB\n1\t\xc0\xaf\n",
        # two- and three-byte line breaks, which some span sizes cut
        "A\tB\u20281\t2\x85\r\n3\t4\u20295\t6\n".encode(),
    ])
    def test_characters_across_span_cuts_check_as_in_one_piece(self, data):
        try:
            expected = reference_load(data.decode(), "\t")
        except UnicodeDecodeError as exc:
            expected = str(exc)
        for span_bytes in range(1, len(data) + 2):
            for read_bytes in READ_BYTES:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "_SPAN_BYTES", span_bytes)
                    mp.setattr(ingest, "_READ_BYTES", read_bytes)
                    try:
                        outcome = load_outcome(data, "\t")
                    except UnicodeDecodeError as exc:
                        outcome = str(exc)
                assert outcome == expected, (span_bytes, read_bytes)

    @pytest.mark.parametrize("text", [
        # some read size ends a piece between the \r and the \n of a CRLF
        "A\tB\r\n1\t2\r\n\r\n3\t4\r\n",
        # ... and after the first or the second of the three bytes of \u2028
        "A\tB\u20281\t2\u2028\u20283\t4\u2028",
    ], ids=["crlf", "u2028"])
    def test_line_breaks_cut_between_pieces_end_one_line(self, text):
        data = text.encode()
        expected = reference_load(text, "\t")
        assert not isinstance(expected, str)
        for read_bytes in range(1, len(data) + 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_READ_BYTES", read_bytes)
                assert load_outcome(data, "\t") == expected, read_bytes

    def test_bad_byte_past_the_first_piece_keeps_its_offset(self):
        data = b"Y\tX\n" + b"1\t2\n" * 20 + b"3\t\xff\n"
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode()
        for read_bytes in (1, 3, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_READ_BYTES", read_bytes)
                with pytest.raises(UnicodeDecodeError) as info:
                    load_survey(data)
            assert str(info.value) == str(whole.value), read_bytes
            assert (info.value.start, info.value.end) == (86, 87)
        assert "byte 0xff in position 86: invalid start byte" in str(whole.value)

    def test_line_far_longer_than_a_read_takes_doubling_reads(self):
        class CountedReads(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                return super().read(size)

        # a row 1,000 reads long: read by read, appending each read to
        # the carried line, took minutes
        data = b"A\tB\n" + b" " * 1_024_000 + b"5\t6\n7\t8\n"
        stream = CountedReads(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "_READ_BYTES", 1024)
            start = time.perf_counter()
            table = load_survey(stream)
            elapsed = time.perf_counter() - start
        assert table.values.tolist() == [[5, 6], [7, 8]]
        assert stream.reads <= 13
        assert elapsed < 1.0

    def test_memory_is_bounded_by_a_piece_not_the_file(self, tmp_path):
        # survey-shaped files of 1 MB and 8 MB, read from disk; whole, the
        # larger one alone held 8 MB
        rng = np.random.default_rng(19)
        cols = [rng.integers(0, 1000, 1000) for _ in range(250)]
        small = survey_bytes([f"C{j}" for j in range(250)], cols)
        header, body = small.split(b"\n", 1)
        path = tmp_path / "survey.tsv"
        peaks = []
        for data in (small, header + b"\n" + body * 8):
            path.write_bytes(data)
            with open(path, "rb") as fh:
                tracemalloc.start()
                try:
                    table = load_survey(fh, columns=["C3"])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert table.values[:1000, 0].tolist() == cols[3].tolist()
        assert max(peaks) <= 1.25 * min(peaks), peaks
        assert max(peaks) < 2_500_000, peaks

    @pytest.mark.parametrize("delimiter, header, early, late, message", [
        # a ragged row or a bad cell in an early piece, bytes that are not
        # UTF-8 in a later one: the UTF-8 error, at its offset in the file
        ("\t", b"A\tB", b"1", b"\xff", None),
        ("\t", b"A\tB", b"1\tx", b"\xff", None),
        # ... or a NUL in a later one: the NUL
        ("\t", b"A\tB", b"1", b"\0", "survey file contains a NUL character"),
        ("\t", b"A\tB", b"1\tx", b"\0", "survey file contains a NUL character"),
        # a repeated header name, then a NUL
        ("\t", b"A\tA", b"1\t2", b"\0", "survey file contains a NUL character"),
        # a bad cell early, a ragged row late: the ragged row
        ("\t", b"A\tB", b"1\tx", b"3", "expected 2 cells, found 1 (row 10)"),
        # an empty delimiter, then bytes that are not UTF-8, or a NUL
        ("", b"A\tB", b"1\t2", b"\xff", None),
        ("", b"A\tB", b"1\t2", b"\0", "the delimiter must be non-empty"),
    ], ids=["ragged-utf8", "cell-utf8", "ragged-nul", "cell-nul", "header-nul",
            "cell-ragged", "delimiter-utf8", "delimiter-nul"])
    def test_an_error_in_a_later_piece_outranks_one_held(self, delimiter, header,
                                                         early, late, message):
        data = header + b"\n" + early + b"\n" + b"1\t2\n" * 8 + late + b"\n"
        if message is None:
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode()
            message = str(whole.value)
        for read_bytes in (1, 8, ingest._READ_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_READ_BYTES", read_bytes)
                with pytest.raises(ValueError) as info:
                    load_survey(data, delimiter=delimiter)
            assert str(info.value) == message, read_bytes

    def test_one_non_ascii_cell_costs_no_decoded_copy_of_the_file(self):
        # survey-shaped: many short cells a row, 2 MB in all
        rng = np.random.default_rng(19)
        cols = [rng.integers(0, 1000, 2000) for _ in range(250)]
        plain = survey_bytes([f"C{j}" for j in range(250)], cols)
        # a line start is a cell start, and an ideographic space pads a cell
        mid = plain.index(b"\n", len(plain) // 2) + 1
        wide = plain[:mid] + "\u3000".encode() + plain[mid:]
        peaks = []
        for data in (plain, wide):
            tracemalloc.start()
            try:
                load_survey(data, columns=["C3"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestStudySpec:
    def _spec(self, **kw):
        base = dict(dependent="Y", independent="X",
                    stages=(("A", ("C1",)), ("B", ("C2", "C3"))))
        base.update(kw)
        return StudySpec(**base)

    def test_cumulative_confounders(self):
        spec = self._spec()
        assert spec.cumulative_confounders("A") == ("C1",)
        assert spec.cumulative_confounders("B") == ("C1", "C2", "C3")

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            self._spec().cumulative_confounders("Z")

    def test_dependent_cannot_be_confounder(self):
        with pytest.raises(ValueError):
            self._spec(stages=(("A", ("Y",)),))

    def test_duplicate_across_stages(self):
        with pytest.raises(ValueError, match="duplicate"):
            self._spec(stages=(("A", ("C1",)), ("B", ("C1",))))

    def test_duplicate_stage_names(self):
        with pytest.raises(ValueError, match="unique"):
            self._spec(stages=(("A", ("C1",)), ("A", ("C2",))))

    def test_json_parsing_preserves_stage_order(self):
        spec = parse_study_json(
            '{"dependent": "Y", "independent": "X", "unit_change": 52.18,'
            ' "stages": {"A": ["C1"], "B": ["C2"]}}')
        assert spec.stage_names() == ["A", "B"]
        assert spec.unit_change == 52.18

    def test_json_duplicate_stage_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_study_json('{"dependent": "Y", "independent": "X",'
                             ' "stages": {"A": ["C1"], "A": ["C2"]}}')

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            parse_study_json('{"dependent": "Y", "stages": {"A": []}}')

    @pytest.mark.parametrize("stage", ['"CIG"', '[["CIG"]]', '[""]', '[1]',
                                       '{"C": 1}', 'null'])
    def test_json_stage_not_a_list_of_names_rejected(self, stage):
        with pytest.raises(ValueError, match="stage 'B' must be a list of non-empty"):
            parse_study_json('{"dependent": "Y", "independent": "X",'
                             f' "stages": {{"A": ["C1"], "B": {stage}}}}}')

    @pytest.mark.parametrize("key", ["dependent", "independent"])
    @pytest.mark.parametrize("value", ['5', '["Y"]', 'null'])
    def test_json_variable_not_a_string_rejected(self, key, value):
        spec = {"dependent": '"Y"', "independent": '"X"', key: value}
        with pytest.raises(ValueError, match=f"{key} must be a column name string"):
            parse_study_json(f'{{"dependent": {spec["dependent"]},'
                             f' "independent": {spec["independent"]},'
                             ' "stages": {"A": ["C1"]}}')

    def test_json_unit_change_not_a_number_rejected(self):
        for value in ('[52]', 'true', 'false', '"52.18"', '"abc"', 'null',
                      '{"per": 52}'):
            with pytest.raises(ValueError, match="^unit_change must be a number$"):
                parse_study_json('{"dependent": "Y", "independent": "X",'
                                 f' "unit_change": {value}, "stages": {{"A": ["C1"]}}}}')

    @pytest.mark.parametrize("value, expected", [('52', 52.0), ('52.18', 52.18),
                                                 ('1e-3', 1e-3)])
    def test_json_unit_change_number_accepted(self, value, expected):
        spec = parse_study_json('{"dependent": "Y", "independent": "X",'
                                f' "unit_change": {value}, "stages": {{"A": ["C1"]}}}}')
        assert spec.unit_change == expected

    @pytest.mark.parametrize("value", ['0', '-1.5', '1e400', '1' + '0' * 400])
    def test_json_unit_change_not_positive_finite_rejected(self, value):
        with pytest.raises(ValueError, match="unit_change must be a positive finite"):
            parse_study_json('{"dependent": "Y", "independent": "X",'
                             f' "unit_change": {value}, "stages": {{"A": ["C1"]}}}}')

    def test_columns_lists_every_column_the_study_reads(self):
        assert self._spec().columns() == ("Y", "X", "C1", "C2", "C3")


def _metamodel_survey(p=0.75, k=2, n=40_000, seed=101, beta_prime=0.0):
    """Survey-shaped dump of a synthetic population, latent trait included."""
    m = draw_population(
        ModelParams(p=p, k=k, n_respondents=n, seed=seed,
                    causal_increment=beta_prime), k + 1)
    names = [f"R{j}" for j in range(k + 1)] + ["QBIN"]
    cols = [m.responses[:, j] for j in range(k + 1)] + [(m.latent + 1) // 2]
    return load_survey(survey_bytes(names, cols)), m


class TestBuildDesign:
    def test_widths_strictly_increase_across_stages(self):
        table, _ = _metamodel_survey(k=3, n=2000)
        mapped = apply_mappings(table, [])
        study = StudySpec(dependent="R0", independent="R1",
                          stages=(("A", ()), ("B", ("R2",)), ("C", ("R3", "QBIN"))))
        widths = []
        for stage in study.stage_names():
            _, design, _ = build_design(mapped, study, stage)
            widths.append(design.values.shape[1])
        assert widths == [2, 3, 5]

    def test_table_with_no_mappings_applied_is_all_ordinal(self):
        table = load_survey(("Y\tX\tC\n" + "".join(
            f"{i % 2}\t{i % 5}\t{1 + i % 3}\n" for i in range(40))).encode())
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        y, design, info = build_design(table, study, "A")
        assert design.names == ("intercept", "X", "C")
        assert design.values[:3, 2].tolist() == [1.0, 2.0, 3.0]
        assert (info.n_used, info.n_dropped) == (40, 0)
        assert y.tolist() == [i % 2 for i in range(40)]

    def test_cat_confounder_expands(self):
        rng = np.random.default_rng(2)
        n = 400
        y = rng.integers(0, 2, n)
        x = rng.integers(0, 5, n)
        c = rng.integers(1, 4, n)  # three categories, not 0-based
        table = load_survey(survey_bytes(["Y", "X", "C"], [y, x, c]))
        mapped = apply_mappings(table, [ColumnSpec("C", CAT, ())])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        _, design, info = build_design(mapped, study, "A")
        assert design.names == ("intercept", "X", "C=1", "C=2")
        # codes 1, 2, 3 relabel to 0, 1, 2; code 1 is the reference
        assert np.array_equal(design.values,
                              np.column_stack([np.ones(n), x, c == 2, c == 3]))

    def test_cat_codes_need_not_be_consecutive_or_nonnegative(self):
        # a hand-built table is not relabeled: every code but 0 is an
        # indicator, in ascending order
        c = np.resize([5, -1, 0, 2, 0], 40)
        x = np.arange(40) % 7
        values = np.column_stack([np.arange(40) % 2, x, c])
        table = SurveyTable(names=("Y", "X", "C"), values=values,
                            missing=np.zeros(values.shape, dtype=bool),
                            header=("Y", "X", "C"), kinds={"C": CAT})
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        _, design, _ = build_design(table, study, "A")
        assert design.names == ("intercept", "X", "C=-1", "C=2", "C=5")
        assert np.array_equal(design.values, np.column_stack(
            [np.ones(40), x, c == -1, c == 2, c == 5]))

    def test_binary_cat_confounder_is_its_own_indicator(self):
        c = np.resize([0, 1, 1, 0], 20)
        table = load_survey(survey_bytes(["Y", "X", "C"],
                                         [np.arange(20) % 2, np.arange(20) % 3, c]))
        mapped = apply_mappings(table, [ColumnSpec("C", CAT, ())])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        _, design, _ = build_design(mapped, study, "A")
        assert design.names == ("intercept", "X", "C=1")
        assert np.array_equal(design.values[:, 2], c)

    def test_seven_categories_give_six_columns_zero_on_the_reference(self):
        c = np.resize(np.arange(1, 8), 70)
        table = load_survey(survey_bytes(["Y", "X", "C"],
                                         [np.arange(70) % 2, np.arange(70) % 4, c]))
        mapped = apply_mappings(table, [ColumnSpec("C", CAT, ())])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        _, design, _ = build_design(mapped, study, "A")
        assert design.values.shape == (70, 8)
        assert design.names[2:] == tuple(f"C={code}" for code in range(1, 7))
        # code 1 relabels to the reference 0: its rows carry no indicator
        assert not design.values[c == 1, 2:].any()
        assert (design.values[c != 1, 2:].sum(axis=1) == 1).all()

    def test_confounders_keep_stage_order_with_indicators_in_place(self):
        n = 60
        a = np.arange(n) % 3
        b = np.arange(n) % 5
        d = np.arange(n) % 2
        table = load_survey(survey_bytes(["Y", "X", "A", "B", "D"],
                                         [np.arange(n) % 2, np.arange(n) % 7, a, b, d]))
        mapped = apply_mappings(table, [ColumnSpec("A", CAT, ()), ColumnSpec("D", CAT, ())])
        study = StudySpec(dependent="Y", independent="X",
                          stages=(("S1", ("A",)), ("S2", ("B", "D"))))
        _, design, _ = build_design(mapped, study, "S2")
        assert design.names == ("intercept", "X", "A=1", "A=2", "B", "D=1")
        assert np.array_equal(design.values, np.column_stack(
            [np.ones(n), np.arange(n) % 7, a == 1, a == 2, b, d == 1]))

    def test_a_code_only_in_dropped_rows_gets_no_indicator(self):
        # code 3 of C appears only where X is blank, so those rows drop
        rows = [f"{i % 2}\t{'' if i % 4 == 3 else i % 5}\t{i % 4}\n" for i in range(40)]
        mapped = apply_mappings(load_survey(("Y\tX\tC\n" + "".join(rows)).encode()),
                                [ColumnSpec("C", CAT, ())])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        _, design, info = build_design(mapped, study, "A")
        assert (info.n_used, info.n_dropped) == (30, 10)
        assert design.names == ("intercept", "X", "C=1", "C=2")

    def test_non_binary_dependent_rejected(self):
        table = load_survey(survey_bytes(["Y", "X"], [np.array([0, 1, 2]),
                                                     np.array([1, 2, 3])]))
        mapped = apply_mappings(table, [])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ()),))
        with pytest.raises(IngestError, match="not binary"):
            build_design(mapped, study, "A")

    def test_rows_missing_dependent_dropped_and_counted(self):
        text = b"Y\tX\n1\t3\n\t4\n0\t5\n0\t\n"
        mapped = apply_mappings(load_survey(text), [])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ()),))
        y, design, info = build_design(mapped, study, "A")
        assert info.n_used == 2
        assert info.n_dropped == 2
        assert y.tolist() == [1.0, 0.0]

    def test_all_blank_respondent_dropped_and_counted(self):
        text = b"Y\tX\n1\t3\n\t\n0\t5\n"
        mapped = apply_mappings(load_survey(text), [])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ()),))
        _, _, info = build_design(mapped, study, "A")
        assert (info.n_used, info.n_dropped) == (2, 1)

    def test_cat_dependent_rejected(self):
        table = load_survey(survey_bytes(["Y", "X"], [np.array([0, 1]),
                                                     np.array([1, 2])]))
        mapped = apply_mappings(table, [ColumnSpec("Y", CAT, ())])
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ()),))
        with pytest.raises(IngestError, match="must be ORD"):
            build_design(mapped, study, "A")

    def test_cat_confounder_errors_name_the_column(self):
        # one category only; then category 0 present only in rows another
        # confounder drops
        single = load_survey(b"Y\tX\tC\n1\t1\t1\n0\t2\t1\n1\t3\t1\n0\t4\t1\n")
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("C",)),))
        with pytest.raises(IngestError, match="at least 2 distinct") as exc:
            build_design(apply_mappings(single, [ColumnSpec("C", CAT, ())]), study, "A")
        assert exc.value.column == "C" and str(exc.value).endswith("(column C)")
        no_reference = load_survey(b"Y\tX\tC\tD\n" + b"".join(
            b"%d\t%d\t%d\t%s\n" % (i % 2, i % 5, i % 3, b"" if i % 3 == 0 else b"1")
            for i in range(30)))
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("D", "C")),))
        with pytest.raises(IngestError, match="reference category 0 not present") as exc:
            build_design(apply_mappings(no_reference, [ColumnSpec("C", CAT, ())]),
                         study, "A")
        assert exc.value.column == "C"


class TestStagedAnalysis:
    def test_pure_noise_dependent_keeps_zero_in_every_ci(self):
        rng = np.random.default_rng(3)
        n = 3000
        y = rng.integers(0, 2, n)  # independent of everything else
        x = rng.integers(0, 10, n)
        c1 = rng.integers(0, 2, n)
        c2 = rng.integers(0, 4, n)
        table = load_survey(survey_bytes(["Y", "X", "C1", "C2"], [y, x, c1, c2]))
        study = StudySpec(dependent="Y", independent="X",
                          stages=(("A", ("C1",)), ("B", ("C2",))))
        results = staged_analysis(apply_mappings(table, []), study)
        assert len(results) == 2
        for res in results:
            assert res.error is None
            assert res.ci_low < 0.0 < res.ci_high

    def test_latent_confounder_fully_mediates(self):
        table, m = _metamodel_survey(p=0.75, k=2, n=40_000, seed=7)
        mapped = apply_mappings(table, [])
        study = StudySpec(dependent="R0", independent="R1",
                          stages=(("A", ()), ("B", ("QBIN",))))
        unadjusted, adjusted = staged_analysis(mapped, study)

        # the raw association matches the closed-form 2x2 log odds ratio
        r0, r1 = m.responses[:, 0], m.responses[:, 1]
        a = int(((r0 == 1) & (r1 == 1)).sum())
        b = int(((r0 == 1) & (r1 == 0)).sum())
        c = int(((r0 == 0) & (r1 == 1)).sum())
        d = int(((r0 == 0) & (r1 == 0)).sum())
        assert unadjusted.beta1 == pytest.approx(log_odds_ratio(a, b, c, d), abs=1e-6)
        assert unadjusted.beta1 == pytest.approx(MARGINAL_LOG_OR_P075, abs=0.09)
        assert unadjusted.ci_low > 0.0

        # conditioning on the latent trait removes the association entirely
        assert adjusted.error is None
        assert abs(adjusted.beta1) < abs(unadjusted.beta1) / 10
        assert adjusted.ci_low < 0.0 < adjusted.ci_high

    def test_planted_coefficients_recovered_within_3_sigma(self):
        rng = np.random.default_rng(12)
        n = 4000
        x1 = rng.integers(0, 8, n)
        x2 = rng.integers(0, 2, n)
        x3 = rng.integers(0, 3, n)
        truth = {"intercept": -1.0, "X1": 0.15, "X2": 0.5,
                 "X3=1": 0.3, "X3=2": -0.4}
        eta = (truth["intercept"] + truth["X1"] * x1 + truth["X2"] * x2
               + truth["X3=1"] * (x3 == 1) + truth["X3=2"] * (x3 == 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        table = load_survey(survey_bytes(["Y", "X1", "X2", "X3"], [y, x1, x2, x3]))
        mapped = apply_mappings(table, [ColumnSpec("X3", CAT, ())])
        study = StudySpec(dependent="Y", independent="X1",
                          stages=(("A", ("X2",)), ("B", ("X3",))))
        yv, design, _ = build_design(mapped, study, "B")
        fit = fit_logistic(yv, design)
        assert fit.converged
        for i, name in enumerate(design.names):
            assert abs(fit.coefficients[i] - truth[name]) < 3 * fit.std_errors[i], name

    def test_stage_failure_does_not_stop_later_ones(self):
        rng = np.random.default_rng(5)
        n = 500
        y = rng.integers(0, 2, n)
        x = rng.integers(0, 4, n)
        good = rng.integers(0, 2, n)
        dead = np.zeros(n, dtype=int)  # degenerate all-zero confounder
        table = load_survey(survey_bytes(["Y", "X", "G", "DEAD"],
                                        [y, x, good, dead]))
        study = StudySpec(dependent="Y", independent="X",
                          stages=(("A", ("G",)), ("B", ("DEAD",))))
        res_a, res_b = staged_analysis(apply_mappings(table, []), study)
        assert res_a.error is None
        assert res_b.error is not None

    def test_failed_stage_keeps_its_row_counts(self):
        rng = np.random.default_rng(8)
        n = 400
        y = rng.integers(0, 2, n)
        columns = [y, rng.integers(0, 4, n), rng.integers(0, 3, n), y,
                   np.zeros(n, dtype=int)]
        lines = survey_bytes(["Y", "X", "C", "S", "DEAD"], columns).decode().splitlines()
        # blank C in every 9th row, so a stage using C drops rows
        lines[1::9] = ["\t".join(ln.split("\t")[:2] + ["", *ln.split("\t")[3:]])
                       for ln in lines[1::9]]
        table = apply_mappings(load_survey(("\n".join(lines) + "\n").encode()), [])
        study = StudySpec(dependent="Y", independent="X",
                          stages=(("A", ("C",)), ("B", ("S",)), ("C", ("DEAD",))))
        good, separated, dead = staged_analysis(table, study)
        _, _, info = build_design(table, study, "B")
        assert info.n_dropped > 0
        assert good.error is None
        # S copies Y: the design is built, then the fit separates
        assert separated.error == "separation detected in stage B"
        assert (separated.n_used, separated.n_dropped) == (info.n_used, info.n_dropped)
        # an all-zero column fails while the design is built: no counts
        assert dead.error == "column 'DEAD' is all zero"
        assert (dead.n_used, dead.n_dropped) == (0, 0)

    def test_stage_whose_fit_does_not_converge_is_flagged_and_later_stages_run(
            self, monkeypatch):
        # data on which the fit stops unconverged without separating is hard
        # to build, so the first stage's fit result is marked not converged
        fits = []

        def first_fit_not_converged(y, design):
            fits.append(fit_logistic(y, design))
            return replace(fits[-1], converged=len(fits) > 1)

        monkeypatch.setattr(ingest, "fit_logistic", first_fit_not_converged)
        table, _ = _metamodel_survey(n=2000, seed=57)
        study = StudySpec(dependent="R0", independent="R1",
                          stages=(("A", ()), ("B", ("R2",))))
        first, second = staged_analysis(apply_mappings(table, []), study)
        assert first.error == "fit did not converge in stage A"
        assert (first.n_used, first.n_dropped) == (2000, 0)
        assert second.error is None and second.beta1 == fits[1].coefficients[1]

    def test_all_zero_confounder_is_named_in_the_stage_error(self):
        rng = np.random.default_rng(6)
        n = 300
        table = load_survey(survey_bytes(
            ["Y", "X", "DEAD"],
            [rng.integers(0, 2, n), rng.integers(0, 4, n), np.zeros(n, dtype=int)]))
        study = StudySpec(dependent="Y", independent="X", stages=(("A", ("DEAD",)),))
        (result,) = staged_analysis(apply_mappings(table, []), study)
        assert result.error == "column 'DEAD' is all zero"

    def test_relative_risk_overflow_is_a_stage_error(self):
        table, _ = _metamodel_survey(n=5000, seed=56)
        study = StudySpec(dependent="R0", independent="R1",
                          stages=(("A", ()), ("B", ("R2",))))
        # a per-unit coefficient near 1 rescaled by 1e4 is past exp's range
        results = staged_analysis(apply_mappings(table, []),
                                  replace(study, unit_change=1e4))
        assert [r.error is not None for r in results] == [True, True]
        assert all("math range error" in r.error for r in results)
        # a failed stage keeps none of its statistics, only its row counts
        assert all(np.isnan([r.beta1, r.sigma1, r.relative_risk, r.ci_low, r.ci_high,
                             r.baseline_prevalence]).all() and r.n_used > 0
                   for r in results)

    def test_unit_change_rescales_linearly(self):
        table, _ = _metamodel_survey(n=5000, seed=55)
        mapped = apply_mappings(table, [])
        study = StudySpec(dependent="R0", independent="R1", stages=(("A", ()),))
        base = staged_analysis(mapped, replace(study, unit_change=1.0))[0]
        scaled = staged_analysis(mapped, replace(study, unit_change=52.18))[0]
        assert scaled.beta1 == pytest.approx(base.beta1 * 52.18, rel=1e-12)
        assert scaled.sigma1 == pytest.approx(base.sigma1 * 52.18, rel=1e-12)


class TestCrossModuleConsistency:
    def test_ingest_design_matches_hand_built_fit(self):
        table, m = _metamodel_survey(p=0.7, k=3, n=3000, seed=77)
        mapped = apply_mappings(table, [])
        study = StudySpec(dependent="R0", independent="R1",
                          stages=(("A", ("R2", "R3")),))
        y_ing, design_ing, _ = build_design(mapped, study, "A")
        fit_ing = fit_logistic(y_ing, design_ing)

        resp = m.responses.astype(np.float64)
        design_direct = DesignMatrix(np.column_stack([np.ones(len(resp)), resp[:, 1:]]))
        fit_direct = fit_logistic(resp[:, 0], design_direct)
        assert np.max(np.abs(fit_ing.coefficients - fit_direct.coefficients)) < 1e-10
        assert np.max(np.abs(fit_ing.std_errors - fit_direct.std_errors)) < 1e-10


ALL_X_MISSING = b"Y\tX\n1\t\n0\t\n"
ONE_STAGE = StudySpec(dependent="Y", independent="X", stages=(("A", ()),))


@pytest.mark.parametrize("call, error, message", [
    (lambda: load_survey(b""), IngestError, "empty survey file"),
    (lambda: load_survey(b"\n  \n"), IngestError, "empty survey file"),
    (lambda: build_design(load_survey(ALL_X_MISSING), ONE_STAGE, "A"), IngestError,
     "no rows remain after dropping missing values"),
    # returned as the stage's error, not raised
    (lambda: staged_analysis(load_survey(ALL_X_MISSING), ONE_STAGE)[0].error, None,
     "no rows remain after dropping missing values"),
    (lambda: load_survey(b"A\n1\n").column("nope"), IngestError,
     "no such column (column nope)"),
    (lambda: StudySpec("", "X", ONE_STAGE.stages), ValueError,
     "dependent and independent column names are required"),
    (lambda: StudySpec("Y", "Y", ONE_STAGE.stages), ValueError,
     "dependent and independent must differ"),
    (lambda: StudySpec("Y", "X", ()), ValueError, "at least one stage is required"),
    (lambda: MappingRule(5, 3, 0), MappingParseError, "inverted range 5-3"),
    (lambda: ColumnSpec("", ORD), ValueError, "column name must be non-empty"),
    (lambda: ColumnSpec("A", "NUM"), ValueError, "kind must be ORD or CAT, got 'NUM'"),
], ids=["empty-file", "blank-file", "design-no-rows", "stage-no-rows", "no-column",
        "study-blank-name", "study-same-columns", "study-no-stages", "rule-inverted",
        "column-blank-name", "column-bad-kind"])
def test_error_says_why(call, error, message):
    # each call raises the message as exactly `error`, or returns it as a
    # stage's error
    try:
        outcome = call()
    except ValueError as exc:
        assert type(exc) is error
        outcome = str(exc)
    assert outcome == message
