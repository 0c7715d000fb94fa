"""Delimited survey ingestion, value recoding, and staged confounder fits.

Survey public-use files code answers as integers, with sentinel codes for
skip patterns, refusals, and bad data.  A small text DSL describes how each
column is cleaned: `COLUMN KIND rules...` per line, where KIND is ORD
(ordinal, used numerically) or CAT (categorical, one-hot expanded) and the
rules are comma-separated `source:target` or `low-high:target` recodes.
Rules apply first-match-wins; values no rule covers pass through unchanged.

A study spec names one dependent and one independent column plus named
stages of confounders, each stage cumulative with the ones before it.  The
staged analysis fits every cumulative design and reports the independent
variable's effect as a relative risk, which is how adjusted survey
associations are usually published.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from typing import BinaryIO

import numpy as np

from .glm import DesignMatrix, confidence_interval, fit_logistic, relative_risk

__all__ = [
    "MappingParseError",
    "IngestError",
    "MappingRule",
    "ColumnSpec",
    "StudySpec",
    "SurveyTable",
    "StageResult",
    "parse_mapping_rule",
    "parse_mapping_file",
    "parse_study_json",
    "load_survey",
    "apply_mappings",
    "build_design",
    "staged_analysis",
]

ORD = "ORD"
CAT = "CAT"

_RULE_RE = re.compile(r"^(\d+)(?:-(\d+))?:(-?\d+)$")


def _located(message: str, **where) -> str:
    """message plus a "(line 3, token 1)" style suffix of the places given."""
    parts = [f"{key} {value}" for key, value in where.items() if value is not None]
    return f"{message} ({', '.join(parts)})" if parts else message


class MappingParseError(ValueError):
    """A mapping rule or mapping file line could not be parsed.

    `message` is the reason without the location suffix that str() adds.
    """

    def __init__(self, message: str, *, token_index: int | None = None,
                 line: int | None = None):
        self.message = message
        self.token_index = token_index
        self.line = line
        super().__init__(_located(message, line=line, token=token_index))


class IngestError(ValueError):
    """Bad cell or column encountered while ingesting survey data."""

    def __init__(self, message: str, *, row: int | None = None,
                 column: str | None = None):
        self.row = row
        self.column = column
        super().__init__(_located(message, row=row, column=column))


@dataclass(frozen=True)
class MappingRule:
    """Recode the inclusive source range [low, high] to `target`."""

    low: int
    high: int
    target: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise MappingParseError(f"inverted range {self.low}-{self.high}")

    def text(self) -> str:
        src = str(self.low) if self.low == self.high else f"{self.low}-{self.high}"
        return f"{src}:{self.target}"


def parse_mapping_rule(text: str) -> tuple[MappingRule, ...]:
    """Parse `2:0, 85-97:0` style rule lists; empty text means no recoding."""
    if not text.strip():
        return ()
    rules = []
    for i, token in enumerate(text.split(",")):
        token = token.strip()
        m = _RULE_RE.match(token)
        if m is None:
            raise MappingParseError(f"malformed rule {token!r}", token_index=i)
        low = int(m.group(1))
        high = int(m.group(2)) if m.group(2) is not None else low
        if low > high:
            raise MappingParseError(f"inverted range in {token!r}", token_index=i)
        rules.append(MappingRule(low, high, int(m.group(3))))
    return tuple(rules)


@dataclass(frozen=True)
class ColumnSpec:
    """Recoding instructions for one survey column.

    CAT columns are always relabeled to consecutive integers from 0 after
    recoding; category 0 becomes the one-hot reference.
    """

    name: str
    kind: str
    rules: tuple[MappingRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.kind not in (ORD, CAT):
            raise ValueError(f"kind must be ORD or CAT, got {self.kind!r}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Recode a vector, first matching rule wins, else pass through."""
        out = values.copy()
        unresolved = np.ones(values.shape, dtype=bool)
        for rule in self.rules:
            hit = unresolved & (values >= rule.low) & (values <= rule.high)
            out[hit] = rule.target
            unresolved &= ~hit
        return out


def parse_mapping_file(text: str) -> tuple[list[ColumnSpec], list[str]]:
    """Parse a mapping spec file, one `COLUMN KIND rules...` per line.

    Blank lines and '#' comments are skipped.  Returns the specs plus
    warnings for any overlapping rules (tolerated, first match wins).
    """
    specs: list[ColumnSpec] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise MappingParseError(f"expected 'COLUMN KIND rules...', got {line!r}",
                                    line=lineno)
        name, kind = parts[0], parts[1]
        if kind not in (ORD, CAT):
            raise MappingParseError(f"unknown kind {kind!r} for column {name}",
                                    line=lineno)
        if name in seen:
            raise MappingParseError(f"duplicate column {name}", line=lineno)
        seen.add(name)
        try:
            rules = parse_mapping_rule(parts[2] if len(parts) == 3 else "")
        except MappingParseError as exc:
            raise MappingParseError(exc.message, line=lineno,
                                    token_index=exc.token_index) from exc
        for i, a in enumerate(rules):
            for b in rules[i + 1:]:
                if a.low <= b.high and b.low <= a.high:
                    warnings.append(
                        f"{name} (line {lineno}): rules {a.text()} and {b.text()} "
                        "overlap; first match wins")
        specs.append(ColumnSpec(name=name, kind=kind, rules=rules))
    return specs, warnings


@dataclass(frozen=True)
class StudySpec:
    """One dependent column, one independent column, staged confounder sets."""

    dependent: str
    independent: str
    stages: tuple[tuple[str, tuple[str, ...]], ...]
    unit_change: float = 1.0

    def __post_init__(self) -> None:
        if not self.dependent or not self.independent:
            raise ValueError("dependent and independent column names are required")
        if self.dependent == self.independent:
            raise ValueError("dependent and independent must differ")
        if not self.stages:
            raise ValueError("at least one stage is required")
        names = [name for name, _ in self.stages]
        if len(names) != len(set(names)):
            raise ValueError("stage names must be unique")
        seen: set[str] = set()
        for stage_name, cols in self.stages:
            for col in cols:
                if col in (self.dependent, self.independent):
                    raise ValueError(
                        f"{col} is the dependent or independent variable and "
                        f"cannot be a confounder (stage {stage_name})")
                if col in seen:
                    raise ValueError(f"duplicate confounder {col} across stages")
                seen.add(col)
        if not (math.isfinite(self.unit_change) and self.unit_change > 0):
            raise ValueError("unit_change must be a positive finite number")

    def columns(self) -> tuple[str, ...]:
        """Every column the study reads: dependent, independent, confounders."""
        return (self.dependent, self.independent,
                *(col for _, cols in self.stages for col in cols))


def parse_study_json(text: str) -> StudySpec:
    """Parse the study spec config (JSON: dependent, independent, stages...)."""
    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"duplicate key {dup!r} in study spec")
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=no_duplicates)
    except json.JSONDecodeError as exc:
        raise ValueError(f"study spec is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("study spec must be a JSON object")
    try:
        stages_obj = data["stages"]
        dependent = data["dependent"]
        independent = data["independent"]
    except KeyError as exc:
        raise ValueError(f"study spec missing required key {exc}") from exc
    for key, value in (("dependent", dependent), ("independent", independent)):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a column name string, got {value!r}")
    if not isinstance(stages_obj, dict) or not stages_obj:
        raise ValueError("stages must be a non-empty object of name -> column list")
    for name, cols in stages_obj.items():
        if not (isinstance(cols, list)
                and all(isinstance(col, str) and col for col in cols)):
            raise ValueError(
                f"stage {name!r} must be a list of non-empty column names, got {cols!r}")
    stages = tuple(
        (name, tuple(cols)) for name, cols in stages_obj.items())
    unit_change = data.get("unit_change", 1.0)
    if isinstance(unit_change, bool) or not isinstance(unit_change, (int, float)):
        raise ValueError("unit_change must be a number")
    try:
        unit_change = float(unit_change)
    except OverflowError:
        unit_change = math.inf
    return StudySpec(dependent=dependent, independent=independent, stages=stages,
                     unit_change=unit_change)


@dataclass(frozen=True)
class SurveyTable:
    """Integer-coded survey table; blank cells are recorded as missing.

    `names` are the loaded columns, in header order; `header` is every
    column the file has, loaded or not.  `kinds` maps a column to ORD or
    CAT; a column it does not name is ORD, so a freshly loaded table is all
    ORD.  apply_mappings fills it in, and always relabels a CAT column to
    consecutive codes from 0.
    """

    names: tuple[str, ...]
    values: np.ndarray
    missing: np.ndarray
    header: tuple[str, ...]
    kinds: dict[str, str] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index(name)]

    def column_missing(self, name: str) -> np.ndarray:
        return self.missing[:, self._index(name)]

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise IngestError("no such column", column=name) from None


# body lines per block: one block's delimiter positions and cells are held
# at a time
_BLOCK_LINES = 256
# the line breaks of str.splitlines in UTF-8, ASCII ones first; "\r\n" is
# two breaks, and the empty line between them is skipped like any other
_ASCII_BREAKS = (b"\n", b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
_LINE_BREAKS = _ASCII_BREAKS + tuple(c.encode() for c in "\x85\u2028\u2029")
# bytes read from the file at a time; the unfinished line at the end of a
# read is carried into the next piece
_READ_BYTES = 1 << 20
# bytes searched for line breaks and checked as UTF-8 at a time, so no break
# mask, and no decoded text (up to four times its bytes), grows with a piece
_SPAN_BYTES = 1 << 16
# a block of plain-digit cells no wider than this is parsed in int64
# arithmetic: 18 digits are below 2**63, so no value can overflow
_DIGIT_BYTES = 18
# the errors of a survey file, the highest-ranked first: the file's error is
# the first of the highest rank it has.  Bytes that are not UTF-8 outrank
# them all, so the first is raised as soon as it is read
_DELIMITER, _NUL, _HEADER, _RAGGED, _BAD_CELL, _NO_ERROR = range(6)


class _SurveyDecodeError(UnicodeDecodeError):
    """data.decode()'s error for a file read in pieces: `start` and `end`
    count from the start of the file, but `object` holds only the bytes
    checked, which start at file offset `at`."""

    def __init__(self, exc: UnicodeDecodeError, at: int):
        super().__init__(exc.encoding, exc.object, at + exc.start, at + exc.end,
                         exc.reason)
        self.at = at

    def __str__(self) -> str:
        # the message of the whole file's UnicodeDecodeError
        if self.end - self.start == 1:
            byte = self.object[self.start - self.at]
            return (f"'{self.encoding}' codec can't decode byte 0x{byte:02x} "
                    f"in position {self.start}: {self.reason}")
        return (f"'{self.encoding}' codec can't decode bytes in position "
                f"{self.start}-{self.end - 1}: {self.reason}")


def _find(buf: np.ndarray, pattern: bytes) -> np.ndarray:
    """Offsets of `pattern` in `buf`, matched left to right without overlap."""
    n = len(buf) - len(pattern) + 1
    if n <= 0:
        return np.empty(0, dtype=np.intp)
    hit = buf[:n] == pattern[0]
    for k in range(1, len(pattern)):
        hit &= buf[k:k + n] == pattern[k]
    at = np.flatnonzero(hit)
    if len(pattern) > 1 and (np.diff(at) < len(pattern)).any():
        # a pattern that overlaps itself, as "||" does in "|||"
        kept, free = [], 0
        for a in at.tolist():
            if a >= free:
                kept.append(a)
                free = a + len(pattern)
        at = np.array(kept, dtype=np.intp)
    return at


def _line_bounds(data: bytes, buf: np.ndarray,
                 is_ascii: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of every line of `data`, empty lines included."""
    ends, gaps = [np.array([len(buf)])], [np.array([0])]
    for brk in _ASCII_BREAKS if is_ascii else _LINE_BREAKS:
        # a search for one byte is a memchr, for several bytes much slower,
        # so a multi-byte break is looked for only where its lead byte is
        if brk[:1] not in data or brk not in data:
            continue
        # one span of _SPAN_BYTES start offsets at a time; a break starting
        # in a span is matched whole
        for lo in range(0, len(buf), _SPAN_BYTES):
            at = _find(buf[lo:lo + _SPAN_BYTES + len(brk) - 1], brk) + lo
            ends.append(at)
            gaps.append(np.full(len(at), len(brk)))
    ends, gaps = np.concatenate(ends), np.concatenate(gaps)
    order = np.argsort(ends)
    starts = np.concatenate(([0], (ends + gaps)[order[:-1]]))
    return starts, ends[order]


def _pieces(stream: BinaryIO) -> Iterator[tuple[bytearray, int, np.ndarray, np.ndarray, bool]]:
    """`stream` in pieces of whole lines: each piece, the file offset it
    starts at, the start and end offset of each of its lines, and whether
    the piece, with the unfinished line it hands on, is ASCII.

    A piece is the unfinished line carried from the one before, with a
    read of _READ_BYTES appended in place, or of as many bytes as that line
    if it is longer: so a line longer than a read is read in reads that
    double.  The last piece ends the file and holds its last line, whether
    or not a line break ends it.  A piece is emptied when the next one is
    asked for, so one is held at a time.
    """
    piece, at = bytearray(), 0
    while True:
        carried = len(piece)
        piece += stream.read(max(_READ_BYTES, carried))
        is_ascii = piece.isascii()
        starts, ends = _line_bounds(piece, np.frombuffer(piece, np.uint8), is_ascii)
        if len(piece) == carried:
            yield piece, at, starts, ends, is_ascii
            return
        # the last line may be unfinished: it starts the next piece
        cut = int(starts[-1])
        if cut:
            carry = piece[cut:]
            del piece[cut:]
            yield piece, at, starts[:-1], ends[:-1], is_ascii
            piece.clear()
            piece, at = carry, at + cut


def _check_utf8(data: bytearray, at: int) -> None:
    """Raise data.decode()'s UnicodeDecodeError, if any, one span at a time;
    `data` starts at file offset `at`, and the error's offsets are the
    file's."""
    view = memoryview(data)
    lo = 0
    while lo < len(data):
        # a character starting in a span is decoded whole; a partial one at
        # the span's end is left for the next span
        hi = lo + _SPAN_BYTES + 3
        try:
            _, used = codecs.utf_8_decode(view[lo:hi], "strict", hi >= len(data))
        except UnicodeDecodeError as exc:
            raise _SurveyDecodeError(exc, at + lo) from None
        lo += used


def _block_cells(piece: bytearray, starts: np.ndarray, ends: np.ndarray,
                 delimiter: str, n_cols: int, index: np.ndarray,
                 rows_before: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and end offsets in `piece` of the columns `index` of every
    row among the lines starts:ends, as (rows, columns) tables.  A row
    without n_cols cells raises an IngestError that counts it after
    `rows_before` rows.
    """
    pattern = delimiter.encode()
    base = int(starts[0])
    if delimiter.splitlines() == [delimiter]:
        at = _find(np.frombuffer(piece, np.uint8, int(ends[-1]) - base, base),
                   pattern) + base
    else:
        # a delimiter holding a line break is in no line
        at = np.empty(0, dtype=np.intp)
    # no delimiter sits in a line break, so each line's are the ones before
    # its end and after the previous line's end
    counts = np.diff(np.searchsorted(at, ends), prepend=0)
    kept = counts > 0
    for i in np.flatnonzero(~kept & (ends > starts)).tolist():
        kept[i] = bool(piece[starts[i]:ends[i]].decode().strip())
    ragged = np.flatnonzero(kept & (counts != n_cols - 1))
    if len(ragged):
        i = ragged[0]
        raise IngestError(f"expected {n_cols} cells, found {counts[i] + 1}",
                          row=rows_before + int(np.count_nonzero(kept[:i])) + 1)
    starts, ends = starts[kept], ends[kept]
    # a row's cell j runs from its delimiter j - 1 to its delimiter j; the
    # line's start and end stand in for the first and last column's (a
    # one-column file has no delimiters: its gathers go unused)
    inner = at.reshape(len(starts), n_cols - 1) if n_cols > 1 else starts[:, None]
    return (np.where(index == 0, starts[:, None], inner[:, index - 1] + len(pattern)),
            np.where(index == n_cols - 1, ends[:, None],
                     inner[:, np.minimum(index, n_cols - 2)]))


def _integers(data: bytes, starts: np.ndarray, ends: np.ndarray, names: tuple[str, ...],
              first_row: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells at data[starts:ends], a (rows, cells) table of the columns
    `names` from row `first_row` on, as int64 values, and which of them are
    blank.  The first bad cell, row by row, raises an IngestError.
    """
    lengths = ends - starts
    width = max(int(lengths.max(initial=0)), 1)
    if width <= _DIGIT_BYTES:
        # byte k of every cell is grabbed[k], so one column of bytes is
        # one contiguous table
        offsets = np.arange(width)[:, None, None]
        grabbed = np.frombuffer(data, np.uint8).take(starts + offsets, mode="clip")
        pad = offsets >= lengths
        digits = grabbed - np.uint8(ord("0"))
        digits *= ~pad
        if digits.max(initial=0) < 10:
            # Horner's rule; a padding byte leaves the value as it is
            values = np.zeros(starts.shape, dtype=np.int64)
            for column, scale in zip(digits, np.where(pad, 1, 10)):
                values *= scale
                values += column
            return values, lengths == 0
    # any other block: each cell alone, stripped and read by int()
    cells = [data[a:b].decode().strip()
             for a, b in zip(starts.ravel().tolist(), ends.ravel().tolist())]
    try:
        values = np.array([int(cell) if cell else 0 for cell in cells],
                          dtype=np.int64)
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):
            try:
                value = int(cell) if cell else 0
            except ValueError:
                # int() refuses an integer of over 4,300 digits: out of range
                value = 2**63 if re.fullmatch(r"[+-]?\d+(?:_\d+)*", cell) else None
            if value is None or not -(2**63) <= value < 2**63:
                quoted = repr(cell) if len(cell) <= 40 else f"{cell[:40]!r}..."
                raise IngestError(
                    f"non-integer cell {quoted}" if value is None
                    else f"cell {quoted} is outside the 64-bit integer range",
                    row=first_row + k // len(names), column=names[k % len(names)])
    blank = np.array(cells, dtype=object) == ""
    return values.reshape(starts.shape), blank.reshape(starts.shape)


def _loaded_columns(header: tuple[str, ...],
                    columns: Iterable[str] | None) -> tuple[tuple[str, ...], np.ndarray]:
    """The names and header indices of the columns loaded, in header order;
    a repeated header name or a requested column absent raises IngestError."""
    present = set(header)
    if len(present) != len(header):
        dup = next(name for i, name in enumerate(header) if name in header[:i])
        raise IngestError("duplicate column name in header", column=dup)
    requested = header if columns is None else tuple(columns)
    for name in requested:
        if name not in present:
            raise IngestError("column absent from the data", column=name)
    wanted = set(requested)
    index = np.array([j for j, name in enumerate(header) if name in wanted],
                     dtype=np.intp)
    return tuple(header[j] for j in index), index


def load_survey(data: bytes | BinaryIO, delimiter: str = "\t",
                columns: Iterable[str] | None = None) -> SurveyTable:
    """Parse a delimited survey file: UTF-8 bytes, header row, integer cells.

    `data` is the file's bytes or a binary stream open on it.  Lines end at
    any line break `str.splitlines` knows, CRLF included, and a delimiter of
    any length splits a line left to right without overlap.  A line is
    skipped only when it is whitespace holding no delimiter; any other line
    is a row, and its blank cells are missing.  Only `columns` (every
    column when None) are parsed and checked, so a bad cell in a column
    that is not loaded is not an error.

    The file is read once, in pieces of whole lines of about 1 MiB (or
    one line, if a line is longer), and one piece is held at a time: beside
    the table it returns, the load holds a piece and one block's work, not
    the file, so its memory does not grow with the file's length.  Each
    piece is checked as UTF-8 and for NUL bytes, then split into blocks of
    lines: numpy finds a block's delimiters, which give every line's width,
    and copies out only the loaded cells, so the cost follows the file's
    bytes plus the cells loaded, not the cells the file has.  A block whose
    loaded cells are all plain digits, none longer than 18, is parsed in
    integer arithmetic; any other block (signs, `_`, whitespace, longer or
    bad cells) is read cell by cell: `str.strip`, then Python's `int` in the
    int64 range.  Both give the same table.

    A file with several errors raises the first of the highest-ranked
    kind, in this order: bytes that are not UTF-8 (UnicodeDecodeError, at
    their offset in the file), an empty delimiter, a NUL byte anywhere, a
    bad header (none, a repeated name, or a requested column it lacks), a
    row of the wrong width, a bad cell.  So a bad cell is reported only once
    the whole file has been read.
    """
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    error, rank = None, _NO_ERROR
    if not delimiter:
        error, rank = IngestError("the delimiter must be non-empty"), _DELIMITER
    header = None
    values, missing = [], []
    n_rows = 0
    for piece, at, line_starts, line_ends, is_ascii in _pieces(stream):
        if not is_ascii:
            _check_utf8(piece, at)
        # a NUL byte is an error even in a column that is not loaded
        if rank > _NUL and b"\0" in piece:
            error, rank = IngestError("survey file contains a NUL character"), _NUL
        if rank <= _RAGGED:
            # no error of the rows can outrank the one held
            continue
        if header is None:
            for first, (a, b) in enumerate(zip(line_starts.tolist(),
                                               line_ends.tolist())):
                line = piece[a:b].decode()
                if line.strip() or delimiter in line:
                    break
            else:
                continue
            header = tuple(h.strip() for h in line.split(delimiter))
            try:
                names, index = _loaded_columns(header, columns)
            except IngestError as exc:
                error, rank = exc, _HEADER
                continue
            line_starts, line_ends = line_starts[first + 1:], line_ends[first + 1:]
        for block in range(0, len(line_starts), _BLOCK_LINES):
            try:
                cell_starts, cell_ends = _block_cells(
                    piece, line_starts[block:block + _BLOCK_LINES],
                    line_ends[block:block + _BLOCK_LINES], delimiter, len(header),
                    index, n_rows)
            except IngestError as exc:
                error, rank = exc, _RAGGED
                break
            if rank > _BAD_CELL:
                try:
                    block_values, block_missing = _integers(
                        piece, cell_starts, cell_ends, names, n_rows + 1)
                except IngestError as exc:
                    error, rank = exc, _BAD_CELL
                else:
                    values.append(block_values)
                    missing.append(block_missing)
            n_rows += len(cell_starts)
    if header is None and error is None:
        error = IngestError("empty survey file")
    if error is not None:
        raise error
    empty = np.zeros((0, len(names)), dtype=np.int64)
    return SurveyTable(names=names, values=np.concatenate([empty, *values]),
                       missing=np.concatenate([empty.astype(bool), *missing]),
                       header=header)


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order.

    A sort and a neighbour comparison: np.unique would import numpy.ma on
    its first call, a cost every fresh process would pay.
    """
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def apply_mappings(table: SurveyTable, specs: list[ColumnSpec]) -> SurveyTable:
    """Recode every loaded column a spec names; others stay ordinal as-is.

    A spec must name a column of the file's header; specs for header
    columns that were not loaded are skipped.
    """
    by_name = {spec.name: spec for spec in specs}
    for name in by_name:
        if name not in table.header:
            raise IngestError("mapping spec names a column absent from the data",
                              column=name)
    values = table.values.copy()
    kinds: dict[str, str] = {}
    for j, name in enumerate(table.names):
        spec = by_name.get(name)
        if spec is None:
            continue
        kinds[name] = spec.kind
        col = spec.apply(table.values[:, j])
        if spec.kind == CAT:
            # relabel to consecutive codes from 0 in value order
            present = ~table.missing[:, j]
            col[present] = np.searchsorted(_sorted_distinct(col[present]), col[present])
        values[:, j] = col
    return replace(table, values=values, kinds=kinds)


@dataclass(frozen=True)
class BuildInfo:
    """Row accounting for one staged design."""

    n_used: int
    n_dropped: int


def build_design(table: SurveyTable, study: StudySpec,
                 confounders: tuple[str, ...]) -> tuple[np.ndarray, DesignMatrix, BuildInfo]:
    """Assemble (y, X) for one cumulative stage.

    X is intercept + independent + `confounders`, the stage's own and every
    earlier stage's, written into one float64 table.  A CAT confounder C
    expands to an indicator `C=code` for each code of its kept rows but the
    reference 0, in ascending order.  Rows missing any used column are
    dropped and counted.  A CAT confounder left with one category, or
    without category 0, raises IngestError naming it.
    """
    used = [study.dependent, study.independent, *confounders]

    keep = np.ones(table.values.shape[0], dtype=bool)
    for name in used:
        keep &= ~table.column_missing(name)
    n_used = int(keep.sum())
    n_dropped = int((~keep).sum())
    if n_used == 0:
        raise IngestError("no rows remain after dropping missing values")

    y = table.column(study.dependent)[keep].astype(np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise IngestError("dependent column is not binary after recoding",
                          column=study.dependent)
    for name in (study.dependent, study.independent):
        if table.kinds.get(name) == CAT:
            raise IngestError("dependent and independent columns must be ORD",
                              column=name)

    # every column after the intercept: its name, the column it reads and,
    # for an indicator, the code it marks
    columns = [(study.independent, study.independent, None)]
    for name in confounders:
        if table.kinds.get(name) != CAT:
            columns.append((name, name, None))
            continue
        codes = _sorted_distinct(table.column(name)[keep])
        if codes.size < 2:
            raise IngestError("needs at least 2 distinct categories", column=name)
        if 0 not in codes:
            raise IngestError("reference category 0 not present", column=name)
        columns.extend((f"{name}={code}", name, code)
                       for code in codes[codes != 0].tolist())
    values = np.empty((n_used, 1 + len(columns)))
    values[:, 0] = 1.0
    for j, (_, source, code) in enumerate(columns, start=1):
        col = table.column(source)[keep]
        values[:, j] = col if code is None else col == code
    design = DesignMatrix(values, ("intercept", *(name for name, _, _ in columns)))
    return y, design, BuildInfo(n_used=n_used, n_dropped=n_dropped)


@dataclass(frozen=True)
class StageResult:
    """Outcome of one cumulative-stage fit; `error` set if the stage failed."""

    stage: str
    n_confounders: int
    n_used: int
    n_dropped: int
    beta1: float
    sigma1: float
    relative_risk: float
    ci_low: float
    ci_high: float
    baseline_prevalence: float
    error: str | None = None


def staged_analysis(table: SurveyTable, study: StudySpec) -> list[StageResult]:
    """Fit every cumulative stage and report per-unit-change relative risks.

    The fitted per-unit coefficient is rescaled by `study.unit_change` (for
    example 52.18 turns a days-per-year coefficient into the effect of one
    additional day per week) and converted to a relative risk at the
    dependent column's observed prevalence.  Failures in one stage do not
    stop later stages; a stage that fails after its design was built keeps
    its row counts.
    """
    results: list[StageResult] = []
    confounders: tuple[str, ...] = ()
    for stage_name, cols in study.stages:
        confounders += cols
        info = BuildInfo(n_used=0, n_dropped=0)
        # beta1, sigma1, relative_risk, ci_low, ci_high, baseline_prevalence
        statistics, error = (math.nan,) * 6, None
        try:
            y, design, info = build_design(table, study, confounders)
            fit = fit_logistic(y, design)
            if fit.separation_detected:
                raise IngestError(f"separation detected in stage {stage_name}")
            if not fit.converged:
                raise IngestError(f"fit did not converge in stage {stage_name}")
            prevalence = float(y.mean())
            beta = float(fit.coefficients[1]) * study.unit_change
            sigma = float(fit.std_errors[1]) * study.unit_change
            low, high = confidence_interval(beta, sigma)
            statistics = (beta, sigma, *[relative_risk(x, prevalence)
                                         for x in (beta, low, high)], prevalence)
        except (ValueError, OverflowError) as exc:
            error = str(exc)
        results.append(StageResult(
            stage_name, len(confounders), info.n_used, info.n_dropped,
            *statistics, error=error))
    return results
