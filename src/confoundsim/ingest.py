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
import json
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .glm import (DesignMatrix, _sorted_distinct, confidence_interval,
                  fit_logistic, one_hot, relative_risk)

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

    def overlaps(self, other: "MappingRule") -> bool:
        return self.low <= other.high and other.low <= self.high

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

    def overlapping_pairs(self) -> list[tuple[MappingRule, MappingRule]]:
        out = []
        for i, a in enumerate(self.rules):
            for b in self.rules[i + 1:]:
                if a.overlaps(b):
                    out.append((a, b))
        return out

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
        spec = ColumnSpec(name=name, kind=kind, rules=rules)
        for a, b in spec.overlapping_pairs():
            warnings.append(
                f"{name} (line {lineno}): rules {a.text()} and {b.text()} overlap; "
                "first match wins")
        specs.append(spec)
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

    def stage_names(self) -> list[str]:
        return [name for name, _ in self.stages]

    def cumulative_confounders(self, stage: str) -> tuple[str, ...]:
        if stage not in self.stage_names():
            raise ValueError(f"unknown stage {stage!r}; defined: {self.stage_names()}")
        out: list[str] = []
        for name, cols in self.stages:
            out.extend(cols)
            if name == stage:
                break
        return tuple(out)


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
# bytes searched for line breaks at a time
_SCAN_BYTES = 1 << 20
# bytes checked as UTF-8 at a time; a span decodes to up to four times its
# bytes, held only while it is checked
_CHECK_BYTES = 1 << 16
# a block of plain-digit cells no wider than this is parsed in int64
# arithmetic: 18 digits are below 2**63, so no value can overflow
_DIGIT_BYTES = 18


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
        # one span of _SCAN_BYTES start offsets at a time, so no mask is as
        # long as the file; a break starting in a span is matched whole
        for lo in range(0, len(buf), _SCAN_BYTES):
            at = _find(buf[lo:lo + _SCAN_BYTES + len(brk) - 1], brk) + lo
            ends.append(at)
            gaps.append(np.full(len(at), len(brk)))
    ends, gaps = np.concatenate(ends), np.concatenate(gaps)
    order = np.argsort(ends)
    starts = np.concatenate(([0], (ends + gaps)[order[:-1]]))
    return starts, ends[order]


def _check_utf8(data: bytes) -> None:
    """Raise data.decode()'s UnicodeDecodeError, if any, one span at a time."""
    view = memoryview(data)
    lo = 0
    while lo < len(data):
        # a character starting in a span is decoded whole; a partial one at
        # the span's end is left for the next span
        hi = lo + _CHECK_BYTES + 3
        try:
            _, used = codecs.utf_8_decode(view[lo:hi], "strict", hi >= len(data))
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError("utf-8", data, lo + exc.start, lo + exc.end,
                                     exc.reason) from None
        lo += used


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
            where = dict(row=first_row + k // len(names), column=names[k % len(names)])
            try:
                value = int(cell) if cell else 0
            except ValueError:
                raise IngestError(f"non-integer cell {cell!r}", **where) from None
            if not -(2**63) <= value < 2**63:
                raise IngestError(f"cell {cell!r} is outside the 64-bit integer range",
                                  **where)
    blank = np.array(cells, dtype=object) == ""
    return values.reshape(starts.shape), blank.reshape(starts.shape)


def load_survey(data: bytes, delimiter: str = "\t",
                columns: Iterable[str] | None = None) -> SurveyTable:
    """Parse a delimited survey file: UTF-8 bytes, header row, integer cells.

    Lines end at any line break `str.splitlines` knows, CRLF included, and
    a delimiter of any length splits a line left to right without overlap.
    A line is skipped only when it is whitespace holding no delimiter; any
    other line is a row, and its blank cells are missing.  Only `columns`
    (every column when None) are parsed and checked, so a bad cell in a
    column that is not loaded is not an error, but the width of every row
    is checked before a bad cell is reported.  Bytes that are not UTF-8,
    and a NUL byte anywhere, are errors.

    The body is read in blocks of lines, each once: numpy finds a block's
    delimiters, which give every line's width, and copies out only the
    loaded cells, so the cost follows the file's bytes plus the cells
    loaded, not the cells the file has.  A block whose loaded cells are
    all plain digits, none longer than 18, is parsed in integer arithmetic;
    any other block (signs, `_`, whitespace, longer or bad cells) is read
    cell by cell: `str.strip`, then Python's `int` in the int64 range, which
    names the first bad cell row by row.  Both give the same table.
    """
    is_ascii = data.isascii()
    if not is_ascii:
        _check_utf8(data)
    if not delimiter:
        raise IngestError("the delimiter must be non-empty")
    # a NUL byte is an error even in a column that is not loaded
    if b"\0" in data:
        raise IngestError("survey file contains a NUL character")
    buf = np.frombuffer(data, dtype=np.uint8)
    line_starts, line_ends = _line_bounds(data, buf, is_ascii)
    for first, (a, b) in enumerate(zip(line_starts.tolist(), line_ends.tolist())):
        line = data[a:b].decode()
        if line.strip() or delimiter in line:
            break
    else:
        raise IngestError("empty survey file")
    header = tuple(h.strip() for h in line.split(delimiter))
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
    names = tuple(header[j] for j in index)

    n_cols = len(header)
    # the delimiters each loaded cell starts after and ends before; the
    # first and last columns have a line edge in place of one
    first_loaded = int(len(index) > 0 and index[0] == 0)
    last_loaded = int(len(index) > 0 and index[-1] == n_cols - 1)
    after = index[first_loaded:] - 1
    before = index[:len(index) - last_loaded]
    pattern = delimiter.encode()
    # a delimiter holding a line break is in no line
    splits = delimiter.splitlines() == [delimiter]
    line_starts, line_ends = line_starts[first + 1:], line_ends[first + 1:]
    values = np.zeros((len(line_starts), len(names)), dtype=np.int64)
    missing = np.zeros((len(line_starts), len(names)), dtype=bool)
    n_rows = 0
    bad = None
    for block in range(0, len(line_starts), _BLOCK_LINES):
        # offsets from here on are into this block's bytes
        base = line_starts[block]
        starts = line_starts[block:block + _BLOCK_LINES] - base
        ends = line_ends[block:block + _BLOCK_LINES] - base
        chunk = buf[base:base + ends[-1]]
        at = _find(chunk, pattern) if splits else np.empty(0, dtype=np.intp)
        # no delimiter sits in a line break, so each line's are the ones
        # before its end and after the previous line's end
        counts = np.diff(np.searchsorted(at, ends), prepend=0)
        kept = counts > 0
        for i in np.flatnonzero(~kept & (ends > starts)).tolist():
            kept[i] = bool(chunk[starts[i]:ends[i]].tobytes().decode().strip())
        ragged = np.flatnonzero(kept & (counts != n_cols - 1))
        if len(ragged):
            i = ragged[0]
            raise IngestError(f"expected {n_cols} cells, found {counts[i] + 1}",
                              row=n_rows + int(np.count_nonzero(kept[:i])) + 1)
        starts, ends = starts[kept], ends[kept]
        rows = slice(n_rows, n_rows + len(starts))
        n_rows = rows.stop
        if bad is not None:
            continue
        # a row's cell j runs from its delimiter j - 1 to its delimiter j;
        # the first cell starts with the line and the last ends with it
        inner = at.reshape(len(starts), n_cols - 1)
        cell_starts = np.empty((len(starts), len(index)), dtype=np.intp)
        cell_ends = np.empty_like(cell_starts)
        cell_starts[:, first_loaded:] = inner[:, after] + len(pattern)
        cell_ends[:, :len(index) - last_loaded] = inner[:, before]
        if first_loaded:
            cell_starts[:, 0] = starts
        if last_loaded:
            cell_ends[:, -1] = ends
        try:
            values[rows], missing[rows] = _integers(
                data, cell_starts + base, cell_ends + base, names, rows.start + 1)
        except IngestError as exc:
            # reported once every row's width has been checked
            bad = exc
    if bad is not None:
        raise bad
    return SurveyTable(names=names, values=values[:n_rows],
                       missing=missing[:n_rows], header=header)


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
                 stage: str) -> tuple[np.ndarray, DesignMatrix, BuildInfo]:
    """Assemble (y, X) for one cumulative stage.

    X is intercept + independent + every confounder up to and including
    `stage`; CAT confounders expand to indicator columns against category 0.
    Rows missing any used column are dropped and counted.  A CAT confounder
    left with one category, or without category 0, raises IngestError naming
    it.
    """
    confounders = study.cumulative_confounders(stage)
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

    columns = [table.column(study.independent)[keep].astype(np.float64)]
    names = [study.independent]
    for name in confounders:
        col = table.column(name)[keep]
        if table.kinds.get(name) == CAT:
            try:
                encoded, kept_codes = one_hot(col, reference=0)
            except ValueError as exc:
                raise IngestError(str(exc), column=name) from None
            for code, vec in zip(kept_codes, encoded.T):
                columns.append(vec)
                names.append(f"{name}={code}")
        else:
            columns.append(col.astype(np.float64))
            names.append(name)
    design = DesignMatrix.build(columns, intercept=True, names=names)
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
    nan = math.nan
    for stage_name, _ in study.stages:
        confounders = study.cumulative_confounders(stage_name)
        info = BuildInfo(n_used=0, n_dropped=0)
        try:
            y, design, info = build_design(table, study, stage_name)
            fit = fit_logistic(y, design)
            if fit.separation_detected:
                raise IngestError(f"separation detected in stage {stage_name}")
            if not fit.converged:
                raise IngestError(f"fit did not converge in stage {stage_name}")
            prevalence = float(y.mean())
            beta = float(fit.coefficients[1]) * study.unit_change
            sigma = float(fit.std_errors[1]) * study.unit_change
            low, high = confidence_interval(beta, sigma)
            results.append(StageResult(
                stage=stage_name,
                n_confounders=len(confounders),
                n_used=info.n_used,
                n_dropped=info.n_dropped,
                beta1=beta,
                sigma1=sigma,
                relative_risk=relative_risk(beta, prevalence),
                ci_low=relative_risk(low, prevalence),
                ci_high=relative_risk(high, prevalence),
                baseline_prevalence=prevalence,
            ))
        except (ValueError, OverflowError) as exc:
            results.append(StageResult(
                stage=stage_name, n_confounders=len(confounders), n_used=info.n_used,
                n_dropped=info.n_dropped, beta1=nan, sigma1=nan, relative_risk=nan,
                ci_low=nan, ci_high=nan, baseline_prevalence=nan,
                error=str(exc)))
    return results
