"""Command-line front end.

Four subcommands: `simulate` writes one synthetic population, `scan` sweeps
a correlation-by-confounders grid, `fit` runs a single logistic regression
on a matrix file, and `ingest` runs the staged survey analysis.  Every
output embeds the tool version and the resolved configuration (including
the master seed), so any file can be regenerated bit-exactly from its own
header.  Execution details such as --out are not part of the embedded
config.  `scan --threads` is still accepted and checked, but every scan runs
serially and its output does not depend on it; the flag stays because the
benchmark's scan workload passes it.

Exit codes: 0 success (including partial results carrying per-row flags),
1 I/O failure, 2 usage or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import asdict
from typing import BinaryIO, TextIO

import numpy as np

from . import __version__
from .ensemble import GridCell, GridSpec, scan_grid
from .glm import (DesignMatrix, SingularDesignError, _integer,
                  confidence_interval, fit_logistic, relative_risk)
from .ingest import (apply_mappings, load_survey, parse_mapping_file,
                     parse_study_json, staged_analysis)
from .metamodel import ModelParams, _population_blocks, write_population_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _header(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return f"# confoundsim {__version__}\n# config: {blob}\n"


def _json_null(value):
    # non-finite floats become null, at any depth of dicts and lists
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_null(v) for v in value]
    return value


def _json_document(config: dict, key: str, body) -> str:
    payload = {"metadata": {"version": __version__, "config": config}, key: body}
    return json.dumps(_json_null(payload), indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def format_rows(rows: list[dict], config: dict, fmt: str) -> str:
    """Render result rows as JSON, or as CSV under the '#' config header.

    Every row has the same keys in the same order; they are the CSV columns
    and the JSON fields.  Floats are written as repr, NaN blank in CSV, and
    non-finite floats are null in JSON.
    """
    if fmt == "json":
        return _json_document(config, "results", rows)
    buf = io.StringIO()
    buf.write(_header(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows([_csv_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    # stdout for None or "-", else the file at path, opened for writing
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_output(path: str | None, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _input(path: str) -> Iterator[BinaryIO]:
    # the file at path, opened for reading bytes; unreadable inputs, whether
    # the open or a later read fails, are usage errors (exit 2): only output
    # I/O is exit 1
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    # UTF-8 with "\r\n" and "\r" read as "\n", as text mode reads a file
    with _input(path) as fh:
        text = fh.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_list(text: str, kind: type, noun: str) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"expected a comma-separated list of {noun}, got {text!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = ModelParams(p=args.p, k=args.k, n_respondents=args.n,
                         seed=args.seed, causal_increment=args.beta_prime)
    config = {"command": "simulate", "p": args.p, "k": args.k, "n": args.n,
              "beta_prime": args.beta_prime, "seed": args.seed}
    # the file is opened only after the parameters are checked, so invalid
    # ones create none; each block of rows is written as it is drawn, and
    # neither the table nor the CSV is ever held whole
    with _output(args.out) as fh:
        fh.write(_header(config))
        write_population_csv(_population_blocks(params), fh)
    return EXIT_OK


def _scan_row(cell: GridCell) -> dict:
    # the GridCell fields in declaration order, n_respondents written as N
    return {("N" if name == "n_respondents" else name): value
            for name, value in asdict(cell).items()}


def cmd_scan(args: argparse.Namespace) -> int:
    _integer("threads", args.threads, 1)
    spec = GridSpec(
        correlations=_parse_list(args.r_list, float, "numbers"),
        confounder_counts=_parse_list(args.n_list, int, "integers"),
        n_respondents=args.N,
        replications=args.reps,
        seed=args.seed,
        causal_increment=args.beta_prime,
        ci_n_respondents=args.ci_N,
        rr_baseline=args.rr_baseline,
    )
    cells = scan_grid(spec)
    if all(cell.error is not None for cell in cells):
        for cell in cells:
            print(f"error: cell r={cell.r!r} n={cell.n_confounders}: {cell.error}",
                  file=sys.stderr)
        print("error: every grid cell failed", file=sys.stderr)
        return EXIT_NUMERICAL

    config = {"command": "scan", "r_list": list(spec.correlations),
              "n_list": list(spec.confounder_counts), "N": spec.n_respondents,
              "reps": spec.replications, "beta_prime": spec.causal_increment,
              "ci_N": spec.ci_n_respondents, "rr_baseline": spec.rr_baseline,
              "seed": spec.seed, "format": args.format}
    rows = [_scan_row(cell) for cell in cells]
    _write_output(args.out, format_rows(rows, config, args.format))
    return EXIT_OK


def _read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    text = _read_text(path)
    rows = [row for row in csv.reader(
        line for line in text.splitlines() if not line.startswith("#")) if row]
    if not rows:
        raise ValueError(f"{path} contains no data")
    header = [h.strip() for h in rows[0]]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"{path} has duplicate column name {name!r} in its header")
    if len(rows) == 1:
        raise ValueError(f"{path} has a header but no data rows")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: expected {len(header)} cells, "
                             f"found {len(row)} (row {i})")
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError:
        raise ValueError(f"{path} contains non-numeric cells")
    return header, data


def cmd_fit(args: argparse.Namespace) -> int:
    header, data = _read_matrix_csv(args.input)
    if args.dependent not in header:
        raise ValueError(f"dependent column {args.dependent!r} not in {header}")
    y = data[:, header.index(args.dependent)]
    regressors = [t.strip() for t in (args.regressors or "").split(",") if t.strip()]
    for i, name in enumerate(regressors):
        if name not in header:
            raise ValueError(f"regressor {name!r} not in {header}")
        if name == args.dependent:
            raise ValueError(f"regressor {name!r} is the dependent column")
        if name in regressors[:i]:
            raise ValueError(f"regressor {name!r} is given twice")
    intercept = not args.no_intercept
    columns = [np.ones(len(data))] * intercept
    columns += [data[:, header.index(name)] for name in regressors]
    if not columns:
        raise ValueError("need at least one regressor or an intercept")
    design = DesignMatrix(np.column_stack(columns),
                          ("intercept",) * intercept + tuple(regressors))
    fit = fit_logistic(y, design, tol=args.tol, max_iter=args.max_iter)

    prevalence = float(np.mean(y))
    terms = []
    for i, name in enumerate(design.names):
        b = float(fit.coefficients[i])
        s = float(fit.std_errors[i])
        term = {"term": name, "coefficient": b, "std_error": s}
        if fit.converged:
            term["ci_low"], term["ci_high"] = confidence_interval(b, s)
        if not (intercept and i == 0) and prevalence < 1.0:
            try:
                term["relative_risk"] = relative_risk(b, prevalence)
            except OverflowError:
                print(f"warning: term {name}: relative risk overflows at "
                      f"coefficient {b!r}; left out", file=sys.stderr)
        terms.append(term)

    report = {
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": fit.log_likelihood,
        "separation_detected": fit.separation_detected,
        "baseline_prevalence": prevalence,
        "n_rows": int(data.shape[0]),
        "terms": terms,
    }
    config = {"command": "fit", "input": args.input, "dependent": args.dependent,
              "regressors": regressors, "intercept": intercept,
              "tol": args.tol, "max_iter": args.max_iter}

    lines = [f"{'term':<16}{'coef':>12}{'std_err':>12}{'ci_low':>12}"
             f"{'ci_high':>12}{'rel_risk':>12}"]
    for t in terms:
        lines.append("{:<16}{:>12.6g}{:>12.6g}{:>12}{:>12}{:>12}".format(
            t["term"], t["coefficient"], t["std_error"],
            f"{t['ci_low']:.6g}" if "ci_low" in t else "",
            f"{t['ci_high']:.6g}" if "ci_high" in t else "",
            f"{t['relative_risk']:.6g}" if "relative_risk" in t else ""))
    lines.append(f"converged={fit.converged} iterations={fit.iterations} "
                 f"log_likelihood={fit.log_likelihood:.6f} "
                 f"separation_detected={fit.separation_detected}")
    print("\n".join(lines))

    if args.out:
        _write_output(args.out, _json_document(config, "fit", report))
    return EXIT_OK


def _stage_row(result) -> dict:
    return {
        "stage": result.stage,
        "r": None,
        "n_confounders": result.n_confounders,
        "N": result.n_used,
        "replications": 1,
        "mean_beta1": result.beta1,
        "mean_sigma1": result.sigma1,
        "relative_risk": result.relative_risk,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "excluded": 0 if result.error is None else 1,
        "baseline_prevalence": result.baseline_prevalence,
        "error": result.error,
    }


def cmd_ingest(args: argparse.Namespace) -> int:
    specs, warnings = parse_mapping_file(_read_text(args.mappings))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    study = parse_study_json(_read_text(args.study))
    # the survey is read in pieces, never held whole
    with _input(args.data) as fh:
        table = load_survey(fh, delimiter=args.delimiter, columns=study.columns())

    # the loaded table is dropped for the mapped one before the fits
    table = apply_mappings(table, specs)
    results = staged_analysis(table, study)
    if all(r.error is not None for r in results):
        for r in results:
            print(f"error: stage {r.stage}: {r.error}", file=sys.stderr)
        return EXIT_NUMERICAL

    config = {"command": "ingest", "data": args.data, "mappings": args.mappings,
              "study": args.study, "delimiter": args.delimiter,
              "unit_change": study.unit_change, "format": args.format}
    rows = [_stage_row(r) for r in results]
    _write_output(args.out, format_rows(rows, config, args.format))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confoundsim",
        description="Latent-confounder simulations and staged survey analysis")
    parser.add_argument("--version", action="version",
                        version=f"confoundsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write one synthetic population as CSV")
    sim.add_argument("--p", type=float, required=True,
                     help="latent agreement probability, in (0.5, 1)")
    sim.add_argument("--k", type=int, required=True,
                     help="regressor count: predictor plus k-1 confounders")
    sim.add_argument("--n", type=int, required=True, help="population size N")
    sim.add_argument("--beta-prime", type=float, default=0.0,
                     help="causal logit increment for the dependent column")
    sim.add_argument("--seed", type=int, required=True, help="master seed")
    sim.add_argument("--out", default="-", help="output path, '-' for stdout")
    sim.set_defaults(func=cmd_simulate)

    scan = sub.add_parser("scan", help="sweep a correlation-by-confounders grid")
    scan.add_argument("--r-list", default="0.01,0.02,0.05,0.1,0.15",
                      help="comma-separated pairwise correlations")
    scan.add_argument("--n-list", default="1,2,4,8",
                      help="comma-separated confounder counts")
    scan.add_argument("--N", type=int, default=10000, help="population size per run")
    scan.add_argument("--reps", type=int, default=500,
                      help="replications per grid cell")
    scan.add_argument("--beta-prime", type=float, default=0.0,
                      help="causal logit increment (0 = purely spurious)")
    scan.add_argument("--ci-N", type=int, default=None,
                      help="population size the error bars are scaled to")
    scan.add_argument("--rr-baseline", type=float, default=0.0,
                      help="baseline prevalence for relative-risk conversion")
    scan.add_argument("--seed", type=int, required=True, help="master seed")
    scan.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility, must be >= 1; it changes "
                           "neither the output nor how the scan runs (serially)")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", default="-", help="output path, '-' for stdout")
    scan.set_defaults(func=cmd_scan)

    fit = sub.add_parser("fit", help="logistic regression on a matrix CSV")
    fit.add_argument("input", help="CSV file with a header row; '#' lines ignored")
    fit.add_argument("--dependent", required=True, help="dependent column name")
    fit.add_argument("--regressors", default="",
                     help="comma-separated regressor columns (empty: intercept only)")
    fit.add_argument("--no-intercept", action="store_true",
                     help="do not prepend an intercept column")
    fit.add_argument("--tol", type=float, default=1e-8)
    fit.add_argument("--max-iter", type=int, default=100)
    fit.add_argument("--out", default=None, help="also write a JSON report here")
    fit.set_defaults(func=cmd_fit)

    ing = sub.add_parser("ingest", help="staged confounder analysis of a survey file")
    ing.add_argument("--data", required=True, help="delimited survey file")
    ing.add_argument("--mappings", required=True, help="column recoding spec file")
    ing.add_argument("--study", required=True, help="study spec (JSON)")
    ing.add_argument("--delimiter", default="\t", help="field delimiter (default tab)")
    ing.add_argument("--format", choices=("csv", "json"), default="csv")
    ing.add_argument("--out", default="-", help="output path, '-' for stdout")
    ing.set_defaults(func=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
