"""Golden bytes: every command's output for fixed inputs, compared byte for byte.

Each case runs the CLI from tests/data/golden with relative input paths, so
the config line embedded in the output does not depend on where the
repository lives, and compares the output with the committed file of the
same name.  The files pin the bytes of version 0.3.0: only a change that
moves output bytes on purpose (the 0.4.0 bump) regenerates them, and it
names each regenerated file in CHANGES.md.  To regenerate, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from confoundsim.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

FIT = ["fit", "matrix.csv", "--dependent", "y", "--regressors", "x1,x2,x3"]
INGEST = ["ingest", "--data", "survey.tsv", "--mappings", "mappings.txt",
          "--study", "study.json"]

# expected file -> argv without --out; a fit case's printed table is
# compared too, with the file of the same stem and suffix .txt
CASES = {
    "scan_table.csv": ["scan", "--seed", "7", "--reps", "20"],
    "scan_rows.csv": ["scan", "--seed", "7", "--n-list", "12", "--r-list", "0.05,0.1",
                      "--N", "3000", "--reps", "3"],
    "scan_n30.json": ["scan", "--seed", "3", "--N", "30", "--n-list", "1,2,4",
                      "--reps", "50", "--format", "json"],
    "scan_causal.csv": ["scan", "--seed", "5", "--beta-prime", "0.3", "--r-list",
                        "0.05,0.15", "--n-list", "1,4", "--reps", "20"],
    "simulate.csv": ["simulate", "--p", "0.7", "--k", "3", "--n", "400", "--seed", "3",
                     "--beta-prime", "0.4"],
    "fit_intercept.json": FIT,
    "fit_no_intercept.json": FIT + ["--no-intercept"],
    "ingest.csv": INGEST,
    "ingest.json": INGEST + ["--format", "json"],
}


def _run(argv: list[str], out: Path) -> str:
    # the command's exit code must be 0; returns what it printed
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(argv + ["--out", str(out)]) == 0
    return printed.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_file(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    printed = _run(CASES[name], tmp_path / name)
    assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()
    if name.startswith("fit"):
        assert printed == (GOLDEN_DIR / name).with_suffix(".txt").read_text()


if __name__ == "__main__":
    os.chdir(GOLDEN_DIR)
    for name, argv in CASES.items():
        printed = _run(argv, Path(name))
        if name.startswith("fit"):
            Path(name).with_suffix(".txt").write_text(printed)
        print(f"wrote {name}", file=sys.stderr)
