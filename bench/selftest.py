"""Self-test of the benchmark's checks: right outputs pass, wrong ones fail.

    python3 bench/selftest.py

Run from the repository root.  Each workload is run once in this process at
its benchmark size; its true output must pass the check, and deliberately
wrong copies of it must not.  Also checks that BENCHMARK.json names exactly
the metrics the benchmark prints, and that the tracer reports a name it
cannot find instead of stopping.  Exits 0 when every case holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def edit_rows(text: str, edit) -> str:
    """Apply `edit` to the parsed CSV rows of an output, keeping its comments."""
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return "\n".join(comments) + "\n" + buf.getvalue()


def move_scan_mean(rows):
    # 20 MC errors off, with relative_risk and its interval moved to match
    row = rows[7]
    shift = 20.0 * float(row["mc_error_beta1"])
    mean = float(row["mean_beta1"]) + shift
    row["mean_beta1"] = repr(mean)
    row["relative_risk"] = repr(math.exp(mean) - 1.0)
    for key in ("ci_low", "ci_high"):
        row[key] = repr(math.exp(math.log1p(float(row[key])) + shift) - 1.0)


def wrong_law(rows):
    row = rows[3]
    row["predicted_beta1"] = repr(float(row["predicted_beta1"]) * 1.01)


def stage_off_by_one(rows):
    rows[1]["N"] = str(int(rows[1]["N"]) + 1)


def move_stage_beta(rows):
    # 10 standard errors off, relative risk and interval moved to match
    row = rows[1]
    shift = 10.0 * float(row["mean_sigma1"])
    p = float(row["baseline_prevalence"])
    for key in ("relative_risk", "ci_low", "ci_high"):
        b = math.log((1.0 + float(row[key])) * (1.0 - p) / (1.0 - (1.0 + float(row[key])) * p))
        eb = math.exp(b + shift)
        row[key] = repr(eb / (1.0 + (eb - 1.0) * p) - 1.0)
    row["mean_beta1"] = repr(float(row["mean_beta1"]) + shift)


def drop_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    del lines[1000]
    return "".join(lines)


def flip_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[1000].strip().split(",")
    flipped = [str(-int(cells[0]))] + [str(1 - int(c)) for c in cells[1:]]
    lines[1000] = ",".join(flipped) + "\n"
    return "".join(lines)


def other_seed(text: str) -> str:
    head, _, rest = text.partition("\n")
    config, _, body = rest.partition("\n")
    blob = json.loads(config[len("# config: "):])
    blob["seed"] += 1
    return "\n".join([head, "# config: " + json.dumps(blob, sort_keys=True), body])


WRONG = {
    "scan-grid": [("a cell mean 20 MC errors off", lambda t: edit_rows(t, move_scan_mean)),
                  ("predicted_beta1 1% off", lambda t: edit_rows(t, wrong_law))],
    "ingest-nsduh": [("a stage N off by one", lambda t: edit_rows(t, stage_off_by_one)),
                     ("the planted stage 10 SE off", lambda t: edit_rows(t, move_stage_beta))],
    "simulate-large": [("a dropped row", drop_row), ("a flipped row", flip_row),
                       ("a config line naming another seed", other_seed)],
}


def main() -> int:
    import confoundsim.cli

    bad = []
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        bad.append("BENCHMARK.json end_to_end differs from the metrics run.py prints")
    if [m["name"] for m in spec["per_layer"]] != list(tracer.PER_LAYER):
        bad.append("BENCHMARK.json per_layer differs from the metrics tracer.py reports")

    probe = tracer.Tracer()
    probe.install([tracer.Layer("gone", (("confoundsim.glm", "no_such_function"),))])
    if probe.missing != ["gone (confoundsim.glm.no_such_function)"]:
        bad.append(f"tracer did not report a missing name: {probe.missing}")

    workdir = HERE / ".work" / f"selftest-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            prepared = workloads.prepare(name, SEED, workdir, threads=2)
            if confoundsim.cli.main(prepared.argv) != 0:
                bad.append(f"{name}: the CLI call failed")
                continue
            text = prepared.out_path.read_text(encoding="utf-8")
            problems, failed = workloads.check(prepared, text)
            print(f"{name}: true output -> {problems or 'passes'}, {failed} failed")
            if problems or failed:
                bad.append(f"{name}: the true output does not pass")
            for what, make in WRONG[name]:
                problems, _ = workloads.check(prepared, make(text))
                print(f"{name}: {what} -> {problems[:1] or 'PASSES'}")
                if not problems:
                    bad.append(f"{name}: {what} was not caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bad:
        print(f"FAIL: {problem}")
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
