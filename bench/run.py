"""Benchmark of the confoundsim command line, one workload per run.

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  The run
makes the workload's inputs from --seed (not timed), then calls
`confoundsim.cli.main` once per fresh process, one call after the other (a
closed loop with one caller), until --seconds have passed.  Every call gets
the same inputs: the first output is checked, the others must be
byte-identical to it.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, medians over the calls; with --trace 1 every other call is
traced and the metrics are the per-layer ones (see tracer.py), with the
tracing overhead.  BLAS runs one thread per process; the scan's pool has
one thread per core, so compute threads never exceed the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
CALL_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A call could not be run or measured."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    # an installed package has its bytecode cached; so does every timed call
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def call(prepared: workloads.Prepared, env: dict, spans: Path | None) -> dict:
    """One fresh process running one CLI call; returns its measurements."""
    options = ["--trace", str(spans)] if spans else []
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), repr(spawned), *options,
           "--", *prepared.argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def run(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    threads = len(os.sched_getaffinity(0))
    prepared = workloads.prepare(args.workload, args.seed, workdir, threads)
    env = child_env(root / "src")
    # compile and page in the package once, so no call pays a one-off cost
    subprocess.run([sys.executable, "-c", "import confoundsim.cli"], env=env,
                   check=True, timeout=CALL_TIMEOUT_S)

    if args.trace:
        import tracer
    samples, traced = [], []
    problems: list[str] = []
    reference = None
    failed_per_call = 0
    failed = 0
    spans_path = workdir / "spans.json"
    start = time.monotonic()
    while (not samples or time.monotonic() - start < args.seconds
           or (args.trace and len(samples) < 2)):
        trace_this = bool(args.trace) and len(samples) % 2 == 0
        prepared.out_path.unlink(missing_ok=True)
        sample = call(prepared, env, spans_path if trace_this else None)
        samples.append(sample)
        if sample["exit_code"] != 0:
            problems.append(f"call {len(samples)} exited with {sample['exit_code']}")
            failed += prepared.operations
            continue
        text = prepared.out_path.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if reference is None:
            reference = digest
            found, failed_per_call = workloads.check(prepared, text)
            problems += found
        elif digest != reference:
            problems.append(f"call {len(samples)} wrote other bytes from the same inputs")
        failed += failed_per_call
        if trace_this:
            dump = json.loads(spans_path.read_text())
            sample["missing"] = dump["missing"]
            sample["layers"] = tracer.layer_metrics(dump["spans"], threads, prepared.cells)
            traced.append(sample)
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            shutil.copyfile(spans_path, results / f"spans-{args.workload}-seed{args.seed}.json")

    if args.trace:
        if not traced:
            raise BenchError("no traced call succeeded")
        metrics = tracer.median_metrics([s["layers"] for s in traced])
        metrics["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
        # calls alternate traced, untraced: compare neighbours, which share
        # the machine's state more than calls far apart do
        metrics["trace.overhead_s"] = statistics.median(
            a["wall_s"] - b["wall_s"] for a, b in zip(samples[::2], samples[1::2]))
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
        for name in sorted({m for s in traced for m in s["missing"]}):
            print(f"missing layer: {name} (reads 0)")
        for name, value in metrics.items():
            print(f"{name:<30} {value:>14.6g} {units[name]:<8} median of {len(traced)} traced calls")
    else:
        columns = {
            "wall_s": [s["wall_s"] for s in samples],
            "rows_per_s": [prepared.rows / s["wall_s"] for s in samples],
            "setup_s": [s["setup_s"] for s in samples],
            "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        }
        metrics = {name: statistics.median(values) for name, values in columns.items()}
        units = END_TO_END
        for name, values in columns.items():
            print(f"{name:<30} {metrics[name]:>14.6g} {units[name]:<8} median, {spread(values)}")
    for problem in problems:
        print(f"check failed: {problem}")
    return {"correct": not problems,
            "attempted": len(samples) * prepared.operations,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # turn a stop request into an exception, so the running call is killed,
    # waited for, and the inputs removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "confoundsim" / "cli.py").is_file():
        print("error: no src/confoundsim/cli.py here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, workdir)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
