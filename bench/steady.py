"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 bench/steady.py

Run from the repository root.  Each set runs `bench/run.py` ten times on
every workload of BENCHMARK.json, for its run_seconds, each run with its own
seed (set s uses seeds 1000 s + 1, ..., 1000 s + 10), one set after the
other.  For every end-to-end metric it prints, per set, the median, the
quartiles (`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median,
then whether the sets agree within the bounds in BENCHMARK.json: every
spread within its bound, the second set's median no worse than the first
set's by more than the bound, and the same share of failed operations in
both sets.  Exits 0 when they agree.  The runs are kept in
bench/results/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which `later` is worse than `first` (negative when better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {}
    for s in range(1, SETS + 1):
        for i in range(1, RUNS + 1):
            for w in names:
                seed = 1000 * s + i
                result = one_run(w, seed, seconds)
                runs.setdefault(w, {}).setdefault(s, []).append(result)
                print(f"set {s} run {i} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(runs, indent=1))

    agree = True
    print(f"\n{SETS} sets x {RUNS} runs x {seconds} s per workload\n")
    print("| workload | metric | set | median | q1 | q3 | spread | bound | later set worse by |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in names:
        sets = runs[w]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, results in sets.items():
                median, q1, q3, rel = summary([r["metrics"][name]["value"] for r in results])
                first = median if first is None else first
                shift = worse_by(first, median, metric["better"]) if s > 1 else 0.0
                flags = []
                if rel > bound:
                    flags.append("SPREAD")
                if shift > bound:
                    flags.append("SHIFT")
                agree &= not flags
                print(f"| {w} | {name} | {s} | {median:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{rel:.2%} | {bound:.0%} | {shift:+.2%} {' '.join(flags)} |")
        shares = {(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets.values()}
        failed_shares = {f / a for f, a in shares}
        correct = all(r["correct"] for rs in sets.values() for r in rs)
        agree &= len(failed_shares) == 1 and correct
        print(f"| {w} | failed share | all | {sorted(failed_shares)} | | | | | "
              f"{'same' if len(failed_shares) == 1 else 'DIFFERS'}; "
              f"{'all correct' if correct else 'INCORRECT RUNS'} |")
    print(f"\nsets agree within the bounds: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
