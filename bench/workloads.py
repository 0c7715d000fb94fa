"""The benchmark's workloads: inputs made from a seed, the CLI call, the checks.

Each workload is one batch call of `confoundsim.cli.main`.  `prepare` makes
the inputs from the benchmark seed and returns the call; `check` reads the
file the call wrote and returns a list of problems (empty when the output is
right) plus the number of operations the program itself reported as failed.
The checks are property checks and computations made apart from the
program: a later change may alter the random stream, so no check compares
against a stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MAPPINGS = HERE / "nsduh_mappings.txt"

# scan-grid: the CLI's default grid; k = n + 1 runs from 2 to 9
SCAN_R = (0.01, 0.02, 0.05, 0.1, 0.15)
SCAN_N = (1, 2, 4, 8)
SCAN_RESPONDENTS = 10_000
SCAN_REPS = 20
# |mean - limit| <= SCAN_Z * mc_error on every cell; with 20 replications the
# ratio follows Student's t with 19 degrees of freedom, so a correct engine
# fails one of the 20 cells with chance 20 * P(|t19| > 7) = 2.2e-5
SCAN_Z = 7.0

# ingest-nsduh: NSDUH-shaped survey, 79 recoded columns plus columns no spec
# names, as in the public-use file
INGEST_ROWS = 8_000
INGEST_UNNAMED_COLUMNS = 320
INGEST_DEPENDENT = "COCEVER"
INGEST_INDEPENDENT = "ALCYRTOT"
INGEST_UNIT_CHANGE = 52.18
INGEST_STAGES = (
    ("demographics", ("IRSEX", "NEWRACE2", "AGE3")),
    ("health", ("BMI2", "HEALTH", "IRWRKSTAT18")),
    ("use", ("CIGEVER", "MJEVER", "IRMARIT")),
)
# the dependent column is drawn from a logistic model on exactly the
# confounders of this cumulative stage, so its fit is correctly specified
INGEST_PLANTED_STAGE = "health"
INGEST_BETA_X = 0.005                   # per day of use in the past year
INGEST_Z = 5.0                          # planted coefficient within 5 SE
INGEST_MISSING = {"COCEVER": 0.005, "ALCYRTOT": 0.01, "BMI2": 0.03,
                  "HEALTH": 0.01, "IRWRKSTAT18": 0.015, "IRMARIT": 0.02}

# simulate-large: one population at k = 9, written to a file
SIM_P = 0.7
SIM_K = 9
SIM_RESPONDENTS = 200_000
SIM_Z = 6.0

WORKLOADS = ("scan-grid", "ingest-nsduh", "simulate-large")
_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Prepared:
    """One workload's call, made from a seed before timing starts."""

    workload: str
    argv: list[str]
    out_path: Path
    rows: int                # respondent rows through the pipeline per call
    operations: int          # operations attempted per call
    cells: int = 0           # cells in the survey file (ingest only)
    expected: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload]])


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


def prepare(workload: str, seed: int, workdir: Path, threads: int) -> Prepared:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "scan-grid":
        return _prepare_scan(seed, workdir, threads)
    if workload == "ingest-nsduh":
        return _prepare_ingest(seed, workdir)
    if workload == "simulate-large":
        return _prepare_simulate(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def check(prepared: Prepared, text: str) -> tuple[list[str], int]:
    """Problems found in one output, and the operations flagged as failed."""
    checker = {"scan-grid": check_scan, "ingest-nsduh": check_ingest,
               "simulate-large": check_simulate}[prepared.workload]
    try:
        return checker(prepared, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0


def _split_output(text: str) -> tuple[dict, list[str]]:
    """The `# config:` object and the non-comment lines of a CLI output."""
    config = None
    body = []
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif not line.startswith("#"):
            body.append(line)
    if config is None:
        raise ValueError("no '# config:' line")
    return config, body


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- scan-grid

def _prepare_scan(seed: int, workdir: Path, threads: int) -> Prepared:
    cli_seed = _cli_seed(_rng("scan-grid", seed))
    out = workdir / "scan.csv"
    argv = ["scan", "--r-list", ",".join(map(str, SCAN_R)),
            "--n-list", ",".join(map(str, SCAN_N)),
            "--N", str(SCAN_RESPONDENTS), "--reps", str(SCAN_REPS),
            "--seed", str(cli_seed), "--threads", str(threads), "--out", str(out)]
    cells = len(SCAN_R) * len(SCAN_N)
    return Prepared("scan-grid", argv, out,
                    rows=SCAN_RESPONDENTS * SCAN_REPS * cells, operations=cells,
                    expected={"seed": cli_seed})


def population_limit(p: float, k: int) -> float:
    """Infinite-N limit of the scan's averaged no-intercept coefficient.

    Newton's method on the logistic score equations of the dependent column
    on k binary regressors, with each of the 2^k regressor patterns weighted
    by its expected probability under a fair latent coin.  Written apart
    from `confoundsim.glm.fit_logistic` so that it can check it.
    """
    x = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    hits = x.sum(axis=1)
    pos = p**hits * (1.0 - p) ** (k - hits)          # P(x | latent = +1)
    neg = (1.0 - p) ** hits * p ** (k - hits)        # P(x | latent = -1)
    weight = 0.5 * (pos + neg)
    weight_y = 0.5 * (p * pos + (1.0 - p) * neg)     # P(y = 1, x)
    beta = np.zeros(k)
    for _ in range(60):
        mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
        score = x.T @ (weight_y - weight * mu)
        info = (x * (weight * mu * (1.0 - mu))[:, None]).T @ x
        step = np.linalg.solve(info, score)
        beta += step
        if np.abs(step).max() < 1e-13:
            return float(beta.mean())
    raise ArithmeticError(f"population limit did not converge at p={p}, k={k}")


def check_scan(prepared: Prepared, text: str) -> tuple[list[str], int]:
    config, body = _split_output(text)
    problems = []
    want = {"command": "scan", "r_list": list(SCAN_R), "n_list": list(SCAN_N),
            "N": SCAN_RESPONDENTS, "reps": SCAN_REPS, "seed": prepared.expected["seed"]}
    for key, value in want.items():
        if config.get(key) != value:
            problems.append(f"config {key} = {config.get(key)!r}, asked {value!r}")
    rows = list(csv.DictReader(body))
    grid = [(r, n) for r in SCAN_R for n in SCAN_N]
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} grid rows, expected {len(grid)}"], 0
    failed = 0
    for row, (r, n) in zip(rows, grid):
        where = f"cell r={r} n={n}"
        if float(row["r"]) != r or int(row["n_confounders"]) != n:
            problems.append(f"{where}: row is r={row['r']} n={row['n_confounders']}")
            continue
        if row["error"]:
            failed += 1
            continue
        if int(row["N"]) != SCAN_RESPONDENTS or int(row["replications"]) != SCAN_REPS:
            problems.append(f"{where}: N={row['N']} replications={row['replications']}")
        p = 0.5 * (1.0 + math.sqrt(r))
        k = n + 1
        mean = float(row["mean_beta1"])
        mc = float(row["mc_error_beta1"])
        limit = population_limit(p, k)
        if not (mc > 0.0 and abs(mean - limit) <= SCAN_Z * mc):
            problems.append(f"{where}: mean_beta1 {mean:.6g} is {abs(mean - limit) / mc:.1f} "
                            f"MC errors from the population limit {limit:.6g}")
        rr = float(row["relative_risk"])
        if not _close(rr, math.exp(mean) - 1.0, 1e-12):
            problems.append(f"{where}: relative_risk {rr!r} != exp(mean_beta1) - 1")
        if not float(row["ci_low"]) < rr < float(row["ci_high"]):
            problems.append(f"{where}: relative_risk outside its interval")
        law = 3.0 * (2.0 * p - 1.0) ** 2 / k
        if not _close(float(row["predicted_beta1"]), law, 1e-9):
            problems.append(f"{where}: predicted_beta1 {row['predicted_beta1']} != 3b^2/k = {law!r}")
    return problems, failed


# ------------------------------------------------------------- ingest-nsduh

def mapping_columns(path: Path = MAPPINGS) -> list[tuple[str, list[tuple[int, int]]]]:
    """(name, source ranges) of each recode line, parsed apart from the program."""
    out = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        ranges = []
        for token in (parts[2].split(",") if len(parts) == 3 else ()):
            source = token.strip().split(":")[0]
            low, _, high = source.partition("-")
            ranges.append((int(low), int(high or low)))
        out.append((parts[0], ranges))
    return out


def _choice(rng, codes, probs, n):
    return rng.choice(np.asarray(codes, dtype=np.int64), size=n, p=np.asarray(probs) / sum(probs))


def _survey(seed: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Raw integer codes and missing masks per column, and the planted outcome."""
    rng = _rng("ingest-nsduh", seed)
    n = INGEST_ROWS
    raw: dict[str, np.ndarray] = {}

    male = rng.random(n) < 0.49
    raw["IRSEX"] = np.where(male, 1, 2)
    race = _choice(rng, range(1, 8), [55, 12, 2, 5, 5, 4, 17], n)
    raw["NEWRACE2"] = race
    age = rng.integers(1, 12, n)
    raw["AGE3"] = age
    bmi = np.clip(np.rint(rng.normal(27.0, 5.0, n)), 15, 50).astype(np.int64)
    raw["BMI2"] = bmi
    health = _choice(rng, [1, 2, 3, 4, 5, 94, 97], [22, 33, 28, 11, 4, 1, 1], n)
    raw["HEALTH"] = health
    work = _choice(rng, [1, 2, 3, 4, 99], [45, 10, 8, 27, 10], n)
    raw["IRWRKSTAT18"] = work
    raw["CIGEVER"] = np.where(rng.random(n) < 0.25 + 0.03 * male, 1, 2)
    raw["MJEVER"] = _choice(rng, [1, 2, 94, 97], [45, 53, 1, 1], n)
    raw["IRMARIT"] = _choice(rng, [1, 2, 3, 4, 99], [45, 8, 10, 30, 7], n)

    # days of alcohol use in the past year; 991/993 never / not in the past
    # year, 994-998 don't know, refused, blank: all recoded to 0
    drinker = rng.random(n) < 0.55 + 0.1 * male + 0.01 * age
    days = np.clip(np.rint(np.exp(rng.normal(2.6 + 0.3 * male + 0.05 * age, 1.0))), 1, 365)
    sentinel = _choice(rng, [991, 993, 994, 997, 998], [50, 40, 4, 4, 2], n)
    raw["ALCYRTOT"] = np.where(drinker, days, sentinel).astype(np.int64)
    x = np.where(drinker, days, 0.0)

    # planted outcome on the recoded values the "health" stage regresses on
    race_group = np.array([0, 0, 1, 2, 2, 3, 4, 5])[race]
    work_group = np.where(work == 99, 0, work)
    health_value = np.where(health > 5, 3, health)
    eta = (-3.2 + INGEST_BETA_X * x + 0.35 * male
           + np.array([0.0, -0.3, 0.2, -0.4, 0.3, 0.1])[race_group]
           + 0.06 * age + 0.015 * (bmi - 27) + 0.12 * health_value
           + np.array([0.0, 0.0, 0.15, 0.3, -0.1])[work_group])
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-eta))
    # COCEVER: 1 yes, 2 no, 94 don't know, 97 refused (both recoded to 0)
    raw["COCEVER"] = np.where(y, 1, _choice(rng, [2, 94, 97], [97, 2, 1], n))

    missing = {name: rng.random(n) < share for name, share in INGEST_MISSING.items()}
    return raw, missing, y


def _generic_codes(rng, ranges, n) -> np.ndarray:
    """Codes 1..5 plus the sentinel codes a recode line names."""
    sentinels = sorted({v for lo, hi in ranges for v in (lo, hi)} - set(range(1, 6)))
    base = rng.integers(1, 6, n)
    if not sentinels:
        return base
    return np.where(rng.random(n) < 0.1, rng.choice(sentinels, n), base)


def _unnamed_codes(rng, n) -> np.ndarray:
    """A public-use column no spec names: yes/no, count or days, with skip codes."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return _choice(rng, [1, 2, 85, 91, 93, 94, 97, 98, 99], [30, 50, 1, 8, 5, 1, 1, 2, 2], n)
    if kind == 1:
        return np.where(rng.random(n) < 0.8, rng.integers(0, 31, n),
                        _choice(rng, [91, 93, 94, 97, 98], [5, 3, 1, 1, 1], n))
    return np.where(rng.random(n) < 0.6, rng.integers(1, 366, n),
                    _choice(rng, [985, 991, 993, 994, 997, 998], [1, 5, 3, 1, 1, 1], n))


def _prepare_ingest(seed: int, workdir: Path) -> Prepared:
    raw, missing, y = _survey(seed)
    rng = np.random.default_rng([seed, _TAGS["ingest-nsduh"], 1])
    n = INGEST_ROWS
    columns: dict[str, np.ndarray] = {}
    for name, ranges in mapping_columns():
        columns[name] = raw[name] if name in raw else _generic_codes(rng, ranges, n)
    for j in range(INGEST_UNNAMED_COLUMNS):
        columns[f"NSQ{j + 1:03d}"] = _unnamed_codes(rng, n)
    names = list(columns)
    rng.shuffle(names)
    blank = np.zeros((n, len(names)), dtype=bool)
    for j, name in enumerate(names):
        blank[:, j] = missing[name] if name in missing else False

    data = workdir / "survey.tsv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        for start in range(0, n, 1000):
            chunk = np.column_stack([columns[name][start:start + 1000] for name in names])
            cells = chunk.astype(str)
            cells[blank[start:start + 1000]] = ""
            fh.write("\n".join("\t".join(row) for row in cells.tolist()) + "\n")
    study = workdir / "study.json"
    study.write_text(json.dumps({
        "dependent": INGEST_DEPENDENT, "independent": INGEST_INDEPENDENT,
        "unit_change": INGEST_UNIT_CHANGE,
        "stages": {name: list(cols) for name, cols in INGEST_STAGES}}))

    # expected per stage: rows kept, and the outcome's prevalence among them
    stages = []
    used = [INGEST_DEPENDENT, INGEST_INDEPENDENT]
    for name, cols in INGEST_STAGES:
        used += cols
        keep = ~np.any([missing[c] for c in used if c in missing], axis=0)
        stages.append({"stage": name, "n_confounders": len(used) - 2,
                       "n_used": int(keep.sum()), "n_dropped": int((~keep).sum()),
                       "prevalence": float(y[keep].mean())})
    out = workdir / "stages.csv"
    argv = ["ingest", "--data", str(data), "--mappings", str(MAPPINGS),
            "--study", str(study), "--out", str(out)]
    return Prepared("ingest-nsduh", argv, out, rows=n, operations=len(INGEST_STAGES),
                    cells=n * len(names), expected={"stages": stages})


def check_ingest(prepared: Prepared, text: str) -> tuple[list[str], int]:
    config, body = _split_output(text)
    problems = []
    if config.get("command") != "ingest" or config.get("unit_change") != INGEST_UNIT_CHANGE:
        problems.append(f"config does not reproduce the call: {config}")
    rows = list(csv.DictReader(body))
    expected = prepared.expected["stages"]
    if [r["stage"] for r in rows] != [s["stage"] for s in expected]:
        return problems + [f"stages {[r['stage'] for r in rows]}, expected "
                           f"{[s['stage'] for s in expected]}"], 0
    failed = 0
    for row, want in zip(rows, expected):
        where = f"stage {want['stage']}"
        if row["error"]:
            failed += 1
            continue
        n_used = int(row["N"])
        if n_used != want["n_used"] or INGEST_ROWS - n_used != want["n_dropped"]:
            problems.append(f"{where}: N={n_used}, dropped {INGEST_ROWS - n_used}; planted "
                            f"missingness gives N={want['n_used']}, dropped {want['n_dropped']}")
        if int(row["n_confounders"]) != want["n_confounders"] or row["excluded"] != "0":
            problems.append(f"{where}: n_confounders={row['n_confounders']} "
                            f"excluded={row['excluded']}")
        prevalence = float(row["baseline_prevalence"])
        if not _close(prevalence, want["prevalence"], 1e-12):
            problems.append(f"{where}: baseline_prevalence {prevalence!r}, planted "
                            f"outcome mean {want['prevalence']!r}")
        beta = float(row["mean_beta1"])
        sigma = float(row["mean_sigma1"])
        eb = math.exp(beta)
        rr = float(row["relative_risk"])
        if not _close(rr, eb / (1.0 + (eb - 1.0) * prevalence) - 1.0, 1e-9):
            problems.append(f"{where}: relative_risk {rr!r} does not convert mean_beta1")
        if not float(row["ci_low"]) < rr < float(row["ci_high"]):
            problems.append(f"{where}: relative_risk outside its interval")
        if want["stage"] == INGEST_PLANTED_STAGE:
            planted = INGEST_BETA_X * INGEST_UNIT_CHANGE
            if not (sigma > 0.0 and abs(beta - planted) <= INGEST_Z * sigma):
                problems.append(f"{where}: mean_beta1 {beta:.6g} is {abs(beta - planted) / sigma:.1f} "
                                f"standard errors from the planted {planted:.6g}")
    return problems, failed


# ----------------------------------------------------------- simulate-large

def _prepare_simulate(seed: int, workdir: Path) -> Prepared:
    cli_seed = _cli_seed(_rng("simulate-large", seed))
    out = workdir / "population.csv"
    argv = ["simulate", "--p", repr(SIM_P), "--k", str(SIM_K),
            "--n", str(SIM_RESPONDENTS), "--seed", str(cli_seed), "--out", str(out)]
    return Prepared("simulate-large", argv, out, rows=SIM_RESPONDENTS,
                    operations=SIM_RESPONDENTS, expected={"seed": cli_seed})


def check_simulate(prepared: Prepared, text: str) -> tuple[list[str], int]:
    config, body = _split_output(text)
    problems = []
    want = {"command": "simulate", "p": SIM_P, "k": SIM_K, "n": SIM_RESPONDENTS,
            "beta_prime": 0.0, "seed": prepared.expected["seed"]}
    if config != want:
        problems.append(f"config {config} does not reproduce the arguments {want}")
    header = "Q," + ",".join(f"R{j}" for j in range(SIM_K + 1))
    if body[0] != header:
        return problems + [f"header {body[0]!r}, expected {header!r}"], 0
    table = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                       dtype=np.int64, ndmin=2)
    n = SIM_RESPONDENTS
    if table.shape != (n, SIM_K + 2):
        return problems + [f"table is {table.shape[0]} x {table.shape[1]}, "
                           f"expected {n} x {SIM_K + 2}"], 0
    q, r = table[:, 0], table[:, 1:]
    if not np.isin(q, (-1, 1)).all() or not np.isin(r, (0, 1)).all():
        return problems + ["Q outside {-1, 1} or R outside {0, 1}"], 0
    agree = (r == (q == 1)[:, None]).mean(axis=0)
    tol = SIM_Z * math.sqrt(SIM_P * (1.0 - SIM_P) / n)
    for j in np.flatnonzero(np.abs(agree - SIM_P) > tol):
        problems.append(f"R{j} agrees with Q at {agree[j]:.5f}, p = {SIM_P} +- {tol:.5f}")
    corr = np.corrcoef(r.T.astype(np.float64))
    law = (2.0 * SIM_P - 1.0) ** 2
    off = np.abs(corr[np.triu_indices(SIM_K + 1, 1)] - law)
    if off.max() > SIM_Z / math.sqrt(n):
        problems.append(f"a pairwise correlation is {off.max():.5f} from (2p-1)^2 = {law:.4f}, "
                        f"tolerance {SIM_Z / math.sqrt(n):.5f}")
    # row-exact: the written table is the population the library draws for
    # the header's arguments, so the writer dropped, moved or altered no row
    from confoundsim.metamodel import ModelParams, draw_population
    drawn = draw_population(ModelParams(p=SIM_P, k=SIM_K, n_respondents=n,
                                        seed=prepared.expected["seed"]), SIM_K + 1)
    differ = np.flatnonzero((q != drawn.latent) | (r != drawn.responses).any(axis=1))
    if differ.size:
        problems.append(f"{differ.size} written rows differ from the drawn population, "
                        f"first at data row {differ[0] + 1}")
    return problems, 0
