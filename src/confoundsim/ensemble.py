"""Monte Carlo harness measuring spurious association that survives adjustment.

Runs many independent populations, regresses the dependent column on the
predictor plus confounders, and averages the predictor's logit coefficient
and its standard error.  The averaged surfaces follow simple empirical
scaling laws in the agreement bias b = 2p - 1, the regressor count k, and
the population size N:

    mean coefficient   ~ 3 b^2 / k
    mean standard error ~ N^(-1/2) (4 + 12 b^5) (k - (1 + b) / 4) / k

Both laws are approximations.  Against the exact population limit of the
averaged coefficient (`population_limit`: the no-intercept score equations
solved on expected cell probabilities), the coefficient law is within 20%
on p in [0.55, 0.8] for k <= 9, worst +19.1% at (p=0.55, k=9), and for
every k only on p in [0.68, 0.8]: at p = 0.55 it is +26.1% at k = 21 and
+31.9% at k = 1000.  On the acceptance surface p in {0.55, 0.6, 0.7, 0.8}
x k in {2, 3, 5, 9} it is more than 15% off at three cells: (0.55, 9) with
+19.1%, (0.6, 9) with +16.4% and (0.8, 2) with -16.1%.

A replication is drawn as its counts over the 2^(k+1) response cells where
those are no more than the N rows, and as its N rows otherwise; either way
it becomes successes out of trials per regressor pattern.  One engine fits
these tables with the batched IRLS of `glm.fit_logistic`: the table-path
replications of every cell with the same k share one design, the 2^k
patterns, and are fitted together in blocks, and a row-path replication
is a block of one.  `run_ensemble` is the engine's one-cell call, and
`scan_grid` hands it the whole grid.

Grid scans sweep pairwise correlation r against confounder count n and
return one plot-ready cell per pair (relative risk with 95% intervals),
mirroring how real survey analyses report adjusted associations.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .glm import (CONVERGED, SEPARATED, NotConvergedError, SingularDesignError,
                  _integer, confidence_interval, fit_logistic, inverse_logit,
                  logit, relative_risk)
from .metamodel import (ModelParams, _check_agreement, _check_seed, derive_seed,
                        draw_population, stream_generator)

__all__ = [
    "EnsembleError",
    "EnsembleSummary",
    "GridSpec",
    "GridCell",
    "run_ensemble",
    "empirical_beta_formula",
    "empirical_sigma_formula",
    "population_limit",
    "scan_grid",
]

# bits in a nonnegative int64 row code
_CODE_BITS = 63

# replication x regressor-pattern trials fitted in one batched call, at most
_FIT_BLOCK_WEIGHTS = 4096


class EnsembleError(RuntimeError):
    """Every replication of an ensemble failed to produce a usable fit."""


def empirical_beta_formula(p: float, k: int) -> float:
    """Fitted scaling law 3 b^2 / k for the averaged logit coefficient.

    An approximation: on p in [0.55, 0.8] it is within 20% of the exact
    population limit for k <= 9, worst +19.1% at (p=0.55, k=9), and for
    every k only on p in [0.68, 0.8]; past k = 9 it runs low at small p, the
    limit +31.9% above it at (0.55, 1000).  Of the 16 acceptance cells it is
    more than 15% off at three: (0.55, 9), (0.6, 9) with +16.4% and (0.8, 2)
    with -16.1%.
    """
    k = _check_formula_args(p, k)
    b = 2.0 * p - 1.0
    return 3.0 * b * b / k


def empirical_sigma_formula(p: float, k: int, n_respondents: int) -> float:
    """Fitted scaling law for the averaged standard error; exact N^(-1/2) decay."""
    k = _check_formula_args(p, k)
    n_respondents = _integer("n_respondents", n_respondents, 1)
    b = 2.0 * p - 1.0
    return (4.0 + 12.0 * b**5) * ((k - (1.0 + b) / 4.0) / k) / math.sqrt(n_respondents)


def _check_formula_args(p: float, k: int) -> int:
    # p = 0.5 allowed here as the zero-bias boundary of the pure formulas
    if not 0.5 <= p < 1.0:
        raise ValueError(f"p must be in [0.5, 1), got {p}")
    return _integer("k", k, 1)


def _pattern_table(responses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct regressor rows of a 0/1 response table as (regressors, successes, trials).

    Column 0 is the dependent one.  The regressors are binary, so each
    distinct row with its count and its sum of y carries the whole
    likelihood of a fit of column 0 on the other columns: at most
    min(N, 2^k) rows stand in for N.  Each row is encoded as an int64 bit
    code and the N codes are sorted, so time and memory grow with N, not
    with 2^k.  A row too wide for one code stands for itself, one trial.
    """
    n, width = responses.shape
    if width > _CODE_BITS:
        rows = responses.astype(np.float64)
        return rows[:, 1:], rows[:, 0], np.ones(n)
    # bit j of a code is the 0/1 value of response column j, so y is bit 0
    # and the rows of one regressor pattern are neighbours once sorted
    codes = np.sort(responses @ (1 << np.arange(width)))
    patterns = codes >> 1
    starts = np.flatnonzero(np.diff(patterns, prepend=-1))
    bits = ((patterns[starts, None] >> np.arange(width - 1)) & 1).astype(np.float64)
    successes = np.add.reduceat(codes & 1, starts)
    return bits, successes.astype(np.float64), np.diff(starts, append=n).astype(np.float64)


def population_limit(p: float, k: int) -> float:
    """Exact infinite-N limit of the ensemble's averaged coefficient.

    The limit solves the no-intercept score equations of the dependent column
    on the k regressor columns, with every response cell weighted by its
    expected probability under a fair latent coin.  With no causal increment
    the regressors are exchangeable, so the unique solution gives every
    regressor the same coefficient beta, and the fit sees a response only
    through y and s, the number of regressors equal to 1.  beta is therefore
    the no-intercept fit of y on s over the k + 1 values of s: cell (y, s)
    is weighted by C(k, s) [p^(y+s) (1-p)^(k+1-y-s) + the same with p and
    1 - p swapped], scaled so the mean cell weight is 1 (beta does not
    depend on the scale), and s has its y = 1 weight as successes out of
    its two weights as trials.  This is the mean coefficient run_ensemble
    reports with no causal increment.  Deterministic, independent of N,
    and linear in k.
    """
    _check_agreement(p)
    k = _integer("k", k, 1)
    s = np.arange(k + 1, dtype=np.float64)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, k + 1)))))
    log_choose = log_fact[k] - log_fact - log_fact[::-1]
    # each column, the dependent one included, agrees with the latent trait
    # with probability p; weights are kept in logs until scaled, so none
    # under- or overflows at large k.  Row y of the weights is cell (y, s).
    ones, log_p, log_q = s + np.array([[0.0], [1.0]]), math.log(p), math.log1p(-p)
    log_weight = log_choose + np.logaddexp(
        ones * log_p + (k + 1 - ones) * log_q, ones * log_q + (k + 1 - ones) * log_p)
    weights = np.exp(log_weight - log_weight.max())
    weights *= weights.size / weights.sum()
    fit = fit_logistic(weights[1], s[:, None], trials=weights.sum(axis=0))
    if not fit.converged:
        raise NotConvergedError(f"population limit did not converge at p={p}, k={k}")
    return float(fit.coefficients[0])


@dataclass(frozen=True)
class EnsembleSummary:
    """Averages over the converged replications of one parameter setting.

    When the causal increment is zero all non-dependent columns are
    statistically equivalent, so beta1 and sigma1 are additionally averaged
    over the k possible choices of predictor column within each fit.
    """

    mean_beta1: float
    mean_sigma1: float
    mc_error_beta1: float
    excluded: int


def _cell_bits(width: int) -> np.ndarray:
    """bits[c, j] = bit j of c, for every 0/1 pattern c of `width` columns.

    With y as column 0, cells 2i and 2i + 1 are regressor pattern i's cells
    of y = 0 and y = 1.
    """
    return (np.arange(2**width)[:, None] >> np.arange(width)) & 1


def _cell_probabilities(params: ModelParams,
                        bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_plus, p_minus): each cell's probability given latent trait +1 / -1.

    `bits` is _cell_bits(k + 1).  The model is the one draw_population
    samples: every regressor is 1 with probability p_Q, the dependent column
    with inverse_logit(logit(p_Q) + causal_increment * x1).
    """
    probabilities = []
    for agree in (params.p, 1.0 - params.p):
        p_y = inverse_logit(logit(agree) + params.causal_increment * bits[:, 1])
        prob = np.where(bits[:, 0] == 1, p_y, 1.0 - p_y)
        prob *= np.where(bits[:, 1:] == 1, agree, 1.0 - agree).prod(axis=1)
        probabilities.append(prob)
    return probabilities[0], probabilities[1]


def _draw_cell_counts(params: ModelParams, rep_index: int,
                      probabilities: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """How many of replication rep_index's N respondents fall in each cell.

    A binomial latent split of the N respondents, then one multinomial over
    the cells per latent class (`probabilities` is _cell_probabilities'
    pair), on the replication's own stream.
    """
    p_plus, p_minus = probabilities
    n = params.n_respondents
    rng = stream_generator(derive_seed(params.seed, rep_index))
    plus = rng.binomial(n, 0.5)
    return rng.multinomial(plus, p_plus) + rng.multinomial(n - plus, p_minus)


def _tables(cells: list[ModelParams], replications: int
            ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Every (cell, replication) pair's pattern table, in blocks to fit.

    Yields (cell_at, rep_at, design, successes, trials): the pairs of a
    block as two index arrays, their shared design of regressor patterns,
    and their (pairs, patterns) successes out of trials.  A cell whose
    2^(k+1) response cells outnumber its N rows is on the row path: each
    replication draws its N rows and is a block of one on its own table of
    the patterns that occur.  The other cells are on the table path, where
    every cell with the same k fits one design, the 2^k regressor patterns:
    their (cell, replication) pairs, in index order, are cut into blocks of
    at most _FIT_BLOCK_WEIGHTS pair x pattern trials.  A block's pairs draw
    their cell counts, which pair up into successes out of trials per
    pattern, just before it is fitted, which bounds the fit's
    (block, patterns, k) temporaries.
    """
    groups: dict[int, list[int]] = {}
    for c, params in enumerate(cells):
        if 2 ** (params.k + 1) <= params.n_respondents:
            groups.setdefault(params.k, []).append(c)
            continue
        for i in range(replications):
            rep_params = replace(params, seed=derive_seed(params.seed, i))
            population = draw_population(rep_params, params.k + 1)
            regressors, successes, trials = _pattern_table(population.responses)
            yield (np.array([c]), np.array([i]), regressors,
                   successes[None], trials[None])
    for k, members in groups.items():
        bits = _cell_bits(k + 1)
        probabilities = {c: _cell_probabilities(cells[c], bits) for c in members}
        patterns = bits[0::2, 1:].astype(np.float64)
        # only the patterns and each cell's probabilities outlive the bits
        del bits
        block = max(1, _FIT_BLOCK_WEIGHTS // 2**k)
        pairs = len(members) * replications
        for start in range(0, pairs, block):
            at = np.arange(start, min(start + block, pairs))
            cell_at, rep_at = np.asarray(members)[at // replications], at % replications
            counts = np.array([_draw_cell_counts(cells[c], i, probabilities[c])
                               for c, i in zip(cell_at.tolist(), rep_at.tolist())],
                              dtype=np.float64).reshape(len(at), 2**k, 2)
            yield cell_at, rep_at, patterns, counts[:, :, 1], counts.sum(axis=2)


def _run_ensembles(cells: list[ModelParams], replications: int
                   ) -> list[EnsembleSummary | EnsembleError]:
    """Generate and fit `replications` independent populations of every cell.

    Replication streams are keyed by (cell seed, replication index) and each
    cell's results are reduced in index order, so a cell's summary does not
    depend on the cells beside it.  Non-converged, separated or
    rank-deficient fits are excluded and counted, never retried.  Each
    block that _tables yields is one batched fit, read through masks over
    its status.  A cell whose every replication failed gets an
    EnsembleError in place of its summary.
    """
    replications = _integer("replications", replications, 1)
    for params in cells:
        if params.n_respondents <= params.k:
            raise ValueError(
                f"n_respondents ({params.n_respondents}) must exceed the regressor "
                f"count k = {params.k}: a fit needs more observations than regressors")
    betas = np.full((len(cells), replications), math.nan)
    sigmas = np.full((len(cells), replications), math.nan)
    separated = np.zeros(len(cells), dtype=np.int64)
    null = np.array([params.causal_increment == 0.0 for params in cells])
    for cell_at, rep_at, design, successes, trials in _tables(cells, replications):
        try:
            # the survey regressions this models fit raw response columns with
            # no constant term; the scaling laws above describe exactly those fits
            batch = fit_logistic(successes, design, trials=trials)
        except SingularDesignError:
            # a row-path draw with an all-zero regressor column, which the
            # design rejects before any fit: the block's one fit is unusable
            continue
        np.add.at(separated, cell_at, batch.status == SEPARATED)
        usable = batch.status == CONVERGED
        beta = np.where(null[cell_at], batch.coefficients.mean(axis=1),
                        batch.coefficients[:, 0])
        sigma = np.where(null[cell_at], batch.std_errors.mean(axis=1),
                         batch.std_errors[:, 0])
        at = cell_at[usable], rep_at[usable]
        betas[at], sigmas[at] = beta[usable], sigma[usable]
    summaries: list[EnsembleSummary | EnsembleError] = []
    for params, cell_betas, cell_sigmas, n_separated in zip(cells, betas, sigmas,
                                                            separated):
        kept = ~np.isnan(cell_betas)
        n_kept = int(kept.sum())
        if n_kept == 0:
            summaries.append(EnsembleError(
                f"all {replications} replications failed to converge "
                f"({n_separated} flagged as separated; "
                f"p={params.p}, k={params.k}, N={params.n_respondents})"))
            continue
        mc_error = (float(np.std(cell_betas[kept], ddof=1)) / math.sqrt(n_kept)
                    if n_kept >= 2 else math.inf)
        summaries.append(EnsembleSummary(
            mean_beta1=float(np.mean(cell_betas[kept])),
            mean_sigma1=float(np.mean(cell_sigmas[kept])),
            mc_error_beta1=mc_error,
            excluded=replications - n_kept,
        ))
    return summaries


def run_ensemble(params: ModelParams, replications: int) -> EnsembleSummary:
    """Generate and fit `replications` independent populations.

    The one-cell call of the engine scan_grid runs: replication streams are
    keyed by (params.seed, replication index) and results are reduced in
    index order.  Non-converged, separated or rank-deficient fits are
    excluded and counted, never retried; EnsembleError when all are.
    """
    summary, = _run_ensembles([params], replications)
    if isinstance(summary, EnsembleError):
        raise summary
    return summary


def _agreement_p(r: float) -> float:
    # agreement probability whose pairwise correlation (2p - 1)^2 is r
    return 0.5 * (1.0 + math.sqrt(r))


@dataclass(frozen=True)
class GridSpec:
    """A sweep over pairwise correlations r and confounder counts n.

    Each grid cell runs a full ensemble with k = n + 1 regressors (the
    predictor plus n confounders) at p = (1 + sqrt(r)) / 2.  Reported
    intervals are rescaled to ci_n_respondents when given (error bars decay
    as N^(-1/2)); rr_baseline is the baseline prevalence used to convert
    coefficients to relative risks.
    """

    correlations: tuple[float, ...]
    confounder_counts: tuple[int, ...]
    n_respondents: int
    replications: int
    seed: int
    causal_increment: float = 0.0
    ci_n_respondents: int | None = None
    rr_baseline: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "correlations", tuple(float(r) for r in self.correlations))
        object.__setattr__(self, "confounder_counts", tuple(
            _integer("every confounder count", n, 1)
            for n in self.confounder_counts))
        for name, low in (("n_respondents", None), ("replications", 1),
                          ("ci_n_respondents", 1)):
            if name != "ci_n_respondents" or self.ci_n_respondents is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if not self.correlations:
            raise ValueError("correlations must be non-empty")
        for r in self.correlations:
            # r below about 1e-32 rounds p to 0.5, r within a few 1e-16 of 1 to 1
            if not (0.0 < r < 1.0 and 0.5 < _agreement_p(r) < 1.0):
                raise ValueError(f"every correlation must be in (0, 1) with "
                                 f"p = (1 + sqrt(r)) / 2 inside (0.5, 1), got {r!r}")
        if not self.confounder_counts:
            raise ValueError("confounder_counts must be non-empty")
        k_max = max(self.confounder_counts) + 1
        if self.n_respondents <= k_max:
            raise ValueError(
                f"n_respondents ({self.n_respondents}) must exceed the largest "
                f"regressor count k = n + 1 = {k_max}: a fit needs more "
                f"observations than regressors")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if not math.isfinite(self.causal_increment):
            raise ValueError("causal_increment must be finite")
        if not 0.0 <= self.rr_baseline < 1.0:
            raise ValueError("rr_baseline must be in [0, 1)")


@dataclass(frozen=True)
class GridCell:
    """One row of a grid scan; `error` says why a cell failed.

    A cell fails when every replication failed (statistics blank) or when its
    relative risks overflow (statistics kept, relative risks blank).
    """

    r: float
    n_confounders: int
    n_respondents: int
    replications: int
    mean_beta1: float
    mean_sigma1: float
    relative_risk: float
    ci_low: float
    ci_high: float
    excluded: int
    predicted_beta1: float
    predicted_sigma1: float
    mc_error_beta1: float
    error: str | None = None


def scan_grid(spec: GridSpec) -> list[GridCell]:
    """Run every (r, n) cell of the grid; failed cells are kept, flagged.

    Every cell is handed to one run of the ensemble engine, so the table-path
    cells of one confounder count share their fits' blocks.  Deterministic
    for a fixed spec seed.
    """
    grid = list(itertools.product(spec.correlations, spec.confounder_counts))
    cells = [ModelParams(p=_agreement_p(r), k=n_conf + 1,
                         n_respondents=spec.n_respondents,
                         seed=derive_seed(spec.seed, index),
                         causal_increment=spec.causal_increment)
             for index, (r, n_conf) in enumerate(grid)]
    summaries = _run_ensembles(cells, spec.replications)
    return [_grid_cell(spec, r, n_conf, params, summary)
            for (r, n_conf), params, summary in zip(grid, cells, summaries)]


def _grid_cell(spec: GridSpec, r: float, n_conf: int, params: ModelParams,
               summary: EnsembleSummary | EnsembleError) -> GridCell:
    beta = sigma = mc_error = rr = ci_low = ci_high = math.nan
    excluded, error = spec.replications, None
    if isinstance(summary, EnsembleError):
        error = str(summary)
    else:
        beta, sigma = summary.mean_beta1, summary.mean_sigma1
        excluded, mc_error = summary.excluded, summary.mc_error_beta1
        ci_n = spec.ci_n_respondents or spec.n_respondents
        sigma_scaled = sigma * math.sqrt(spec.n_respondents / ci_n)
        low, high = confidence_interval(beta, sigma_scaled)
        try:
            rr, ci_low, ci_high = [relative_risk(x, spec.rr_baseline)
                                   for x in (beta, low, high)]
        except OverflowError:
            error = (f"relative risk overflows: interval [{low!r}, {high!r}] on "
                     f"the logit scale")
    return GridCell(r, n_conf, spec.n_respondents, spec.replications, beta, sigma,
                    rr, ci_low, ci_high, excluded,
                    empirical_beta_formula(params.p, params.k),
                    empirical_sigma_formula(params.p, params.k, spec.n_respondents),
                    mc_error, error=error)
