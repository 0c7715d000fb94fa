import io
import itertools
from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def dataset_from_2x2(a: int, b: int, c: int, d: int):
    """Expand 2x2 cell counts into (y, x) vectors.

    a: y=1,x=1   b: y=1,x=0   c: y=0,x=1   d: y=0,x=0
    """
    y = np.concatenate([np.ones(a + b), np.zeros(c + d)])
    x = np.concatenate([np.ones(a), np.zeros(b), np.ones(c), np.zeros(d)])
    return y, x


def savetxt_population(latent, responses) -> str:
    """Reference bytes of a population CSV: np.savetxt with "%d" entries."""
    buf = io.StringIO()
    header = "Q," + ",".join(f"R{j}" for j in range(np.shape(responses)[1]))
    np.savetxt(buf, np.column_stack([latent, responses]), fmt="%d",
               delimiter=",", header=header, comments="")
    return buf.getvalue()


def stream_population(params):
    """Reference draw: the latent coins, then all N x (k + 1) uniforms at once.

    This is the random stream `draw_population` is pinned to: one
    `stream_generator(seed)`, one `integers` call for the latent traits and
    one `random((N, k + 1))` call, compared cell by cell.  Returns the
    (latent, responses) int8 arrays.
    """
    from confoundsim.glm import inverse_logit, logit
    from confoundsim.metamodel import stream_generator

    n, ncol = params.n_respondents, params.k + 1
    rng = stream_generator(params.seed)
    latent = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    uniforms = rng.random((n, ncol))
    p_i = np.where(latent == 1, params.p, 1.0 - params.p)
    responses = (uniforms < p_i[:, None]).astype(np.int8)
    if params.causal_increment != 0.0:
        shift = params.causal_increment * responses[:, 1]
        responses[:, 0] = uniforms[:, 0] < inverse_logit(logit(p_i) + shift)
    return latent, responses


def log_odds_ratio(a: int, b: int, c: int, d: int) -> float:
    """Closed-form 2x2 oracle for the slope of y on x (with intercept)."""
    return float(np.log((a * d) / (b * c)))


def log_odds_ratio_se(a: int, b: int, c: int, d: int) -> float:
    """Closed-form standard error of the 2x2 log odds ratio."""
    return float(np.sqrt(1 / a + 1 / b + 1 / c + 1 / d))


def population_limit_beta(p: float, k: int) -> float:
    """Exact infinite-N limit of the ensemble's averaged coefficient.

    Solves the no-intercept logistic score equations of the dependent column
    on k regressor columns by Newton's method, weighting each of the 2^k
    regressor patterns by its expected probability under a fair latent coin
    (so the 2^(k+1) cells of (y, x) enter through their expected counts).
    Returns the mean of the k coefficients, the same reduction the ensemble
    applies with no causal increment.  Deliberately independent of
    `fit_logistic`, so it can serve as an oracle for it.
    """
    patterns = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    ones = patterns.sum(axis=1)

    def pattern_prob(agree: float) -> np.ndarray:
        # P(x = pattern | latent), each regressor is 1 with probability `agree`
        return agree**ones * (1.0 - agree) ** (k - ones)

    given_pos, given_neg = pattern_prob(p), pattern_prob(1.0 - p)
    weight = 0.5 * (given_pos + given_neg)                      # P(x)
    weight_y1 = 0.5 * (p * given_pos + (1.0 - p) * given_neg)   # P(y = 1, x)
    beta = np.zeros(k)
    for _ in range(50):
        mu = 1.0 / (1.0 + np.exp(-(patterns @ beta)))
        score = patterns.T @ (weight_y1 - weight * mu)
        information = patterns.T @ (patterns * (weight * mu * (1.0 - mu))[:, None])
        step = np.linalg.solve(information, score)
        beta += step
        if np.max(np.abs(step)) < 1e-13:
            return float(beta.mean())
    raise RuntimeError(f"population limit did not converge at p={p}, k={k}")


def exact_ensemble_expectation(params) -> tuple[float, float]:
    """Exact (E[beta | converged], P(excluded)) of one ensemble replication.

    A replication's cell counts are Multinomial(N, (p_plus + p_minus) / 2)
    over the 2^(k+1) response cells, on the table path and the row path
    alike.  Every count table is listed (stars and bars), weighted by its
    multinomial probability and fitted in one `fit_logistic` batch on the
    2^k regressor patterns; a pattern no respondent has adds nothing to the
    fit.  beta is what the ensemble reads: the mean coefficient with no
    causal increment, the predictor's otherwise.  Only for small N and k:
    there are C(N + 2^(k+1) - 1, N) tables.
    """
    from confoundsim.ensemble import _cell_bits, _cell_probabilities
    from confoundsim.glm import CONVERGED, fit_logistic

    n, bits = params.n_respondents, _cell_bits(params.k + 1)
    p_plus, p_minus = _cell_probabilities(params, bits)
    cells = len(bits)
    bars = np.array(list(itertools.combinations(range(n + cells - 1), cells - 1)))
    counts = np.diff(bars, prepend=-1, append=n + cells - 1, axis=1) - 1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))
    weights = np.exp(log_fact[n] - log_fact[counts].sum(axis=1)
                     + counts @ np.log(0.5 * (p_plus + p_minus)))
    # cells 2i and 2i + 1 are pattern i's cells of y = 0 and y = 1
    pairs = counts.reshape(len(counts), -1, 2).astype(np.float64)
    batch = fit_logistic(pairs[:, :, 1], bits[0::2, 1:].astype(np.float64),
                         trials=pairs.sum(axis=2))
    beta = (batch.coefficients.mean(axis=1) if params.causal_increment == 0.0
            else batch.coefficients[:, 0])
    converged = batch.status == CONVERGED
    kept = weights[converged].sum()
    return float(weights[converged] @ beta[converged] / kept), float(1.0 - kept)
