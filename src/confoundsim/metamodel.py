"""Synthetic survey populations driven by a single latent cause.

Every respondent carries a hidden binary trait Q in {-1, +1}, drawn fair.
Each observed binary response agrees with Q with a fixed probability p in
(0.5, 1), independently per cell.  No response causes any other, yet every
pair of responses shows the same positive correlation (2p - 1)^2, which makes
these populations a clean stress test for confounder-adjusted regressions.

An optional causal increment can be injected into the dependent column
(column 0): its per-respondent success probability gets a fixed logit shift
proportional to the predictor column (column 1).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .glm import inverse_logit, logit

__all__ = [
    "ModelParams",
    "ResponseMatrix",
    "UndefinedCorrelationError",
    "theoretical_correlation",
    "draw_population",
    "sample_correlation",
    "derive_seed",
    "stream_generator",
    "write_population_csv",
]

_SEED_MAX = 2**64

# rows per pass of draw_population and of write_population_csv: each pass
# holds a block's float64 uniforms or formatted bytes (about 1.3 MB or
# 0.4 MB at k = 9), so simulate's peak memory is set by the N x (k + 1)
# int8 table, not by N-sized temporaries
_BLOCK_ROWS = 16_384


def _check_seed(seed: int) -> None:
    # the one seed rule for every configuration that takes a master seed
    if not isinstance(seed, int) or not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


class UndefinedCorrelationError(ValueError):
    """A correlation was requested for a column with zero variance."""


def theoretical_correlation(p: float) -> float:
    """Pairwise correlation (2p - 1)^2 shared by every pair of responses."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must be in (0.5, 1), got {p}")
    b = 2.0 * p - 1.0
    return b * b


@dataclass(frozen=True)
class ModelParams:
    """Configuration of one synthetic population.

    p: agreement probability, strictly between 0.5 and 1.
    k: number of regressors excluding the intercept, i.e. the predictor
       plus k - 1 confounders; the population has k + 1 response columns.
    n_respondents: population size N.
    causal_increment: logit shift added to the dependent column per unit of
       the predictor column (0 means purely spurious association).
    seed: unsigned 64-bit master seed; all randomness derives from it.
    """

    p: float
    k: int
    n_respondents: int
    seed: int
    causal_increment: float = 0.0

    def __post_init__(self) -> None:
        if not 0.5 < self.p < 1.0:
            raise ValueError(f"p must be in (0.5, 1), got {self.p}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        if not isinstance(self.n_respondents, int) or self.n_respondents < 1:
            raise ValueError(f"n_respondents must be >= 1, got {self.n_respondents}")
        _check_seed(self.seed)
        if not np.isfinite(self.causal_increment):
            raise ValueError("causal_increment must be finite")


@dataclass(frozen=True)
class ResponseMatrix:
    """One realized population: latent traits plus the binary response table.

    responses has shape (N, k + 1): column 0 is the dependent variable,
    column 1 the predictor, columns 2..k the confounders.  Both are stored
    as read-only arrays, whatever array-like they were given as.  An ndarray
    is stored as given, not copied, so the caller's own array becomes
    read-only too; a copy would cost draw_population another N x (k + 1)
    bytes.
    """

    latent: np.ndarray
    responses: np.ndarray
    params: ModelParams

    def __post_init__(self) -> None:
        lat = np.asarray(self.latent)
        resp = np.asarray(self.responses)
        n, k = self.params.n_respondents, self.params.k
        if resp.shape != (n, k + 1):
            raise ValueError(f"responses must have shape {(n, k + 1)}, got {resp.shape}")
        if lat.shape != (n,):
            raise ValueError(f"latent must have shape {(n,)}, got {lat.shape}")
        # integers in [-1, 1] with no zero are -1 or +1, and in [0, 1] are 0 or 1;
        # min, max and count_nonzero make no N-sized temporaries, as == tests would
        if lat.dtype.kind in "biu":
            plus_minus = lat.min() >= -1 and lat.max() <= 1 and np.count_nonzero(lat) == n
        else:
            plus_minus = ((lat == -1) | (lat == 1)).all()
        if not plus_minus:
            raise ValueError("latent entries must be -1 or +1")
        if resp.dtype.kind in "biu":
            binary = resp.min() >= 0 and resp.max() <= 1
        else:
            binary = ((resp == 0) | (resp == 1)).all()
        if not binary:
            raise ValueError("response entries must be 0 or 1")
        for name, arr in (("latent", lat), ("responses", resp)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_columns(self) -> int:
        return self.responses.shape[1]


def derive_seed(master: int, *indices: int) -> int:
    """Derive an independent 64-bit stream seed from a master seed.

    Keyed derivation (rather than sequential jumps) keeps parallel work
    units reproducible no matter the execution order.
    """
    state = np.random.SeedSequence((master, *indices)).generate_state(1, np.uint64)
    return int(state[0])


def stream_generator(seed: int, *indices: int) -> np.random.Generator:
    """Counter-based generator for the stream keyed by (seed, *indices)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *indices))))


def draw_population(params: ModelParams, column_count: int) -> ResponseMatrix:
    """Draw one population of column_count = k + 1 binary response columns.

    Latent traits are fair coin flips on {-1, +1}; each response cell agrees
    with the trait with probability p.  With a nonzero causal increment the
    dependent column is drawn with per-respondent probability
    inverse_logit(logit(p_i) + increment * predictor_i), where p_i is the
    agreement probability implied by the respondent's trait.  Bit-identical
    output for identical params.

    The stream is one `integers` call for the N traits, then the N x (k + 1)
    uniforms in row order.  They are drawn _BLOCK_ROWS rows at a time into
    the preallocated int8 table; Philox gives the same doubles in blocks as
    in one call, so the population does not depend on the block size.
    """
    if column_count != params.k + 1:
        raise ValueError(
            f"column_count must equal k + 1 = {params.k + 1}, got {column_count}"
        )
    n = params.n_respondents
    rng = stream_generator(params.seed)

    latent = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    responses = np.empty((n, column_count), dtype=np.int8)
    # one buffer for every block's uniforms, so no two blocks' are alive
    buffer = np.empty((min(n, _BLOCK_ROWS), column_count))
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = responses[rows]
        uniforms = rng.random(out=buffer[:block.shape[0]])
        # agreement probability per respondent given the latent trait
        p_i = np.where(latent[rows] == 1, params.p, 1.0 - params.p)
        block[:] = uniforms < p_i[:, None]
        if params.causal_increment != 0.0:
            shift = params.causal_increment * block[:, 1]
            block[:, 0] = uniforms[:, 0] < inverse_logit(logit(p_i) + shift)
    del buffer, uniforms  # freed before the table's checks allocate
    return ResponseMatrix(latent=latent, responses=responses, params=params)


def sample_correlation(m: ResponseMatrix, col_a: int, col_b: int) -> float:
    """Pearson correlation between two response columns.

    Raises UndefinedCorrelationError if either column is constant.
    """
    ncol = m.n_columns
    for c in (col_a, col_b):
        if not 0 <= c < ncol:
            raise IndexError(f"column index {c} out of range [0, {ncol})")
    if col_a == col_b:
        raise ValueError("column indices must be distinct")
    x = m.responses[:, col_a].astype(np.float64)
    y = m.responses[:, col_b].astype(np.float64)
    x -= x.mean()
    y -= y.mean()
    ssx = float(x @ x)
    ssy = float(y @ y)
    if ssx == 0.0 or ssy == 0.0:
        raise UndefinedCorrelationError(
            f"correlation undefined: column {col_a if ssx == 0.0 else col_b} is constant"
        )
    return float((x @ y) / (np.sqrt(ssx) * np.sqrt(ssy)))


def write_population_csv(m: ResponseMatrix, fh: io.TextIOBase) -> None:
    """Dense debugging dump: header Q,R0,...,Rk then one row per respondent.

    The bytes are those of formatting every entry with "%d": Q is -1 or 1,
    each response 0 or 1, lines end in "\n".  Since those are the only
    values a ResponseMatrix holds, each row is laid out in numpy as
    fixed-width bytes: "-1" then ",d" per column then "\n", with the "-"
    dropped where Q = +1.  Rows go out in blocks of _BLOCK_ROWS, one
    fh.write each.  Not a stability-guaranteed format.
    """
    ncol = m.n_columns
    fh.write("Q," + ",".join(f"R{j}" for j in range(ncol)) + "\n")
    width = 2 * ncol + 3
    for start in range(0, m.latent.shape[0], _BLOCK_ROWS):
        q = m.latent[start:start + _BLOCK_ROWS]
        resp = m.responses[start:start + _BLOCK_ROWS]
        block = np.empty((q.shape[0], width), dtype=np.uint8)
        block[:, :2] = np.frombuffer(b"-1", dtype=np.uint8)
        block[:, 2:-1:2] = ord(",")
        block[:, 3:-1:2] = resp != 0
        block[:, 3:-1:2] += ord("0")
        block[:, -1] = ord("\n")
        keep = np.ones(block.shape, dtype=bool)
        keep[:, 0] = q < 0
        fh.write(block[keep].tobytes().decode("ascii"))
