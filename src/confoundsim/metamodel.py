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
from collections.abc import Iterable, Iterator
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

# rows per block of the draw and of the CSV: a block holds its float64
# uniforms, its int8 responses and its formatted bytes (about 0.3, 0.04 and
# 0.1 MB at k = 9), so memory beside the N latent traits does not grow with N
_BLOCK_ROWS = 4_096


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


def _population_blocks(params: ModelParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The population of `params`, _BLOCK_ROWS rows at a time, as
    (latent traits, int8 responses) per block.

    The stream is one `integers` call for the N traits, then the N x (k + 1)
    uniforms in row order, drawn a block at a time; Philox gives the same
    doubles in blocks as in one call, so the population does not depend on
    the block size.  One uniforms buffer and one response block are reused,
    so a block must be used before the next one is asked for.
    """
    n, ncol = params.n_respondents, params.k + 1
    rng = stream_generator(params.seed)
    latent = rng.integers(0, 2, size=n, dtype=np.int8)
    latent *= 2
    latent -= 1
    buffer = np.empty((min(n, _BLOCK_ROWS), ncol))
    responses = np.empty(buffer.shape, dtype=np.int8)
    for start in range(0, n, _BLOCK_ROWS):
        q = latent[start:start + _BLOCK_ROWS]
        uniforms = rng.random(out=buffer[:len(q)])
        block = responses[:len(q)]
        # agreement probability per respondent given the latent trait
        p_i = np.where(q == 1, params.p, 1.0 - params.p)
        block[:] = uniforms < p_i[:, None]
        if params.causal_increment != 0.0:
            shift = params.causal_increment * block[:, 1]
            block[:, 0] = uniforms[:, 0] < inverse_logit(logit(p_i) + shift)
        yield q, block


def draw_population(params: ModelParams, column_count: int) -> ResponseMatrix:
    """Draw one population of column_count = k + 1 binary response columns.

    Latent traits are fair coin flips on {-1, +1}; each response cell agrees
    with the trait with probability p.  With a nonzero causal increment the
    dependent column is drawn with per-respondent probability
    inverse_logit(logit(p_i) + increment * predictor_i), where p_i is the
    agreement probability implied by the respondent's trait.  Bit-identical
    output for identical params.

    The draw's blocks are copied into one N x (k + 1) int8 table; `simulate`
    writes them as they are drawn and holds no table.
    """
    if column_count != params.k + 1:
        raise ValueError(
            f"column_count must equal k + 1 = {params.k + 1}, got {column_count}"
        )
    n = params.n_respondents
    latent = np.empty(n, dtype=np.int8)
    responses = np.empty((n, column_count), dtype=np.int8)
    start = 0
    for q, block in _population_blocks(params):
        latent[start:start + len(q)] = q
        responses[start:start + len(q)] = block
        start += len(q)
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


def _csv_rows(latent: np.ndarray, responses: np.ndarray) -> str:
    # each row as little-endian uint16 pairs of bytes: "-1" or "\0" "1" for
    # Q, ",0" or ",1" per response, "\n\0"; the NUL pads are then dropped
    pairs = np.empty((len(latent), responses.shape[1] + 2), dtype="<u2")
    pairs[:, 0] = np.where(latent < 0, 0x312D, 0x3100)
    # shifted in a contiguous array: in place in the strided columns is slower
    cells = responses.astype("<u2")
    cells <<= 8
    cells += 0x302C
    pairs[:, 1:-1] = cells
    pairs[:, -1] = 0x000A
    return pairs.tobytes().replace(b"\0", b"").decode("ascii")


def write_population_csv(population: ResponseMatrix | Iterable[tuple[np.ndarray, np.ndarray]],
                         fh: io.TextIOBase) -> None:
    """Dense debugging dump: header Q,R0,...,Rk then one row per respondent.

    `population` is a ResponseMatrix or an iterable of (latent, responses)
    row blocks, as the draw yields them.  The bytes are those of formatting
    every entry with "%d": Q is -1 or 1, each response 0 or 1, lines end in
    "\n".  Since those are the only values a population holds, each row is
    laid out in numpy as two-byte pairs, "-1" (or a NUL pad and "1"), ",d"
    per column and "\n" with a pad, and one `bytes.replace` drops the pads.
    Rows go out in blocks of _BLOCK_ROWS, one fh.write each.  Not a
    stability-guaranteed format.
    """
    if isinstance(population, ResponseMatrix):
        lat, resp = population.latent, population.responses
        population = ((lat[s:s + _BLOCK_ROWS], resp[s:s + _BLOCK_ROWS])
                      for s in range(0, len(lat), _BLOCK_ROWS))
    for i, (latent, responses) in enumerate(population):
        if i == 0:
            fh.write("Q," + ",".join(f"R{j}" for j in range(responses.shape[1])) + "\n")
        fh.write(_csv_rows(latent, responses))
