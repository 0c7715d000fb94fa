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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .glm import _integer, inverse_logit, logit

__all__ = [
    "ModelParams",
    "ResponseMatrix",
    "theoretical_correlation",
    "draw_population",
    "derive_seed",
    "stream_generator",
    "write_population_csv",
]

_SEED_MAX = 2**64

# rows per block of the draw and of the CSV: a block holds its float64
# uniforms, its int8 responses and its formatted bytes (about 0.3, 0.04 and
# 0.1 MB at k = 9), so memory beside the N latent traits does not grow with N
_BLOCK_ROWS = 4_096


def _check_seed(seed) -> int:
    # the one seed rule for every configuration that takes a master seed
    seed = _integer("seed", seed, requirement="an unsigned 64-bit integer")
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _check_agreement(p: float) -> None:
    # the one rule for an agreement probability p
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must be in (0.5, 1), got {p}")


def theoretical_correlation(p: float) -> float:
    """Pairwise correlation (2p - 1)^2 shared by every pair of responses."""
    _check_agreement(p)
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
        _check_agreement(self.p)
        for name in ("k", "n_respondents"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
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


def derive_seed(master: int, index: int) -> int:
    """Derive the independent 64-bit seed of stream `index` of a master seed.

    Keyed derivation (rather than sequential jumps) gives each replication
    a stream that does not depend on the cells or replications beside it.
    """
    state = np.random.SeedSequence((master, index)).generate_state(1, np.uint64)
    return int(state[0])


def stream_generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the stream keyed by seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _population_blocks(params: ModelParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The population of `params`, _BLOCK_ROWS rows at a time, as
    (latent traits, int8 responses) per block.

    The stream is one `integers` call for the N traits, then the N x (k + 1)
    uniforms in row order, drawn a block at a time; Philox gives the same
    doubles in blocks as in one call, so the population does not depend on
    the block size.  A block's responses are its comparison's own bool
    array viewed as int8.
    """
    n, ncol = params.n_respondents, params.k + 1
    rng = stream_generator(params.seed)
    latent = rng.integers(0, 2, size=n, dtype=np.int8)
    latent *= 2
    latent -= 1
    buffer = np.empty((min(n, _BLOCK_ROWS), ncol))
    for start in range(0, n, _BLOCK_ROWS):
        q = latent[start:start + _BLOCK_ROWS]
        uniforms = rng.random(out=buffer[:len(q)])
        # agreement probability per respondent given the latent trait
        p_i = np.where(q == 1, params.p, 1.0 - params.p)
        block = (uniforms < p_i[:, None]).view(np.int8)
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


def write_population_csv(params: ModelParams, fh: io.TextIOBase) -> None:
    """Draw the population of `params` and write it as a dense debugging
    dump: header Q,R0,...,Rk then one row per respondent.

    The bytes are those of formatting every entry with "%d": Q is -1 or 1,
    each response 0 or 1, lines end in "\n".  Since those are the only
    values a population holds, each row is laid out in numpy as two-byte
    pairs, "-1" (or a NUL pad and "1"), ",d" per column and "\n" with a
    pad, and one `bytes.replace` drops the pads.  Rows are written as they
    are drawn, a block of _BLOCK_ROWS at a time with one fh.write each, so
    neither the table nor the CSV is ever held whole.  Not a
    stability-guaranteed format.
    """
    fh.write("Q," + ",".join(f"R{j}" for j in range(params.k + 1)) + "\n")
    for latent, responses in _population_blocks(params):
        fh.write(_csv_rows(latent, responses))
