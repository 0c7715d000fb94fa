"""Binary logistic regression by iteratively reweighted least squares.

Self-contained maximum-likelihood engine: Newton-Raphson on the binomial
log-likelihood of successes out of trials per design row (0/1 outcomes are
the case of one trial per row), with step-halving, standard errors from the
inverse observed information, and deterministic separation diagnostics.
One Newton loop fits a single table on a design or a stack of them: the
ensemble fits a block of replications, which share one design of regressor
patterns and differ only in their counts, as one batch, and reads its
outcome as arrays (a FitBatch).  Also houses the small link-function
helpers and the relative-risk conversion used by the reporting layers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularDesignError",
    "NotConvergedError",
    "DesignMatrix",
    "FitResult",
    "FitBatch",
    "logit",
    "inverse_logit",
    "fit_logistic",
    "relative_risk",
    "confidence_interval",
]

# |x| beyond this adds nothing to a float64 sigmoid; clamping avoids overflow
_LOGIT_CLAMP = 36.0

# any coefficient this large during iteration signals a separated fit
_SEPARATION_COEF = 30.0
_PIN_EPS = 1e-10

# two-sided 95% normal quantile, correctly rounded, for reported intervals
_Z95 = 1.959963984540054

# FitBatch.status codes; the first three are fits, the others are not
CONVERGED, SEPARATED, NOT_CONVERGED = 0, 1, 2
TOO_FEW_OBSERVATIONS, RANK_DEFICIENT, SINGULAR_NORMAL = 3, 4, 5


def _integer(name: str, value, low: int | None = None,
             requirement: str = "an integer") -> int:
    # the one rule for every integer parameter: a Python or numpy integer is
    # returned as a Python int; a bool, a non-integer (2.0, "3", an array) or
    # a value below `low` is refused
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be {requirement}, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be {requirement}, got {value!r}") from None
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    return number


class SingularDesignError(ValueError):
    """Design matrix is rank deficient (collinear or constant regressors)."""


class NotConvergedError(RuntimeError):
    """An operation required a converged fit but did not get one."""


def logit(p):
    """log(p / (1 - p)) for p strictly inside (0, 1); scalar or array."""
    scalar = np.ndim(p) == 0
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("logit requires 0 < p < 1")
    out = np.log(arr / (1.0 - arr))
    return float(out) if scalar else out


def inverse_logit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), clamped at |x| = 36.

    exp(-|x|) cannot overflow; below zero it gives exp(x) / (1 + exp(x)).
    The clamp fixes the values past |x| = 36, within 1e-15 of 0 or 1, that
    every fit has read.  Accepts scalars or arrays.
    """
    scalar = np.ndim(x) == 0
    arr = np.clip(np.asarray(x, dtype=np.float64), -_LOGIT_CLAMP, _LOGIT_CLAMP)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if scalar else out


@dataclass(frozen=True)
class DesignMatrix:
    """Regressor matrix with optional column names.

    Use build() to assemble one from raw columns; it prepends the intercept
    column when asked.  Degenerate (all-zero) columns raise
    SingularDesignError, naming the column by its given name if any.
    """

    values: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # contiguous layout so results never depend on the caller's strides
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with at least one column")
        if not np.isfinite(vals).all():
            raise ValueError("design matrix entries must be finite")
        if self.names and len(self.names) != vals.shape[1]:
            raise ValueError("names length must match column count")
        dead = ~vals.any(axis=0)
        if dead.any():
            # an all-zero regressor is the plainest rank defect
            j = int(np.flatnonzero(dead)[0])
            label = repr(self.names[j]) if self.names else str(j)
            raise SingularDesignError(f"column {label} is all zero")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @classmethod
    def build(cls, columns, intercept: bool = True, names=None,
              n_rows: int | None = None) -> "DesignMatrix":
        """Stack 1-D columns into a design, optionally prepending an intercept.

        n_rows is only needed for an intercept-only design (no columns).
        """
        cols = [np.asarray(c, dtype=np.float64).reshape(-1) for c in columns]
        if not cols and not intercept:
            raise ValueError("no columns and no intercept")
        n = len(cols[0]) if cols else n_rows
        if intercept:
            if not n:
                raise ValueError("intercept-only design needs n_rows")
            cols = [np.ones(n)] + cols
            if names is not None:
                names = ("intercept", *names)
        return cls(np.column_stack(cols), names=tuple(names) if names else ())


@dataclass(frozen=True)
class FitResult:
    """Output of one maximum-likelihood fit."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    separation_detected: bool


@dataclass(frozen=True)
class FitBatch:
    """Output of one batched fit of R tables: row r is table r's outcome,
    status[r] one of the codes above; a row that is no fit holds NaN values."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    iterations: np.ndarray
    log_likelihood: np.ndarray
    status: np.ndarray


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[r] @ b[r] for every row, as a stack of the 1-D products (same bits)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _weighted_gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # x.T @ (w[r][:, None] * x) for every weight row r, one matrix product
    # each, so a row's bits do not depend on the rows beside it
    return np.matmul(x.T, w[:, :, None] * x)


def _log_likelihood(s: np.ndarray, eta: np.ndarray, t: np.ndarray,
                    n_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, sum s*eta - t*log(1 + exp(eta)) over the table, and its rounding.

    The rounding bound is n * eps times the sum of the magnitudes added, the
    worst case for a sum of n terms, n being the row's occurring (y, x)
    cells; the value is stable via logaddexp.
    """
    softplus = (t * np.logaddexp(0.0, eta)).sum(axis=1)
    rounding = n_terms * np.finfo(np.float64).eps * (_row_dot(s, np.abs(eta)) + softplus)
    return _row_dot(s, eta) - softplus, rounding


def _each_matrix(op, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A numpy.linalg op over a stack of matrices, and where it failed.

    The stacked call gives the bits of one call per matrix; when it fails on
    some matrix, every matrix is redone alone and a failing one reads NaN.
    """
    try:
        return op(*stacks), np.zeros(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan)
    failed = np.zeros(len(out), dtype=bool)
    for r, operands in enumerate(zip(*stacks)):
        try:
            out[r] = op(*operands)
        except np.linalg.LinAlgError:
            failed[r] = True
    return out, failed


def fit_logistic(y, X, tol: float = 1e-8, max_iter: int = 100,
                 trials=None) -> FitResult | FitBatch:
    """Maximum-likelihood logistic fit of y on the given design.

    X may be a DesignMatrix or a plain 2-D array (taken as-is, no intercept
    added).  Without `trials`, y holds one 0/1 outcome per design row.  With
    `trials`, row i stands for trials[i] observations that share the design
    row, y[i] of them successes (0 <= y[i] <= trials[i], both finite, not
    necessarily whole): the aggregated binomial fit, so the distinct
    regressor rows of a data set with their (successes, trials) give the
    fit of the rows they count.  Rows of zero trials add zeros to every
    sum; the observation count is the sum of the trials.  Converges when the largest
    absolute coefficient update drops below tol.  Separated fits are
    flagged, not raised; a rank-deficient design raises SingularDesignError.
    max_iter must be an integer >= 1 and tol a positive finite number.

    Trials of shape (R, n), with y of the same shape, fit R tables on the
    one design together and return a FitBatch.  A check on the arguments or
    the shared design raises for the whole batch before any fit: a design
    with an all-zero column raises SingularDesignError.  Only a failure
    that depends on a row's trials becomes that row's status: row r has the
    bits of a call with y[r] and trials[r] alone, its FitResult's values or
    the status of the ValueError (a SingularDesignError when its trials
    leave the design rank deficient or its normal equations singular) that
    call would raise.  Each table keeps its own step-halving, convergence
    and separation test, and its bits do not depend on the others.
    """
    max_iter = _integer("max_iter", max_iter, 1)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    design = X if isinstance(X, DesignMatrix) else DesignMatrix(
        np.asarray(X, dtype=np.float64))
    x = design.values
    n = x.shape[0]
    s = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    if trials is None:
        # one trial per row: the successes are y, and 1.0 * mu, 1.0 * y and
        # a term per row change no bits of the sums
        s = s.reshape(-1)
        if s.shape[0] != n:
            raise ValueError(f"y has {s.shape[0]} rows, design has {n}")
        if not np.isin(s, (0.0, 1.0)).all():
            raise ValueError("y entries must be 0 or 1")
        t = np.ones(n)
    else:
        t = np.ascontiguousarray(np.asarray(trials, dtype=np.float64))
        if not (t.ndim in (1, 2) and t.shape[-1] == n and t.size):
            raise ValueError(f"trials must have shape ({n},) or (R, {n}) with "
                             f"R >= 1, got {t.shape}")
        if s.shape != t.shape:
            raise ValueError(f"y must have the shape of trials, {t.shape}, got {s.shape}")
        if not (np.isfinite(s).all() and np.isfinite(t).all()):
            raise ValueError("y and trials must be finite")
        if not ((s >= 0.0) & (s <= t)).all():
            raise ValueError("y must satisfy 0 <= y <= trials")
        if t.ndim == 2:
            return _irls(x, s, t, tol, max_iter)
    fit = _irls(x, s[None], t[None], tol, max_iter)
    status = fit.status[0]
    if status == TOO_FEW_OBSERVATIONS:
        raise ValueError(
            f"need more observations ({t.sum():g}) than regressors ({x.shape[1]})")
    if status == RANK_DEFICIENT:
        raise SingularDesignError("design matrix is rank deficient")
    if status == SINGULAR_NORMAL:
        raise SingularDesignError("weighted normal equations are singular")
    return FitResult(coefficients=fit.coefficients[0], std_errors=fit.std_errors[0],
                     converged=bool(status == CONVERGED), iterations=int(fit.iterations[0]),
                     log_likelihood=float(fit.log_likelihood[0]),
                     separation_detected=bool(status == SEPARATED))


def _irls(x: np.ndarray, s: np.ndarray, t: np.ndarray, tol: float,
          max_iter: int) -> FitBatch:
    """Newton-Raphson for every row of the (R, n) successes s out of trials t.

    Each iteration makes one stacked gradient, Hessian and solve for the
    rows still iterating; a row leaves the stack when it converges, is
    separated or fails.
    """
    n_rows, m = t.shape[0], x.shape[1]
    status = np.full(n_rows, NOT_CONVERGED, dtype=np.int8)
    n_obs = t.sum(axis=1)
    status[n_obs <= m] = TOO_FEW_OBSERVATIONS
    live = np.flatnonzero(n_obs > m)
    # rank-revealing check on the Gram matrices; cheap (m x m) and it keeps
    # silently pseudo-inverted collinear confounders out of the results
    gram = _weighted_gram(x, t[live])
    eigvals = np.linalg.eigvalsh(gram)
    deficient = eigvals[:, 0] <= eigvals[:, -1] * m * np.finfo(np.float64).eps
    status[live[deficient]] = RANK_DEFICIENT
    live = live[~deficient]
    # at beta = 0 every mu is 0.5 exactly, so the first Hessian's weights are
    # t * 0.25 and the Hessian is the Gram matrix times 0.25.  Scaling by a
    # power of two is exact, so these are the bits of weighting by t * 0.25
    # unless a term t x_i x_j or a partial sum of the Gram falls under four
    # times the smallest normal double, about 9e-308
    first_hess = 0.25 * gram[~deficient]

    # the occurring cells of y = 1 and of y = 0, and their count
    ones, zeros = s > 0.0, t - s > 0.0
    n_terms = ones.sum(axis=1) + zeros.sum(axis=1)
    beta = np.zeros((n_rows, m))
    mu = np.full(t.shape, 0.5)  # inverse_logit(0), exactly
    ll, rounding = _log_likelihood(s, np.zeros(t.shape), t, n_terms)
    iterations = np.zeros(n_rows, dtype=int)

    for iteration in range(1, max_iter + 1):
        if not live.size:
            break
        # while every row iterates, whole-array views stand in for copies
        rows = slice(None) if live.size == n_rows else live
        iterations[rows] = iteration
        fitted = mu[rows]
        grad = np.matmul(x.T, (s[rows] - t[rows] * fitted)[:, :, None])[:, :, 0]
        hess = (first_hess if iteration == 1
                else _weighted_gram(x, t[rows] * (fitted * (1.0 - fitted))))
        delta, singular = _each_matrix(np.linalg.solve, hess, grad[:, :, None])
        if singular.any():
            status[live[singular]] = SINGULAR_NORMAL
            live, delta = live[~singular], delta[~singular]
            rows = live
        delta = delta[:, :, 0]

        # Newton step with halving whenever the log-likelihood would drop; a
        # drop within the rounding of the current sum is no drop, so near the
        # optimum, where a step's gain is below that rounding, the full step
        # is taken.  Each row halves its own step, down to 2**-30; its bits
        # do not depend on the rows beside it, and 1.0 * delta is exact.
        old = beta[rows]
        floor = ll[rows] - rounding[rows]
        step = np.ones(live.size)
        while True:
            cand = old + step[:, None] * delta
            eta_cand = np.matmul(x, cand[:, :, None])[:, :, 0]
            ll_cand, rounding_cand = _log_likelihood(s[rows], eta_cand, t[rows], n_terms[rows])
            short = ~(ll_cand >= floor) & (step > 2.0**-30)
            if not short.any():
                break
            step[short] *= 0.5

        update = np.abs(cand - old).max(axis=1)
        beta[rows], ll[rows], rounding[rows] = cand, ll_cand, rounding_cand
        mu[rows] = inverse_logit(eta_cand)
        sep = ((np.abs(cand) > _SEPARATION_COEF).any(axis=1)
               | _probabilities_pinned(mu[rows], ones[rows], zeros[rows]))
        done = sep | (update < tol)
        status[live[sep]] = SEPARATED
        status[live[done & ~sep]] = CONVERGED
        live = live[~done]

    fits = status <= NOT_CONVERGED
    covariance, failed = _each_matrix(
        np.linalg.inv, _weighted_gram(x, t[fits] * (mu[fits] * (1.0 - mu[fits]))))
    variances = np.where(failed[:, None], np.inf, np.diagonal(covariance, axis1=1, axis2=2))
    std_errors = np.full((n_rows, m), np.nan)
    std_errors[fits] = np.sqrt(np.clip(variances, 0.0, None))
    beta[~fits], ll[~fits] = np.nan, np.nan
    return FitBatch(beta, std_errors, iterations, ll, status)


def _probabilities_pinned(mu: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    # complete separation, per row: with both classes occurring, every
    # occurring cell's fitted probability mu pinned to its own class; ones
    # and zeros mark the design rows with successes and with failures
    return (ones.any(axis=1) & zeros.any(axis=1)
            & ((mu > 1.0 - _PIN_EPS) | ~ones).all(axis=1)
            & ((mu < _PIN_EPS) | ~zeros).all(axis=1))


def relative_risk(beta1: float, baseline_p: float) -> float:
    """Fractional outcome change per unit predictor change.

    exp(b) / (1 + (exp(b) - 1) * p) - 1, the exact conversion of a logit
    coefficient at baseline prevalence p; approaches beta1 itself as both
    shrink.
    """
    if not 0.0 <= baseline_p < 1.0:
        raise ValueError(f"baseline_p must be in [0, 1), got {baseline_p}")
    eb = math.exp(beta1)
    return eb / (1.0 + (eb - 1.0) * baseline_p) - 1.0


def confidence_interval(b: float, s: float) -> tuple[float, float]:
    """Two-sided 95% normal-approximation interval of estimate b, std error s.

    The one interval rule of every pipeline; callers check convergence.
    """
    return (b - _Z95 * s, b + _Z95 * s)
