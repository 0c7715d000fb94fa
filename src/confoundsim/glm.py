"""Binary logistic regression by iteratively reweighted least squares.

Self-contained maximum-likelihood engine: Newton-Raphson on the Bernoulli
log-likelihood, optionally frequency-weighted, with step-halving, standard
errors from the inverse observed information, and deterministic separation
diagnostics.  One Newton loop fits a single weighting of a design or a
stack of them: the ensemble fits a block of replications, which share one
table of response patterns and differ only in its counts, as one batch.
Also houses the small link-function helpers and the relative-risk
conversion used by the reporting layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularDesignError",
    "NotConvergedError",
    "DesignMatrix",
    "FitResult",
    "logit",
    "inverse_logit",
    "fit_logistic",
    "relative_risk",
    "confidence_interval",
    "one_hot",
]

# |x| beyond this adds nothing to a float64 sigmoid; clamping avoids overflow
_LOGIT_CLAMP = 36.0

# any coefficient this large during iteration signals a separated fit
_SEPARATION_COEF = 30.0
_PIN_EPS = 1e-10

# two-sided 95% normal quantile, correctly rounded, for reported intervals
_Z95 = 1.959963984540054


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

    The clamp keeps exp() in range; past it the result is within one part
    in 1e15 of 0 or 1 anyway.  Accepts scalars or arrays.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(
        np.clip(np.asarray(x, dtype=np.float64), -_LOGIT_CLAMP, _LOGIT_CLAMP))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if scalar else out


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

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Output of one maximum-likelihood fit."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    separation_detected: bool
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.std_errors):
            raise ValueError("coefficients and std_errors must have equal length")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[r] @ b[r] for every row, as a stack of the 1-D products (same bits)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _weighted_gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # x.T @ (w[r][:, None] * x) for every weight row r, one matrix product
    # each, so a row's bits do not depend on the rows beside it
    return np.matmul(x.T, w[:, :, None] * x)


def _log_likelihood(fy: np.ndarray, eta: np.ndarray, f: np.ndarray,
                    n_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, sum f * (y*eta - log(1 + exp(eta))) with fy = f * y, and its rounding.

    The rounding bound is n * eps times the sum of the magnitudes added, the
    worst case for a sum of n terms, n being the row's nonzero weights; the
    value is stable via logaddexp.
    """
    softplus = (f * np.logaddexp(0.0, eta)).sum(axis=1)
    rounding = n_terms * np.finfo(np.float64).eps * (_row_dot(fy, np.abs(eta)) + softplus)
    return _row_dot(fy, eta) - softplus, rounding


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
                 weights=None) -> FitResult | list[FitResult | ValueError]:
    """Maximum-likelihood logistic fit of binary y on the given design.

    X may be a DesignMatrix or a plain 2-D array (taken as-is, no intercept
    added).  `weights`, when given, are frequency weights: row i stands for
    weights[i] identical observations, so a table of the distinct (y, x)
    rows with their counts gives the fit of the rows it counts.  Rows of
    weight zero are ignored; the observation count is the sum of the
    weights.  Converges when the largest absolute coefficient update drops
    below tol.  Separated fits are flagged, not raised; a rank-deficient
    design raises SingularDesignError.  max_iter must be at least 1 and
    tol a positive finite number.

    Weights of shape (R, n) fit R weightings of the one design together and
    return a list of R entries: row r's FitResult, or the ValueError (a
    SingularDesignError when the weights leave the design rank deficient)
    that a call with weights[r] alone would raise.  Each row keeps its own
    step-halving, convergence and separation test; zero weights stay in
    the sums as zeros, which can move a result's last digits from the call
    with weights[r] alone, and a row's bits do not depend on the others.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    design = X if isinstance(X, DesignMatrix) else DesignMatrix(
        np.asarray(X, dtype=np.float64))
    x = design.values
    yv = np.ascontiguousarray(np.asarray(y, dtype=np.float64).reshape(-1))
    n = x.shape[0]
    if yv.shape[0] != n:
        raise ValueError(f"y has {yv.shape[0]} rows, design has {n}")
    if not np.isin(yv, (0.0, 1.0)).all():
        raise ValueError("y entries must be 0 or 1")
    # every term is multiplied by its weight before the usual reduction; a
    # unit weight changes no bits, so unweighted fits are the weights=1 case
    if weights is None:
        f = np.ones(n)
    else:
        f = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
        if not (f.ndim in (1, 2) and f.shape[-1] == n and f.size):
            raise ValueError(f"weights must have shape ({n},) or (R, {n}) with "
                             f"R >= 1, got {f.shape}")
        if not (np.isfinite(f).all() and (f >= 0.0).all()):
            raise ValueError("weights must be finite and nonnegative")
    if f.ndim == 2:
        return _irls(x, yv, f, tol, max_iter, design.names)
    if not f.all():
        occurs = f > 0.0
        x, yv, f = x[occurs], yv[occurs], f[occurs]
    fit = _irls(x, yv, f[None], tol, max_iter, design.names)[0]
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _irls(x: np.ndarray, y: np.ndarray, f: np.ndarray, tol: float, max_iter: int,
          names: tuple[str, ...]) -> list[FitResult | ValueError]:
    """Newton-Raphson for every row of the (R, n) weight stack f at once.

    Each iteration makes one stacked gradient, Hessian and solve for the
    rows still iterating; a row leaves the stack when it converges, is
    separated or fails.
    """
    n_rows, m = f.shape[0], x.shape[1]
    fits: list[FitResult | ValueError | None] = [None] * n_rows
    occurs = f > 0.0
    n_obs = f.sum(axis=1)
    for r in np.flatnonzero(n_obs <= m):
        fits[r] = ValueError(
            f"need more observations ({n_obs[r]:g}) than regressors ({m})")
    live = np.flatnonzero(n_obs > m)
    # rank-revealing check on the Gram matrices; cheap (m x m) and it keeps
    # silently pseudo-inverted collinear confounders out of the results
    eigvals = np.linalg.eigvalsh(_weighted_gram(x, f[live]))
    deficient = eigvals[:, 0] <= eigvals[:, -1] * m * np.finfo(np.float64).eps
    for r in live[deficient]:
        fits[r] = SingularDesignError("design matrix is rank deficient")
    live = live[~deficient]

    fy = f * y
    n_terms = occurs.sum(axis=1)
    ones, zeros = occurs & (y == 1.0), occurs & (y == 0.0)
    beta = np.zeros((n_rows, m))
    eta = np.zeros(f.shape)
    mu = inverse_logit(eta)
    ll, rounding = _log_likelihood(fy, eta, f, n_terms)
    converged = np.zeros(n_rows, dtype=bool)
    separated = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)

    for iteration in range(1, max_iter + 1):
        if not live.size:
            break
        # while every row iterates, whole-array views stand in for copies
        rows = slice(None) if live.size == n_rows else live
        iterations[rows] = iteration
        fitted = mu[rows]
        grad = np.matmul(x.T, (f[rows] * (y - fitted))[:, :, None])[:, :, 0]
        hess = _weighted_gram(x, f[rows] * (fitted * (1.0 - fitted)))
        delta, singular = _each_matrix(np.linalg.solve, hess, grad[:, :, None])
        if singular.any():
            for r in live[singular]:
                fits[r] = SingularDesignError("weighted normal equations are singular")
            live, delta = live[~singular], delta[~singular]
            rows = live
        delta = delta[:, :, 0]

        # Newton step with halving whenever the log-likelihood would drop; a
        # drop within the rounding of the current sum is no drop, so near the
        # optimum, where a step's gain is below that rounding, the full step
        # is taken.  Each row halves its own step until it accepts it.
        old = beta[rows].copy()
        step = np.ones(live.size)
        cand = old + delta
        eta_cand = np.matmul(x, cand[:, :, None])[:, :, 0]
        ll_cand, rounding_cand = _log_likelihood(fy[rows], eta_cand, f[rows], n_terms[rows])
        short = np.flatnonzero(~(ll_cand >= ll[rows] - rounding[rows]))
        while short.size:
            step[short] *= 0.5
            at = live[short]
            cand[short] = old[short] + step[short, None] * delta[short]
            eta_cand[short] = np.matmul(x, cand[short][:, :, None])[:, :, 0]
            ll_cand[short], rounding_cand[short] = _log_likelihood(
                fy[at], eta_cand[short], f[at], n_terms[at])
            short = short[~((ll_cand[short] >= ll[at] - rounding[at])
                            | (step[short] <= 2.0**-30))]

        update = np.abs(cand - old).max(axis=1)
        beta[rows], eta[rows], ll[rows], rounding[rows] = cand, eta_cand, ll_cand, rounding_cand
        mu[rows] = inverse_logit(eta_cand)
        sep = ((np.abs(cand) > _SEPARATION_COEF).any(axis=1)
               | _probabilities_pinned(mu[rows], ones[rows], zeros[rows]))
        done = sep | (update < tol)
        separated[live[sep]] = True
        converged[live[done & ~sep]] = True
        live = live[~done]

    usable = np.flatnonzero([fit is None for fit in fits])
    covariance, failed = _each_matrix(
        np.linalg.inv, _weighted_gram(x, f[usable] * (mu[usable] * (1.0 - mu[usable]))))
    std_errors = np.sqrt(np.clip(np.diagonal(covariance, axis1=1, axis2=2), 0.0, None))
    std_errors[failed] = np.inf
    for r, se in zip(usable, std_errors):
        fits[r] = FitResult(
            coefficients=beta[r],
            std_errors=se,
            converged=bool(converged[r]),
            iterations=int(iterations[r]),
            log_likelihood=float(ll[r]),
            separation_detected=bool(separated[r]),
            names=names,
        )
    return fits


def _probabilities_pinned(mu: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    # complete separation, per row: with both classes occurring, every
    # occurring cell's fitted probability mu pinned to its own class; ones
    # and zeros mark each row's occurring cells of y = 1 and y = 0
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


def one_hot(values, reference: int) -> tuple[np.ndarray, list[int]]:
    """Indicator columns for every category except the reference.

    Returns (matrix, kept_categories); the reference category encodes as an
    all-zero row.  Categories are the sorted distinct values observed.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("one_hot expects a 1-D vector")
    cats = np.unique(arr)
    if cats.size < 2:
        raise ValueError("one_hot needs at least 2 distinct categories")
    if reference not in cats:
        raise ValueError(f"reference category {reference} not present")
    kept = [int(c) for c in cats if c != reference]
    cols = np.column_stack([(arr == c).astype(np.float64) for c in kept])
    return cols, kept
