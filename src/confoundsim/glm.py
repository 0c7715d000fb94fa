"""Binary logistic regression by iteratively reweighted least squares.

Self-contained maximum-likelihood engine: Newton-Raphson on the Bernoulli
log-likelihood, optionally frequency-weighted, with step-halving, standard
errors from the inverse observed information, and deterministic separation
diagnostics.  Also houses the small link-function helpers and the
relative-risk conversion used by the reporting layers.
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


def _log_likelihood(fy: np.ndarray, eta: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """sum f * (y*eta - log(1 + exp(eta))) with fy = f * y, and its rounding.

    The rounding bound is n * eps times the sum of the magnitudes added, the
    worst case for a sum of n terms; the value is stable via logaddexp.
    """
    softplus = (f * np.logaddexp(0.0, eta)).sum()
    rounding = eta.size * np.finfo(np.float64).eps * float(fy @ np.abs(eta) + softplus)
    return float(fy @ eta - softplus), rounding


def _check_rank(x: np.ndarray, f: np.ndarray) -> None:
    # rank-revealing check on the Gram matrix; cheap (m x m) and it keeps
    # silently pseudo-inverted collinear confounders out of the results
    gram = x.T @ (f[:, None] * x)
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= eigvals[-1] * x.shape[1] * np.finfo(np.float64).eps:
        raise SingularDesignError("design matrix is rank deficient")


def fit_logistic(y, X, tol: float = 1e-8, max_iter: int = 100,
                 weights=None) -> FitResult:
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
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    design = X if isinstance(X, DesignMatrix) else DesignMatrix(
        np.asarray(X, dtype=np.float64))
    x = design.values
    yv = np.ascontiguousarray(np.asarray(y, dtype=np.float64).reshape(-1))
    n, m = x.shape
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
        if f.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {f.shape}")
        if not (np.isfinite(f).all() and (f >= 0.0).all()):
            raise ValueError("weights must be finite and nonnegative")
        if not f.all():
            occurs = f > 0.0
            x, yv, f = x[occurs], yv[occurs], f[occurs]
    n_obs = f.sum()
    if n_obs <= m:
        raise ValueError(f"need more observations ({n_obs:g}) than regressors ({m})")
    _check_rank(x, f)

    fy = f * yv
    beta = np.zeros(m)
    eta = np.zeros(x.shape[0])
    ll, rounding = _log_likelihood(fy, eta, f)
    converged = False
    separated = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        mu = inverse_logit(eta)
        w = f * (mu * (1.0 - mu))
        grad = x.T @ (f * (yv - mu))
        hess = x.T @ (w[:, None] * x)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("weighted normal equations are singular") from exc

        # Newton step with halving whenever the log-likelihood would drop; a
        # drop within the rounding of the current sum is no drop, so near the
        # optimum, where a step's gain is below that rounding, the full step
        # is taken
        step = 1.0
        while True:
            candidate = beta + step * delta
            eta_cand = x @ candidate
            ll_cand, rounding_cand = _log_likelihood(fy, eta_cand, f)
            if ll_cand >= ll - rounding or step <= 2.0**-30:
                break
            step *= 0.5

        update = float(np.max(np.abs(candidate - beta)))
        beta, eta, ll, rounding = candidate, eta_cand, ll_cand, rounding_cand

        if np.any(np.abs(beta) > _SEPARATION_COEF) or _probabilities_pinned(yv, eta):
            separated = True
            break
        if update < tol:
            converged = True
            break

    mu = inverse_logit(eta)
    w = f * (mu * (1.0 - mu))
    hess = x.T @ (w[:, None] * x)
    try:
        covariance = np.linalg.inv(hess)
        std_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    except np.linalg.LinAlgError:
        std_errors = np.full(m, np.inf)

    return FitResult(
        coefficients=beta,
        std_errors=std_errors,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        separation_detected=separated,
        names=design.names,
    )


def _probabilities_pinned(y: np.ndarray, eta: np.ndarray) -> bool:
    # complete separation: every fitted probability pinned to its own class
    mu = inverse_logit(eta)
    ones = y == 1.0
    if not ones.any() or ones.all():
        return False
    return bool((mu[ones] > 1.0 - _PIN_EPS).all() and (mu[~ones] < _PIN_EPS).all())


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
