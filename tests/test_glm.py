import dataclasses
import math
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confoundsim import cli, glm
from confoundsim.glm import (DesignMatrix, FitResult, SingularDesignError,
                             confidence_interval, fit_logistic, inverse_logit,
                             logit, relative_risk)

from conftest import dataset_from_2x2, log_odds_ratio, log_odds_ratio_se

# extended-precision reference values (mpmath, 50 digits, rounded to float64)
INV_LOGIT_36 = 0.9999999999999998
INV_LOGIT_NEG_36 = 2.3195228302435686e-16
RR_005_002 = 0.0501942042108713  # exact exp(0.05)/(1+(exp(0.05)-1)*0.02) - 1


class TestLinks:
    def test_logit_at_half(self):
        assert logit(0.5) == 0.0

    def test_round_trip(self):
        assert inverse_logit(logit(0.3)) == pytest.approx(0.3, abs=1e-12)

    @given(st.floats(min_value=1e-4, max_value=1 - 1e-4))
    def test_mutual_inverses(self, p):
        assert inverse_logit(logit(p)) == pytest.approx(p, abs=1e-12)

    @given(st.floats(min_value=-30, max_value=30))
    def test_inverse_logit_monotone_in_range(self, x):
        assert inverse_logit(x) < inverse_logit(x + 0.5)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                logit(bad)

    def test_clamp_against_extended_precision(self):
        assert inverse_logit(36.0) == pytest.approx(INV_LOGIT_36, abs=1e-17)
        assert inverse_logit(-36.0) == pytest.approx(INV_LOGIT_NEG_36, rel=1e-12)
        # beyond the clamp the value saturates instead of overflowing
        assert inverse_logit(1000.0) == inverse_logit(36.0)
        assert abs(inverse_logit(1000.0) - 1.0) < 1e-15
        assert abs(inverse_logit(-1000.0)) < 1e-15

    def test_same_bits_as_the_two_branch_sigmoid(self):
        # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, on
        # the clamped input: signed zeros, infinities, subnormals, huge values
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-300, -1e-300,
                 36.0, -36.0, 35.9999, -35.9999, 1e308, -1e308, 0.5, -0.5]
        xs = np.concatenate([edges, np.random.default_rng(3).normal(scale=12.0, size=2000)])
        c = np.clip(xs, -36.0, 36.0)
        want = np.where(c >= 0, 1.0 / (1.0 + np.exp(-c)), np.exp(c) / (1.0 + np.exp(c)))
        assert inverse_logit(xs).tobytes() == want.tobytes()
        assert np.array([inverse_logit(float(v)) for v in xs]).tobytes() == want.tobytes()
        assert inverse_logit(xs.reshape(4, -1)).tobytes() == want.tobytes()

    def test_array_input(self):
        xs = np.array([-2.0, 0.0, 2.0])
        out = inverse_logit(xs)
        assert out.shape == (3,)
        assert out[1] == 0.5
        back = logit(out)
        assert np.allclose(back, xs, atol=1e-12)


class TestDesignMatrix:
    def test_rejects_all_zero_column(self):
        with pytest.raises(ValueError, match="all zero"):
            DesignMatrix(np.column_stack([np.zeros(10), np.ones(10)]))

    def test_all_zero_column_is_a_rank_defect_named_by_its_name(self):
        x = np.arange(1, 11.0)
        with pytest.raises(SingularDesignError, match="column 'DEAD' is all zero"):
            DesignMatrix(np.column_stack([np.ones(10), x, np.zeros(10)]),
                         ("intercept", "X", "DEAD"))
        with pytest.raises(SingularDesignError, match="column 2 is all zero"):
            DesignMatrix(np.column_stack([np.ones(10), x, np.zeros(10)]))


class TestFitLogistic:
    def test_intercept_only_recovers_logit_of_mean(self):
        y = np.concatenate([np.ones(16), np.zeros(48)])  # mean 0.25
        dm = DesignMatrix(np.ones((64, 1)))
        fit = fit_logistic(y, dm)
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(logit(0.25), abs=1e-8)

    def test_two_by_two_matches_log_odds_ratio(self):
        a, b, c, d = 14, 6, 5, 19
        y, x = dataset_from_2x2(a, b, c, d)
        fit = fit_logistic(y, DesignMatrix(np.column_stack([np.ones(len(x)), x])))
        assert fit.converged
        assert fit.coefficients[1] == pytest.approx(log_odds_ratio(a, b, c, d), abs=1e-6)
        assert fit.std_errors[1] == pytest.approx(log_odds_ratio_se(a, b, c, d), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20),
           st.integers(1, 20))
    def test_two_by_two_oracle_property(self, a, b, c, d):
        y, x = dataset_from_2x2(a, b, c, d)
        fit = fit_logistic(y, DesignMatrix(np.column_stack([np.ones(len(x)), x])))
        assert fit.converged
        assert fit.coefficients[1] == pytest.approx(log_odds_ratio(a, b, c, d), abs=1e-6)
        assert fit.std_errors[1] == pytest.approx(log_odds_ratio_se(a, b, c, d), abs=1e-6)

    def test_perfect_predictor_flags_separation(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=200).astype(float)
        fit = fit_logistic(x.copy(), DesignMatrix(np.column_stack([np.ones(len(x)), x])))
        assert fit.separation_detected
        assert not fit.converged

    def test_singular_design_raises(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=100).astype(float)
        y = rng.integers(0, 2, size=100).astype(float)
        with pytest.raises(SingularDesignError):
            fit_logistic(y, DesignMatrix(np.column_stack([np.ones(100), x, x])))

    def test_score_equations_hold_at_solution(self):
        rng = np.random.default_rng(6)
        n = 400
        x1 = rng.normal(size=n)
        x2 = rng.integers(0, 2, size=n).astype(float)
        eta = -0.3 + 0.8 * x1 - 0.5 * x2
        y = (rng.random(n) < inverse_logit(eta)).astype(float)
        dm = DesignMatrix(np.column_stack([np.ones(n), x1, x2]))
        fit = fit_logistic(y, dm)
        assert fit.converged
        residual = y - inverse_logit(dm.values @ fit.coefficients)
        score = dm.values.T @ residual
        assert np.max(np.abs(score)) < 1e-6

    def test_last_step_below_the_rounding_is_taken_in_full(self):
        # on this design the last Newton step gains less than the rounding
        # of the log-likelihood sum; halving it away stopped the fit 2.4e-8
        # short of the optimum while it reported convergence
        rng = np.random.default_rng(26)
        latent = rng.integers(0, 2, 2000)
        agree = np.where(latent == 1, 0.8, 0.2)[:, None]
        rows = (rng.random((2000, 4)) < agree).astype(float)
        y, x = rows[:, 0], rows[:, 1:]
        fit = fit_logistic(y, x)
        assert fit.converged
        mu = inverse_logit(x @ fit.coefficients)
        hess = x.T @ ((mu * (1.0 - mu))[:, None] * x)
        newton_step = np.linalg.solve(hess, x.T @ (y - mu))
        assert np.max(np.abs(newton_step)) < 1e-12

    def test_first_iterate_is_the_newton_step_from_zero(self):
        # the first Hessian is taken from the rank check's Gram matrix
        rng = np.random.default_rng(13)
        x = np.column_stack([np.ones(300), rng.normal(size=(300, 3))])
        y = (rng.random(300) < inverse_logit(x @ [0.2, 0.1, -0.1, 0.05])).astype(float)
        trials = rng.integers(1, 9, 300).astype(float)
        for s, t in ((y, None), (y * trials, trials)):
            w = np.ones(300) if t is None else t
            step = np.linalg.solve(x.T @ ((0.25 * w)[:, None] * x), x.T @ (s - 0.5 * w))
            first = fit_logistic(s, x, max_iter=1, trials=t)
            assert np.allclose(first.coefficients, step, rtol=1e-12, atol=0.0)

    def test_first_step_has_the_bits_of_the_quarter_weighted_gram(self):
        # at beta = 0 every mu is exactly 0.5; the first Newton step solves
        # the Gram matrix weighted by t * 0.25, bit for bit, unweighted and
        # weighted, one table or five, at scales far from underflow
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m, rows = rng.integers(20, 80), rng.integers(1, 6), rng.integers(1, 6)
            x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, m))
            t = rng.integers(1, 50, (rows, n)).astype(float)
            s = rng.binomial(t.astype(int), 0.5).astype(float)
            for succ, tri in ((s[0] >= t[0] / 2, None), (s, t)):
                succ = succ.astype(float)
                trials = np.ones((1, n)) if tri is None else tri
                grad = np.matmul(x.T, (succ.reshape(trials.shape) - trials * 0.5)[:, :, None])
                step = np.linalg.solve(glm._weighted_gram(x, trials * 0.25), grad)[:, :, 0]
                fit = fit_logistic(succ, x, max_iter=1, trials=tri)
                assert np.array_equal(np.atleast_2d(fit.coefficients), step)

    def test_log_likelihood_non_decreasing_over_iterations(self):
        rng = np.random.default_rng(7)
        n = 300
        x = rng.normal(size=(n, 3))
        y = (rng.random(n) < inverse_logit(x @ [1.5, -2.0, 0.7])).astype(float)
        dm = DesignMatrix(np.column_stack([np.ones(n), x]))
        # refitting with a growing iteration cap replays the same trajectory
        lls = [fit_logistic(y, dm, max_iter=i).log_likelihood for i in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(lls, lls[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        n, m = 200, 4
        x = rng.normal(size=(n, m))
        y = (rng.random(n) < 0.4).astype(float)

        def loglike(beta):
            eta = x @ beta
            return float(y @ eta - np.logaddexp(0.0, eta).sum())

        beta = rng.normal(scale=0.5, size=m)
        analytic = x.T @ (y - inverse_logit(x @ beta))
        h = 1e-6
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd = (loglike(beta + e) - loglike(beta - e)) / (2 * h)
            assert fd == pytest.approx(analytic[j], rel=1e-5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.array([0.0, 2.0]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            fit_logistic(np.zeros(2), np.ones((2, 3)))  # n <= m

    @pytest.mark.parametrize("setting, message", [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": "3"}, "max_iter must be an integer, got '3'"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"tol": -1.0}, "tol must be a positive finite number"),
        ({"tol": 0.0}, "tol must be a positive finite number"),
        ({"tol": math.nan}, "tol must be a positive finite number"),
        ({"tol": math.inf}, "tol must be a positive finite number"),
    ])
    def test_settings_under_which_no_fit_runs_rejected(self, setting, message):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            fit_logistic(y, np.ones((5, 1)), **setting)


def _cell_counts(y, x):
    """Distinct (y, x) rows of 0/1 arrays and how often each occurs."""
    codes = np.column_stack([y, x]).astype(np.int64) @ (1 << np.arange(x.shape[1] + 1))
    counts = np.bincount(codes)
    cells = np.flatnonzero(counts)
    bits = ((cells[:, None] >> np.arange(x.shape[1] + 1)) & 1).astype(float)
    return bits[:, 0], bits[:, 1:], counts[cells].astype(float)


def _pattern_counts(y, x):
    """Distinct rows of 0/1 regressors x with their (successes, trials) of y."""
    codes = x.astype(np.int64) @ (1 << np.arange(x.shape[1]))
    trials = np.bincount(codes)
    patterns = np.flatnonzero(trials)
    bits = ((patterns[:, None] >> np.arange(x.shape[1])) & 1).astype(float)
    successes = np.bincount(codes, weights=y)[patterns]
    return bits, successes, trials[patterns].astype(float)


def _cell_expansion(x, successes, trials):
    """A table's (y, x) cells, the y = 1 cells first, as successes out of
    trials: every cell's successes are its trials or none."""
    failures = trials - successes
    return (np.concatenate([x, x]),
            np.concatenate([successes, np.zeros_like(failures)], axis=-1),
            np.concatenate([successes, failures], axis=-1))


def _newton_polish(beta, y, x):
    """One unweighted Newton step on the raw rows, and the standard errors there.

    From a converged fit this lands on the exact optimum to rounding, so it
    removes whatever the stopping rule left of the last step.
    """
    mu = inverse_logit(x @ beta)
    hess = x.T @ ((mu * (1.0 - mu))[:, None] * x)
    polished = beta + np.linalg.solve(hess, x.T @ (y - mu))
    mu = inverse_logit(x @ polished)
    hess = x.T @ ((mu * (1.0 - mu))[:, None] * x)
    return polished, np.sqrt(np.diag(np.linalg.inv(hess)))


# a Newton step whose log-likelihood gain is below the rounding of the sum is
# taken in full, so both fits stop at the optimum, not one step short of it
_STOPPING_RESOLUTION = 1e-8


def _raw_rows(n, k, p, seed):
    """n rows of k + 1 binary columns that agree with a latent coin w.p. p."""
    rng = np.random.default_rng(seed)
    latent = rng.integers(0, 2, n)
    agree = np.where(latent == 1, p, 1.0 - p)[:, None]
    rows = (rng.random((n, k + 1)) < agree).astype(float)
    return rows[:, 0], rows[:, 1:]


def _assert_table_fit_matches_raw_rows(y, x, ts, tx, tt):
    """The fit of successes ts out of trials tt on tx against the raw rows'."""
    try:
        raw = fit_logistic(y, x)
    except SingularDesignError:
        with pytest.raises(SingularDesignError):
            fit_logistic(ts, tx, trials=tt)
        return
    table = fit_logistic(ts, tx, trials=tt)
    assert table.converged == raw.converged
    assert table.separation_detected == raw.separation_detected
    # the same Newton iterates, up to rounding, until the stopping rule
    for i in (1, 2):
        early_raw = fit_logistic(y, x, max_iter=i)
        early_table = fit_logistic(ts, tx, max_iter=i, trials=tt)
        assert np.allclose(early_table.coefficients, early_raw.coefficients,
                           rtol=0.0, atol=1e-10)
        assert np.allclose(early_table.std_errors, early_raw.std_errors,
                           rtol=0.0, atol=1e-10)
    if raw.converged:
        assert np.allclose(table.coefficients, raw.coefficients,
                           rtol=0.0, atol=_STOPPING_RESOLUTION)
        assert np.allclose(table.std_errors, raw.std_errors,
                           rtol=0.0, atol=_STOPPING_RESOLUTION)
        assert table.log_likelihood == pytest.approx(raw.log_likelihood,
                                                     rel=1e-12)
        # both stop at the same optimum: 1e-8 once the last step is taken
        for got, want in zip(_newton_polish(table.coefficients, y, x),
                             _newton_polish(raw.coefficients, y, x)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-8)


class TestFrequencyWeights:
    """Successes out of trials per design row stand for the rows they count."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 2000), st.integers(1, 9),
           st.floats(0.55, 0.95), st.integers(0, 2**32 - 1))
    def test_pattern_table_fit_matches_raw_rows(self, n, k, p, seed):
        # frequency-weighted 0/1 rows: w rows of outcome y are y * w
        # successes out of w trials
        y, x = _raw_rows(n, k, p, seed)
        cy, cx, counts = _cell_counts(y, x)
        _assert_table_fit_matches_raw_rows(y, x, cy * counts, cx, counts)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 2000), st.integers(1, 9),
           st.floats(0.55, 0.95), st.integers(0, 2**32 - 1))
    def test_distinct_regressor_rows_fit_matches_raw_rows(self, n, k, p, seed):
        y, x = _raw_rows(n, k, p, seed)
        tx, successes, trials = _pattern_counts(y, x)
        _assert_table_fit_matches_raw_rows(y, x, successes, tx, trials)

    def test_separated_design_flagged_in_both(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(200, 2)).astype(float)
        y = x[:, 0].copy()
        tx, successes, trials = _pattern_counts(y, x)
        raw = fit_logistic(y, x)
        table = fit_logistic(successes, tx, trials=trials)
        assert raw.separation_detected and table.separation_detected
        assert not raw.converged and not table.converged

    def test_singular_design_raises_in_both(self):
        rng = np.random.default_rng(5)
        col = rng.integers(0, 2, size=100).astype(float)
        x = np.column_stack([col, col, rng.integers(0, 2, size=100)])
        y = rng.integers(0, 2, size=100).astype(float)
        tx, successes, trials = _pattern_counts(y, x)
        with pytest.raises(SingularDesignError):
            fit_logistic(y, x)
        with pytest.raises(SingularDesignError):
            fit_logistic(successes, tx, trials=trials)

    def test_unit_weights_give_identical_bits(self):
        # one trial per row is the call without trials, bit for bit
        rng = np.random.default_rng(6)
        n = 300
        x = np.column_stack([np.ones(n), rng.normal(size=n),
                             rng.integers(0, 2, n)])
        y = (rng.random(n) < inverse_logit(x @ [-0.4, 0.9, 0.5])).astype(float)
        plain = fit_logistic(y, x)
        unit = fit_logistic(y, x, trials=np.ones(n))
        assert plain.coefficients.tobytes() == unit.coefficients.tobytes()
        assert plain.std_errors.tobytes() == unit.std_errors.tobytes()
        assert plain.log_likelihood == unit.log_likelihood
        assert plain.iterations == unit.iterations

    def test_zero_weight_rows_are_ignored(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=(120, 2)).astype(float)
        y = rng.integers(0, 2, size=120).astype(float)
        trials = np.ones(120)
        trials[::3] = 0.0
        kept = trials > 0
        a = fit_logistic(y * trials, x, trials=trials)
        b = fit_logistic(y[kept], x[kept])
        assert np.allclose(a.coefficients, b.coefficients, rtol=0.0, atol=1e-12)

    def test_weight_validation(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        x = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])
        # a 2-D trials stack is a batch (TestBatchedWeights); its rows must
        # match the design, and there must be at least one
        for bad in ([1, 1, -1, 1, 1], [1, 1, np.nan, 1, 1], [1, 1, np.inf, 1, 1],
                    [1, 1, 1, 1], [[1, 1, 1, 1]], [[[1, 1, 1, 1, 1]]], 1.0,
                    np.ones((0, 5)), [[1, 1, 1, 1, 1], [1, 1, -1, 1, 1]]):
            trials = np.array(bad, dtype=float)
            successes = np.zeros(trials.shape)
            with pytest.raises(ValueError, match="trials"):
                fit_logistic(successes, x, trials=trials)
        # y must have the shape of the trials
        with pytest.raises(ValueError, match="shape of trials"):
            fit_logistic(y, x, trials=np.ones((2, 5)))

    @pytest.mark.parametrize("successes", [
        [0, 1, 3, 0, 1],          # more successes than trials
        [0, 1, -1, 0, 1],         # negative
        [0, 1, -0.5, 0, 1],
        [0, 1, 2.5, 0, 1],
        [0, 1, np.nan, 0, 1],     # not finite
        [0, 1, np.inf, 0, 1],
        [0, 1, -np.inf, 0, 1],
    ])
    def test_successes_outside_zero_to_trials_rejected(self, successes):
        x = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])
        trials = np.array([1.0, 2.0, 2.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="0 <= y <= trials|finite"):
            fit_logistic(np.array(successes, dtype=float), x, trials=trials)
        with pytest.raises(ValueError, match="0 <= y <= trials|finite"):
            fit_logistic(np.array([successes, [0.0] * 5]), x,
                         trials=np.stack([trials, trials]))

    def test_weights_keyword_is_gone(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        x = np.array([[1.0], [1.0], [0.0], [1.0], [1.0]])
        with pytest.raises(TypeError, match="weights"):
            fit_logistic(y, x, weights=np.ones(5))

    def test_observation_count_is_the_weight_sum(self):
        y = np.array([0.0, 0.5, 0.5, 0.0])
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="more observations"):
            fit_logistic(y, x, trials=np.full(4, 0.5))


# the exception a one-table call raises for a table that is no fit, by the
# status its row of a batch reports
_NO_FIT = {
    glm.TOO_FEW_OBSERVATIONS: (ValueError, "need more observations ("),
    glm.RANK_DEFICIENT: (SingularDesignError, "design matrix is rank deficient"),
    glm.SINGULAR_NORMAL: (SingularDesignError, "weighted normal equations are singular"),
}


class Outcome(NamedTuple):
    """One table's fit: values are None for a table that is no fit."""

    status: int
    iterations: int | None
    coefficients: np.ndarray | None
    std_errors: np.ndarray | None
    log_likelihood: float | None

    def bits(self):
        """Everything the outcome reports, as exact values."""
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in self)


def _row(batch, r):
    """Row r of a FitBatch; a row that is no fit must hold NaN values."""
    status = int(batch.status[r])
    values = (batch.coefficients[r], batch.std_errors[r], batch.log_likelihood[r])
    if status in _NO_FIT:
        assert all(np.isnan(v).all() for v in values)
        return Outcome(status, None, None, None, None)
    return Outcome(status, int(batch.iterations[r]), *values[:2], float(values[2]))


def _one(fit):
    """A one-table call's FitResult or exception as the Outcome of its row."""
    if isinstance(fit, FitResult):
        status = (glm.SEPARATED if fit.separation_detected
                  else glm.CONVERGED if fit.converged else glm.NOT_CONVERGED)
        return Outcome(status, fit.iterations, fit.coefficients, fit.std_errors,
                       fit.log_likelihood)
    [status] = [code for code, (kind, message) in _NO_FIT.items()
                if type(fit) is kind and str(fit).startswith(message)]
    return Outcome(status, None, None, None, None)


def _batch_bits(batch, rows=slice(None)):
    """Every array of a FitBatch, restricted to rows, as exact bytes."""
    return [getattr(batch, f.name)[rows].tobytes() for f in dataclasses.fields(batch)]


def _one_fit(y, x, **kwargs):
    """The Outcome of a one-table call, which returns a fit or raises."""
    try:
        return _one(fit_logistic(y, x, **kwargs))
    except ValueError as exc:
        return _one(exc)


def _batch_case(data, patterns=None):
    """A design (every 0/1 pattern, or an intercept and normal columns) and
    an (R, n) stack of successes out of trials, a third of the trials zero.

    patterns=True or False picks the design instead of drawing the choice.
    """
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="pattern table") if patterns is None else patterns:
        k = data.draw(st.integers(1, 5), label="k")
        x = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(float)
    else:
        n = data.draw(st.integers(4, 60), label="n")
        m = data.draw(st.integers(1, 4), label="m")
        x = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
    rows = data.draw(st.integers(1, 7), label="R")
    trials = rng.integers(1, data.draw(st.sampled_from([3, 40, 2000])), (rows, len(x)))
    trials[rng.random(trials.shape) < 1 / 3] = 0
    # a row's success probability is often 0 or 1, as in a table of 0/1 cells
    prob = np.clip(rng.uniform(-0.5, 1.5, len(x)), 0.0, 1.0)
    successes = rng.binomial(trials, prob)
    return x, successes.astype(float), trials.astype(float)


def _assert_same_outcome(got, want, rtol=1e-12, atol=1e-12):
    """Equal status and iterations, and values within tolerance."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if got.status in _NO_FIT or got.status == glm.SEPARATED:
        # no values to compare; the iterates of a separated fit run off
        # toward infinity along a flat ridge, so their last digits are no
        # estimate
        return
    for a, b in ((got.coefficients, want.coefficients),
                 (got.std_errors, want.std_errors),
                 (got.log_likelihood, want.log_likelihood)):
        assert np.allclose(a, b, rtol=rtol, atol=atol)


def _no_estimate(outcome):
    """Whether a fit stopped unconverged: separated, at max_iter or on
    singular normal equations."""
    return outcome.status in (glm.SEPARATED, glm.NOT_CONVERGED, glm.SINGULAR_NORMAL)


class TestBatchedWeights:
    """2-D trials fit every table of an (R, n) stack in one Newton loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_single_row_stack_is_the_one_dimensional_call(self, data):
        x, successes, trials = _batch_case(data)
        # zero trials included, as the 1-D call keeps them too
        stacked = fit_logistic(successes[:1], x, trials=trials[:1])
        assert _row(stacked, 0).bits() == _one_fit(successes[0], x, trials=trials[0]).bits()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, data):
        x, successes, trials = _batch_case(data)
        whole = fit_logistic(successes, x, trials=trials)
        order = data.draw(st.permutations(range(len(trials))), label="order")
        permuted = fit_logistic(successes[order], x, trials=trials[order])
        assert _batch_bits(permuted) == _batch_bits(whole, order)
        cut = data.draw(st.integers(0, len(trials)), label="cut")
        parts = [_batch_bits(fit_logistic(successes[rows], x, trials=trials[rows]))
                 for rows in (slice(None, cut), slice(cut, None)) if len(trials[rows])]
        assert [b"".join(field) for field in zip(*parts)] == _batch_bits(whole)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_match_one_dimensional_fits(self, data):
        x, successes, trials = _batch_case(data)
        max_iter = data.draw(st.sampled_from([2, 100]), label="max_iter")
        batch = fit_logistic(successes, x, trials=trials, max_iter=max_iter)
        assert len(batch.status) == len(trials)
        for r, (s, t) in enumerate(zip(successes, trials)):
            _assert_same_outcome(_row(batch, r), _one_fit(s, x, trials=t, max_iter=max_iter))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_matches_its_cell_expansion(self, data):
        # a row of s successes out of t trials is the (y, x) cells it
        # stands for: t - s rows of y = 0 and s of y = 1 on the same x.  On
        # 0/1 patterns; a real-valued design as ill-conditioned as 4 rows
        # by 4 columns can move the two forms' iterates 2e-12 apart
        x, successes, trials = _batch_case(data, patterns=True)
        max_iter = data.draw(st.sampled_from([2, 100]), label="max_iter")
        cx, cs, ct = _cell_expansion(x, successes, trials)
        batch = fit_logistic(successes, x, trials=trials, max_iter=max_iter)
        cells = fit_logistic(cs, cx, trials=ct, max_iter=max_iter)
        pairs = [(_row(batch, r), _row(cells, r)) for r in range(len(trials))] + [
            (_one_fit(successes[0], x, trials=trials[0], max_iter=max_iter),
             _one_fit(cs[0], cx, trials=ct[0], max_iter=max_iter))]
        for got, want in pairs:
            if max_iter == 100 and (_no_estimate(got) or _no_estimate(want)):
                # a fit that runs off toward infinity stops when it sees a
                # pinned probability, its Hessian becomes singular or it
                # reaches max_iter; the two sums differ in their last
                # digits, and along the ridge so can the iterates and the
                # way the fit stops
                assert _no_estimate(got) and _no_estimate(want)
                continue
            _assert_same_outcome(got, want)

    def test_mixed_batch_keeps_each_rows_outcome(self):
        x = ((np.arange(4)[:, None] >> np.arange(2)) & 1).astype(float)
        x0 = x[:, 0] == 1
        balanced = (np.full(4, 25.0), np.full(4, 50.0))              # optimum at 0
        strong = (np.where(x0, 1e6, 1.0), np.full(4, 1e6 + 1.0))      # needs many steps
        empty = (np.where(x[:, 1] == 1, 0.0, 25.0),                  # column 2 all zero
                 np.where(x[:, 1] == 1, 0.0, 50.0))
        separated = (np.where(x0, 20.0, 0.0), np.full(4, 20.0))      # y = x1 exactly
        too_few = (np.array([1.0, 0, 0, 0]), np.array([2.0, 0, 0, 0]))  # 2 obs, 2 columns
        successes, trials = (np.stack(part) for part in zip(
            balanced, strong, empty, separated, too_few))
        # the separated row is flagged at iteration 15; the strong one
        # would converge at iteration 18
        batch = fit_logistic(successes, x, trials=trials, max_iter=16)
        assert batch.status.tolist() == [
            glm.CONVERGED, glm.NOT_CONVERGED, glm.RANK_DEFICIENT, glm.SEPARATED,
            glm.TOO_FEW_OBSERVATIONS]
        assert batch.iterations[0] == 1 and batch.iterations[1] == 16
        for r in (2, 4):
            # a row that is no fit holds NaN values
            assert np.isnan(batch.coefficients[r]).all()
            assert np.isnan(batch.std_errors[r]).all()
            assert np.isnan(batch.log_likelihood[r])
        for r, (s, t) in enumerate(zip(successes, trials)):
            # the 1-D call's exception class and message give the row's status
            want = _one_fit(s, x, trials=t, max_iter=16)
            got = _row(batch, r)
            assert (got.status, got.iterations) == (want.status, want.iterations)
            if got.status not in _NO_FIT:
                assert np.allclose(got.coefficients, want.coefficients,
                                   rtol=1e-12, atol=1e-12)
        with pytest.raises(SingularDesignError):
            fit_logistic(*empty[:1], x, trials=empty[1])

    def test_an_all_zero_design_column_raises_for_the_whole_batch(self):
        # a check on the shared design is no row status: it raises before any fit
        x = np.column_stack([np.ones(4), np.zeros(4)])
        with pytest.raises(SingularDesignError) as info:
            fit_logistic(np.full((3, 4), 5.0), x, trials=np.full((3, 4), 10.0))
        assert str(info.value) == "column 1 is all zero"

    def test_a_singular_matrix_fails_only_its_own_row(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 3, 3))
        a[2] = 0.0
        b = rng.normal(size=(4, 3, 1))
        out, failed = glm._each_matrix(np.linalg.solve, a, b)
        assert failed.tolist() == [False, False, True, False]
        assert np.isnan(out[2]).all()
        for r in (0, 1, 3):
            assert out[r].tobytes() == np.linalg.solve(a[r], b[r]).tobytes()


# a design on which iteration 6's full Newton step lowers the
# log-likelihood, so the fit halves that step (twice): an intercept and two
# Cauchy draws rounded to one decimal, 8 rows, found by search
HALVING_X = np.column_stack([np.ones(8), [
    [0.4, 1.3], [-1.9, 4.2], [-0.5, 0.1], [-0.5, -0.1],
    [-0.1, 0.0], [-0.6, -6.4], [-1.0, -1.3], [28.0, 2.9]]])
HALVING_Y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
HALVING_AT = 6
# two tables of successes out of trials on that design whose fits take the
# full Newton step at each of their 9 iterations
STEADY_SUCCESSES = np.array([[3.0, 4, 0, 1, 2, 1, 0, 2], [0.0, 1, 0, 3, 1, 1, 1, 0]])
STEADY_TRIALS = np.array([[4.0, 5, 2, 1, 3, 5, 5, 2], [1.0, 2, 2, 4, 2, 3, 5, 2]])


def _halving_batch():
    """The halving table between the two steady ones, as a (3, 8) stack."""
    successes = np.stack([STEADY_SUCCESSES[0], HALVING_Y, STEADY_SUCCESSES[1]])
    trials = np.stack([STEADY_TRIALS[0], np.ones(8), STEADY_TRIALS[1]])
    return successes, trials


def _log_likelihood(y, x, beta):
    eta = x @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


class TestStepHalving:
    def test_a_step_that_lowers_the_likelihood_is_halved(self):
        x, y, j = HALVING_X, HALVING_Y, HALVING_AT
        b = fit_logistic(y, x, max_iter=j - 1).coefficients
        mu = inverse_logit(x @ b)
        d = np.linalg.solve(x.T @ ((mu * (1.0 - mu))[:, None] * x), x.T @ (y - mu))
        assert _log_likelihood(y, x, b + d) < _log_likelihood(y, x, b)
        fit = fit_logistic(y, x, max_iter=j)
        assert fit.iterations == j
        h = round(-math.log2(np.abs(fit.coefficients - b).max() / np.abs(d).max()))
        assert h >= 1
        assert np.allclose(fit.coefficients, b + 2.0**-h * d, rtol=1e-10, atol=0.0)
        assert _log_likelihood(y, x, fit.coefficients) >= _log_likelihood(y, x, b)
        final = fit_logistic(y, x)
        assert final.converged and not final.separation_detected

    def test_a_halving_row_of_a_batch_has_the_one_dimensional_bits(self):
        # the steady rows are still iterating when the middle row halves
        successes, trials = _halving_batch()
        for max_iter in (HALVING_AT, 100):
            batch = fit_logistic(successes, HALVING_X, trials=trials, max_iter=max_iter)
            assert _row(batch, 1).bits() == _one_fit(HALVING_Y, HALVING_X,
                                                     max_iter=max_iter).bits()
            for r in (0, 2):
                assert _row(batch, r).bits() == _one_fit(
                    successes[r], HALVING_X, trials=trials[r], max_iter=max_iter).bits()
        assert batch.status.tolist() == [glm.CONVERGED] * 3
        assert batch.iterations.tolist() == [9, 13, 9]


def _linalg_failing_on(monkeypatch, name, fit, row):
    """fit() again, with np.linalg.<name> raising whenever its matrices
    include the one at row `row` of the first stack that fit() passes it:
    for "inv", the final weighted Gram matrices that fit() inverts for its
    standard errors; for "solve", the first Newton step's Hessians.
    Returns that fit and the number of calls the first fit() made."""
    real = getattr(np.linalg, name)
    stacks = []
    monkeypatch.setattr(np.linalg, name, lambda a, *b: stacks.append(a) or real(a, *b))
    fit()
    target = stacks[0][row].copy()

    def failing(a, *b):
        if any(np.array_equal(mat, target) for mat in np.reshape(a, (-1, *target.shape))):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, *b)

    monkeypatch.setattr(np.linalg, name, failing)
    return fit(), len(stacks)


class TestSingularCovariance:
    """A fit whose final weighted Gram matrix cannot be inverted keeps its
    estimate and reports infinite standard errors."""

    def test_batch_row_gets_infinite_standard_errors(self, monkeypatch):
        successes, trials = _halving_batch()

        def fit():
            return fit_logistic(successes, HALVING_X, trials=trials)

        want = fit()
        got, inversions = _linalg_failing_on(monkeypatch, "inv", fit, 1)
        assert inversions == 1  # one stacked inversion for the whole batch
        assert np.isinf(got.std_errors[1]).all() and (got.std_errors[1] > 0).all()
        assert np.isfinite(want.std_errors[1]).all()
        for name in ("coefficients", "iterations", "log_likelihood", "status"):
            assert getattr(got, name)[1].tobytes() == getattr(want, name)[1].tobytes()
        assert _batch_bits(got, [0, 2]) == _batch_bits(want, [0, 2])

    def test_one_dimensional_fit_gets_infinite_standard_errors(self, monkeypatch):
        def fit():
            return fit_logistic(HALVING_Y, HALVING_X)

        want = fit()
        got, inversions = _linalg_failing_on(monkeypatch, "inv", fit, 0)
        assert inversions == 1
        assert np.isinf(got.std_errors).all() and (got.std_errors > 0).all()
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert (got.converged, got.iterations, got.log_likelihood,
                got.separation_detected) == (want.converged, want.iterations,
                                             want.log_likelihood, want.separation_detected)


class TestSingularNormalEquations:
    """A Newton solve that fails after the rank check passed stops its own
    table with status SINGULAR_NORMAL."""

    def test_only_the_failing_table_stops(self, monkeypatch, tmp_path, capsys):
        successes, trials = _halving_batch()

        def fit():
            return fit_logistic(successes, HALVING_X, trials=trials)

        # the middle table is HALVING_Y, one trial per row
        got, _ = _linalg_failing_on(monkeypatch, "solve", fit, 1)
        assert _row(got, 1) == Outcome(glm.SINGULAR_NORMAL, None, None, None, None)
        for r in (0, 2):
            assert _row(got, r).bits() == _one_fit(successes[r], HALVING_X,
                                                   trials=trials[r]).bits()
        with pytest.raises(SingularDesignError) as info:
            fit_logistic(HALVING_Y, HALVING_X)
        assert str(info.value) == "weighted normal equations are singular"
        data = tmp_path / "d.csv"
        data.write_text("Y,X1,X2\n" + "".join(
            f"{y:g},{a!r},{b!r}\n" for y, (_, a, b) in zip(HALVING_Y, HALVING_X.tolist())))
        assert cli.main(["fit", str(data), "--dependent", "Y", "--regressors", "X1,X2"]) == 3
        assert capsys.readouterr().err == "error: weighted normal equations are singular\n"


class TestRelativeRisk:
    def test_zero_effect(self):
        for p in (0.0, 0.1, 0.5, 0.9):
            assert relative_risk(0.0, p) == 0.0

    def test_doubling_odds_at_zero_prevalence(self):
        assert relative_risk(math.log(2.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_exact_value_small_beta(self):
        rr = relative_risk(0.05, 0.02)
        assert rr == pytest.approx(RR_005_002, abs=1e-12)
        # near-linear regime: rr is close to beta*(1-p), off only at O(beta^2)
        assert rr == pytest.approx(0.05 * 0.98, abs=2e-3)

    def test_prevalence_range(self):
        with pytest.raises(ValueError):
            relative_risk(0.1, 1.0)
        with pytest.raises(ValueError):
            relative_risk(0.1, -0.01)

    @given(st.floats(min_value=1e-6, max_value=3),
           st.floats(min_value=0.0, max_value=0.99))
    def test_sign_follows_beta(self, beta, p):
        assert relative_risk(beta, p) > 0
        assert relative_risk(-beta, p) < 0

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_finite_inputs_give_bounded_value_or_overflow(self, beta, p):
        # exp(beta) overflows past log(max float) ~ 709.78; nothing else raises
        if beta > math.log(sys.float_info.max):
            with pytest.raises(OverflowError):
                relative_risk(beta, p)
            return
        rr = relative_risk(beta, p)
        assert math.isfinite(rr)
        assert rr >= -1.0
        if p > 0.0:
            assert rr <= (1.0 / p - 1.0) * (1.0 + 1e-12) + 1e-12

    def test_overflow_past_exp_range(self):
        with pytest.raises(OverflowError):
            relative_risk(800.0, 0.0)


class TestConfidenceInterval:
    def test_frozen_95_percent_interval(self):
        lo, hi = confidence_interval(0.1, 0.02)
        assert lo == pytest.approx(0.060800720309198926, abs=1e-12)
        assert hi == pytest.approx(0.1391992796908011, abs=1e-12)

    def test_zero_sigma_collapses(self):
        assert confidence_interval(0.4, 0.0) == (0.4, 0.4)

    def test_quantile_against_scipy(self):
        from scipy import stats
        _, hi = confidence_interval(0.0, 1.0)
        assert hi == pytest.approx(stats.norm.ppf(0.975), abs=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: DesignMatrix(np.array([[1.0], [math.nan]])),
     "design matrix entries must be finite"),
    (lambda: DesignMatrix(np.ones(3)),
     "design matrix must be 2-D with at least one column"),
    (lambda: DesignMatrix(np.ones((3, 2)), names=("a",)),
     "names length must match column count"),
    (lambda: fit_logistic([0, 1, 1], np.ones((4, 1))), "y has 3 rows, design has 4"),
], ids=["design-nan", "design-1d", "design-names", "fit-rows"])
def test_invalid_input_is_rejected_saying_why(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
