import itertools
import json
import math
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confoundsim import ensemble
from confoundsim.cli import _scan_row, format_rows
from confoundsim.ensemble import (EnsembleError, GridSpec,
                                  empirical_beta_formula,
                                  empirical_sigma_formula, population_limit,
                                  run_ensemble, scan_grid)
from confoundsim.glm import NotConvergedError, SingularDesignError, fit_logistic
from confoundsim.metamodel import ModelParams, derive_seed, draw_population

from conftest import exact_ensemble_expectation


def params(p=0.75, k=3, n=10_000, seed=17, beta_prime=0.0):
    return ModelParams(p=p, k=k, n_respondents=n, seed=seed,
                       causal_increment=beta_prime)


# population_limit(p, k).hex() on a (p, k) grid with k up to 10^4, so that
# a rewrite of its sums keeps every bit
LIMIT_KS = (1, 2, 3, 5, 9, 21, 41, 101, 1000, 10000)
LIMIT_BITS = {
    0.55: ("0x1.47b0e059d057ep-6", "0x1.b37976495f307p-7", "0x1.46108f6b50abep-7",
          "0x1.b20858edc79b2p-8", "0x1.041308834c7f0p-8", "0x1.d8597c31baabbp-10",
          "0x1.eea11bdae5684p-11", "0x1.973a72b492d99p-12", "0x1.4be87f164b452p-15",
          "0x1.09c2c05ffa5d0p-18"),
    0.6: ("0x1.47dadcbbdba7ap-4", "0x1.af7648fa2d5f2p-5", "0x1.417d756ef5f15p-5",
          "0x1.a9dd7beeb95a3p-6", "0x1.fc6110010bbf5p-7", "0x1.cc321a28fa055p-8",
          "0x1.e14b77bef4880p-9", "0x1.8bed4494e7a63p-10", "0x1.4288142849c1dp-13",
          "0x1.023d43198e3ebp-16"),
    0.7: ("0x1.4a851baf27b6cp-2", "0x1.a3680557e61c4p-3", "0x1.32f438a517b80p-3",
          "0x1.8f77504236776p-4", "0x1.d63912d5f61dap-5", "0x1.a4d7d2c335c64p-6",
          "0x1.b62b03f24d92dp-7", "0x1.676865699944cp-8", "0x1.244041c1f6bb6p-11",
          "0x1.d3e71f58215bcp-15"),
    0.8: ("0x1.81ee60afb501ap-1", "0x1.d01d78a2f42a2p-2", "0x1.4b53edbd14c11p-2",
          "0x1.a513f067156f0p-3", "0x1.e6bd194960bfap-4", "0x1.ad6bfd6d8c138p-5",
          "0x1.bc9ecf85bf139p-6", "0x1.6b6787148dd5fp-7", "0x1.26d848f6e9026p-10",
          "0x1.d7f2ea7b9399ap-14"),
    0.9: ("0x1.842f595c35289p+0", "0x1.b456a15eac687p-1", "0x1.2f03eea4a4d72p-1",
          "0x1.77d462da11280p-2", "0x1.aaf142e50376dp-3", "0x1.73cfb46451651p-4",
          "0x1.7f1b3ceda2162p-5", "0x1.382bdb4fcbb39p-6", "0x1.f9997178bc046p-10",
          "0x1.9492342f02b9cp-13"),
}


class TestFormulas:
    def test_beta_values(self):
        assert empirical_beta_formula(0.5, 3) == 0.0
        assert empirical_beta_formula(0.75, 4) == pytest.approx(0.1875)
        assert empirical_beta_formula(0.9, 1) == pytest.approx(1.92)

    def test_sigma_values(self):
        assert empirical_sigma_formula(0.5, 1, 10_000) == pytest.approx(0.03)
        # 0.01 * (4 + 12 * 0.5^5) * ((3 - 0.375) / 3)
        assert empirical_sigma_formula(0.75, 3, 10_000) == pytest.approx(0.03828125)

    def test_sigma_exact_root_n_scaling(self):
        for p, k, n in [(0.55, 2, 400), (0.8, 9, 12_345), (0.75, 3, 10_000)]:
            ratio = empirical_sigma_formula(p, k, n) / empirical_sigma_formula(p, k, 4 * n)
            assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_range_validation(self):
        for bad_p in (0.49, 1.0, -1.0):
            with pytest.raises(ValueError):
                empirical_beta_formula(bad_p, 2)
        with pytest.raises(ValueError):
            empirical_beta_formula(0.7, 0)
        with pytest.raises(ValueError):
            empirical_sigma_formula(0.7, 2, 0)

    def test_population_limit_range(self):
        for bad_p in (0.5, 1.0):
            with pytest.raises(ValueError, match="p must be"):
                population_limit(bad_p, 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            population_limit(0.7, 0)
        # no cap on k: far past the old 2^(k+1) enumeration, the limit is
        # positive and below its value at k = 12
        assert 0.0 < population_limit(0.7, 1000) < population_limit(0.7, 12)

    def test_population_limit_raises_when_its_fit_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(ensemble, "fit_logistic", lambda *args, **kwargs: replace(
            fit_logistic(*args, **kwargs), converged=False))
        with pytest.raises(NotConvergedError) as info:
            population_limit(0.7, 3)
        assert str(info.value) == "population limit did not converge at p=0.7, k=3"

    def test_population_limit_keeps_its_bits(self):
        got = {p: tuple(population_limit(p, k).hex() for k in LIMIT_KS) for p in LIMIT_BITS}
        assert got == LIMIT_BITS


class TestRunEnsemble:
    def test_no_bias_means_no_spurious_effect(self):
        summary = run_ensemble(params(p=0.51, k=2, n=4000, seed=1), 50)
        assert abs(summary.mean_beta1) <= 3 * summary.mc_error_beta1

    def test_matches_scaling_laws_at_protocol_scale(self):
        summary = run_ensemble(params(p=0.75, k=3, n=10_000, seed=2), 200)
        beta_pred = empirical_beta_formula(0.75, 3)
        sigma_pred = empirical_sigma_formula(0.75, 3, 10_000)
        assert summary.mean_beta1 == pytest.approx(beta_pred, rel=0.15)
        assert summary.mean_sigma1 == pytest.approx(sigma_pred, rel=0.15)
        assert summary.excluded == 0

    def test_deterministic(self):
        first = run_ensemble(params(seed=9, n=1000), 12)
        again = run_ensemble(params(seed=9, n=1000), 12)
        assert first == again

    def test_non_converged_replications_excluded_and_counted(self):
        # near-degenerate agreement: most replications separate perfectly
        summary = run_ensemble(params(p=0.999, k=1, n=300, seed=3), 30)
        assert 0 < summary.excluded < 30
        assert math.isfinite(summary.mean_beta1)

    def test_all_failures_raise(self):
        with pytest.raises(EnsembleError, match=r"\(5 flagged as separated;"):
            run_ensemble(params(p=0.9999, k=1, n=40, seed=2), 5)

    def test_population_no_larger_than_k_is_rejected(self):
        with pytest.raises(ValueError, match="must exceed the regressor count k = 3"):
            run_ensemble(params(k=3, n=3), 5)

    def test_replication_with_an_empty_column_is_excluded(self):
        # at N = 6 a regressor column is all zero in about 1 draw in 32
        base = params(p=0.6, k=2, n=6, seed=12)
        summary = run_ensemble(base, 60)
        empty = [i for i in range(60) if not draw_population(
            replace(base, seed=derive_seed(base.seed, i)), 3).responses[:, 1:]
            .any(axis=0).all()]
        assert empty and 0 not in empty
        # replication streams do not depend on the count, so the first i + 1
        # replications exclude one more than the first i exactly when
        # replication i is excluded
        for i in empty:
            assert (run_ensemble(base, i + 1).excluded
                    == run_ensemble(base, i).excluded + 1)
        assert math.isfinite(summary.mean_beta1)

    def test_wide_replications_match_raw_row_fits(self):
        # k = 40: the 2^(k+1) cells far outnumber the N rows; k = 70: a row
        # is too wide for one int64 code.  Both fit what the N rows give.
        for k, n in ((40, 200), (70, 400)):
            base = params(p=0.6, k=k, n=n, seed=21)
            summary = run_ensemble(base, 2)
            raw_betas = []
            for i in range(2):
                rows = draw_population(replace(base, seed=derive_seed(base.seed, i)),
                                       k + 1).responses.astype(float)
                raw = fit_logistic(rows[:, 0], rows[:, 1:])
                assert raw.converged and not raw.separation_detected
                raw_betas.append(raw.coefficients.mean())
            assert summary.excluded == 0
            assert summary.mean_beta1 == pytest.approx(np.mean(raw_betas),
                                                       rel=0.0, abs=1e-8)

    def test_row_path_table_holds_each_regressor_rows_successes_and_trials(self):
        rng = np.random.default_rng(3)
        for k, n in ((3, 50), (6, 40), (70, 5)):
            responses = rng.integers(0, 2, (n, k + 1)).astype(np.int8)
            x, successes, trials = ensemble._pattern_table(responses)
            # brute force: every distinct regressor row, y summed over its rows
            table = {}
            for row in responses.tolist():
                s, t = table.get(tuple(row[1:]), (0, 0))
                table[tuple(row[1:])] = (s + row[0], t + 1)
            got = {tuple(int(v) for v in row): (s, t)
                   for row, s, t in zip(x, successes, trials)}
            if k < 63:
                assert got == table and len(x) == len(table)
            else:
                # too wide for one code: each row stands for itself
                assert len(x) == n and (trials == 1).all()
                assert (successes == responses[:, 0]).all()

    @pytest.mark.parametrize("p, k, n, beta_prime, reps", [
        (0.7, 1, 40, 0.0, 4000), (0.7, 1, 40, 0.5, 4000),
        (0.8, 1, 20, 0.0, 4000), (0.7, 2, 6, 0.0, 1000),
        (0.8, 2, 7, 0.0, 1000), (0.7, 2, 12, 0.0, 4000)],
        ids=["table", "table-causal", "table-excluding", "rows", "rows-p0.8",
             "table-k2"])
    def test_small_n_matches_the_exact_expectation(self, p, k, n, beta_prime, reps):
        # every count table of N respondents listed and fitted: the mean
        # coefficient within 3 Monte Carlo errors of E[beta | converged], the
        # excluded share within 3 binomial standard errors of P(excluded)
        cell = params(p=p, k=k, n=n, seed=2024, beta_prime=beta_prime)
        mean, p_excluded = exact_ensemble_expectation(cell)
        summary = run_ensemble(cell, reps)
        assert abs(summary.mean_beta1 - mean) <= 3.0 * summary.mc_error_beta1
        assert (abs(summary.excluded / reps - p_excluded)
                <= 3.0 * math.sqrt(p_excluded * (1.0 - p_excluded) / reps))

    def test_single_replication_has_infinite_mc_error(self):
        summary = run_ensemble(params(seed=5, n=500), 1)
        assert summary.mc_error_beta1 == math.inf

    def test_causal_increment_reads_predictor_coefficient_only(self):
        null = run_ensemble(params(p=0.6118, k=2, n=4000, seed=6), 40)
        causal = run_ensemble(params(p=0.6118, k=2, n=4000, seed=6,
                                     beta_prime=0.3), 40)
        shift = causal.mean_beta1 - null.mean_beta1
        assert 0.2 < shift < 0.4


def _model_cell_probability(p, increment, y, x):
    """P(y, x) under the metamodel, from its statement, one cell at a time."""
    total = 0.0
    for agree in (p, 1.0 - p):
        p_y = 1.0 / (1.0 + math.exp(-(math.log(agree / (1.0 - agree)) + increment * x[0])))
        prob = p_y if y else 1.0 - p_y
        for xj in x:
            prob *= agree if xj else 1.0 - agree
        total += 0.5 * prob
    return total


def _draws(base):
    """The names of the draw functions run_ensemble(base, 3) calls."""
    called = set()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("draw_population", "_draw_cell_counts"):
            def spy(*args, _name=name, _real=getattr(ensemble, name)):
                called.add(_name)
                return _real(*args)
            mp.setattr(ensemble, name, spy)
        try:
            run_ensemble(base, 3)
        except EnsembleError:
            pass
    return called


class TestCellTable:
    def test_table_only_where_the_cells_are_no_more_than_the_rows(self):
        assert _draws(params(k=2, n=7)) == {"draw_population"}
        assert _draws(params(k=2, n=8)) == {"_draw_cell_counts"}
        bits = ensemble._cell_bits(3)
        plus, minus = ensemble._cell_probabilities(params(k=2, n=8), bits)
        # cell c holds the row whose code is c, bit j being column j
        assert (bits @ (1 << np.arange(3)) == np.arange(8)).all()
        assert plus.sum() == pytest.approx(1.0, abs=1e-15)
        assert minus.sum() == pytest.approx(1.0, abs=1e-15)

    def test_expected_table_fits_to_the_population_limit(self):
        # no Monte Carlo: the expected table, counts P+ + P- scaled to a mean
        # of 1 over the 2^(k+1) cells, gives every coefficient the limit
        for p in (0.55, 0.6, 0.7, 0.8, 0.9):
            for k in range(1, 10):
                bits = ensemble._cell_bits(k + 1)
                plus, minus = ensemble._cell_probabilities(params(p=p, k=k), bits)
                counts = (plus + minus) * 2**k
                fit = fit_logistic(bits[:, 0] * counts, bits[:, 1:], trials=counts)
                assert fit.converged and not fit.separation_detected
                assert np.allclose(fit.coefficients, population_limit(p, k),
                                   rtol=0.0, atol=1e-8), (p, k)

    @pytest.mark.parametrize("increment", [0.0, 0.4])
    def test_pooled_cell_counts_follow_the_model(self, increment):
        base = params(p=0.7, k=3, n=1000, seed=31, beta_prime=increment)
        bits = ensemble._cell_bits(4)
        probabilities = ensemble._cell_probabilities(base, bits)
        pooled = sum(ensemble._draw_cell_counts(base, i, probabilities)
                     for i in range(200))
        total = 200 * 1000
        assert pooled.sum() == total
        for row, count in zip(bits, pooled):
            prob = _model_cell_probability(0.7, increment, row[0], row[1:])
            sd = math.sqrt(total * prob * (1.0 - prob))
            assert abs(count - total * prob) <= 5 * sd, (row, count, total * prob, sd)


def _one_dimensional_loop(params, replications):
    """(excluded, usable betas) of a loop of 1-D fits on the occurring patterns."""
    bits = ensemble._cell_bits(params.k + 1)
    probabilities = ensemble._cell_probabilities(params, bits)
    betas = []
    for i in range(replications):
        counts = ensemble._draw_cell_counts(params, i, probabilities)
        # y is bit 0 of a cell's code: cells 2i and 2i + 1 share pattern i
        trials = counts[0::2] + counts[1::2]
        occurs = trials > 0
        try:
            fit = fit_logistic(counts[1::2][occurs], bits[0::2, 1:][occurs],
                               trials=trials[occurs])
        except SingularDesignError:
            continue
        if fit.converged and not fit.separation_detected:
            coefs = fit.coefficients
            betas.append(coefs.mean() if params.causal_increment == 0.0 else coefs[0])
    return replications - len(betas), betas


def _row_path_loop(params, replications):
    """(excluded, usable betas, their sigmas) of a loop of 1-D row-path fits."""
    betas, sigmas = [], []
    for i in range(replications):
        population = draw_population(
            replace(params, seed=derive_seed(params.seed, i)), params.k + 1)
        regressors, successes, trials = ensemble._pattern_table(population.responses)
        try:
            fit = fit_logistic(successes, regressors, trials=trials)
        except SingularDesignError:
            continue
        if fit.converged and not fit.separation_detected:
            if params.causal_increment == 0.0:
                betas.append(fit.coefficients.mean())
                sigmas.append(fit.std_errors.mean())
            else:
                betas.append(fit.coefficients[0])
                sigmas.append(fit.std_errors[0])
    return replications - len(betas), betas, sigmas


class TestBatchedReplications:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0.52, 0.7, 0.9, 0.999]), st.integers(1, 4),
           st.integers(0, 300), st.integers(1, 9), st.integers(0, 2**31 - 1),
           st.sampled_from([0.0, 0.5]))
    def test_block_size_changes_no_bits(self, p, k, extra_n, reps, seed, increment):
        base = params(p=p, k=k, n=2 ** (k + 1) + extra_n, seed=seed,
                      beta_prime=increment)
        patterns = 2 ** k
        outcomes = []
        for block_rows in (1, 3, reps, reps + 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ensemble, "_FIT_BLOCK_WEIGHTS", block_rows * patterns)
                try:
                    outcomes.append(run_ensemble(base, reps))
                except EnsembleError as exc:
                    outcomes.append(str(exc))
        assert all(o == outcomes[0] for o in outcomes[1:])
        excluded, betas = _one_dimensional_loop(base, reps)
        if isinstance(outcomes[0], str):
            assert excluded == reps
        else:
            assert outcomes[0].excluded == excluded
            assert outcomes[0].mean_beta1 == pytest.approx(np.mean(betas),
                                                           rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("k, n, increment", [
        (3, 8, 0.0), (40, 200, 0.0), (70, 400, 0.0), (40, 200, 0.4)])
    def test_row_path_equals_a_loop_of_one_dimensional_fits(self, k, n, increment):
        # blocks of one replication give the bits of one 1-D fit each
        base = params(p=0.6, k=k, n=n, seed=21, beta_prime=increment)
        assert 2 ** (k + 1) > n
        summary = run_ensemble(base, 12)
        excluded, betas, sigmas = _row_path_loop(base, 12)
        assert len(betas) >= 2
        assert summary.excluded == excluded
        assert summary.mean_beta1 == float(np.mean(betas))
        assert summary.mean_sigma1 == float(np.mean(sigmas))
        assert summary.mc_error_beta1 == (float(np.std(betas, ddof=1))
                                          / math.sqrt(len(betas)))

    def test_block_weight_bound(self):
        # at k = 9 a block holds 8 replications of 512 regressor patterns
        base = params(p=0.6, k=9, n=5000, seed=8)
        seen = []
        real = ensemble.fit_logistic

        def spy(y, x, **kwargs):
            seen.append((y.shape, x.shape, kwargs["trials"].shape))
            return real(y, x, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "fit_logistic", spy)
            run_ensemble(base, 10)
        assert seen == [((8, 512), (512, 9), (8, 512)), ((2, 512), (512, 9), (2, 512))]


def _per_cell_loop(spec):
    """scan_grid's rows as a loop of one run_ensemble call per cell gives them."""
    rows = []
    grid = itertools.product(spec.correlations, spec.confounder_counts)
    for index, (r, n_conf) in enumerate(grid):
        cell = ModelParams(p=ensemble._agreement_p(r), k=n_conf + 1,
                           n_respondents=spec.n_respondents,
                           seed=derive_seed(spec.seed, index),
                           causal_increment=spec.causal_increment)
        try:
            summary = run_ensemble(cell, spec.replications)
        except EnsembleError as exc:
            summary = exc
        rows.append(ensemble._grid_cell(spec, r, n_conf, cell, summary))
    return rows


GRIDS = {
    # k = 2 and 3 on the table path, k = 6 and 7 on the row path
    "mixed": dict(correlations=(0.05, 0.3), confounder_counts=(1, 5, 2, 6),
                  n_respondents=60, replications=7, seed=41),
    "causal": dict(correlations=(0.05, 0.15), confounder_counts=(1, 2, 6),
                   n_respondents=100, replications=9, seed=42, causal_increment=0.3),
    # the second cell fails, the first does not; both are k = 2 table cells,
    # and the failing one's error counts its own separated fits
    "failing": dict(correlations=(0.05, 0.98), confounder_counts=(1,),
                    n_respondents=30, replications=3, seed=6),
}


class TestScanGrid:
    @pytest.mark.parametrize("block_weights", [1, 12, 40, 4096, 10**6])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_equals_a_loop_of_per_cell_ensembles(self, grid, block_weights):
        # the table cells of one k share blocks, which at these weights hold
        # 1, 3 and 10 replications of k = 2 and cut across cells
        spec = GridSpec(**GRIDS[grid])
        expected = [repr(astuple(row)) for row in _per_cell_loop(spec)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_FIT_BLOCK_WEIGHTS", block_weights)
            rows = scan_grid(spec)
        assert [repr(astuple(row)) for row in rows] == expected
        if grid == "failing":
            assert rows[0].error is None and "(2 flagged as separated;" in rows[1].error

    def test_default_grid_fits_each_k_in_shared_blocks(self, monkeypatch):
        # 5 cells x 20 replications per k: 100 replications of 4, 8 or 32
        # patterns fit in one block; of 512 patterns, in blocks of 8
        spec = GridSpec(correlations=(0.01, 0.02, 0.05, 0.1, 0.15),
                        confounder_counts=(1, 2, 4, 8), n_respondents=10_000,
                        replications=20, seed=7)
        seen = []
        real = ensemble.fit_logistic

        def spy(y, x, **kwargs):
            seen.append((x.shape[1], y.size))
            return real(y, x, **kwargs)

        monkeypatch.setattr(ensemble, "fit_logistic", spy)
        scan_grid(spec)
        assert Counter(k for k, _ in seen) == {2: 1, 3: 1, 5: 1, 9: 13}
        assert max(trials for _, trials in seen) <= 4096

    def small_spec(self, **kw):
        base = dict(correlations=(0.02, 0.1), confounder_counts=(1, 2),
                    n_respondents=1500, replications=10, seed=123)
        base.update(kw)
        return GridSpec(**base)

    def test_rows_ordered_r_major_with_formula_predictions(self):
        cells = scan_grid(self.small_spec())
        assert [(c.r, c.n_confounders) for c in cells] == [
            (0.02, 1), (0.02, 2), (0.1, 1), (0.1, 2)]
        for cell in cells:
            p = 0.5 * (1 + math.sqrt(cell.r))
            k = cell.n_confounders + 1
            assert cell.predicted_beta1 == empirical_beta_formula(p, k)
            assert cell.predicted_sigma1 == empirical_sigma_formula(p, k, 1500)
            assert cell.error is None

    def test_relative_risk_overflow_flags_only_its_cell(self, monkeypatch):
        real = ensemble._run_ensembles

        def huge_sigma_at_k3(cells, replications):
            return [replace(summary, mean_sigma1=1e3) if p.k == 3 else summary
                    for p, summary in zip(cells, real(cells, replications))]

        monkeypatch.setattr(ensemble, "_run_ensembles", huge_sigma_at_k3)
        cells = scan_grid(self.small_spec())
        for cell in cells:
            if cell.n_confounders == 2:
                assert "relative risk overflows" in cell.error
                assert math.isnan(cell.ci_high) and math.isfinite(cell.mean_beta1)
                # only ci_high overflows, yet no relative risk is kept
                assert math.isnan(cell.relative_risk) and math.isnan(cell.ci_low)
            else:
                assert cell.error is None and math.isfinite(cell.ci_high)

    def test_spurious_interval_excludes_zero(self):
        # nonzero mean with a CI that excludes zero, despite no true effect
        spec = GridSpec(correlations=(0.1,), confounder_counts=(1,),
                        n_respondents=10_000, replications=60, seed=8)
        cell = scan_grid(spec)[0]
        assert cell.mean_beta1 > 0
        assert cell.ci_low > 0

    def test_interval_scaling_follows_root_n(self):
        spec = self.small_spec(ci_n_respondents=1500)
        wide = scan_grid(spec)[0]
        spec4 = self.small_spec(ci_n_respondents=6000)
        narrow = scan_grid(spec4)[0]
        width = math.log1p(wide.ci_high) - math.log1p(wide.ci_low)
        width4 = math.log1p(narrow.ci_high) - math.log1p(narrow.ci_low)
        assert width / width4 == pytest.approx(2.0, rel=1e-9)

    def test_simulation_tracks_formula_midgrid(self):
        spec = GridSpec(correlations=(0.10,), confounder_counts=(1,),
                        n_respondents=10_000, replications=200, seed=21)
        cell = scan_grid(spec)[0]
        assert cell.mean_beta1 == pytest.approx(3 * 0.10 / 2, rel=0.15)

    def test_doubling_confounders_roughly_halves_beta(self):
        spec = GridSpec(correlations=(0.05,), confounder_counts=(4, 8),
                        n_respondents=10_000, replications=200, seed=11)
        # the exact ratio beta(k=9) / beta(k=5) is 0.596, and the simulated
        # ratio's Monte Carlo sd is about 0.014, so a bound on the simulated
        # ratio would fail a correct engine about 4 times in 10; each cell is
        # held to its exact limit instead, and the ratio is checked exactly
        p = 0.5 * (1.0 + math.sqrt(0.05))
        for cell in scan_grid(spec):
            limit = population_limit(p, cell.n_confounders + 1)
            assert abs(cell.mean_beta1 - limit) <= 3 * cell.mc_error_beta1, (
                cell.n_confounders, (cell.mean_beta1 - limit) / cell.mc_error_beta1)
        assert 0.4 <= population_limit(p, 9) / population_limit(p, 5) <= 0.6

    def test_statistical_monotonicity_in_r_and_k(self):
        spec = GridSpec(correlations=(0.02, 0.15), confounder_counts=(1, 8),
                        n_respondents=10_000, replications=200, seed=14)
        cells = {(c.r, c.n_confounders): c for c in scan_grid(spec)}
        lo_r, hi_r = cells[(0.02, 1)], cells[(0.15, 1)]
        assert (hi_r.mean_beta1 - lo_r.mean_beta1
                > 3 * (hi_r.mc_error_beta1 + lo_r.mc_error_beta1))
        lo_k, hi_k = cells[(0.15, 1)], cells[(0.15, 8)]
        assert (lo_k.mean_beta1 - hi_k.mean_beta1
                > 3 * (lo_k.mc_error_beta1 + hi_k.mc_error_beta1))

    def test_failed_cells_are_flagged_and_others_continue(self):
        spec = GridSpec(correlations=(0.98, 0.05), confounder_counts=(1,),
                        n_respondents=30, replications=3, seed=5)
        bad, good = scan_grid(spec)
        assert bad.error is not None and math.isnan(bad.mean_beta1)
        assert good.error is None and math.isfinite(good.mean_beta1)


class TestEmitters:
    def cells(self):
        spec = GridSpec(correlations=(0.05,), confounder_counts=(1, 2),
                        n_respondents=800, replications=5, seed=77)
        return scan_grid(spec)

    @staticmethod
    def csv_lines(cells, config):
        text = format_rows([_scan_row(c) for c in cells], config, "csv")
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    def test_json_matches_csv_fields(self):
        cells = self.cells()
        rows = [_scan_row(c) for c in cells]
        payload = json.loads(format_rows(rows, {"seed": 77}, "json"))
        assert payload["metadata"]["config"] == {"seed": 77}
        header = self.csv_lines(cells, {"seed": 77})[0].split(",")
        assert header[:10] == ["r", "n_confounders", "N", "replications",
                               "mean_beta1", "mean_sigma1", "relative_risk",
                               "ci_low", "ci_high", "excluded"]
        assert all(list(row.keys()) == header for row in payload["results"])

    def test_single_replication_mc_error_emitted_large(self):
        spec = GridSpec(correlations=(0.05,), confounder_counts=(1,),
                        n_respondents=800, replications=1, seed=3)
        cells = scan_grid(spec)
        header, row = self.csv_lines(cells, {})
        assert dict(zip(header.split(","), row.split(",")))["mc_error_beta1"] == "inf"
        payload = json.loads(format_rows([_scan_row(c) for c in cells], {}, "json"))
        assert payload["results"][0]["mc_error_beta1"] is None


class TestGridSpecValidation:
    def test_bad_correlations(self):
        with pytest.raises(ValueError):
            GridSpec(correlations=(0.0,), confounder_counts=(1,),
                     n_respondents=10, replications=1, seed=0)
        with pytest.raises(ValueError):
            GridSpec(correlations=(), confounder_counts=(1,),
                     n_respondents=10, replications=1, seed=0)

    def test_population_must_exceed_largest_k(self):
        with pytest.raises(ValueError, match="largest regressor count k = n \\+ 1 = 9"):
            GridSpec(correlations=(0.1,), confounder_counts=(1, 8),
                     n_respondents=9, replications=1, seed=0)
        GridSpec(correlations=(0.1,), confounder_counts=(1, 8),
                 n_respondents=10, replications=1, seed=0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            GridSpec(correlations=(0.1,), confounder_counts=(0,),
                     n_respondents=10, replications=1, seed=0)
        with pytest.raises(ValueError):
            GridSpec(correlations=(0.1,), confounder_counts=(1,),
                     n_respondents=10, replications=0, seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("confounder_counts", (), "confounder_counts must be non-empty"),
        ("confounder_counts", (2.7,), "every confounder count must be an integer, got 2.7"),
        ("confounder_counts", ("3",), "every confounder count must be an integer, got '3'"),
        ("confounder_counts", (True,), "every confounder count must be an integer, got True"),
        ("confounder_counts", (0,), "every confounder count must be >= 1, got 0"),
        ("n_respondents", True, "n_respondents must be an integer, got True"),
        ("n_respondents", 100.0, "n_respondents must be an integer, got 100.0"),
        ("n_respondents", None, "n_respondents must be an integer, got None"),
        ("replications", np.float64(2),
         "replications must be an integer, got np.float64(2.0)"),
        ("replications", 0, "replications must be >= 1, got 0"),
        ("replications", None, "replications must be an integer, got None"),
        ("ci_n_respondents", "50", "ci_n_respondents must be an integer, got '50'"),
        ("seed", True, "seed must be an unsigned 64-bit integer, got True"),
    ])
    def test_integer_fields_reject_what_is_not_an_integer(self, field, value, message):
        spec = dict(correlations=(0.1,), confounder_counts=(1,), n_respondents=10,
                    replications=1, seed=0)
        with pytest.raises(ValueError) as info:
            GridSpec(**{**spec, field: value})
        assert str(info.value) == message
        assert GridSpec(**spec, ci_n_respondents=None).ci_n_respondents is None

    def test_numpy_integers_scan_to_the_cells_of_python_ints(self):
        spec = GridSpec(correlations=(0.05, 0.15), confounder_counts=(1, 3),
                        n_respondents=400, replications=5, seed=2**63 + 5,
                        ci_n_respondents=1000)
        given = GridSpec(correlations=(0.05, 0.15),
                         confounder_counts=(np.int64(1), np.uint8(3)),
                         n_respondents=np.int32(400), replications=np.int64(5),
                         seed=np.uint64(2**63 + 5), ci_n_respondents=np.int16(1000))
        assert given == spec
        assert {type(n) for n in (*given.confounder_counts, given.n_respondents,
                                  given.replications, given.seed,
                                  given.ci_n_respondents)} == {int}
        assert [astuple(c) for c in scan_grid(given)] == [astuple(c) for c in scan_grid(spec)]

    def test_seed_follows_the_model_seed_rule(self):
        base = dict(correlations=(0.1,), confounder_counts=(1,),
                    n_respondents=10, replications=1)
        for bad in (-1, 2**64, 1.0):
            with pytest.raises(ValueError, match="seed must be an unsigned 64-bit"):
                GridSpec(seed=bad, **base)
        GridSpec(seed=2**64 - 1, **base)

    def test_correlation_must_give_p_inside_the_model_range(self):
        # sqrt(r) < 2^-53 rounds p to 0.5; r = 1 - 2^-53 rounds it to 1
        for bad in (1e-40, 1.0 - 2.0**-53):
            with pytest.raises(ValueError, match="p = \\(1 \\+ sqrt\\(r\\)\\) / 2"):
                GridSpec(correlations=(bad,), confounder_counts=(1,),
                         n_respondents=10, replications=1, seed=0)

    def test_causal_increment_must_be_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="causal_increment must be finite"):
                GridSpec(correlations=(0.1,), confounder_counts=(1,),
                         n_respondents=10, replications=1, seed=0,
                         causal_increment=bad)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=3),
           st.lists(st.integers(-2, 70), max_size=3),
           st.integers(-5, 10**6), st.integers(-2, 10**4),
           st.integers(-2**65, 2**65), st.floats(),
           st.one_of(st.none(), st.integers(-2, 10**6)), st.floats())
    def test_every_input_builds_a_valid_spec_or_raises_value_error(
            self, correlations, counts, n, reps, seed, increment, ci_n, baseline):
        try:
            spec = GridSpec(correlations=correlations, confounder_counts=counts,
                            n_respondents=n, replications=reps, seed=seed,
                            causal_increment=increment, ci_n_respondents=ci_n,
                            rr_baseline=baseline)
        except ValueError:
            return
        # a spec that builds gives every cell a valid ensemble configuration
        for index, r in enumerate(spec.correlations):
            for n_conf in spec.confounder_counts:
                ModelParams(p=0.5 * (1.0 + math.sqrt(r)), k=n_conf + 1,
                            n_respondents=spec.n_respondents,
                            seed=derive_seed(spec.seed, index),
                            causal_increment=spec.causal_increment)


@pytest.mark.parametrize("replications, message", [
    (0, "replications must be >= 1, got 0"),
    (-3, "replications must be >= 1, got -3"),
])
def test_run_ensemble_rejects_replications_below_one(replications, message):
    with pytest.raises(ValueError) as info:
        run_ensemble(params(n=100), replications)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: population_limit(0.7, 2.5), "k must be an integer, got 2.5"),
    (lambda: population_limit(0.7, "3"), "k must be an integer, got '3'"),
    (lambda: population_limit(0.7, True), "k must be an integer, got True"),
    (lambda: population_limit(0.7, 0), "k must be >= 1, got 0"),
    (lambda: empirical_beta_formula(0.7, 2.5), "k must be an integer, got 2.5"),
    (lambda: empirical_sigma_formula(0.7, 2, 10.0),
     "n_respondents must be an integer, got 10.0"),
    (lambda: empirical_sigma_formula(0.7, 2, 0), "n_respondents must be >= 1, got 0"),
], ids=["limit-float", "limit-string", "limit-bool", "limit-zero", "beta-float",
        "sigma-n-float", "sigma-n-zero"])
def test_formulas_take_k_and_n_by_the_integer_rule(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_formulas_take_numpy_integers():
    assert population_limit(0.7, np.int64(3)) == population_limit(0.7, 3)
    assert empirical_beta_formula(0.7, np.uint8(3)) == empirical_beta_formula(0.7, 3)
    assert (empirical_sigma_formula(0.7, np.int32(3), np.int64(100))
            == empirical_sigma_formula(0.7, 3, 100))
