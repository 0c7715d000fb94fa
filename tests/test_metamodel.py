import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confoundsim import metamodel
from confoundsim.metamodel import (ModelParams, ResponseMatrix,
                                   UndefinedCorrelationError, derive_seed,
                                   draw_population, sample_correlation,
                                   stream_generator,
                                   theoretical_correlation,
                                   write_population_csv)

from conftest import savetxt_population, stream_population


def params(p=0.75, k=3, n=1000, seed=17, beta_prime=0.0):
    return ModelParams(p=p, k=k, n_respondents=n, seed=seed,
                       causal_increment=beta_prime)


class TestHelpers:
    def test_theoretical_correlation_values(self):
        assert theoretical_correlation(0.75) == pytest.approx(0.25)
        assert theoretical_correlation(0.9) == pytest.approx(0.64)
        assert theoretical_correlation(0.5 + 1e-9) == pytest.approx(0.0, abs=1e-15)

    def test_theoretical_correlation_rejects_boundary(self):
        for p in (0.5, 1.0, 0.2, 1.3):
            with pytest.raises(ValueError):
                theoretical_correlation(p)

    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_theoretical_correlation_in_unit_interval(self, p):
        r = theoretical_correlation(p)
        assert 0.0 <= r < 1.0
        assert r == pytest.approx((2.0 * p - 1.0) ** 2)


class TestModelParams:
    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.49, 1.01, 0.0])
    def test_p_out_of_range(self, bad):
        with pytest.raises(ValueError):
            params(p=bad)

    def test_k_and_n_validation(self):
        with pytest.raises(ValueError):
            params(k=0)
        with pytest.raises(ValueError):
            params(n=0)
        with pytest.raises(ValueError):
            ModelParams(p=0.7, k=2, n_respondents=10, seed=-1)


class TestDrawPopulation:
    def test_column_count_must_be_k_plus_one(self):
        with pytest.raises(ValueError):
            draw_population(params(k=3), 3)

    def test_shapes_and_domains(self):
        m = draw_population(params(k=2, n=500), 3)
        assert m.responses.shape == (500, 3)
        assert m.latent.shape == (500,)
        assert set(np.unique(m.latent)) <= {-1, 1}
        assert set(np.unique(m.responses)) <= {0, 1}

    def test_arrays_are_read_only(self):
        m = draw_population(params(n=50), 4)
        with pytest.raises(ValueError):
            m.responses[0, 0] = 1

    def test_high_p_pins_columns_to_latent(self):
        # p=0.999: responses almost always equal (Q+1)/2
        m = draw_population(params(p=0.999, k=2, n=1000, seed=3), 3)
        target = (m.latent + 1) // 2
        for j in range(3):
            assert np.mean(m.responses[:, j] == target) > 0.99
        for a in range(3):
            for b in range(a + 1, 3):
                assert sample_correlation(m, a, b) > 0.95

    def test_column_means_half_near_lower_p_boundary(self):
        m = draw_population(params(p=0.51, k=2, n=100_000, seed=5), 3)
        for j in range(3):
            assert abs(m.responses[:, j].mean() - 0.5) < 0.01

    def test_pairwise_correlation_approaches_law(self):
        # correlation between any two columns converges to (2p-1)^2 = 0.25
        m = draw_population(params(p=0.75, k=2, n=200_000, seed=11), 3)
        assert sample_correlation(m, 1, 2) == pytest.approx(0.25, abs=0.01)

    def test_determinism_bit_identical(self):
        a = draw_population(params(seed=99), 4)
        b = draw_population(params(seed=99), 4)
        assert np.array_equal(a.latent, b.latent)
        assert np.array_equal(a.responses, b.responses)
        c = draw_population(params(seed=100), 4)
        assert not np.array_equal(a.responses, c.responses)

    def test_zero_increment_matches_plain_draw_exactly(self):
        plain = draw_population(params(seed=7), 4)
        degenerate = draw_population(params(seed=7, beta_prime=0.0), 4)
        assert np.array_equal(plain.responses, degenerate.responses)

    def test_causal_increment_shifts_dependent_column_only(self):
        n = 100_000
        m = draw_population(params(p=0.75, k=2, n=n, seed=13, beta_prime=0.4), 3)
        half_sd = 0.5 / math.sqrt(n)
        assert m.responses[:, 0].mean() > 0.5 + 3 * half_sd
        for j in (1, 2):
            assert abs(m.responses[:, j].mean() - 0.5) < 4 * half_sd


class TestBlockedDraw:
    @pytest.mark.parametrize("beta_prime", [0.0, 0.4, -50.0])
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_every_block_size_draws_the_one_call_stream(self, block, beta_prime):
        for n in sorted({1, max(block - 1, 1), block, block + 1, 2 * block + 3}):
            pr = params(p=0.7, k=4, n=n, seed=31 + n, beta_prime=beta_prime)
            latent, responses = stream_population(pr)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metamodel, "_BLOCK_ROWS", block)
                m = draw_population(pr, 5)
            assert m.latent.dtype == m.responses.dtype == np.int8
            assert np.array_equal(m.latent, latent)
            assert np.array_equal(m.responses, responses)

    @pytest.mark.parametrize("beta_prime", [0.0, 0.3])
    def test_default_block_draws_the_one_call_stream(self, beta_prime):
        # N on, beside and past the edges of the real block size
        b = metamodel._BLOCK_ROWS
        for n in (1, b - 1, b, b + 1, 2 * b + 3):
            pr = params(p=0.65, k=2, n=n, seed=5, beta_prime=beta_prime)
            latent, responses = stream_population(pr)
            m = draw_population(pr, 3)
            assert np.array_equal(m.latent, latent)
            assert np.array_equal(m.responses, responses)

    def test_draw_memory_is_bounded_by_the_int8_table(self):
        # N = 200,000 at k = 9: the table is 2 MB; the one-call draw's
        # float64 uniforms alone were 16 MB
        pr = params(p=0.7, k=9, n=200_000, seed=3)
        tracemalloc.start()
        try:
            m = draw_population(pr, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.responses.nbytes == 2_000_000
        assert peak < 6_000_000


class TestResponseValidation:
    def _matrix(self, responses, latent=(1, -1)):
        pr = ModelParams(p=0.6, k=1, n_respondents=2, seed=0)
        return ResponseMatrix(latent=np.array(latent), responses=responses, params=pr)

    @pytest.mark.parametrize("responses", [
        np.array([[0, 1], [-1, 0]], dtype=np.int8),
        np.array([[0, 1], [1, 2]], dtype=np.int64),
        np.array([[0, 1], [1, 255]], dtype=np.uint8),
        np.array([[0, 0.5], [1, 0]], dtype=np.float64),
        np.array([[0, 1], [np.nan, 0]], dtype=np.float64),
    ])
    def test_entries_other_than_0_and_1_rejected(self, responses):
        with pytest.raises(ValueError, match="response entries must be 0 or 1"):
            self._matrix(responses)

    @pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint8, np.int64,
                                       np.float64])
    def test_zeros_and_ones_accepted_in_every_dtype(self, dtype):
        m = self._matrix(np.array([[0, 1], [1, 1]]).astype(dtype))
        buf = io.StringIO()
        write_population_csv(m, buf)
        assert buf.getvalue() == "Q,R0,R1\n1,0,1\n-1,1,1\n"

    @pytest.mark.parametrize("latent", [
        (1, 0), (1, 2), (-1, 0.5),
        np.array([1, 0], dtype=np.int8),
        np.array([-1, 2], dtype=np.int64),
        np.array([1, 255], dtype=np.uint8),
    ])
    def test_latent_other_than_plus_minus_one_rejected(self, latent):
        with pytest.raises(ValueError, match="latent entries"):
            self._matrix(np.zeros((2, 2), dtype=np.int8), latent=latent)


class TestInvariants:
    def test_exchangeable_columns_when_no_increment(self):
        n = 100_000
        m = draw_population(params(p=0.7, k=3, n=n, seed=23), 4)
        tol = 3.0 / math.sqrt(n)
        means = m.responses.mean(axis=0)
        assert means.max() - means.min() < tol
        r_theory = theoretical_correlation(0.7)
        for a in range(4):
            for b in range(a + 1, 4):
                assert abs(sample_correlation(m, a, b) - r_theory) < tol

    def test_conditional_independence_within_latent_class(self):
        m = draw_population(params(p=0.7, k=2, n=100_000, seed=29), 3)
        for q in (-1, 1):
            rows = m.responses[m.latent == q]
            n_class = rows.shape[0]
            corr = np.corrcoef(rows[:, 0], rows[:, 1])[0, 1]
            assert abs(corr) < 3.0 / math.sqrt(n_class)

    def test_stream_independence_across_indices(self):
        # keyed substreams must differ and be reproducible
        assert derive_seed(1, 0) != derive_seed(1, 1)
        assert derive_seed(1, 0) == derive_seed(1, 0)
        g1 = stream_generator(1, 5).random(4)
        g2 = stream_generator(1, 5).random(4)
        assert np.array_equal(g1, g2)


class TestSampleCorrelation:
    def _manual_matrix(self, cols):
        resp = np.column_stack(cols).astype(np.int8)
        n, width = resp.shape
        latent = np.resize(np.int8([1, -1]), n)
        pr = ModelParams(p=0.6, k=width - 1, n_respondents=n, seed=0)
        return ResponseMatrix(latent=latent, responses=resp, params=pr)

    def test_identical_columns(self):
        col = np.resize(np.int8([0, 1, 1, 0, 1]), 40)
        m = self._manual_matrix([col, col.copy(), 1 - col])
        assert sample_correlation(m, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_complement_column(self):
        col = np.resize(np.int8([0, 1, 1, 0, 1]), 40)
        m = self._manual_matrix([col, col.copy(), 1 - col])
        assert sample_correlation(m, 0, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_theory_at_large_n(self):
        m = draw_population(params(p=0.8, k=2, n=200_000, seed=31), 3)
        expected = theoretical_correlation(0.8)
        assert sample_correlation(m, 0, 1) == pytest.approx(expected, abs=0.01)

    def test_constant_column_raises(self):
        ones = np.ones(40, dtype=np.int8)
        varying = np.resize(np.int8([0, 1]), 40)
        m = self._manual_matrix([ones, varying])
        with pytest.raises(UndefinedCorrelationError):
            sample_correlation(m, 0, 1)

    def test_index_validation(self):
        m = draw_population(params(k=2, n=100), 3)
        with pytest.raises(ValueError):
            sample_correlation(m, 1, 1)
        with pytest.raises(IndexError):
            sample_correlation(m, 0, 5)


class TestCsvDump:
    def test_round_trip(self):
        m = draw_population(params(k=2, n=25, seed=41), 3)
        buf = io.StringIO()
        write_population_csv(m, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "Q,R0,R1,R2"
        parsed = np.array([[int(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], m.latent)
        assert np.array_equal(parsed[:, 1:], m.responses)

    def test_list_input_is_stored_as_read_only_arrays(self):
        pr = ModelParams(p=0.6, k=1, n_respondents=3, seed=0)
        m = ResponseMatrix(latent=[1, -1, 1], responses=[[0, 1], [1, 0], [1, 1]],
                           params=pr)
        for arr in (m.latent, m.responses):
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        assert m.n_columns == 2
        assert sample_correlation(m, 0, 1) == pytest.approx(-0.5)
        buf = io.StringIO()
        write_population_csv(m, buf)
        assert buf.getvalue() == "Q,R0,R1\n1,0,1\n-1,1,0\n1,1,1\n"

    def test_given_ndarrays_are_frozen_in_place(self):
        # documented contract: no copy is made, so the caller's arrays freeze
        pr = ModelParams(p=0.75, k=1, n_respondents=3, seed=0)
        latent = np.array([1, -1, 1], dtype=np.int8)
        responses = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
        m = ResponseMatrix(latent=latent, responses=responses, params=pr)
        assert m.latent is latent and m.responses is responses
        for arr in (latent, responses):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            latent[0] = -1
        listed = ResponseMatrix(latent=[1, -1, 1], responses=responses, params=pr)
        assert isinstance(listed.latent, np.ndarray)
        assert not listed.latent.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bytes_equal_savetxt_across_blocks_and_dtypes(self, data):
        block = data.draw(st.integers(2, 6), label="block")
        n = data.draw(st.one_of(st.sampled_from([1, block - 1, block, block + 1]),
                                st.integers(1, 3 * block + 1)), label="n")
        k = data.draw(st.integers(1, 12), label="k")
        q_sign = data.draw(st.sampled_from(["mixed", "+1", "-1"]), label="latent")
        if q_sign == "mixed":
            bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            latent = np.where(bits, 1, -1)
        else:
            latent = np.full(n, int(q_sign))
        latent = latent.astype(data.draw(
            st.sampled_from([np.int8, np.int64, np.float64]), label="latent dtype"))
        cells = data.draw(st.lists(st.booleans(), min_size=n * (k + 1),
                                   max_size=n * (k + 1)))
        responses = np.array(cells).reshape(n, k + 1).astype(data.draw(
            st.sampled_from([np.int8, np.bool_, np.int64, np.float64]),
            label="response dtype"))
        m = ResponseMatrix(latent=latent, responses=responses,
                           params=ModelParams(p=0.6, k=k, n_respondents=n, seed=0))
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metamodel, "_BLOCK_ROWS", block)
            write_population_csv(m, buf)
        assert buf.getvalue() == savetxt_population(latent, responses)
