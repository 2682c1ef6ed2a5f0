import numpy as np
import pytest
from scipy.stats import chi2

from raptorkit.codec import (
    STREAM_NEIGHBORS,
    CodecError,
    LtStream,
    awgn_llr,
    build_regular_ldpc,
    child_seed,
    lt_generate,
    ldpc_encode,
    substream,
)
from raptorkit.degrees import OutputDegreeDistribution


class TestLdpcConstruction:
    def test_divisibility_check(self):
        with pytest.raises(CodecError):
            build_regular_ldpc(100, 3, 7, seed=1)

    def test_tiny_full_row_code(self):
        # 60*3/60 = 3 checks, each touching all 60 variables once
        code = build_regular_ldpc(60, 3, 60, seed=3, check_rank=False)
        assert code.m == 3
        assert all(len(set(row)) == 60 for row in code.check_neighbors)

    def test_full_scale_shape(self):
        code = build_regular_ldpc(65000, 3, 60, seed=1, check_rank=False)
        assert code.m == 3250
        assert code.design_rate == pytest.approx(0.95)
        counts = np.bincount(code.check_neighbors.ravel(), minlength=65000)
        assert counts.min() == 3 and counts.max() == 3
        assert all(len(set(map(int, row))) == 60 for row in code.check_neighbors)

    def test_determinism(self):
        a = build_regular_ldpc(600, 3, 6, seed=17, check_rank=False)
        b = build_regular_ldpc(600, 3, 6, seed=17, check_rank=False)
        assert np.array_equal(a.check_neighbors, b.check_neighbors)
        c = build_regular_ldpc(600, 3, 6, seed=18, check_rank=False)
        assert not np.array_equal(a.check_neighbors, c.check_neighbors)


class TestLdpcEncode:
    def test_zero_maps_to_zero(self):
        code = build_regular_ldpc(40, 3, 6, seed=5)
        word = ldpc_encode(code, np.zeros(code.info_length, dtype=np.uint8))
        assert not word.any()

    def test_syndrome_zero_by_matrix_oracle(self, rng):
        # 20-bit toy code checked against a dense H multiply
        code = build_regular_ldpc(20, 2, 4, seed=9)
        h = np.zeros((code.m, code.n), dtype=np.uint8)
        for ci, row in enumerate(code.check_neighbors):
            for v in row:
                h[ci, v] ^= 1
        for _ in range(20):
            info = rng.integers(0, 2, code.info_length).astype(np.uint8)
            word = ldpc_encode(code, info)
            assert not ((h @ word) % 2).any()

    def test_linearity(self, rng):
        code = build_regular_ldpc(60, 3, 6, seed=2)
        a = rng.integers(0, 2, code.info_length).astype(np.uint8)
        b = rng.integers(0, 2, code.info_length).astype(np.uint8)
        assert np.array_equal(ldpc_encode(code, a ^ b),
                              ldpc_encode(code, a) ^ ldpc_encode(code, b))

    def test_systematic_positions_carry_info(self, rng):
        code = build_regular_ldpc(60, 3, 6, seed=2)
        enc = code._enc()
        info = rng.integers(0, 2, code.info_length).astype(np.uint8)
        word = ldpc_encode(code, info)
        assert np.array_equal(word[enc.free_cols], info)

    @pytest.mark.parametrize("n, d_v, d_c, seed", [(60, 3, 6, 2), (48, 2, 8, 7)])
    def test_free_part_matches_column_by_column(self, n, d_v, d_c, seed):
        # reduced row echelon form by plain dense elimination; it is unique,
        # so the pivot bits' dependence on the free bits is pinned exactly
        code = build_regular_ldpc(n, d_v, d_c, seed=seed, check_rank=False)
        h = np.zeros((code.m, n), dtype=np.uint8)
        for ci, row in enumerate(code.check_neighbors):
            h[ci, row] = 1
        pivots, r = [], 0
        for col in range(n):
            rows = [i for i in range(r, code.m) if h[i, col]]
            if not rows:
                continue
            h[[r, rows[0]]] = h[[rows[0], r]]
            for i in range(code.m):
                if i != r and h[i, col]:
                    h[i] ^= h[r]
            pivots.append(col)
            r += 1
        enc = code._enc()
        assert enc.rank == r and enc.pivot_cols.tolist() == pivots
        expect = np.zeros((r, enc.free_cols.size), dtype=np.uint8)
        for j, col in enumerate(enc.free_cols):
            expect[:, j] = h[:r, col]
        got = np.unpackbits(enc.p, axis=1, bitorder="little", count=enc.free_cols.size)
        assert np.array_equal(got, expect)

    def test_wrong_info_length(self):
        code = build_regular_ldpc(40, 3, 6, seed=5)
        with pytest.raises(CodecError):
            ldpc_encode(code, np.zeros(code.info_length + 1, dtype=np.uint8))


def small_dist():
    return OutputDegreeDistribution.from_node_weights(
        {1: 0.1, 2: 0.45, 3: 0.2, 4: 0.15, 10: 0.1})


class TestLtStream:
    def test_all_zero_inputs_give_zero_outputs(self):
        stream = LtStream(dist=small_dist(), k=200, seed=1)
        out = lt_generate(stream, 500, np.zeros(200, dtype=np.uint8))
        assert not out.any()

    def test_xor_parity_on_encoder_side(self, rng):
        stream = LtStream(dist=small_dist(), k=300, seed=4)
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        out = lt_generate(stream, 800, bits)
        for i in range(0, 800, 37):
            assert out[i] == bits[stream.symbol_neighbors(i)].sum() % 2

    def test_neighbors_distinct(self):
        stream = LtStream(dist=small_dist(), k=50, seed=8)
        lt_generate(stream, 2000)
        for i in range(2000):
            nbrs = stream.symbol_neighbors(i)
            assert len(set(map(int, nbrs))) == len(nbrs)

    def test_chunked_generation_matches_single_shot(self):
        a = LtStream(dist=small_dist(), k=100, seed=21)
        lt_generate(a, 130)
        lt_generate(a, 170)
        b = LtStream(dist=small_dist(), k=100, seed=21)
        lt_generate(b, 300)
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.offsets, b.offsets)

    def test_neighbor_uniformity_chi_square(self):
        # degree-1 symbols directly expose the neighbor law
        dist = OutputDegreeDistribution.from_node_weights({1: 1.0})
        stream = LtStream(dist=dist, k=4, seed=33)
        lt_generate(stream, 100000)
        counts = np.bincount(stream.neighbors, minlength=4)
        expected = 100000 / 4.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=3)

    def test_degree_histogram_chi_square(self):
        dist = small_dist()
        stream = LtStream(dist=dist, k=50, seed=60)
        n = 1_000_000
        lt_generate(stream, n)
        degs, probs = dist.node_arrays()
        counts = np.array([(stream.degrees == d).sum() for d in degs])
        expected = probs * n
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert counts.sum() == n  # no stray degrees
        assert stat < chi2.ppf(0.99, df=len(degs) - 1)

    def test_subset_uniformity_through_retries(self):
        # degree 3 of k = 5: only 48% of independent draws are distinct, so
        # most symbols take the retry path; all 10 subsets stay equally likely
        from itertools import combinations

        dist = OutputDegreeDistribution.from_node_weights({3: 1.0})
        stream = LtStream(dist=dist, k=5, seed=44)
        n = 20000
        lt_generate(stream, n)
        index = {c: i for i, c in enumerate(combinations(range(5), 3))}
        rows = np.sort(stream.neighbors.reshape(n, 3), axis=1)
        counts = np.bincount([index[tuple(map(int, r))] for r in rows], minlength=10)
        expected = n / 10.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=9)

    def test_chunked_generation_with_retries(self):
        # degree 10 of k = 12: nearly every symbol is redrawn from the retry
        # substream, and chunking must not change which values it yields
        dist = OutputDegreeDistribution.from_node_weights({2: 0.5, 10: 0.5})
        a = LtStream(dist=dist, k=12, seed=5)
        for count in (13, 1, 26):
            lt_generate(a, count)
        b = LtStream(dist=dist, k=12, seed=5)
        lt_generate(b, 40)
        assert np.array_equal(a.degrees, b.degrees)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.offsets, b.offsets)
        # a symbol keeps its independent draws unless they repeat a position
        plain = substream(5, STREAM_NEIGHBORS).integers(0, 12, size=int(b.offsets[-1]))
        retried = 0
        for i in range(40):
            nbrs = b.symbol_neighbors(i)
            first = plain[b.offsets[i]:b.offsets[i + 1]]
            assert len(set(map(int, nbrs))) == len(nbrs)
            if len(set(map(int, first))) == len(first):
                assert np.array_equal(nbrs, first)
            else:
                retried += 1
        assert retried >= 10

    def test_zero_count_and_full_degree(self):
        dist = OutputDegreeDistribution.from_node_weights({6: 1.0})
        stream = LtStream(dist=dist, k=6, seed=3)
        out = lt_generate(stream, 0, np.ones(6, dtype=np.uint8))
        assert out.size == 0 and len(stream) == 0
        assert stream.offsets.tolist() == [0]
        bits = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
        out = lt_generate(stream, 25, bits)
        assert len(stream) == 25 and stream.offsets[-1] == 150
        for i in range(25):
            assert sorted(map(int, stream.symbol_neighbors(i))) == list(range(6))
        assert np.all(out == 1)  # every symbol XORs all six bits

    def test_rejects_batch_whose_sort_keys_overflow(self):
        # (symbol, position) sort keys must fit in int64
        dist = OutputDegreeDistribution.from_node_weights({1: 1.0})
        stream = LtStream(dist=dist, k=2**31 - 1, seed=2)
        with pytest.raises(CodecError, match="fewer"):
            lt_generate(stream, 2**33)
        assert len(stream) == 0

    def test_rejects_excess_degree(self):
        dist = OutputDegreeDistribution.from_node_weights({10: 1.0})
        stream = LtStream(dist=dist, k=5, seed=2)
        with pytest.raises(CodecError):
            lt_generate(stream, 10)


class TestChannel:
    def test_vanishing_noise_recovers_bits(self, rng):
        bits = rng.integers(0, 2, 4000).astype(np.uint8)
        out = awgn_llr(bits, sigma=0.01, seed=5)
        recovered = (out.llrs < 0).astype(np.uint8)
        assert np.array_equal(recovered, bits)

    def test_llr_moments_match_symmetric_gaussian(self):
        # for the all-zero word (s = +1): mean 2/s^2, variance 4/s^2
        sigma = 0.8
        n = 1_000_000
        out = awgn_llr(np.zeros(n, dtype=np.uint8), sigma=sigma, seed=11)
        mean_t = 2.0 / sigma**2
        var_t = 4.0 / sigma**2
        se_mean = np.sqrt(var_t / n)
        assert abs(out.llrs.mean() - mean_t) < 3.0 * se_mean
        se_var = var_t * np.sqrt(2.0 / (n - 1))
        assert abs(out.llrs.var(ddof=1) - var_t) < 3.0 * se_var

    def test_determinism(self):
        bits = np.zeros(100, dtype=np.uint8)
        a = awgn_llr(bits, 0.9, seed=3).llrs
        b = awgn_llr(bits, 0.9, seed=3).llrs
        assert np.array_equal(a, b)

    def test_sigma_validation(self):
        with pytest.raises(CodecError):
            awgn_llr(np.zeros(4, dtype=np.uint8), sigma=0.0)


class TestSeedDiscipline:
    def test_substream_independence(self):
        s1 = substream(7, 0).standard_normal(4)
        s2 = substream(7, 1).standard_normal(4)
        assert not np.allclose(s1, s2)
        again = substream(7, 0).standard_normal(4)
        assert np.array_equal(s1, again)

    def test_child_seed_stable(self):
        assert child_seed(123, 4, 5) == child_seed(123, 4, 5)
        assert child_seed(123, 4, 5) != child_seed(123, 4, 6)
