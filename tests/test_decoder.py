import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from raptorkit.codec import LtStream, awgn_llr, build_regular_ldpc, lt_generate
from raptorkit.decoder import (
    TannerGraph,
    check_update,
    decode_joint,
    decode_tandem,
    variable_update,
)
from raptorkit.degrees import OutputDegreeDistribution
from util import graph_from_checks


def lt_dist():
    return OutputDegreeDistribution.from_node_weights(
        {1: 0.08, 2: 0.45, 3: 0.2, 4: 0.12, 10: 0.15})


class TestCheckUpdate:
    def test_degree_one_dynamic_check_passes_channel(self):
        out = check_update([0.0], channel_llr=2.4)
        assert out[0] == pytest.approx(2.4, abs=1e-12)

    def test_zero_incoming_annihilates_others(self):
        out = check_update([0.0, 1.3, -0.7], channel_llr=1.1)
        assert out[1] == 0.0 and out[2] == 0.0
        assert out[0] != 0.0

    def test_matches_exhaustive_marginalization(self, rng):
        # one parity check with observation: brute force over configurations
        for _ in range(30):
            deg = int(rng.integers(2, 5))
            inc = rng.normal(0, 2, size=deg)
            llr_ch = float(rng.normal(0, 2))
            out = check_update(inc, channel_llr=llr_ch)
            for e in range(deg):
                num = den = 0.0
                for cfg in range(1 << (deg - 1)):
                    others = [(cfg >> i) & 1 for i in range(deg - 1)]
                    idx = [i for i in range(deg) if i != e]
                    w = 1.0
                    for i, b in zip(idx, others):
                        w *= np.exp(0.5 * inc[i] * (1 - 2 * b))
                    par = sum(others) % 2
                    # outgoing belief about x_e: parity with channel bit
                    w0 = w * np.exp(0.5 * llr_ch * (1 - 2 * par))
                    w1 = w * np.exp(0.5 * llr_ch * (1 - 2 * ((par + 1) % 2)))
                    num += w0
                    den += w1
                assert out[e] == pytest.approx(np.log(num / den), abs=1e-9)

    def test_static_check_three_edges(self, rng):
        inc = rng.normal(0, 2, size=3)
        out = check_update(inc)
        for e in range(3):
            others = [i for i in range(3) if i != e]
            expect = 2 * np.arctanh(np.tanh(inc[others[0]] / 2) * np.tanh(inc[others[1]] / 2))
            assert out[e] == pytest.approx(expect, abs=1e-10)

    def test_clipping(self):
        out = check_update([100.0, 100.0], channel_llr=100.0, clip=30.0)
        assert np.all(np.abs(out) <= 30.0)

    def test_batched_pass_matches_literal_product_rule(self, rng):
        # random multi-check batch with zeros injected, against a direct
        # tanh-product evaluation done one check at a time
        from raptorkit.decoder import _check_pass

        for _ in range(20):
            n_checks = int(rng.integers(2, 6))
            deg = rng.integers(1, 5, size=n_checks)
            edge_check = np.repeat(np.arange(n_checks), deg)
            v2c = rng.normal(0, 3, size=edge_check.size)
            v2c[rng.random(v2c.size) < 0.3] = 0.0
            llrs = rng.normal(0, 3, size=n_checks)
            out = _check_pass(v2c, edge_check, n_checks, llrs, clip=30.0)
            pos = 0
            for ci in range(n_checks):
                d = int(deg[ci])
                inc = v2c[pos:pos + d]
                for e in range(d):
                    prod = np.tanh(0.5 * llrs[ci])
                    for o in range(d):
                        if o != e:
                            prod *= np.tanh(0.5 * inc[o])
                    expect = np.clip(2.0 * np.arctanh(np.clip(prod, -1 + 1e-16, 1 - 1e-16)), -30, 30)
                    assert out[pos + e] == pytest.approx(expect, abs=1e-9)
                pos += d


CLIP = 30.0
# nonzero messages stay at least 1e-3 away from 0 so that no product of
# up to 7 factors underflows; exact zeros and the clip are drawn on purpose
_message = st.one_of(
    st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3),
    st.sampled_from([0.0, -0.0, CLIP, -CLIP]))
_channel = st.one_of(st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3), st.just(0.0))


@st.composite
def _check_batch(draw):
    degrees = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    edge_check = np.repeat(np.arange(len(degrees)), degrees)
    edge_check = edge_check[draw(st.permutations(range(edge_check.size)))]
    messages = np.array(draw(st.lists(_message, min_size=edge_check.size,
                                      max_size=edge_check.size)))
    llrs = None
    if draw(st.booleans()):
        llrs = np.array(draw(st.lists(_channel, min_size=len(degrees), max_size=len(degrees))))
    return messages, edge_check, len(degrees), llrs


class TestCheckPassProperty:
    @settings(max_examples=200, deadline=None)
    @given(batch=_check_batch())
    def test_matches_leave_one_out_product(self, batch):
        # compared through tanh(out/2): well conditioned where atanh of a
        # product near +-1 is not
        from raptorkit.decoder import _check_pass

        messages, edge_check, n_checks, llrs = batch
        out = _check_pass(messages, edge_check, n_checks, llrs, CLIP)
        prod = np.array(oracles.leave_one_out_products(messages, edge_check, n_checks,
                                                       llrs, CLIP))
        assert np.all(np.abs(out) <= CLIP)
        assert np.max(np.abs(np.tanh(0.5 * out) - prod)) <= 1e-12
        assert np.array_equal(out == 0.0, prod == 0.0)
        assert np.array_equal(np.sign(out), np.sign(prod))


def _ufunc_digest() -> str:
    x = np.linspace(-40.0, 40.0, 8001)
    t = np.tanh(0.5 * x)
    a = np.abs(t)
    h = hashlib.sha256()
    for arr in (t, np.log(a[a > 0.0]), np.exp(-np.abs(x)), np.arctanh(np.minimum(a, 1.0 - 1e-16))):
        h.update(arr.tobytes())
    return h.hexdigest()


# Digests recorded on x86_64 with AVX-512, numpy 2.4: first of the
# transcendental ufuncs the check pass uses, then of the two decodes.
UFUNC_DIGEST = "0304241842a5e5093f8141101cf942f491262a6461361cc090bd03fa4381f9f1"
JOINT_DIGEST = "9306982bc47f953856c67103f2cbdcc7c9db37b83cde6567418c126c8da9d06c"
TANDEM_DIGEST = "d5676505ef3207ebc30cabcef8ecf2f51b0df4f537a12714d0045969705b946c"


def _pinned_raptor_graph() -> TannerGraph:
    """Small raptor graph drawn straight from a seeded generator, so that it
    does not change with the package's own samplers: LT checks of degree 1
    to 8 with noisy channel values, three exactly-zero and three saturated
    ones, plus a precode of 16 degree-6 checks."""
    rng = np.random.default_rng(8128)
    k, n_sym, m, d_c = 96, 150, 16, 6
    degs = rng.choice([1, 2, 3, 4, 8], size=n_sym, p=[0.1, 0.45, 0.2, 0.15, 0.1])
    dyn_var = np.concatenate([rng.choice(k, int(d), replace=False) for d in degs])
    sigma = 0.98
    llrs = 2.0 * (1.0 + sigma * rng.standard_normal(n_sym)) / sigma**2
    llrs[:3] = 0.0
    llrs[3:6] = [45.0, -45.0, 30.0]
    stat_var = np.concatenate([rng.choice(k, d_c, replace=False) for _ in range(m)])
    return TannerGraph(k=k, dyn_edge_var=dyn_var.astype(np.int64),
                       dyn_edge_check=np.repeat(np.arange(n_sym), degs).astype(np.int64),
                       dyn_llrs=llrs,
                       stat_edge_var=stat_var.astype(np.int64),
                       stat_edge_check=np.repeat(np.arange(m), d_c).astype(np.int64))


def _decode_digest(res) -> str:
    h = hashlib.sha256()
    h.update(res.totals.tobytes())
    h.update(np.array([res.iterations, res.converged], dtype=np.int64).tobytes())
    h.update(np.array(res.llr_trace, dtype=float).tobytes())
    return h.hexdigest()


class TestBitExactDecode:
    """The decoder's float operations are pinned bit for bit: a rewrite of
    the check or variable pass that rounds differently changes the digests."""

    def test_decodes_match_recorded_digests(self):
        if _ufunc_digest() != UFUNC_DIGEST:
            pytest.skip("numpy's tanh/log/exp/arctanh round differently on this platform "
                        "than where the digests were recorded")
        graph = _pinned_raptor_graph()
        joint = decode_joint(graph, max_iters=40)
        tandem = decode_tandem(graph, lt_iters=30, precode_iters=20)
        assert (joint.iterations, tandem.iterations) == (40, 50)
        assert _decode_digest(joint) == JOINT_DIGEST
        assert _decode_digest(tandem) == TANDEM_DIGEST


class TestVariableUpdate:
    def test_single_edge_outputs_zero(self):
        out, total = variable_update([1.7])
        assert out[0] == 0.0
        assert total == pytest.approx(1.7)

    def test_three_edges(self):
        out, total = variable_update([1.0, -2.0, 0.5])
        assert np.allclose(out, [-1.5, 1.5, -1.0])
        assert total == pytest.approx(-0.5)

    def test_apriori_enters_every_output(self):
        out, total = variable_update([1.0, 2.0], apriori=0.5)
        assert np.allclose(out, [3.0 - 1.0 + 0.5, 3.0 - 2.0 + 0.5])
        assert total == pytest.approx(3.5)


class TestTreeExactness:
    def test_bp_equals_brute_force_on_trees(self):
        rng = np.random.default_rng(505)
        for _ in range(50):
            n_vars, checks = oracles.random_tree_factor_graph(rng, max_vars=12)
            graph = graph_from_checks(n_vars, checks)
            exact = oracles.exact_marginals(n_vars, checks)
            res = decode_joint(graph, max_iters=30, early_stop=False)
            assert np.max(np.abs(res.totals - exact)) < 1e-9


class TestDecodeJoint:
    def test_near_noiseless_decodes_clean(self, rng):
        k = 400
        stream = LtStream(dist=lt_dist(), k=k, seed=3)
        bits = rng.integers(0, 2, k).astype(np.uint8)
        out = lt_generate(stream, 1100, bits)
        graph = TannerGraph.from_stream(stream, awgn_llr(out, 0.01, seed=9))
        res = decode_joint(graph, max_iters=100)
        assert res.converged
        assert np.array_equal(res.bits, bits)

    def test_stream_graph_size_validation(self, rng):
        stream = LtStream(dist=lt_dist(), k=50, seed=1)
        out = lt_generate(stream, 40, np.zeros(50, dtype=np.uint8))
        short = awgn_llr(out[:30], 1.0, seed=1)
        with pytest.raises(ValueError):
            TannerGraph.from_stream(stream, short)
        code = build_regular_ldpc(60, 3, 6, seed=1, check_rank=False)
        with pytest.raises(ValueError):
            TannerGraph.from_stream(stream, awgn_llr(out, 1.0, seed=1), code)

    def test_zero_received_symbols(self):
        stream = LtStream(dist=lt_dist(), k=50, seed=1)
        out = lt_generate(stream, 0, np.zeros(50, dtype=np.uint8))
        graph = TannerGraph.from_stream(stream, awgn_llr(out, 1.0, seed=1))
        res = decode_joint(graph, max_iters=5)
        assert not res.converged
        assert not res.bits.any()  # ties resolve to zero
        assert np.all(res.totals == 0.0)

    def test_early_stop_reports_true_syndrome(self, rng):
        k = 300
        stream = LtStream(dist=lt_dist(), k=k, seed=12)
        bits = rng.integers(0, 2, k).astype(np.uint8)
        out = lt_generate(stream, 900, bits)
        graph = TannerGraph.from_stream(stream, awgn_llr(out, 0.4, seed=2))
        res = decode_joint(graph, max_iters=60)
        if res.converged:
            # recompute both syndrome families independently
            for ci in range(len(stream)):
                nbrs = stream.symbol_neighbors(ci)
                received = 1 if graph.dyn_llrs[ci] < 0 else 0
                assert int(res.bits[nbrs].sum() % 2) == received

    def test_symmetry_under_codeword_flip(self, rng):
        # decoding LLRs sign-flipped per a codeword's output bits mirrors
        # the all-zero decode xor the codeword: all-zero simulation is valid
        k = 256
        stream = LtStream(dist=lt_dist(), k=k, seed=77)
        word = rng.integers(0, 2, k).astype(np.uint8)
        out_bits = lt_generate(stream, 720, word)
        base = awgn_llr(np.zeros(720, dtype=np.uint8), 0.9, seed=5)
        graph0 = TannerGraph.from_stream(stream, base)
        res0 = decode_joint(graph0, max_iters=50)
        flipped = type(base)(llrs=base.llrs * (1.0 - 2.0 * out_bits), sigma=base.sigma)
        graph1 = TannerGraph.from_stream(stream, flipped)
        res1 = decode_joint(graph1, max_iters=50)
        assert np.array_equal(res1.bits, res0.bits ^ word)
        assert res0.converged == res1.converged

    def test_clip_transparency(self, rng):
        k = 1500
        stream = LtStream(dist=lt_dist(), k=k, seed=41)
        out = lt_generate(stream, 4200, np.zeros(k, dtype=np.uint8))
        ch = awgn_llr(out, 0.9787, seed=8)
        g = TannerGraph.from_stream(stream, ch)
        r30 = decode_joint(g, max_iters=60, clip=30.0)
        r60 = decode_joint(g, max_iters=60, clip=60.0)
        agree = float(np.mean(r30.bits == r60.bits))
        assert agree >= 0.999


class TestDecodeTandem:
    def test_null_precode_matches_joint(self, rng):
        k = 300
        stream = LtStream(dist=lt_dist(), k=k, seed=6)
        out = lt_generate(stream, 850, np.zeros(k, dtype=np.uint8))
        graph = TannerGraph.from_stream(stream, awgn_llr(out, 0.95, seed=4))
        joint = decode_joint(graph, max_iters=80)
        tandem = decode_tandem(graph, lt_iters=80, precode_iters=40)
        assert np.array_equal(joint.bits, tandem.bits)
        assert joint.converged == tandem.converged
        assert joint.iterations == tandem.iterations

    def test_noiseless_raptor_roundtrip(self, rng):
        code = build_regular_ldpc(300, 3, 6, seed=10)
        from raptorkit.codec import ldpc_encode

        info = rng.integers(0, 2, code.info_length).astype(np.uint8)
        word = ldpc_encode(code, info)
        stream = LtStream(dist=lt_dist(), k=300, seed=20)
        out = lt_generate(stream, 820, word)
        graph = TannerGraph.from_stream(stream, awgn_llr(out, 0.01, seed=3), code)
        for result in (decode_joint(graph, max_iters=60),
                       decode_tandem(graph, lt_iters=60, precode_iters=40)):
            assert result.converged
            assert np.array_equal(result.bits, word)

    def test_precode_recovers_punctured_region(self, rng):
        # static checks must matter: compare tandem with and without precode
        # on a channel where the LT alone leaves residual errors
        code = build_regular_ldpc(400, 3, 8, seed=2)
        k = 400
        stream = LtStream(dist=lt_dist(), k=k, seed=9)
        out = lt_generate(stream, 1050, np.zeros(k, dtype=np.uint8))
        ch = awgn_llr(out, 1.02, seed=6)
        bare = decode_joint(TannerGraph.from_stream(stream, ch), max_iters=50)
        helped = decode_joint(TannerGraph.from_stream(stream, ch, code), max_iters=50)
        assert helped.bits.sum() <= bare.bits.sum()
