import pytest

from raptorkit.degrees import OutputDegreeDistribution
from raptorkit.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentError,
    overhead_to_symbols,
    predict_threshold,
    run_ber_curve,
)
from raptorkit.transfer import TransferFunction


def sim_dist():
    return OutputDegreeDistribution.from_node_weights(
        {1: 0.08, 2: 0.45, 3: 0.2, 4: 0.12, 10: 0.15})


class TestOverheadArithmetic:
    def test_basic(self):
        assert overhead_to_symbols(1000, 0.5, 0.1) == 2200

    def test_capacity_rate_point(self):
        assert overhead_to_symbols(1000, 0.5, 0.0) == 2000

    def test_full_scale(self):
        assert overhead_to_symbols(65000, 0.5, 0.04) == 135200

    def test_validation(self):
        with pytest.raises(ExperimentError):
            overhead_to_symbols(100, 1.5, 0.1)
        with pytest.raises(ExperimentError):
            overhead_to_symbols(100, 0.5, -1.0)


class TestConfigValidation:
    def test_bad_values(self):
        good = dict(k_info=100, distribution=sim_dist(), sigma=0.9787,
                    overheads=(0.1,), trials=1)
        ExperimentConfig(**good)
        with pytest.raises(ExperimentError):
            ExperimentConfig(**{**good, "trials": 0})
        with pytest.raises(ExperimentError):
            ExperimentConfig(**{**good, "overheads": (-1.0,)})
        with pytest.raises(ExperimentError):
            ExperimentConfig(**{**good, "schedule": "other"})
        with pytest.raises(ExperimentError):
            ExperimentConfig(**{**good, "precode": (3, 7, 100)})

    def test_k_info_above_precode_information_length_rejected(self):
        # (3, 30, 600) has 600 - 60 = 540 information bits; counting errors
        # over 540 positions and dividing by 600 would understate the BER.
        base = dict(distribution=sim_dist(), sigma=0.9787, overheads=(0.1,), trials=1,
                    precode=(3, 30, 600), zero_codeword=False)
        with pytest.raises(ExperimentError, match="k_info"):
            ExperimentConfig(k_info=600, **base)
        with pytest.raises(ExperimentError, match="k_info"):
            ExperimentConfig(k_info=541, **base)
        ExperimentConfig(k_info=540, **base)
        # the (3, 60, 10^4) precode of the near-threshold runs, at its limit
        ExperimentConfig(k_info=9500, **{**base, "precode": (3, 60, 10_000)})

    def test_precode_length_is_input_count(self):
        cfg = ExperimentConfig(k_info=95, distribution=sim_dist(), sigma=0.9787,
                               overheads=(0.1,), trials=1, precode=(3, 60, 100))
        assert cfg.n_input == 100


class TestBerCurve:
    def test_near_noiseless_zero_errors(self):
        cfg = ExperimentConfig(k_info=800, distribution=sim_dist(), sigma=0.01,
                               overheads=(0.3,), trials=5, max_iters=50, master_seed=1)
        recs = run_ber_curve(cfg)
        assert recs[0].ber == 0.0
        assert recs[0].frame_errors == 0

    def test_record_arithmetic_invariants(self):
        cfg = ExperimentConfig(k_info=600, distribution=sim_dist(), sigma=0.9787,
                               overheads=(0.02, 0.5), trials=4, max_iters=40, master_seed=3)
        for rec in run_ber_curve(cfg):
            assert rec.n_output == overhead_to_symbols(600, cfg.capacity, rec.overhead)
            assert rec.ber == rec.bit_errors / (rec.trials * 600)
            assert rec.fer == rec.frame_errors / rec.trials
            assert rec.trials == 4

    def test_ber_decreases_with_overhead(self):
        cfg = ExperimentConfig(k_info=1000, distribution=sim_dist(), sigma=0.9787,
                               overheads=(0.02, 0.6), trials=5, max_iters=60, master_seed=9)
        recs = run_ber_curve(cfg)
        assert recs[0].ber > recs[1].ber

    def test_csv_determinism(self, tmp_path):
        cfg = ExperimentConfig(k_info=400, distribution=sim_dist(), sigma=0.9787,
                               overheads=(0.1, 0.4), trials=3, max_iters=30, master_seed=11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ber_curve(cfg, csv_path=p1)
        run_ber_curve(cfg, csv_path=p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_different_seed_changes_outcome(self, tmp_path):
        base = dict(k_info=400, distribution=sim_dist(), sigma=1.05,
                    overheads=(0.15,), trials=3, max_iters=30)
        r1 = run_ber_curve(ExperimentConfig(master_seed=1, **base))
        r2 = run_ber_curve(ExperimentConfig(master_seed=2, **base))
        assert r1[0].seed != r2[0].seed

    def test_workers_match_serial(self):
        base = dict(k_info=300, distribution=sim_dist(), sigma=0.9787,
                    overheads=(0.2,), trials=4, max_iters=25, master_seed=5)
        serial = run_ber_curve(ExperimentConfig(workers=1, **base))
        parallel = run_ber_curve(ExperimentConfig(workers=2, **base))
        assert serial == parallel

    def test_random_codeword_mode_with_precode(self):
        cfg = ExperimentConfig(k_info=285, distribution=sim_dist(), sigma=0.01,
                               overheads=(0.3,), trials=2, max_iters=50,
                               precode=(3, 60, 300), zero_codeword=False, master_seed=2)
        recs = run_ber_curve(cfg)
        assert recs[0].ber == 0.0


class TestPredictThreshold:
    def test_rate_arithmetic(self, ref_channel):
        # average degree 9.1 at alpha 10: R_LT = 0.91, eps* = C/R_LT - 1
        dist = OutputDegreeDistribution.from_node_weights({1: 0.1, 10: 0.9})
        pred = predict_threshold(dist, ref_channel, TransferFunction.null(),
                                 x_p=0.0, alpha=10.0, max_iters=100)
        assert pred.rate_lt == pytest.approx(0.91)
        assert pred.epsilon_star == pytest.approx(ref_channel.x0 * 10.0 / 9.1 - 1.0)

    def test_never_starting_distribution_unreachable(self, ref_channel):
        dist = OutputDegreeDistribution.from_node_weights({2: 0.5, 3: 0.5})
        pred = predict_threshold(dist, ref_channel, TransferFunction.null(),
                                 x_p=0.0, alpha=15.0, max_iters=200)
        assert not pred.reachable
        assert pred.epsilon_star is None
        assert pred.stall_point is not None and pred.stall_point < 1e-6

    def test_designed_distribution_reachable(self, ref_design, ref_channel):
        _, res = ref_design
        pred = predict_threshold(res.distribution, ref_channel,
                                 TransferFunction.null(), x_p=0.0, alpha=21.0)
        assert pred.reachable
        assert pred.epsilon_star == pytest.approx(
            ref_channel.x0 / res.rate_lt - 1.0, rel=1e-9)

    def test_precode_rate_enters_overhead(self, ref_design, ref_channel):
        _, res = ref_design
        bare = predict_threshold(res.distribution, ref_channel,
                                 TransferFunction.null(), x_p=0.0, alpha=21.0)
        with_rp = predict_threshold(res.distribution, ref_channel,
                                    TransferFunction.null(), x_p=0.0, alpha=21.0,
                                    precode_rate=0.95)
        assert with_rp.epsilon_star > bare.epsilon_star
