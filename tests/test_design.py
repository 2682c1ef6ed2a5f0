import numpy as np
import pytest

from raptorkit.degrees import poisson_input
from raptorkit.design import (
    ConfigError,
    DesignConfig,
    DesignError,
    build_lp,
    optimize_distribution,
    sweep_alpha,
)
from raptorkit.evolution import stability_floor_omega2
from raptorkit.jfunction import j_of_mean, mean_of_ic
from raptorkit.simplex import solve_lp
from raptorkit.transfer import TransferFunction
from util import rejection_sample_feasible

# null-transfer design at alpha 16, delta 0.04, margin 1e-4, support 1-100,
# 200 grid points, as the seed's dense simplex solved it
DESIGN_PLAIN_RATE_16 = 0.47298317741202944


def null_cfg(channel, **kw):
    defaults = dict(transfer=TransferFunction.null(), alpha_grid=(21.0,),
                    delta=0.04, strict_margin=1e-4)
    defaults.update(kw)
    return DesignConfig(channel=channel, **defaults)


class TestBuildLp:
    def test_coefficient_matches_scalar_composition(self, ref_channel):
        cfg = null_cfg(ref_channel, grid_points=60)
        problem = build_lp(cfg, 21.0)
        degs = problem.meta["degrees"]
        xs = problem.meta["grid"]
        coeff = problem.meta["coeff"]
        ens = poisson_input(21.0, cfg.tail_tol)
        idegs, iws = ens.edge_arrays()
        for ti in (0, 17, 41, 59):
            mu = mean_of_ic(float(xs[ti]), clamp=True)
            g = float(np.dot(iws, j_of_mean((idegs - 1) * mu)))  # null transfer term absent
            nu = mean_of_ic(min(max(1.0 - g, 0.0), 1.0), clamp=True)
            for dj in (0, 1, 30, len(degs) - 1):
                expect = j_of_mean((float(degs[dj]) - 1.0) * nu + ref_channel.f0)
                assert coeff[ti, dj] == pytest.approx(expect, abs=1e-9)

    def test_rows_shapes(self, ref_channel):
        cfg = null_cfg(ref_channel)
        p = build_lp(cfg, 21.0)
        n = len(cfg.degree_support)
        assert p.c.shape == (n,)
        assert p.a_ub.shape == (cfg.grid_points + 2, n)
        assert p.a_eq.shape == (1, n)

    def test_support_without_degree_two_infeasible(self, ref_channel):
        cfg = null_cfg(ref_channel, degree_support=(1,))
        sol = solve_lp(build_lp(cfg, 21.0))
        assert sol.status == "infeasible"

    def test_reference_parameters_feasible(self, ref_channel):
        cfg = null_cfg(ref_channel)
        sol = solve_lp(build_lp(cfg, 21.0))
        assert sol.optimal

    def test_config_validation(self, ref_channel):
        with pytest.raises(ConfigError):
            null_cfg(ref_channel, degree_support=())
        with pytest.raises(ConfigError):
            null_cfg(ref_channel, grid_points=10)
        with pytest.raises(ConfigError):
            null_cfg(ref_channel, delta=0.9)
        with pytest.raises(ConfigError):
            null_cfg(ref_channel, delta_policy="auto")  # needs x_p > 0

    def test_alpha_below_alpha_min_rejected(self, ref_channel, transfer_3_60, xp_3_60):
        cfg = DesignConfig(channel=ref_channel, transfer=transfer_3_60, x_p=xp_3_60,
                           alpha_grid=(2.0,), delta=0.01, strict_margin=1e-4)
        with pytest.raises(ConfigError):
            build_lp(cfg, 2.0)


class TestOptimize:
    def test_ref_design_verified(self, ref_design):
        cfg, res = ref_design
        assert res.lp_status == "optimal"
        assert res.verified
        assert res.rate_lt > 0.375
        assert res.constraint_report["c2_min_slack"] > 0.0
        assert res.constraint_report["c3_slack"] > 0.0
        assert res.constraint_report["c4_slack"] > 0.0
        w = res.distribution.edge_weights
        assert w[1] > 0.0
        assert w[2] >= stability_floor_omega2(21.0, cfg.channel)

    def test_too_small_margin_is_flagged_not_silent(self, ref_channel):
        res = optimize_distribution(null_cfg(ref_channel, strict_margin=1e-8), 21.0)
        assert res.feasible
        assert not res.verified  # sub-grid dips flagged by the finer check

    def test_jd_beats_null_at_same_alpha(self, ref_channel, transfer_3_60, xp_3_60):
        null_rate = optimize_distribution(null_cfg(ref_channel), 21.0).rate_lt
        jd_cfg = DesignConfig(channel=ref_channel, transfer=transfer_3_60, x_p=xp_3_60,
                              alpha_grid=(21.0,), delta=0.04, strict_margin=1e-4)
        jd_rate = optimize_distribution(jd_cfg, 21.0).rate_lt
        assert jd_rate > null_rate

    def test_monotone_in_support(self, ref_channel):
        small = optimize_distribution(
            null_cfg(ref_channel, degree_support=tuple([1, 2, 3, 5, 10, 30])), 21.0)
        full = optimize_distribution(null_cfg(ref_channel), 21.0)
        assert full.rate_lt >= small.rate_lt - 1e-12

    def test_rejection_sampled_candidates_never_beat_lp(self, ref_design, rng):
        cfg, res = ref_design
        problem = build_lp(cfg, 21.0)
        degs = problem.meta["degrees"]
        opt = np.array([res.distribution.edge_weights.get(int(d), 0.0) for d in degs])
        opt_cost = float(np.dot(opt, 1.0 / degs))
        found, min_cost = rejection_sample_feasible(cfg, 21.0, problem, opt, rng, 3000)
        assert found > 200  # the sampler must actually exercise the claim
        assert min_cost >= opt_cost - 1e-9

    def test_solver_tolerances_reproduce_golden_rate(self, ref_channel):
        # At HiGHS's default feasibility tolerances this vertex violates a
        # row by ~6e-8 and the rate misses by 2.8e-8.
        cfg = null_cfg(ref_channel, alpha_grid=(16.0,))
        problem = build_lp(cfg, 16.0)
        sol = solve_lp(problem)
        assert np.all(problem.a_ub @ sol.x <= problem.b_ub + 1e-9)
        res = optimize_distribution(cfg, 16.0)
        assert res.rate_lt == pytest.approx(DESIGN_PLAIN_RATE_16, abs=1e-9)

    def test_zero_weights_dropped_from_solution(self, ref_design):
        _, res = ref_design
        assert all(w > 1e-12 for w in res.distribution.edge_weights.values())


class TestSweep:
    def test_singleton_grid(self, ref_channel):
        sweep = sweep_alpha(null_cfg(ref_channel))
        assert sweep.best.alpha == 21.0
        assert len(sweep.results) == 1

    def test_interior_maximum_on_straddling_grid(self, null_sweep):
        profile = [(a, r) for a, r in null_sweep.profile() if r is not None]
        rates = [r for _, r in profile]
        best_idx = int(np.argmax(rates))
        assert 0 < best_idx < len(rates) - 1  # interior maximizer
        assert null_sweep.best.rate_lt == pytest.approx(max(rates))

    def test_jd_sweep_beats_capacity(self, jd_sweep):
        assert jd_sweep.best.rate_lt > 0.5

    def test_all_infeasible_reports(self, ref_channel):
        cfg = null_cfg(ref_channel, degree_support=(1,), alpha_grid=(15.0, 21.0))
        with pytest.raises(DesignError, match="alpha=15"):
            sweep_alpha(cfg)

    def test_sub_alpha_min_points_recorded_not_fatal(self, ref_channel, transfer_3_60, xp_3_60):
        cfg = DesignConfig(channel=ref_channel, transfer=transfer_3_60, x_p=xp_3_60,
                           alpha_grid=(2.0, 21.0), delta=0.04, strict_margin=1e-4)
        sweep = sweep_alpha(cfg)
        low = next(r for r in sweep.results if r.alpha == 2.0)
        assert low.lp_status == "infeasible"
        assert "alpha_min" in low.constraint_report["error"]
        assert sweep.best.alpha == 21.0


class TestTabulatedTransferDesign:
    def test_table_design_tracks_analytic_design(self, tmp_path, ref_channel,
                                                 transfer_3_60, xp_3_60):
        from raptorkit.transfer import load_tabulated, save_tabulated

        path = tmp_path / "t360.txt"
        save_tabulated(transfer_3_60, path, points=201)
        table = load_tabulated(path)
        base = DesignConfig(channel=ref_channel, transfer=transfer_3_60, x_p=xp_3_60,
                            alpha_grid=(21.0,), delta=0.04, strict_margin=1e-4)
        tab_cfg = DesignConfig(channel=ref_channel, transfer=table, x_p=xp_3_60,
                               alpha_grid=(21.0,), delta=0.04, strict_margin=1e-4)
        r_analytic = optimize_distribution(base, 21.0)
        r_table = optimize_distribution(tab_cfg, 21.0)
        assert r_table.feasible
        assert r_table.rate_lt == pytest.approx(r_analytic.rate_lt, abs=2e-3)

    def test_pointwise_larger_transfer_never_hurts(self, ref_channel):
        # identity-endpoint ramp is pointwise >= the null transfer
        from raptorkit.transfer import TransferFunction as TF

        ramp = TF.tabulated([0.0, 0.5, 1.0], [0.0, 0.05, 1.0])
        null_rate = optimize_distribution(null_cfg(ref_channel), 21.0).rate_lt
        ramp_cfg = null_cfg(ref_channel, transfer=ramp)
        ramp_rate = optimize_distribution(ramp_cfg, 21.0).rate_lt
        assert ramp_rate >= null_rate - 1e-12
