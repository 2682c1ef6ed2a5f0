import math

import numpy as np
import pytest

from raptorkit.degrees import OutputDegreeDistribution, poisson_input
from raptorkit.evolution import (
    EvolutionContext,
    alpha_min,
    delta_max,
    evolve_f,
    evolve_f_grid,
    extrinsic_ic,
    run_trajectory,
    stability_floor_omega2,
)
from raptorkit.jfunction import ChannelParam, j_of_mean, mean_of_ic
from raptorkit.transfer import TransferFunction
from util import random_context, random_edge_dist

# straight-line quadrature composition, pinned before the build:
# omega = {1:.05, 2:.35, 3:.25, 7:.20, 20:.15}, alpha 21, sigma 0.9787, x=0.3
EVOLVE_PINNED = 0.4912054621124329
EXT_21_04 = 0.9998579956350228
ORACLE_OMEGA = {1: 0.05, 2: 0.35, 3: 0.25, 7: 0.20, 20: 0.15}

# node-view designs: the reference LT design (null transfer, alpha 21) and
# the best precode-aware design with the (3,60) precode (alpha 7)
LT_REF_ALPHA21 = {1: 0.09772869351791323, 2: 0.40374696067244426,
                  4: 0.026443118698326693, 5: 0.33873881476483625,
                  19: 0.07972545007423942, 100: 0.053616962272240214}
RAPTOR_JD_BEST = {1: 0.03742945719060151, 2: 0.515441577300767,
                  4: 0.1744674740287059, 5: 0.17927099966156138,
                  10: 0.09257845539284305, 100: 0.0008120364255212527}


@pytest.fixture()
def pinned_ctx(ref_channel):
    return EvolutionContext(
        channel=ref_channel,
        input_ensemble=poisson_input(21.0),
        transfer=TransferFunction.null(),
        dist=OutputDegreeDistribution.from_edge_weights(ORACLE_OMEGA),
    )


class TestEvolveF:
    def test_matches_composition_oracle(self, pinned_ctx):
        assert evolve_f(pinned_ctx, 0.3) == pytest.approx(EVOLVE_PINNED, abs=1e-6)

    def test_start_value_is_w1_times_capacity(self, pinned_ctx, ref_channel):
        # reference anchor: half a bit of capacity times the degree-1 share
        assert evolve_f(pinned_ctx, 0.0) == pytest.approx(0.05 * 0.5, abs=5e-3)
        assert evolve_f(pinned_ctx, 0.0) == pytest.approx(0.05 * ref_channel.x0, abs=1e-9)

    def test_start_condition_random_contexts(self, rng):
        for _ in range(10):
            ctx = random_context(rng)
            w1 = ctx.dist.edge_weights.get(1, 0.0)
            assert evolve_f(ctx, 0.0) == pytest.approx(w1 * ctx.channel.x0, abs=1e-9)

    def test_saturation_reaches_capacity(self, pinned_ctx, ref_channel):
        assert evolve_f(pinned_ctx, 1.0) == pytest.approx(ref_channel.x0, abs=1e-6)

    def test_saturation_with_analytic_transfer(self, ref_channel, transfer_3_60):
        ctx = EvolutionContext(channel=ref_channel, input_ensemble=poisson_input(21.0),
                               transfer=transfer_3_60,
                               dist=OutputDegreeDistribution.from_edge_weights(ORACLE_OMEGA))
        assert evolve_f(ctx, 1.0) == pytest.approx(ref_channel.x0, abs=1e-6)

    def test_monotone_map(self, rng, transfer_3_60):
        for transfer in (None, transfer_3_60):
            for _ in range(5):
                ctx = random_context(rng, transfer=transfer)
                fx = evolve_f_grid(ctx, np.linspace(0.0, 1.0, 100))
                assert np.all(np.diff(fx) >= -1e-9)

    def test_capacity_ceiling(self, rng):
        for _ in range(10):
            ctx = random_context(rng)
            fx = evolve_f_grid(ctx, np.linspace(0.0, 1.0, 100))
            assert np.all(fx <= ctx.channel.x0 + 1e-9)

    def test_affine_in_edge_weights(self, rng, ref_channel):
        ens = poisson_input(17.0)
        null = TransferFunction.null()
        d1 = random_edge_dist(rng)
        d2 = random_edge_dist(rng)
        xs = np.array([0.0, 0.11, 0.3, 0.45])
        for theta in (0.0, 0.25, 0.5, 1.0):
            mixed = {}
            for d in set(d1.edge_weights) | set(d2.edge_weights):
                mixed[d] = theta * d1.edge_weights.get(d, 0.0) + (1 - theta) * d2.edge_weights.get(d, 0.0)
            ctx_m = EvolutionContext(ref_channel, ens, null,
                                     OutputDegreeDistribution.from_edge_weights(mixed))
            ctx_1 = EvolutionContext(ref_channel, ens, null, d1)
            ctx_2 = EvolutionContext(ref_channel, ens, null, d2)
            fm = evolve_f_grid(ctx_m, xs)
            f1 = evolve_f_grid(ctx_1, xs)
            f2 = evolve_f_grid(ctx_2, xs)
            assert np.max(np.abs(fm - (theta * f1 + (1 - theta) * f2))) < 1e-12

    def test_null_transfer_reduces_to_plain_recursion(self, rng, ref_channel):
        # hand-rolled recursion with the transfer term deleted entirely
        ctx = random_context(rng, sigma_range=(0.9787, 0.9787))
        idegs, iws = ctx.input_ensemble.edge_arrays()
        odegs, ows = ctx.dist.edge_arrays()
        for x in (0.0, 0.2, 0.4, 0.6):
            mu = mean_of_ic(x, clamp=True)
            g = float(np.dot(iws, j_of_mean((idegs - 1) * mu)))
            g = min(max(g, 0.0), 1.0)
            nu = mean_of_ic(1.0 - g, clamp=True)
            expect = 1.0 - float(np.dot(ows, j_of_mean((odegs - 1) * nu + ctx.channel.f0)))
            assert evolve_f(ctx, x) == pytest.approx(min(max(expect, 0.0), 1.0), abs=1e-12)

    def test_domain_error(self, pinned_ctx):
        with pytest.raises(ValueError):
            evolve_f(pinned_ctx, -0.1)
        with pytest.raises(ValueError):
            evolve_f(pinned_ctx, 1.1)


class TestExtrinsic:
    def test_identity_at_alpha_one(self):
        assert extrinsic_ic(1.0, 0.37) == pytest.approx(0.37, abs=1e-9)

    def test_zero_stays_zero(self):
        assert extrinsic_ic(21.0, 0.0) == 0.0
        assert extrinsic_ic(3.0, 0.0) == 0.0

    def test_pinned_value(self):
        assert extrinsic_ic(21.0, 0.4) == pytest.approx(EXT_21_04, abs=1e-6)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            extrinsic_ic(0.0, 0.3)


class TestTrajectory:
    def test_pinned_at_zero_without_degree_one(self, ref_channel):
        dist = OutputDegreeDistribution.from_edge_weights({2: 0.5, 3: 0.5})
        ctx = EvolutionContext(ref_channel, poisson_input(21.0),
                               TransferFunction.null(), dist)
        traj = run_trajectory(ctx, max_iters=50, target=0.5)
        # pinned at zero up to interpolation noise from the saturating clamp
        assert traj.fixed_point < 1e-9
        assert np.all(traj.x_u < 1e-9)
        assert traj.verdict == "stalled"

    def test_points_below_capacity(self, rng):
        for _ in range(5):
            ctx = random_context(rng)
            traj = run_trajectory(ctx, max_iters=300)
            assert np.all(traj.x_u <= ctx.channel.x0 + 1e-9)
            assert np.all((traj.x_u >= 0) & (traj.x_v >= -1e-12) & (traj.x_ext >= 0))

    def test_designed_distribution_converges(self, ref_design, ref_channel):
        cfg, result = ref_design
        ctx = EvolutionContext(ref_channel, poisson_input(21.0),
                               TransferFunction.null(), result.distribution)
        traj = run_trajectory(ctx, max_iters=2000, tol=1e-9)
        assert traj.fixed_point >= ref_channel.x0 - 0.04 - 1e-6
        assert len(traj) <= 2000

    def test_pinned_trajectories(self, ref_channel, transfer_3_60):
        # fixed points and lengths of the scalar step loop, as predict_threshold
        # runs it (max_iters 5000, tol 1e-9)
        cases = [
            (LT_REF_ALPHA21, 21.0, TransferFunction.null(), None, 0.497657683569114, 922),
            (RAPTOR_JD_BEST, 7.0, transfer_3_60, 0.9609375, 0.4440698176534267, 870),
        ]
        for weights, alpha, transfer, target, fixed_point, steps in cases:
            ctx = EvolutionContext(ref_channel, poisson_input(alpha), transfer,
                                   OutputDegreeDistribution.from_node_weights(weights))
            traj = run_trajectory(ctx, max_iters=5000, tol=1e-9, target=target)
            assert traj.fixed_point == fixed_point
            assert len(traj) == steps
            assert traj.verdict == "converged"

    def test_monotone_nondecreasing_sequence(self, rng):
        ctx = random_context(rng)
        traj = run_trajectory(ctx, max_iters=200)
        assert np.all(np.diff(traj.x_u) >= -1e-12)


class TestBounds:
    def test_alpha_min_trivial_cases(self, ref_channel):
        assert alpha_min(ref_channel, 0.0) == 0.0
        # at x_p = x0 the bound collapses to sigma^2 (2/sigma^2) / 2 = 1
        assert alpha_min(ref_channel, ref_channel.x0) == pytest.approx(1.0, abs=1e-6)

    def test_alpha_min_pinned_3_60(self, ref_channel, xp_3_60):
        assert alpha_min(ref_channel, xp_3_60) == pytest.approx(5.2017, abs=2e-2)

    def test_alpha_min_domain(self, ref_channel):
        with pytest.raises(ValueError):
            alpha_min(ref_channel, 1.0)

    def test_delta_max_trivial_cases(self, ref_channel):
        assert delta_max(5.0, ref_channel, 0.0) == pytest.approx(ref_channel.x0, abs=1e-9)
        amin = alpha_min(ref_channel, 0.7)
        assert delta_max(amin, ref_channel, 0.7) == pytest.approx(0.0, abs=1e-7)

    def test_delta_max_pinned_3_60(self, ref_channel, xp_3_60):
        assert delta_max(21.0, ref_channel, xp_3_60) == pytest.approx(0.33433, abs=2e-2)

    def test_delta_max_domain(self, ref_channel):
        amin = alpha_min(ref_channel, 0.9)
        with pytest.raises(ValueError):
            delta_max(0.5 * amin, ref_channel, 0.9)

    def test_stability_floor_arithmetic(self):
        fake = ChannelParam(sigma2=1.0, x0=1.0, f0=0.0)
        assert stability_floor_omega2(2.0, fake) == pytest.approx(1.0)

    def test_stability_floor_reference_point(self, ref_channel):
        val = stability_floor_omega2(21.0, ref_channel)
        assert val == pytest.approx(1.0 / (20.0 * math.exp(-ref_channel.f0 / 4.0)), rel=1e-12)
        assert val == pytest.approx(0.0842, abs=2e-3)

    def test_stability_floor_domain(self, ref_channel):
        with pytest.raises(ValueError):
            stability_floor_omega2(1.0, ref_channel)

    def test_slope_limit_by_finite_difference(self, ref_channel):
        # omega_1 = 0 so F(0) = 0 and the slope at 0 is just F(h)/h
        dist = OutputDegreeDistribution.from_edge_weights({2: 0.1, 3: 0.9})
        ctx = EvolutionContext(ref_channel, poisson_input(21.0),
                               TransferFunction.null(), dist)
        h = 1e-5
        slope = evolve_f(ctx, h) / h
        predicted = 0.1 * 20.0 * math.exp(-ref_channel.f0 / 4.0)
        assert slope == pytest.approx(predicted, rel=0.05)
