import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_legendre

import oracles
from raptorkit.jfunction import (
    Pchip,
    _gauss_legendre,
    _get_table,
    channel_from_capacity,
    channel_from_sigma,
    j_of_mean,
    mean_of_ic,
)

# pinned by the quadrature oracle in oracles.py before the build
J_AT_4 = 0.721451590790388
J_AT_7_3 = 0.8935943069804796
X0_SIGMA_06 = 0.823997344853601
F0_SIGMA_06 = 0.5537473280687647
MEAN_ANCHOR = 2.0 / 0.9787**2  # 2.088001561...


def test_zero_mean_carries_no_information():
    assert j_of_mean(0.0) == 0.0


def test_capacity_anchor_at_published_sigma():
    assert j_of_mean(MEAN_ANCHOR) == pytest.approx(0.5, abs=5e-3)


def test_pinned_quadrature_value():
    assert j_of_mean(4.0) == pytest.approx(J_AT_4, abs=1e-7)


def test_monotone_strictly_increasing():
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 120.0, 3000)])
    vals = j_of_mean(grid)
    assert np.all(np.diff(vals) > 0.0)


def test_range_stays_in_unit_interval():
    ms = np.concatenate([np.geomspace(1e-9, 500.0, 200), [0.0, 1e6]])
    vals = j_of_mean(ms)
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        j_of_mean(-1e-9)
    with pytest.raises(ValueError):
        j_of_mean(float("nan"))
    with pytest.raises(ValueError):
        mean_of_ic(1.0)
    with pytest.raises(ValueError):
        mean_of_ic(-0.1)


def test_inverse_at_origin():
    assert mean_of_ic(0.0) == 0.0


def test_inverse_at_half_matches_anchor():
    assert mean_of_ic(0.5) == pytest.approx(MEAN_ANCHOR, abs=1e-2)


def test_inverse_roundtrip_at_pinned_point():
    assert mean_of_ic(J_AT_7_3) == pytest.approx(7.3, abs=1e-5)


def test_roundtrip_grid():
    xs = np.linspace(0.0, 0.999, 1000)
    back = j_of_mean(mean_of_ic(xs))
    assert np.max(np.abs(back - xs)) < 1e-6


def test_inverse_never_negative():
    xs = np.linspace(0.0, 0.999999, 500)
    assert np.all(mean_of_ic(xs) >= 0.0)


def test_quadrature_oracle_agreement(rng):
    ms = rng.uniform(0.0, 40.0, size=50)
    for m in ms:
        assert abs(j_of_mean(float(m)) - oracles.j_quad(float(m))) < 1e-6


def test_clamped_inverse_accepts_boundary():
    m = mean_of_ic(1.0, clamp=True)
    assert m > 50.0 and np.isfinite(m)


def test_channel_param_invariants():
    ch = channel_from_sigma(0.9787)
    assert ch.x0 == pytest.approx(0.5, abs=5e-3)
    assert ch.x0 == pytest.approx(j_of_mean(2.0 / ch.sigma2), abs=1e-12)
    assert j_of_mean(ch.f0) == pytest.approx(1.0 - ch.x0, abs=1e-9)
    # at capacity one half, 1 - x0 = x0 so f0 collapses to the channel mean
    assert ch.f0 == pytest.approx(2.0 / ch.sigma2, abs=2e-2)


def test_channel_pinned_sigma_06():
    ch = channel_from_sigma(0.6)
    assert ch.x0 == pytest.approx(X0_SIGMA_06, abs=1e-7)
    assert ch.f0 == pytest.approx(F0_SIGMA_06, abs=1e-6)


def test_channel_domain_error():
    with pytest.raises(ValueError):
        channel_from_sigma(0.0)
    with pytest.raises(ValueError):
        channel_from_sigma(-1.0)


def test_channel_from_capacity_roundtrip():
    ch = channel_from_capacity(0.5)
    assert ch.x0 == pytest.approx(0.5, abs=1e-9)
    assert ch.sigma == pytest.approx(0.9787, abs=1e-3)


def test_table_knots_match_quadrature_oracle():
    # 25 of the table's knots, geometrically spaced over [1e-7, 130]
    table = _get_table()
    ms = table.m[np.round(np.linspace(1, table.m.size - 1, 25)).astype(int)]
    assert ms[0] == 1e-7 and ms[-1] == 130.0
    ref = np.array([oracles.j_quad(float(m)) for m in ms])
    assert np.max(np.abs(j_of_mean(ms) - ref)) < 1e-14


class TestGaussLegendre:
    def test_nodes_match_scipy(self):
        nodes, _ = _gauss_legendre(1200)
        ref, _ = roots_legendre(1200)
        assert np.max(np.abs(nodes - ref)) <= 4.5e-16

    def test_weights_sum_to_two(self):
        _, weights = _gauss_legendre(1200)
        assert abs(weights.sum() - 2.0) < 1e-14

    def test_integrates_even_powers(self):
        nodes, weights = _gauss_legendre(1200)
        for k in range(21):
            assert abs(np.dot(weights, nodes ** (2 * k)) - 2.0 / (2 * k + 1)) < 1e-14


@st.composite
def pchip_tables(draw):
    """Strictly increasing knots with monotone, arbitrary or partly flat values."""
    n = draw(st.integers(min_value=2, max_value=60))
    x0 = draw(st.floats(min_value=-10.0, max_value=10.0))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=n - 1, max_size=n - 1))
    x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    kind = draw(st.sampled_from(["monotone", "any", "flat runs"]))
    if kind == "monotone":
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=n - 1, max_size=n - 1))
        y = np.concatenate(([0.0], np.cumsum(steps)))
    elif kind == "any":
        y = np.array(draw(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=n, max_size=n)))
    else:
        steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n - 1, max_size=n - 1))
        y = np.concatenate(([0.0], np.cumsum(steps)))
    return x, y, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestPchip:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # scipy's, on tiny secants
    @settings(max_examples=200, deadline=None)
    @given(table=pchip_tables())
    def test_equals_scipy_pchip(self, table):
        # everywhere but the last knot, where Pchip returns y[-1] exactly
        x, y, seed = table
        pts = np.random.default_rng(seed).uniform(x[0], x[-1], 200)
        pts = np.concatenate((pts[pts < x[-1]], x[:-1]))
        ours, ref = Pchip(x, y), PchipInterpolator(x, y)
        value, slope = ours.value_and_slope(pts)
        assert np.array_equal(ours(pts), ref(pts))
        assert np.array_equal(value, ref(pts))
        assert np.array_equal(slope, ref.derivative()(pts))
